#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace actjoin::net {

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string ErrnoMessage(const std::string& prefix) {
  return prefix + ": " + std::strerror(errno);
}

bool SetNonBlocking(int fd, std::string* error) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    if (error != nullptr) *error = ErrnoMessage("fcntl(O_NONBLOCK)");
    return false;
  }
  return true;
}

namespace {

bool FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr,
              std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address: " + host;
    return false;
  }
  return true;
}

}  // namespace

UniqueFd ListenTcp(const std::string& host, uint16_t port, int backlog,
                   uint16_t* bound_port, std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return UniqueFd();

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = ErrnoMessage("socket");
    return UniqueFd();
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = ErrnoMessage("bind");
    return UniqueFd();
  }
  if (::listen(fd.get(), backlog) < 0) {
    if (error != nullptr) *error = ErrnoMessage("listen");
    return UniqueFd();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      if (error != nullptr) *error = ErrnoMessage("getsockname");
      return UniqueFd();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

UniqueFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return UniqueFd();

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = ErrnoMessage("socket");
    return UniqueFd();
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (error != nullptr) *error = ErrnoMessage("connect");
    return UniqueFd();
  }
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const uint8_t* data, size_t n, std::string* error) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = ErrnoMessage("send");
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

bool RecvAll(int fd, uint8_t* data, size_t n, std::string* error) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = ErrnoMessage("recv");
      return false;
    }
    if (r == 0) {
      if (error != nullptr) *error = "connection closed by peer";
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

std::string PeerAddress(int fd, bool include_port) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return "unknown";
  }
  char ip[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip)) == nullptr) {
    return "unknown";
  }
  std::string out(ip);
  if (include_port) {
    out += ':';
    out += std::to_string(ntohs(addr.sin_port));
  }
  return out;
}

}  // namespace actjoin::net
