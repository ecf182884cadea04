#include "service/service_catalog.h"

#include <limits>
#include <utility>

namespace actjoin::service {

bool IsValidDatasetName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

ServiceCatalog::ServiceCatalog() {
  // Full u16 id space up front: push_back must never reallocate the slot
  // array a lock-free Find may be reading.
  datasets_.reserve(size_t{std::numeric_limits<uint16_t>::max()} + 1);
}

std::optional<uint16_t> ServiceCatalog::Add(const std::string& name,
                                            Snapshot initial) {
  if (initial == nullptr) return std::nullopt;
  return AddEntry(name, std::move(initial));
}

std::optional<uint16_t> ServiceCatalog::AddOffline(const std::string& name) {
  return AddEntry(name, nullptr);
}

std::optional<uint16_t> ServiceCatalog::AddEntry(const std::string& name,
                                                 Snapshot initial) {
  if (!IsValidDatasetName(name)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.size() > std::numeric_limits<uint16_t>::max()) {
    return std::nullopt;
  }
  for (const auto& ds : datasets_) {
    if (ds->name == name) return std::nullopt;
  }
  auto ds = std::make_unique<Dataset>();
  ds->name = name;
  if (initial != nullptr) ds->registry.Publish(std::move(initial));
  datasets_.push_back(std::move(ds));
  // Publish the slot to lock-free readers only after it is fully built.
  size_.store(datasets_.size(), std::memory_order_release);
  return static_cast<uint16_t>(datasets_.size() - 1);
}

std::optional<uint16_t> ServiceCatalog::IdOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < datasets_.size(); ++i) {
    if (datasets_[i]->name == name) return static_cast<uint16_t>(i);
  }
  return std::nullopt;
}

std::string ServiceCatalog::NameOf(uint16_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= datasets_.size()) return "";
  return datasets_[id]->name;
}

std::vector<DatasetInfo> ServiceCatalog::List() const {
  // Snapshot the entry pointers under the lock, then read epochs without
  // it: registry pointers are stable and have their own lock, and holding
  // mu_ across Acquire() would serialize listing against Add().
  std::vector<Dataset*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(datasets_.size());
    for (const auto& ds : datasets_) entries.push_back(ds.get());
  }
  std::vector<DatasetInfo> out;
  out.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    DatasetInfo info;
    info.id = static_cast<uint16_t>(i);
    info.name = entries[i]->name;
    Snapshot snap = entries[i]->registry.Acquire(&info.epoch);
    if (snap != nullptr) info.num_polygons = snap->num_polygons();
    info.dropped = entries[i]->dropped.load(std::memory_order_acquire);
    out.push_back(std::move(info));
  }
  return out;
}

size_t ServiceCatalog::size() const {
  return size_.load(std::memory_order_acquire);
}

}  // namespace actjoin::service
