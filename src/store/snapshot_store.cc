#include "store/snapshot_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "act/polygon_ref.h"
#include "util/byte_io.h"
#include "util/check.h"

namespace actjoin::store {

namespace {

constexpr uint32_t kSnapshotMagic = 0x53544341;  // "ACTS"
// v2 holds one index per dataset; v1 files (per-shard sections) load as
// kBadVersion.
constexpr uint32_t kSnapshotVersion = 2;
constexpr uint32_t kDeltaMagic = 0x44544341;  // "ACTD"
constexpr uint32_t kDeltaVersion = 1;
constexpr uint32_t kManifestMagic = 0x4D544341;  // "ACTM"
// v2 added the delta chain (base generation + delta generations) per
// entry; v1 manifests still parse (base = generation, no deltas).
constexpr uint32_t kManifestVersion = 2;

// Section tags (the act index body owns tags 1..3). 17 was the v1
// per-shard meta section; it is retired, never to be reused.
constexpr uint32_t kStoreHeaderTag = 16;
constexpr uint32_t kDeltaHeaderTag = 18;
constexpr uint32_t kDeltaRecordTag = 19;
constexpr uint32_t kManifestTag = 32;

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestBakName = "MANIFEST.bak";

std::string ErrnoMessage(const std::string& prefix) {
  return prefix + ": " + std::strerror(errno);
}

/// fsyncs the directory itself so the renames/links inside it are durable
/// (a file fsync makes the *bytes* durable; the directory entry needs its
/// own). Best-effort: some filesystems refuse directory fsync.
void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// The atomic-publish idiom: write <path>.tmp, fsync it, rename over
/// <path>, fsync the directory. A crash leaves either the old file, the
/// new file, or a stray .tmp — never a torn <path>.
bool WriteFileDurable(const std::string& dir, const std::string& path,
                      const std::vector<uint8_t>& bytes, bool do_fsync,
                      std::string* error) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = ErrnoMessage("open " + tmp);
    return false;
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t w = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = ErrnoMessage("write " + tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<size_t>(w);
  }
  if (do_fsync && ::fsync(fd) != 0) {
    if (error != nullptr) *error = ErrnoMessage("fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = ErrnoMessage("rename " + tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (do_fsync) FsyncDir(dir);
  return true;
}

void Fail(act::LoadError* error, act::LoadError what) {
  if (error != nullptr) *error = what;
}

// --- Snapshot file codec ---------------------------------------------------

std::vector<uint8_t> EncodeSnapshot(const std::string& name,
                                    uint64_t generation,
                                    const service::ShardedIndex& index) {
  util::ByteWriter w;
  w.PutU32(kSnapshotMagic);
  w.PutU32(kSnapshotVersion);

  size_t s = act::BeginSection(&w, kStoreHeaderTag);
  w.PutU8(static_cast<uint8_t>(index.grid().curve()));
  w.PutU64(index.num_polygons());
  w.PutU64(generation);
  w.PutString(name);
  act::EndSection(&w, s);
  // The index rides as a regular act index body (its own CRC-framed
  // sections), so loads reuse the act parser verbatim.
  if (index.index() != nullptr) act::AppendIndexBody(*index.index(), &w);
  return w.Take();
}

std::shared_ptr<const service::ShardedIndex> ParseSnapshot(
    const std::vector<uint8_t>& bytes, const std::string& expect_name,
    act::LoadError* error) {
  Fail(error, act::LoadError::kNone);
  if (bytes.size() < 8) {
    Fail(error, act::LoadError::kTruncated);
    return nullptr;
  }
  util::ByteReader head(bytes);
  if (head.U32() != kSnapshotMagic) {
    Fail(error, act::LoadError::kBadMagic);
    return nullptr;
  }
  if (head.U32() != kSnapshotVersion) {
    Fail(error, act::LoadError::kBadVersion);
    return nullptr;
  }

  size_t offset = 8;
  std::span<const uint8_t> payload;
  if (!act::ReadSection(bytes, &offset, kStoreHeaderTag, &payload, error)) {
    return nullptr;
  }
  util::ByteReader r(payload);
  uint8_t curve = r.U8();
  uint64_t num_polygons = r.U64();
  r.U64();  // generation: advisory (the file name is authoritative)
  std::string name = r.String();
  // num_polygons feeds counts.assign() on every join: bound it by the
  // file size (a real polygon costs far more than one byte in the index
  // body) so a forged header cannot plant a multi-exabyte allocation that
  // detonates at query time.
  if (!r.AtEnd() || curve > 1 || num_polygons > bytes.size() ||
      name != expect_name) {
    Fail(error, act::LoadError::kBadData);
    return nullptr;
  }

  service::ShardingOptions opts;
  std::shared_ptr<const act::PolygonIndex> index;
  if (num_polygons > 0) {
    std::optional<act::PolygonIndex> body =
        act::ParseIndexBody(bytes, &offset, error);
    if (!body.has_value()) return nullptr;
    if (body->polygons().size() != num_polygons) {
      Fail(error, act::LoadError::kBadData);
      return nullptr;
    }
    opts.build = body->options();
    index = std::make_shared<const act::PolygonIndex>(*std::move(body));
  }
  if (offset != bytes.size()) {
    Fail(error, act::LoadError::kBadData);
    return nullptr;
  }
  return std::make_shared<const service::ShardedIndex>(
      geo::Grid(static_cast<geo::CurveType>(curve)), opts, std::move(index));
}

// --- Delta file codec -------------------------------------------------------

/// A well-formed record carries exactly the payload its kind implies; the
/// writer refuses anything else so the reader never has to guess.
bool ValidDeltaRecord(const service::MutationRecord& rec) {
  switch (rec.kind) {
    case service::MutationRecord::Kind::kAdd:
      return !rec.added.empty() && rec.removed.empty();
    case service::MutationRecord::Kind::kRemove:
      return rec.added.empty() && !rec.removed.empty();
    case service::MutationRecord::Kind::kDrop:
      return rec.added.empty() && rec.removed.empty();
  }
  return false;
}

std::vector<uint8_t> EncodeDelta(
    const std::string& name, uint64_t generation, uint64_t base_generation,
    uint64_t prev_generation,
    const std::vector<service::MutationRecord>& records) {
  util::ByteWriter w;
  w.PutU32(kDeltaMagic);
  w.PutU32(kDeltaVersion);

  size_t s = act::BeginSection(&w, kDeltaHeaderTag);
  w.PutString(name);
  w.PutU64(generation);
  w.PutU64(base_generation);
  w.PutU64(prev_generation);
  w.PutU32(static_cast<uint32_t>(records.size()));
  act::EndSection(&w, s);

  for (const service::MutationRecord& rec : records) {
    s = act::BeginSection(&w, kDeltaRecordTag);
    w.PutU8(static_cast<uint8_t>(rec.kind));
    switch (rec.kind) {
      case service::MutationRecord::Kind::kAdd:
        act::AppendPolygonsBlob(rec.added, &w);
        break;
      case service::MutationRecord::Kind::kRemove:
        w.PutU32(static_cast<uint32_t>(rec.removed.size()));
        for (uint32_t gid : rec.removed) w.PutU32(gid);
        break;
      case service::MutationRecord::Kind::kDrop:
        break;
    }
    act::EndSection(&w, s);
  }
  return w.Take();
}

/// Parses <name>-<gen>.delta and cross-checks it against its place in the
/// manifest's chain: the header's name/generation/base/prev must all match
/// what the manifest claims, so a delta renamed or re-chained on disk is a
/// typed kBadData, never a silently wrong replay.
bool ParseDelta(const std::vector<uint8_t>& bytes,
                const std::string& expect_name, uint64_t expect_generation,
                uint64_t expect_base, uint64_t expect_prev,
                std::vector<service::MutationRecord>* records,
                act::LoadError* error) {
  Fail(error, act::LoadError::kNone);
  if (bytes.size() < 8) {
    Fail(error, act::LoadError::kTruncated);
    return false;
  }
  util::ByteReader head(bytes);
  if (head.U32() != kDeltaMagic) {
    Fail(error, act::LoadError::kBadMagic);
    return false;
  }
  if (head.U32() != kDeltaVersion) {
    Fail(error, act::LoadError::kBadVersion);
    return false;
  }

  size_t offset = 8;
  std::span<const uint8_t> payload;
  if (!act::ReadSection(bytes, &offset, kDeltaHeaderTag, &payload, error)) {
    return false;
  }
  util::ByteReader r(payload);
  std::string name = r.String();
  uint64_t generation = r.U64();
  uint64_t base_generation = r.U64();
  uint64_t prev_generation = r.U64();
  uint32_t count = r.U32();
  if (!r.ok() || !r.AtEnd() || name != expect_name ||
      generation != expect_generation || base_generation != expect_base ||
      prev_generation != expect_prev ||
      count > (bytes.size() - offset) / act::kSectionOverheadBytes + 1) {
    Fail(error, act::LoadError::kBadData);
    return false;
  }

  records->clear();
  records->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!act::ReadSection(bytes, &offset, kDeltaRecordTag, &payload, error)) {
      return false;
    }
    util::ByteReader rec_r(payload);
    const uint8_t kind = rec_r.U8();
    service::MutationRecord rec;
    if (!rec_r.ok()) {
      Fail(error, act::LoadError::kBadData);
      return false;
    }
    switch (kind) {
      case static_cast<uint8_t>(service::MutationRecord::Kind::kAdd): {
        rec.kind = service::MutationRecord::Kind::kAdd;
        if (!act::ParsePolygonsBlob(payload.subspan(1), &rec.added, error)) {
          return false;
        }
        if (rec.added.empty()) {
          Fail(error, act::LoadError::kBadData);
          return false;
        }
        break;
      }
      case static_cast<uint8_t>(service::MutationRecord::Kind::kRemove): {
        rec.kind = service::MutationRecord::Kind::kRemove;
        uint32_t n = rec_r.U32();
        if (!rec_r.ok() || n == 0 || n > rec_r.remaining() / 4) {
          Fail(error, act::LoadError::kBadData);
          return false;
        }
        rec.removed.reserve(n);
        for (uint32_t k = 0; k < n; ++k) rec.removed.push_back(rec_r.U32());
        if (!rec_r.ok() || !rec_r.AtEnd()) {
          Fail(error, act::LoadError::kBadData);
          return false;
        }
        break;
      }
      case static_cast<uint8_t>(service::MutationRecord::Kind::kDrop): {
        rec.kind = service::MutationRecord::Kind::kDrop;
        if (!rec_r.AtEnd()) {
          Fail(error, act::LoadError::kBadData);
          return false;
        }
        break;
      }
      default:
        Fail(error, act::LoadError::kBadData);
        return false;
    }
    records->push_back(std::move(rec));
  }
  if (offset != bytes.size()) {
    Fail(error, act::LoadError::kBadData);
    return false;
  }
  return true;
}

/// Applies one parsed record onto the replay cursor. False on a record the
/// current state cannot absorb (remove of an id that does not exist, add
/// overflowing the id space) — the caller abandons the chain typed.
bool ApplyDeltaRecord(const service::MutationRecord& rec,
                      std::shared_ptr<const service::ShardedIndex>* cur,
                      bool* dropped) {
  const service::ShardedIndex& base = **cur;
  switch (rec.kind) {
    case service::MutationRecord::Kind::kAdd: {
      if (base.num_polygons() + rec.added.size() >
          uint64_t{act::kMaxPolygonId} + 1) {
        return false;
      }
      service::ShardedIndex::Delta delta;
      delta.add = rec.added;
      *cur = service::ShardedIndex::ApplyDelta(base, delta).index;
      *dropped = false;
      return true;
    }
    case service::MutationRecord::Kind::kRemove: {
      for (uint32_t gid : rec.removed) {
        if (gid >= base.num_polygons()) return false;
      }
      service::ShardedIndex::Delta delta;
      delta.remove = rec.removed;
      *cur = service::ShardedIndex::ApplyDelta(base, delta).index;
      *dropped = false;
      return true;
    }
    case service::MutationRecord::Kind::kDrop: {
      *cur = std::make_shared<const service::ShardedIndex>(
          service::ShardedIndex::Build({}, base.grid(), base.options()));
      *dropped = true;
      return true;
    }
  }
  return false;
}

}  // namespace

// --- SnapshotStore ---------------------------------------------------------

std::string SnapshotStore::SnapshotPath(const std::string& name,
                                        uint64_t generation) const {
  return opts_.dir + "/" + name + "-" + std::to_string(generation) + ".snap";
}

std::string SnapshotStore::DeltaPath(const std::string& name,
                                     uint64_t generation) const {
  return opts_.dir + "/" + name + "-" + std::to_string(generation) + ".delta";
}

bool SnapshotStore::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

namespace {

std::vector<uint8_t> EncodeManifest(uint64_t next_generation,
                                    const std::vector<DatasetRecord>& entries) {
  util::ByteWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);
  size_t s = act::BeginSection(&w, kManifestTag);
  w.PutU64(next_generation);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const DatasetRecord& e : entries) {
    w.PutString(e.name);
    w.PutU64(e.generation);
    w.PutU64(e.base_generation);
    w.PutU32(static_cast<uint32_t>(e.delta_generations.size()));
    for (uint64_t gen : e.delta_generations) w.PutU64(gen);
  }
  act::EndSection(&w, s);
  return w.Take();
}

bool ParseManifest(const std::vector<uint8_t>& bytes,
                   uint64_t* next_generation,
                   std::vector<DatasetRecord>* entries,
                   act::LoadError* error) {
  if (bytes.size() < 8) {
    Fail(error, act::LoadError::kTruncated);
    return false;
  }
  util::ByteReader head(bytes);
  if (head.U32() != kManifestMagic) {
    Fail(error, act::LoadError::kBadMagic);
    return false;
  }
  const uint32_t version = head.U32();
  // v1 (pre-delta) manifests upgrade in place: base = generation, empty
  // chain — exactly the state a v1 store was in.
  if (version != 1 && version != kManifestVersion) {
    Fail(error, act::LoadError::kBadVersion);
    return false;
  }
  size_t offset = 8;
  std::span<const uint8_t> payload;
  if (!act::ReadSection(bytes, &offset, kManifestTag, &payload, error)) {
    return false;
  }
  if (offset != bytes.size()) {
    Fail(error, act::LoadError::kBadData);
    return false;
  }
  util::ByteReader r(payload);
  *next_generation = r.U64();
  uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / 12 + 1) {
    Fail(error, act::LoadError::kBadData);
    return false;
  }
  entries->clear();
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DatasetRecord rec;
    rec.name = r.String();
    rec.generation = r.U64();
    if (version >= 2) {
      rec.base_generation = r.U64();
      uint32_t n_deltas = r.U32();
      if (!r.ok() || n_deltas > r.remaining() / 8) {
        Fail(error, act::LoadError::kBadData);
        return false;
      }
      rec.delta_generations.reserve(n_deltas);
      for (uint32_t k = 0; k < n_deltas; ++k) {
        rec.delta_generations.push_back(r.U64());
      }
    } else {
      rec.base_generation = rec.generation;
    }
    // Chain invariants: base <= every delta (strictly ascending) and the
    // last delta is the current generation; an empty chain means base ==
    // generation. All generations were issued by the counter, so all are
    // below next_generation.
    bool chain_ok = rec.base_generation != 0 &&
                    rec.base_generation <= rec.generation;
    uint64_t prev = rec.base_generation;
    for (uint64_t gen : rec.delta_generations) {
      chain_ok = chain_ok && gen > prev;
      prev = gen;
    }
    chain_ok = chain_ok && prev == rec.generation;
    if (!r.ok() || !service::IsValidDatasetName(rec.name) ||
        rec.generation == 0 || rec.generation >= *next_generation ||
        !chain_ok) {
      Fail(error, act::LoadError::kBadData);
      return false;
    }
    entries->push_back(std::move(rec));
  }
  if (!r.AtEnd()) {
    Fail(error, act::LoadError::kBadData);
    return false;
  }
  return true;
}

/// Splits "<name>-<gen><suffix>" at the *last* dash (names may contain
/// dashes; the generation is all digits). False for anything else.
bool ParseStoreFileName(const std::string& file, const std::string& suffix,
                        std::string* name, uint64_t* generation) {
  if (file.size() <= suffix.size() ||
      file.compare(file.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string stem = file.substr(0, file.size() - suffix.size());
  const size_t dash = stem.rfind('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= stem.size()) {
    return false;
  }
  uint64_t gen = 0;
  for (size_t i = dash + 1; i < stem.size(); ++i) {
    if (stem[i] < '0' || stem[i] > '9') return false;
    if (gen > (UINT64_MAX - 9) / 10) return false;
    gen = gen * 10 + static_cast<uint64_t>(stem[i] - '0');
  }
  *name = stem.substr(0, dash);
  *generation = gen;
  return *generation != 0 && service::IsValidDatasetName(*name);
}

bool ParseSnapshotFileName(const std::string& file, std::string* name,
                           uint64_t* generation) {
  return ParseStoreFileName(file, ".snap", name, generation);
}

bool ParseDeltaFileName(const std::string& file, std::string* name,
                        uint64_t* generation) {
  return ParseStoreFileName(file, ".delta", name, generation);
}

std::vector<std::string> ListDirectory(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    const std::string file = entry->d_name;
    if (file != "." && file != "..") out.push_back(file);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

bool SnapshotStore::Open(const StoreOptions& opts, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  ACT_CHECK_MSG(!open_, "SnapshotStore::Open called twice");
  opts_ = opts;
  if (opts_.keep_generations < 1) opts_.keep_generations = 1;
  if (opts_.dir.empty()) {
    if (error != nullptr) *error = "StoreOptions.dir must be set";
    return false;
  }
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (error != nullptr) *error = ErrnoMessage("mkdir " + opts_.dir);
    return false;
  }
  // Past this point every path opens the store, so the callbacks never
  // outlive a failed Open.
  RegisterMetrics();

  // Manifest recovery ladder: primary -> .bak -> directory scan. Each
  // rung only engages when the one above is missing or fails validation,
  // and the scan trusts snapshot files themselves (they were fsynced
  // before any manifest ever referenced them).
  manifest_ = Manifest{};
  act::LoadError manifest_error = act::LoadError::kNone;
  for (const char* candidate : {kManifestName, kManifestBakName}) {
    std::vector<uint8_t> bytes;
    act::LoadError read_error = act::LoadError::kNone;
    const std::string path = opts_.dir + "/" + candidate;
    if (!act::ReadFileBytes(path, &bytes, &read_error)) {
      if (manifest_error == act::LoadError::kNone) {
        manifest_error = read_error;
      }
      continue;
    }
    if (ParseManifest(bytes, &manifest_.next_generation, &manifest_.entries,
                      &read_error)) {
      open_ = true;
      dataset_count_.store(manifest_.entries.size(),
                           std::memory_order_relaxed);
      manifest_primary_healthy_ = candidate == kManifestName;
      if (candidate != kManifestName) {
        std::fprintf(stderr,
                     "[store] %s unusable (%s); recovered catalog from %s\n",
                     kManifestName, act::ToString(manifest_error), candidate);
        AppendEvent("manifest_recovery", opts_.dir,
                    std::string("primary unusable (") +
                        act::ToString(manifest_error) + "); recovered from " +
                        candidate);
        // Heal the primary now: the next WriteManifestLocked hard-links
        // the primary over the .bak before renaming, so leaving a
        // corrupt primary in place would let a crash inside that next
        // rewrite destroy the only good copy.
        std::string rewrite_error;
        if (!WriteManifestLocked(&rewrite_error)) {
          std::fprintf(stderr, "[store] manifest heal failed: %s\n",
                       rewrite_error.c_str());
        }
      }
      return true;
    }
    std::fprintf(stderr, "[store] %s corrupt: %s\n", candidate,
                 act::ToString(read_error));
    if (manifest_error == act::LoadError::kNone ||
        candidate == kManifestName) {
      manifest_error = read_error;
    }
  }

  // Directory scan: newest generation per dataset. Manifest order (=
  // first-Put order, what keeps catalog ids stable) is reconstructed
  // best-effort by each dataset's *minimum* surviving generation —
  // generations are globally monotonic, so absent GC this is exactly
  // first-Put order; after GC it can renumber, which is why the log
  // below tells clients to re-resolve ids via LIST_DATASETS. kMissing
  // for both manifests is the fresh-store case, not a recovery.
  struct Scanned {
    uint64_t min_generation;
    uint64_t max_generation;
  };
  std::unordered_map<std::string, Scanned> scanned;
  uint64_t max_generation = 0;
  for (const std::string& file : ListDirectory(opts_.dir)) {
    std::string name;
    uint64_t generation = 0;
    if (ParseDeltaFileName(file, &name, &generation)) {
      // Orphaned deltas are not recovered (see below), but their
      // generation numbers were issued: keep the counter past them.
      max_generation = std::max(max_generation, generation);
      continue;
    }
    if (!ParseSnapshotFileName(file, &name, &generation)) continue;
    max_generation = std::max(max_generation, generation);
    auto [it, inserted] = scanned.emplace(name, Scanned{generation, generation});
    if (!inserted) {
      it->second.min_generation =
          std::min(it->second.min_generation, generation);
      it->second.max_generation =
          std::max(it->second.max_generation, generation);
    }
  }
  std::vector<std::pair<uint64_t, DatasetRecord>> ordered;
  ordered.reserve(scanned.size());
  for (const auto& [name, gens] : scanned) {
    // Scan recovery is fulls-only: a delta chain is only replayable in the
    // exact order a manifest vouched for, and the manifest is gone. The
    // newest full generation becomes base and current; orphaned .delta
    // files fall to GC.
    DatasetRecord rec;
    rec.name = name;
    rec.generation = gens.max_generation;
    rec.base_generation = gens.max_generation;
    ordered.emplace_back(gens.min_generation, std::move(rec));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [min_gen, rec] : ordered) {
    manifest_.entries.push_back(std::move(rec));
  }
  manifest_.next_generation = max_generation + 1;
  if (!manifest_.entries.empty()) {
    std::fprintf(stderr,
                 "[store] no manifest (%s); recovered %zu dataset(s) by "
                 "directory scan — catalog ids may be renumbered, clients "
                 "should re-resolve names via LIST_DATASETS\n",
                 act::ToString(manifest_error), manifest_.entries.size());
    AppendEvent("manifest_recovery", opts_.dir,
                "directory scan recovered " +
                    std::to_string(manifest_.entries.size()) + " dataset(s)");
  }
  open_ = true;
  dataset_count_.store(manifest_.entries.size(), std::memory_order_relaxed);
  return true;
}

std::vector<DatasetRecord> SnapshotStore::Datasets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.entries;
}

void SnapshotStore::RegisterMetrics() {
  util::MetricsRegistry* r = opts_.metrics;
  if (r == nullptr) return;
  r->RegisterCounterFn(
      "store_puts_total", "Snapshot files committed, by kind",
      "kind=\"full\"",
      [this] { return puts_.load(std::memory_order_relaxed); });
  r->RegisterCounterFn(
      "store_puts_total", "", "kind=\"delta\"",
      [this] { return delta_puts_.load(std::memory_order_relaxed); });
  r->RegisterCounterFn(
      "store_put_failures_total", "Put/PutDelta attempts that failed", "",
      [this] { return put_failures_.load(std::memory_order_relaxed); });
  r->RegisterCounterFn(
      "store_loads_total", "Snapshot load attempts", "",
      [this] { return loads_.load(std::memory_order_relaxed); });
  r->RegisterCounterFn(
      "store_load_fallbacks_total",
      "Loads served by an older generation or an abandoned delta chain", "",
      [this] { return load_fallbacks_.load(std::memory_order_relaxed); });
  r->RegisterCounterFn(
      "store_gc_files_removed_total", "Files reclaimed by GarbageCollect",
      "",
      [this] { return gc_files_removed_.load(std::memory_order_relaxed); });
  r->RegisterGaugeFn("store_datasets", "Datasets in the manifest", "",
                     [this] {
                       return static_cast<double>(
                           dataset_count_.load(std::memory_order_relaxed));
                     });
}

void SnapshotStore::AppendEvent(std::string kind, std::string subject,
                                std::string detail) const {
  if (opts_.metrics == nullptr) return;
  opts_.metrics->events().Append(std::move(kind), std::move(subject),
                                 std::move(detail));
}

bool SnapshotStore::WriteManifestLocked(std::string* error) {
  const std::string path = opts_.dir + "/" + kManifestName;
  const std::string bak = opts_.dir + "/" + kManifestBakName;
  // Preserve the current manifest as a hard link before the rename
  // replaces it: the primary's inode stays reachable, so external
  // corruption of the new primary still leaves one complete catalog.
  // Rotation is skipped while the primary is known-bad (Open recovered
  // from .bak and is healing) — linking a corrupt primary over the .bak
  // would destroy the only good copy right before a crash could strand
  // us with neither.
  if (manifest_primary_healthy_) {
    ::unlink(bak.c_str());
    ::link(path.c_str(), bak.c_str());  // ENOENT on first write: fine
  }
  if (!WriteFileDurable(
          opts_.dir, path,
          EncodeManifest(manifest_.next_generation, manifest_.entries),
          opts_.fsync, error)) {
    return false;
  }
  manifest_primary_healthy_ = true;
  return true;
}

bool SnapshotStore::Put(const std::string& name,
                        const service::ShardedIndex& index,
                        uint64_t* generation, std::string* error) {
  if (!service::IsValidDatasetName(name)) {
    if (error != nullptr) *error = "invalid dataset name: " + name;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    if (error != nullptr) *error = "store is not open";
    return false;
  }
  const uint64_t gen = manifest_.next_generation;

  // Order is the crash-safety contract: (1) snapshot file becomes durable
  // under its final name, (2) the manifest commits it. A crash between
  // the two leaves an orphan file the manifest never references.
  if (!WriteFileDurable(opts_.dir, SnapshotPath(name, gen),
                        EncodeSnapshot(name, gen, index), opts_.fsync,
                        error)) {
    put_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  Manifest rollback = manifest_;
  manifest_.next_generation = gen + 1;
  bool found = false;
  for (DatasetRecord& rec : manifest_.entries) {
    if (rec.name == name) {
      // A full snapshot compacts: it becomes the new chain base and the
      // old delta files are superseded (GC reclaims them).
      rec.generation = gen;
      rec.base_generation = gen;
      rec.delta_generations.clear();
      found = true;
      break;
    }
  }
  if (!found) {
    DatasetRecord rec;
    rec.name = name;
    rec.generation = gen;
    rec.base_generation = gen;
    manifest_.entries.push_back(std::move(rec));
  }
  if (!WriteManifestLocked(error)) {
    manifest_ = std::move(rollback);  // the orphan file is GC's problem
    put_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  puts_.fetch_add(1, std::memory_order_relaxed);
  dataset_count_.store(manifest_.entries.size(), std::memory_order_relaxed);
  if (generation != nullptr) *generation = gen;
  return true;
}

bool SnapshotStore::PutDelta(const std::string& name,
                             const std::vector<service::MutationRecord>& records,
                             uint64_t* generation, std::string* error) {
  if (!service::IsValidDatasetName(name)) {
    if (error != nullptr) *error = "invalid dataset name: " + name;
    return false;
  }
  if (records.empty()) {
    if (error != nullptr) *error = "empty delta for dataset: " + name;
    return false;
  }
  for (const service::MutationRecord& rec : records) {
    if (!ValidDeltaRecord(rec)) {
      if (error != nullptr) *error = "malformed delta record for: " + name;
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    if (error != nullptr) *error = "store is not open";
    return false;
  }
  DatasetRecord* rec = nullptr;
  for (DatasetRecord& e : manifest_.entries) {
    if (e.name == name) {
      rec = &e;
      break;
    }
  }
  if (rec == nullptr) {
    if (error != nullptr) {
      *error = "dataset '" + name + "' has no full snapshot to delta against";
    }
    return false;
  }
  const uint64_t gen = manifest_.next_generation;

  // Same crash-safety order as Put: the delta file becomes durable under
  // its final name, then the manifest commits the extended chain. A crash
  // between the two leaves an orphan .delta that Load never replays.
  if (!WriteFileDurable(
          opts_.dir, DeltaPath(name, gen),
          EncodeDelta(name, gen, rec->base_generation, rec->generation,
                      records),
          opts_.fsync, error)) {
    put_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  Manifest rollback = manifest_;
  manifest_.next_generation = gen + 1;
  rec->generation = gen;
  rec->delta_generations.push_back(gen);
  if (!WriteManifestLocked(error)) {
    manifest_ = std::move(rollback);  // the orphan file is GC's problem
    put_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  delta_puts_.fetch_add(1, std::memory_order_relaxed);
  if (generation != nullptr) *generation = gen;
  return true;
}

std::vector<uint64_t> SnapshotStore::DiskGenerations(
    const std::string& name) const {
  std::vector<uint64_t> out;
  for (const std::string& file : ListDirectory(opts_.dir)) {
    std::string file_name;
    uint64_t generation = 0;
    if (ParseSnapshotFileName(file, &file_name, &generation) &&
        file_name == name) {
      out.push_back(generation);
    }
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::shared_ptr<const service::ShardedIndex> SnapshotStore::Load(
    const std::string& name, LoadReport* report) const {
  LoadReport local;
  LoadReport& rep = report != nullptr ? *report : local;
  rep = LoadReport{};
  loads_.fetch_add(1, std::memory_order_relaxed);

  DatasetRecord rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) {
      rep.error = act::LoadError::kMissing;
      rep.detail = "store is not open";
      return nullptr;
    }
    for (const DatasetRecord& e : manifest_.entries) {
      if (e.name == name) {
        rec = e;
        break;
      }
    }
  }
  if (rec.generation == 0) {
    rep.error = act::LoadError::kMissing;
    rep.detail = "dataset not in manifest";
    return nullptr;
  }

  // Candidate ladder: the manifest's base full generation (plus its delta
  // chain), then — only if the base fails, so the common clean load never
  // pays a directory scan — every older on-disk full generation, newest
  // first, without deltas (the chain replays only on its exact base).
  // Newer-than-manifest orphans are skipped on purpose: an uncommitted
  // Put must stay invisible, exactly as if the crash had hit one
  // instruction earlier.
  auto try_generation =
      [&](uint64_t gen,
          act::LoadError* err) -> std::shared_ptr<const service::ShardedIndex> {
    std::vector<uint8_t> bytes;
    if (!act::ReadFileBytes(SnapshotPath(name, gen), &bytes, err)) {
      return nullptr;
    }
    return ParseSnapshot(bytes, name, err);
  };

  act::LoadError err = act::LoadError::kNone;
  if (auto base = try_generation(rec.base_generation, &err)) {
    // Replay the delta chain on top of the base. Any unusable delta —
    // unreadable, corrupt, or inconsistent with the current state —
    // abandons the *whole* chain: partial replay would serve a state
    // that was never published, so the base full stands in alone.
    std::shared_ptr<const service::ShardedIndex> cur = base;
    uint64_t prev_gen = rec.base_generation;
    bool dropped = false;
    for (uint64_t dgen : rec.delta_generations) {
      std::vector<uint8_t> bytes;
      std::vector<service::MutationRecord> records;
      bool ok =
          act::ReadFileBytes(DeltaPath(name, dgen), &bytes, &err) &&
          ParseDelta(bytes, name, dgen, rec.base_generation, prev_gen,
                     &records, &err);
      for (size_t i = 0; ok && i < records.size(); ++i) {
        if (!ApplyDeltaRecord(records[i], &cur, &dropped)) {
          err = act::LoadError::kBadData;
          ok = false;
        }
      }
      if (!ok) {
        load_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        rep.error = err;
        rep.fell_back = true;
        rep.deltas_applied = 0;
        rep.generation = rec.base_generation;
        rep.detail = "delta gen " + std::to_string(dgen) + ": " +
                     act::ToString(err);
        std::fprintf(stderr,
                     "[store] dataset '%s': delta generation %llu unusable "
                     "(%s); serving base full generation %llu\n",
                     name.c_str(), static_cast<unsigned long long>(dgen),
                     act::ToString(err),
                     static_cast<unsigned long long>(rec.base_generation));
        return base;
      }
      prev_gen = dgen;
      ++rep.deltas_applied;
    }
    rep.generation = rec.generation;
    rep.dropped = dropped;
    return cur;
  }
  rep.error = err;
  rep.detail =
      "gen " + std::to_string(rec.base_generation) + ": " + act::ToString(err);

  for (uint64_t gen : DiskGenerations(name)) {
    if (gen >= rec.base_generation) continue;
    if (auto index = try_generation(gen, &err)) {
      load_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      rep.generation = gen;
      rep.fell_back = true;
      std::fprintf(stderr,
                   "[store] dataset '%s': generation %llu unusable (%s); "
                   "serving generation %llu\n",
                   name.c_str(),
                   static_cast<unsigned long long>(rec.base_generation),
                   act::ToString(rep.error),
                   static_cast<unsigned long long>(gen));
      return index;
    }
    rep.detail += "; gen " + std::to_string(gen) + ": " + act::ToString(err);
  }
  std::fprintf(stderr, "[store] dataset '%s': no loadable generation (%s)\n",
               name.c_str(), rep.detail.c_str());
  return nullptr;
}

int SnapshotStore::GarbageCollect(std::string* error) {
  // Runs entirely under mu_: the keep/orphan decision must be made
  // against the *live* manifest, or a Put committing between a manifest
  // copy and the unlink walk would see its freshly committed file
  // classified as an uncommitted orphan and deleted. The lock is held
  // across directory I/O, which only delays other Put/Load manifest
  // peeks by milliseconds — none of this is on the serving path.
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) {
    if (error != nullptr) *error = "store is not open";
    return 0;
  }
  const std::string& dir = opts_.dir;
  const auto keep = static_cast<size_t>(opts_.keep_generations);

  // One directory pass, grouped by dataset name.
  std::vector<std::string> tmp_files;
  struct File {
    std::string path;
    uint64_t generation;
  };
  std::unordered_map<std::string, std::vector<File>> by_name;
  std::unordered_map<std::string, std::vector<File>> deltas_by_name;
  for (const std::string& file : ListDirectory(dir)) {
    const std::string path = dir + "/" + file;
    if (file.size() > 4 && file.compare(file.size() - 4, 4, ".tmp") == 0) {
      tmp_files.push_back(path);  // interrupted write
      continue;
    }
    std::string name;
    uint64_t generation = 0;
    if (ParseDeltaFileName(file, &name, &generation)) {
      deltas_by_name[name].push_back({path, generation});
      continue;
    }
    if (!ParseSnapshotFileName(file, &name, &generation)) continue;
    by_name[name].push_back({path, generation});
  }

  int removed = 0;
  for (const std::string& path : tmp_files) {
    if (::unlink(path.c_str()) == 0) ++removed;
  }
  // A delta file is alive only while the manifest's chain references it:
  // a full Put supersedes the whole chain at once, and orphans of an
  // uncommitted PutDelta were never replayable to begin with. (Older full
  // generations kept as corruption fallbacks load without deltas, so no
  // delta needs to outlive its chain.)
  for (auto& [name, files] : deltas_by_name) {
    const DatasetRecord* rec = nullptr;
    for (const DatasetRecord& e : manifest_.entries) {
      if (e.name == name) {
        rec = &e;
        break;
      }
    }
    for (const File& f : files) {
      const bool referenced =
          rec != nullptr &&
          std::find(rec->delta_generations.begin(),
                    rec->delta_generations.end(),
                    f.generation) != rec->delta_generations.end();
      if (referenced) continue;
      if (::unlink(f.path.c_str()) == 0) ++removed;
    }
  }
  for (auto& [name, files] : by_name) {
    const DatasetRecord* rec = nullptr;
    for (const DatasetRecord& e : manifest_.entries) {
      if (e.name == name) {
        rec = &e;
        break;
      }
    }
    // Keep the manifest's generation plus keep-1 predecessors as Load's
    // corruption fallbacks; anything older is superseded. Generations
    // above the manifest's are orphans of an uncommitted Put, and files
    // of datasets the manifest does not know have no owner at all.
    std::sort(files.begin(), files.end(),
              [](const File& a, const File& b) {
                return a.generation > b.generation;
              });
    size_t kept = 0;
    for (const File& f : files) {
      const bool committed = rec != nullptr && f.generation <= rec->generation;
      if (committed && kept < keep) {
        ++kept;
        continue;
      }
      if (::unlink(f.path.c_str()) == 0) ++removed;
    }
  }
  if (removed > 0 && opts_.fsync) FsyncDir(dir);
  if (removed > 0) {
    gc_files_removed_.fetch_add(static_cast<uint64_t>(removed),
                                std::memory_order_relaxed);
    AppendEvent("gc", opts_.dir,
                std::to_string(removed) + " file(s) removed");
  }
  return removed;
}

size_t WarmStart(const SnapshotStore& store, service::ServiceCatalog* catalog,
                 std::vector<std::string>* failed) {
  size_t served = 0;
  for (const DatasetRecord& rec : store.Datasets()) {
    LoadReport report;
    std::shared_ptr<const service::ShardedIndex> index =
        store.Load(rec.name, &report);
    if (index == nullptr) {
      // Reserve the id anyway: catalog ids are positional, so skipping
      // this slot would route every later dataset's cached client ids to
      // the wrong data. Offline datasets reject joins typed until a good
      // snapshot is published into their registry.
      catalog->AddOffline(rec.name);
      if (failed != nullptr) {
        failed->push_back(rec.name + ": " + report.detail);
      }
      continue;
    }
    std::optional<uint16_t> id = catalog->Add(rec.name, std::move(index));
    if (!id.has_value()) {
      if (failed != nullptr) {
        failed->push_back(rec.name + ": catalog refused (duplicate name?)");
      }
      continue;
    }
    // A chain ending in DROP_DATASET restarts as it shut down: empty
    // snapshot published, tombstone set, joins rejecting typed.
    if (report.dropped) catalog->MarkDropped(*id, true);
    ++served;
  }
  return served;
}

}  // namespace actjoin::store
