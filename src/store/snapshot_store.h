// SnapshotStore: a durable, crash-safe home for served index snapshots.
//
// The paper's deployment is build-once, serve-long: polygons change
// rarely, queries never stop. Without a store, every restart re-runs the
// expensive covering pipeline for every dataset; with it, a restart is a
// sequential file read plus the milliseconds-scale classifier/trie
// rebuild that loading already does. The store owns one directory:
//
//   <dir>/MANIFEST            current catalog: dataset name -> generation
//                             chain (base full snapshot + delta files)
//   <dir>/MANIFEST.bak        previous manifest (hard link, kept across
//                             rewrites as the bit-rot fallback)
//   <dir>/<name>-<gen>.snap   one immutable full snapshot per generation
//   <dir>/<name>-<gen>.delta  one immutable delta (mutation span) per
//                             generation, chained off the last full
//   <dir>/*.tmp               in-progress writes (crash leftovers; GC'd)
//
// Crash safety is the postgres discipline, applied twice:
//
//   * Snapshot files are immutable once visible: Put writes
//     <file>.tmp, fsyncs, then rename(2)s into place — a reader can never
//     observe a half-written snapshot under its final name.
//   * The manifest commits a Put: it is rewritten the same way (tmp +
//     fsync + atomic rename + directory fsync), so it always parses as
//     either the old or the new catalog, never a torn mix. The previous
//     manifest survives as a hard link (MANIFEST.bak) to cover external
//     corruption of the primary, and Open falls back primary -> .bak ->
//     directory scan, so the store recovers to the last complete
//     generation no matter where a crash (or a flipped bit) landed.
//
// A crash *between* snapshot write and manifest rename leaves an orphan
// <name>-<gen>.snap the manifest never references: invisible to Load,
// overwritten by the next Put of that generation number, removed by
// GarbageCollect. Generations come from one monotonic counter persisted
// in the manifest, so a committed generation number is never reissued.
//
// Snapshot file format (v2, little-endian; section framing and LoadError
// from act/serialization.h — every section carries a CRC32C):
//
//   u32 magic "ACTS" | u32 version
//   header section:  curve, num_polygons, generation, dataset name
//   when num_polygons > 0: the act index body (options/polygons/covering
//                    sections, as on a single-index file)
//
// A v1 file (one section per Hilbert-range shard) loads as the typed
// kBadVersion. Loading re-derives classifier/encoding/trie but never
// redoes covering work, so joins against a loaded snapshot are
// byte-identical to the saved index (asserted end-to-end over the wire in
// tests/store_test.cc).
//
// Delta files (the live-mutation half of the store) make checkpointing a
// mutated dataset O(churn) instead of O(index): PutDelta persists a span
// of mutation records — the adds/removes/drop the journal accumulated
// since the last checkpoint — as <name>-<gen>.delta, and the manifest
// records the chain: one base full generation plus the ascending delta
// generations on top of it. Load replays the chain through
// ShardedIndex::ApplyDelta, which reuses the base coverings, so restart
// cost tracks churn, not dataset size. Delta file format (v1):
//
//   u32 magic "ACTD" | u32 version
//   header section:  name, generation, base generation, previous
//                    generation in the chain, record count
//   per record:      one section — kind byte, then the polygons blob
//                    (kAdd) / id list (kRemove) / nothing (kDrop)
//
// A corrupt or missing delta anywhere in the chain falls back — typed,
// in the LoadReport — to the base full generation alone: deltas are an
// optimization, never the only copy of data that was ever checkpointed
// full. A full Put resets the chain (and GC then removes the superseded
// delta files). The directory-scan manifest recovery remains fulls-only:
// a chain is only trusted when a manifest vouches for its exact order.
//
// Thread safety: all members are safe to call concurrently (one mutex
// around the manifest; snapshot files are immutable so reads run
// unlocked). Typical writers: one Checkpointer; typical readers: warm
// restart + operator tooling.

#ifndef ACTJOIN_STORE_SNAPSHOT_STORE_H_
#define ACTJOIN_STORE_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "act/serialization.h"
#include "service/mutation_journal.h"
#include "service/service_catalog.h"
#include "service/sharded_index.h"
#include "util/metrics.h"

namespace actjoin::store {

struct StoreOptions {
  std::string dir;
  /// fsync snapshot files, the manifest, and the directory at every
  /// commit point. On by default — this is what makes a crash recoverable
  /// — but logic-only tests may turn it off to spare iops.
  bool fsync = true;
  /// Snapshot generations GarbageCollect keeps per dataset (>= 1): the
  /// current one plus keep_generations - 1 older fallbacks for Load's
  /// corruption recovery.
  int keep_generations = 2;
  /// Optional observability sink (typically the serving JoinService's
  /// registry): Open registers store_* counters as collection-time
  /// callbacks, and manifest recoveries / GC sweeps append to its event
  /// log. Must outlive the store. Null: no registration, no events.
  util::MetricsRegistry* metrics = nullptr;
};

struct DatasetRecord {
  std::string name;
  /// Current logical generation: the last delta's, or base_generation
  /// when the chain is empty.
  uint64_t generation = 0;
  /// Generation of the full snapshot the delta chain replays on top of.
  uint64_t base_generation = 0;
  /// Delta generations in chain (= Put) order, strictly ascending, each >
  /// base_generation; the last equals `generation`.
  std::vector<uint64_t> delta_generations;

  friend bool operator==(const DatasetRecord&, const DatasetRecord&) = default;
};

/// Load's audit trail: which generation was actually served and what went
/// wrong on the way there (surfaced in store/server logs, so operators can
/// tell bit-rot from absence).
struct LoadReport {
  /// Error of the *first* (manifest-referenced) attempt; kNone when it
  /// loaded cleanly.
  act::LoadError error = act::LoadError::kNone;
  /// Generation actually loaded; 0 when every candidate failed.
  uint64_t generation = 0;
  /// True when an older generation had to stand in for a corrupt current
  /// one (including a delta chain falling back to its base full).
  bool fell_back = false;
  /// Delta files replayed on top of the base full generation (0 when the
  /// chain was empty or had to be abandoned).
  uint32_t deltas_applied = 0;
  /// True when the replayed chain ends in a DROP_DATASET tombstone: the
  /// returned (empty) index should be published with the dataset marked
  /// dropped, so joins keep rejecting typed across a restart.
  bool dropped = false;
  /// Human-readable failure trail ("gen 7: checksum mismatch; ...").
  std::string detail;
};

class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Opens (creating the directory if needed) and recovers the manifest:
  /// primary, then MANIFEST.bak, then a directory scan of *.snap files.
  /// False + *error only on real I/O trouble (directory not creatable /
  /// readable); an empty directory is a valid empty store.
  bool Open(const StoreOptions& opts, std::string* error = nullptr);
  bool is_open() const;

  /// Current manifest entries, in manifest (= first-Put) order — the
  /// order WarmStart replays, so catalog ids are stable across restarts.
  std::vector<DatasetRecord> Datasets() const;

  /// Persists `index` as the next generation of `name` (creating the
  /// dataset on first Put) and commits it to the manifest. On return the
  /// snapshot is durable: a crash at any later point recovers it. A full
  /// Put resets the dataset's delta chain (compaction): the new
  /// generation becomes the base and the superseded deltas go to GC.
  bool Put(const std::string& name, const service::ShardedIndex& index,
           uint64_t* generation = nullptr, std::string* error = nullptr);

  /// Persists a span of mutation records as the next generation of
  /// `name`'s delta chain — O(churn), not O(index) — and commits it to
  /// the manifest. The dataset must already have a full snapshot (a delta
  /// with no base would be replayable against nothing). Records must be
  /// well-formed (kAdd with polygons, kRemove with ids, kDrop bare);
  /// their epoch field is not persisted — generations are the store's
  /// ordering axis.
  bool PutDelta(const std::string& name,
                const std::vector<service::MutationRecord>& records,
                uint64_t* generation = nullptr, std::string* error = nullptr);

  /// Loads `name`'s current state: the base full generation, then the
  /// delta chain replayed on top (ShardedIndex::ApplyDelta, reusing the
  /// base coverings). A corrupt delta anywhere in the chain abandons the
  /// chain and serves the base full alone (typed in *report); a corrupt
  /// base falls back to older full generations (newest first, without
  /// deltas — they chain off the exact base) so one bad block costs a
  /// generation, not the dataset. Null when the dataset is unknown or no
  /// candidate loads.
  std::shared_ptr<const service::ShardedIndex> Load(
      const std::string& name, LoadReport* report = nullptr) const;

  /// Removes files the manifest does not vouch for: *.tmp leftovers,
  /// generations beyond keep_generations, orphans from interrupted Puts,
  /// delta files outside every dataset's current chain, and files of
  /// datasets the manifest does not know. Returns the number of files
  /// removed.
  int GarbageCollect(std::string* error = nullptr);

  const StoreOptions& options() const { return opts_; }
  /// The absolute snapshot path a (name, generation) pair maps to.
  std::string SnapshotPath(const std::string& name, uint64_t generation) const;
  /// The absolute delta path a (name, generation) pair maps to.
  std::string DeltaPath(const std::string& name, uint64_t generation) const;

 private:
  struct Manifest {
    uint64_t next_generation = 1;
    std::vector<DatasetRecord> entries;  // manifest order == first-Put order
  };

  bool WriteManifestLocked(std::string* error);
  /// All on-disk generations of `name`, newest first.
  std::vector<uint64_t> DiskGenerations(const std::string& name) const;
  /// Registers store_* instruments into opts_.metrics (no-op when null).
  /// Every callback reads only atomics, so collection never touches mu_.
  void RegisterMetrics();
  /// Appends to opts_.metrics' event log (no-op when null).
  void AppendEvent(std::string kind, std::string subject,
                   std::string detail) const;

  StoreOptions opts_;
  bool open_ = false;

  /// Observability counters, atomic so metric collection (which runs
  /// under the registry mutex) never takes mu_ — no lock-order edge
  /// between the two.
  mutable std::atomic<uint64_t> puts_{0};
  mutable std::atomic<uint64_t> delta_puts_{0};
  mutable std::atomic<uint64_t> put_failures_{0};
  mutable std::atomic<uint64_t> loads_{0};
  mutable std::atomic<uint64_t> load_fallbacks_{0};
  mutable std::atomic<uint64_t> gc_files_removed_{0};
  mutable std::atomic<uint64_t> dataset_count_{0};

  mutable std::mutex mu_;
  Manifest manifest_;
  /// False while the on-disk primary MANIFEST is known-bad (Open
  /// recovered from .bak or a scan): WriteManifestLocked must not rotate
  /// it over the good .bak until a fresh primary is durable.
  bool manifest_primary_healthy_ = false;
};

/// Boots a catalog from the store: loads every manifest entry (in manifest
/// order, so dataset ids reproduce the original Add order) and publishes
/// each as a catalog dataset. A dataset that fails to load entirely is
/// registered *offline* (its id slot is reserved, joins against it reject
/// typed — positional ids must not shift onto the wrong data) and reported
/// in *failed with its LoadReport detail — a warm restart serves what it
/// can instead of refusing to start. A dataset whose chain ends in a
/// DROP_DATASET tombstone is registered with its (empty) snapshot and
/// marked dropped, so it keeps rejecting joins typed after the restart.
/// Returns the number of datasets actually served.
size_t WarmStart(const SnapshotStore& store, service::ServiceCatalog* catalog,
                 std::vector<std::string>* failed = nullptr);

}  // namespace actjoin::store

#endif  // ACTJOIN_STORE_SNAPSHOT_STORE_H_
