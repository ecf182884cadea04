// ServiceCatalog: named, hot-swappable datasets behind one serving stack.
//
// The paper's deployment serves one polygon set; production serves many
// (city zones, geofences, census tracts, ...) from one process. The
// catalog maps a stable dataset name to a small integer id and one
// SnapshotRegistry<ShardedIndex> per dataset, so:
//
//   * JoinService routes every request by QueryBatch::dataset_id — an
//     unknown id is a typed rejection, never a crash or a wrong dataset;
//   * each dataset hot-swaps independently (its own epoch sequence), with
//     the same in-flight-queries-finish-on-their-snapshot guarantee the
//     single-registry service had;
//   * the wire protocol's LIST_DATASETS can enumerate what is served, and
//     the snapshot store's warm restart can repopulate the catalog from a
//     manifest, name by name.
//
// Ids are assigned densely in Add() order and are never reused; datasets
// are never removed (retiring a dataset is publishing an empty index —
// removal would turn every in-flight id into a use-after-free question).
// DROP_DATASET follows the same rule: it publishes an empty snapshot and
// sets a tombstone flag on the id, so the slot (and the name) stay
// assigned, joins against it reject typed (kDatasetDropped, not
// kUnknownDataset), and a later full publish can resurrect it. The id
// space is u16 because the wire header carries dataset_id in the reserved
// u16 at offset 6.

#ifndef ACTJOIN_SERVICE_SERVICE_CATALOG_H_
#define ACTJOIN_SERVICE_SERVICE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/index_registry.h"
#include "service/mutation_journal.h"
#include "service/sharded_index.h"

namespace actjoin::service {

/// One row of a catalog listing (also the LIST_DATASETS wire payload).
struct DatasetInfo {
  uint16_t id = 0;
  std::string name;
  uint64_t epoch = 0;          // current snapshot epoch (0: none published)
  uint64_t num_polygons = 0;   // of the current snapshot
  bool dropped = false;        // tombstoned by DROP_DATASET

  friend bool operator==(const DatasetInfo&, const DatasetInfo&) = default;
};

/// Dataset names double as snapshot file stems in the store, so the
/// charset is restricted up front: [a-z0-9_-], 1..64 chars.
bool IsValidDatasetName(const std::string& name);

class ServiceCatalog {
 public:
  using Snapshot = std::shared_ptr<const ShardedIndex>;
  using Registry = SnapshotRegistry<ShardedIndex>;

  ServiceCatalog();
  ServiceCatalog(const ServiceCatalog&) = delete;
  ServiceCatalog& operator=(const ServiceCatalog&) = delete;

  /// Registers a dataset and publishes its first snapshot; returns the
  /// assigned id. nullopt if the name is invalid, already taken, the
  /// catalog is full (u16 ids), or `initial` is null.
  std::optional<uint16_t> Add(const std::string& name, Snapshot initial);

  /// Registers a dataset *without* a snapshot: the id is assigned (and
  /// the name taken) but the dataset is offline — Servable() is false
  /// and joins against it reject typed until a snapshot is published
  /// into its registry. This is how a warm restart keeps catalog ids
  /// stable when one dataset's snapshots are unloadable: the broken
  /// dataset holds its slot instead of shifting every later id onto the
  /// wrong data.
  std::optional<uint16_t> AddOffline(const std::string& name);

  /// The dataset's registry, or null for an id that was never assigned.
  /// The pointer is stable for the catalog's lifetime (datasets are never
  /// removed), so callers may hold it across requests. Lock-free: this
  /// sits on the per-request serving path (JoinServer routes, JoinService
  /// validates and executes), and serializing every request through the
  /// catalog mutex just to bounds-check an append-only array would make
  /// one cache line the whole server's convoy.
  Registry* Find(uint16_t id) {
    return const_cast<Registry*>(std::as_const(*this).Find(id));
  }
  const Registry* Find(uint16_t id) const {
    // acquire pairs with Add's release store: the slot's pointer (and
    // the Dataset it points to) is fully written before size_ admits it.
    if (id >= size_.load(std::memory_order_acquire)) return nullptr;
    return &datasets_[id]->registry;
  }

  std::optional<uint16_t> IdOf(const std::string& name) const;
  /// Name of an assigned id ("" if unknown).
  std::string NameOf(uint16_t id) const;

  bool Contains(uint16_t id) const { return Find(id) != nullptr; }

  /// True when the id is assigned *and* has a published snapshot (an
  /// AddOffline reservation becomes servable at its first Publish) *and*
  /// is not tombstoned. Snapshots are only ever added, so — dropping
  /// aside — a true verdict cannot be invalidated by the time a request
  /// executes; a drop racing a join merely serves the join from the last
  /// pre-drop snapshot, the same guarantee any hot swap gives.
  bool Servable(uint16_t id) const {
    if (id >= size_.load(std::memory_order_acquire)) return false;
    const Dataset& ds = *datasets_[id];
    return ds.registry.epoch() != 0 &&
           !ds.dropped.load(std::memory_order_acquire);
  }

  /// True when the id is assigned and tombstoned by DROP_DATASET. Lock-free
  /// like Find: the serving path uses this to turn a rejection into the
  /// typed kDatasetDropped instead of kUnknownDataset.
  bool IsDropped(uint16_t id) const {
    if (id >= size_.load(std::memory_order_acquire)) return false;
    return datasets_[id]->dropped.load(std::memory_order_acquire);
  }

  /// Sets / clears the tombstone. Publishing a fresh full snapshot through
  /// JoinService::SwapIndex resurrects a dropped dataset (clears the flag);
  /// ids and names stay assigned either way.
  void MarkDropped(uint16_t id, bool dropped) {
    if (id >= size_.load(std::memory_order_acquire)) return;
    datasets_[id]->dropped.store(dropped, std::memory_order_release);
  }

  /// The dataset's mutation journal (epoch -> delta records, consumed by
  /// the Checkpointer). Stable pointer, same lifetime rules as Find();
  /// null for an unassigned id.
  MutationJournal* JournalOf(uint16_t id) {
    if (id >= size_.load(std::memory_order_acquire)) return nullptr;
    return &datasets_[id]->journal;
  }

  /// All datasets in id order, with live epoch/snapshot figures.
  std::vector<DatasetInfo> List() const;

  size_t size() const;

 private:
  struct Dataset {
    std::string name;
    Registry registry;
    MutationJournal journal;
    std::atomic<bool> dropped{false};
  };

  std::optional<uint16_t> AddEntry(const std::string& name, Snapshot initial);

  /// Guards Add and the name-keyed lookups; the id-keyed hot path reads
  /// size_/datasets_ lock-free.
  mutable std::mutex mu_;
  /// Index == dataset id. The slot array is reserved to the full u16 id
  /// space up front (512 KiB of pointers) so push_back never reallocates
  /// under a concurrent lock-free Find; unique_ptr keeps registry
  /// addresses stable regardless.
  std::vector<std::unique_ptr<Dataset>> datasets_;
  std::atomic<size_t> size_{0};
};

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_SERVICE_CATALOG_H_
