// Cell-id index baselines over the encoded super covering (paper Sec. 4.1,
// "Data Structures"): the Google-B-tree stand-in (GBT) and the binary search
// on a sorted vector (LB).
//
// Both must answer the same prefix lookup as ACT: given the leaf cell id of
// a query point, find the unique covering cell (the covering is disjoint)
// that contains it. With range-encoded cell ids this is the classic
// two-candidate check around lower_bound: the first cell with id >= query
// may be an ancestor (its range_min is below the query), otherwise its
// predecessor may be.

#ifndef ACTJOIN_BASELINES_CELL_INDEXES_H_
#define ACTJOIN_BASELINES_CELL_INDEXES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "act/super_covering.h"
#include "act/tagged_entry.h"
#include "baselines/btree.h"
#include "geo/cell_id.h"

namespace actjoin::baselines {

/// LB: binary search (std::lower_bound) on the sorted (cell id, entry)
/// vector. "The vector stores pairs of cell ids and tagged entries"; no
/// build cost since the encoded covering is already sorted.
class SortedVectorIndex {
 public:
  explicit SortedVectorIndex(const act::EncodedCovering& enc);

  act::TaggedEntry Probe(uint64_t leaf_cell_id) const;
  /// The join kernel's descend pass (act/join.h): one Probe per id.
  void ProbeBatch(const uint64_t* leaf_cell_ids, uint64_t n,
                  act::TaggedEntry* out) const {
    for (uint64_t k = 0; k < n; ++k) out[k] = Probe(leaf_cell_ids[k]);
  }

  uint64_t MemoryBytes() const { return cells_->size() * 16; }

 private:
  const std::vector<std::pair<geo::CellId, act::TaggedEntry>>* cells_;
};

/// GBT: the covering bulk-loaded into the byte-budgeted B+-tree.
class BTreeCellIndex {
 public:
  explicit BTreeCellIndex(const act::EncodedCovering& enc,
                          size_t node_bytes = 256);

  act::TaggedEntry Probe(uint64_t leaf_cell_id) const;
  /// The join kernel's descend pass (act/join.h): one Probe per id.
  void ProbeBatch(const uint64_t* leaf_cell_ids, uint64_t n,
                  act::TaggedEntry* out) const {
    for (uint64_t k = 0; k < n; ++k) out[k] = Probe(leaf_cell_ids[k]);
  }

  uint64_t MemoryBytes() const { return tree_.MemoryBytes(); }
  const BTree& tree() const { return tree_; }

 private:
  BTree tree_;
};

}  // namespace actjoin::baselines

#endif  // ACTJOIN_BASELINES_CELL_INDEXES_H_
