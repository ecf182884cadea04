// Adaptive Cell Trie (ACT): the paper's radix tree over super-covering cell
// ids (Sec. 3.1.2).
//
// Key properties reproduced from the paper:
//   * Configurable fanout: 2/4/8 bits per radix level give the ACT1/ACT2/
//     ACT4 variants of the evaluation (one/two/four quadtree levels per trie
//     level).
//   * Artificial key extension: indexed cells are replaced by descendants at
//     the next node-aligned granularity so each node stores cells of one
//     level only and a lookup is a single offset access per node.
//   * Combined pointer/value slots with 2-bit tags; disjoint cells guarantee
//     a slot never needs both.
//   * Entries that hold neither child nor value are the sentinel (false
//     hit); a probe returns at most one cell.
//   * One tree per face, selected by the top three id bits; per-face common
//     root prefix to skip shared upper levels.
//
// The trie is immutable after construction (the paper performs all
// adaptation at build time); training rebuilds it from the mutable super
// covering.

#ifndef ACTJOIN_ACT_ACT_H_
#define ACTJOIN_ACT_ACT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "act/super_covering.h"
#include "act/tagged_entry.h"
#include "geo/cell_id.h"

namespace actjoin::act {

struct ActOptions {
  /// Radix bits consumed per tree level: 2 (ACT1), 4 (ACT2), 8 (ACT4).
  int bits_per_level = 8;
  /// Skip the longest common key prefix at the root (paper: "we therefore
  /// only use a common prefix at the root level"). Ablation knob.
  bool use_root_prefix = true;
};

/// Structural statistics (Table 2 sizes, Sec. 4.1 occupancy discussion).
struct ActStats {
  uint64_t node_count = 0;
  uint64_t memory_bytes = 0;       // nodes only
  uint64_t value_slots = 0;        // slots holding values
  uint64_t pointer_slots = 0;      // slots holding child pointers
  double avg_value_depth = 0;      // static mean depth of value slots
  int max_depth = 0;
  /// Occupied-slot fraction per tree depth.
  std::vector<double> occupancy_by_depth;
};

class AdaptiveCellTrie {
 public:
  /// Builds from a sorted, disjoint encoded covering. The lookup table
  /// stays in `enc`; the trie stores offsets into it.
  AdaptiveCellTrie(const EncodedCovering& enc, const ActOptions& opts);

  AdaptiveCellTrie(const AdaptiveCellTrie&) = delete;
  AdaptiveCellTrie& operator=(const AdaptiveCellTrie&) = delete;

  /// Probes with the leaf cell id of a query point. Returns the tagged
  /// value of the unique covering cell containing the point, or
  /// kSentinelEntry if none (paper Listing 2).
  TaggedEntry Probe(uint64_t leaf_cell_id) const {
    const Face& face = faces_[leaf_cell_id >> geo::CellId::kPosBits];
    uint64_t key = (leaf_cell_id << geo::CellId::kFaceBits) & ~uint64_t{15};
    int offset = face.prefix_bits;
    if (offset > 0 && (key >> (64 - offset)) != face.prefix) {
      return kSentinelEntry;
    }
    TaggedEntry entry = face.root;
    while (entry != kSentinelEntry && !IsValue(entry)) {
      uint64_t chunk = (key >> (64 - offset - bits_per_level_)) & slot_mask_;
      entry = PointerOf(entry)[chunk];
      offset += bits_per_level_;
    }
    return entry;
  }

  /// Probe that also reports the number of node accesses (tree traversal
  /// depth, paper Table 4).
  TaggedEntry ProbeCounting(uint64_t leaf_cell_id, int* depth) const;

  /// Probes per lockstep group in ProbeBatch.
  static constexpr int kProbeGroup = 32;

  /// Batched probe, the descend pass of the join kernel (join.h): walks
  /// the lookups in groups of kProbeGroup. Each round first computes the
  /// slot address of every probe still descending in its group, then loads
  /// them all, so the cache misses of up to kProbeGroup independent
  /// traversals are in flight together (the probe phase is "bound by memory
  /// access latencies", Sec. 4.1). Results equal Probe() and are written to
  /// out[0..n).
  void ProbeBatch(const uint64_t* leaf_cell_ids, uint64_t n,
                  TaggedEntry* out) const;

  const ActOptions& options() const { return opts_; }
  const ActStats& stats() const { return stats_; }

 private:
  struct Face {
    TaggedEntry root = kSentinelEntry;  // pointer to root node, or a value
    uint64_t prefix = 0;                // right-aligned prefix_bits bits
    int prefix_bits = 0;
  };

  TaggedEntry* NewNode();
  void InsertCell(const geo::CellId& cell, TaggedEntry value, Face* face);
  void ComputeStats();
  void WalkStats(const TaggedEntry* node, int depth,
                 std::vector<uint64_t>* slots_by_depth,
                 std::vector<uint64_t>* used_by_depth);

  ActOptions opts_;
  int bits_per_level_;
  uint64_t slot_mask_;
  int fanout_;
  Face faces_[geo::CellId::kNumFaces];
  std::vector<std::unique_ptr<TaggedEntry[]>> arena_;
  ActStats stats_;
};

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_ACT_H_
