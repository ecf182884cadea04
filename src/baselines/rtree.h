// R-tree over polygon MBRs: the classic filter-and-refine baseline ("RT").
//
// The paper compares against the boost R-tree with the rstar splitting
// strategy and at most 8 entries per node, probing it with each point to
// obtain candidate polygons and refining every candidate with the full
// ray-tracing PIP test. There is no true-hit filtering, which is exactly why
// it loses badly on complex polygons (Fig. 10): every candidate pays the
// O(edges) refinement.
//
// This implementation offers STR bulk loading (used by the benchmarks) and
// Guttman insertion with quadratic split (used by tests), both with a
// configurable max node fanout (default 8, as in the paper).

#ifndef ACTJOIN_BASELINES_RTREE_H_
#define ACTJOIN_BASELINES_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "act/join.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"

namespace actjoin::baselines {

class RTree {
 public:
  explicit RTree(int max_entries = 8);
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&& o) noexcept
      : root_(o.root_),
        max_entries_(o.max_entries_),
        size_(o.size_),
        height_(o.height_),
        node_count_(o.node_count_) {
    o.root_ = nullptr;
    o.size_ = 0;
    o.height_ = 0;
    o.node_count_ = 0;
  }

  /// Sort-Tile-Recursive bulk load; replaces all contents.
  void BulkLoad(const std::vector<std::pair<geom::Rect, uint32_t>>& entries);

  /// Guttman insertion with quadratic split.
  void Insert(const geom::Rect& rect, uint32_t id);

  struct Node {
    geom::Rect rects[12];
    union Slot {
      Node* child;
      uint32_t id;
    } slots[12];
    int count = 0;
    bool is_leaf = false;

    geom::Rect Mbr() const {
      geom::Rect r;
      for (int k = 0; k < count; ++k) r.Expand(rects[k]);
      return r;
    }
  };

  /// Visits the id of every entry whose MBR contains p.
  template <typename Fn>
  void QueryPoint(const geom::Point& p, Fn&& fn) const {
    if (root_ != nullptr) QueryPointRec(root_, p, fn);
  }

  /// Pairwise crossmatch filter: synchronized descent of this tree
  /// against `other` with a pending node-pair worklist — the classic
  /// R-tree spatial join. A node pair whose MBRs are disjoint prunes its
  /// whole entry cross-product; a leaf/leaf meet emits every overlapping
  /// entry-MBR pair as a candidate (this tree's id first); a mixed pair
  /// descends into the inner node's children. Returns sorted unique
  /// candidate (id, id) pairs — the filter half of the A/B baseline the
  /// dual-trie crossmatch is benched against; the refine half shares
  /// geom::PolygonsIntersect / PolygonCovers so verdicts (and bytes) can
  /// only differ if candidate *recall* differs.
  std::vector<std::pair<uint32_t, uint32_t>> CrossMatchCandidates(
      const RTree& other) const;

  size_t size() const { return size_; }
  int height() const { return height_; }
  uint64_t node_count() const { return node_count_; }
  uint64_t MemoryBytes() const;

  /// Structural invariants for tests: node MBRs tightly contain children,
  /// counts within bounds, uniform leaf depth.
  bool CheckInvariants() const;

 private:
  template <typename Fn>
  void QueryPointRec(const Node* node, const geom::Point& p, Fn&& fn) const {
    for (int k = 0; k < node->count; ++k) {
      if (!node->rects[k].Contains(p)) continue;
      if (node->is_leaf) {
        fn(node->slots[k].id);
      } else {
        QueryPointRec(node->slots[k].child, p, fn);
      }
    }
  }

  Node* NewNode(bool leaf);
  void FreeSubtree(Node* node);

  Node* root_ = nullptr;
  int max_entries_;
  size_t size_ = 0;
  int height_ = 0;
  uint64_t node_count_ = 0;
};

/// Filter-and-refine join: probe the R-tree per point, PIP-test every
/// candidate through a geom::PolygonSlab built once per call (the ACT
/// join's refine code). Thread batching identical to the ACT join driver.
act::JoinStats RTreeJoin(const RTree& tree,
                         const std::vector<geom::Polygon>& polygons,
                         const act::JoinInput& input, int threads);

/// Builds an R-tree over the polygons' MBRs (entry id = polygon id).
RTree BuildPolygonRTree(const std::vector<geom::Polygon>& polygons,
                        int max_entries = 8);

/// Statistics of one RTreeCrossMatch call (the baseline analog of
/// join2::CrossMatchStats, for the bench's filter-effectiveness columns).
struct RTreeCrossMatchStats {
  uint64_t candidate_pairs = 0;  // leaf/leaf MBR-overlap pairs
  uint64_t result_pairs = 0;     // pairs surviving refinement
  double seconds = 0;            // filter + refine wall time
};

/// The complete A/B baseline: `a` × `b` crossmatch, candidates from the
/// synchronized MBR descent, each refined with the shared geometry
/// predicates (geom::PolygonsIntersect when contains_mode is false,
/// geom::PolygonCovers(a, b) when true). The entry ids of both trees must
/// index into the matching polygon vector. Output carries the sorted
/// unique (id_a, id_b) ordering contract of act::ExecuteJoinPairs, so it
/// is byte-comparable against join2::CrossMatch and the brute-force
/// oracle — this doubles as the second oracle in tests.
std::vector<std::pair<uint32_t, uint32_t>> RTreeCrossMatch(
    const RTree& a, const std::vector<geom::Polygon>& polys_a,
    const RTree& b, const std::vector<geom::Polygon>& polys_b,
    bool contains_mode = false, RTreeCrossMatchStats* stats = nullptr);

}  // namespace actjoin::baselines

#endif  // ACTJOIN_BASELINES_RTREE_H_
