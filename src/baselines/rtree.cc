#include "baselines/rtree.h"

#include <algorithm>
#include <cmath>

#include "geometry/poly_poly.h"
#include "geometry/polygon_slab.h"
#include "util/check.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace actjoin::baselines {

using geom::Point;
using geom::Rect;

RTree::RTree(int max_entries) : max_entries_(max_entries) {
  ACT_CHECK(max_entries >= 2 && max_entries <= 12);
}

RTree::~RTree() { FreeSubtree(root_); }

RTree::Node* RTree::NewNode(bool leaf) {
  Node* n = new Node();
  n->is_leaf = leaf;
  ++node_count_;
  return n;
}

void RTree::FreeSubtree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    for (int k = 0; k < node->count; ++k) FreeSubtree(node->slots[k].child);
  }
  delete node;
  --node_count_;
}

// ---------------------------------------------------------------------------
// STR bulk load
// ---------------------------------------------------------------------------

void RTree::BulkLoad(
    const std::vector<std::pair<Rect, uint32_t>>& entries) {
  FreeSubtree(root_);
  root_ = nullptr;
  size_ = entries.size();
  height_ = 0;
  if (entries.empty()) return;

  // Leaf level: STR tiling of the entries.
  struct Item {
    Rect rect;
    Node::Slot slot;
  };
  std::vector<Item> items;
  items.reserve(entries.size());
  for (const auto& [rect, id] : entries) {
    Item it;
    it.rect = rect;
    it.slot.id = id;
    items.push_back(it);
  }

  bool leaf_level = true;
  while (true) {
    size_t n = items.size();
    size_t pages = (n + max_entries_ - 1) / max_entries_;
    if (pages == 1) {
      Node* node = NewNode(leaf_level);
      for (size_t k = 0; k < n; ++k) {
        node->rects[k] = items[k].rect;
        node->slots[k] = items[k].slot;
      }
      node->count = static_cast<int>(n);
      root_ = node;
      ++height_;
      return;
    }
    // Sort by x-center, slice, sort slices by y-center, pack pages.
    size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(pages))));
    size_t slice_size = ((pages + slices - 1) / slices) * max_entries_;
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.rect.Center().x < b.rect.Center().x;
    });
    std::vector<Item> parents;
    for (size_t s = 0; s * slice_size < n; ++s) {
      size_t lo = s * slice_size;
      size_t hi = std::min(lo + slice_size, n);
      std::sort(items.begin() + lo, items.begin() + hi,
                [](const Item& a, const Item& b) {
                  return a.rect.Center().y < b.rect.Center().y;
                });
      for (size_t p = lo; p < hi; p += max_entries_) {
        size_t cnt = std::min<size_t>(max_entries_, hi - p);
        Node* node = NewNode(leaf_level);
        for (size_t k = 0; k < cnt; ++k) {
          node->rects[k] = items[p + k].rect;
          node->slots[k] = items[p + k].slot;
        }
        node->count = static_cast<int>(cnt);
        Item up;
        up.rect = node->Mbr();
        up.slot.child = node;
        parents.push_back(up);
      }
    }
    items = std::move(parents);
    leaf_level = false;
    ++height_;
  }
}

// ---------------------------------------------------------------------------
// Guttman insertion with quadratic split
// ---------------------------------------------------------------------------

namespace {

// Quadratic pick-seeds: the pair wasting the most area together.
std::pair<int, int> PickSeeds(const std::vector<Rect>& rects) {
  double worst = -1;
  std::pair<int, int> seeds{0, 1};
  for (size_t i = 0; i < rects.size(); ++i) {
    for (size_t j = i + 1; j < rects.size(); ++j) {
      Rect u = rects[i];
      u.Expand(rects[j]);
      double waste = u.Area() - rects[i].Area() - rects[j].Area();
      if (waste > worst) {
        worst = waste;
        seeds = {static_cast<int>(i), static_cast<int>(j)};
      }
    }
  }
  return seeds;
}

}  // namespace

void RTree::Insert(const Rect& rect, uint32_t id) {
  if (root_ == nullptr) {
    root_ = NewNode(true);
    height_ = 1;
  }

  // Descend to the leaf with least enlargement, remembering the path and
  // the child slot taken at each level.
  std::vector<std::pair<Node*, int>> path;  // (node, child index)
  Node* node = root_;
  while (!node->is_leaf) {
    int best = 0;
    double best_enl = std::numeric_limits<double>::max();
    double best_area = std::numeric_limits<double>::max();
    for (int k = 0; k < node->count; ++k) {
      double enl = node->rects[k].Enlargement(rect);
      double area = node->rects[k].Area();
      if (enl < best_enl || (enl == best_enl && area < best_area)) {
        best = k;
        best_enl = enl;
        best_area = area;
      }
    }
    path.emplace_back(node, best);
    node->rects[best].Expand(rect);
    node = node->slots[best].child;
  }

  // Collect overflow entries if the leaf is full.
  std::vector<Rect> rects;
  std::vector<Node::Slot> slots;
  Node::Slot new_slot;
  new_slot.id = id;
  if (node->count < max_entries_) {
    node->rects[node->count] = rect;
    node->slots[node->count] = new_slot;
    ++node->count;
    ++size_;
    return;
  }
  for (int k = 0; k < node->count; ++k) {
    rects.push_back(node->rects[k]);
    slots.push_back(node->slots[k]);
  }
  rects.push_back(rect);
  slots.push_back(new_slot);
  ++size_;

  // Split bottom-up while nodes overflow.
  Node* split_from = node;
  for (;;) {
    auto [s1, s2] = PickSeeds(rects);
    Node* left = split_from;
    Node* right = NewNode(split_from->is_leaf);
    left->count = 0;
    std::vector<bool> assigned(rects.size(), false);
    Rect lbox = rects[s1], rbox = rects[s2];
    auto push = [&](Node* n, int idx) {
      n->rects[n->count] = rects[idx];
      n->slots[n->count] = slots[idx];
      ++n->count;
      assigned[idx] = true;
    };
    push(left, s1);
    push(right, s2);
    int remaining = static_cast<int>(rects.size()) - 2;
    int min_fill = (max_entries_ + 1) / 2;
    while (remaining > 0) {
      // Force-assign if one side must take everything to reach min fill.
      if (left->count + remaining == min_fill) {
        for (size_t k = 0; k < rects.size(); ++k) {
          if (!assigned[k]) {
            lbox.Expand(rects[k]);
            push(left, static_cast<int>(k));
          }
        }
        remaining = 0;
        break;
      }
      if (right->count + remaining == min_fill) {
        for (size_t k = 0; k < rects.size(); ++k) {
          if (!assigned[k]) {
            rbox.Expand(rects[k]);
            push(right, static_cast<int>(k));
          }
        }
        remaining = 0;
        break;
      }
      // Pick-next: the entry with the strongest preference.
      int pick = -1;
      double best_diff = -1;
      for (size_t k = 0; k < rects.size(); ++k) {
        if (assigned[k]) continue;
        double d1 = lbox.Enlargement(rects[k]);
        double d2 = rbox.Enlargement(rects[k]);
        double diff = std::abs(d1 - d2);
        if (diff > best_diff) {
          best_diff = diff;
          pick = static_cast<int>(k);
        }
      }
      double d1 = lbox.Enlargement(rects[pick]);
      double d2 = rbox.Enlargement(rects[pick]);
      bool to_left =
          d1 < d2 ||
          (d1 == d2 && (lbox.Area() < rbox.Area() ||
                        (lbox.Area() == rbox.Area() &&
                         left->count <= right->count)));
      if (to_left) {
        lbox.Expand(rects[pick]);
        push(left, pick);
      } else {
        rbox.Expand(rects[pick]);
        push(right, pick);
      }
      --remaining;
    }

    // Propagate: insert `right` next to `left` in the parent.
    if (path.empty()) {
      Node* new_root = NewNode(false);
      new_root->count = 2;
      new_root->rects[0] = left->Mbr();
      new_root->slots[0].child = left;
      new_root->rects[1] = right->Mbr();
      new_root->slots[1].child = right;
      root_ = new_root;
      ++height_;
      return;
    }
    auto [parent, child_idx] = path.back();
    path.pop_back();
    parent->rects[child_idx] = left->Mbr();
    if (parent->count < max_entries_) {
      parent->rects[parent->count] = right->Mbr();
      parent->slots[parent->count].child = right;
      ++parent->count;
      return;
    }
    // Parent overflows too: gather and split it on the next iteration.
    rects.clear();
    slots.clear();
    for (int k = 0; k < parent->count; ++k) {
      rects.push_back(parent->rects[k]);
      slots.push_back(parent->slots[k]);
    }
    rects.push_back(right->Mbr());
    Node::Slot s;
    s.child = right;
    slots.push_back(s);
    split_from = parent;
  }
}

uint64_t RTree::MemoryBytes() const { return node_count_ * sizeof(Node); }

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

namespace {

struct NodeCheck {
  bool ok = true;
  int depth = 0;
  size_t entries = 0;
};

NodeCheck CheckRec(const RTree::Node* node) {
  NodeCheck r;
  if (node->count == 0) {
    r.ok = false;
    return r;
  }
  if (node->is_leaf) {
    r.depth = 1;
    r.entries = node->count;
    return r;
  }
  int child_depth = -1;
  for (int k = 0; k < node->count; ++k) {
    const RTree::Node* child = node->slots[k].child;
    NodeCheck c = CheckRec(child);
    if (!c.ok) r.ok = false;
    if (child_depth < 0) child_depth = c.depth;
    if (c.depth != child_depth) r.ok = false;
    r.entries += c.entries;
    // The stored rect must contain the child's actual MBR.
    Rect actual = child->Mbr();
    if (!node->rects[k].Contains(actual)) r.ok = false;
  }
  r.depth = child_depth + 1;
  return r;
}

}  // namespace

bool RTree::CheckInvariants() const {
  if (root_ == nullptr) return size_ == 0;
  NodeCheck r = CheckRec(root_);
  return r.ok && r.depth == height_ && r.entries == size_;
}

std::vector<std::pair<uint32_t, uint32_t>> RTree::CrossMatchCandidates(
    const RTree& other) const {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  if (root_ == nullptr || other.root_ == nullptr) return out;
  struct NodePair {
    const Node* a;
    const Node* b;
  };
  const geom::Rect mbr_a = root_->Mbr();
  const geom::Rect mbr_b = other.root_->Mbr();
  if (!mbr_a.Intersects(mbr_b)) return out;
  std::vector<NodePair> pending{{root_, other.root_}};
  while (!pending.empty()) {
    const NodePair p = pending.back();
    pending.pop_back();
    if (p.a->is_leaf && p.b->is_leaf) {
      for (int i = 0; i < p.a->count; ++i) {
        for (int j = 0; j < p.b->count; ++j) {
          if (p.a->rects[i].Intersects(p.b->rects[j])) {
            out.emplace_back(p.a->slots[i].id, p.b->slots[j].id);
          }
        }
      }
    } else if (p.a->is_leaf) {
      // Mixed meet (trees of different heights): keep the leaf whole and
      // descend only the inner side, one pending pair per child whose MBR
      // reaches the leaf at all. No depth bookkeeping needed.
      const geom::Rect am = p.a->Mbr();
      for (int j = 0; j < p.b->count; ++j) {
        if (am.Intersects(p.b->rects[j])) {
          pending.push_back({p.a, p.b->slots[j].child});
        }
      }
    } else if (p.b->is_leaf) {
      const geom::Rect bm = p.b->Mbr();
      for (int i = 0; i < p.a->count; ++i) {
        if (p.a->rects[i].Intersects(bm)) {
          pending.push_back({p.a->slots[i].child, p.b});
        }
      }
    } else {
      for (int i = 0; i < p.a->count; ++i) {
        for (int j = 0; j < p.b->count; ++j) {
          if (p.a->rects[i].Intersects(p.b->rects[j])) {
            pending.push_back({p.a->slots[i].child, p.b->slots[j].child});
          }
        }
      }
    }
  }
  // Entry pairs are emitted exactly once (leaf/leaf meets partition the
  // entry space), but LIFO processing leaves them unordered.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Join driver
// ---------------------------------------------------------------------------

RTree BuildPolygonRTree(const std::vector<geom::Polygon>& polygons,
                        int max_entries) {
  RTree tree(max_entries);
  std::vector<std::pair<Rect, uint32_t>> entries;
  entries.reserve(polygons.size());
  for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
    entries.emplace_back(polygons[pid].mbr(), pid);
  }
  tree.BulkLoad(entries);
  return tree;
}

std::vector<std::pair<uint32_t, uint32_t>> RTreeCrossMatch(
    const RTree& a, const std::vector<geom::Polygon>& polys_a,
    const RTree& b, const std::vector<geom::Polygon>& polys_b,
    bool contains_mode, RTreeCrossMatchStats* stats) {
  util::WallTimer timer;
  std::vector<std::pair<uint32_t, uint32_t>> candidates =
      a.CrossMatchCandidates(b);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(candidates.size());
  for (const auto& [ida, idb] : candidates) {
    ACT_CHECK(ida < polys_a.size() && idb < polys_b.size());
    const bool hit =
        contains_mode
            ? geom::PolygonCovers(polys_a[ida], polys_b[idb])
            : geom::PolygonsIntersect(polys_a[ida], polys_b[idb]);
    if (hit) out.emplace_back(ida, idb);
  }
  // Candidates are already sorted unique; the keep-filter preserves that.
  if (stats != nullptr) {
    stats->candidate_pairs = candidates.size();
    stats->result_pairs = out.size();
    stats->seconds = timer.ElapsedSeconds();
  }
  return out;
}

act::JoinStats RTreeJoin(const RTree& tree,
                         const std::vector<geom::Polygon>& polygons,
                         const act::JoinInput& input, int threads) {
  if (threads <= 0) threads = util::DefaultThreadCount();
  struct ThreadState {
    std::vector<uint64_t> counts;
    uint64_t matched = 0, pairs = 0, pip_tests = 0, pip_hits = 0, sth = 0;
  };
  std::vector<ThreadState> states(threads);
  for (auto& s : states) s.counts.assign(polygons.size(), 0);

  // The exact join's refine layout and predicate, so ACT and the R-tree
  // differ only in how they find candidates. Built before the clock starts,
  // as ACT's is built with its index.
  const geom::PolygonSlab slab(polygons);
  util::WallTimer timer;
  util::ParallelFor(
      input.size(), threads, [&](uint64_t begin, uint64_t end, int tid) {
        ThreadState& st = states[tid];
        for (uint64_t p = begin; p < end; ++p) {
          const Point& pt = input.points[p];
          uint64_t pairs_before = st.pairs;
          uint64_t tests_before = st.pip_tests;
          tree.QueryPoint(pt, [&](uint32_t pid) {
            ++st.pip_tests;
            if (slab.Contains(pid, pt)) {
              ++st.pip_hits;
              ++st.counts[pid];
              ++st.pairs;
            }
          });
          if (st.pairs != pairs_before) ++st.matched;
          if (st.pip_tests == tests_before) ++st.sth;
        }
      });

  act::JoinStats out;
  out.seconds = timer.ElapsedSeconds();
  out.num_points = input.size();
  out.counts.assign(polygons.size(), 0);
  for (const ThreadState& st : states) {
    out.matched_points += st.matched;
    out.result_pairs += st.pairs;
    out.pip_tests += st.pip_tests;
    out.pip_hits += st.pip_hits;
    out.candidate_refs += st.pip_tests;
    out.sth_points += st.sth;
    for (size_t k = 0; k < out.counts.size(); ++k) {
      out.counts[k] += st.counts[k];
    }
  }
  return out;
}

}  // namespace actjoin::baselines
