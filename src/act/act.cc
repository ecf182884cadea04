#include "act/act.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/check.h"

namespace actjoin::act {

using geo::CellId;

AdaptiveCellTrie::AdaptiveCellTrie(const EncodedCovering& enc,
                                   const ActOptions& opts)
    : opts_(opts) {
  ACT_CHECK_MSG(opts.bits_per_level >= 1 && opts.bits_per_level <= 8,
                "bits_per_level must be in [1, 8]");
  bits_per_level_ = opts.bits_per_level;
  fanout_ = 1 << bits_per_level_;
  slot_mask_ = static_cast<uint64_t>(fanout_ - 1);

  size_t n = enc.cells.size();
  size_t i = 0;
  while (i < n) {
    int f = enc.cells[i].first.face();
    size_t j = i;
    while (j < n && enc.cells[j].first.face() == f) ++j;
    Face& face = faces_[f];

    if (opts.use_root_prefix) {
      // Longest common path-key prefix of the face's cells, rounded down to
      // node granularity (the paper stores a common prefix at the root
      // level only). For a single-cell face the prefix is the whole key.
      int len_first = 0, len_last = 0;
      uint64_t key_first = enc.cells[i].first.PathKey(&len_first);
      uint64_t key_last = enc.cells[j - 1].first.PathKey(&len_last);
      int cpl = (j - i == 1)
                    ? len_first
                    : util::CommonPrefixLength(key_first, key_last);
      face.prefix_bits = (cpl / bits_per_level_) * bits_per_level_;
      face.prefix =
          face.prefix_bits == 0 ? 0 : (key_first >> (64 - face.prefix_bits));
    }

    for (size_t k = i; k < j; ++k) {
      InsertCell(enc.cells[k].first, enc.cells[k].second, &face);
    }
    i = j;
  }
  ComputeStats();
}

TaggedEntry* AdaptiveCellTrie::NewNode() {
  auto node = std::make_unique<TaggedEntry[]>(fanout_);
  std::fill_n(node.get(), fanout_, kSentinelEntry);
  TaggedEntry* raw = node.get();
  arena_.push_back(std::move(node));
  return raw;
}

void AdaptiveCellTrie::InsertCell(const CellId& cell, TaggedEntry value,
                                  Face* face) {
  ACT_CHECK(IsValue(value));
  int key_len = 0;
  uint64_t key = cell.PathKey(&key_len);
  int consumed = face->prefix_bits;
  ACT_CHECK(key_len >= consumed);

  if (key_len == consumed) {
    // The cell's entire key is the root prefix: single-cell face (or a
    // face-level cell); the face root itself holds the value.
    ACT_CHECK_MSG(face->root == kSentinelEntry,
                  "value at root would shadow other cells");
    face->root = value;
    return;
  }

  if (face->root == kSentinelEntry) face->root = MakePointer(NewNode());
  ACT_CHECK_MSG(!IsValue(face->root), "root value conflicts with deeper cell");
  TaggedEntry* node = MutablePointerOf(face->root);

  while (key_len - consumed > bits_per_level_) {
    uint64_t chunk = (key >> (64 - consumed - bits_per_level_)) & slot_mask_;
    TaggedEntry entry = node[chunk];
    if (entry == kSentinelEntry) {
      TaggedEntry* child = NewNode();
      node[chunk] = MakePointer(child);
      node = child;
    } else {
      // A value here would mean an ancestor cell exists: disjointness of
      // the super covering rules that out.
      ACT_CHECK_MSG(!IsValue(entry), "ancestor/descendant conflict in trie");
      node = MutablePointerOf(entry);
    }
    consumed += bits_per_level_;
  }

  // Artificial key extension (paper Sec. 3.1.2): a cell whose remaining key
  // is shorter than the node's bit window stands for all its descendants at
  // the node-aligned level; they occupy the contiguous slot range
  // [bits << (bpl - r), (bits + 1) << (bpl - r)).
  int r = key_len - consumed;
  uint64_t bits_r = (key >> (64 - consumed - r)) & ((uint64_t{1} << r) - 1);
  uint64_t base = bits_r << (bits_per_level_ - r);
  uint64_t count = uint64_t{1} << (bits_per_level_ - r);
  for (uint64_t s = base; s < base + count; ++s) {
    ACT_CHECK_MSG(node[s] == kSentinelEntry,
                  "overlapping cells: super covering not disjoint");
    node[s] = value;
  }
}

void AdaptiveCellTrie::ProbeBatch(const uint64_t* leaf_cell_ids, uint64_t n,
                                  TaggedEntry* out) const {
  for (uint64_t base = 0; base < n; base += kProbeGroup) {
    const int m = static_cast<int>(std::min<uint64_t>(kProbeGroup, n - base));
    TaggedEntry* entry = out + base;
    uint64_t key[kProbeGroup];
    int offset[kProbeGroup];
    int live[kProbeGroup];  // group positions of probes still descending
    int num_live = 0;
    for (int k = 0; k < m; ++k) {
      uint64_t id = leaf_cell_ids[base + k];
      const Face& face = faces_[id >> CellId::kPosBits];
      key[k] = (id << CellId::kFaceBits) & ~uint64_t{15};
      offset[k] = face.prefix_bits;
      if (offset[k] > 0 && (key[k] >> (64 - offset[k])) != face.prefix) {
        entry[k] = kSentinelEntry;
      } else {
        entry[k] = face.root;
        if (entry[k] != kSentinelEntry && !IsValue(entry[k])) {
          live[num_live++] = k;
        }
      }
    }
    const TaggedEntry* slot[kProbeGroup];
    while (num_live > 0) {
      // One level for every live probe: all slot addresses first, then all
      // loads. The loads do not depend on one another, so their misses
      // overlap instead of forming one chain per probe.
      for (int j = 0; j < num_live; ++j) {
        const int k = live[j];
        uint64_t chunk =
            (key[k] >> (64 - offset[k] - bits_per_level_)) & slot_mask_;
        slot[j] = PointerOf(entry[k]) + chunk;
        offset[k] += bits_per_level_;
      }
      int still = 0;
      for (int j = 0; j < num_live; ++j) {
        const int k = live[j];
        TaggedEntry e = *slot[j];
        entry[k] = e;
        if (e != kSentinelEntry && !IsValue(e)) live[still++] = k;
      }
      num_live = still;
    }
  }
}

TaggedEntry AdaptiveCellTrie::ProbeCounting(uint64_t leaf_cell_id,
                                            int* depth) const {
  *depth = 0;
  const Face& face = faces_[leaf_cell_id >> CellId::kPosBits];
  uint64_t key = (leaf_cell_id << CellId::kFaceBits) & ~uint64_t{15};
  int offset = face.prefix_bits;
  if (offset > 0 && (key >> (64 - offset)) != face.prefix) {
    return kSentinelEntry;
  }
  TaggedEntry entry = face.root;
  while (entry != kSentinelEntry && !IsValue(entry)) {
    ++*depth;
    uint64_t chunk = (key >> (64 - offset - bits_per_level_)) & slot_mask_;
    entry = PointerOf(entry)[chunk];
    offset += bits_per_level_;
  }
  return entry;
}

void AdaptiveCellTrie::WalkStats(const TaggedEntry* node, int depth,
                                 std::vector<uint64_t>* slots_by_depth,
                                 std::vector<uint64_t>* used_by_depth) {
  if (static_cast<size_t>(depth) >= slots_by_depth->size()) {
    slots_by_depth->resize(depth + 1, 0);
    used_by_depth->resize(depth + 1, 0);
  }
  (*slots_by_depth)[depth] += fanout_;
  stats_.max_depth = std::max(stats_.max_depth, depth + 1);
  for (int s = 0; s < fanout_; ++s) {
    TaggedEntry e = node[s];
    if (e == kSentinelEntry) continue;
    (*used_by_depth)[depth] += 1;
    if (IsValue(e)) {
      stats_.value_slots += 1;
      stats_.avg_value_depth += depth + 1;
    } else {
      stats_.pointer_slots += 1;
      WalkStats(PointerOf(e), depth + 1, slots_by_depth, used_by_depth);
    }
  }
}

void AdaptiveCellTrie::ComputeStats() {
  stats_ = ActStats{};
  stats_.node_count = arena_.size();
  stats_.memory_bytes =
      arena_.size() * static_cast<uint64_t>(fanout_) * sizeof(TaggedEntry);
  std::vector<uint64_t> slots_by_depth;
  std::vector<uint64_t> used_by_depth;
  for (const Face& face : faces_) {
    if (face.root == kSentinelEntry) continue;
    if (IsValue(face.root)) {
      stats_.value_slots += 1;
      continue;
    }
    WalkStats(PointerOf(face.root), 0, &slots_by_depth, &used_by_depth);
  }
  if (stats_.value_slots > 0) {
    stats_.avg_value_depth /= static_cast<double>(stats_.value_slots);
  }
  stats_.occupancy_by_depth.resize(slots_by_depth.size());
  for (size_t d = 0; d < slots_by_depth.size(); ++d) {
    stats_.occupancy_by_depth[d] =
        slots_by_depth[d] == 0
            ? 0
            : static_cast<double>(used_by_depth[d]) / slots_by_depth[d];
  }
}

}  // namespace actjoin::act
