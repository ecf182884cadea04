// Lookup table for cells with three or more polygon references.
//
// Paper Sec. 3.1.2: "The lookup table is encoded as a single 32 bit unsigned
// integer array. ... Each encoded entry contains the number of true hits
// followed by the true hits, the number of candidate hits, and the candidate
// hits." Identical reference lists are stored once ("we only store unique
// polygon reference lists").

#ifndef ACTJOIN_ACT_LOOKUP_TABLE_H_
#define ACTJOIN_ACT_LOOKUP_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "act/polygon_ref.h"
#include "act/tagged_entry.h"

namespace actjoin::act {

class LookupTable {
 public:
  /// Visits every reference of the entry at `offset` as (polygon_id,
  /// is_true_hit) pairs: true hits first, then candidates.
  template <typename Fn>
  void VisitEntry(uint32_t offset, Fn&& fn) const {
    const uint32_t* p = data_.data() + offset;
    uint32_t n_true = *p++;
    for (uint32_t k = 0; k < n_true; ++k) fn(*p++, true);
    uint32_t n_cand = *p++;
    for (uint32_t k = 0; k < n_cand; ++k) fn(*p++, false);
  }

  uint32_t NumTrueHits(uint32_t offset) const { return data_[offset]; }
  uint32_t NumCandidates(uint32_t offset) const {
    return data_[offset + 1 + data_[offset]];
  }

  size_t SizeBytes() const { return data_.size() * sizeof(uint32_t); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

 private:
  friend class LookupTableBuilder;
  std::vector<uint32_t> data_;
};

/// Visits every polygon reference of a probed entry as (polygon_id,
/// is_true_hit) pairs: the one or two inlined references, or the table
/// list the entry points to. The sentinel (and any pointer) has none.
template <typename Fn>
void VisitRefs(TaggedEntry entry, const LookupTable& table, Fn&& fn) {
  switch (KindOf(entry)) {
    case EntryKind::kOneRef: {
      PolygonRef r = FirstRefOf(entry);
      fn(r.polygon_id, r.interior);
      break;
    }
    case EntryKind::kTwoRefs: {
      PolygonRef a = FirstRefOf(entry);
      PolygonRef b = SecondRefOf(entry);
      fn(a.polygon_id, a.interior);
      fn(b.polygon_id, b.interior);
      break;
    }
    case EntryKind::kTableOffset:
      table.VisitEntry(TableOffsetOf(entry), fn);
      break;
    case EntryKind::kPointer:
      break;
  }
}

class LookupTableBuilder {
 public:
  /// Adds a reference list (or returns the offset of an identical existing
  /// one). The list may be in any order; storage is true hits first.
  uint32_t AddList(const RefList& refs);

  LookupTable Build() &&;

 private:
  LookupTable table_;
  // Dedup by FNV-1a hash of the encoded list; collisions verified by a full
  // comparison against the stored encoding.
  std::unordered_map<uint64_t, std::vector<uint32_t>> dedup_;
};

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_LOOKUP_TABLE_H_
