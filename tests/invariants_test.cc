// Failure-injection tests: the always-on ACT_CHECK invariants must abort on
// contract violations (overlapping trie cells, unsorted bulk loads,
// malformed polygons, out-of-range ids), and the batch probe must be
// bit-identical to the scalar probe.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <vector>

#include "act/act.h"
#include "act/pipeline.h"
#include "act/super_covering.h"
#include "baselines/btree.h"
#include "geo/grid.h"
#include "util/flags.h"
#include "util/perf_counters.h"
#include "util/random.h"
#include "workloads/datasets.h"

namespace actjoin {
namespace {

using actjoin::util::Rng;
using geo::CellId;
using geo::Grid;

act::RefList OneRef(uint32_t pid, bool interior) {
  act::RefList l;
  l.push_back({pid, interior});
  return l;
}

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, TrieRejectsOverlappingCells) {
  // Building a trie over a hand-made *non-disjoint* covering must abort:
  // disjointness is what licenses the single-result probe (paper Sec. 3.1).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Grid grid;
  CellId big = grid.CellAt({40.7, -74.0}, 8);
  CellId small = grid.CellAt({40.7, -74.0}, 12);
  act::EncodedCovering enc;
  enc.cells.emplace_back(std::min(big, small), act::MakeOneRef({0, true}));
  enc.cells.emplace_back(std::max(big, small), act::MakeOneRef({1, true}));
  ASSERT_DEATH(
      { act::AdaptiveCellTrie trie(enc, {.bits_per_level = 8}); },
      "conflict|disjoint");
}

TEST(InvariantsDeathTest, BTreeRejectsUnsortedBulkLoad) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  baselines::BTree tree;
  std::vector<std::pair<uint64_t, uint64_t>> pairs{{5, 0}, {3, 0}};
  ASSERT_DEATH(tree.BulkLoad(pairs), "sorted");
}

TEST(InvariantsDeathTest, PolygonRejectsDegenerateRing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(geom::Polygon({{0, 0}, {1, 1}}), "at least 3");
}

TEST(InvariantsDeathTest, PolygonRefRejectsOversizedId) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  act::PolygonRef ref{act::kMaxPolygonId + 1, false};
  ASSERT_DEATH(ref.Encode(), "polygon_id");
}

TEST(InvariantsDeathTest, CellIdParentBelowLevelRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Grid grid;
  CellId c = grid.CellAt({40.7, -74.0}, 5);
  ASSERT_DEATH(c.parent(9), "level");
}

TEST(BatchProbe, MatchesScalarProbeExactly) {
  Grid grid;
  Rng rng(90);
  act::SuperCoveringBuilder b;
  for (int k = 0; k < 800; ++k) {
    geo::LatLng p{rng.Uniform(40.4, 41.0), rng.Uniform(-74.3, -73.7)};
    b.Insert(grid.CellAt(p, 6 + static_cast<int>(rng.UniformInt(20))),
             OneRef(static_cast<uint32_t>(k % 13), k % 2 == 0));
  }
  act::SuperCovering sc = b.Build();
  act::EncodedCovering enc = act::Encode(sc);

  std::vector<uint64_t> queries;
  for (int s = 0; s < 10000; ++s) {
    geo::LatLng p{rng.Uniform(40.3, 41.1), rng.Uniform(-74.4, -73.6)};
    queries.push_back(grid.CellAt(p).id());
  }

  for (int bits : {2, 4, 8}) {
    act::AdaptiveCellTrie trie(enc, {.bits_per_level = bits});
    std::vector<act::TaggedEntry> batched(queries.size());
    trie.ProbeBatch(queries.data(), queries.size(), batched.data());
    for (size_t k = 0; k < queries.size(); ++k) {
      ASSERT_EQ(batched[k], trie.Probe(queries[k]))
          << "bits " << bits << " query " << k;
    }
  }
}

TEST(BatchProbe, HandlesPartialGroups) {
  Grid grid;
  act::SuperCoveringBuilder b;
  b.Insert(grid.CellAt({40.7, -74.0}, 10), OneRef(1, true));
  b.Insert(grid.CellAt({40.8, -73.9}, 24), OneRef(2, true));
  act::SuperCovering sc = b.Build();
  act::EncodedCovering enc = act::Encode(sc);
  // A shallow hit, a deep hit and a miss in turn, so the lanes of a group
  // stop descending at different levels.
  const uint64_t kinds[3] = {grid.CellAt({40.7, -74.0}).id(),
                             grid.CellAt({40.8, -73.9}).id(),
                             grid.CellAt({40.9, -73.5}).id()};

  // n smaller than, equal to, and not a multiple of the group size.
  constexpr uint64_t g = act::AdaptiveCellTrie::kProbeGroup;
  for (int bits : {2, 4, 8}) {
    act::AdaptiveCellTrie trie(enc, {.bits_per_level = bits});
    ASSERT_NE(trie.Probe(kinds[0]), act::kSentinelEntry);
    ASSERT_NE(trie.Probe(kinds[1]), act::kSentinelEntry);
    ASSERT_EQ(trie.Probe(kinds[2]), act::kSentinelEntry);
    for (uint64_t n : {uint64_t{1}, g - 1, g, g + 1, 2 * g + 1}) {
      std::vector<uint64_t> queries(n);
      for (uint64_t k = 0; k < n; ++k) queries[k] = kinds[k % 3];
      std::vector<act::TaggedEntry> out(n, ~uint64_t{0});
      trie.ProbeBatch(queries.data(), n, out.data());
      for (uint64_t k = 0; k < n; ++k) {
        ASSERT_EQ(out[k], trie.Probe(queries[k]))
            << "bits " << bits << " n " << n << " query " << k;
      }
    }
    // Empty batch is a no-op.
    trie.ProbeBatch(nullptr, 0, nullptr);
  }
}

TEST(PerfCounters, StartStopProducesCycles) {
  util::PerfCounterGroup group;
  group.Start();
  volatile uint64_t sink = 0;
  for (int k = 0; k < 100000; ++k) sink = sink + k;
  util::PerfSample sample = group.Stop();
  // Cycles are always available (hardware event or TSC fallback) and the
  // busy loop above must have consumed a visible amount.
  ASSERT_TRUE(sample.cycles.valid);
  EXPECT_GT(sample.cycles.value, 10000u);
}

TEST(Flags, ParseFormsAndDefaults) {
  util::Flags flags;
  flags.AddDouble("scale", 0.5, "s");
  flags.AddInt("points", 100, "p");
  flags.AddBool("full", false, "f");
  flags.AddString("name", "x", "n");
  const char* argv[] = {"bin", "--scale=2.5", "--points", "42", "--full",
                        "--name=abc"};
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale"), 2.5);
  EXPECT_EQ(flags.GetInt("points"), 42);
  EXPECT_TRUE(flags.GetBool("full"));
  EXPECT_EQ(flags.GetString("name"), "abc");
}

TEST(Flags, DefaultsSurviveNoArgs) {
  util::Flags flags;
  flags.AddInt("points", 123, "p");
  const char* argv[] = {"bin"};
  flags.Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("points"), 123);
}

}  // namespace
}  // namespace actjoin
