// Unit tests for the util subsystem.
//
// Seeding convention for the whole tests/ tree: any test that draws random
// data constructs util::Rng with an explicit literal seed (or one derived
// deterministically from the test parameter) — never the default
// constructor, never anything time- or address-derived. Rng is a fixed
// xoshiro256** implementation precisely so that seeded runs are
// bit-identical across platforms and standard libraries, which makes every
// ctest run reproducible and every failure replayable from the seed in the
// test source.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/bitops.h"
#include "util/flags.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "util/small_vector.h"
#include "util/table_printer.h"
#include "util/work_stealing_pool.h"

namespace actjoin::util {
namespace {

TEST(BitOps, TrailingZeros) {
  EXPECT_EQ(CountTrailingZeros(1), 0);
  EXPECT_EQ(CountTrailingZeros(8), 3);
  EXPECT_EQ(CountTrailingZeros(uint64_t{1} << 60), 60);
  EXPECT_EQ(CountTrailingZeros(0), 64);
}

TEST(BitOps, LeadingZeros) {
  EXPECT_EQ(CountLeadingZeros(uint64_t{1} << 63), 0);
  EXPECT_EQ(CountLeadingZeros(1), 63);
  EXPECT_EQ(CountLeadingZeros(0), 64);
}

TEST(BitOps, LowestSetBit) {
  EXPECT_EQ(LowestSetBit(0b1011000), uint64_t{0b1000});
  EXPECT_EQ(LowestSetBit(0), uint64_t{0});
  EXPECT_EQ(LowestSetBit(uint64_t{1} << 63), uint64_t{1} << 63);
}

TEST(BitOps, ExtractBits) {
  EXPECT_EQ(ExtractBits(0xABCD, 4, 8), uint64_t{0xBC});
  EXPECT_EQ(ExtractBits(~uint64_t{0}, 0, 64), ~uint64_t{0});
}

TEST(BitOps, CommonPrefixLength) {
  EXPECT_EQ(CommonPrefixLength(0, 0), 64);
  EXPECT_EQ(CommonPrefixLength(uint64_t{1} << 63, 0), 0);
  uint64_t a = 0xFF00000000000000ULL;
  uint64_t b = 0xFF80000000000000ULL;
  EXPECT_EQ(CommonPrefixLength(a, b), 8);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal &= (va == vb);
    any_diff_seed_diff |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(9);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(SmallVector, InlineBasics) {
  SmallVector<int, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v.capacity(), 2u);
}

TEST(SmallVector, SpillsToHeap) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
  EXPECT_GT(v.capacity(), 2u);
}

TEST(SmallVector, CopyAndMove) {
  SmallVector<int, 2> v{1, 2, 3, 4};
  SmallVector<int, 2> copy(v);
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_TRUE(copy == v);

  SmallVector<int, 2> moved(std::move(v));
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(moved[3], 4);
  EXPECT_EQ(v.size(), 0u);  // NOLINT: moved-from is empty by contract

  SmallVector<int, 2> assigned;
  assigned = copy;
  EXPECT_TRUE(assigned == copy);
  SmallVector<int, 2> move_assigned;
  move_assigned = std::move(copy);
  EXPECT_EQ(move_assigned.size(), 4u);
}

TEST(SmallVector, InlineCopyIndependence) {
  SmallVector<int, 4> a{1, 2};
  SmallVector<int, 4> b(a);
  b[0] = 99;
  EXPECT_EQ(a[0], 1);
}

TEST(SmallVector, PopAndClear) {
  SmallVector<int, 2> v{5, 6, 7};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 6);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, ResizeZeroFills) {
  SmallVector<uint64_t, 2> v{1};
  v.resize(5);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 1u);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(v[i], 0u);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  for (int threads : {1, 2, 4}) {
    const uint64_t n = 10007;
    std::vector<std::atomic<int>> seen(n);
    ParallelFor(n, threads, [&](uint64_t b, uint64_t e, int) {
      for (uint64_t i = b; i < e; ++i) seen[i].fetch_add(1);
    });
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, EmptyRange) {
  bool called = false;
  ParallelFor(0, 4, [&](uint64_t, uint64_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, BatchBoundsRespected) {
  ParallelFor(100, 2, 16, [&](uint64_t b, uint64_t e, int) {
    EXPECT_LE(e - b, 16u);
    EXPECT_LT(b, e);
  });
}

TEST(ParallelFor, ThreadIdsInRange) {
  std::atomic<bool> ok{true};
  ParallelFor(1000, 3, [&](uint64_t, uint64_t, int tid) {
    if (tid < 0 || tid >= 3) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FmtInt(42), "42");
  EXPECT_EQ(TablePrinter::FmtM(13960000), "13.96");
}

TEST(SplitMix, Avalanche) {
  // Neighboring inputs should produce very different outputs.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(SplitMix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

// ---- Flags ----------------------------------------------------------------
// Happy paths plus every TryParse error path; the exit-ing Parse() wrapper
// and the duplicate-registration ACT_CHECK are covered with death tests.

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

Flags BenchLikeFlags() {
  Flags flags;
  flags.AddDouble("scale", 0.1, "scale factor");
  flags.AddInt("points", 1000, "point count");
  flags.AddBool("csv", false, "csv output");
  flags.AddString("out", "table.txt", "output path");
  return flags;
}

TEST(Flags, ParsesAllTypesAndBothSyntaxes) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin",    "--scale=0.5", "--points",
                                   "42",     "--csv",       "--out=x.csv"};
  std::vector<char*> argv = Argv(args);
  std::string error;
  ASSERT_TRUE(flags.TryParse(static_cast<int>(argv.size()), argv.data(),
                             &error))
      << error;
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale"), 0.5);
  EXPECT_EQ(flags.GetInt("points"), 42);
  EXPECT_TRUE(flags.GetBool("csv"));
  EXPECT_EQ(flags.GetString("out"), "x.csv");
}

TEST(Flags, DefaultsSurviveEmptyArgv) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin"};
  std::vector<char*> argv = Argv(args);
  std::string error;
  ASSERT_TRUE(flags.TryParse(1, argv.data(), &error));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale"), 0.1);
  EXPECT_EQ(flags.GetInt("points"), 1000);
  EXPECT_FALSE(flags.GetBool("csv"));
  EXPECT_EQ(flags.GetString("out"), "table.txt");
}

TEST(Flags, ExplicitBoolValues) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "--csv=false"};
  std::vector<char*> argv = Argv(args);
  std::string error;
  ASSERT_TRUE(flags.TryParse(2, argv.data(), &error));
  EXPECT_FALSE(flags.GetBool("csv"));

  Flags flags2 = BenchLikeFlags();
  std::vector<std::string> args2 = {"bin", "--csv=1"};
  std::vector<char*> argv2 = Argv(args2);
  ASSERT_TRUE(flags2.TryParse(2, argv2.data(), &error));
  EXPECT_TRUE(flags2.GetBool("csv"));
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "--bogus=1"};
  std::vector<char*> argv = Argv(args);
  std::string error;
  EXPECT_FALSE(flags.TryParse(2, argv.data(), &error));
  EXPECT_NE(error.find("unknown flag: --bogus"), std::string::npos) << error;
}

TEST(Flags, RejectsPositionalArgument) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "census"};
  std::vector<char*> argv = Argv(args);
  std::string error;
  EXPECT_FALSE(flags.TryParse(2, argv.data(), &error));
  EXPECT_NE(error.find("unexpected argument"), std::string::npos) << error;
}

TEST(Flags, RejectsMissingValue) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "--points"};
  std::vector<char*> argv = Argv(args);
  std::string error;
  EXPECT_FALSE(flags.TryParse(2, argv.data(), &error));
  EXPECT_NE(error.find("requires a value"), std::string::npos) << error;
}

TEST(Flags, RejectsMalformedValues) {
  // Trailing junk, wholly non-numeric, and empty values must all fail the
  // parse rather than silently becoming 0 (the pre-harness behavior).
  for (const char* bad : {"--points=12x", "--points=abc", "--points=",
                          "--scale=1.5.2", "--scale=fast", "--scale=",
                          "--csv=yes"}) {
    Flags flags = BenchLikeFlags();
    std::vector<std::string> args = {"bin", bad};
    std::vector<char*> argv = Argv(args);
    std::string error;
    EXPECT_FALSE(flags.TryParse(2, argv.data(), &error)) << bad;
    EXPECT_NE(error.find("malformed value"), std::string::npos) << error;
  }
}

TEST(FlagsDeathTest, ParseExitsOnUnknownFlag) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "--bogus=1"};
  std::vector<char*> argv = Argv(args);
  EXPECT_EXIT(flags.Parse(2, argv.data()), ::testing::ExitedWithCode(2),
              "unknown flag: --bogus");
}

TEST(FlagsDeathTest, ParseExitsOnMalformedValue) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "--points=12x"};
  std::vector<char*> argv = Argv(args);
  EXPECT_EXIT(flags.Parse(2, argv.data()), ::testing::ExitedWithCode(2),
              "malformed value for --points");
}

TEST(FlagsDeathTest, HelpExitsCleanlyWithUsage) {
  Flags flags = BenchLikeFlags();
  std::vector<std::string> args = {"bin", "--help"};
  std::vector<char*> argv = Argv(args);
  EXPECT_EXIT(flags.Parse(2, argv.data()), ::testing::ExitedWithCode(0),
              "usage: bin");
}

TEST(FlagsDeathTest, DuplicateRegistrationIsFatal) {
  Flags flags;
  flags.AddInt("points", 1, "first");
  EXPECT_DEATH(flags.AddInt("points", 2, "second"),
               "duplicate flag registration");
  EXPECT_DEATH(flags.AddDouble("points", 2.0, "different type"),
               "duplicate flag registration");
}

// --- WorkStealingPool ------------------------------------------------------

TEST(WorkStealingPool, EveryTaskRunsExactlyOnce) {
  for (int workers : {0, 1, 3}) {
    WorkStealingPool pool(workers);
    EXPECT_EQ(pool.num_workers(), workers);
    constexpr uint64_t kTasks = 500;
    std::vector<std::atomic<uint32_t>> runs(kTasks);
    pool.Run(kTasks, [&](uint64_t t) {
      runs[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (uint64_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(runs[t].load(), 1u) << "task " << t << ", " << workers
                                    << " workers";
    }
  }
}

TEST(WorkStealingPool, ZeroTasksAndZeroWorkersAreNoOps) {
  WorkStealingPool pool(2);
  pool.Run(0, [](uint64_t) { FAIL() << "no task should run"; });

  // 0 workers: everything runs inline on the caller, in index order (the
  // "width 1 means no spawn" convention).
  WorkStealingPool inline_pool(0);
  std::vector<uint64_t> order;
  inline_pool.Run(5, [&](uint64_t t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(WorkStealingPool, TaskEffectsVisibleAfterRun) {
  // Run() is a synchronization point: worker-side writes must be visible
  // to the caller without extra fences (the executor's per-task stats
  // slots depend on it). TSan validates the happens-before claim.
  WorkStealingPool pool(3);
  std::vector<uint64_t> slots(256, 0);
  for (int round = 1; round <= 4; ++round) {
    pool.Run(slots.size(), [&](uint64_t t) { slots[t] = t + round; });
    for (uint64_t t = 0; t < slots.size(); ++t) {
      ASSERT_EQ(slots[t], t + round);
    }
  }
}

TEST(WorkStealingPool, ConcurrentSubmittersShareOneWorkerSet) {
  // Several threads Run() on the same pool at once — the JoinService
  // shared-pool configuration. Every submitter's tasks must all run
  // exactly once and each Run must only return after its own tasks
  // finished (asserted via the per-submitter sum).
  WorkStealingPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr uint64_t kTasks = 200;
  struct Report {
    uint64_t sum = 0;
    bool ok = false;
  };
  std::vector<Report> reports(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < 5; ++round) {
        std::vector<std::atomic<uint64_t>> got(kTasks);
        pool.Run(kTasks, [&](uint64_t t) {
          got[t].fetch_add(t, std::memory_order_relaxed);
        });
        uint64_t sum = 0;
        for (auto& g : got) sum += g.load(std::memory_order_relaxed);
        reports[s].sum += sum;
      }
      reports[s].ok =
          reports[s].sum == 5 * (kTasks * (kTasks - 1) / 2);
    });
  }
  for (auto& t : submitters) t.join();
  for (const Report& r : reports) {
    EXPECT_TRUE(r.ok) << "sum=" << r.sum;
  }
}

TEST(WorkStealingPool, SkewedTaskCostsStillComplete) {
  // One task is far heavier than the rest (the hot-shard shape): the
  // light tasks must not wait behind it, and everything still finishes.
  WorkStealingPool pool(3);
  std::atomic<uint64_t> done{0};
  pool.Run(64, [&](uint64_t t) {
    volatile uint64_t sink = 0;
    const uint64_t spin = t == 0 ? 2'000'000 : 1'000;
    for (uint64_t i = 0; i < spin; ++i) sink = sink + i;
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64u);
}

TEST(WorkStealingPool, RunTasksRunsEveryTaskExactlyOnce) {
  // The executors' one dispatcher, in every (pool, width) shape they call
  // it with: no pool (inline, or a transient pool), a worker-less pool
  // (a JoinService at threads_per_join = 1) and a pool with workers.
  WorkStealingPool empty_pool(0);
  WorkStealingPool pool(3);
  struct Shape {
    WorkStealingPool* pool;
    int width;
  };
  for (const Shape shape : {Shape{nullptr, 1}, Shape{nullptr, 4},
                            Shape{&empty_pool, 1}, Shape{&pool, 4}}) {
    for (uint64_t n : {0, 1, 2, 500}) {
      std::vector<std::atomic<uint32_t>> runs(n);
      RunTasks(shape.pool, shape.width, n, [&](uint64_t t) {
        runs[t].fetch_add(1, std::memory_order_relaxed);
      });
      for (uint64_t t = 0; t < n; ++t) {
        EXPECT_EQ(runs[t].load(), 1u)
            << "task " << t << " of " << n << ", width " << shape.width
            << ", pool workers "
            << (shape.pool != nullptr ? shape.pool->num_workers() : -1);
      }
    }
  }
}

TEST(WorkStealingPool, RunTasksRunsLoneTaskAndWidthOneOnCaller) {
  // A single task, or width 1, never leaves the calling thread — even
  // with a pool that has idle workers. The serving path's small batches
  // decompose into one task and rely on this to skip the wake-up. A pool
  // caller helps drain its own job, so a lone task handed to a pool still
  // lands on the caller most of the time; the rounds make a worker take
  // it at least once if RunTasks dispatched it.
  WorkStealingPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  struct Case {
    WorkStealingPool* pool;
    int width;
    uint64_t n;
  };
  constexpr int kRounds = 200;
  for (const Case c : {Case{nullptr, 4, 1}, Case{&pool, 4, 1},
                       Case{nullptr, 1, 500}, Case{&pool, 1, 500}}) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::thread::id> ran_on(c.n);
      std::vector<uint64_t> order;
      RunTasks(c.pool, c.width, c.n, [&](uint64_t t) {
        ran_on[t] = std::this_thread::get_id();
        order.push_back(t);
      });
      ASSERT_EQ(order.size(), c.n);
      for (uint64_t t = 0; t < c.n; ++t) {
        ASSERT_EQ(ran_on[t], caller)
            << "task " << t << " of " << c.n << ", width " << c.width
            << ", round " << round;
        ASSERT_EQ(order[t], t);  // inline runs in index order
      }
    }
  }
}

}  // namespace
}  // namespace actjoin::util
