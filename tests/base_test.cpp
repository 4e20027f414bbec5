#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "base/check.hpp"
#include "base/logging.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "base/timer.hpp"

namespace {
// Keeps the busy loop observable without volatile compound assignment.
void benchmark_guard(long& value) { asm volatile("" : "+r"(value)); }
}  // namespace

namespace chortle {
namespace {

TEST(Check, MacrosThrowTypedExceptions) {
  EXPECT_NO_THROW(CHORTLE_CHECK(1 + 1 == 2));
  EXPECT_THROW(CHORTLE_CHECK(1 + 1 == 3), InternalError);
  EXPECT_THROW(CHORTLE_CHECK_MSG(false, "context"), InternalError);
  EXPECT_THROW(CHORTLE_REQUIRE(false, "bad arg"), InvalidInput);
  try {
    CHORTLE_REQUIRE(false, "the message");
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("base_test.cpp"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  bool all_equal = true;
  for (int i = 0; i < 16; ++i)
    if (a2.next_u64() != c2.next_u64()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Rng, BoundsAreRespected) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues reached
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  for (int i = 0; i < 100; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(rng.next_below(0), InternalError);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(3);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(Rng, RoughlyUniformBits) {
  Rng rng(123);
  int ones = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i)
    if (rng.next_bool()) ++ones;
  EXPECT_GT(ones, trials / 2 - 300);
  EXPECT_LT(ones, trials / 2 + 300);
}

TEST(Timer, MonotoneNonNegative) {
  WallTimer timer;
  const double t1 = timer.seconds();
  EXPECT_GE(t1, 0.0);
  long sink = 0;
  for (long i = 0; i < 100000; ++i) sink += i;
  benchmark_guard(sink);
  const double t2 = timer.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(timer.millis(), timer.seconds() * 1e3, 1.0);
  timer.reset();
  EXPECT_LE(timer.seconds(), t2 + 1.0);
}

TEST(Logging, LevelsGateEmission) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold statements must not evaluate their arguments.
  int evaluations = 0;
  const auto count = [&]() {
    ++evaluations;
    return "x";
  };
  LOG_DEBUG << count();
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kDebug);
  LOG_DEBUG << count();
  EXPECT_EQ(evaluations, 1);
  set_log_level(original);
}

TEST(ThreadPool, TasksMaySubmitFurtherTasks) {
  std::atomic<int> done{0};
  {
    base::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { pool.submit([&] { done.fetch_add(1); }); });
    // The destructor drains every queued task, including the ones the
    // workers submit while it drains.
  }
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace chortle
