#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>

#include "util/numeric.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace pp::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, 0.05);  // covers the range
  EXPECT_GT(hi, 0.95);
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng r(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.next_bool(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, BitsMasked) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.next_bits(5), 32u);
  EXPECT_EQ(r.next_bits(0), 0u);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("| name   |"), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t;
  t.header({"a", "b"});
  t.row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(7ll), "7");
  EXPECT_EQ(Table::sci(12345.0, 1), "1.2e+04");
}

TEST(Numeric, LinspaceEndpoints) {
  const auto v = linspace(0.0, 1.0, 11);
  ASSERT_EQ(v.size(), 11u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_NEAR(v[5], 0.5, 1e-12);
  EXPECT_THROW(linspace(0, 1, 1), std::invalid_argument);
}

TEST(Numeric, BisectFindsRoot) {
  const double root =
      bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
  EXPECT_THROW((void)bisect([](double) { return 1.0; }, 0, 1),
               std::invalid_argument);
}

TEST(Numeric, Rk4ExponentialDecay) {
  // dy/dt = -y, y(0)=1 -> y(1) = 1/e.
  const auto traj = rk4([](double, double y) { return -y; }, 1.0, 0, 1, 100);
  EXPECT_NEAR(traj.back(), std::exp(-1.0), 1e-8);
  EXPECT_EQ(traj.size(), 101u);
}

TEST(Numeric, Interp1ClampsAndInterpolates) {
  const std::vector<double> xs{0, 1, 2};
  const std::vector<double> ys{0, 10, 40};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, -1), 0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 3), 40);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 25);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(pool, 100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 4950);
  sum = 0;
  parallel_for(pool, 10, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SingleWorkerSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroItemsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForCompletesPerCall) {
  // An unrelated task holds one worker until released; parallel_for must
  // finish its own calls on the other worker and return regardless.
  ThreadPool pool(2);
  std::promise<void> started;
  std::future<void> blocking = started.get_future();
  std::promise<void> release;
  pool.submit([&started, released = release.get_future().share()] {
    started.set_value();
    released.wait();
  });
  blocking.wait();

  std::atomic<long> sum{0};
  auto call = std::async(std::launch::async, [&] {
    parallel_for(pool, 8,
                 [&](std::size_t i) { sum += static_cast<long>(i); });
  });
  // Bounded, so a pool-wide wait fails here instead of hanging the suite.
  const bool returned =
      call.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.set_value();
  call.wait();
  EXPECT_TRUE(returned) << "parallel_for waited on an unrelated task";
  EXPECT_EQ(sum.load(), 28);
}

}  // namespace
}  // namespace pp::util
