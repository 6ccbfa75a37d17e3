#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "instances/tpcc.h"
#include "lp/solve_stats.h"

namespace vpart {
namespace {

TEST(CounterTest, SingleThreadedAdds) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_total", "help text");
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
}

TEST(CounterTest, GetReturnsStableReference) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test_total");
  Counter& b = registry.GetCounter("test_total", "later help is ignored");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.Value(), 5);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  // The sharded-cell design must not lose updates: N threads x M
  // increments, exact total. Exercised with more threads than shards so
  // shard indices collide.
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_total");
  constexpr int kThreads = 2 * kMetricShards;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), static_cast<long>(kThreads) * kPerThread);
}

TEST(CounterTest, SnapshotDuringConcurrentWritesIsSane) {
  // Snapshots taken mid-update must observe some prefix of the increments
  // (monotone, never above the final total) without tearing. This is also
  // the TSan workout for the reader/writer paths.
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_total");
  constexpr int kWriters = 4;
  constexpr int kPerThread = 50000;
  constexpr long kTotal = static_cast<long>(kWriters) * kPerThread;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&counter, &running]() {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    MetricsSnapshot snapshot = registry.Snapshot();
    ASSERT_EQ(snapshot.counters.size(), 1u);
    const long value = snapshot.counters[0].value;
    EXPECT_GE(value, 0);
    EXPECT_LE(value, kTotal);
    std::this_thread::yield();
  }
  for (std::thread& thread : writers) thread.join();
  EXPECT_EQ(counter.Value(), kTotal);
}

TEST(GaugeTest, SetAddAndDecrement) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("test_gauge");
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(1.0);
  gauge.Add(-3.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.5);
}

TEST(GaugeTest, ConcurrentAddsSumExactly) {
  // Gauge::Add is a CAS loop over the double's bit pattern; +1/-1 pairs
  // from many threads must cancel exactly (integers are exact in double).
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("inflight");
  constexpr int kThreads = 8;
  constexpr int kPairs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge]() {
      for (int i = 0; i < kPairs; ++i) {
        gauge.Add(1.0);
        gauge.Add(-1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  // Prometheus le-semantics: an observation equal to an upper edge lands
  // in that bucket, strictly above it spills to the next.
  MetricsRegistry registry;
  Histogram& histogram =
      registry.GetHistogram("test_seconds", {1.0, 2.0, 5.0});
  histogram.Observe(1.0);   // == first edge: bucket le=1
  histogram.Observe(1.5);   // bucket le=2
  histogram.Observe(2.0);   // == second edge: bucket le=2
  histogram.Observe(5.0);   // == last finite edge: bucket le=5
  histogram.Observe(5.001); // +Inf bucket
  const std::vector<long> cumulative = histogram.CumulativeCounts();
  ASSERT_EQ(cumulative.size(), 4u);  // 3 finite edges + Inf
  EXPECT_EQ(cumulative[0], 1);  // le=1
  EXPECT_EQ(cumulative[1], 3);  // le=2
  EXPECT_EQ(cumulative[2], 4);  // le=5
  EXPECT_EQ(cumulative[3], 5);  // +Inf == Count()
  EXPECT_EQ(histogram.Count(), 5);
  EXPECT_NEAR(histogram.Sum(), 1.0 + 1.5 + 2.0 + 5.0 + 5.001, 1e-6);
}

TEST(HistogramTest, BelowFirstAndAboveLastEdges) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test_seconds", {0.5});
  histogram.Observe(0.0);
  histogram.Observe(-1.0);  // below everything still counts (le-inclusive)
  histogram.Observe(100.0);
  const std::vector<long> cumulative = histogram.CumulativeCounts();
  ASSERT_EQ(cumulative.size(), 2u);
  EXPECT_EQ(cumulative[0], 2);
  EXPECT_EQ(cumulative[1], 3);
}

TEST(HistogramTest, ConcurrentObservationsAllLand) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.GetHistogram("test_seconds", DefaultLatencyBounds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(0.001 * ((t + i) % 7));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(), static_cast<long>(kThreads) * kPerThread);
  const std::vector<long> cumulative = histogram.CumulativeCounts();
  EXPECT_EQ(cumulative.back(), histogram.Count());
  // Cumulative counts are monotone by construction.
  for (size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]);
  }
}

TEST(MetricsRegistryTest, SnapshotCarriesHelpAndSortsByName) {
  MetricsRegistry registry;
  registry.GetCounter("b_total", "second").Increment();
  registry.GetCounter("a_total", "first").Add(2);
  registry.GetGauge("g", "a gauge").Set(1.5);
  registry.GetHistogram("h_seconds", {1.0}, "a histogram").Observe(0.5);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a_total");
  EXPECT_EQ(snapshot.counters[0].help, "first");
  EXPECT_EQ(snapshot.counters[0].value, 2);
  EXPECT_EQ(snapshot.counters[1].name, "b_total");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 1.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
  ASSERT_EQ(snapshot.histograms[0].bounds.size(), 1u);
  ASSERT_EQ(snapshot.histograms[0].cumulative.size(), 2u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_total");
  Histogram& histogram = registry.GetHistogram("test_seconds", {1.0});
  Gauge& gauge = registry.GetGauge("g");
  counter.Add(7);
  histogram.Observe(0.5);
  gauge.Set(3.0);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(histogram.Count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  // References stay valid and updates keep landing.
  counter.Increment();
  EXPECT_EQ(counter.Value(), 1);
}

TEST(MetricsRegistryTest, ConcurrentGetOfSameNameIsOneMetric) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared_total").Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared_total").Value(), 8000);
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// vpart_lp_iterations_total advances by exactly telemetry.mip's
// total_iterations: phase1_iterations is a share of those pivots, not an
// addition to them. No vpart request reaches the dual phase 1 (every
// formulation starts dual feasible), so that case is folded directly.
TEST(LpMetricsTest, IterationCounterAddsTotalIterations) {
  FoldLpStatsIntoMetrics(LpSolveStats());  // registers the counters
  const Counter& counter =
      MetricsRegistry::Global().GetCounter("vpart_lp_iterations_total");

  LpSolveStats stats;
  stats.lp_solves = 2;
  stats.cold_starts = 2;
  stats.dual_iterations = 40;
  stats.phase1_iterations = 15;
  long before = counter.Value();
  FoldLpStatsIntoMetrics(stats);
  EXPECT_EQ(counter.Value() - before, 40);
  EXPECT_EQ(counter.Value() - before, stats.total_iterations());

  AdviseRequest request;
  request.num_sites = 2;
  request.solver = kSolverIlp;
  before = counter.Value();
  auto response = Advise(MakeTpccInstance(), request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->lp_stats.total_iterations(), 0);
  EXPECT_EQ(counter.Value() - before, response->lp_stats.total_iterations());
}

}  // namespace
}  // namespace vpart
