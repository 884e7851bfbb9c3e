#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/instruments.hpp"

namespace verihvac::obs {
namespace {

TEST(HistogramBucketsTest, BoundsAreExactPowersOfTwo) {
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(0), 1e-9);
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(1), 2e-9);
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(30), std::ldexp(1e-9, 30));
  for (std::size_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_DOUBLE_EQ(histogram_bucket_upper_bound(i), 2.0 * histogram_bucket_upper_bound(i - 1));
  }
}

TEST(HistogramBucketsTest, BucketForIsInclusiveAtUpperBounds) {
  // A sample exactly on a bucket's upper bound belongs to that bucket
  // (Prometheus `le` semantics), and anything infinitesimally above it
  // spills into the next.
  for (std::size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    const double bound = histogram_bucket_upper_bound(i);
    EXPECT_EQ(histogram_bucket_for(bound), i) << "bound " << bound;
    EXPECT_EQ(histogram_bucket_for(std::nextafter(bound, 1e308)), i + 1);
  }
}

TEST(HistogramBucketsTest, EdgesLandInFirstAndLastBuckets) {
  EXPECT_EQ(histogram_bucket_for(0.0), 0u);
  EXPECT_EQ(histogram_bucket_for(-5.0), 0u);
  EXPECT_EQ(histogram_bucket_for(1e-12), 0u);
  const double last = histogram_bucket_upper_bound(kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_for(last * 1000.0), kHistogramBuckets - 1);
}

TEST(CounterTest, ShardMergeIsExactAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Relaxed sharded cells still never lose an increment: the merge is a
  // plain sum of per-shard totals.
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(4.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.5);
  gauge.add(-1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
}

TEST(HistogramTest, SnapshotCountsAndSumAreExact) {
  Histogram histogram;
  const std::vector<double> samples = {1e-9, 2e-9, 3e-9, 0.001, 0.5, 7.0};
  double sum = 0.0;
  for (double s : samples) {
    histogram.observe(s);
    sum += s;
  }
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_NEAR(snap.sum, sum, 1e-12);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : snap.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, samples.size());
  EXPECT_EQ(snap.buckets[histogram_bucket_for(1e-9)], 1u);
}

TEST(HistogramTest, NonFiniteSamplesAreDropped) {
  Histogram histogram;
  histogram.observe(std::nan(""));
  histogram.observe(std::numeric_limits<double>::infinity());
  histogram.observe(1.0);
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0);
}

TEST(HistogramTest, QuantileTracksExactQuantileWithinBucketResolution) {
  Histogram histogram;
  std::vector<double> samples;
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    // Latency-shaped: log-uniform over ~1us .. ~1s.
    const double value = std::exp(rng.uniform(std::log(1e-6), std::log(1.0)));
    histogram.observe(value);
    samples.push_back(value);
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = quantile(samples, q);
    const double approx = histogram.snapshot().quantile(q);
    // Log2 buckets: the estimate lands within the bucket holding the
    // target rank, i.e. within a factor of ~2 of the exact quantile (plus
    // a little slack for the gap between adjacent order statistics).
    EXPECT_LE(approx, exact * 2.5 + 1e-12) << "q=" << q;
    EXPECT_GE(approx, exact * 0.4 - 1e-12) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileDegenerateCases) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.snapshot().quantile(0.5), 0.0);
  histogram.observe(0.25);
  const Histogram::Snapshot snap = histogram.snapshot();
  const std::size_t bucket = histogram_bucket_for(0.25);
  const double estimate = snap.quantile(0.5);
  EXPECT_LE(estimate, histogram_bucket_upper_bound(bucket));
  EXPECT_GE(estimate, bucket == 0 ? 0.0 : histogram_bucket_upper_bound(bucket - 1));
}

TEST(MetricsRegistryTest, GetOrCreateAndKindMismatch) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests_total", "help");
  Counter& b = registry.counter("requests_total");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("requests_total"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("requests_total"), std::invalid_argument);
}

TEST(MetricsRegistryTest, InstrumentsAreNameOrdered) {
  MetricsRegistry registry;
  registry.counter("zeta_total");
  registry.gauge("alpha");
  registry.histogram("mid_seconds");
  const std::vector<InstrumentInfo> instruments = registry.instruments();
  ASSERT_EQ(instruments.size(), 3u);
  EXPECT_EQ(instruments[0].name, "alpha");
  EXPECT_EQ(instruments[1].name, "mid_seconds");
  EXPECT_EQ(instruments[2].name, "zeta_total");
}

TEST(MetricsRegistryTest, ExpositionGolden) {
  MetricsRegistry registry;
  registry.counter("jobs_total", "jobs processed").add(3);
  registry.gauge("depth", "queue depth").set(2.5);
  Histogram& h = registry.histogram("latency_seconds", "request latency");
  h.observe(1e-9);  // bucket 0
  h.observe(1e-9);  // bucket 0
  h.observe(2e-9);  // bucket 1
  const std::string expected =
      "# HELP depth queue depth\n"
      "# TYPE depth gauge\n"
      "depth 2.5\n"
      "# HELP jobs_total jobs processed\n"
      "# TYPE jobs_total counter\n"
      "jobs_total 3\n"
      "# HELP latency_seconds request latency\n"
      "# TYPE latency_seconds histogram\n"
      "latency_seconds_bucket{le=\"1e-09\"} 2\n"
      "latency_seconds_bucket{le=\"2e-09\"} 3\n"
      "latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "latency_seconds_sum 4e-09\n"
      "latency_seconds_count 3\n";
  EXPECT_EQ(registry.expose_text(), expected);
}

TEST(MetricsRegistryTest, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.counter("jobs_total").add(7);
  registry.gauge("depth").set(1.5);
  registry.histogram("latency_seconds").observe(0.001);
  const std::string json = registry.expose_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentHammer) {
  // Many threads hammering the same instruments through registry lookups
  // and pre-resolved handles; totals must come out exact. ASan/TSan-adjacent
  // CI runs this under sanitizers via the normal test glob.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter& counter = registry.counter("hammer_total");
      Histogram& histogram = registry.histogram("hammer_seconds");
      Gauge& gauge = registry.gauge("hammer_depth");
      for (int i = 0; i < kIterations; ++i) {
        counter.add(1);
        histogram.observe(1e-6 * (t + 1));
        gauge.set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("hammer_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  const Histogram::Snapshot snap = registry.histogram("hammer_seconds").snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kIterations);
}

TEST(InstrumentCatalogTest, LookupsAreEnforced) {
  EXPECT_THROW(counter("no_such_instrument_total"), std::invalid_argument);
  // Cataloged but a histogram, not a counter.
  EXPECT_THROW(counter("serve_batch_size"), std::invalid_argument);
  EXPECT_NO_THROW(counter("serve_dt_served_total"));
  EXPECT_NO_THROW(histogram("serve_batch_size"));
  EXPECT_NO_THROW(gauge("serve_queue_depth"));
}

TEST(InstanceCounterTest, InstancesStayExactAndSumIntoTheirGlobal) {
  EXPECT_THROW(InstanceCounter("no_such_instrument_total"), std::invalid_argument);
  EXPECT_THROW(InstanceCounter("serve_batch_size"), std::invalid_argument);

  const std::uint64_t before = counter("telemetry_store_records_dropped_total").value();
  InstanceCounter a("telemetry_store_records_dropped_total");
  InstanceCounter b("telemetry_store_records_dropped_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &b, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        a.add(1);
        if (t % 2 == 0) b.add(3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(a.value(), kThreads * kPerThread);
  EXPECT_EQ(b.value(), 3 * (kThreads / 2) * kPerThread);
  EXPECT_EQ(counter("telemetry_store_records_dropped_total").value() - before,
            a.value() + b.value());
}

TEST(InstrumentCatalogTest, RegisterCatalogExposesEveryInstrument) {
  register_catalog();
  const std::string text = MetricsRegistry::global().expose_text();
  for (const InstrumentSpec& spec : instrument_catalog()) {
    EXPECT_NE(text.find("# TYPE " + std::string(spec.name)), std::string::npos)
        << "missing from exposition: " << spec.name;
  }
}

}  // namespace
}  // namespace verihvac::obs
