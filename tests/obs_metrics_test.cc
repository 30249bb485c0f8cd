// Metrics core of the flight recorder: histogram bucket geometry and
// merge algebra, registry exposition round-trips, the bounded event-log
// ring, and the FormatIoStats "no field silently dropped" contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "stats/tree_report.h"
#include "storage/io_stats.h"

namespace clipbb::obs {
namespace {

// ------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundariesRoundTrip) {
  // Every bucket's lower bound maps back to that bucket, and the value
  // just below it maps to the previous one — the boundaries are exact.
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t lo = Histogram::BucketLo(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lo(" << i << ")=" << lo;
    if (i > 0) {
      EXPECT_EQ(Histogram::BucketIndex(lo - 1), i - 1) << "below " << lo;
    }
  }
  // Bucket lower bounds are strictly increasing (the layout is a proper
  // partition of [0, 2^64)).
  for (int i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_LT(Histogram::BucketLo(i - 1), Histogram::BucketLo(i));
  }
  // The extremes land inside the table.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_LT(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets);
}

TEST(Histogram, RelativeErrorBounded) {
  // Log-bucketing with 4 sub-buckets per octave: the representative
  // (bucket lower bound) underestimates a recorded value by < 25 %.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10000; ++trial) {
    const uint64_t v = rng() >> (rng() % 60);
    const uint64_t lo = Histogram::BucketLo(Histogram::BucketIndex(v));
    EXPECT_LE(lo, v);
    EXPECT_LT(static_cast<double>(v - lo), 0.25 * static_cast<double>(v) + 1);
  }
}

TEST(Histogram, PercentilesDeterministic) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.max(), 100u);
  // Rank-50 of 1..100 is the value 50; the readout is its bucket's lower
  // bound — exact bucket arithmetic, same answer on every run.
  EXPECT_EQ(h.Percentile(0.50),
            Histogram::BucketLo(Histogram::BucketIndex(50)));
  EXPECT_EQ(h.Percentile(0.95),
            Histogram::BucketLo(Histogram::BucketIndex(95)));
  EXPECT_EQ(h.Percentile(1.0),
            Histogram::BucketLo(Histogram::BucketIndex(100)));
  EXPECT_EQ(Histogram{}.Percentile(0.5), 0u);  // empty = 0, not garbage
}

TEST(Histogram, MergeIsAssociativeAndExact) {
  // Split one sample stream across three histograms; any merge order must
  // reproduce the all-in-one histogram bucket for bucket (operator== also
  // compares count/sum/max).
  std::mt19937_64 rng(42);
  Histogram all, a, b, c;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = rng() >> (rng() % 50);
    all.Record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Record(v);
  }
  Histogram ab_c = a;
  ab_c += b;
  ab_c += c;
  Histogram bc = b;
  bc += c;
  Histogram a_bc = a;
  a_bc += bc;
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, all);
  EXPECT_EQ(ab_c.count(), all.count());
  EXPECT_EQ(ab_c.sum(), all.sum());
  EXPECT_EQ(ab_c.max(), all.max());
}

// -------------------------------------------------------------- registry

/// Parses `name value` sample lines of a text exposition (skips # lines).
std::vector<std::pair<std::string, uint64_t>> ParseExposition(
    const std::string& text) {
  std::vector<std::pair<std::string, uint64_t>> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    samples.emplace_back(line.substr(0, sp),
                         std::strtoull(line.c_str() + sp + 1, nullptr, 10));
  }
  return samples;
}

uint64_t SampleValue(
    const std::vector<std::pair<std::string, uint64_t>>& samples,
    const std::string& name) {
  for (const auto& [n, v] : samples) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "sample not found: " << name;
  return ~uint64_t{0};
}

/// Checks a text exposition against the one-TYPE-per-family rule: each
/// family has exactly one `# TYPE` line, ahead of all of its samples, and
/// its samples form one contiguous block. A sample belongs to the family
/// of its base name — or, for `_count`/`_sum`, to the summary it ends.
/// Returns the number of families seen.
size_t ExpectOneTypePerFamily(const std::string& text) {
  std::map<std::string, std::string> type_of;
  std::string current;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      EXPECT_EQ(type_of.count(family), 0u) << "second TYPE line: " << line;
      type_of[family] = type;
      current = family;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::string family = line.substr(0, line.find_first_of("{ "));
    for (const char* suffix : {"_count", "_sum"}) {
      const std::string sfx(suffix);
      if (family.size() > sfx.size() &&
          family.compare(family.size() - sfx.size(), sfx.size(), sfx) == 0) {
        const std::string owner = family.substr(0, family.size() - sfx.size());
        auto it = type_of.find(owner);
        if (it != type_of.end() && it->second == "summary") family = owner;
      }
    }
    EXPECT_EQ(type_of.count(family), 1u) << "sample without TYPE: " << line;
    EXPECT_EQ(family, current) << "sample outside its family block: " << line;
  }
  return type_of.size();
}

TEST(MetricsRegistry, RenderTextRoundTrips) {
  MetricsRegistry reg;
  reg.SetCounter("queries_total", 432);
  reg.SetCounter("pool_pins_total{outcome=\"hit\"}", 17);
  reg.AddCounter("pool_pins_total{outcome=\"hit\"}", 3);
  reg.SetGauge("pool_frames", 64);
  Histogram h;
  for (uint64_t v = 1; v <= 8; ++v) h.Record(v * 1000);
  reg.SetHistogram("query_ns{kind=\"intersects\"}", h);

  const auto samples = ParseExposition(reg.RenderText());
  EXPECT_EQ(SampleValue(samples, "queries_total"), 432u);
  EXPECT_EQ(SampleValue(samples, "pool_pins_total{outcome=\"hit\"}"), 20u);
  EXPECT_EQ(SampleValue(samples, "pool_frames"), 64u);
  // Histogram series: quantile labels merge INSIDE the existing brace
  // block, suffixes attach to the base name before it.
  EXPECT_EQ(SampleValue(samples,
                        "query_ns{kind=\"intersects\",quantile=\"0.5\"}"),
            h.Percentile(0.5));
  EXPECT_EQ(SampleValue(samples, "query_ns_count{kind=\"intersects\"}"), 8u);
  EXPECT_EQ(SampleValue(samples, "query_ns_sum{kind=\"intersects\"}"),
            36000u);
  EXPECT_EQ(SampleValue(samples, "query_ns_max{kind=\"intersects\"}"),
            8000u);
  // The TYPE comments name the bare metric, not the labelled series.
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("# TYPE pool_pins_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE query_ns summary"), std::string::npos);
  ExpectOneTypePerFamily(text);

  reg.Reset();
  EXPECT_TRUE(reg.RenderText().empty());
}

TEST(MetricsRegistry, RenderTextHasOneTypeLinePerFamily) {
  MetricsRegistry reg;
  reg.SetCounter("replica_rebases_total{path=\"fast\"}", 3);
  reg.SetCounter("replica_rebases_total{path=\"full\"}", 1);
  reg.SetCounter("pool_pins_total{outcome=\"hit\"}", 17);
  reg.SetCounter("pool_pins_total{outcome=\"miss\"}", 4);
  // Sorted by full name, `wal_bytes_x` lands between the unlabelled and
  // the labelled series of `wal_bytes` ('_' < '{').
  reg.SetGauge("wal_bytes", 1);
  reg.SetGauge("wal_bytes_x", 2);
  reg.SetGauge("wal_bytes{shard=\"0\"}", 3);
  Histogram h;
  h.Record(1000);
  reg.SetHistogram("query_ns{kind=\"intersects\"}", h);
  reg.SetHistogram("query_ns{kind=\"knn\"}", h);
  const std::string text = reg.RenderText();
  // replica_rebases_total, pool_pins_total, wal_bytes, wal_bytes_x,
  // query_ns and query_ns_max.
  EXPECT_EQ(ExpectOneTypePerFamily(text), 6u) << text;
  // Every series still renders.
  const auto samples = ParseExposition(text);
  EXPECT_EQ(SampleValue(samples, "replica_rebases_total{path=\"full\"}"), 1u);
  EXPECT_EQ(SampleValue(samples, "wal_bytes{shard=\"0\"}"), 3u);
  EXPECT_EQ(SampleValue(samples, "query_ns_count{kind=\"knn\"}"), 1u);
  EXPECT_EQ(SampleValue(samples, "query_ns_max{kind=\"knn\"}"),
            h.max());
}

TEST(MetricsRegistry, RenderJsonIsWellFormedEnough) {
  MetricsRegistry reg;
  reg.SetCounter("a_total", 1);
  reg.SetGauge("g", 2);
  Histogram h;
  h.Record(5);
  reg.SetHistogram("h_ns", h);
  const std::string json = reg.RenderJson();
  // Balanced braces and the three sections with their values present.
  int depth = 0, min_depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    min_depth = std::min(min_depth, depth);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(min_depth, 0);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsRegistry, MergeHistogramAccumulates) {
  MetricsRegistry reg;
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  reg.MergeHistogram("m_ns", a);
  reg.MergeHistogram("m_ns", b);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 2u);
  EXPECT_EQ(snap.histograms[0].second.sum(), 30u);
}

// ------------------------------------------------------------- event log

TEST(EventLog, RingBoundsAndOrder) {
  EventLog log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.Record(EventKind::kChecksumReject, /*page=*/i, /*shard=*/1,
               "checksum", /*aux=*/0);
  }
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.capacity(), 4u);
  const std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);  // oldest six overwritten
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].page, static_cast<int64_t>(6 + i));  // oldest first
  }
  const std::string text = log.RenderText();
  EXPECT_NE(text.find("checksum-reject"), std::string::npos);
  EXPECT_NE(text.find("page=9"), std::string::npos);
  log.Reset();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.total_recorded(), 0u);
}

// --------------------------------------------------- FormatIoStats render

TEST(FormatIoStats, NoNonzeroFieldSilentlyDropped) {
  // Distinct value per field: each must surface somewhere in the
  // rendering. If a field were dropped, its unique number would be
  // missing from the string.
  storage::IoStats io;
  io.internal_accesses = 101;
  io.leaf_accesses = 102;
  io.contributing_leaf_accesses = 103;
  io.clip_accesses = 104;
  io.page_reads = 105;
  io.read_retries = 106;
  io.page_writes = 107;
  io.wal_appends = 108;
  io.wal_bytes = 109;
  io.wal_syncs = 110;
  io.recovery_replays = 111;
  io.pin_miss_ns = 112 * 1000;  // rendered in microseconds
  const std::string s = stats::FormatIoStats(io);
  const char* expected[] = {"101", "102", "103", "104", "105", "106",
                            "107", "108", "109", "110", "111", "112"};
  for (const char* v : expected) {
    EXPECT_NE(s.find(v), std::string::npos)
        << "field value " << v << " missing from: " << s;
  }
  // Compile-time tripwire: adding an IoStats field without extending this
  // test (and FormatIoStats) changes the struct size.
  static_assert(sizeof(storage::IoStats) == 12 * sizeof(uint64_t),
                "IoStats gained a field: render it in FormatIoStats and "
                "add it to this test");
}

TEST(FormatIoStats, SingleWalFieldStillRenders) {
  // A lone nonzero wal_bytes (appends/syncs zero) must not vanish.
  storage::IoStats io;
  io.wal_bytes = 777;
  const std::string s = stats::FormatIoStats(io);
  EXPECT_NE(s.find("777"), std::string::npos) << s;
  // And the zero-valued optional fields stay out of the base rendering.
  storage::IoStats quiet;
  const std::string q = stats::FormatIoStats(quiet);
  EXPECT_EQ(q.find("wal"), std::string::npos) << q;
  EXPECT_EQ(q.find("recovered"), std::string::npos) << q;
  EXPECT_EQ(q.find("retries"), std::string::npos) << q;
}

}  // namespace
}  // namespace clipbb::obs
