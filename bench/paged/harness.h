// bench_paged harness: command line, seeded inputs, latency samples,
// process memory, and the report (human-readable metric lines followed by
// the one-line JSON result that ends every run's output).
#ifndef CLIPBB_BENCH_PAGED_HARNESS_H_
#define CLIPBB_BENCH_PAGED_HARNESS_H_

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "rtree/query_api.h"
#include "util/rng.h"
#include "workload/dataset.h"
#include "workload/query.h"

namespace clipbb::bench::paged {

constexpr int D = 3;
using Rect = geom::Rect<D>;
using Entry = rtree::Entry<D>;
using Spec = rtree::QuerySpec<D>;
using Tree = rtree::PagedRTree<D>;

// ------------------------------------------------------------ command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/paged/work";
  std::string trace_out;  // Chrome trace JSON; default under workdir
};

inline bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// ------------------------------------------------------------------ inputs

/// Every workload's inputs, a pure function of the seed. The dataset
/// itself is the fixed par03 generator; the seed picks which 5 % are held
/// out for inserts, the query centers, and the update order.
struct Inputs {
  workload::Dataset<D> bulk;    // 95 %: bulk-loaded
  std::vector<Entry> held_out;  // 5 %: inserted by the write workloads
  std::vector<Rect> windows;    // QR0/QR1/QR2 interleaved 1:1:1
  std::vector<Spec> mixed;      // warm_mixed: 80 % / 10 % / 10 % by index
  struct Update {
    bool insert;
    Entry e;
  };
  std::vector<Update> updates;  // alternating insert / delete
};

inline constexpr size_t kObjects = size_t{1} << 19;
inline constexpr size_t kWindows = 30'000;
inline constexpr int kKnnK = 10;

/// Query half-extent fractions giving ~1 / ~10 / ~100 results on average,
/// from workload::CalibrateExtent over the whole dataset with a fixed
/// sampling seed, so every seed queries with the same window sizes. The
/// three targets calibrate on their own threads (input generation is not
/// part of any measured pass).
inline std::array<double, 3> QueryFractions(const workload::Dataset<D>& all) {
  constexpr uint64_t kCalibrationSeed = 7;
  std::array<double, 3> frac{};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&all, &frac, i] {
      frac[i] = workload::CalibrateExtent<D>(all, workload::kQueryTargets[i],
                                             kCalibrationSeed);
    });
  }
  for (std::thread& t : threads) t.join();
  return frac;
}

inline Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  workload::Dataset<D> all = workload::MakePar03(kObjects);
  const std::array<double, 3> frac = QueryFractions(all);

  Rng shuffle(seed ^ 0x5EED5A1Dull);
  std::vector<Entry> items = all.items;
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[shuffle.Below(i)]);
  }
  const size_t n_bulk = items.size() - items.size() / 20;
  in.bulk.name = all.name;
  in.bulk.domain = all.domain;
  in.bulk.items.assign(items.begin(), items.begin() + n_bulk);
  in.held_out.assign(items.begin() + n_bulk, items.end());

  Rng centers(seed ^ 0xCE47E25ull);
  in.windows.reserve(kWindows);
  for (size_t i = 0; i < kWindows; ++i) {
    in.windows.push_back(workload::query_internal::QueryAt<D>(
        workload::query_internal::DitheredCenter<D>(in.bulk, centers),
        in.bulk.domain, frac[i % 3]));
  }
  in.mixed.reserve(kWindows);
  for (size_t i = 0; i < kWindows; ++i) {
    const geom::Vec<D> c = in.windows[i].Center();
    switch (i % 10) {
      case 8: in.mixed.push_back(Spec::ContainsPoint(c)); break;
      case 9: in.mixed.push_back(Spec::Knn(c, kKnnK)); break;
      default: in.mixed.push_back(Spec::Intersects(in.windows[i])); break;
    }
  }

  // Deletes take bulk objects in a seeded order, never one inserted by the
  // same run, so every update of the sequence succeeds.
  std::vector<size_t> victims(in.bulk.size());
  for (size_t i = 0; i < victims.size(); ++i) victims[i] = i;
  Rng order(seed ^ 0x0DE1E7Eull);
  for (size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[order.Below(i)]);
  }
  in.updates.reserve(2 * in.held_out.size());
  for (size_t i = 0; i < in.held_out.size(); ++i) {
    in.updates.push_back({true, in.held_out[i]});
    in.updates.push_back({false, in.bulk.items[victims[i]]});
  }
  return in;
}

// ------------------------------------------------------------- measurement

inline uint64_t NowNs() { return obs::NowNs(); }

inline void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Raw latency samples; percentiles are exact nearest-rank values (the
/// engine's histograms are bucketed to 25 %, too coarse to compare runs).
struct Samples {
  std::vector<uint64_t> ns;

  void Add(uint64_t v) { ns.push_back(v); }
  void Append(const Samples& o) { ns.insert(ns.end(), o.ns.begin(), o.ns.end()); }
  size_t size() const { return ns.size(); }
  double MeanNs() const {
    if (ns.empty()) return 0.0;
    long double s = 0;
    for (uint64_t v : ns) s += v;
    return static_cast<double>(s / ns.size());
  }
  double PercentileNs(double p) {
    if (ns.empty()) return 0.0;
    std::sort(ns.begin(), ns.end());
    size_t rank = static_cast<size_t>(std::ceil(p * ns.size()));
    rank = std::clamp<size_t>(rank, 1, ns.size());
    return static_cast<double>(ns[rank - 1]);
  }
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Latency samples of a measured pass, bucketed by the time slice in which
/// each operation completed. Rates and medians are reported as the median
/// over slices: a neighbour's burst on the shared machine then costs one
/// slice, not the run.
struct Timeline {
  static constexpr int kSlices = 10;

  uint64_t start = 0;
  uint64_t slice_ns = 1;
  std::vector<Samples> slices;
  std::vector<uint64_t> first, last;  // completion times within each slice

  Timeline() : Timeline(0, 1) {}
  Timeline(uint64_t start_ns, double seconds)
      : start(start_ns),
        slice_ns(std::max<uint64_t>(1, static_cast<uint64_t>(
                                           seconds * 1e9 / kSlices))),
        slices(kSlices),
        first(kSlices, UINT64_MAX),
        last(kSlices, 0) {}

  void Add(uint64_t end_ns, uint64_t lat_ns) {
    const uint64_t k = std::min<uint64_t>(
        end_ns > start ? (end_ns - start) / slice_ns : 0, kSlices - 1);
    slices[k].Add(lat_ns);
    first[k] = std::min(first[k], end_ns);
    last[k] = std::max(last[k], end_ns);
  }
  void Merge(const Timeline& o) {
    for (int k = 0; k < kSlices; ++k) {
      slices[k].Append(o.slices[k]);
      first[k] = std::min(first[k], o.first[k]);
      last[k] = std::max(last[k], o.last[k]);
    }
  }
  size_t size() const {
    size_t n = 0;
    for (const Samples& s : slices) n += s.size();
    return n;
  }
  Samples All() const {
    Samples all;
    for (const Samples& s : slices) all.Append(s);
    return all;
  }
  /// Operations per second: the median over slices of the slice's
  /// completions per second between its first and last completion.
  double RatePerS() const {
    std::vector<double> v;
    for (int k = 0; k < kSlices; ++k) {
      if (slices[k].size() < 2 || last[k] == first[k]) continue;
      v.push_back((slices[k].size() - 1) / ((last[k] - first[k]) / 1e9));
    }
    return Median(v);
  }
  /// The median over slices of each slice's median latency, in ns.
  double MedianNs() {
    std::vector<double> v;
    for (Samples& s : slices) {
      if (s.size()) v.push_back(s.PercentileNs(0.5));
    }
    return Median(v);
  }
};

/// Peak resident set since the last ResetPeakRss(), in MiB.
inline double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Returns freed heap to the kernel and restarts the VmHWM high-water mark
/// at the current footprint, so the peak covers only what follows.
inline void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

inline bool CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  return in.good() && static_cast<bool>(out.flush());
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or definition, printed with the line
};

/// Everything a run reports. `e2e` and `layer` are the metric sets
/// BENCHMARK.json lists (the JSON carries one of them); `info` lines are
/// printed only.
struct Report {
  std::vector<Metric> e2e, layer, info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }

  static void PrintLines(const char* kind, const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::printf("%-6s %-32s %16.4f %-8s %s\n", kind, m.name.c_str(),
                  m.value, m.unit.c_str(), m.note.c_str());
    }
  }

  /// Human-readable lines, then the JSON result as the last stdout line.
  void Print(bool trace) const {
    PrintLines("e2e", e2e);
    PrintLines("layer", layer);
    PrintLines("info", info);
    for (const std::string& e : errors) std::printf("error  %s\n", e.c_str());
    const std::vector<Metric>& ms = trace ? layer : e2e;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < ms.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

inline std::string CountNote(size_t n) { return "n=" + std::to_string(n); }

}  // namespace clipbb::bench::paged

#endif  // CLIPBB_BENCH_PAGED_HARNESS_H_
