// Shared harness for the figure/table benches: dataset registry with
// paper-proportional (down-scaled) cardinalities, tree builders, and query
// helpers. Every bench prints plain aligned tables (util/table.h) so output
// can be diffed against EXPERIMENTS.md.
#ifndef CLIPBB_BENCH_COMMON_H_
#define CLIPBB_BENCH_COMMON_H_

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rtree/factory.h"
#include "rtree/query_api.h"
#include "rtree/validate.h"
#include "util/env.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/dataset.h"
#include "workload/query.h"

namespace clipbb::bench {

/// Down-scaled dataset cardinalities, proportional to the paper's (§V-B:
/// par* 1.05 M, rea02 1.9 M, rea03 12 M, axo03 2.6 M, den03 1.3 M,
/// neu03 3.9 M), divided by ~20 and multiplied by CLIPBB_SCALE.
inline size_t DatasetNominal(const std::string& name) {
  size_t n = 50'000;
  if (name == "par02" || name == "par03") n = 52'000;
  if (name == "rea02") n = 94'000;
  if (name == "rea03") n = 150'000;
  if (name == "axo03") n = 128'000;
  if (name == "den03") n = 64'000;
  if (name == "neu03") n = 190'000;
  return ScaledCount(n);
}

inline workload::Dataset2 LoadDataset2(const std::string& name) {
  return workload::MakeDataset2(name, DatasetNominal(name));
}

inline workload::Dataset3 LoadDataset3(const std::string& name) {
  return workload::MakeDataset3(name, DatasetNominal(name));
}

/// All seven evaluation datasets in paper order, dispatched by dimension.
inline const std::vector<std::string> kDatasets2 = {"par02", "rea02"};
inline const std::vector<std::string> kDatasets3 = {"par03", "rea03",
                                                    "axo03", "den03",
                                                    "neu03"};

template <int D>
workload::Dataset<D> LoadDataset(const std::string& name);

template <>
inline workload::Dataset<2> LoadDataset<2>(const std::string& name) {
  return LoadDataset2(name);
}
template <>
inline workload::Dataset<3> LoadDataset<3>(const std::string& name) {
  return LoadDataset3(name);
}

template <int D>
const std::vector<std::string>& DatasetNames();

template <>
inline const std::vector<std::string>& DatasetNames<2>() {
  return kDatasets2;
}
template <>
inline const std::vector<std::string>& DatasetNames<3>() {
  return kDatasets3;
}

template <int D>
std::unique_ptr<rtree::RTree<D>> Build(rtree::Variant v,
                                       const workload::Dataset<D>& data) {
  return rtree::BuildTree<D>(v, data.items, data.domain);
}

/// Mean leaf accesses per query over a workload, through the unified
/// query API. Runs the batched hot path (reusable traversal context,
/// Hilbert-ordered scheduling); counts and I/O totals are identical to
/// issuing the queries one by one. Works for either backend.
template <int D>
storage::IoStats RunQueries(const rtree::SpatialEngine<D>& engine,
                            const std::vector<geom::Rect<D>>& queries,
                            size_t* results = nullptr,
                            rtree::EngineMetrics* metrics = nullptr) {
  engine.SetMetrics(metrics);  // null = the pre-obs fast path
  const rtree::QueryBatchResult r =
      engine.ExecuteBatch(std::span<const geom::Rect<D>>(queries));
  engine.SetMetrics(nullptr);
  if (results) {
    size_t total = 0;
    for (size_t c : r.counts) total += c;
    *results = total;
  }
  return r.io;
}

template <int D>
storage::IoStats RunQueries(const rtree::RTree<D>& tree,
                            const std::vector<geom::Rect<D>>& queries,
                            size_t* results = nullptr) {
  return RunQueries<D>(rtree::SpatialEngine<D>(tree), queries, results);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// True when `flag` appears among the command-line arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// Integer value of `--flag=N` or `--flag N`; `fallback` when absent or
/// malformed.
inline int IntFlag(int argc, char** argv, const char* flag, int fallback) {
  const std::string name(flag);
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == name && i + 1 < argc) return std::atoi(argv[i + 1]);
    if (arg.size() > name.size() + 1 && arg.compare(0, name.size(), name) == 0 &&
        arg[name.size()] == '=') {
      return std::atoi(arg.c_str() + name.size() + 1);
    }
  }
  return fallback;
}

/// Flat JSON metric sink for the CI bench-regression gate: hierarchical
/// string keys mapping to doubles, written as one sorted object. Enabled
/// by CLIPBB_BENCH_JSON=<path> (or --json <path> via EnableJsonFromArgs);
/// disabled it is a no-op. Deterministic counters (page reads, pool
/// misses, result totals) are the gated metrics — wall-clock values ride
/// along in the artifact but are too noisy to gate.
class JsonSink {
 public:
  static JsonSink& Get() {
    static JsonSink sink;
    return sink;
  }

  void Enable(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  void Put(const std::string& key, double value) {
    if (enabled()) kv_.emplace_back(key, value);
  }

  /// Writes the collected metrics; returns false on I/O failure (also
  /// reported on stderr so CI logs show it).
  bool Flush() {
    if (!enabled()) return true;
    std::sort(kv_.begin(), kv_.end());
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench json: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < kv_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.17g%s\n", kv_[i].first.c_str(),
                   kv_[i].second, i + 1 < kv_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    const bool ok = std::fclose(f) == 0;
    std::fprintf(stderr, "bench json: wrote %zu metrics to %s\n",
                 kv_.size(), path_.c_str());
    return ok;
  }

 private:
  std::vector<std::pair<std::string, double>> kv_;
  std::string path_;
};

/// Arms the sink from --json <path> or CLIPBB_BENCH_JSON.
inline void EnableJsonFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      JsonSink::Get().Enable(argv[i + 1]);
      return;
    }
  }
  const char* env = std::getenv("CLIPBB_BENCH_JSON");
  if (env && *env) JsonSink::Get().Enable(env);
}

inline void JsonPut(const std::string& key, double value) {
  JsonSink::Get().Put(key, value);
}

/// Emits a latency histogram's percentiles into the JSON artifact under
/// `prefix`. The suffixes (.p50_ns/.p95_ns/.p99_ns/.max_ns/.samples) are
/// deliberately OUTSIDE the bench_check gated sets (.page_reads/.misses
/// regression-gated, .results/.visits/.hits/.checksum exactness-gated):
/// wall-clock distributions ride along as new informational keys and can
/// never fail the gate.
inline void JsonPutHistogram(const std::string& prefix,
                             const obs::Histogram& h) {
  if (h.count() == 0) return;
  JsonPut(prefix + ".p50_ns", static_cast<double>(h.Percentile(0.50)));
  JsonPut(prefix + ".p95_ns", static_cast<double>(h.Percentile(0.95)));
  JsonPut(prefix + ".p99_ns", static_cast<double>(h.Percentile(0.99)));
  JsonPut(prefix + ".max_ns", static_cast<double>(h.max()));
  JsonPut(prefix + ".samples", static_cast<double>(h.count()));
}

/// Frame budget of the cold 10 % buffer pool the paged rows of Fig. 11
/// and Fig. 15 query through: a tenth of the tree's node pages, at least
/// 16. Counted in node pages rather than file section pages, because a
/// clipped tree's clip-spill pages must not buy it more frames than its
/// unclipped twin.
template <int D>
size_t ColdPoolPages(const rtree::RTree<D>& tree) {
  return std::max<size_t>(16, tree.NumNodes() / 10);
}

/// Scratch file path for benches that exercise the paged storage engine
/// (fig11, fig15). Unique per process; callers remove it when done.
inline std::string BenchTempFile(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir && *dir ? dir : "/tmp";
  if (path.back() != '/') path += '/';
  path += "clipbb_bench_" + stem + "_" + std::to_string(::getpid()) +
          ".pages";
  return path;
}

}  // namespace clipbb::bench

#endif  // CLIPBB_BENCH_COMMON_H_
