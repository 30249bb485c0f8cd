// Fig. 15: query time on the scaled-up synthetic datasets with the index
// larger than memory. The paper uses 2^30 objects on a 500 GB HDD; we use
// 2^20 objects (CLIPBB_SCALE multiplies). Each tree is serialized to a page
// file and queried disk-resident through PagedRTree, behind a cold LRU
// buffer pool holding 10 % of the tree's node pages (ColdPoolPages in
// common.h: clipped and unclipped trees get the same frame budget). "page
// reads" are physical preads through the pool and the time is measured;
// the "8 ms/miss model" column is the paper's cold-disk cost model, page
// reads × 8 ms per query.
//
// Reported: average per-query time for HR-tree and RR*-tree, unclipped vs
// CSKY vs CSTA, under the paper-faithful workload schedule and the
// Hilbert-ordered batch schedule (pool misses are order-dependent, so the
// locality win is its own row, never mixed into the paper numbers).
//
// With --threads=N an extra "paged-mtN" row runs the same batch
// through SpatialEngine::ExecuteBatch (rtree/query_api.h) over an
// N-way-sharded buffer pool with N workers — the "heavy traffic, many
// cores, disk-resident" scenario. The
// pool is sized to hold the section (no evictions), so each distinct page
// faults exactly once no matter how the workers interleave: per-query
// counts AND summed page reads must match the single-threaded run
// exactly, and the bench exits nonzero on any divergence (this is the CI
// parity gate for the concurrent pool).
#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"

namespace clipbb::bench {
namespace {

constexpr double kMissMillis = 8.0;  // 7200RPM-class random read
constexpr int kQueriesPerProfile = 200;

unsigned g_threads = 1;  // >1 adds the multithreaded paged rows

// Observability ride-along, armed from the environment (CLIPBB_TRACE_*,
// CLIPBB_METRICS_OUT). Unarmed — the default, and the bench-regression
// baseline — the engine stays on its pre-obs fast path and every gated
// counter is byte-identical. Armed, the mt rows run instrumented and the
// bench self-checks the metrics snapshot against the summed IoStats of
// the same run, exiting nonzero on any divergence.
bool g_obs = false;
std::unique_ptr<obs::TraceCollector> g_traces;
rtree::EngineMetrics g_engine_metrics;

template <int D>
void RunTree(const std::string& dataset, const char* label,
             rtree::RTree<D>& tree,
             const std::vector<workload::QueryWorkload<D>>& profiles,
             Table* t) {
  // One paged dump per tree configuration; every profile/schedule run
  // below starts with a cleared (cold) pool over the same file.
  const std::string paged_path = BenchTempFile(dataset + "_fig15");
  rtree::PagedRTree<D> paged;
  typename rtree::PagedRTree<D>::OpenOptions opts;
  opts.pool_pages = ColdPoolPages<D>(tree);
  if (!rtree::WritePagedTree<D>(tree, paged_path) ||
      !paged.Open(paged_path, opts)) {
    std::fprintf(stderr, "fig15: cannot write/open paged index at %s\n",
                 paged_path.c_str());
    std::remove(paged_path.c_str());
    std::exit(1);
  }
  // Second handle for the multithreaded rows: sharded pool sized to hold
  // the whole file so physical reads are interleaving-independent (see
  // the file comment).
  rtree::PagedRTree<D> paged_mt;
  if (g_threads > 1) {
    typename rtree::PagedRTree<D>::OpenOptions mopts;
    // Capacity is split per shard, so size every SHARD to hold the whole
    // file — hash skew across stripes must never force an eviction, or
    // the parity gate below would depend on worker interleaving.
    mopts.pool_pages =
        (paged.superblock().num_section_pages + 8) * g_threads;
    mopts.pool_shards = g_threads;
    if (!paged_mt.Open(paged_path, mopts)) {
      std::fprintf(stderr, "fig15: cannot open paged index (mt) at %s\n",
                   paged_path.c_str());
      std::exit(1);
    }
  }
  for (size_t p = 0; p < profiles.size(); ++p) {
    // Warm nothing: start cold, let the pool cache hot paths like the OS
    // page cache in the paper's setup.
    std::vector<uint32_t> input_order(profiles[p].queries.size());
    std::iota(input_order.begin(), input_order.end(), 0u);
    const std::vector<uint32_t> workload_order = std::move(input_order);
    const std::vector<uint32_t> hilbert_order =
        rtree::HilbertQueryOrder<D>(tree.bounds(), profiles[p].queries);
    for (const auto* sched : {&workload_order, &hilbert_order}) {
      const char* sched_name =
          sched == &workload_order ? "workload" : "hilbert";
      const std::string json_base = "fig15/" + dataset + "/" + label + "/" +
                                    workload::kQueryProfiles[p] + "/" +
                                    sched_name;
      std::vector<size_t> counts_st(profiles[p].queries.size(), 0);
      {
        paged.pool().Clear();  // cold start
        rtree::TraversalScratch scratch;
        scratch.Reserve(paged.Height(), paged.max_entries());
        storage::IoStats io;
        Timer timer;
        size_t results = 0;
        for (uint32_t qi : *sched) {
          counts_st[qi] =
              paged.RangeCount(profiles[p].queries[qi], &io, &scratch);
          results += counts_st[qi];
        }
        const double total_ms = timer.ElapsedSeconds() * 1e3;
        t->AddRow({dataset, label, workload::kQueryProfiles[p], sched_name,
                   "paged", Table::Fixed(total_ms / kQueriesPerProfile, 3),
                   Table::Fixed(static_cast<double>(io.page_reads) *
                                    kMissMillis / kQueriesPerProfile,
                                1),
                   Table::Int(static_cast<long long>(io.page_reads)),
                   Table::Int(static_cast<long long>(io.page_writes)),
                   Table::Fixed(static_cast<double>(results) /
                                    kQueriesPerProfile,
                                1)});
        JsonPut(json_base + "/paged.page_reads",
                static_cast<double>(io.page_reads));
        JsonPut(json_base + "/paged.results",
                static_cast<double>(results));
        JsonPut(json_base + "/paged.avg_query_ms",
                total_ms / kQueriesPerProfile);
      }
      if (g_threads > 1) {
        const rtree::SpatialEngine<D> engine_mt(paged_mt);
        rtree::QueryBatchOptions bopts;
        bopts.hilbert_order = sched == &hilbert_order;
        // Deterministic reference on the same no-evict pool layout.
        paged_mt.pool().Clear();
        bopts.threads = 1;
        const rtree::QueryBatchResult ref = engine_mt.ExecuteBatch(
            std::span<const geom::Rect<D>>(profiles[p].queries), bopts);
        paged_mt.pool().Clear();
        bopts.threads = g_threads;
        if (g_obs) {
          engine_mt.SetMetrics(&g_engine_metrics);
          engine_mt.SetTraces(g_traces.get());
        }
        const uint64_t obs_q0 =
            g_engine_metrics.queries(rtree::QueryKind::kIntersects);
        Timer timer;
        const rtree::QueryBatchResult mt = engine_mt.ExecuteBatch(
            std::span<const geom::Rect<D>>(profiles[p].queries), bopts);
        const double total_ms = timer.ElapsedSeconds() * 1e3;
        engine_mt.SetMetrics(nullptr);
        engine_mt.SetTraces(nullptr);
        size_t results = 0;
        for (size_t qi = 0; qi < mt.counts.size(); ++qi) {
          results += mt.counts[qi];
        }
        // Parity gate: same per-query counts as both single-threaded
        // paths, and exactly the single-threaded physical read count.
        if (mt.counts != ref.counts || mt.counts != counts_st ||
            mt.io.page_reads != ref.io.page_reads || paged_mt.io_error()) {
          std::fprintf(stderr,
                       "fig15: --threads=%u parity mismatch (%s/%s/%s/%s): "
                       "mt reads %llu vs st %llu\n",
                       g_threads, dataset.c_str(), label,
                       workload::kQueryProfiles[p], sched_name,
                       static_cast<unsigned long long>(mt.io.page_reads),
                       static_cast<unsigned long long>(ref.io.page_reads));
          std::exit(1);
        }
        if (g_obs) {
          // Metrics/IoStats consistency gate: the flight recorder must
          // agree exactly with the per-thread-summed IoStats of the run
          // it observed — per-kind query count, pool pin totals (each
          // logical node access is one pin; misses are the physical
          // reads), and WAL syncs (none on the read path).
          const uint64_t obs_queries =
              g_engine_metrics.queries(rtree::QueryKind::kIntersects) -
              obs_q0;
          const uint64_t pins =
              paged_mt.pool().hits() + paged_mt.pool().misses();
          const uint64_t logical =
              mt.io.internal_accesses + mt.io.leaf_accesses;
          if (obs_queries != mt.counts.size() || pins != logical ||
              paged_mt.pool().misses() != mt.io.page_reads ||
              paged_mt.wal().stats().syncs != mt.io.wal_syncs) {
            std::fprintf(
                stderr,
                "fig15: obs consistency mismatch (%s/%s/%s/%s): "
                "queries %llu vs %zu, pins %llu vs logical %llu, "
                "misses %llu vs reads %llu, wal syncs %llu vs %llu\n",
                dataset.c_str(), label, workload::kQueryProfiles[p],
                sched_name, static_cast<unsigned long long>(obs_queries),
                mt.counts.size(), static_cast<unsigned long long>(pins),
                static_cast<unsigned long long>(logical),
                static_cast<unsigned long long>(paged_mt.pool().misses()),
                static_cast<unsigned long long>(mt.io.page_reads),
                static_cast<unsigned long long>(
                    paged_mt.wal().stats().syncs),
                static_cast<unsigned long long>(mt.io.wal_syncs));
            std::exit(1);
          }
          paged_mt.PublishMetrics(obs::MetricsRegistry::Global());
        }
        t->AddRow({dataset, label, workload::kQueryProfiles[p], sched_name,
                   "paged-mt" + std::to_string(g_threads),
                   Table::Fixed(total_ms / kQueriesPerProfile, 3), "-",
                   Table::Int(static_cast<long long>(mt.io.page_reads)),
                   Table::Int(static_cast<long long>(mt.io.page_writes)),
                   Table::Fixed(static_cast<double>(results) /
                                    kQueriesPerProfile,
                                1)});
        JsonPut(json_base + "/paged_mt.page_reads",
                static_cast<double>(mt.io.page_reads));
        JsonPut(json_base + "/paged_mt.results",
                static_cast<double>(results));
        JsonPut(json_base + "/paged_mt.avg_query_ms",
                total_ms / kQueriesPerProfile);
      }
    }
  }
  if (paged.io_error()) {
    std::fprintf(stderr, "fig15: %s/%s paged rows are partial (I/O error)\n",
                 dataset.c_str(), label);
  }
  paged_mt.Close();
  paged.Close();
  std::remove(paged_path.c_str());
}

void RunDataset(const std::string& name) {
  const size_t n = ScaledCount(1u << 20);
  workload::Dataset2 data2;
  workload::Dataset3 data3;
  Table t({"dataset", "index", "profile", "sched", "mode", "avg query ms",
           "8 ms/miss model ms", "page reads", "page writes",
           "avg results"});
  auto run_all = [&](auto& data) {
    using DataT = std::decay_t<decltype(data)>;
    constexpr int D = std::is_same_v<DataT, workload::Dataset2> ? 2 : 3;
    std::vector<workload::QueryWorkload<D>> profiles;
    for (double target : workload::kQueryTargets) {
      profiles.push_back(
          workload::MakeQueries<D>(data, target, kQueriesPerProfile));
    }
    for (rtree::Variant v :
         {rtree::Variant::kHilbert, rtree::Variant::kRRStar}) {
      auto tree = Build<D>(v, data);
      RunTree<D>(data.name, tree->Name(), *tree, profiles, &t);
      tree->EnableClipping(core::ClipConfig<D>::Sky());
      RunTree<D>(data.name, (std::string("CSKY-") + tree->Name()).c_str(),
                 *tree, profiles, &t);
      tree->EnableClipping(core::ClipConfig<D>::Sta());
      RunTree<D>(data.name, (std::string("CSTA-") + tree->Name()).c_str(),
                 *tree, profiles, &t);
    }
  };
  if (name == "par02") {
    data2 = workload::MakePar02(n);
    run_all(data2);
  } else {
    data3 = workload::MakePar03(n);
    run_all(data3);
  }
  std::string title = "Fig 15 — scaled-up " + name +
                      " (disk-resident, cold pool of 10 % of node pages)";
  if (g_threads > 1) {
    title += " [mt rows: " + std::to_string(g_threads) +
             " workers, sharded pool, parity-gated]";
  }
  PrintHeader(title);
  t.Print();
}

void Run() {
  RunDataset("par02");
  RunDataset("par03");
}

/// Flushes the observability artifacts after the tables: the metrics
/// exposition to CLIPBB_METRICS_OUT, the sampled traces as Chrome
/// trace-event JSON to CLIPBB_TRACE_OUT (default clipbb_trace.json), and
/// the end-to-end latency percentiles into the bench JSON (informational
/// suffixes — never gated).
bool FlushObs() {
  if (!g_obs) return true;
  g_engine_metrics.PublishTo(obs::MetricsRegistry::Global(), "paged");
  JsonPutHistogram("fig15/obs/query_intersects",
                   g_engine_metrics.query_ns[static_cast<int>(
                       rtree::QueryKind::kIntersects)]);
  JsonPutHistogram("fig15/obs/batch", g_engine_metrics.batch_ns);
  bool ok = true;
  if (const char* mout = std::getenv("CLIPBB_METRICS_OUT");
      mout != nullptr && *mout != '\0') {
    const std::string text = obs::MetricsRegistry::Global().RenderText();
    std::FILE* f = std::fopen(mout, "w");
    ok = f != nullptr &&
         std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f != nullptr) ok = (std::fclose(f) == 0) && ok;
    if (!ok) std::fprintf(stderr, "fig15: cannot write %s\n", mout);
  }
  if (g_traces != nullptr) {
    const char* tout = std::getenv("CLIPBB_TRACE_OUT");
    const std::string path =
        tout != nullptr && *tout != '\0' ? tout : "clipbb_trace.json";
    if (!g_traces->WriteChromeTrace(path)) {
      std::fprintf(stderr, "fig15: cannot write %s\n", path.c_str());
      ok = false;
    } else {
      std::fprintf(stderr, "fig15: wrote %llu sampled traces to %s\n",
                   static_cast<unsigned long long>(g_traces->recorded()),
                   path.c_str());
    }
  }
  return ok;
}

}  // namespace
}  // namespace clipbb::bench

int main(int argc, char** argv) {
  const int threads =
      clipbb::bench::IntFlag(argc, argv, "--threads", 1);
  clipbb::bench::g_threads =
      threads > 1 ? static_cast<unsigned>(threads) : 1;
  clipbb::bench::EnableJsonFromArgs(argc, argv);
  clipbb::bench::g_traces = clipbb::obs::TraceCollector::FromEnv();
  const char* mout = std::getenv("CLIPBB_METRICS_OUT");
  clipbb::bench::g_obs = clipbb::bench::g_traces != nullptr ||
                         (mout != nullptr && *mout != '\0');
  clipbb::bench::Run();
  bool ok = clipbb::bench::FlushObs();
  ok = clipbb::bench::JsonSink::Get().Flush() && ok;
  return ok ? 0 : 1;
}
