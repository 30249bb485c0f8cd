// bench_paged: the repository benchmark for the disk-resident clipped
// R-tree. One binary, four workloads over the same seeded inputs — par03,
// 2^19 objects, a CSTA-clipped HR-tree bulk-loaded on 95 % of them, 30,000
// QR0/QR1/QR2 intersects windows:
//
//   cold_range     1 client; read-only open, default pool (10 % of the
//                  pages, the Fig. 15 cold pool); intersects via Execute.
//   warm_mixed     4 clients; pool 1.25 x pages over 4 shards, warmed at
//                  set-up; 80 % intersects / 10 % contains-point / 10 % kNN.
//   writer_churn   1 client; read-write open, commit_every 16; alternating
//                  insert / delete, one intersects query after every 4th.
//   follower_tail  writer open loop at 300 updates/s (commit_every 1,
//                  checkpoint every 2,000); an in-process follower advanced
//                  by one refresher thread; 2 closed-loop reader clients.
//
// Each run measures for --seconds, checks every answer it can (see the
// workloads), and prints one metric line per number followed by the JSON
// result line. --trace 1 adds a second pass on a fresh open that runs
// window queries through the layer-timing twin (twin.h) and reports the
// per-layer metrics instead of the end-to-end ones. README.md has the
// metric tables and the layer -> end-to-end map.
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "harness.h"
#include "rtree/factory.h"
#include "twin.h"

namespace clipbb::bench::paged {
namespace {

constexpr int kSetupReps = 5;
constexpr size_t kCheckWindows = 200;
constexpr int kWarmClients = 4;
constexpr int kFollowerReaders = 2;
constexpr double kFollowRate = 300.0;
constexpr size_t kCheckpointEvery = 2000;
constexpr int kMaxStaleRetries = 1000;
constexpr size_t kWalReplaySyncs = 1100;
constexpr size_t kPageReplays = 4096;

using OpenMode = Tree::OpenMode;

/// What one query did, for the traced-vs-untraced parity check.
struct QueryRecord {
  uint64_t results = 0, reads = 0, leaf = 0, internal = 0, contributing = 0,
           clip = 0;
  bool operator==(const QueryRecord&) const = default;
};

QueryRecord Record(size_t n, const storage::IoStats& io) {
  return {n,
          io.page_reads,
          io.leaf_accesses,
          io.internal_accesses,
          io.contributing_leaf_accesses,
          io.clip_accesses};
}

/// In-memory answers, computed during set-up before the tree is freed.
struct Refs {
  std::vector<size_t> counts;                            // per window / spec
  std::vector<std::vector<rtree::KnnNeighbor<D>>> knn;  // per kNN spec
};

bool SameNeighbors(const std::vector<rtree::KnnNeighbor<D>>& a,
                   const std::vector<rtree::KnnNeighbor<D>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].dist2 != b[i].dist2) return false;
  }
  return true;
}

/// The end-to-end numbers of one untraced pass.
struct PassStats {
  Timeline query;  // query latencies
  Timeline op;     // primary-operation latencies (see AddE2E)
  storage::IoStats query_io;
  uint64_t attempted = 0, failed = 0;

  explicit PassStats(uint64_t start_ns = 0, double seconds = 1)
      : query(start_ns, seconds), op(start_ns, seconds) {}
};

/// A traced pass: layer accounting, plus the write-path and replica calls,
/// each timed whole, that are reported per layer.
struct TracedStats {
  LayerStats measured;   // queries of the measured phase
  LayerStats warm;       // set-up pins of a fresh open (warm_mixed)
  std::vector<Span> spans;
  std::vector<PageImage> images;  // sampled missed pages
  ReplayStats replay;             // CRC / encode timed on `images`
  uint64_t pool_evictions = 0;
  uint64_t ops = 0;  // queries + updates of the pass
  uint64_t updates = 0, pages_staged = 0, wal_bytes = 0, writebacks = 0;
  uint64_t wal_appends = 0, wal_syncs = 0;
  Samples update_ns, sync_call_ns, checkpoint_ns;
  Samples refresh_ns, rebase_ns;
  uint64_t apply_ns = 0, apply_windows = 0;  // refreshes without a rebase
  uint64_t late_max_ns = 0;                  // open-loop writer
  uint64_t refreshes = 0, windows = 0, attempts = 0, stale = 0;
  uint64_t live_deltas_max = 0, retained_max = 0;

  /// Merges one client's probe into the pass totals.
  void Absorb(Probe& p) {
    measured += p.stats;
    spans.insert(spans.end(), p.spans.begin(), p.spans.end());
    for (PageImage& img : p.images) images.push_back(std::move(img));
  }

  /// Write-path counters of `t` since `w0`/`wb0`/`bytes0`.
  void AddWriter(Tree& t, const storage::WalStats& w0, uint64_t wb0,
                 uint64_t bytes0) {
    const storage::WalStats w1 = t.wal().stats();
    wal_appends += w1.appends - w0.appends;
    wal_syncs += w1.syncs - w0.syncs;
    pages_staged += (w1.appends - w0.appends) - (w1.commits - w0.commits);
    wal_bytes += t.update_io().wal_bytes - bytes0;
    writebacks += t.pool().writebacks() - wb0;
  }
};

struct Run {
  Args args;
  Inputs in;
  Report rep;
  double gen_s = 0;
  std::string base, pristine, scratch_wal, trace_path;
  Samples setup_ns;
  Refs refs;
  double peak_rss = 0;
};

// ------------------------------------------------------------------ set-up

std::unique_ptr<rtree::RTree<D>> EmptyHrTree(const Run& r) {
  return rtree::MakeRTree<D>(rtree::Variant::kHilbert, r.in.bulk.domain);
}

/// kSetupReps complete set-ups, each timed: bulk load + CSTA clipping +
/// WritePagedTree + `open` (which also covers a warm pass or a follower
/// open). The last one stays open for the measured pass. `with_tree` runs
/// untimed on the last rep while the in-memory tree still exists.
void TimedSetup(Run& r, const std::function<bool()>& open,
                const std::function<void()>& close,
                const std::function<void(const rtree::RTree<D>&)>& with_tree) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) close();
    const uint64_t t0 = NowNs();
    auto tree = rtree::BuildTree<D>(rtree::Variant::kHilbert, r.in.bulk.items,
                                    r.in.bulk.domain);
    tree->EnableClipping(core::ClipConfig<D>::Sta(), 4);
    if (!rtree::WritePagedTree<D>(*tree, r.base)) {
      r.rep.Fail("cannot write " + r.base);
      return;
    }
    const uint64_t t1 = NowNs();
    if (rep + 1 == kSetupReps) {
      with_tree(*tree);
      if (!CopyFile(r.base, r.pristine)) r.rep.Fail("cannot copy page file");
    }
    const uint64_t t2 = NowNs();
    tree.reset();
    if (!open()) {
      r.rep.Fail("cannot open " + r.base);
      return;
    }
    r.setup_ns.Add((t1 - t0) + (NowNs() - t2));
  }
  ResetPeakRss();
}

void WindowRefs(Run& r, const rtree::RTree<D>& tree) {
  rtree::QueryBatchOptions o;
  o.threads = 4;
  r.refs.counts = rtree::SpatialEngine<D>(tree)
                      .ExecuteBatch(std::span<const Rect>(r.in.windows), o)
                      .counts;
}

void MixedRefs(Run& r, const rtree::RTree<D>& tree) {
  const rtree::SpatialEngine<D> mem(tree);
  rtree::QueryBatchOptions o;
  o.threads = 4;
  r.refs.counts = mem.ExecuteBatch(std::span<const Spec>(r.in.mixed), o).counts;
  r.refs.knn.assign(r.in.mixed.size(), {});
  for (size_t i = 0; i < r.in.mixed.size(); ++i) {
    if (r.in.mixed[i].kind != rtree::QueryKind::kKnn) continue;
    rtree::KnnHeapSink<D> sink(&r.refs.knn[i]);
    mem.Execute(r.in.mixed[i], &sink);
  }
}

/// Puts back the page file as set-up wrote it, with no log, for the traced
/// pass of a workload whose measured pass wrote to it.
bool RestorePristine(const Run& r) {
  std::error_code ec;
  std::filesystem::remove(rtree::WalPathFor(r.base), ec);
  return CopyFile(r.pristine, r.base);
}

uint64_t SectionPages(const std::string& path) {
  rtree::Superblock sb{};
  std::ifstream(path, std::ios::binary)
      .read(reinterpret_cast<char*>(&sb), sizeof sb);
  return sb.num_section_pages;
}

/// Pins every section page once (the warm pass), timing each miss into
/// `p` when given.
void WarmPool(Tree& t, Probe* p) {
  const int64_t pages = static_cast<int64_t>(t.superblock().num_section_pages);
  if (p) p->page_size = t.superblock().file_page_size;
  for (int64_t fid = 1; fid <= pages; ++fid) {
    storage::BufferPool::PinIo io;
    const uint64_t a0 = p ? p->Now() : 0;
    const std::byte* bytes = t.pool().Pin(fid, &io);
    if (p && bytes && io.reads > 0) {
      ++p->stats.pin_misses;
      p->stats.pin_miss_ns += p->Now() - a0;
      p->SampleMiss(fid, bytes);
    }
    if (bytes) t.pool().Unpin(fid, false, 0, &io);
  }
}

// ----------------------------------------------------------------- metrics

std::string SliceNote(const Timeline& t) {
  return CountNote(t.size()) + ", median of " +
         std::to_string(Timeline::kSlices) + " slices";
}

/// The end-to-end metrics of an untraced pass. Rates and medians are the
/// median over the pass's time slices; a p99 is taken over all samples, so
/// periodic stalls (a checkpoint, a rebase) stay in the tail.
void AddE2E(Run& r, PassStats& s) {
  Report& rep = r.rep;
  rep.attempted += s.attempted;
  rep.failed += s.failed;
  const uint64_t nq = std::max<uint64_t>(1, s.query.size());
  rep.e2e.push_back({"query_qps", s.query.RatePerS(), "1/s",
                     SliceNote(s.query)});
  rep.e2e.push_back({"query_p50_us", s.query.MedianNs() / 1e3, "us",
                     SliceNote(s.query)});
  rep.e2e.push_back({"query_p99_us", s.query.All().PercentileNs(0.99) / 1e3,
                     "us", CountNote(s.query.size())});
  rep.e2e.push_back({"leaf_reads_per_query",
                     static_cast<double>(s.query_io.leaf_accesses) / nq,
                     "count", CountNote(s.query.size())});
  rep.e2e.push_back({"ops_per_s", s.op.RatePerS(), "1/s", SliceNote(s.op)});
  rep.e2e.push_back({"op_p50_us", s.op.MedianNs() / 1e3, "us",
                     SliceNote(s.op)});
  rep.e2e.push_back({"op_p99_us", s.op.All().PercentileNs(0.99) / 1e3, "us",
                     CountNote(s.op.size())});
  rep.e2e.push_back({"peak_rss_mb", r.peak_rss, "MiB",
                     "VmHWM of the measured pass"});
  rep.e2e.push_back({"setup_s", r.setup_ns.PercentileNs(0.50) / 1e9, "s",
                     "median of " + std::to_string(r.setup_ns.size())});
  rep.info.push_back({"pool.page_reads_per_query",
                      static_cast<double>(s.query_io.page_reads) / nq,
                      "count", "physical reads (pool misses) per query"});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ClockCostNs() {
  constexpr int kReads = 200'000;
  uint64_t sink = 0;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < kReads; ++i) sink += NowNs();
  return (NowNs() - t0 + (sink & 1)) / static_cast<double>(kReads);
}

/// Per-layer metrics of a traced pass on `tree` (still open) against the
/// untraced query mean.
void AddLayers(Run& r, TracedStats& t, Tree& tree, double untraced_mean_ns) {
  t.replay = ReplayPages(tree, t.images, kPageReplays);
  const LayerStats& m = t.measured;
  LayerStats all = t.measured;
  all += t.warm;
  std::vector<Metric>& out = r.rep.layer;
  const double q = static_cast<double>(m.queries);
  const double miss_us = Ratio(all.pin_miss_ns, all.pin_misses) / 1e3;
  const double crc_us = t.replay.crc_ns.MeanNs() / 1e3;
  out.push_back({"pool.pin_hit_ns", Ratio(m.pin_hit_ns, m.pin_hits), "ns",
                 CountNote(m.pin_hits)});
  out.push_back({"pool.pin_miss_us", miss_us, "us",
                 CountNote(all.pin_misses)});
  out.push_back({"pool.hit_ratio",
                 Ratio(m.pin_hits, m.pin_hits + m.pin_misses), "ratio",
                 CountNote(m.pin_hits + m.pin_misses)});
  out.push_back({"pool.misses_per_query", Ratio(m.pin_misses, q), "count",
                 CountNote(m.queries)});
  out.push_back({"pool.evictions_per_op", Ratio(t.pool_evictions, t.ops),
                 "count", CountNote(t.ops)});
  out.push_back({"pool.read_retries", static_cast<double>(m.read_retries),
                 "count", "bounded re-reads of a failed page read"});
  out.push_back({"pool.writebacks_per_update",
                 Ratio(t.writebacks, t.updates), "count",
                 CountNote(t.updates)});
  out.push_back({"file.pread_us", all.pin_misses ? miss_us - crc_us : 0.0,
                 "us", "pin miss minus the CRC replay"});
  out.push_back({"page.crc_verify_us", crc_us, "us",
                 CountNote(t.replay.crc_ns.size()) + " replays"});
  out.push_back({"page.decode_scan_ns", Ratio(m.decode_ns, m.decode), "ns",
                 CountNote(m.decode)});
  out.push_back({"page.encode_us", t.replay.encode_ns.MeanNs() / 1e3, "us",
                 CountNote(t.replay.encode_ns.size()) + " replays"});
  out.push_back({"clip.prune_ns", Ratio(m.clip_ns, m.clip_checks), "ns",
                 CountNote(m.clip_checks)});
  out.push_back({"clip.checks_per_query", Ratio(m.clip_checks, q), "count",
                 CountNote(m.queries)});
  out.push_back({"clip.prune_ratio", Ratio(m.clip_pruned, m.clip_checks),
                 "ratio", "clip-pruned / passed the MBB test"});
  out.push_back({"traverse.nodes_per_query", Ratio(m.nodes, q), "count",
                 CountNote(m.queries)});
  out.push_back({"traverse.leaf_per_query", Ratio(m.leaves, q), "count",
                 CountNote(m.queries)});
  out.push_back({"traverse.contributing_leaf_ratio",
                 Ratio(m.contributing, m.leaves), "ratio",
                 CountNote(m.leaves)});
  const double children = static_cast<double>(m.pin_hit_ns) + m.pin_miss_ns +
                          m.decode_ns + m.clip_ns + m.epoch_pin_ns;
  out.push_back({"traverse.self_us", Ratio(m.query_ns - children, q) / 1e3,
                 "us", "query span minus its child spans"});
  out.push_back({"knn.call_us", Ratio(m.call_ns, m.calls) / 1e3, "us",
                 CountNote(m.calls)});

  out.push_back({"update.call_us", t.update_ns.MeanNs() / 1e3, "us",
                 CountNote(t.update_ns.size())});
  out.push_back({"update.sync_call_us", t.sync_call_ns.MeanNs() / 1e3, "us",
                 CountNote(t.sync_call_ns.size()) + " calls that ran a sync"});
  out.push_back({"update.pages_staged", Ratio(t.pages_staged, t.updates),
                 "count", CountNote(t.updates)});
  out.push_back({"wal.bytes_per_update", Ratio(t.wal_bytes, t.updates),
                 "bytes", CountNote(t.updates)});
  out.push_back({"wal.records_per_sync", Ratio(t.wal_appends, t.wal_syncs),
                 "count", CountNote(t.wal_syncs)});
  Samples append_ns, sync_ns;
  if (!ReplayWal(r.scratch_wal, t.images, kWalReplaySyncs, &append_ns,
                 &sync_ns)) {
    r.rep.Fail("scratch WAL replay failed");
  }
  out.push_back({"wal.append_us", append_ns.MeanNs() / 1e3, "us",
                 CountNote(append_ns.size()) + " scratch-log replays"});
  out.push_back({"wal.sync_us_p50", sync_ns.PercentileNs(0.50) / 1e3, "us",
                 CountNote(sync_ns.size()) + " scratch-log replays"});
  out.push_back({"wal.sync_us_p99", sync_ns.PercentileNs(0.99) / 1e3, "us",
                 CountNote(sync_ns.size()) + " scratch-log replays"});
  out.push_back({"checkpoint_ms", t.checkpoint_ns.MeanNs() / 1e6, "ms",
                 CountNote(t.checkpoint_ns.size())});

  out.push_back({"replica.refresh_us_p50",
                 t.refresh_ns.PercentileNs(0.5) / 1e3, "us",
                 CountNote(t.refresh_ns.size())});
  out.push_back({"replica.refresh_us_p99",
                 t.refresh_ns.PercentileNs(0.99) / 1e3, "us",
                 CountNote(t.refresh_ns.size())});
  out.push_back({"replica.windows_per_refresh",
                 Ratio(t.windows, t.refreshes), "count",
                 CountNote(t.refreshes)});
  out.push_back({"replica.apply_us_per_window",
                 Ratio(t.apply_ns, t.apply_windows) / 1e3, "us",
                 CountNote(t.apply_windows)});
  out.push_back({"replica.rebase_ms", t.rebase_ns.MeanNs() / 1e6, "ms",
                 CountNote(t.rebase_ns.size())});
  out.push_back({"replica.stale_read_ratio", Ratio(t.stale, t.attempts),
                 "ratio", CountNote(t.attempts)});
  out.push_back({"epoch.pin_ns", Ratio(all.epoch_pin_ns, all.epoch_pins),
                 "ns", CountNote(all.epoch_pins)});
  out.push_back({"epoch.retained_kib_max", t.retained_max / 1024.0, "KiB",
                 "follower epoch chain"});
  out.push_back({"epoch.live_deltas_max",
                 static_cast<double>(t.live_deltas_max), "count",
                 "follower epoch chain"});

  // The span clock reads are the tracing's own cost, not any layer's.
  const double traced_queries = m.queries + m.calls;
  const double overhead_ns =
      Ratio(ClockCostNs() * m.clock_reads, traced_queries);
  const double layer_sum_ns =
      Ratio(m.query_ns + m.call_ns, traced_queries) - overhead_ns;
  const double pct = 100.0 * Ratio(layer_sum_ns, untraced_mean_ns);
  out.push_back({"reconcile.layer_sum_pct", pct, "%",
                 "sum of layer self-times (net of span clock reads) / "
                 "untraced query mean"});
  if (pct < 85.0 || pct > 115.0) {
    r.rep.info.push_back(
        {"reconcile.residual_us", (layer_sum_ns - untraced_mean_ns) / 1e3,
         "us", "per query: traced pass vs untraced mean not accounted for "
               "by the layers"});
  }
  out.push_back({"harness.trace_overhead_pct",
                 100.0 * Ratio(overhead_ns, untraced_mean_ns), "%",
                 "span clock reads per query x their cost"});
  out.push_back({"harness.writer_late_max_ms", t.late_max_ns / 1e6, "ms",
                 "open-loop writer: latest start past its due time"});
  out.push_back({"harness.gen_s", r.gen_s, "s", "input generation"});

  if (!t.spans.empty() && !WriteChromeTrace(r.trace_path, t.spans)) {
    r.rep.Fail("cannot write " + r.trace_path);
  }
  r.rep.info.push_back({"trace.spans", static_cast<double>(t.spans.size()),
                        "count", r.trace_path});
}

Probe MakeProbe(const Tree& t, uint32_t tid) {
  Probe p;
  p.tid = tid;
  p.page_size = t.superblock().file_page_size;
  return p;
}

void CheckParity(Run& r, const std::vector<QueryRecord>& untraced,
                 size_t n_untraced, const std::vector<QueryRecord>& traced,
                 size_t n_traced) {
  const size_t n = std::min({n_untraced, n_traced, untraced.size()});
  size_t mismatches = 0;
  for (size_t i = 0; i < n; ++i) mismatches += !(untraced[i] == traced[i]);
  r.rep.info.push_back({"twin.parity_queries", static_cast<double>(n),
                        "count", "per-query results, reads, leaf/internal/"
                                 "clip accesses equal the untraced pass"});
  if (mismatches > 0) {
    r.rep.failed += mismatches;
    r.rep.Fail("twin parity: " + std::to_string(mismatches) + " of " +
               std::to_string(n) + " queries differ from the untraced pass");
  }
}

// -------------------------------------------------------------- cold_range

void ColdRange(Run& r) {
  auto t = std::make_unique<Tree>();
  TimedSetup(
      r, [&] { return t->Open(r.base); }, [&] { t->Close(); },
      [&](const rtree::RTree<D>& tree) { WindowRefs(r, tree); });
  if (!r.rep.correct) return;
  const size_t n = r.in.windows.size();

  std::vector<QueryRecord> recs(n);
  rtree::TraversalScratch sc;
  sc.Reserve(t->Height(), t->max_entries());
  PassStats s;
  size_t i = 0;
  {
    const rtree::SpatialEngine<D> eng(*t);
    const uint64_t start = NowNs();
    const uint64_t deadline =
        start + static_cast<uint64_t>(r.args.seconds * 1e9);
    s = PassStats(start, r.args.seconds);
    for (uint64_t now = start; now < deadline; ++i) {
      storage::IoStats io;
      storage::Status st;
      const Spec spec = Spec::Intersects(r.in.windows[i % n]);
      const uint64_t t0 = NowNs();
      const size_t got = eng.Execute(spec, nullptr, &io, &sc, &st);
      now = NowNs();
      s.query.Add(now, now - t0);
      s.query_io += io;
      if (i < n) recs[i] = Record(got, io);
      s.failed += !st.ok() || got != r.refs.counts[i % n];
    }
  }
  s.attempted = i;
  s.op = s.query;
  r.peak_rss = PeakRssMib();
  const double untraced_mean = s.query.All().MeanNs();
  AddE2E(r, s);
  if (!r.args.trace) return;

  t->Close();
  t = std::make_unique<Tree>();
  if (!t->Open(r.base)) return r.rep.Fail("cannot reopen " + r.base);
  TracedStats ts;
  std::vector<QueryRecord> trecs(n);
  Probe p = MakeProbe(*t, 0);
  sc.Reserve(t->Height(), t->max_entries());
  const uint64_t ev0 = t->pool().evictions();
  const uint64_t traced_deadline =
      NowNs() + static_cast<uint64_t>(r.args.seconds * 1e9);
  size_t j = 0, wrong = 0;
  for (; NowNs() < traced_deadline; ++j) {
    storage::IoStats io;
    storage::Status st;
    const Spec spec = Spec::Intersects(r.in.windows[j % n]);
    const size_t got = TracedWindowQuery(*t, spec, false, &sc, &io, &st, &p, j);
    if (j < n) trecs[j] = Record(got, io);
    wrong += !st.ok() || got != r.refs.counts[j % n];
  }
  if (wrong) r.rep.Fail("traced cold_range: wrong answers");
  ts.pool_evictions = t->pool().evictions() - ev0;
  ts.ops = j;
  ts.Absorb(p);
  CheckParity(r, recs, i, trecs, j);
  AddLayers(r, ts, *t, untraced_mean);
}

// -------------------------------------------------------------- warm_mixed

/// One closed-loop client's results, merged after the join.
struct MixedClient {
  Timeline lat;
  storage::IoStats io;
  uint64_t failed = 0;
  uint64_t attempts = 0, stale = 0;  // follower reads and stale retries
  Probe probe;
};

void WarmMixed(Run& r) {
  auto t = std::make_unique<Tree>();
  Tree::OpenOptions opts;
  opts.pool_shards = kWarmClients;
  auto open = [&](Probe* warm) {
    opts.pool_pages = SectionPages(r.base) * 5 / 4;
    if (!t->Open(r.base, opts)) return false;
    WarmPool(*t, warm);
    return true;
  };
  TimedSetup(
      r, [&] { return open(nullptr); }, [&] { t->Close(); },
      [&](const rtree::RTree<D>& tree) { MixedRefs(r, tree); });
  if (!r.rep.correct) return;
  const size_t n = r.in.mixed.size();

  // One pass: kWarmClients closed-loop clients pulling spec indexes from a
  // shared counter (cycling over the specs) until the deadline. Every
  // taken index runs to completion, so indexes below the final counter
  // value all ran.
  auto pass = [&](bool traced, double seconds, std::vector<QueryRecord>* recs,
                  std::vector<MixedClient>* clients) {
    std::atomic<size_t> next{0};
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    for (MixedClient& c : *clients) c.lat = Timeline(start, seconds);
    const rtree::SpatialEngine<D> eng(*t);
    auto client = [&](int c) {
      MixedClient& me = (*clients)[c];
      rtree::TraversalScratch sc;
      sc.Reserve(t->Height(), t->max_entries());
      std::vector<rtree::KnnNeighbor<D>> nn;
      auto collect = [&nn](const rtree::KnnNeighbor<D>& x) { nn.push_back(x); };
      while (NowNs() < deadline) {
        const size_t i = next.fetch_add(1);
        const Spec& spec = r.in.mixed[i % n];
        const bool knn = spec.kind == rtree::QueryKind::kKnn;
        storage::IoStats io;
        storage::Status st;
        nn.clear();
        size_t got;
        const uint64_t t0 = NowNs();
        if (!traced) {
          rtree::KnnHeapSink<D> sink(&nn);
          got = eng.Execute(spec, knn ? &sink : nullptr, &io, &sc, &st);
        } else if (knn) {
          got = t->Knn(spec.point, spec.k, collect, &io, &st);
          const uint64_t t1 = NowNs();
          ++me.probe.stats.calls;
          me.probe.stats.call_ns += t1 - t0;
          me.probe.Begin(i);
          me.probe.Add("knn", t0, t1, 0);
        } else {
          got = TracedWindowQuery(*t, spec, false, &sc, &io, &st, &me.probe,
                                  i);
        }
        const uint64_t t1 = NowNs();
        me.lat.Add(t1, t1 - t0);
        me.io += io;
        if (i < n) (*recs)[i] = Record(got, io);
        me.failed += !st.ok() || got != r.refs.counts[i % n] ||
                     (knn && !SameNeighbors(nn, r.refs.knn[i % n]));
      }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < kWarmClients; ++c) threads.emplace_back(client, c);
    client(0);
    for (std::thread& th : threads) th.join();
    return next.load();
  };

  std::vector<QueryRecord> recs(n);
  std::vector<MixedClient> clients(kWarmClients);
  const uint64_t miss0 = t->pool().misses();
  const size_t count = pass(false, r.args.seconds, &recs, &clients);
  r.peak_rss = PeakRssMib();
  PassStats s;
  for (MixedClient& c : clients) {
    s.query.Merge(c.lat);
    s.query_io += c.io;
    s.failed += c.failed;
  }
  const uint64_t misses = t->pool().misses() - miss0;
  if (misses != 0) {
    r.rep.Fail("warm pool missed " + std::to_string(misses) + " times");
  }
  s.attempted = count;
  s.op = s.query;
  const double untraced_mean = s.query.All().MeanNs();
  AddE2E(r, s);
  if (!r.args.trace) return;

  // The fresh open warms through a probe: the warm pass is where this
  // workload's misses (and so its miss-path layers) happen.
  t->Close();
  t = std::make_unique<Tree>();
  Probe warm;
  if (!open(&warm)) return r.rep.Fail("cannot reopen " + r.base);
  TracedStats ts;
  std::vector<QueryRecord> trecs(n);
  std::vector<MixedClient> tclients(kWarmClients);
  for (int c = 0; c < kWarmClients; ++c) {
    tclients[c].probe = MakeProbe(*t, c);
  }
  const uint64_t ev0 = t->pool().evictions();
  const size_t tcount = pass(true, r.args.seconds, &trecs, &tclients);
  ts.pool_evictions = t->pool().evictions() - ev0;
  ts.ops = tcount;
  for (MixedClient& c : tclients) {
    ts.Absorb(c.probe);
    if (c.failed) r.rep.Fail("traced warm_mixed query wrong");
  }
  ts.warm = warm.stats;
  for (PageImage& img : warm.images) ts.images.push_back(std::move(img));
  CheckParity(r, recs, count, trecs, tcount);
  AddLayers(r, ts, *t, untraced_mean);
}

// ------------------------------------------------------------ writer_churn

/// The object set after the first `k` updates.
std::vector<Entry> LiveSet(const Inputs& in, size_t k) {
  std::unordered_set<rtree::ObjectId> deleted;
  std::vector<Entry> live;
  for (size_t u = 0; u < k; ++u) {
    if (in.updates[u].insert) {
      live.push_back(in.updates[u].e);
    } else {
      deleted.insert(in.updates[u].e.id);
    }
  }
  for (const Entry& e : in.bulk.items) {
    if (!deleted.count(e.id)) live.push_back(e);
  }
  return live;
}

struct UpdateCall {
  bool ok;
  uint64_t start, end;
};

/// One update on the writer, timed whole into `ts` (and into its sync
/// calls when the call ran a WAL sync).
UpdateCall TimedUpdate(Tree& t, const Inputs::Update& up, TracedStats* ts) {
  const uint64_t syncs0 = t.wal().stats().syncs;
  UpdateCall c;
  c.start = NowNs();
  c.ok = up.insert ? t.Insert(up.e.rect, up.e.id)
                   : t.Delete(up.e.rect, up.e.id);
  c.end = NowNs();
  ts->update_ns.Add(c.end - c.start);
  if (t.wal().stats().syncs != syncs0) ts->sync_call_ns.Add(c.end - c.start);
  return c;
}

/// After Close(), a read-only reopen must answer kCheckWindows windows
/// exactly like a brute-force scan of the live object set.
void CheckReopen(Run& r, size_t updates_applied) {
  const std::vector<Entry> live = LiveSet(r.in, updates_applied);
  Tree ro;
  if (!ro.Open(r.base)) return r.rep.Fail("read-only reopen failed");
  const rtree::SpatialEngine<D> eng(ro);
  size_t bad = 0;
  for (size_t w = 0; w < kCheckWindows; ++w) {
    const Rect& q = r.in.windows[w];
    size_t brute = 0;
    for (const Entry& e : live) brute += e.rect.Intersects(q);
    storage::Status st;
    bad += eng.Execute(Spec::Intersects(q), nullptr, nullptr, nullptr, &st) !=
               brute ||
           !st.ok();
  }
  if (bad) {
    r.rep.failed += bad;
    r.rep.Fail("reopened file: " + std::to_string(bad) + " of " +
               std::to_string(kCheckWindows) + " windows differ from a "
               "brute-force scan");
  }
}

void WriterChurn(Run& r) {
  constexpr size_t kCommitEvery = 16;
  auto t = std::make_unique<Tree>();
  Tree::OpenOptions opts;
  opts.mode = OpenMode::kReadWrite;
  opts.commit_every = kCommitEvery;
  auto open = [&] { return t->Open(r.base, opts, EmptyHrTree(r)); };
  TimedSetup(r, open, [&] { t->Close(); }, [](const rtree::RTree<D>&) {});
  if (!r.rep.correct) return;
  const size_t n = r.in.windows.size();

  // Closed loop: an update per iteration, one intersects query on the
  // writer after every 4th, until the deadline; then a final checkpoint.
  // The primary operation is a commit group — kCommitEvery updates, the
  // last of which runs the WAL fdatasync — timed as the sum of its update
  // calls. (A single update's p99 is the fdatasync tail of the disk; on a
  // shared 4-vCPU VM its quartile spread over 10 seeds reached 0.26.)
  auto pass = [&](double seconds, Probe* p, TracedStats* ts) {
    const rtree::SpatialEngine<D> eng(*t);
    rtree::TraversalScratch sc;
    const storage::WalStats wal0 = t->wal().stats();
    const uint64_t wb0 = t->pool().writebacks(), ev0 = t->pool().evictions();
    const uint64_t bytes0 = t->update_io().wal_bytes;
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    PassStats s(start, seconds);
    uint64_t now = start, group_ns = 0;
    size_t u = 0, q = 0;
    for (; u < r.in.updates.size() && now < deadline; ++u) {
      const UpdateCall call = TimedUpdate(*t, r.in.updates[u], ts);
      now = call.end;
      group_ns += call.end - call.start;
      if ((u + 1) % kCommitEvery == 0) {
        s.op.Add(call.end, group_ns);
        group_ns = 0;
      }
      s.failed += !call.ok;
      if ((u + 1) % 4 != 0) continue;
      sc.Reserve(t->Height(), t->max_entries());
      const Spec spec = Spec::Intersects(r.in.windows[q % n]);
      storage::IoStats io;
      storage::Status st;
      const uint64_t q0 = NowNs();
      if (p) {
        TracedWindowQuery(*t, spec, false, &sc, &io, &st, p, q);
      } else {
        eng.Execute(spec, nullptr, &io, &sc, &st);
      }
      now = NowNs();
      s.query.Add(now, now - q0);
      s.query_io += io;
      s.failed += !st.ok();
      ++q;
    }
    s.attempted = u + q;
    ts->updates = u;
    ts->ops = u + q;
    ts->AddWriter(*t, wal0, wb0, bytes0);
    ts->pool_evictions = t->pool().evictions() - ev0;
    const uint64_t c0 = NowNs();
    if (!t->Checkpoint()) r.rep.Fail("final checkpoint failed");
    ts->checkpoint_ns.Add(NowNs() - c0);
    return s;
  };

  TracedStats counts;
  PassStats s = pass(r.args.seconds, nullptr, &counts);
  r.peak_rss = PeakRssMib();
  if (!t->Close()) r.rep.Fail("writer close failed");
  CheckReopen(r, counts.updates);
  const double untraced_mean = s.query.All().MeanNs();
  r.rep.info.push_back({"update_p50_us",
                        counts.update_ns.PercentileNs(0.5) / 1e3, "us",
                        CountNote(counts.update_ns.size()) + " update calls"});
  r.rep.info.push_back({"update_p99_us",
                        counts.update_ns.PercentileNs(0.99) / 1e3, "us",
                        CountNote(counts.update_ns.size()) + " update calls"});
  r.rep.info.push_back({"wal_bytes_per_update",
                        Ratio(counts.wal_bytes, counts.updates), "bytes",
                        CountNote(counts.updates)});
  AddE2E(r, s);
  if (!r.args.trace) return;

  t = std::make_unique<Tree>();
  if (!RestorePristine(r) || !open()) {
    return r.rep.Fail("cannot reopen the writer");
  }
  TracedStats ts;
  Probe p = MakeProbe(*t, 0);
  if (pass(r.args.seconds, &p, &ts).failed) {
    r.rep.Fail("traced writer_churn operation failed");
  }
  ts.Absorb(p);
  AddLayers(r, ts, *t, untraced_mean);
  if (!t->Close()) r.rep.Fail("writer close failed");
}

// ----------------------------------------------------------- follower_tail

struct TailPass {
  PassStats s;
  Samples due_ns;  // writer updates, timed from their due time
  TracedStats ts;
};

void FollowerTail(Run& r) {
  auto writer = std::make_unique<Tree>();
  auto follower = std::make_unique<Tree>();
  Tree::OpenOptions wo, fo;
  wo.mode = OpenMode::kReadWrite;
  wo.commit_every = 1;
  fo.mode = OpenMode::kFollow;
  fo.pool_shards = kFollowerReaders;
  auto open = [&] {
    return writer->Open(r.base, wo, EmptyHrTree(r)) &&
           follower->Open(r.base, fo);
  };
  auto close = [&] {
    follower->Close();
    writer->Close();
  };
  TimedSetup(r, open, close, [](const rtree::RTree<D>&) {});
  if (!r.rep.correct) return;
  const size_t n = r.in.windows.size();

  auto pass = [&](double seconds, bool traced) {
    TailPass tp;
    PassStats& s = tp.s;
    TracedStats& ts = tp.ts;
    const size_t n_updates = std::min(
        r.in.updates.size(), static_cast<size_t>(seconds * kFollowRate));
    const uint64_t base_seq = writer->last_committed_op();
    const uint64_t bytes0 = writer->update_io().wal_bytes;
    const storage::WalStats wal0 = writer->wal().stats();
    const uint64_t wb0 = writer->pool().writebacks();
    const uint64_t ev0 =
        writer->pool().evictions() + follower->pool().evictions();
    // Readers size their scratch here: the follower's cached shape is the
    // refresher's to update once the threads run.
    const int height0 = follower->Height(), fanout = follower->max_entries();
    std::vector<uint64_t> ack(n_updates, 0);      // writer thread
    std::vector<uint64_t> visible(n_updates, 0);  // refresher thread
    std::atomic<bool> stop_readers{false}, stop_refresh{false};
    size_t cursor = 0;  // refresher: updates known visible

    auto mark_visible = [&](uint64_t when) {
      const uint64_t applied = follower->last_committed_op();
      while (cursor < n_updates && base_seq + cursor + 1 <= applied) {
        visible[cursor++] = when;
      }
    };
    auto refresher = [&] {
      uint64_t wins = follower->replica_windows_applied();
      uint64_t rebases = follower->replica_rebases();
      while (!stop_refresh.load()) {
        const uint64_t r0 = NowNs();
        follower->Refresh();
        const uint64_t r1 = NowNs();
        ts.refresh_ns.Add(r1 - r0);
        const uint64_t w = follower->replica_windows_applied();
        const uint64_t b = follower->replica_rebases();
        ts.windows += w - wins;
        if (b != rebases) {
          ts.rebase_ns.Add(r1 - r0);
        } else if (w != wins) {
          ts.apply_ns += r1 - r0;
          ts.apply_windows += w - wins;
        }
        ++ts.refreshes;
        const bool idle = w == wins && b == rebases;
        wins = w;
        rebases = b;
        mark_visible(r1);
        const storage::EpochStats es = follower->EpochChainStats();
        ts.live_deltas_max = std::max(ts.live_deltas_max, es.live_deltas);
        ts.retained_max = std::max(ts.retained_max, es.retained_bytes);
        if (idle) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };

    std::atomic<size_t> next{0};
    std::vector<MixedClient> readers(kFollowerReaders);
    for (int c = 0; c < kFollowerReaders; ++c) {
      readers[c].probe = MakeProbe(*follower, c);
    }
    const rtree::SpatialEngine<D> feng(*follower);
    auto reader = [&](int c) {
      MixedClient& me = readers[c];
      rtree::TraversalScratch sc;
      sc.Reserve(height0 + 2, fanout);
      while (!stop_readers.load()) {
        const size_t i = next.fetch_add(1);
        const Spec spec = Spec::Intersects(r.in.windows[i % n]);
        storage::IoStats io;
        storage::Status st;
        const uint64_t t0 = NowNs();
        for (int a = 0; a <= kMaxStaleRetries; ++a) {
          io = {};
          st = {};
          ++me.attempts;
          if (traced) {
            TracedWindowQuery(*follower, spec, true, &sc, &io, &st, &me.probe,
                              i);
          } else {
            feng.Execute(spec, nullptr, &io, &sc, &st);
          }
          if (st.kind != storage::ErrorKind::kStaleSnapshot) break;
          ++me.stale;
        }
        const uint64_t t1 = NowNs();
        me.lat.Add(t1, t1 - t0);
        me.io += io;
        me.failed += !st.ok();
      }
    };

    const uint64_t start = NowNs();
    s = PassStats(start, seconds);
    for (MixedClient& c : readers) c.lat = Timeline(start, seconds);
    std::thread refresh_thread(refresher);
    std::vector<std::thread> reader_threads;
    for (int c = 0; c < kFollowerReaders; ++c) {
      reader_threads.emplace_back(reader, c);
    }
    // Open loop: update k is due at start + k / rate and is timed from its
    // due time, so a stall also charges the updates queued behind it.
    const uint64_t period = static_cast<uint64_t>(1e9 / kFollowRate);
    const uint64_t give_up = start + static_cast<uint64_t>(2e9 * seconds);
    size_t k = 0;
    for (; k < n_updates; ++k) {
      const uint64_t due = start + k * period;
      SleepUntilNs(due);
      const uint64_t t0 = NowNs();
      if (t0 > give_up) {
        r.rep.Fail("writer fell more than a run behind its schedule");
        break;
      }
      ts.late_max_ns = std::max(ts.late_max_ns, t0 - due);
      const UpdateCall call = TimedUpdate(*writer, r.in.updates[k], &ts);
      ack[k] = call.end;
      tp.due_ns.Add(call.end - due);
      s.failed += !call.ok;
      if ((k + 1) % kCheckpointEvery == 0) {
        if (!writer->Checkpoint()) r.rep.Fail("writer checkpoint failed");
        ts.checkpoint_ns.Add(NowNs() - call.end);
      }
    }
    const uint64_t writer_end = NowNs();
    stop_readers.store(true);
    for (std::thread& th : reader_threads) th.join();
    stop_refresh.store(true);
    refresh_thread.join();

    // Catch up: the follower must reach the writer's last commit.
    writer->Commit();
    for (int tries = 0; tries < 1000 && cursor < k; ++tries) {
      follower->Refresh();
      mark_visible(NowNs());
      if (cursor < k) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (cursor < k) r.rep.Fail("follower never caught up with the writer");

    const double writer_s = (writer_end - start) / 1e9;
    const double rate = k / writer_s;
    if (rate < 0.95 * kFollowRate) {
      r.rep.Fail("writer achieved " + std::to_string(rate) +
                 " updates/s, below 95 % of the open-loop rate");
    }
    for (size_t u = 0; u < cursor; ++u) {
      s.op.Add(visible[u], visible[u] > ack[u] ? visible[u] - ack[u] : 0);
    }
    for (MixedClient& c : readers) {
      s.query.Merge(c.lat);
      s.query_io += c.io;
      s.failed += c.failed;
      ts.attempts += c.attempts;
      ts.stale += c.stale;
      ts.Absorb(c.probe);
    }
    const size_t queries = s.query.size();
    s.attempted = k + queries;
    ts.updates = k;
    ts.ops = k + queries;
    ts.AddWriter(*writer, wal0, wb0, bytes0);
    ts.pool_evictions =
        writer->pool().evictions() + follower->pool().evictions() - ev0;
    return tp;
  };

  // After the catch-up, the follower must answer like the writer and
  // report the same last committed operation.
  auto check_converged = [&] {
    const rtree::SpatialEngine<D> weng(*writer), feng(*follower);
    size_t bad = writer->last_committed_op() != follower->last_committed_op();
    for (size_t w = 0; w < kCheckWindows; ++w) {
      storage::Status ws, fs;
      const Spec spec = Spec::Intersects(r.in.windows[w]);
      bad += weng.Execute(spec, nullptr, nullptr, nullptr, &ws) !=
                 feng.Execute(spec, nullptr, nullptr, nullptr, &fs) ||
             !ws.ok() || !fs.ok();
    }
    if (bad) {
      r.rep.failed += bad;
      r.rep.Fail("follower diverged from the writer on " +
                 std::to_string(bad) + " checks");
    }
  };

  TailPass tp = pass(r.args.seconds, false);
  r.peak_rss = PeakRssMib();
  check_converged();
  const double untraced_mean = tp.s.query.All().MeanNs();
  Report& rep = r.rep;
  rep.info.push_back({"update_p50_us", tp.due_ns.PercentileNs(0.5) / 1e3,
                      "us", CountNote(tp.due_ns.size()) + " from due time"});
  rep.info.push_back({"update_p99_us", tp.due_ns.PercentileNs(0.99) / 1e3,
                      "us", CountNote(tp.due_ns.size()) + " from due time"});
  rep.info.push_back({"harness.writer_late_max_ms", tp.ts.late_max_ns / 1e6,
                      "ms", "latest start of an update past its due time"});
  rep.info.push_back({"wal_bytes_per_update",
                      Ratio(tp.ts.wal_bytes, tp.ts.updates),
                      "bytes", CountNote(tp.ts.updates)});
  AddE2E(r, tp.s);
  close();
  if (!r.args.trace) return;

  writer = std::make_unique<Tree>();
  follower = std::make_unique<Tree>();
  if (!RestorePristine(r) || !open()) {
    return r.rep.Fail("cannot reopen writer and follower");
  }
  TailPass tt = pass(r.args.seconds, true);
  if (tt.s.failed) r.rep.Fail("traced follower_tail operation failed");
  check_converged();
  AddLayers(r, tt.ts, *follower, untraced_mean);
  close();
}

int Main(int argc, char** argv) {
  Run r;
  if (!ParseArgs(argc, argv, &r.args)) {
    std::fprintf(stderr,
                 "usage: bench_paged --workload "
                 "cold_range|warm_mixed|writer_churn|follower_tail "
                 "[--seed N] [--seconds S] [--trace 0|1] [--workdir DIR] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const std::map<std::string, std::function<void(Run&)>> workloads = {
      {"cold_range", ColdRange},
      {"warm_mixed", WarmMixed},
      {"writer_churn", WriterChurn},
      {"follower_tail", FollowerTail}};
  const auto it = workloads.find(r.args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "bench_paged: unknown workload %s\n",
                 r.args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(r.args.workdir, ec);
  const std::string stem = r.args.workdir + "/" + r.args.workload;
  r.base = stem + ".pages";
  r.pristine = stem + ".pristine.pages";
  r.scratch_wal = stem + ".scratch.wal";
  r.trace_path = r.args.trace_out.empty() ? stem + ".trace.json"
                                          : r.args.trace_out;
  std::printf("# bench_paged workload=%s seed=%llu seconds=%g trace=%d\n",
              r.args.workload.c_str(),
              static_cast<unsigned long long>(r.args.seed), r.args.seconds,
              r.args.trace ? 1 : 0);

  const uint64_t g0 = NowNs();
  r.in = MakeInputs(r.args.seed);
  r.gen_s = (NowNs() - g0) / 1e9;
  it->second(r);
  for (const std::string& f : {r.base, r.pristine, rtree::WalPathFor(r.base),
                               rtree::WalPathFor(r.pristine)}) {
    std::filesystem::remove(f, ec);
  }
  r.rep.correct = r.rep.correct && r.rep.failed == 0;
  r.rep.Print(r.args.trace);
  return r.rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace clipbb::bench::paged

int main(int argc, char** argv) {
  return clipbb::bench::paged::Main(argc, argv);
}
