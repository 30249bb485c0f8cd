// clipbb command-line tool: generate datasets, build/persist (clipped)
// indexes, run queries, and inspect statistics — the end-to-end workflow a
// downstream user runs before writing any code.
//
//   clipbb_cli gen    <dataset> <n> <out.data>
//   clipbb_cli build  <variant> <none|sky|sta> <in.data> <out.idx>
//   clipbb_cli stats  <idx> <data>
//   clipbb_cli query  <idx> <data> lo1 lo2 [lo3] hi1 hi2 [hi3]
//   clipbb_cli pquery <idx> [--stats] [--follow] lo1 lo2 [lo3] hi1 hi2 [hi3]
//   clipbb_cli knn    <idx> <data> k p1 p2 [p3]
//   clipbb_cli scrub  <idx> [--wal]
//
// `pquery` answers the query disk-resident: the index file is opened as a
// page file and read through the buffer pool, so the printed I/O includes
// real page reads (everything else restores the tree fully into memory).
// With `--stats` it additionally dumps the full flight-recorder state
// after the query: the metrics registry in Prometheus text exposition
// (pool/WAL/engine counters, latency histograms) plus the structured
// event log. Setting CLIPBB_TRACE_SAMPLE also arms per-query tracing and
// writes a Chrome trace-event JSON to CLIPBB_TRACE_OUT (default
// clipbb_trace.json).
// With `--follow` the index is opened as a live read replica
// (OpenMode::kFollow): a writer in another process may hold the file
// read-write, and the query answers over the committed WAL prefix at the
// moment of the refresh.
// `scrub` verifies every page checksum, the structural bounds, and the
// free-page chain of a paged index offline (rtree/scrub.h); exit 0 means
// the whole file is intact. `scrub --wal` instead validates the sidecar
// `<idx>.wal` through the log reader recovery and followers share: CRC
// chain, commit framing, and the torn/uncommitted tail byte count
// recovery would discard.
//
// Datasets: par02 rea02 par03 rea03 axo03 den03 neu03.
// Variants: qr hr r* rr*.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "rtree/scrub.h"
#include "rtree/serialize.h"
#include "stats/node_stats.h"
#include "stats/storage_stats.h"
#include "stats/tree_report.h"
#include "storage/wal_scan.h"
#include "workload/dataset.h"
#include "workload/io.h"

namespace clipbb {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  clipbb_cli gen    <dataset> <n> <out.data>\n"
               "  clipbb_cli build  <qr|hr|r*|rr*> <none|sky|sta> <in.data> "
               "<out.idx>\n"
               "  clipbb_cli stats  <idx> <data>\n"
               "  clipbb_cli query  <idx> <data> lo... hi...\n"
               "  clipbb_cli pquery <idx> [--stats] [--follow] lo... hi...\n"
               "                    (disk-resident; --stats dumps the "
               "metrics registry + event log;\n"
               "                    --follow opens a live read replica of "
               "a writer in another process)\n"
               "  clipbb_cli knn    <idx> <data> <k> point...\n"
               "  clipbb_cli scrub  <idx> [--wal]       (verify checksums; "
               "--wal validates the sidecar log)\n");
  return 2;
}

void PrintResultIds(const std::vector<rtree::ObjectId>& ids) {
  for (size_t i = 0; i < ids.size() && i < 20; ++i) {
    std::printf("  id=%lld\n", static_cast<long long>(ids[i]));
  }
  if (ids.size() > 20) std::printf("  ... (%zu more)\n", ids.size() - 20);
}

bool ParseVariant(const std::string& s, rtree::Variant* v) {
  if (s == "qr") {
    *v = rtree::Variant::kGuttman;
  } else if (s == "hr") {
    *v = rtree::Variant::kHilbert;
  } else if (s == "r*") {
    *v = rtree::Variant::kRStar;
  } else if (s == "rr*") {
    *v = rtree::Variant::kRRStar;
  } else {
    return false;
  }
  return true;
}

// The superblock's user_tag holds the variant so `stats`/`query` can
// reconstruct the right tree class. The tag only steers update behaviour;
// the read path (pquery) is variant-agnostic and never looks at it.
template <int D>
std::unique_ptr<rtree::RTree<D>> LoadIndex(std::ifstream& in,
                                           const geom::Rect<D>& domain) {
  // Peek the tag, then rewind: MakeRTree needs the variant up front.
  rtree::Superblock sb;
  const auto start = in.tellg();
  if (!in.read(reinterpret_cast<char*>(&sb), sizeof sb)) return nullptr;
  in.seekg(start);
  auto tree = rtree::MakeRTree<D>(static_cast<rtree::Variant>(sb.user_tag),
                                  domain);
  if (!tree || !rtree::DeserializeTree<D>(in, tree.get())) return nullptr;
  return tree;
}

int CmdGen(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string name = argv[0];
  const size_t n = std::strtoull(argv[1], nullptr, 10);
  std::ofstream out(argv[2], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  const bool is2d = name == "par02" || name == "rea02";
  bool ok;
  if (is2d) {
    ok = workload::SaveDataset<2>(workload::MakeDataset2(name, n), out);
  } else {
    ok = workload::SaveDataset<3>(workload::MakeDataset3(name, n), out);
  }
  std::printf("wrote %s (%zu objects, %s)\n", argv[2], n,
              is2d ? "2d" : "3d");
  return ok ? 0 : 1;
}

template <int D>
int BuildAndSave(const std::string& variant_s, const std::string& mode,
                 std::ifstream& in, const char* out_path) {
  rtree::Variant v;
  if (!ParseVariant(variant_s, &v)) return Usage();
  workload::Dataset<D> data;
  if (!workload::LoadDataset<D>(in, &data)) {
    std::fprintf(stderr, "bad dataset file\n");
    return 1;
  }
  auto tree = rtree::BuildTree<D>(v, data.items, data.domain);
  if (mode == "sky") {
    tree->EnableClipping(core::ClipConfig<D>::Sky());
  } else if (mode == "sta") {
    tree->EnableClipping(core::ClipConfig<D>::Sta());
  } else if (mode != "none") {
    return Usage();
  }
  std::ofstream out(out_path, std::ios::binary);
  const size_t bytes =
      rtree::SerializeTree<D>(*tree, out, static_cast<uint32_t>(v));
  std::printf("%s over %zu objects: %zu nodes, height %d, %zu clip points, "
              "%.1f MiB index\n",
              tree->Name(), data.size(), tree->NumNodes(), tree->Height(),
              tree->clip_index().TotalClipPoints(),
              bytes / (1024.0 * 1024.0));
  return bytes > 0 ? 0 : 1;
}

template <int D>
int CmdStats(std::ifstream& idx, std::ifstream& dat) {
  workload::Dataset<D> data;
  if (!workload::LoadDataset<D>(dat, &data)) return 1;
  auto tree = LoadIndex<D>(idx, data.domain);
  if (!tree) {
    std::fprintf(stderr, "bad index file\n");
    return 1;
  }
  stats::SpaceOptions opts;
  opts.max_nodes = 512;
  if (D == 3) opts.mc_samples = 4096;
  const auto space = stats::MeasureSpace<D>(*tree, opts);
  const auto storage = stats::MeasureStorage<D>(*tree);
  std::printf("%s: %zu objects, %zu nodes, height %d\n", tree->Name(),
              tree->NumObjects(), tree->NumNodes(), tree->Height());
  std::printf("dead space/node: %.1f%%\n",
              100.0 * space.avg_dead_fraction);
  std::printf("storage: dir %.1f%%, leaf %.1f%%, clips %.2f%% "
              "(%.1f clips/node)\n",
              100.0 * storage.dir_bytes / storage.TotalBytes(),
              100.0 * storage.leaf_bytes / storage.TotalBytes(),
              100.0 * storage.ClipFraction(),
              storage.AvgClipPointsPerNode());
  std::printf("\n%s", stats::FormatTreeReport<D>(*tree).c_str());
  return 0;
}

template <int D>
int CmdQuery(std::ifstream& idx, std::ifstream& dat, int argc, char** argv) {
  if (argc != 2 * D) return Usage();
  workload::Dataset<D> data;
  if (!workload::LoadDataset<D>(dat, &data)) return 1;
  auto tree = LoadIndex<D>(idx, data.domain);
  if (!tree) return 1;
  geom::Rect<D> q;
  for (int i = 0; i < D; ++i) q.lo[i] = std::atof(argv[i]);
  for (int i = 0; i < D; ++i) q.hi[i] = std::atof(argv[D + i]);
  const rtree::SpatialEngine<D> engine(*tree);
  std::vector<rtree::ObjectId> ids;
  rtree::CollectIds<D> sink(&ids);
  storage::IoStats io;
  engine.Execute(rtree::QuerySpec<D>::Intersects(q), &sink, &io);
  std::printf("%zu results\n  io: %s\n", ids.size(),
              stats::FormatIoStats(io).c_str());
  PrintResultIds(ids);
  return 0;
}

template <int D>
int CmdPagedQuery(const char* idx_path, bool stats, bool follow, int argc,
                  char** argv) {
  if (argc != 2 * D) return Usage();
  rtree::PagedRTree<D> tree;
  typename rtree::PagedRTree<D>::OpenOptions opts;
  if (follow) opts.mode = rtree::PagedRTree<D>::OpenMode::kFollow;
  if (!tree.Open(idx_path, opts)) {
    std::fprintf(stderr, "cannot open %s as a paged index\n", idx_path);
    return 1;
  }
  if (follow) {
    // Catch up with whatever the writer committed since the open: one
    // explicit refresh tails the WAL and republishes the latest epoch.
    storage::Status rstatus;
    if (!tree.Refresh(&rstatus)) {
      std::fprintf(stderr, "refresh failed: %s\n", rstatus.kind_name());
      return 1;
    }
    const uint64_t fast = tree.replica_fast_rebases();
    std::printf("following %s: applied lsn %llu, %llu windows applied, "
                "%llu rebases (%llu fast, %llu full)\n",
                idx_path,
                static_cast<unsigned long long>(tree.replica_applied_lsn()),
                static_cast<unsigned long long>(tree.replica_windows_applied()),
                static_cast<unsigned long long>(tree.replica_rebases()),
                static_cast<unsigned long long>(fast),
                static_cast<unsigned long long>(tree.replica_rebases() - fast));
  }
  geom::Rect<D> q;
  for (int i = 0; i < D; ++i) q.lo[i] = std::atof(argv[i]);
  for (int i = 0; i < D; ++i) q.hi[i] = std::atof(argv[D + i]);
  const rtree::SpatialEngine<D> engine(tree);
  rtree::EngineMetrics metrics;
  const std::unique_ptr<obs::TraceCollector> traces =
      obs::TraceCollector::FromEnv();
  if (stats) engine.SetMetrics(&metrics);
  if (traces) engine.SetTraces(traces.get());
  std::vector<rtree::ObjectId> ids;
  rtree::CollectIds<D> sink(&ids);
  storage::IoStats io;
  storage::Status status;
  engine.Execute(rtree::QuerySpec<D>::Intersects(q), &sink, &io,
                 /*scratch=*/nullptr, &status);
  engine.SetMetrics(nullptr);
  engine.SetTraces(nullptr);
  if (!status.ok()) {
    std::fprintf(stderr,
                 "error: %s at file page %lld; traversal truncated, "
                 "results are partial\n",
                 status.kind_name(), static_cast<long long>(status.page));
  }
  std::printf("%zu results, disk-resident (%zu node pages, pool %zu "
              "frames)\n  io: %s\n",
              ids.size(), tree.NumNodes(), tree.pool().capacity(),
              stats::FormatIoStats(io).c_str());
  const storage::BufferPool& pool = tree.pool();
  std::printf("  pool: %llu hits, %llu misses, %llu evictions, "
              "%zu quarantined, high water %llu/%zu frames, %u shard%s\n",
              static_cast<unsigned long long>(pool.hits()),
              static_cast<unsigned long long>(pool.misses()),
              static_cast<unsigned long long>(pool.evictions()),
              pool.quarantined_pages(),
              static_cast<unsigned long long>(pool.frames_high_water()),
              pool.capacity(), pool.shards(),
              pool.shards() == 1 ? "" : "s");
  PrintResultIds(ids);
  if (stats) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    tree.PublishMetrics(registry);
    metrics.PublishTo(registry, "paged");
    std::printf("\n--- metrics ---\n%s", registry.RenderText().c_str());
    const std::string events = obs::EventLog::Global().RenderText();
    if (!events.empty()) {
      std::printf("--- events ---\n%s", events.c_str());
    }
  }
  if (traces) {
    const char* out = std::getenv("CLIPBB_TRACE_OUT");
    const std::string path = out && *out ? out : "clipbb_trace.json";
    if (traces->WriteChromeTrace(path)) {
      std::fprintf(stderr, "trace: %llu sampled spans written to %s\n",
                   static_cast<unsigned long long>(traces->recorded()),
                   path.c_str());
    } else {
      std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    }
  }
  return status.ok() ? 0 : 1;
}

template <int D>
int CmdScrub(const char* idx_path) {
  rtree::ScrubReport rep;
  const bool ok = rtree::ScrubPagedFile<D>(idx_path, &rep);
  if (!rep.opened) {
    std::fprintf(stderr, "cannot read %s as a paged index\n", idx_path);
    return 1;
  }
  std::printf("%s: %llu section pages (%llu nodes, %llu spill, %llu "
              "free)\n",
              idx_path, static_cast<unsigned long long>(rep.pages_scanned),
              static_cast<unsigned long long>(rep.node_pages),
              static_cast<unsigned long long>(rep.spill_pages),
              static_cast<unsigned long long>(rep.free_pages));
  std::printf("superblock %s, free chain %s, counts %s\n",
              rep.superblock_ok ? "ok" : "DAMAGED",
              rep.free_chain_ok ? "ok" : "DAMAGED",
              rep.counts_ok ? "ok" : "MISMATCH");
  if (rep.read_failures || rep.checksum_failures ||
      rep.structure_failures) {
    std::printf("damage: %llu unreadable, %llu checksum, %llu structural\n",
                static_cast<unsigned long long>(rep.read_failures),
                static_cast<unsigned long long>(rep.checksum_failures),
                static_cast<unsigned long long>(rep.structure_failures));
    for (const auto& e : rep.errors) {
      std::printf("  %s at file page %lld\n", e.kind_name(),
                  static_cast<long long>(e.page));
    }
  }
  std::printf("%s\n", ok ? "clean" : "CORRUPT");
  return ok ? 0 : 1;
}

// Offline WAL validation: one count-only poll of the log tailer
// (storage/wal_scan.h) — the reader that recovery and a tailing replica
// also run, so scrub cannot disagree with them about the committed
// prefix.
int CmdScrubWal(const char* idx_path) {
  const std::string wal_path = rtree::WalPathFor(idx_path);
  storage::WalScrubReport rep;
  if (!storage::ScrubWalFile(wal_path, &rep)) {
    std::fprintf(stderr, "cannot read %s\n", wal_path.c_str());
    return 1;
  }
  if (!rep.log_found) {
    std::printf("%s: no log (clean — nothing to replay)\n",
                wal_path.c_str());
    return 0;
  }
  std::printf("%s: %llu bytes, page size %u, header %s\n", wal_path.c_str(),
              static_cast<unsigned long long>(rep.file_bytes), rep.page_size,
              rep.header_ok ? "ok" : "DAMAGED");
  if (rep.header_ok) {
    std::printf("committed: %llu windows (%llu page images, %llu records), "
                "last op %llu, max lsn %llu\n",
                static_cast<unsigned long long>(rep.commit_windows),
                static_cast<unsigned long long>(rep.pages_imaged),
                static_cast<unsigned long long>(rep.records_scanned),
                static_cast<unsigned long long>(rep.last_op_seq),
                static_cast<unsigned long long>(rep.max_lsn));
    std::printf("tail: %llu bytes past the last commit (%llu pending "
                "records) — recovery would discard these\n",
                static_cast<unsigned long long>(rep.tail_bytes),
                static_cast<unsigned long long>(rep.pending_records));
  }
  std::printf("%s\n", rep.ok() ? "clean" : "CORRUPT");
  return rep.ok() ? 0 : 1;
}

template <int D>
int CmdKnn(std::ifstream& idx, std::ifstream& dat, int argc, char** argv) {
  if (argc != 1 + D) return Usage();
  workload::Dataset<D> data;
  if (!workload::LoadDataset<D>(dat, &data)) return 1;
  auto tree = LoadIndex<D>(idx, data.domain);
  if (!tree) return 1;
  const int k = std::atoi(argv[0]);
  geom::Vec<D> p;
  for (int i = 0; i < D; ++i) p[i] = std::atof(argv[1 + i]);
  const rtree::SpatialEngine<D> engine(*tree);
  std::vector<rtree::KnnNeighbor<D>> res;
  rtree::KnnHeapSink<D> sink(&res);
  storage::IoStats io;
  engine.Execute(rtree::QuerySpec<D>::Knn(p, k), &sink, &io);
  std::printf("%zu neighbours, %llu node accesses\n", res.size(),
              static_cast<unsigned long long>(io.TotalAccesses()));
  for (const auto& r : res) {
    std::printf("  id=%lld dist=%.6g\n", static_cast<long long>(r.id),
                std::sqrt(r.dist2));
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "build") {
    if (argc != 6) return Usage();
    std::ifstream in(argv[4], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[4]);
      return 1;
    }
    const int dim = workload::PeekDatasetDimension(in);
    if (dim == 2) return BuildAndSave<2>(argv[2], argv[3], in, argv[5]);
    if (dim == 3) return BuildAndSave<3>(argv[2], argv[3], in, argv[5]);
    std::fprintf(stderr, "bad dataset file\n");
    return 1;
  }
  if (cmd == "pquery") {
    if (argc < 3) return Usage();
    // Filter the flags out of the coordinate arguments.
    bool stats = false;
    bool follow = false;
    std::vector<char*> rest;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--stats") == 0) {
        stats = true;
      } else if (std::strcmp(argv[i], "--follow") == 0) {
        follow = true;
      } else {
        rest.push_back(argv[i]);
      }
    }
    rtree::Superblock sb;
    std::ifstream idx(argv[2], std::ios::binary);
    if (!idx || !idx.read(reinterpret_cast<char*>(&sb), sizeof sb) ||
        sb.magic != rtree::kPagedMagic) {
      std::fprintf(stderr, "bad index file\n");
      return 1;
    }
    const int n = static_cast<int>(rest.size());
    if (sb.dim == 2) {
      return CmdPagedQuery<2>(argv[2], stats, follow, n, rest.data());
    }
    if (sb.dim == 3) {
      return CmdPagedQuery<3>(argv[2], stats, follow, n, rest.data());
    }
    std::fprintf(stderr, "bad index dimension\n");
    return 1;
  }
  if (cmd == "scrub") {
    if (argc != 3 && argc != 4) return Usage();
    if (argc == 4) {
      if (std::strcmp(argv[3], "--wal") != 0) return Usage();
      return CmdScrubWal(argv[2]);
    }
    rtree::Superblock sb;
    std::ifstream idx(argv[2], std::ios::binary);
    if (!idx || !idx.read(reinterpret_cast<char*>(&sb), sizeof sb) ||
        sb.magic != rtree::kPagedMagic) {
      std::fprintf(stderr, "bad index file\n");
      return 1;
    }
    if (sb.dim == 2) return CmdScrub<2>(argv[2]);
    if (sb.dim == 3) return CmdScrub<3>(argv[2]);
    std::fprintf(stderr, "bad index dimension\n");
    return 1;
  }
  if (cmd == "stats" || cmd == "query" || cmd == "knn") {
    if (argc < 4) return Usage();
    std::ifstream idx(argv[2], std::ios::binary);
    std::ifstream dat(argv[3], std::ios::binary);
    if (!idx || !dat) {
      std::fprintf(stderr, "cannot open inputs\n");
      return 1;
    }
    const int dim = workload::PeekDatasetDimension(dat);
    if (dim == 0) {
      std::fprintf(stderr, "bad dataset file\n");
      return 1;
    }
    if (cmd == "stats") {
      return dim == 2 ? CmdStats<2>(idx, dat) : CmdStats<3>(idx, dat);
    }
    if (cmd == "query") {
      return dim == 2 ? CmdQuery<2>(idx, dat, argc - 4, argv + 4)
                      : CmdQuery<3>(idx, dat, argc - 4, argv + 4);
    }
    return dim == 2 ? CmdKnn<2>(idx, dat, argc - 4, argv + 4)
                    : CmdKnn<3>(idx, dat, argc - 4, argv + 4);
  }
  return Usage();
}

}  // namespace
}  // namespace clipbb

int main(int argc, char** argv) { return clipbb::Main(argc, argv); }
