// Layer split of a paged window query, measured from outside the engine.
//
// TwinWindow is a twin of PagedRTree's window traversal built only from
// public calls — pool Pin/Unpin (or the snapshot copy-out path on a
// follower), DecodeNodePage, IntersectsAll, clip_index().Get /
// EpochManager::FindClips, ClipsPruneQuery — with a span at every layer
// boundary. It visits the same nodes in the same order as the engine, so
// its results and counters must equal an untraced Execute of the same
// query on the same pool state; the workloads check that.
//
// Self time of a layer = its span minus its child spans. The query span's
// children are the pins (hit or miss), decode + IntersectsAll, and clip
// checks; what remains is traversal self time (stack, mask walk, result
// emission). The twin also keeps a sample of the pages its pins faulted
// in; after the pass, ReplayPages times on them the CRC verify the pool
// ran inside each miss and the node encode the write path runs for such a
// page. Replaying after the pass, not inline, keeps the traced pass's
// cache and lock behaviour that of the untraced one.
//
// The twin copies private engine code: PagedRTree's TraverseWindowOver,
// LatestSource, SnapshotSource and ValidPage (rtree/paged_rtree.h). A
// change to the engine's window traversal, page validation or follower
// LSN gate must update the twin in the same change, or every traced run
// fails its parity check. Exposing TraverseWindowOver (already templated
// over its page source) with a probe hook would let the bench wrap the
// engine's own sources and drop this copy.
#ifndef CLIPBB_BENCH_PAGED_TWIN_H_
#define CLIPBB_BENCH_PAGED_TWIN_H_

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "rtree/page_format.h"
#include "storage/wal.h"

namespace clipbb::bench::paged {

/// Per-client layer accounting, merged after the join.
struct LayerStats {
  uint64_t queries = 0, query_ns = 0;  // twin window queries
  uint64_t calls = 0, call_ns = 0;     // whole-call queries (kNN)
  uint64_t pin_hits = 0, pin_hit_ns = 0;
  uint64_t pin_misses = 0, pin_miss_ns = 0, read_retries = 0;
  uint64_t decode = 0, decode_ns = 0;
  uint64_t clip_checks = 0, clip_ns = 0, clip_pruned = 0;
  uint64_t nodes = 0, leaves = 0, contributing = 0;
  uint64_t epoch_pins = 0, epoch_pin_ns = 0;
  uint64_t clock_reads = 0;  // inside query spans

  LayerStats& operator+=(const LayerStats& o) {
    queries += o.queries, query_ns += o.query_ns;
    calls += o.calls, call_ns += o.call_ns;
    pin_hits += o.pin_hits, pin_hit_ns += o.pin_hit_ns;
    pin_misses += o.pin_misses, pin_miss_ns += o.pin_miss_ns;
    read_retries += o.read_retries;
    decode += o.decode, decode_ns += o.decode_ns;
    clip_checks += o.clip_checks, clip_ns += o.clip_ns;
    clip_pruned += o.clip_pruned;
    nodes += o.nodes, leaves += o.leaves, contributing += o.contributing;
    epoch_pins += o.epoch_pins, epoch_pin_ns += o.epoch_pin_ns;
    clock_reads += o.clock_reads;
    return *this;
  }
};

struct Span {
  const char* name;
  uint64_t t0, dur;
  uint32_t id, parent;  // parent 0 = root
  uint32_t tid;
  uint64_t query;
};

/// A page a pin faulted in, kept for the after-pass replays.
struct PageImage {
  storage::PageId fid;
  std::vector<std::byte> bytes;
};

/// One client's tracing state: aggregates for every query, full span trees
/// for every 100th, and a bounded sample of the pages its misses read.
struct Probe {
  static constexpr uint64_t kSpanEvery = 100;
  static constexpr size_t kImages = 256;
  static constexpr uint64_t kImageEvery = 16;  // sample one miss in 16

  uint32_t tid = 0;
  size_t page_size = 0;
  LayerStats stats;
  std::vector<Span> spans;
  std::vector<PageImage> images;
  uint64_t misses_seen = 0;

  // Per-query span state (active when the query is sampled).
  bool sampled = false;
  uint64_t query = 0;
  uint32_t next_id = 1, root = 0;

  uint64_t Now() {
    ++stats.clock_reads;
    return NowNs();
  }
  uint32_t Begin(uint64_t query_index) {
    query = query_index;
    sampled = query_index % kSpanEvery == 0;
    root = next_id++;
    return root;
  }
  void Add(const char* name, uint64_t t0, uint64_t t1, uint32_t parent,
           uint32_t id = 0) {
    if (!sampled) return;
    spans.push_back({name, t0, t1 - t0, id ? id : next_id++, parent, tid,
                     query});
  }
  void SampleMiss(storage::PageId fid, const std::byte* bytes) {
    if (misses_seen++ % kImageEvery == 0 && images.size() < kImages) {
      images.push_back({fid, {bytes, bytes + page_size}});
    }
  }
};

// ------------------------------------------------------------ page sources

/// The unpinned (latest) path: pool pins and the live clip table.
struct LatestTwin {
  Tree* t;
  storage::BufferPool::PinIo* io;
  int64_t root() const { return t->superblock().root_page; }
  uint64_t section_pages() const {
    return t->superblock().num_section_pages;
  }
  bool clipped() const { return t->clipping_enabled(); }
  const std::byte* Acquire(storage::PageId fid, storage::Status* st) {
    return t->pool().Pin(fid, io, st);
  }
  void Release(storage::PageId fid) { t->pool().Unpin(fid, false, 0, io); }
  std::span<const core::ClipPoint<D>> Clips(int64_t node) {
    return t->clip_index().Get(node);
  }
};

/// A pinned epoch (every follower query): the pre-image chain first, then a
/// latched copy of the pool frame, a chain re-check, and the follower's
/// applied-LSN gate — the engine's snapshot read path, step for step.
struct SnapshotTwin {
  Tree* t;
  const rtree::Snapshot<D>* snap;
  storage::BufferPool::PinIo* io;
  std::vector<std::byte>* page_buf;
  rtree::EpochManager<D>::ClipRun clip_buf;
  int64_t root() const { return snap->view().root_page; }
  uint64_t section_pages() const { return snap->view().num_section_pages; }
  bool clipped() const { return snap->view().clipped; }
  const std::byte* Resolve(const std::vector<std::byte>* pre,
                           storage::PageId fid, storage::Status* st) {
    if (!pre->empty()) return pre->data();
    if (st) *st = {storage::ErrorKind::kStaleSnapshot, fid};
    return nullptr;
  }
  const std::byte* Acquire(storage::PageId fid, storage::Status* st) {
    rtree::EpochManager<D>* m = snap->manager();
    if (const auto* pre = m->FindPage(snap->epoch(), fid)) {
      return Resolve(pre, fid, st);
    }
    storage::Status s;
    if (!t->pool().ReadPageCopy(fid, page_buf->data(), io, &s)) {
      if (s.kind == storage::ErrorKind::kChecksum && snap->view().follower) {
        s.kind = storage::ErrorKind::kStaleSnapshot;
      }
      if (st) *st = s;
      return nullptr;
    }
    if (const auto* pre = m->FindPage(snap->epoch(), fid)) {
      return Resolve(pre, fid, st);
    }
    if (snap->view().follower &&
        rtree::PageLsn(page_buf->data()) > snap->view().applied_lsn) {
      if (st) *st = {storage::ErrorKind::kStaleSnapshot, fid};
      return nullptr;
    }
    return page_buf->data();
  }
  void Release(storage::PageId) {}
  std::span<const core::ClipPoint<D>> Clips(int64_t node) {
    std::span<const core::ClipPoint<D>> out;
    if (snap->manager()->FindClips(snap->epoch(), node, &out, &clip_buf)) {
      return out;
    }
    return t->clip_index().Get(node);
  }
};

/// The engine's page sanity check (PagedRTree::ValidPage is private).
inline bool ValidNodePage(const rtree::PagedNodeView<D>& v, const Tree& t) {
  const rtree::Superblock& sb = t.superblock();
  return rtree::PageIsNode(v.header) &&
         v.n() <= static_cast<uint32_t>(sb.max_entries) &&
         rtree::PagedNodeBytes<D>(v.n()) +
                 rtree::ClipRunBytes<D>(v.ClipsSpilled()
                                            ? 0
                                            : v.header.clip_count()) <=
             sb.file_page_size;
}

/// The traced window traversal. `pred` filters leaf entries the window
/// intersects (ignored when `match_all`). Counters land in `io` exactly as
/// PagedRTree::TraverseWindowEmit would count them; layer time in `p`.
/// Returns the result count.
template <typename Src, typename Pred>
size_t TwinWindow(Src& src, const Tree& t, const Rect& window, Pred&& pred,
                  bool match_all, rtree::TraversalScratch* scratch,
                  storage::BufferPool::PinIo* pin_io, storage::IoStats* io,
                  storage::Status* status, Probe* p) {
  auto& stack = scratch->stack;
  stack.clear();
  stack.push_back(src.root());
  size_t found = 0;
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    const uint32_t reads0 = pin_io->reads;
    storage::Status acq;
    const uint64_t a0 = p->Now();
    const std::byte* bytes = src.Acquire(1 + id, &acq);
    const uint64_t a1 = p->Now();
    if (!bytes) {
      if (status) *status = acq;
      break;
    }
    if (pin_io->reads != reads0) {
      ++p->stats.pin_misses;
      p->stats.pin_miss_ns += a1 - a0;
      p->Add("pin_miss", a0, a1, p->root);
      p->SampleMiss(1 + id, bytes);
    } else {
      ++p->stats.pin_hits;
      p->stats.pin_hit_ns += a1 - a0;
      p->Add("pin_hit", a0, a1, p->root);
    }
    const uint64_t d0 = p->Now();
    const rtree::PagedNodeView<D> v = rtree::DecodeNodePage<D>(bytes);
    if (!ValidNodePage(v, t)) {
      if (status) {
        *status = {storage::ErrorKind::kCorruptStructure, 1 + id};
      }
      src.Release(1 + id);
      break;
    }
    uint64_t* mask = scratch->MaskFor(v.n());
    rtree::IntersectsAll<D>(v.Soa(), window, mask, scratch->FlagsFor(v.n()));
    const uint64_t d1 = p->Now();
    ++p->stats.decode;
    p->stats.decode_ns += d1 - d0;
    p->Add("decode_scan", d0, d1, p->root);
    ++p->stats.nodes;
    if (v.IsLeaf()) {
      ++io->leaf_accesses;
      ++p->stats.leaves;
      bool contributed = false;
      for (uint32_t w = 0; w * 64 < v.n(); ++w) {
        for (uint64_t m = mask[w]; m; m &= m - 1) {
          const uint32_t i = w * 64 + std::countr_zero(m);
          if (match_all || pred(v.EntryRect(i))) {
            ++found;
            contributed = true;
          }
        }
      }
      if (contributed) {
        ++io->contributing_leaf_accesses;
        ++p->stats.contributing;
      }
    } else {
      ++io->internal_accesses;
      for (uint32_t w = 0; w * 64 < v.n(); ++w) {
        for (uint64_t m = mask[w]; m; m &= m - 1) {
          const uint32_t i = w * 64 + std::countr_zero(m);
          const int64_t child = v.id[i];
          if (child < 0 ||
              child >= static_cast<int64_t>(src.section_pages())) {
            if (status) {
              *status = {storage::ErrorKind::kCorruptStructure, 1 + id};
            }
            continue;
          }
          if (src.clipped()) {
            ++io->clip_accesses;
            const uint64_t c0 = p->Now();
            const bool pruned =
                core::ClipsPruneQuery<D>(src.Clips(child), window);
            const uint64_t c1 = p->Now();
            ++p->stats.clip_checks;
            p->stats.clip_ns += c1 - c0;
            p->Add("clip_prune", c0, c1, p->root);
            if (pruned) {
              ++p->stats.clip_pruned;
              continue;
            }
          }
          stack.push_back(child);
        }
      }
    }
    src.Release(1 + id);
  }
  return found;
}

/// Folds the physical transfers of one traversal into `io`, as the engine
/// does at the end of TraverseWindowEmit.
inline void FoldPinIo(const storage::BufferPool::PinIo& pin_io,
                      storage::IoStats* io) {
  io->page_reads += pin_io.reads;
  io->read_retries += pin_io.read_retries;
  io->page_writes += pin_io.writes;
  io->wal_syncs += pin_io.wal_syncs;
  io->pin_miss_ns += pin_io.miss_ns;
}

/// One traced window query of `spec` on `t` (the unpinned path, or the
/// pinned-epoch path when `follower`). Returns the result count; the
/// query's layer times go to p->stats.
inline size_t TracedWindowQuery(Tree& t, const Spec& spec, bool follower,
                                rtree::TraversalScratch* scratch,
                                storage::IoStats* io, storage::Status* status,
                                Probe* p, uint64_t query_index) {
  const uint32_t root = p->Begin(query_index);
  const uint64_t q0 = p->Now();
  storage::BufferPool::PinIo pin_io;
  const geom::Vec<D> pt = spec.point;
  auto contains = [pt](const Rect& r) { return r.ContainsPoint(pt); };
  const bool match_all = spec.kind == rtree::QueryKind::kIntersects;
  size_t n;
  if (follower) {
    const uint64_t e0 = p->Now();
    rtree::Snapshot<D> snap = t.PinSnapshot();
    const uint64_t e1 = p->Now();
    scratch->page_buf.resize(t.superblock().file_page_size);
    SnapshotTwin src{&t, &snap, &pin_io, &scratch->page_buf, {}};
    n = TwinWindow(src, t, spec.window, contains, match_all, scratch, &pin_io,
                   io, status, p);
    const uint64_t e2 = p->Now();
    snap.Release();
    const uint64_t e3 = p->Now();
    ++p->stats.epoch_pins;
    p->stats.epoch_pin_ns += (e1 - e0) + (e3 - e2);
    p->Add("epoch_pin", e0, e1, root);
    p->Add("epoch_unpin", e2, e3, root);
  } else {
    LatestTwin src{&t, &pin_io};
    n = TwinWindow(src, t, spec.window, contains, match_all, scratch, &pin_io,
                   io, status, p);
  }
  FoldPinIo(pin_io, io);
  const uint64_t q1 = p->Now();
  p->stats.read_retries += pin_io.read_retries;
  ++p->stats.queries;
  p->stats.query_ns += q1 - q0;
  p->Add("query", q0, q1, 0, root);
  return n;
}

struct ReplayStats {
  Samples crc_ns, encode_ns;
};

/// Times, cycling over the sampled page images, `replays` rounds of the CRC
/// verify the pool runs on every miss and of the node encode the write
/// path runs for such a page (with the node's current clip run).
inline ReplayStats ReplayPages(Tree& t, const std::vector<PageImage>& images,
                               size_t replays) {
  ReplayStats out;
  if (images.empty()) return out;
  const size_t page_size = t.superblock().file_page_size;
  std::vector<std::byte> buf(page_size);
  uint64_t sink = 0;
  for (size_t i = 0; i < replays; ++i) {
    const PageImage& img = images[i % images.size()];
    const uint64_t r0 = NowNs();
    sink += rtree::VerifyPageChecksum(img.bytes.data(), page_size);
    out.crc_ns.Add(NowNs() - r0);
    if (!ValidNodePage(rtree::DecodeNodePage<D>(img.bytes.data()), t)) {
      continue;
    }
    const rtree::Node<D> node = rtree::DecodeNode<D>(img.bytes.data());
    const std::span<const core::ClipPoint<D>> clips =
        t.clipping_enabled() ? t.clip_index().Get(img.fid - 1)
                             : std::span<const core::ClipPoint<D>>{};
    const uint64_t e0 = NowNs();
    sink += rtree::EncodeNodePage<D>(node, clips, buf.data(), page_size,
                                     rtree::PageLsn(img.bytes.data()));
    out.encode_ns.Add(NowNs() - e0);
  }
  // Uses the results, so the compiler cannot drop the replayed calls.
  if (sink == 0) std::fprintf(stderr, "bench_paged: empty replay\n");
  return out;
}

/// Chrome trace-event JSON of the sampled span trees (parent-linked via
/// args.parent; timestamps in microseconds from the first span).
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  uint64_t base = UINT64_MAX;
  for (const Span& s : spans) base = std::min(base, s.t0);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                 "\"parent\":%u,\"query\":%llu}}",
                 i ? "," : "", s.name, s.tid, (s.t0 - base) / 1e3,
                 s.dur / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.query));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

/// Replays WAL appends and 16-record group-commit syncs of the sampled
/// page images on a scratch log, repeating the sample until `syncs` syncs
/// ran. Returns false when the log cannot be written.
inline bool ReplayWal(const std::string& path,
                      const std::vector<PageImage>& images, size_t syncs,
                      Samples* append_ns, Samples* sync_ns) {
  if (images.empty()) return false;
  storage::Wal wal;
  const auto page_size = static_cast<uint32_t>(images[0].bytes.size());
  if (!wal.Open(path, page_size, 1)) return false;
  constexpr size_t kRecordsPerSync = 16;
  uint64_t op = 0;
  bool ok = true;
  for (size_t i = 0; sync_ns->size() < syncs && ok; ++i) {
    const PageImage& img = images[i % images.size()];
    const uint64_t t0 = NowNs();
    ok = wal.AppendPageImage(img.fid, img.bytes.data(), op) != 0;
    append_ns->Add(NowNs() - t0);
    if ((i + 1) % kRecordsPerSync == 0) {
      wal.AppendCommit(op++);
      const uint64_t s0 = NowNs();
      ok = ok && wal.Sync();
      sync_ns->Add(NowNs() - s0);
      if (sync_ns->size() % 256 == 0) ok = ok && wal.Truncate();
    }
  }
  wal.Close();
  std::remove(path.c_str());
  return ok;
}

}  // namespace clipbb::bench::paged

#endif  // CLIPBB_BENCH_PAGED_TWIN_H_
