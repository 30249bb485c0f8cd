// The unified query API: one way to describe a query (QuerySpec), one way
// to receive its results (ResultSink), and one facade (SpatialEngine) that
// runs either over the in-memory RTree or the disk-resident PagedRTree —
// the paper's "clipping is a drop-in change every query kind benefits
// from" claim, expressed as a surface every scenario shares.
//
// Three pieces:
//
//  * QuerySpec<D> — a small value type naming the predicate (window
//    intersection, point stabbing, containment, enclosure, kNN) plus its
//    geometry. Factories (QuerySpec::Intersects, ::ContainsPoint,
//    ::ContainedIn, ::Encloses, ::Knn) keep construction typo-proof; the
//    window field doubles as the scheduling key (point queries store a
//    degenerate rect), so Hilbert-ordered batching works uniformly.
//
//  * ResultSink<D> — a tiny polymorphic consumer. Window predicates
//    deliver OnMatch(id); kNN delivers OnNeighbor(KnnNeighbor<D>) in
//    ascending distance order (the default forwards the id to OnMatch, so
//    a sink written for window queries works for kNN unchanged). Stock
//    sinks: CollectIds, CountOnly, KnnHeapSink, CallbackSink. Execute
//    also accepts a null sink — the shared count-only fast path both
//    engines implement without materializing results.
//
//  * SpatialEngine<D> — type-erases the backend behind a QueryBackend
//    vtable. Execute(spec, sink, io, scratch) runs one query;
//    ExecuteBatch(specs, opts) runs many through the shared ForEachChunked
//    scheduler (Hilbert order of the spec windows, per-worker
//    TraversalScratch and IoStats summed at the join — exactly the
//    batched hot path both engines already shared for range queries, now
//    for every predicate kind). Results, visit order, and logical I/O are
//    identical across backends by construction: both adapters run the
//    one traversal and the one kNN of rtree/traverse.h, through one shared
//    Run body; the paged backend additionally reports physical page reads
//    in the same IoStats.
#ifndef CLIPBB_RTREE_QUERY_API_H_
#define CLIPBB_RTREE_QUERY_API_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_batch.h"

namespace clipbb::rtree {

// ------------------------------------------------------------- QuerySpec

/// The predicate a QuerySpec evaluates at the leaves.
enum class QueryKind : uint8_t {
  kIntersects,     // objects intersecting the window (classic range query)
  kContainsPoint,  // objects whose rect contains the point (stabbing)
  kContainedIn,    // objects entirely inside the window ("WITHIN")
  kEncloses,       // objects whose rect contains the whole window
  kKnn,            // k nearest objects to the point
};

inline const char* QueryKindName(QueryKind k) {
  switch (k) {
    case QueryKind::kIntersects: return "intersects";
    case QueryKind::kContainsPoint: return "contains-point";
    case QueryKind::kContainedIn: return "contained-in";
    case QueryKind::kEncloses: return "encloses";
    case QueryKind::kKnn: return "knn";
  }
  return "?";
}

inline constexpr int kNumQueryKinds = 5;

/// End-to-end query latency accounting for one SpatialEngine, opt-in via
/// SpatialEngine::SetMetrics (a detached engine records nothing and pays
/// nothing). Plain counters, never shared between threads while recording:
/// ExecuteBatch gives every worker its own instance and merges with
/// operator+= at the join — the IoStats concurrency contract.
struct EngineMetrics {
  /// End-to-end Execute latency, one histogram per QueryKind.
  obs::Histogram query_ns[kNumQueryKinds];
  /// Whole-batch wall time (scheduling + workers + join) per ExecuteBatch.
  obs::Histogram batch_ns;
  uint64_t batches = 0;

  void Record(QueryKind k, uint64_t ns) {
    query_ns[static_cast<int>(k)].Record(ns);
  }
  void RecordBatch(uint64_t ns) {
    batch_ns.Record(ns);
    ++batches;
  }

  /// Queries recorded for one kind (the per-kind histogram's count).
  uint64_t queries(QueryKind k) const {
    return query_ns[static_cast<int>(k)].count();
  }
  uint64_t total_queries() const {
    uint64_t n = 0;
    for (const obs::Histogram& h : query_ns) n += h.count();
    return n;
  }

  EngineMetrics& operator+=(const EngineMetrics& o) {
    for (int i = 0; i < kNumQueryKinds; ++i) query_ns[i] += o.query_ns[i];
    batch_ns += o.batch_ns;
    batches += o.batches;
    return *this;
  }

  void Reset() { *this = EngineMetrics{}; }

  /// Publishes the distributions into `registry` under query_* names,
  /// labelled with the backend and the kind (idempotent Set semantics).
  void PublishTo(obs::MetricsRegistry& registry,
                 const char* backend) const {
    char name[96];
    for (int i = 0; i < kNumQueryKinds; ++i) {
      if (query_ns[i].count() == 0) continue;
      std::snprintf(name, sizeof name,
                    "query_ns{backend=\"%s\",kind=\"%s\"}", backend,
                    QueryKindName(static_cast<QueryKind>(i)));
      registry.SetHistogram(name, query_ns[i]);
    }
    std::snprintf(name, sizeof name, "batch_ns{backend=\"%s\"}", backend);
    registry.SetHistogram(name, batch_ns);
    std::snprintf(name, sizeof name, "batches_total{backend=\"%s\"}",
                  backend);
    registry.SetCounter(name, batches);
  }
};

/// One query, as a value. Use the factories; every kind fills `window`
/// (point kinds store the degenerate point rect), so batch scheduling can
/// key on `window.Center()` regardless of kind.
template <int D>
struct QuerySpec {
  QueryKind kind = QueryKind::kIntersects;
  geom::Rect<D> window{};
  geom::Vec<D> point{};  // kContainsPoint / kKnn
  int k = 0;             // kKnn

  static QuerySpec Intersects(const geom::Rect<D>& w) {
    QuerySpec s;
    s.kind = QueryKind::kIntersects;
    s.window = w;
    return s;
  }
  static QuerySpec ContainsPoint(const geom::Vec<D>& p) {
    QuerySpec s;
    s.kind = QueryKind::kContainsPoint;
    s.window = geom::Rect<D>::FromPoint(p);
    s.point = p;
    return s;
  }
  static QuerySpec ContainedIn(const geom::Rect<D>& w) {
    QuerySpec s;
    s.kind = QueryKind::kContainedIn;
    s.window = w;
    return s;
  }
  static QuerySpec Encloses(const geom::Rect<D>& w) {
    QuerySpec s;
    s.kind = QueryKind::kEncloses;
    s.window = w;
    return s;
  }
  static QuerySpec Knn(const geom::Vec<D>& p, int k) {
    QuerySpec s;
    s.kind = QueryKind::kKnn;
    s.window = geom::Rect<D>::FromPoint(p);
    s.point = p;
    s.k = k;
    return s;
  }
};

/// Intersects specs for a whole rect batch (the common migration from the
/// old rect-window batch entry points).
template <int D>
std::vector<QuerySpec<D>> MakeIntersectsSpecs(
    std::span<const geom::Rect<D>> windows) {
  std::vector<QuerySpec<D>> specs;
  specs.reserve(windows.size());
  for (const auto& w : windows) specs.push_back(QuerySpec<D>::Intersects(w));
  return specs;
}

// ----------------------------------------------------------- ResultSinks

/// Receives the results of one Execute call. Window predicates call
/// OnMatch once per matching object, in traversal visit order; kNN calls
/// OnNeighbor once per neighbour, ascending distance. Sinks are passed by
/// pointer and never copied or moved by the engine, so stateful
/// (even move-only) sinks are fine.
///
/// When the paged backend hits an unrecoverable read fault (EIO, checksum
/// mismatch, structural corruption — after the pool's bounded retries),
/// Execute calls OnError exactly once with the error kind and failing
/// page, after the last delivered result: everything delivered so far is
/// correct, the remainder of that query's subtree walk was abandoned. A
/// sink that ignores OnError (the default) still never sees wrong
/// results — just fewer, with the truncation observable via the Status
/// out-param. The in-memory backend never errors.
template <int D>
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnMatch(ObjectId id) = 0;
  virtual void OnNeighbor(const KnnNeighbor<D>& n) { OnMatch(n.id); }
  virtual void OnError(const storage::Status& /*status*/) {}
};

/// Counts matches without materializing them — the count-only fast path
/// both engines share (neither allocates or touches result storage).
/// Passing a null sink to Execute is equivalent; this sink exists for
/// call sites that want one accumulator across several Execute calls.
template <int D>
class CountOnly final : public ResultSink<D> {
 public:
  void OnMatch(ObjectId) override { ++count_; }
  size_t count() const { return count_; }
  void Reset() { count_ = 0; }

 private:
  size_t count_ = 0;
};

/// Appends matching ids to a caller-owned vector.
template <int D>
class CollectIds final : public ResultSink<D> {
 public:
  explicit CollectIds(std::vector<ObjectId>* out) : out_(out) {}
  void OnMatch(ObjectId id) override { out_->push_back(id); }

 private:
  std::vector<ObjectId>* out_;
};

/// Appends kNN results (id + squared distance) to a caller-owned vector,
/// ascending — the streamed form of the old by-value kNN entry points.
/// Window predicates deliver distance 0 (no distance is computed).
template <int D>
class KnnHeapSink final : public ResultSink<D> {
 public:
  explicit KnnHeapSink(std::vector<KnnNeighbor<D>>* out) : out_(out) {}
  void OnMatch(ObjectId id) override {
    out_->push_back(KnnNeighbor<D>{id, 0.0});
  }
  void OnNeighbor(const KnnNeighbor<D>& n) override { out_->push_back(n); }

 private:
  std::vector<KnnNeighbor<D>>* out_;
};

/// Invokes `fn(ObjectId)` per match (window kinds) and, when `fn` also
/// accepts a KnnNeighbor<D>, `fn(n)` per neighbour.
template <int D, typename Fn>
class CallbackSink final : public ResultSink<D> {
 public:
  explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}
  void OnMatch(ObjectId id) override { fn_(id); }
  void OnNeighbor(const KnnNeighbor<D>& n) override {
    if constexpr (std::is_invocable_v<Fn&, const KnnNeighbor<D>&>) {
      fn_(n);
    } else {
      fn_(n.id);
    }
  }

 private:
  Fn fn_;
};

template <int D, typename Fn>
CallbackSink<D, Fn> MakeCallbackSink(Fn fn) {
  return CallbackSink<D, Fn>(std::move(fn));
}

// -------------------------------------------------------- EngineSnapshot

/// Type-erased RAII pin on a backend's published epoch — what
/// SpatialEngine::PinSnapshot returns and Execute/ExecuteBatch accept.
/// While any copy of the handle lives, the pinned epoch's pre-image
/// deltas are retained and queries passing it observe exactly that
/// epoch's committed state, concurrently with a committing writer (see
/// the consistency model in README). A default-constructed (invalid)
/// handle means "latest": queries run the ordinary unpinned path.
///
/// Copyable (shared pin — copies share one underlying epoch pin) and
/// cheap to pass; the last copy's destruction unpins. Backends without
/// snapshot support (the in-memory tree) return an invalid handle and
/// ignore snapshots at Run, which degrades to latest-state semantics.
template <int D>
class EngineSnapshot {
 public:
  EngineSnapshot() = default;

  bool valid() const { return handle_ != nullptr; }
  /// Epoch id the handle pins (0 = nothing published yet / invalid).
  uint64_t epoch() const { return epoch_; }
  /// Tree bounds frozen at the pinned epoch (batch scheduling key).
  const geom::Rect<D>& bounds() const { return bounds_; }
  /// Tree height frozen at the pinned epoch (scratch sizing).
  int height() const { return height_; }
  void Release() { handle_.reset(); }

  /// Backend-internal: wraps a backend-owned pin object. `raw` is handed
  /// back verbatim to the backend that created it at Run time.
  static EngineSnapshot Wrap(std::shared_ptr<const void> handle,
                             uint64_t epoch, const geom::Rect<D>& bounds,
                             int height) {
    EngineSnapshot s;
    s.handle_ = std::move(handle);
    s.epoch_ = epoch;
    s.bounds_ = bounds;
    s.height_ = height;
    return s;
  }
  const void* raw() const { return handle_.get(); }

 private:
  std::shared_ptr<const void> handle_;
  uint64_t epoch_ = 0;
  geom::Rect<D> bounds_ = geom::Rect<D>::Empty();
  int height_ = 1;
};

// ---------------------------------------------------------- QueryBackend

/// What SpatialEngine erases: one Run entry point plus the metadata batch
/// scheduling needs. Adapters for RTree and PagedRTree live below;
/// external storage engines can implement this to join the facade.
template <int D>
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;
  virtual const char* name() const = 0;
  virtual geom::Rect<D> bounds() const = 0;
  virtual int height() const = 0;
  virtual int max_entries() const = 0;
  virtual size_t num_objects() const = 0;
  virtual bool clipping_enabled() const = 0;
  /// Pins the current published epoch. The default (backends without
  /// multi-version state) returns an invalid handle — queries then always
  /// read the latest state, which for such backends IS a consistent
  /// snapshot as long as their documented concurrency contract holds.
  virtual EngineSnapshot<D> PinSnapshot() const { return {}; }
  /// Runs one spec; delivers to `sink` (null = count only), accumulates
  /// logical and physical I/O into `io`, reuses `scratch` when non-null.
  /// Returns the result count. A backend that can fail mid-query (the
  /// paged one) reports the first unrecoverable fault through `status`
  /// when non-null; the returned count then covers only the portion
  /// traversed before the fault. A non-null `probe` asks the backend to
  /// time its refine and sink-delivery phases (sampled tracing); null —
  /// the default, and the batch path's choice for unsampled queries —
  /// must add no timing work. A non-null valid `snap` (a handle this
  /// backend's PinSnapshot produced) runs the query against that pinned
  /// epoch; backends without snapshots ignore it.
  virtual size_t Run(const QuerySpec<D>& spec, ResultSink<D>* sink,
                     storage::IoStats* io, TraversalScratch* scratch,
                     storage::Status* status = nullptr,
                     obs::QueryProbe* probe = nullptr,
                     const EngineSnapshot<D>* snap = nullptr) const = 0;
};

namespace query_internal {

/// Leaf-predicate wrapper that accumulates evaluation time into a probe
/// (sampled queries only; unsampled dispatch never instantiates one).
template <typename Pred>
struct TimedPred {
  Pred pred;
  obs::QueryProbe* probe;
  template <typename RectT>
  bool operator()(const RectT& r) const {
    const uint64_t t0 = obs::NowNs();
    const bool match = pred(r);
    probe->refine_ns += obs::NowNs() - t0;
    return match;
  }
};

/// Window-predicate dispatch: calls `traverse(pred)` with the leaf
/// predicate of `spec.kind`. kKnn never reaches here. A non-null `probe`
/// wraps the non-trivial predicates in TimedPred; kIntersects stays
/// MatchAllPred unconditionally — it has no refine phase, and wrapping it
/// would break the match-all fast path.
template <int D, typename Traverse>
size_t DispatchWindow(const QuerySpec<D>& spec, Traverse&& traverse,
                      obs::QueryProbe* probe) {
  auto run = [&](auto pred) {
    if (probe != nullptr) {
      return traverse(TimedPred<decltype(pred)>{std::move(pred), probe});
    }
    return traverse(std::move(pred));
  };
  switch (spec.kind) {
    case QueryKind::kIntersects:
      return traverse(MatchAllPred{});
    case QueryKind::kContainsPoint:
      return run([p = spec.point](const geom::Rect<D>& r) {
        return r.ContainsPoint(p);
      });
    case QueryKind::kContainedIn:
      return run([w = spec.window](const geom::Rect<D>& r) {
        return w.Contains(r);
      });
    case QueryKind::kEncloses:
      return run([w = spec.window](const geom::Rect<D>& r) {
        return r.Contains(w);
      });
    case QueryKind::kKnn:
      break;
  }
  assert(!"window dispatch reached for a kNN spec");
  return 0;
}

/// The Run body both adapters share: wraps `sink` in the delivery
/// callback (timed into `probe` on sampled queries) and dispatches on the
/// spec kind. `tree` is an RTree or a PagedRTree; `extra...` are the
/// paged engine's trailing status/snapshot arguments (none in memory).
template <int D, typename Tree, typename... Extra>
size_t RunSpec(Tree& tree, const QuerySpec<D>& spec, ResultSink<D>* sink,
               storage::IoStats* io, TraversalScratch* scratch,
               obs::QueryProbe* probe, Extra... extra) {
  auto deliver = [sink, probe](const auto& result) {
    if (sink == nullptr) return;
    const uint64_t t0 = probe != nullptr ? obs::NowNs() : 0;
    if constexpr (std::is_same_v<std::decay_t<decltype(result)>,
                                 KnnNeighbor<D>>) {
      sink->OnNeighbor(result);
    } else {
      sink->OnMatch(result);
    }
    if (probe != nullptr) probe->sink_ns += obs::NowNs() - t0;
  };
  if (spec.kind == QueryKind::kKnn) {
    return tree.Knn(spec.point, spec.k, deliver, io, extra...);
  }
  return DispatchWindow<D>(
      spec,
      [&](const auto& pred) {
        return tree.TraverseWindowEmit(spec.window, pred, deliver, io,
                                       scratch, extra...);
      },
      probe);
}

template <int D>
class MemoryBackend final : public QueryBackend<D> {
 public:
  explicit MemoryBackend(const RTree<D>& tree) : tree_(&tree) {}

  const char* name() const override { return "memory"; }
  geom::Rect<D> bounds() const override { return tree_->bounds(); }
  int height() const override { return tree_->Height(); }
  int max_entries() const override { return tree_->options().max_entries; }
  size_t num_objects() const override { return tree_->NumObjects(); }
  bool clipping_enabled() const override {
    return tree_->clipping_enabled();
  }

  size_t Run(const QuerySpec<D>& spec, ResultSink<D>* sink,
             storage::IoStats* io, TraversalScratch* scratch,
             storage::Status* /*status*/ = nullptr,
             obs::QueryProbe* probe = nullptr,
             const EngineSnapshot<D>* /*snap*/ = nullptr) const override {
    // The in-memory traversal has no failure modes; status is never set.
    // Snapshots are ignored: the in-memory tree is single-version, and
    // under its read-path contract (no concurrent writer) the latest
    // state is the snapshot.
    return RunSpec<D>(*tree_, spec, sink, io, scratch, probe);
  }

 private:
  const RTree<D>* tree_;
};

template <int D>
class PagedBackend final : public QueryBackend<D> {
 public:
  explicit PagedBackend(PagedRTree<D>& tree) : tree_(&tree) {}

  const char* name() const override { return "paged"; }
  geom::Rect<D> bounds() const override { return tree_->bounds(); }
  int height() const override { return tree_->Height(); }
  int max_entries() const override { return tree_->max_entries(); }
  size_t num_objects() const override { return tree_->NumObjects(); }
  bool clipping_enabled() const override {
    return tree_->clipping_enabled();
  }

  EngineSnapshot<D> PinSnapshot() const override {
    auto pin = std::make_shared<Snapshot<D>>(tree_->PinSnapshot());
    const EpochTreeView<D>& v = pin->view();
    return EngineSnapshot<D>::Wrap(pin, v.epoch, v.bounds, v.height);
  }

  size_t Run(const QuerySpec<D>& spec, ResultSink<D>* sink,
             storage::IoStats* io, TraversalScratch* scratch,
             storage::Status* status = nullptr,
             obs::QueryProbe* probe = nullptr,
             const EngineSnapshot<D>* snap = nullptr) const override {
    // Unwrap the type-erased pin back into the engine's Snapshot (only a
    // handle this backend minted can reach here for this tree).
    const Snapshot<D>* pin =
        (snap != nullptr && snap->valid())
            ? static_cast<const Snapshot<D>*>(snap->raw())
            : nullptr;
    return RunSpec<D>(*tree_, spec, sink, io, scratch, probe, status, pin);
  }

 private:
  PagedRTree<D>* tree_;  // queries mutate the pool; never const
};

}  // namespace query_internal

// ---------------------------------------------------------- SpatialEngine

/// Backend-agnostic query facade. Non-owning: the underlying tree must
/// outlive the engine. Cheap to construct (one small allocation), movable.
///
/// Thread safety follows the backend: the in-memory tree's read path and
/// the paged read path both allow concurrent Execute calls as long as
/// every caller owns its TraversalScratch and IoStats (exactly what
/// ExecuteBatch arranges per worker).
template <int D>
class SpatialEngine {
 public:
  SpatialEngine() = default;
  /// Facade over the in-memory tree.
  explicit SpatialEngine(const RTree<D>& tree)
      : backend_(std::make_unique<query_internal::MemoryBackend<D>>(tree)) {}
  /// Facade over the disk-resident tree (must be open).
  explicit SpatialEngine(PagedRTree<D>& tree)
      : backend_(std::make_unique<query_internal::PagedBackend<D>>(tree)) {}
  /// Facade over any custom backend.
  explicit SpatialEngine(std::unique_ptr<QueryBackend<D>> backend)
      : backend_(std::move(backend)) {}

  bool valid() const { return backend_ != nullptr; }

  /// Opt-in observability. Both attachments default to null, and a
  /// detached engine's Execute/ExecuteBatch run the exact pre-obs code
  /// path — no clock reads, no extra branches in the traversal. The
  /// setters are const (the attachments are mutable) so a measurement
  /// harness can instrument a `const SpatialEngine&` it does not own.
  /// Attach/detach is not thread-safe against in-flight queries; the
  /// attached objects must outlive their use and are never owned.
  void SetMetrics(EngineMetrics* m) const { metrics_ = m; }
  void SetTraces(obs::TraceCollector* t) const { traces_ = t; }
  EngineMetrics* metrics() const { return metrics_; }
  obs::TraceCollector* traces() const { return traces_; }

  const char* backend_name() const { return deref().name(); }
  geom::Rect<D> bounds() const { return deref().bounds(); }
  int Height() const { return deref().height(); }
  int max_entries() const { return deref().max_entries(); }
  size_t NumObjects() const { return deref().num_objects(); }
  bool clipping_enabled() const { return deref().clipping_enabled(); }

  /// Pins the backend's latest published epoch and returns the RAII
  /// handle. Pass it to Execute/ExecuteBatch to read exactly that
  /// committed state while a writer keeps committing (paged backend; see
  /// the README consistency model). Backends without multi-version state
  /// return an invalid handle — queries then read latest, as always.
  EngineSnapshot<D> PinSnapshot() const { return deref().PinSnapshot(); }

  /// Runs one query. Results stream into `sink` (null = count only, the
  /// fast path that materializes nothing on either backend); logical node
  /// accesses — and, on the paged backend, physical page reads — are
  /// accumulated into `io`. A caller-owned `scratch` makes repeated
  /// window queries allocation-free. A non-null valid `snap`
  /// (PinSnapshot) evaluates the query against that pinned epoch instead
  /// of the latest state. Returns the result count.
  ///
  /// Error semantics (paged backend; the in-memory one cannot fail): an
  /// unrecoverable read fault surfaces twice — `sink->OnError(status)` is
  /// called once after the last delivered result, and `*status` carries
  /// the error kind and page when given. The count then covers only the
  /// portion traversed before the fault; results delivered are correct,
  /// never silently truncated without one of those signals firing.
  size_t Execute(const QuerySpec<D>& spec, ResultSink<D>* sink = nullptr,
                 storage::IoStats* io = nullptr,
                 TraversalScratch* scratch = nullptr,
                 storage::Status* status = nullptr,
                 const EngineSnapshot<D>* snap = nullptr) const {
    assert(backend_);
    if (metrics_ == nullptr && traces_ == nullptr) {  // pre-obs fast path
      storage::Status local;
      const size_t n = backend_->Run(spec, sink, io, scratch, &local,
                                     /*probe=*/nullptr, snap);
      if (!local.ok() && sink) sink->OnError(local);
      if (status) *status = local;
      return n;
    }
    // Standalone Execute calls get engine-local sequence numbers; batch
    // queries use their input index instead (see BatchOver).
    const uint64_t qi = traces_ != nullptr ? traces_->NextIndex() : 0;
    return TimedRun(spec, sink, io, scratch, status, qi, /*worker=*/0,
                    metrics_, snap);
  }

  /// Runs a batch of specs (any mix of kinds) and reports per-spec result
  /// counts in input order plus summed I/O — the one batch entry point
  /// both backends share. Scheduling is identical to the historical
  /// rect-window batch: Hilbert order of the spec windows' centers over
  /// the tree bounds (opts.hilbert_order), workers pulling contiguous
  /// chunks through ForEachChunked, each owning a TraversalScratch and an
  /// IoStats summed once at the join.
  ///
  /// A query that hits an unrecoverable read fault does not abort the
  /// batch: the worker records the failing index and moves on, every
  /// other query's count stays complete and correct, and the join fills
  /// QueryBatchResult::error (first fault seen) and ::failed (all failing
  /// indexes, ascending) so the degradation is explicit.
  ///
  /// A non-null valid `snap` runs the WHOLE batch against that pinned
  /// epoch: scheduling keys on the snapshot's frozen bounds and every
  /// worker traverses the pinned state, so the batch is internally
  /// consistent even under a concurrently committing writer.
  QueryBatchResult ExecuteBatch(std::span<const QuerySpec<D>> specs,
                                const QueryBatchOptions& opts = {},
                                const EngineSnapshot<D>* snap =
                                    nullptr) const {
    return BatchOver(specs.size(),
                     [&](size_t i) -> const QuerySpec<D>& {
                       return specs[i];
                     },
                     opts, snap);
  }

  /// Rect-batch convenience: every window as an intersects count. Builds
  /// each spec on the fly (no materialized spec vector — this overload
  /// sits inside bench timing loops).
  QueryBatchResult ExecuteBatch(std::span<const geom::Rect<D>> windows,
                                const QueryBatchOptions& opts = {},
                                const EngineSnapshot<D>* snap =
                                    nullptr) const {
    return BatchOver(windows.size(),
                     [&](size_t i) {
                       return QuerySpec<D>::Intersects(windows[i]);
                     },
                     opts, snap);
  }

 private:
  const QueryBackend<D>& deref() const {
    assert(backend_);
    return *backend_;
  }

  /// The observed run: times the query end to end, records it into `em`
  /// (per-worker in batches, the engine attachment for single Executes),
  /// and — when the collector samples this query index — assembles the
  /// trace: traversal as the real interval, pin-miss I/O / refine /
  /// sink-delivery as aggregated durations anchored at the query start.
  size_t TimedRun(const QuerySpec<D>& spec, ResultSink<D>* sink,
                  storage::IoStats* io, TraversalScratch* scratch,
                  storage::Status* status, uint64_t query_index,
                  uint32_t worker, EngineMetrics* em,
                  const EngineSnapshot<D>* snap = nullptr) const {
    const bool sampled =
        traces_ != nullptr && traces_->Sampled(query_index);
    storage::IoStats local_io;  // trace deltas need an IoStats to diff
    storage::IoStats* eff_io = io;
    if (sampled && eff_io == nullptr) eff_io = &local_io;
    const uint64_t reads0 = sampled ? eff_io->page_reads : 0;
    const uint64_t miss0 = sampled ? eff_io->pin_miss_ns : 0;
    obs::QueryProbe probe;
    storage::Status local;
    const uint64_t t0 = obs::NowNs();
    const size_t n = backend_->Run(spec, sink, eff_io, scratch, &local,
                                   sampled ? &probe : nullptr, snap);
    const uint64_t dur = obs::NowNs() - t0;
    if (!local.ok() && sink) sink->OnError(local);
    if (status) *status = local;
    if (em != nullptr) em->Record(spec.kind, dur);
    if (sampled) {
      obs::QueryTrace t;
      t.query_index = query_index;
      t.worker = worker;
      t.kind_name = QueryKindName(spec.kind);
      t.results = n;
      t.page_reads = eff_io->page_reads - reads0;
      t.AddSpan(obs::SpanKind::kTraversal, t0, dur);
      const uint64_t miss_ns = eff_io->pin_miss_ns - miss0;
      if (miss_ns > 0) t.AddSpan(obs::SpanKind::kPinMissIo, t0, miss_ns);
      if (probe.refine_ns > 0) {
        t.AddSpan(obs::SpanKind::kRefine, t0, probe.refine_ns);
      }
      if (probe.sink_ns > 0) {
        t.AddSpan(obs::SpanKind::kSinkDelivery, t0, probe.sink_ns);
      }
      traces_->Add(t);
    }
    return n;
  }

  /// Shared batch driver: `spec_at(i)` yields the i-th spec (by value or
  /// reference). Hilbert order of the spec windows' centers, chunked
  /// worker fan-out, per-worker scratch + IoStats summed at the join.
  template <typename SpecAt>
  QueryBatchResult BatchOver(size_t n, SpecAt&& spec_at,
                             const QueryBatchOptions& opts,
                             const EngineSnapshot<D>* snap =
                                 nullptr) const {
    assert(backend_);
    QueryBatchResult result;
    result.counts.assign(n, 0);
    if (n == 0) return result;
    const bool pinned = snap != nullptr && snap->valid();

    // Observability is per-batch opt-in: a detached engine takes the
    // original worker body with zero clock reads. Batch queries are
    // sampled by INPUT index, so the sampled set is a pure function of
    // (seed, N, batch size) — identical serial and multithreaded.
    const bool observed = metrics_ != nullptr || traces_ != nullptr;
    const uint64_t batch_t0 = observed ? obs::NowNs() : 0;

    std::vector<uint32_t> order;
    if (opts.hilbert_order) {
      // Pinned batches schedule on the snapshot's frozen bounds — the
      // live bounds belong to the writer and may be mid-update.
      order = HilbertOrderBy<D>(pinned ? snap->bounds() : bounds(), n,
                                [&](size_t i) {
                                  return spec_at(i).window.Center();
                                });
    } else {
      order.resize(n);
      std::iota(order.begin(), order.end(), 0u);
    }
    const uint64_t sched_end = observed ? obs::NowNs() : 0;
    const unsigned threads = ResolveBatchThreads(opts.threads, n);

    std::vector<TraversalScratch> scratch(threads);
    for (auto& s : scratch) {
      s.Reserve(pinned ? snap->height() : Height(), max_entries());
    }
    std::vector<storage::IoStats> per_thread(threads);
    // Per-worker failure records, merged once at the join (same exactness
    // pattern as the IoStats): a fault in one worker's chunk never
    // perturbs another worker's queries.
    std::vector<storage::Status> first_error(threads);
    std::vector<std::vector<uint32_t>> failed(threads);
    // Per-worker latency accounting, merged at the join like the IoStats.
    std::vector<EngineMetrics> per_metrics(
        metrics_ != nullptr ? threads : 0);
    ForEachChunked(order.size(), threads, [&](unsigned t, size_t i) {
      const uint32_t qi = order[i];
      storage::Status st;
      if (observed) {
        result.counts[qi] = TimedRun(
            spec_at(qi), /*sink=*/nullptr, &per_thread[t], &scratch[t],
            &st, qi, t, per_metrics.empty() ? nullptr : &per_metrics[t],
            snap);
      } else {
        result.counts[qi] = backend_->Run(spec_at(qi), /*sink=*/nullptr,
                                          &per_thread[t], &scratch[t],
                                          &st, /*probe=*/nullptr, snap);
      }
      if (!st.ok()) {
        if (first_error[t].ok()) first_error[t] = st;
        failed[t].push_back(qi);
      }
    });
    for (const auto& io : per_thread) result.io += io;
    for (unsigned t = 0; t < threads; ++t) {
      if (result.error.ok() && !first_error[t].ok()) {
        result.error = first_error[t];
      }
      result.failed.insert(result.failed.end(), failed[t].begin(),
                           failed[t].end());
    }
    // Ascending and deduplicated: a query that faults on several pages is
    // still one failed query.
    std::sort(result.failed.begin(), result.failed.end());
    result.failed.erase(
        std::unique(result.failed.begin(), result.failed.end()),
        result.failed.end());
    if (metrics_ != nullptr) {
      for (const EngineMetrics& m : per_metrics) *metrics_ += m;
      metrics_->RecordBatch(obs::NowNs() - batch_t0);
    }
    if (traces_ != nullptr) {
      // One batch-scoped trace entry: the scheduling span (Hilbert
      // ordering time before any worker ran).
      obs::QueryTrace t;
      t.query_index = n;  // past the last query index: batch-scoped
      t.worker = 0;
      t.kind_name = "batch";
      t.results = n;
      t.AddSpan(obs::SpanKind::kSchedule, batch_t0,
                sched_end - batch_t0);
      traces_->Add(t);
    }
    return result;
  }

  std::unique_ptr<QueryBackend<D>> backend_;
  /// Opt-in observability attachments (see SetMetrics/SetTraces); mutable
  /// so const engines — the normal read-path handle — can be instrumented.
  mutable EngineMetrics* metrics_ = nullptr;
  mutable obs::TraceCollector* traces_ = nullptr;
};

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_QUERY_API_H_
