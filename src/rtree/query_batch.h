// Batched query execution: the scheduling primitives every batch path
// shares.
//
// HilbertOrderBy supplies the locality schedule: queries are visited in
// Hilbert order of their centers, so consecutive queries touch
// overlapping subtrees and the node pages + clip arena stay hot in cache.
// ForEachChunked is the multithreaded fan-out: workers pull contiguous
// chunks of the (Hilbert-ordered) schedule, so each worker keeps its own
// spatial locality, and every worker owns its TraversalScratch and
// IoStats — counters accumulate per thread and are summed once at the
// end, exact and race-free. Counts are written back in input order;
// totals and per-query results are identical to running each query
// alone. SpatialEngine::ExecuteBatch (rtree/query_api.h) drives both the
// in-memory and the disk-resident engine through these primitives.
#ifndef CLIPBB_RTREE_QUERY_BATCH_H_
#define CLIPBB_RTREE_QUERY_BATCH_H_

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "geom/hilbert.h"
#include "geom/rect.h"
#include "storage/io_stats.h"
#include "storage/status.h"

namespace clipbb::rtree {

struct QueryBatchOptions {
  /// Schedule queries in Hilbert order of their centers (locality). Counts
  /// are reported in input order either way.
  bool hilbert_order = true;
  /// Worker threads; 1 = run inline on the caller, 0 = hardware concurrency.
  unsigned threads = 1;
};

/// Contiguous-chunk size workers pull from the shared schedule: big enough
/// to amortize the atomic fetch and keep Hilbert locality, small enough to
/// balance skewed queries.
inline constexpr size_t kQueryBatchChunk = 16;

/// Resolves a QueryBatchOptions thread count against the batch size
/// (0 = hardware concurrency; never more workers than items).
inline unsigned ResolveBatchThreads(unsigned threads, size_t n_items) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > n_items) threads = static_cast<unsigned>(n_items);
  return threads;
}

/// Runs `run(worker, i)` for every i in [0, n): workers dynamically pull
/// contiguous chunks of the index space, so a schedule sorted for
/// locality stays locality-friendly per worker. `worker` indexes
/// per-thread state (contexts, IoStats) the caller sized to `threads`.
/// threads == 1 runs inline on the caller with worker 0.
template <typename RunFn>
void ForEachChunked(size_t n, unsigned threads, RunFn run) {
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) run(0u, i);
    return;
  }
  std::atomic<size_t> next{0};
  auto drain = [&](unsigned t) {
    for (size_t base = next.fetch_add(kQueryBatchChunk); base < n;
         base = next.fetch_add(kQueryBatchChunk)) {
      const size_t end = std::min(base + kQueryBatchChunk, n);
      for (size_t i = base; i < end; ++i) run(t, i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(drain, t);
  for (auto& th : pool) th.join();
}

struct QueryBatchResult {
  std::vector<size_t> counts;  // per query, aligned with the input
  storage::IoStats io;         // summed over all queries
  /// First error any query hit (kNone when the whole batch succeeded).
  /// A failing query never aborts the batch: the other queries' counts
  /// are complete and correct; only the indexes in `failed` are partial.
  storage::Status error;
  /// Input indexes of the queries that surfaced an error, ascending and
  /// deduplicated (a query faulting on several pages appears once).
  /// Their `counts` entries cover only the subtrees visited before the
  /// failure — explicitly partial, never silently truncated.
  std::vector<uint32_t> failed;

  bool ok() const { return error.ok(); }
};

/// Hilbert order of `n` items by a caller-supplied center function
/// (`center(i)` -> geom::Vec<D>) over `bounds`. The one scheduling
/// primitive every batch path shares — rect batches and QuerySpec batches
/// (rtree/query_api.h) produce bit-identical schedules for the same
/// centers, which the fig15 paged baselines rely on.
template <int D, typename CenterFn>
std::vector<uint32_t> HilbertOrderBy(const geom::Rect<D>& bounds, size_t n,
                                     CenterFn&& center) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  constexpr int kBits = geom::DefaultHilbertBits<D>();
  std::vector<uint64_t> key(n);
  for (size_t i = 0; i < n; ++i) {
    key[i] = geom::HilbertIndex<D>(center(i), bounds, kBits);
  }
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
  return order;
}

/// Hilbert order of query centers over the tree bounds (indices into
/// `queries`). Exposed for benches that schedule their own loops.
template <int D>
std::vector<uint32_t> HilbertQueryOrder(const geom::Rect<D>& bounds,
                                        std::span<const geom::Rect<D>> queries) {
  return HilbertOrderBy<D>(bounds, queries.size(),
                           [&](size_t i) { return queries[i].Center(); });
}

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_QUERY_BATCH_H_
