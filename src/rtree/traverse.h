// The one place Algorithm 2 runs: a window traversal and a best-first kNN,
// each written once and generic over a *node source* — the in-memory
// RTree's (rtree/rtree.h) and the disk-resident PagedRTree's latest-epoch
// and pinned-snapshot sources (rtree/paged_rtree.h). Visit order, results
// and logical I/O are therefore identical across engines by construction.
//
// A node source `Src` provides:
//
//   int64_t root();                   root node id
//   bool clipped();                   whether child visits run the clip test
//   bool Acquire(int64_t node, View*) resolves a node; false abandons the
//                                     query (the source has recorded why)
//   void Release(int64_t node);       after the node's entries were used
//   bool ChildOk(int64_t node, int64_t child)
//                                     false skips a child the source
//                                     rejects (corrupt pointer)
//   std::span<const core::ClipPoint<D>> Clips(int64_t child);
//
// and its `Src::View` (one decoded node):
//
//   uint32_t n(); bool IsLeaf(); int64_t Id(i); geom::Rect<D> EntryRect(i);
//   double MinDist2(i, q);            squared distance of entry i to q
//   const uint64_t* Mask(window, TraversalScratch*)
//                                     bit i set = entry i intersects window
//
// Failure policy (error latching, stale-snapshot reporting) stays in the
// source; the bodies below only stop or skip.
#ifndef CLIPBB_RTREE_TRAVERSE_H_
#define CLIPBB_RTREE_TRAVERSE_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "core/intersect.h"
#include "core/mindist.h"
#include "rtree/node.h"
#include "rtree/soa.h"
#include "storage/io_stats.h"

namespace clipbb::rtree {

/// Leaf predicate tag for plain range queries: window intersection alone
/// decides membership, so the traversal skips the per-entry callback.
struct MatchAllPred {
  template <typename RectT>
  constexpr bool operator()(const RectT&) const {
    return true;
  }
};

/// One kNN result: object id + squared distance from the query point.
/// The single kNN result type of both engines (in-memory and paged).
template <int D>
struct KnnNeighbor {
  ObjectId id = kInvalidPage;
  double dist2 = 0.0;
};

/// Calls `fn(i)` for every set bit i of an n-bit mask, ascending.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* mask, uint32_t n, Fn&& fn) {
  for (uint32_t w = 0; w * 64 < n; ++w) {
    uint64_t m = mask[w];
    while (m) {
      const uint32_t i = w * 64 + static_cast<uint32_t>(std::countr_zero(m));
      m &= m - 1;
      fn(i);
    }
  }
}

/// Depth-first window traversal with clip pruning (Algorithm 2). Emits
/// `emit(ObjectId)` for every leaf entry that intersects `window` and
/// satisfies `pred`, in visit order; children are pushed in ascending
/// entry order. Returns the number of results. Counts leaf, internal,
/// contributing-leaf and clip accesses into `io` when non-null.
template <int D, typename Src, typename Pred, typename Emit>
size_t TraverseWindow(Src& src, const geom::Rect<D>& window, const Pred& pred,
                      Emit&& emit, storage::IoStats* io,
                      TraversalScratch* scratch) {
  constexpr bool kMatchAll = std::is_same_v<std::decay_t<Pred>, MatchAllPred>;
  auto& stack = scratch->stack;
  stack.clear();
  stack.push_back(src.root());
  size_t found = 0;
  typename Src::View v;
  while (!stack.empty()) {
    const int64_t id = stack.back();
    stack.pop_back();
    if (!src.Acquire(id, &v)) break;
    const uint64_t* mask = v.Mask(window, scratch);
    if (v.IsLeaf()) {
      if (io) ++io->leaf_accesses;
      bool contributed = false;
      ForEachSetBit(mask, v.n(), [&](uint32_t i) {
        if (kMatchAll || pred(v.EntryRect(i))) {
          ++found;
          contributed = true;
          emit(static_cast<ObjectId>(v.Id(i)));
        }
      });
      if (io && contributed) ++io->contributing_leaf_accesses;
    } else {
      if (io) ++io->internal_accesses;
      ForEachSetBit(mask, v.n(), [&](uint32_t i) {
        const int64_t child = v.Id(i);
        if (!src.ChildOk(id, child)) return;
        if (src.clipped()) {
          if (io) ++io->clip_accesses;
          if (core::ClipsPruneQuery<D>(src.Clips(child), window)) return;
        }
        stack.push_back(child);
      });
    }
    src.Release(id);
  }
  return found;
}

/// Best-first k-nearest-neighbour search (Hjaltason & Samet). Nodes are
/// ordered by MINDIST, tightened by the node's clip points when the tree
/// is clipped (core::CbbMinDist2) — the answer is the classic one, the
/// tighter bound only pops nodes later. Emits `emit(KnnNeighbor<D>)` per
/// neighbour, ascending distance; returns the number emitted (< k when
/// the tree holds fewer objects).
template <int D, typename Src, typename Emit>
size_t KnnBestFirst(Src& src, const geom::Vec<D>& q, int k, Emit&& emit,
                    storage::IoStats* io) {
  if (k <= 0) return 0;
  struct QueueItem {
    double dist2;
    bool is_object;
    int64_t id;  // node id or object id
    bool operator>(const QueueItem& o) const { return dist2 > o.dist2; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      frontier;
  frontier.push({0.0, false, src.root()});
  size_t found = 0;
  typename Src::View v;
  while (!frontier.empty()) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (item.is_object) {
      emit(KnnNeighbor<D>{item.id, item.dist2});
      if (static_cast<int>(++found) == k) break;
      continue;
    }
    if (!src.Acquire(item.id, &v)) break;
    const bool leaf = v.IsLeaf();
    if (io) ++(leaf ? io->leaf_accesses : io->internal_accesses);
    for (uint32_t i = 0; i < v.n(); ++i) {
      if (leaf) {
        frontier.push({v.MinDist2(i, q), true, v.Id(i)});
        continue;
      }
      const int64_t child = v.Id(i);
      if (!src.ChildOk(item.id, child)) continue;
      double bound;
      if (src.clipped()) {
        if (io) ++io->clip_accesses;
        bound = core::CbbMinDist2<D>(q, v.EntryRect(i), src.Clips(child));
      } else {
        bound = v.MinDist2(i, q);
      }
      frontier.push({bound, false, child});
    }
    src.Release(item.id);
  }
  return found;
}

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_TRAVERSE_H_
