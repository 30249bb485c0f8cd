// k-nearest-neighbour search over (clipped) in-memory R-trees. The
// best-first traversal itself — with the CBB-aware MINDIST when the tree
// is clipped — lives in rtree/traverse.h and is the same body the paged
// engine runs; this header keeps the free-function entry point.
//
// Results stream: each KnnNeighbor<D> is emitted in ascending distance
// order the moment it is popped from the frontier, so callers fill their
// own storage (a ResultSink, a fixed buffer, a callback) without an
// intermediate vector. SpatialEngine::Execute with QuerySpec::Knn and a
// KnnHeapSink (rtree/query_api.h) is the engine-independent form.
#ifndef CLIPBB_RTREE_KNN_H_
#define CLIPBB_RTREE_KNN_H_

#include "rtree/rtree.h"

namespace clipbb::rtree {

/// k nearest objects to `q` by (squared) rect distance. Invokes
/// `emit(const KnnNeighbor<D>&)` once per neighbour, ascending; returns
/// the number emitted (< k when the tree holds fewer objects). Counts
/// node accesses into `io` if non-null.
template <int D, typename Emit>
size_t KnnSearch(const RTree<D>& tree, const geom::Vec<D>& q, int k,
                 Emit&& emit, storage::IoStats* io = nullptr) {
  return tree.Knn(q, k, std::forward<Emit>(emit), io);
}

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_KNN_H_
