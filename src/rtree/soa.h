// Structure-of-arrays mirror of the R-tree's node entries, plus the
// branch-light scan kernel the flattened query hot path runs on.
//
// The AoS layout in Node<D> (vector<Entry> = interleaved rect + id) is what
// updates want; scans want the transpose. SoaMatrix keeps, per dimension,
// one contiguous lo[] and hi[] coordinate pool over ALL nodes (CSR indexed
// by page id), so testing a window against every entry of a node is a
// straight-line pass over dense doubles that the compiler can vectorise —
// no pointer chasing, no short-circuit branches. The matrix is rebuilt in
// one pass (RTree::RefreshAccel) and version-checked: while the tree has
// mutated since the last build, the in-memory node source of
// rtree/traverse.h reads the AoS entries instead, so results are always
// identical. The paged engine runs the same kernels (IntersectsAll,
// SoaMinDist2) over SoaNodeViews of its pinned page bytes.
#ifndef CLIPBB_RTREE_SOA_H_
#define CLIPBB_RTREE_SOA_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.h"
#include "storage/page_store.h"

namespace clipbb::rtree {

/// Per-node window into the SoA pools: entry i of the node has bounds
/// [lo[d][i], hi[d][i]] per dimension d and child/object id id[i].
template <int D>
struct SoaNodeView {
  const double* lo[D];
  const double* hi[D];
  const int64_t* id = nullptr;
  uint32_t n = 0;
};

/// SoA transpose of every node's entry list, CSR-indexed by page id.
template <int D>
class SoaMatrix {
 public:
  /// One-pass rebuild from any tree exposing ForEachNode/PageCapacity.
  template <typename TreeT>
  void Build(const TreeT& tree) {
    const size_t cap = tree.PageCapacity();
    offset_.assign(cap, 0);
    count_.assign(cap, 0);
    size_t total = 0;
    tree.ForEachNode([&](storage::PageId id, const auto& n) {
      count_[id] = static_cast<uint32_t>(n.entries.size());
      total += n.entries.size();
    });
    uint32_t off = 0;
    for (size_t i = 0; i < cap; ++i) {
      offset_[i] = off;
      off += count_[i];
    }
    for (int d = 0; d < D; ++d) {
      lo_[d].resize(total);
      hi_[d].resize(total);
    }
    ids_.resize(total);
    tree.ForEachNode([&](storage::PageId id, const auto& n) {
      const uint32_t o = offset_[id];
      for (uint32_t e = 0; e < count_[id]; ++e) {
        for (int d = 0; d < D; ++d) {
          lo_[d][o + e] = n.entries[e].rect.lo[d];
          hi_[d][o + e] = n.entries[e].rect.hi[d];
        }
        ids_[o + e] = n.entries[e].id;
      }
    });
  }

  SoaNodeView<D> NodeView(storage::PageId id) const {
    SoaNodeView<D> v;
    const uint32_t o = offset_[id];
    for (int d = 0; d < D; ++d) {
      v.lo[d] = lo_[d].data() + o;
      v.hi[d] = hi_[d].data() + o;
    }
    v.id = ids_.data() + o;
    v.n = count_[id];
    return v;
  }

  size_t TotalEntries() const { return ids_.size(); }

  /// Heap bytes of the mirror (for storage accounting / curiosity).
  size_t ByteSize() const {
    return ids_.size() * (2 * D * sizeof(double) + sizeof(int64_t)) +
           offset_.size() * 2 * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> offset_;
  std::vector<uint32_t> count_;
  std::array<std::vector<double>, D> lo_;
  std::array<std::vector<double>, D> hi_;
  std::vector<int64_t> ids_;
};

/// Tests `w` against all entries of the view at once, writing a candidate
/// bitmask (bit i set = entry i intersects w). Branch-light: no early
/// exits, so the cost is selectivity-independent and the compare loops
/// auto-vectorise. Structured as one pass per dimension over byte flags —
/// the __restrict on the flag buffer is what lets the compiler vectorise
/// past the char-may-alias-anything rule — then packed into mask words.
/// `flags` must hold at least v.n bytes (TraversalScratch::FlagsFor).
template <int D>
inline void IntersectsAll(const SoaNodeView<D>& v, const geom::Rect<D>& w,
                          uint64_t* mask, uint8_t* __restrict flags) {
  const uint32_t n = v.n;
  {
    const double* __restrict l = v.lo[0];
    const double* __restrict h = v.hi[0];
    const double qh = w.hi[0], ql = w.lo[0];
    for (uint32_t i = 0; i < n; ++i) {
      flags[i] = static_cast<uint8_t>(l[i] <= qh) &
                 static_cast<uint8_t>(h[i] >= ql);
    }
  }
  for (int d = 1; d < D; ++d) {
    const double* __restrict l = v.lo[d];
    const double* __restrict h = v.hi[d];
    const double qh = w.hi[d], ql = w.lo[d];
    for (uint32_t i = 0; i < n; ++i) {
      flags[i] &= static_cast<uint8_t>(l[i] <= qh) &
                  static_cast<uint8_t>(h[i] >= ql);
    }
  }
  const uint32_t words = (n + 63) / 64;
  for (uint32_t i = 0; i < words; ++i) mask[i] = 0;
  for (uint32_t i = 0; i < n; ++i) {
    mask[i >> 6] |= static_cast<uint64_t>(flags[i]) << (i & 63);
  }
}

/// Squared L2 distance from q to entry i of the view (SoA MinDist2).
template <int D>
inline double SoaMinDist2(const SoaNodeView<D>& v, uint32_t i,
                          const geom::Vec<D>& q) {
  double d2 = 0.0;
  for (int d = 0; d < D; ++d) {
    const double lo = v.lo[d][i];
    const double hi = v.hi[d][i];
    double diff = 0.0;
    if (q[d] < lo) {
      diff = lo - q[d];
    } else if (q[d] > hi) {
      diff = q[d] - hi;
    }
    d2 += diff * diff;
  }
  return d2;
}

/// Reusable per-traversal storage: the DFS stack and the candidate bitmask.
/// A batch owns one of these per worker thread, so a stream of queries
/// runs with zero per-query allocation.
struct TraversalScratch {
  std::vector<storage::PageId> stack;
  std::vector<uint64_t> mask;
  std::vector<uint8_t> flags;
  /// Page copy-out target of snapshot-pinned paged traversals (sized
  /// lazily to one file page; unused — and empty — on every other path).
  std::vector<std::byte> page_buf;

  /// Ensures capacity for a tree of the given height and fanout.
  void Reserve(int height, int max_entries) {
    stack.reserve(static_cast<size_t>(height < 1 ? 1 : height) *
                      static_cast<size_t>(max_entries < 2 ? 2 : max_entries) +
                  1);
    const size_t words = (static_cast<size_t>(max_entries) + 64) / 64 + 1;
    if (mask.size() < words) mask.resize(words);
    if (flags.size() < static_cast<size_t>(max_entries) + 1) {
      flags.resize(max_entries + 1);
    }
  }

  /// Bitmask storage for an n-entry node.
  uint64_t* MaskFor(uint32_t n) {
    const size_t words = (static_cast<size_t>(n) + 63) / 64;
    if (mask.size() < words) mask.resize(words);
    return mask.data();
  }

  /// Byte-flag storage for an n-entry node.
  uint8_t* FlagsFor(uint32_t n) {
    if (flags.size() < n) flags.resize(n);
    return flags.data();
  }
};

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_SOA_H_
