// Disk-style R-tree base with pluggable ChooseSubtree / Split policies and
// integrated CBB maintenance (paper §IV).
//
// All four paper variants (QR/HR/R*/RR*) share this layout and query path;
// they differ only in the virtual hooks. Clipping is a strict add-on: with
// clipping disabled the tree is a faithful classic R-tree; with clipping
// enabled an auxiliary ClipIndex holds per-node clip points, queries apply
// Algorithm 2, inserts apply the eager validity check, and deletions are
// lazy (§IV-D), with every re-clip attributed to its cause (Fig. 12).
#ifndef CLIPBB_RTREE_RTREE_H_
#define CLIPBB_RTREE_RTREE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/timer.h"

#include "core/clip_builder.h"
#include "core/clip_index.h"
#include "core/intersect.h"
#include "rtree/node.h"
#include "rtree/options.h"
#include "rtree/soa.h"
#include "rtree/traverse.h"
#include "storage/io_stats.h"
#include "storage/page_store.h"

namespace clipbb::rtree {

/// Why a node was re-clipped (Fig. 12 breakdown).
enum class ReclipCause { kSplit, kMbbChange, kCbbChange };

struct ReclipStats {
  uint64_t splits = 0;       // node splits (MBB recomputation forced)
  uint64_t mbb_changes = 0;  // MBB changed without a split
  uint64_t cbb_changes = 0;  // validity test failed, MBB unchanged
  uint64_t inserts = 0;      // object insertions observed

  uint64_t TotalReclips() const { return splits + mbb_changes + cbb_changes; }
  void Reset() { *this = ReclipStats{}; }
};

template <int D>
class RTree {
 public:
  using RectT = geom::Rect<D>;
  using NodeT = Node<D>;
  using EntryT = Entry<D>;
  using ClipConfigT = core::ClipConfig<D>;

  explicit RTree(const RTreeOptions& opts)
      : opts_(ResolveOptions<D>(opts)) {
    root_ = store_.Allocate();  // empty leaf
    clip_index_.SetAgingPolicy(kDefaultClipAging);
  }

  /// Default clip-arena aging: compact once 1k nodes' clips pend in the
  /// overlay, or once a dirty overlay has served 64k query lookups —
  /// update-heavy workloads re-flatten automatically instead of relying on
  /// bulk-load hooks.
  static constexpr core::ClipAgingPolicy kDefaultClipAging{
      /*max_pending=*/1024, /*max_lookups=*/64 * 1024};
  virtual ~RTree() = default;

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Human-readable variant name ("QR-tree", ...).
  virtual const char* Name() const = 0;

  // ---------------------------------------------------------------- update

  /// Inserts one object.
  void Insert(const RectT& rect, ObjectId oid) {
    reinserted_levels_.clear();
    if (clipping_) ++reclip_stats_.inserts;
    ++num_objects_;
    ++version_;
    InsertEntryAtLevel(EntryT{rect, oid}, 0);
    // Clip-arena aging: updates are the compaction points (queries are
    // const), so apply the policy even when this insert re-clipped nothing.
    if (clipping_) clip_index_.MaybeAge();
  }

  /// Deletes the object with exactly this rect and id; false if absent.
  bool Delete(const RectT& rect, ObjectId oid) {
    reinserted_levels_.clear();
    std::vector<PageId> path;
    if (!FindLeaf(root_, rect, oid, &path)) return false;
    ++version_;
    NodeT& leaf = store_.At(path.back());
    for (size_t i = 0; i < leaf.entries.size(); ++i) {
      if (leaf.entries[i].id == oid && leaf.entries[i].rect == rect) {
        leaf.entries.erase(leaf.entries.begin() + i);
        break;
      }
    }
    // Keep variant-derived per-node state (HR-tree LHVs) exact on the
    // delete path too, so a maintained tree and one restored from pages
    // (which recomputes that state) stay structurally interchangeable.
    OnNodeUpdated(path.back());
    CondenseTree(path);
    if (clipping_) clip_index_.MaybeAge();
    return true;
  }

  // ----------------------------------------------------------------- query

  /// Range query; returns result count, appends ids to `out` if non-null,
  /// accumulates page accesses into `io` if non-null. Passing a
  /// `scratch` reuses its stack/bitmask across queries (batch hot path);
  /// without one a per-query stack is allocated as before.
  size_t RangeQuery(const RectT& q, std::vector<ObjectId>* out,
                    storage::IoStats* io = nullptr,
                    TraversalScratch* scratch = nullptr) const {
    if (out) {
      return TraverseWindowEmit(
          q, MatchAllPred{}, [out](ObjectId id) { out->push_back(id); }, io,
          scratch);
    }
    return TraverseWindowEmit(q, MatchAllPred{}, [](ObjectId) {}, io,
                              scratch);
  }

  size_t RangeCount(const RectT& q, storage::IoStats* io = nullptr,
                    TraversalScratch* scratch = nullptr) const {
    return RangeQuery(q, nullptr, io, scratch);
  }

  /// The window traversal every window query kind runs on
  /// (rtree/traverse.h): `emit(ObjectId)` fires once per leaf entry that
  /// intersects `window` and satisfies `pred`, in visit order. A null
  /// `scratch` allocates a per-call stack (batch callers pass a reused
  /// one).
  template <typename Pred, typename Emit>
  size_t TraverseWindowEmit(const RectT& window, const Pred& pred,
                            Emit&& emit, storage::IoStats* io,
                            TraversalScratch* scratch = nullptr) const {
    TraversalScratch local;
    if (!scratch) {
      scratch = &local;
      local.Reserve(Height(), opts_.max_entries);
    }
    MemorySource src(*this);
    return TraverseWindow<D>(src, window, pred, std::forward<Emit>(emit), io,
                             scratch);
  }

  /// k nearest objects to `q` (rtree/traverse.h KnnBestFirst): emits
  /// `emit(const KnnNeighbor<D>&)` per neighbour, ascending; returns the
  /// number emitted.
  template <typename Emit>
  size_t Knn(const geom::Vec<D>& q, int k, Emit&& emit,
             storage::IoStats* io = nullptr) const {
    MemorySource src(*this);
    return KnnBestFirst<D>(src, q, k, std::forward<Emit>(emit), io);
  }

  // -------------------------------------------------------------- clipping

  /// Turns on CBB maintenance and builds clip points for every node.
  /// `threads` > 1 fans the (embarrassingly parallel) per-node clip
  /// construction out over worker threads; results are identical.
  void EnableClipping(const ClipConfigT& config, unsigned threads = 1) {
    clip_cfg_ = config;
    clipping_ = true;
    if (threads <= 1) {
      RebuildAllClips();
    } else {
      RebuildAllClipsParallel(threads);
    }
    clip_index_.Compact();
    reclip_stats_.Reset();
  }

  void DisableClipping() {
    clipping_ = false;
    clip_index_.Clear();
  }

  bool clipping_enabled() const { return clipping_; }
  const core::ClipIndex<D>& clip_index() const { return clip_index_; }
  /// Mutable access for owners that instrument the index (the paged
  /// engine installs its epoch pre-image hook here; see
  /// ClipIndex::SetMutateHook). Not for bypassing the tree's own clip
  /// maintenance.
  core::ClipIndex<D>& mutable_clip_index() { return clip_index_; }

  /// Overrides the clip-arena aging policy ({} disables automatic
  /// compaction; see kDefaultClipAging for the default).
  void SetClipAgingPolicy(const core::ClipAgingPolicy& policy) {
    clip_index_.SetAgingPolicy(policy);
  }
  const ClipConfigT& clip_config() const { return clip_cfg_; }
  const ReclipStats& reclip_stats() const { return reclip_stats_; }
  void ResetReclipStats() { reclip_stats_.Reset(); }

  /// Time spent inside BuildClips (seconds); for the Fig. 14 breakdown.
  double clip_seconds() const { return clip_seconds_; }
  void ResetClipSeconds() { clip_seconds_ = 0.0; }

  // ----------------------------------------------------------- accelerator

  /// Rebuilds the flat read-path accelerators in one pass: the SoA mirror
  /// of all node entries and the compacted clip arena. Called automatically
  /// after bulk loads and restores; call manually after a burst of updates
  /// to re-flatten (queries fall back to the AoS path while stale).
  void RefreshAccel() {
    soa_.Build(*this);
    soa_version_ = version_;
    clip_index_.Compact();
  }

  /// True when the SoA mirror matches the current tree contents.
  bool AccelFresh() const { return soa_version_ == version_; }

  const SoaMatrix<D>& soa() const { return soa_; }

  /// Monotonic mutation counter (bumped by Insert/Delete/bulk load).
  uint64_t Version() const { return version_; }

  // ------------------------------------------------------------- structure

  PageId root() const { return root_; }
  /// Upper bound over ever-allocated page ids (dense; includes free slots).
  size_t PageCapacity() const { return store_.Capacity(); }
  const NodeT& NodeAt(PageId id) const { return store_.At(id); }
  bool NodeLive(PageId id) const { return store_.IsLive(id); }
  int Height() const { return store_.At(root_).level + 1; }
  const RTreeOptions& options() const { return opts_; }
  RectT bounds() const { return store_.At(root_).ComputeMbb(); }
  size_t NumObjects() const { return num_objects_; }
  size_t NumNodes() const { return store_.Size(); }

  // ------------------------------------------------- paged write-mode hooks
  // The paged writer (rtree/paged_rtree.h) mirrors this tree onto a page
  // file: the observer collects the dirty/allocated/freed page set of each
  // operation (every mutable store access marks its page — the update path
  // only takes mutable references on nodes it writes), and the id source
  // routes allocation through the file's free-page map so store ids stay
  // equal to file page indexes.

  void SetStoreObserver(storage::PageStoreObserver* obs) {
    store_.SetObserver(obs);
  }
  void SetStoreIdSource(storage::PageIdSource* src) {
    store_.SetIdSource(src);
  }

  /// Depth-first visit of every live node id.
  template <typename F>
  void ForEachNode(F&& fn) const {
    std::vector<PageId> stack{root_};
    while (!stack.empty()) {
      PageId id = stack.back();
      stack.pop_back();
      const NodeT& n = store_.At(id);
      fn(id, n);
      if (!n.IsLeaf()) {
        for (const EntryT& e : n.entries) stack.push_back(e.id);
      }
    }
  }

  size_t NumLeaves() const {
    size_t leaves = 0;
    ForEachNode([&](PageId, const NodeT& n) {
      if (n.IsLeaf()) ++leaves;
    });
    return leaves;
  }

  /// Replaces the whole tree by bottom-up packing of `items` in the given
  /// order (bulk loading; HR-tree and STR use this with their own orders).
  void ReplaceWithPackedLevels(const std::vector<EntryT>& items) {
    store_.Clear();
    clip_index_.Clear();
    num_objects_ = items.size();
    ++version_;
    if (items.empty()) {
      root_ = store_.Allocate();
      RefreshAccel();
      return;
    }
    PackUpperLevels(items, 0);
    if (clipping_) {
      RebuildAllClips();
      reclip_stats_.Reset();
    }
    RefreshAccel();
  }

 private:
  /// Packs `current` (entries destined for nodes at `level`) into nodes,
  /// then recursively packs the parents until a single root remains.
  /// Shrinks the second-to-last group when needed so the tail node still
  /// holds at least min_entries.
  void PackUpperLevels(std::vector<EntryT> current, int level) {
    int cap = static_cast<int>(opts_.max_entries * opts_.bulk_fill);
    if (cap < 2) cap = 2;
    if (cap > opts_.max_entries) cap = opts_.max_entries;
    while (true) {
      std::vector<EntryT> parents;
      const size_t n = current.size();
      const size_t num_nodes = (n + cap - 1) / cap;
      parents.reserve(num_nodes);
      const size_t min_tail = static_cast<size_t>(opts_.min_entries);
      const size_t max_e = static_cast<size_t>(opts_.max_entries);
      for (size_t start = 0; start < n;) {
        size_t count = std::min<size_t>(cap, n - start);
        const size_t remainder = n - start - count;
        if (remainder > 0 && remainder < min_tail) {
          // The tail node would underflow; either absorb it here (m <= M/2
          // guarantees this fits whenever splitting in two cannot) or leave
          // it exactly min_tail entries.
          const size_t total_last = count + remainder;
          count = total_last <= max_e ? total_last : total_last - min_tail;
        }
        PageId nid = store_.Allocate();
        NodeT& node = store_.At(nid);
        node.level = level;
        node.entries.assign(current.begin() + start,
                            current.begin() + start + count);
        OnNodeUpdated(nid);
        parents.push_back(EntryT{store_.At(nid).ComputeMbb(), nid});
        start += count;
      }
      if (parents.size() == 1) {
        root_ = parents[0].id;
        break;
      }
      current = std::move(parents);
      ++level;
    }
  }

 public:
  /// Replaces the tree with explicit leaf groups (PR-tree style bulk
  /// loading): each group becomes one leaf; groups smaller than
  /// min_entries are merged into their predecessor; upper levels are
  /// packed like ReplaceWithPackedLevels.
  void ReplaceWithPackedLeafGroups(
      const std::vector<std::vector<EntryT>>& groups) {
    store_.Clear();
    clip_index_.Clear();
    num_objects_ = 0;
    ++version_;
    if (groups.empty()) {
      root_ = store_.Allocate();
      RefreshAccel();
      return;
    }
    // Normalize so every leaf holds >= min_entries (except a lone root
    // leaf): undersized groups borrow from their left neighbour while it
    // stays above the minimum, and are merged into it otherwise (m <= M/2
    // guarantees the merge fits).
    std::vector<std::vector<EntryT>> merged;
    for (const auto& g : groups) {
      if (g.empty()) continue;
      num_objects_ += g.size();
      merged.push_back(g);
    }
    const size_t min_e = static_cast<size_t>(opts_.min_entries);
    for (size_t i = 1; i < merged.size();) {
      auto& cur = merged[i];
      auto& prev = merged[i - 1];
      while (cur.size() < min_e && prev.size() > min_e) {
        cur.push_back(prev.back());
        prev.pop_back();
      }
      if (cur.size() < min_e) {
        prev.insert(prev.end(), cur.begin(), cur.end());
        merged.erase(merged.begin() + i);
      } else {
        ++i;
      }
    }
    // The first group can still be undersized; borrow from / merge into
    // its right neighbour.
    if (merged.size() >= 2 && merged[0].size() < min_e) {
      while (merged[0].size() < min_e && merged[1].size() > min_e) {
        merged[0].push_back(merged[1].back());
        merged[1].pop_back();
      }
      if (merged[0].size() < min_e) {
        merged[1].insert(merged[1].end(), merged[0].begin(),
                         merged[0].end());
        merged.erase(merged.begin());
      }
    }
    if (merged.empty()) {
      root_ = store_.Allocate();  // all groups were empty
      RefreshAccel();
      return;
    }
    std::vector<EntryT> parents;
    parents.reserve(merged.size());
    for (const auto& g : merged) {
      const PageId nid = store_.Allocate();
      NodeT& node = store_.At(nid);
      node.level = 0;
      node.entries = g;
      OnNodeUpdated(nid);
      parents.push_back(EntryT{store_.At(nid).ComputeMbb(), nid});
    }
    if (parents.size() == 1) {
      root_ = parents[0].id;
    } else {
      PackUpperLevels(std::move(parents), 1);
    }
    if (clipping_) {
      RebuildAllClips();
      reclip_stats_.Reset();
    }
    RefreshAccel();
  }

  /// Restores a tree from serialized pages (see rtree/serialize.h). The
  /// node vector must use dense ids 0..n-1 with `root` among them.
  void RestoreFromPages(
      const RTreeOptions& opts, std::vector<NodeT> nodes, PageId new_root,
      size_t num_objects, bool clipped, const ClipConfigT& cfg,
      std::unordered_map<PageId, std::vector<core::ClipPoint<D>>> clips) {
    std::vector<std::pair<PageId, NodeT>> placed;
    placed.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      placed.emplace_back(static_cast<PageId>(i), std::move(nodes[i]));
    }
    RestoreFromPagedLayout(opts, nodes.size(), std::move(placed), new_root,
                           num_objects, clipped, cfg, std::move(clips));
  }

  /// Restores a tree whose id space mirrors a paged file's allocatable
  /// section exactly (rtree/paged_rtree.h write mode): each node is placed
  /// at its file section index; indexes not named (free pages, clip-spill
  /// pages) stay dead slots, so store ids remain equal to file page
  /// indexes. Free-list management belongs to the attached IdSource then.
  void RestoreFromPagedLayout(
      const RTreeOptions& opts, size_t capacity,
      std::vector<std::pair<PageId, NodeT>> nodes, PageId new_root,
      size_t num_objects, bool clipped, const ClipConfigT& cfg,
      std::unordered_map<PageId, std::vector<core::ClipPoint<D>>> clips) {
    opts_ = ResolveOptions<D>(opts);
    store_.Clear();
    store_.EnsureCapacity(capacity);
    for (auto& [id, n] : nodes) store_.AllocateAt(id, std::move(n));
    root_ = new_root;
    num_objects_ = num_objects;
    // Variant-derived per-node state (HR-tree LHVs) is not persisted by the
    // paged format; rebuild it bottom-up so children are current before
    // their parents.
    const int restored_height = store_.At(root_).level + 1;
    for (int lvl = 0; lvl < restored_height; ++lvl) {
      for (PageId id = 0; id < static_cast<PageId>(store_.Capacity()); ++id) {
        if (store_.IsLive(id) && store_.At(id).level == lvl) {
          OnNodeUpdated(id);
        }
      }
    }
    clipping_ = clipped;
    clip_cfg_ = cfg;
    clip_index_.Clear();
    for (auto& [id, c] : clips) clip_index_.Set(id, std::move(c));
    reclip_stats_.Reset();
    ++version_;
    RefreshAccel();
  }

 protected:
  // Hooks implemented by variants. ------------------------------------

  /// Index of the child entry of `node` to descend into for `rect`.
  virtual int ChooseSubtreeEntry(const NodeT& node, const RectT& rect) = 0;

  /// Distributes the M+1 entries of `full` between `full` and `fresh`
  /// (fresh is empty, same level). Both must end with >= min_entries.
  virtual void SplitNode(NodeT& full, NodeT& fresh) = 0;

  /// R*-style forced reinsert: if the variant wants to reinsert instead of
  /// splitting `nid` (level `level`), fill `removed` and shrink the node,
  /// returning true. Default: never.
  virtual bool MaybeReinsert(PageId nid, int level,
                             std::vector<EntryT>* removed) {
    (void)nid;
    (void)level;
    (void)removed;
    return false;
  }

  /// Called whenever a node's entry list changed (insert/split/bulk);
  /// bottom-up, so children are already current. HR-tree maintains LHVs.
  virtual void OnNodeUpdated(PageId nid) { (void)nid; }

  // Shared state accessors for variants. -------------------------------
  NodeT& MutableNode(PageId id) { return store_.At(id); }
  storage::PageStore<NodeT>& store() { return store_; }
  int max_entries() const { return opts_.max_entries; }
  int min_entries() const { return opts_.min_entries; }

  /// Levels already force-reinserted during the current top-level op.
  std::vector<int> reinserted_levels_;

  bool LevelReinserted(int level) const {
    for (int l : reinserted_levels_) {
      if (l == level) return true;
    }
    return false;
  }

 private:
  // ------------------------------------------------------------ insertion

  void InsertEntryAtLevel(const EntryT& e, int level) {
    std::vector<PageId> path;
    PageId cur = root_;
    while (store_.At(cur).level > level) {
      path.push_back(cur);
      const NodeT& n = store_.At(cur);
      int idx = ChooseSubtreeEntry(n, e.rect);
      cur = n.entries[idx].id;
    }
    path.push_back(cur);
    const RectT old_mbb = store_.At(cur).ComputeMbb();
    store_.At(cur).entries.push_back(e);
    OnNodeUpdated(cur);
    PropagateUp(path, old_mbb, e.rect);
  }

  /// Walks the path bottom-up: handles overflow (reinsert or split),
  /// refreshes parent entry rects, and maintains clip points.
  /// `deepest_old_mbb` is the deepest node's MBB before the new entry was
  /// added, `added_rect` the rect of that entry.
  void PropagateUp(std::vector<PageId>& path, RectT deepest_old_mbb,
                   RectT added_rect) {
    RectT old_mbb = deepest_old_mbb;  // MBB of path[i] before modification
    // Entry rects added/updated at path[i] (two after a child split).
    RectT changed_rects[2] = {added_rect, added_rect};
    int num_changed = 1;
    std::optional<EntryT> pending;  // split sibling to add one level up
    for (int i = static_cast<int>(path.size()) - 1; i >= 0; --i) {
      const PageId nid = path[i];
      if (static_cast<int>(store_.At(nid).entries.size()) >
          opts_.max_entries) {
        // Forced reinsert (R*): only below the root, once per level per op.
        std::vector<EntryT> removed;
        const int level = store_.At(nid).level;
        if (i > 0 && MaybeReinsert(nid, level, &removed)) {
          OnNodeUpdated(nid);
          // The node shrank; push MBB updates to the root (no overflow
          // possible on a pure shrink), then re-insert the removed entries.
          RefreshMbbsUpward(path, i);
          if (clipping_) {
            // The entry that caused the overflow may have stayed in the
            // node without changing its MBB; make sure the clips are still
            // valid against the current contents.
            const NodeT& n = store_.At(nid);
            for (const EntryT& e : n.entries) {
              if (!core::ClipsValidAfterInsert<D>(clip_index_.Get(nid),
                                                  e.rect)) {
                Reclip(nid, ReclipCause::kCbbChange);
                break;
              }
            }
          }
          for (const EntryT& r : removed) InsertEntryAtLevel(r, level);
          return;
        }
        // Split.
        const PageId sid = store_.Allocate();
        {
          NodeT& fresh = store_.At(sid);
          NodeT& full = store_.At(nid);
          fresh.level = full.level;
          SplitNode(full, fresh);
        }
        OnNodeUpdated(nid);
        OnNodeUpdated(sid);
        if (clipping_) {
          Reclip(nid, ReclipCause::kSplit);
          Reclip(sid, ReclipCause::kSplit);
        }
        pending = EntryT{store_.At(sid).ComputeMbb(), sid};
      } else if (clipping_) {
        // No split: either the MBB changed (rebuild) or run the eager
        // §IV-D validity test against the added/updated child rects.
        const RectT new_mbb = store_.At(nid).ComputeMbb();
        if (!(new_mbb == old_mbb)) {
          Reclip(nid, ReclipCause::kMbbChange);
        } else {
          for (int c = 0; c < num_changed; ++c) {
            if (!core::ClipsValidAfterInsert<D>(clip_index_.Get(nid),
                                                changed_rects[c])) {
              Reclip(nid, ReclipCause::kCbbChange);
              break;
            }
          }
        }
      }

      const RectT new_mbb = store_.At(nid).ComputeMbb();
      if (i == 0) {
        // Root level: grow a new root if the old one split.
        if (pending) {
          const PageId new_root = store_.Allocate();
          NodeT& r = store_.At(new_root);
          r.level = store_.At(nid).level + 1;
          r.entries.push_back(EntryT{new_mbb, nid});
          r.entries.push_back(*pending);
          root_ = new_root;
          OnNodeUpdated(new_root);
          if (clipping_) Reclip(new_root, ReclipCause::kSplit);
        }
        return;
      }
      // Update the parent's entry for this node (and add the split
      // sibling); the parent becomes path[i-1]'s "modification".
      const PageId parent = path[i - 1];
      NodeT& pn = store_.At(parent);
      old_mbb = pn.ComputeMbb();
      const int ci = pn.FindChild(nid);
      pn.entries[ci].rect = new_mbb;
      changed_rects[0] = new_mbb;
      num_changed = 1;
      if (pending) {
        pn.entries.push_back(*pending);
        changed_rects[1] = pending->rect;
        num_changed = 2;
        pending.reset();
      }
      OnNodeUpdated(parent);
    }
  }

  /// Recomputes MBBs from path[i] to the root after a shrink (forced
  /// reinsert removal or deletion), re-clipping nodes whose MBB changed.
  void RefreshMbbsUpward(const std::vector<PageId>& path, int i) {
    const RectT root_before =
        clipping_ ? store_.At(path[0]).ComputeMbb() : RectT::Empty();
    bool reached_root = false;
    for (int j = i; j >= 1; --j) {
      const PageId nid = path[j];
      const PageId parent = path[j - 1];
      NodeT& pn = store_.At(parent);
      const int ci = pn.FindChild(nid);
      const RectT new_mbb = store_.At(nid).ComputeMbb();
      const bool node_mbb_changed = !(pn.entries[ci].rect == new_mbb);
      if (node_mbb_changed && clipping_) {
        // The node's own corners moved; its clip anchors are stale.
        Reclip(nid, ReclipCause::kMbbChange);
      }
      if (!node_mbb_changed) return;  // nothing further changes upward
      pn.entries[ci].rect = new_mbb;
      OnNodeUpdated(parent);
      // A shrink only *removes* content from the parent's box, so the
      // parent's clip points stay valid (lazy rule); the parent's own MBB
      // change, if any, is handled on the next loop iteration.
      if (j == 1) reached_root = true;
    }
    // The root's MBB is implicit; if its box shrank, its clip anchors moved.
    if (clipping_ && reached_root &&
        !(store_.At(path[0]).ComputeMbb() == root_before)) {
      Reclip(path[0], ReclipCause::kMbbChange);
    }
  }

  // ------------------------------------------------------------- deletion

  bool FindLeaf(PageId nid, const RectT& rect, ObjectId oid,
                std::vector<PageId>* path) const {
    path->push_back(nid);
    const NodeT& n = store_.At(nid);
    if (n.IsLeaf()) {
      for (const EntryT& e : n.entries) {
        if (e.id == oid && e.rect == rect) return true;
      }
    } else {
      for (const EntryT& e : n.entries) {
        if (e.rect.Contains(rect) &&
            FindLeaf(e.id, rect, oid, path)) {
          return true;
        }
      }
    }
    path->pop_back();
    return false;
  }

  void CondenseTree(std::vector<PageId>& path) {
    --num_objects_;
    // The root has no parent entry, so the loop below cannot detect its
    // MBB shrinking; snapshot it and re-clip at the end if it moved (same
    // rule as RefreshMbbsUpward).
    const RectT root_before =
        clipping_ ? store_.At(path[0]).ComputeMbb() : RectT::Empty();
    std::vector<std::pair<EntryT, int>> orphans;  // entry + target level
    for (int i = static_cast<int>(path.size()) - 1; i >= 1; --i) {
      const PageId nid = path[i];
      const PageId parent = path[i - 1];
      NodeT& n = store_.At(nid);
      NodeT& pn = store_.At(parent);
      const int ci = pn.FindChild(nid);
      if (static_cast<int>(n.entries.size()) < opts_.min_entries) {
        // Underflow: dissolve the node, reinsert its entries later.
        for (const EntryT& e : n.entries) {
          orphans.emplace_back(e, n.level);
        }
        pn.entries.erase(pn.entries.begin() + ci);
        clip_index_.Erase(nid);
        store_.Free(nid);
        OnNodeUpdated(parent);
      } else {
        const RectT new_mbb = n.ComputeMbb();
        if (!(pn.entries[ci].rect == new_mbb)) {
          pn.entries[ci].rect = new_mbb;
          if (clipping_) Reclip(nid, ReclipCause::kMbbChange);
        }
        // The parent's variant state can depend on the child's even when
        // the MBB is unchanged (an HR leaf's LHV may drop without moving
        // its box); refresh unconditionally so maintained state matches a
        // bottom-up recomputation. Lazy rule (§IV-D) still holds: content
        // removal without MBB change never requires a re-clip.
        OnNodeUpdated(parent);
      }
    }
    // Root MBB shrank: its clip anchors are stale (they may now lie
    // outside the box), so rebuild them before the root possibly changes.
    if (clipping_ &&
        !(store_.At(path[0]).ComputeMbb() == root_before)) {
      Reclip(path[0], ReclipCause::kMbbChange);
    }
    // Shrink the root if it became a chain (or empty).
    while (true) {
      NodeT& r = store_.At(root_);
      if (r.IsLeaf()) break;
      if (r.entries.empty()) {
        clip_index_.Erase(root_);
        store_.Free(root_);
        root_ = store_.Allocate();  // fresh empty leaf
        break;
      }
      if (r.entries.size() != 1) break;
      const PageId child = r.entries[0].id;
      clip_index_.Erase(root_);
      store_.Free(root_);
      root_ = child;
    }
    // Reinsert orphans (objects at level 0, subtree entries higher). Object
    // count is restored inside InsertEntryAtLevel for level-0 entries.
    for (const auto& [e, level] : orphans) {
      if (level == 0) {
        InsertEntryAtLevel(e, 0);
      } else {
        // A dissolved internal node's entries point at level-(level-1)
        // subtrees; they must be reattached at their original level.
        InsertEntryAtLevel(e, level);
      }
    }
  }

  // ------------------------------------------------------------- clipping

  void Reclip(PageId nid, ReclipCause cause) {
    switch (cause) {
      case ReclipCause::kSplit:
        ++reclip_stats_.splits;
        break;
      case ReclipCause::kMbbChange:
        ++reclip_stats_.mbb_changes;
        break;
      case ReclipCause::kCbbChange:
        ++reclip_stats_.cbb_changes;
        break;
    }
    RebuildNodeClips(nid);
  }

  void RebuildNodeClips(PageId nid) {
    const NodeT& n = store_.At(nid);
    const auto children = n.ChildRects();
    Timer t;
    clip_index_.Set(
        nid, core::BuildClips<D>(n.ComputeMbb(), children, clip_cfg_));
    clip_seconds_ += t.ElapsedSeconds();
  }

  void RebuildAllClips() {
    clip_index_.Clear();
    ForEachNode([&](PageId id, const NodeT&) { RebuildNodeClips(id); });
  }

  void RebuildAllClipsParallel(unsigned threads) {
    clip_index_.Clear();
    std::vector<PageId> ids;
    ForEachNode([&](PageId id, const NodeT&) { ids.push_back(id); });
    if (threads > ids.size()) threads = static_cast<unsigned>(ids.size());
    if (threads == 0) threads = 1;
    Timer wall;
    std::vector<std::vector<std::pair<PageId, std::vector<core::ClipPoint<D>>>>>
        partial(threads);
    std::atomic<size_t> next{0};
    auto worker = [&](unsigned t) {
      for (size_t i = next.fetch_add(1); i < ids.size();
           i = next.fetch_add(1)) {
        const NodeT& n = store_.At(ids[i]);
        partial[t].emplace_back(
            ids[i],
            core::BuildClips<D>(n.ComputeMbb(), n.ChildRects(), clip_cfg_));
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
    for (auto& chunk : partial) {
      for (auto& [id, clips] : chunk) clip_index_.Set(id, std::move(clips));
    }
    clip_seconds_ += wall.ElapsedSeconds();
  }

  /// Node source of the shared traversals (rtree/traverse.h): nodes
  /// straight from the store, read through the SoA mirror while the
  /// accelerator is fresh (the vectorised IntersectsAll mask, contiguous
  /// ids and coordinates) and through the AoS entries once an update made
  /// it stale. Both give the same ids, distances and mask bits.
  struct MemorySource {
    struct View {
      const NodeT* node = nullptr;
      SoaNodeView<D> soa;  // n == 0 while the accelerator is stale
      bool fresh = false;
      uint32_t n() const { return static_cast<uint32_t>(node->entries.size()); }
      bool IsLeaf() const { return node->IsLeaf(); }
      int64_t Id(uint32_t i) const {
        return fresh ? soa.id[i] : node->entries[i].id;
      }
      const RectT& EntryRect(uint32_t i) const {
        return node->entries[i].rect;
      }
      double MinDist2(uint32_t i, const geom::Vec<D>& q) const {
        return fresh ? SoaMinDist2<D>(soa, i, q)
                     : core::MinDist2<D>(q, node->entries[i].rect);
      }
      const uint64_t* Mask(const RectT& w, TraversalScratch* s) const {
        uint64_t* mask = s->MaskFor(n());
        if (fresh) {
          IntersectsAll<D>(soa, w, mask, s->FlagsFor(n()));
          return mask;
        }
        for (uint32_t i = 0; i * 64 < n(); ++i) mask[i] = 0;
        for (uint32_t i = 0; i < n(); ++i) {
          mask[i >> 6] |= static_cast<uint64_t>(EntryRect(i).Intersects(w))
                          << (i & 63);
        }
        return mask;
      }
    };

    explicit MemorySource(const RTree& t) : tree(&t), fresh(t.AccelFresh()) {}
    int64_t root() const { return tree->root_; }
    bool clipped() const { return tree->clipping_; }
    bool Acquire(int64_t id, View* v) const {
      v->node = &tree->store_.At(id);
      v->fresh = fresh;
      if (fresh) v->soa = tree->soa_.NodeView(id);
      return true;
    }
    void Release(int64_t) const {}
    bool ChildOk(int64_t, int64_t) const { return true; }
    std::span<const core::ClipPoint<D>> Clips(int64_t child) const {
      return tree->clip_index_.Get(child);
    }

    const RTree* tree;
    bool fresh;
  };

  using Timer = clipbb::Timer;

  RTreeOptions opts_;
  storage::PageStore<NodeT> store_;
  PageId root_ = kInvalidPage;
  size_t num_objects_ = 0;

  bool clipping_ = false;
  ClipConfigT clip_cfg_{};
  core::ClipIndex<D> clip_index_;
  ReclipStats reclip_stats_;
  double clip_seconds_ = 0.0;

  // Flat read-path accelerator: SoA mirror of all entries, rebuilt by
  // RefreshAccel and valid only while soa_version_ == version_.
  SoaMatrix<D> soa_;
  uint64_t version_ = 1;
  uint64_t soa_version_ = 0;
};

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_RTREE_H_
