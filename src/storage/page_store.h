// In-memory page store for R-tree nodes.
//
// The paper's experiments measure I/O as page-access *counts* (the trees
// themselves are memory-resident during measurement, §V). The store keeps
// nodes addressable by stable ids with a free list for deletions; the
// scalability experiment layers an LRU BufferPool over the same ids to
// model a cold disk.
//
// Two optional hooks turn the store into the memory mirror of a paged
// file (rtree/paged_rtree.h write mode):
//
//  * an Observer sees every allocation, free, and mutable access — the
//    paged writer uses it to collect the dirty-page set of one tree
//    operation (every mutable At() marks its page dirty; the R-tree's
//    update path only takes mutable references on pages it writes);
//  * an IdSource supplies page ids on Allocate and receives them back on
//    Free, so the file's free-page map — not the store — owns the id
//    space and store ids stay equal to file page indexes.
//
// Not thread-safe: the store backs the in-memory tree and the paged
// writer's mirror, both single-writer. Concurrent readers are fine only
// while no thread mutates (the batch query path relies on exactly that).
#ifndef CLIPBB_STORAGE_PAGE_STORE_H_
#define CLIPBB_STORAGE_PAGE_STORE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace clipbb::storage {

using PageId = int64_t;
inline constexpr PageId kInvalidPage = -1;

/// Full-page images keyed by absolute file page index — the in-memory
/// redo overlay a read-only open builds from a sidecar WAL it must not
/// replay into the file (folded from the log tailer's first poll,
/// storage/wal_scan.h; the BufferPool consults it on miss before
/// touching the file). The epoch machinery
/// (storage/epoch.h, rtree/epoch.h) generalizes the same shape into a
/// per-epoch chain of these maps holding pre-images for pinned snapshot
/// readers.
using RecoveredPageMap = std::unordered_map<PageId, std::vector<std::byte>>;

/// Sees every id-space and content mutation of a PageStore.
struct PageStoreObserver {
  virtual ~PageStoreObserver() = default;
  virtual void OnAllocate(PageId id) = 0;
  virtual void OnFree(PageId id) = 0;
  /// A mutable reference to the page was handed out.
  virtual void OnTouchMutable(PageId id) = 0;
};

/// External id allocator (the paged file's free-page map).
struct PageIdSource {
  virtual ~PageIdSource() = default;
  virtual PageId NextId() = 0;
  virtual void ReleaseId(PageId id) = 0;
};

/// Stable-id container of fixed-type pages.
template <typename PageT>
class PageStore {
 public:
  /// Allocates a fresh (or recycled) page id holding a default PageT.
  PageId Allocate() {
    PageId id;
    if (id_source_ != nullptr) {
      id = id_source_->NextId();
      EnsureSlot(id);
      assert(!live_[id]);
      pages_[id] = PageT{};
      live_[id] = true;
    } else if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      pages_[id] = PageT{};
      live_[id] = true;
    } else {
      pages_.emplace_back();
      live_.push_back(true);
      id = static_cast<PageId>(pages_.size() - 1);
    }
    ++live_count_;
    if (observer_ != nullptr) observer_->OnAllocate(id);
    return id;
  }

  void Free(PageId id) {
    assert(IsLive(id));
    live_[id] = false;
    pages_[id] = PageT{};
    --live_count_;
    if (id_source_ != nullptr) {
      id_source_->ReleaseId(id);
    } else {
      free_.push_back(id);
    }
    if (observer_ != nullptr) observer_->OnFree(id);
  }

  PageT& At(PageId id) {
    assert(IsLive(id));
    if (observer_ != nullptr) observer_->OnTouchMutable(id);
    return pages_[id];
  }

  const PageT& At(PageId id) const {
    assert(IsLive(id));
    return pages_[id];
  }

  bool IsLive(PageId id) const {
    return id >= 0 && id < static_cast<PageId>(pages_.size()) && live_[id];
  }

  /// Number of live pages.
  size_t Size() const { return live_count_; }

  /// Upper bound over ever-allocated ids (for iteration with IsLive).
  size_t Capacity() const { return pages_.size(); }

  void Clear() {
    pages_.clear();
    live_.clear();
    free_.clear();
    live_count_ = 0;
  }

  // ---------------------------------------------- sparse-layout restore
  // A paged file's id space has holes (free pages, clip-spill pages); the
  // write-mode open reproduces the exact layout so store ids stay equal
  // to file page indexes: grow dead capacity, then materialize each node
  // at its file index. Dead slots are neither live nor on the free list —
  // free-list management belongs to the attached IdSource.

  /// Grows the store to at least `n` slots, all dead (no-op when already
  /// that large). Does not touch live pages.
  void EnsureCapacity(size_t n) {
    if (pages_.size() < n) {
      pages_.resize(n);
      live_.resize(n, 0);
    }
  }

  /// Materializes a page at a specific dead slot (restore path; bypasses
  /// the IdSource — the id is dictated by the file layout).
  void AllocateAt(PageId id, PageT page) {
    EnsureSlot(id);
    assert(!live_[id]);
    pages_[id] = std::move(page);
    live_[id] = true;
    ++live_count_;
    if (observer_ != nullptr) observer_->OnAllocate(id);
  }

  // ------------------------------------------------------------- hooks

  void SetObserver(PageStoreObserver* obs) { observer_ = obs; }
  void SetIdSource(PageIdSource* src) { id_source_ = src; }

 private:
  void EnsureSlot(PageId id) {
    assert(id >= 0);
    if (id >= static_cast<PageId>(pages_.size())) {
      pages_.resize(static_cast<size_t>(id) + 1);
      live_.resize(static_cast<size_t>(id) + 1, 0);
    }
  }

  std::vector<PageT> pages_;
  std::vector<char> live_;
  std::vector<PageId> free_;
  size_t live_count_ = 0;
  PageStoreObserver* observer_ = nullptr;
  PageIdSource* id_source_ = nullptr;
};

}  // namespace clipbb::storage

#endif  // CLIPBB_STORAGE_PAGE_STORE_H_
