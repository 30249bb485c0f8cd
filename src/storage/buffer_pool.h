// Lock-striped LRU buffer pool of the paged storage engine.
//
// The pool owns page-sized frames over a PageFile. Pin(id) returns the
// frame bytes, reading the page from the file on a miss (possibly evicting
// the LRU unpinned frame, writing it back first when dirty). Pinned frames
// are never evicted; Unpin returns the frame to the LRU, optionally
// marking it dirty.
//
// Concurrency: the pool is sharded into `shards` partitions, each with its
// own mutex, LRU list, and frame map; a page's shard is fixed by a hash of
// its id. Concurrent Pin/Unpin from different threads contend only when
// their pages land in the same shard, and two threads pinning the same
// absent page serialize on its shard latch so the file is read exactly
// once (no duplicate physical reads). Per-shard capacity is the total
// capacity split evenly, so a 1-shard pool behaves exactly like the
// pre-sharding LRU (the deterministic-baseline configuration). Counter
// accessors sum the per-shard counters and are exact; for per-operation
// attribution that stays race-free under concurrency, every Pin/Unpin can
// report its own physical transfers through a caller-owned PinIo — the
// per-thread accumulate-then-sum pattern the batch query path uses.
//
// All-pinned overflow: if every frame of a shard is pinned, the shard
// grows past its capacity transiently and shrinks back on Unpin. The
// growth is bounded by the number of simultaneously pinned frames (one
// per concurrent query, plus one transaction's staged page set on the
// write path — an UpdateClips over a pool smaller than the file can pin
// O(file) frames). frames_high_water() records the worst total footprint
// so a ballooning pool is observable instead of silent.
//
// Write path (rtree/paged_rtree.h write mode): PinNew hands out a zeroed
// frame without reading the file (freshly allocated pages have no old
// contents worth a read), and dirty frames carry the LSN of the WAL record
// covering their contents. When a Wal is attached, the pool enforces the
// WAL rule — a dirty frame is written back only after its record is
// durable (flushed-LSN >= frame-LSN), syncing the log first if needed.
// The rule holds per shard: any shard's eviction path may force the sync,
// and the Wal serializes internally (its own latch; see storage/wal.h).
//
// Read-failure model: a miss read that fails (EIO, short read) or whose
// frame is rejected by the installed verifier (checksum / structural
// validation) is retried up to kMaxReadRetries times with a tiny backoff;
// the retries are observable in PinIo::read_retries / read_retries(). A
// page that still fails is quarantined: the pin returns nullptr with a
// Status naming the error kind and page, and later pins of that page
// fast-fail as kQuarantined without touching the file until Clear().
#ifndef CLIPBB_STORAGE_BUFFER_POOL_H_
#define CLIPBB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "storage/page_file.h"
#include "storage/page_store.h"
#include "storage/status.h"

namespace clipbb::storage {

class Wal;

class BufferPool {
 public:
  /// Physical transfers performed by one Pin/Unpin call, accumulated into
  /// a caller-owned (typically per-thread) counter set.
  struct PinIo {
    uint32_t reads = 0;         // file page reads (misses)
    uint32_t read_retries = 0;  // re-reads after a transient fault
    uint32_t writes = 0;        // file page writes (dirty evictions)
    uint32_t wal_syncs = 0;     // WAL syncs forced by the write-back rule
    uint64_t miss_ns = 0;       // wall time inside miss pins (I/O + verify)
  };

  /// Point-in-time copy of one shard's counters (see PerShardCounters).
  struct ShardCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t write_failures = 0;
    uint64_t wal_forced_syncs = 0;
    uint64_t read_retries = 0;
    uint64_t high_water = 0;
    uint64_t quarantined = 0;
    uint64_t frames = 0;  // current footprint
  };

  /// Miss-read validation hook: called with the freshly read frame bytes
  /// (file read or overlay image, shard latch held) before the frame
  /// becomes visible; a non-ok Status rejects the frame. File reads that
  /// fail verification are retried like any transient read fault; overlay
  /// images are in-memory and fail immediately. PagedRTree installs a
  /// format-aware verifier (checksum + structural bounds) at open.
  using PageVerifier = std::function<Status(PageId, const std::byte*)>;

  /// Pool of `capacity` frames (at least 1) over `file` (not owned; must
  /// outlive the pool). The file's page size must be set before the first
  /// Pin. `shards` > 1 lock-stripes the pool for concurrent querying
  /// threads; it is clamped to `capacity` so every shard owns at least
  /// one frame.
  BufferPool(size_t capacity, PageFile* file, unsigned shards = 1);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins a page and returns its bytes (valid until the matching Unpin).
  /// Counts a hit when the frame is loaded, a miss (plus a file page read)
  /// otherwise. Returns nullptr on read/verify failure, with the reason in
  /// `*status` when given: transient faults are retried a bounded number
  /// of times first (kMaxReadRetries, counted in PinIo::read_retries), and
  /// a page that still fails is quarantined — later pins fast-fail with
  /// kQuarantined and no file access until Clear().
  const std::byte* Pin(PageId id, PinIo* io = nullptr,
                       Status* status = nullptr);

  /// Pin for mutation: same as Pin but the frame is marked dirty, so
  /// eviction (or FlushAll) writes it back to the file.
  std::byte* PinForWrite(PageId id, PinIo* io = nullptr,
                         Status* status = nullptr);

  /// Pin for a page that has no on-disk contents yet (just allocated):
  /// returns a zeroed dirty frame without reading the file. Reuses the
  /// cached frame when one exists (a recycled free page), still zeroed.
  std::byte* PinNew(PageId id, PinIo* io = nullptr);

  /// Releases a pin taken by Pin/PinForWrite/PinNew. A non-zero `lsn`
  /// records the WAL LSN covering the frame's current contents (the frame
  /// keeps the highest LSN seen; see SetWal). Dropping the last pin may
  /// shrink transient overage, so the call can perform write-backs.
  void Unpin(PageId id, bool dirty = false, uint64_t lsn = 0,
             PinIo* io = nullptr);

  /// Replaces a pinned frame's contents wholesale (memcpy of one page
  /// under the shard latch). The write path stages pages by encoding into
  /// a private scratch buffer and installing here, so concurrent snapshot
  /// readers copying the frame (ReadPageCopy) can never observe a
  /// half-encoded page. The caller must hold a pin on `id`.
  void OverwritePinned(PageId id, const std::byte* src);

  /// Copies a page's current bytes into `dst` (one page) without leaving
  /// a pin behind: a hit copies the frame under the shard latch; a miss
  /// loads the frame (counted like a Pin miss, same retry/quarantine
  /// rules), copies it, and leaves it unpinned in the LRU. The snapshot
  /// read path uses this — its copy, combined with a post-copy re-check
  /// of the epoch chain, is what makes pinned traversals race-free
  /// against OverwritePinned.
  bool ReadPageCopy(PageId id, std::byte* dst, PinIo* io = nullptr,
                    Status* status = nullptr);

  /// Peeks a page's current bytes for epoch pre-image capture: copies the
  /// frame when resident (no hit/miss accounting, no LRU touch),
  /// otherwise reads the overlay image or the file directly without
  /// installing a frame. Sets `*from_file` to whether the bytes came from
  /// a physical read. Returns false on read failure.
  bool ReadForCapture(PageId id, std::byte* dst, bool* from_file = nullptr);

  /// Writes every dirty frame back to the file (WAL first when attached).
  /// Returns false on any write failure (remaining frames still
  /// attempted).
  bool FlushAll();

  /// Attaches the write-ahead log whose records cover this pool's dirty
  /// frames. With a log attached, no dirty frame reaches the file before
  /// its record: write-back syncs the log when flushed-LSN < frame-LSN.
  /// The Wal is internally latched, so any shard may force the sync.
  void SetWal(Wal* wal) { wal_ = wal; }

  /// Replaces the read overlay wholesale: a miss whose newest committed
  /// contents live only in a sidecar WAL — which a read-only open must
  /// not replay into the file — is served from the overlay image instead
  /// of the file. Still counted as a miss/read: it is a fault outside the
  /// pool either way. An empty map detaches the overlay; resident frames
  /// are left alone (the caller refreshes any whose bytes change).
  ///
  /// The pool owns the overlay, and it is patched in place one page at a
  /// time (PatchReadOverlay) under `overlay_mu_`, a leaf lock a miss
  /// holds only to look its page up and take a reference to the image
  /// (the copy runs outside it). Installed images are immutable — a patch
  /// swaps in a new one — so a read observes every page image whole, and
  /// advancing the overlay costs O(pages patched), not O(overlay). With
  /// no overlay attached the miss path takes no lock at all. Replaced
  /// maps and images are freed after the lock is released.
  void SetReadOverlay(RecoveredPageMap overlay);

  /// Installs one page image into the read overlay (replacing any older
  /// image of the page), then refreshes the page's resident frame, if
  /// any, to the same bytes — so a later miss and a current hit agree.
  /// The follower applier calls this per page of every applied commit
  /// window, after capturing the window's pre-images. The caller must
  /// guarantee no thread holds a raw pin on the page (the follower read
  /// path only takes latched copies).
  void PatchReadOverlay(PageId id, const std::byte* src);

  /// Pages currently held by the read overlay.
  size_t ReadOverlayPages() const;

  /// Installs fresh contents into a page's resident frame, if any (memcpy
  /// of one page under the shard latch); a non-resident page simply
  /// misses later. The caller must guarantee no thread holds a raw pin on
  /// the page. Returns whether a frame was refreshed.
  bool RefreshResident(PageId id, const std::byte* src);

  /// Enables/disables the quarantine (bounded retries still apply). A
  /// follower tails a live writer whose in-place page writes can race our
  /// preads, so a failed read there is presumed transient and the page
  /// must stay re-attemptable instead of being permanently fast-failed.
  /// Not thread-safe against concurrent pins; set before handing the pool
  /// to workers.
  void SetQuarantineEnabled(bool on) { quarantine_enabled_ = on; }

  /// Installs the miss-read verifier (see PageVerifier). Not thread-safe
  /// against concurrent pins; set it before handing the pool to workers.
  void SetVerifier(PageVerifier v) { verifier_ = std::move(v); }

  /// Extra read attempts after a failed or rejected miss read before the
  /// page is given up on and quarantined.
  static constexpr unsigned kMaxReadRetries = 2;

  bool Resident(PageId id) const;

  uint64_t hits() const { return Sum(&Shard::hits); }
  uint64_t misses() const { return Sum(&Shard::misses); }
  /// Frames evicted to make room (dirty or clean; every dirty eviction is
  /// also a writeback).
  uint64_t evictions() const { return Sum(&Shard::evictions); }
  uint64_t writebacks() const { return Sum(&Shard::writebacks); }
  /// Miss re-reads after a transient read failure or verify rejection.
  uint64_t read_retries() const { return Sum(&Shard::read_retries); }
  /// Pages that exhausted their retries and are now fast-failed.
  size_t quarantined_pages() const;
  /// WAL syncs forced by the write-back rule (eviction or flush reached a
  /// dirty frame whose record was not yet durable).
  uint64_t wal_forced_syncs() const { return Sum(&Shard::wal_forced_syncs); }
  /// Dirty frames whose write-back failed (their modifications are lost);
  /// nonzero means the file no longer reflects every PinForWrite.
  uint64_t write_failures() const { return Sum(&Shard::write_failures); }
  size_t capacity() const { return capacity_; }
  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
  size_t size() const;

  /// Largest total frame count the pool ever held (sum of per-shard high
  /// waters, so with >1 shard it is an upper bound on the simultaneous
  /// footprint; exact for a single shard). frames_high_water() - capacity()
  /// is the worst all-pinned overage — a tiny pool under a large
  /// transaction balloons to the transaction's staged page set, and this
  /// counter is the signal (see the class comment).
  uint64_t frames_high_water() const { return Sum(&Shard::high_water); }

  /// Per-shard counter snapshot, index = shard number. Each shard is read
  /// under its own latch, so every row is internally consistent (the rows
  /// are not a single atomic cross-shard cut, same as the Sum accessors).
  std::vector<ShardCounters> PerShardCounters() const;

  /// Merged pin latency distributions (hit pins / miss pins). Recorded
  /// under the shard latch with plain counters — the same no-atomics
  /// discipline as the counters — and summed across shards here. The
  /// timer starts before the latch, so latch wait is included.
  obs::Histogram PinHitLatency() const;
  obs::Histogram PinMissLatency() const;

  /// Publishes the pool's counters, per-shard gauges, and pin latency
  /// histograms into `registry` under pool_* names (idempotent Set/
  /// overwrite semantics — safe to call repeatedly on a live pool).
  void PublishMetrics(obs::MetricsRegistry& registry) const;

  void ResetCounters();

  /// Drops every frame (dirty frames are written back first) and resets
  /// the counters.
  void Clear();

  /// Drops every frame WITHOUT write-back — dirty contents are discarded.
  /// The poisoned-writer path uses this: after a staging failure the
  /// frames hold uncommitted mutations that must never reach the file;
  /// dropping them leaves the file at the last durable commit (plus
  /// whatever the WAL replays on the next open). Frames must be unpinned.
  void DiscardAll();

 private:
  struct Frame {
    std::unique_ptr<std::byte[]> data;
    uint32_t pins = 0;
    bool dirty = false;
    bool loaded = false;
    bool in_lru = false;
    uint64_t lsn = 0;  // highest WAL LSN covering the contents
    std::list<PageId>::iterator lru_it;
  };

  /// One lock-striped partition: frames whose page id hashes here.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;  // this shard's slice of the pool capacity
    std::list<PageId> lru;  // front = most recent; unpinned frames only
    std::unordered_map<PageId, Frame> map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t write_failures = 0;
    uint64_t wal_forced_syncs = 0;
    uint64_t read_retries = 0;
    uint64_t high_water = 0;  // max frames this shard ever held
    obs::Histogram pin_hit_ns;   // hit-pin latency (latch wait included)
    obs::Histogram pin_miss_ns;  // miss-pin latency (read + verify + evict)
    /// Pages whose miss read kept failing after kMaxReadRetries; pins
    /// fast-fail until Clear() gives them another chance.
    std::unordered_set<PageId> quarantined;
  };

  Shard& ShardFor(PageId id);
  const Shard& ShardFor(PageId id) const;

  std::byte* PinImpl(PageId id, bool dirty, PinIo* io, Status* status);
  /// The miss fetch: reads the page (or copies the overlay image), runs
  /// the verifier, and retries transient failures. Shard latch held.
  bool LoadFrame(Shard& s, PageId id, std::byte* dst, PinIo* io,
                 Status* status);
  /// Evicts the shard's LRU unpinned frame (writing back when dirty);
  /// false when every frame is pinned. Shard latch held by the caller.
  bool EvictOne(Shard& s, PinIo* io);
  /// WAL-rule write-back of one dirty frame. Shard latch held.
  bool WriteBack(Shard& s, PageId id, Frame& f, PinIo* io);
  void MoveToFront(Shard& s, PageId id, Frame& f);
  void NoteGrowth(Shard& s);
  /// Zeroes one shard's counters (high water restarts at the current
  /// footprint). Shard latch held by the caller.
  static void ResetShardCounters(Shard& s);

  uint64_t Sum(uint64_t Shard::*counter) const;

  /// Copies the overlay image of `id` into `dst` (one page); false when
  /// the overlay holds no image of it. Lock-free when no overlay is
  /// attached; otherwise takes overlay_mu_ for the lookup only.
  bool CopyFromOverlay(PageId id, std::byte* dst) const;

  /// One immutable page image per overlaid page; a patch replaces the
  /// pointer, so readers copy from an image no writer touches.
  using OverlayMap =
      std::unordered_map<PageId, std::shared_ptr<const std::vector<std::byte>>>;

  size_t capacity_;
  PageFile* file_;
  Wal* wal_ = nullptr;
  /// Read-only redo / follower page images (guarded by overlay_mu_, a
  /// leaf lock — safe to take under a shard latch). `overlay_attached_`
  /// mirrors !overlay_.empty() so misses skip the lock when it is false.
  OverlayMap overlay_;
  mutable std::mutex overlay_mu_;
  std::atomic<bool> overlay_attached_{false};
  bool quarantine_enabled_ = true;
  PageVerifier verifier_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace clipbb::storage

#endif  // CLIPBB_STORAGE_BUFFER_POOL_H_
