// Disk-resident (clipped) R-tree on the paged storage engine: open a
// serialized tree file (rtree/serialize.h, paged format) and answer range,
// kNN, and batched queries by decoding node pages pinned in the buffer
// pool — nothing but the clip table and the traversal state lives in
// memory. The packed SoA page layout lets the shared scan kernels
// (IntersectsAll, SoaMinDist2) run directly over the pinned frame bytes,
// and queries run the traversals of rtree/traverse.h — the same bodies as
// the in-memory RTree, so results, visit order, and logical access counts
// are identical by construction.
//
// Three modes:
//
//  * Open(): read-only, as in the paper's scalability setup (§V-C) — the
//    clip table and superblock are memory-resident (one sequential scan at
//    open), node pages are fetched on demand through a frame-owning LRU
//    BufferPool, and every physical transfer is counted
//    (IoStats::page_reads/page_writes).
//
//  * Open() with OpenOptions::mode = kReadWrite — Insert/Delete/
//    UpdateClips mutate pinned frames in place. The caller supplies an
//    empty tree of the file's variant; it is restored as a memory mirror
//    whose node ids equal file page indexes (store observer + free-page-map
//    id source), runs the exact same update algorithms as the in-memory
//    tree — so the paged tree evolves structurally identically, the §V-C
//    memory-residency assumption for directory decisions holds, and the
//    physical page traffic is real: each operation faults the pages it
//    modifies through the pool (page_reads), re-encodes them into the
//    pinned frames, and write-back happens on eviction/flush
//    (page_writes). Node splits and clip-run spill relocation allocate
//    pages from the superblock-anchored free-page map
//    (storage/free_page_map.h); deletes release them — the file never
//    grows while free pages exist. Every modified page's post-image goes
//    to the write-ahead log before the frame can reach the file
//    (storage/wal.h), one commit record per operation, fsync every
//    `commit_every` operations; both modes run WAL redo first, so a crash
//    at any point recovers to the last durable commit. The superblock is
//    logged per operation but reaches the file only at a checkpoint, after
//    the data pages it describes. An operation that leaves the log past
//    kWalCheckpointBytes checkpoints before it returns, so the log stays
//    bounded without explicit Checkpoint() calls.
//
//  * Open() with OpenOptions::mode = kFollow — a live READ REPLICA of a
//    writer running in another process. Opens read-only (the file
//    O_RDONLY, the sidecar .wal never written), then tails the writer's
//    log (storage/wal_scan.h): each Refresh() scans the committed log
//    suffix past the replica's applied LSN and applies every complete
//    commit window — pre-images captured into the epoch chain, page
//    images patched in place into the pool's read overlay (one page at
//    a time, so a window costs O(its pages)), clip runs decoded into the
//    replica's clip index — publishing exactly one epoch per committed
//    transaction. Pinned snapshots get the same isolation as in-process
//    readers; unpinned queries auto-pin the latest applied epoch and see
//    the data of the last Refresh() (the caller picks the cadence, from
//    any thread). When the writer checkpoints it bumps the
//    superblock's checkpoint generation BEFORE truncating the log; the
//    replica detects the bump (or a shrunk log) and rebases. A replica
//    that applied every window the checkpointed file reflects (applied
//    LSN >= the file superblock's LSN) already shows exactly the file's
//    bytes, so its rebase is O(1): drop the overlay, install the new
//    superblock, republish. Otherwise the full rebase re-reads every
//    section page from the durable file, captures the changed ones, drops
//    its overlay, and keeps pinned epochs valid via the refcounted
//    pre-image chain. A pinned epoch whose pre-image was lost to a racing
//    writer write-back fails kStaleSnapshot rather than serve a
//    torn-in-time view.
//
// Thread safety: the read path (RangeQuery/RangeCount/Knn) may
// be called concurrently from many threads against one PagedRTree — the
// buffer pool is lock-striped (OpenOptions::pool_shards picks the stripe
// count), the clip table is compacted at open and read-only afterwards,
// the sticky io_error flag is atomic, and per-query I/O accounting flows
// through caller-owned IoStats (per-thread, summed by the batch layer),
// so counters stay exact without a shared hot counter. Each concurrent
// caller must own its TraversalScratch. The write path stays
// single-writer, and *unpinned* (latest-epoch) queries still must not
// overlap it — the memory mirror and the live clip table are
// unsynchronized. Queries on a pinned Snapshot (PinSnapshot) MAY run
// concurrently with the writer: they read only epoch-frozen state (the
// snapshot's EpochTreeView plus the pre-image chain in rtree/epoch.h)
// and copy frame bytes out under the pool's shard latches, so 4 reader
// threads against a committing writer is a supported, TSan-clean
// configuration. A pinned snapshot observes exactly the tree as of its
// epoch's publish point (a group-commit boundary, Commit(), or
// Checkpoint()) — never a mid-window or uncommitted state.
#ifndef CLIPBB_RTREE_PAGED_RTREE_H_
#define CLIPBB_RTREE_PAGED_RTREE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/clip_index.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "rtree/epoch.h"
#include "rtree/page_format.h"
#include "rtree/rtree.h"
#include "rtree/serialize.h"
#include "storage/buffer_pool.h"
#include "storage/free_page_map.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "storage/wal_scan.h"

namespace clipbb::rtree {

/// Sidecar write-ahead-log path of a paged tree file.
inline std::string WalPathFor(const std::string& path) {
  return path + ".wal";
}

/// Serializes `tree` straight into a page file at `path` (the same bytes
/// SerializeTree writes to a stream). Any stale sidecar WAL is removed —
/// it described the previous file's pages. Returns false on I/O failure.
template <int D>
bool WritePagedTree(const RTree<D>& tree, const std::string& path,
                    uint32_t user_tag = 0) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const bool ok = out && SerializeTree<D>(tree, out, user_tag) > 0 &&
                  static_cast<bool>(out.flush());
  if (ok) std::remove(WalPathFor(path).c_str());
  return ok;
}

template <int D>
class PagedRTree {
 public:
  using RectT = geom::Rect<D>;
  using SnapshotT = Snapshot<D>;

  /// Access mode of an open (OpenOptions::mode).
  enum class OpenMode : uint8_t {
    kReadOnly,   ///< queries only; the file opens O_RDONLY
    kReadWrite,  ///< arms the write path (requires a variant mirror)
    kFollow,     ///< live read replica of a writer in another process
  };

  struct OpenOptions {
    /// Buffer-pool frames; 0 derives max(16, section pages / 10) — the
    /// 10 % cold-pool ratio of the Fig. 15 setup.
    size_t pool_pages = 0;
    /// Lock stripes of the buffer pool. 1 (the default) reproduces the
    /// single LRU exactly — the deterministic-baseline configuration;
    /// pass ~the number of querying threads for the concurrent batch
    /// path (clamped so every shard owns at least one frame).
    unsigned pool_shards = 1;
    /// Write mode: operations per WAL fsync (group commit). 1 makes every
    /// operation durable on return; larger values batch commits and a
    /// crash loses at most the unsynced suffix.
    size_t commit_every = 1;
    /// Read-only (the default), read-write (requires the `variant`
    /// argument of Open()), or follower replica.
    OpenMode mode = OpenMode::kReadOnly;
  };

  PagedRTree() = default;
  ~PagedRTree() { Close(); }

  PagedRTree(const PagedRTree&) = delete;
  PagedRTree& operator=(const PagedRTree&) = delete;

  /// Opens a file written by SerializeTree / WritePagedTree, in the mode
  /// `opts.mode` selects.
  ///
  /// kReadOnly (the default; `variant` must be null): any sidecar WAL is
  /// redone INTO MEMORY first (a crashed writer's file opens to its last
  /// durable commit): the committed page images build an overlay the
  /// buffer pool consults on miss, and neither the page file nor the log
  /// is written — the file is opened O_RDONLY, so a reader can never
  /// clobber a live writer's pages or truncate the log that is that
  /// writer's only durable copy (redo is idempotent; the next open just
  /// rebuilds the overlay). Then one sequential scan loads the clip table
  /// (when the tree is clipped) and the root's MBB; node pages stay on
  /// disk. Physical-read counters start at zero afterwards.
  ///
  /// kReadWrite: `variant` must be an empty tree of the file's variant
  /// (it supplies ChooseSubtree/Split behaviour and becomes the memory
  /// mirror; its previous contents are discarded). Replays the WAL,
  /// restores the mirror at file page indexes, and arms the write path.
  /// Queries work exactly as in read-only mode.
  ///
  /// kFollow: a read-only open that then tracks the live writer — see
  /// the header comment and Refresh().
  bool Open(const std::string& path, const OpenOptions& opts = {},
            std::unique_ptr<RTree<D>> variant = nullptr) {
    if (opts.mode == OpenMode::kReadWrite) {
      return OpenWriteImpl(path, std::move(variant), opts);
    }
    if (variant != nullptr) return false;  // a mirror implies write intent
    return OpenReadImpl(path, opts);
  }

 private:
  /// Read-only and follower opens share this body: redo into the
  /// overlay, one scan for the clip table and root, then the pool. A
  /// follower's state then tracks the live writer through the sidecar
  /// log. The open-time redo overlay comes from the first poll of the
  /// follower's own tailer, which therefore resumes past every window
  /// the overlay reflects: the log is read once.
  bool OpenReadImpl(const std::string& path, const OpenOptions& opts) {
    Close();
    if (!OpenAndRecover(path, /*writable=*/false)) return false;
    std::vector<std::byte> page(sb_.file_page_size);
    if (!LoadRootAndClips(&page, &clip_index_, nullptr, nullptr, nullptr)) {
      file_.Close();
      return false;
    }
    clip_index_.Compact();
    clips_ = &clip_index_;
    op_seq_ = std::max(sb_.last_op_seq, recovery_.last_op_seq);
    if (opts.mode != OpenMode::kFollow) {
      tailer_.reset();
      FinishOpen(opts);
      return true;
    }
    follow_mode_ = true;
    // Committed state only: a pending record tail (a reader-forced sync
    // can make one durable mid-transaction) is not applied, and counting
    // its LSNs would let Rebase take a transaction this replica never
    // saw for one it already has.
    applied_lsn_ = std::max(sb_.lsn, recovery_.last_commit_lsn);
    // The generation and the tailer's offset belong to one log
    // incarnation: every committed window carries a superblock image, so
    // a tailer past the header read sb_ from that log; a tailer at the
    // header is valid in any incarnation. A later truncate or regrow is
    // then caught by Refresh's generation check.
    gen_ = sb_.checkpoint_gen;
    FinishOpen(opts);
    // A read racing the live writer's in-place pwrite can observe a torn
    // page; that is a transient, not a bad medium — never quarantine.
    pool_->SetQuarantineEnabled(false);
    // Queries in follow mode always run pinned, and pinned clip lookups
    // resolve through the epoch manager.
    ArmEpochClips(clip_index_);
    return true;
  }

  /// Snapshot readers resolve clip runs through the epoch manager (the
  /// live index is unsynchronized against the writer or applier), so seed
  /// its stable base table from `index` and install the pre-mutation hook
  /// that captures first-touch clip pre-images.
  void ArmEpochClips(core::ClipIndex<D>& index) {
    typename EpochManager<D>::ClipMap base;
    index.ForEach(
        [&](core::NodeId nid, std::span<const core::ClipPoint<D>> run) {
          base.emplace(nid, typename EpochManager<D>::ClipRun(run.begin(),
                                                              run.end()));
        });
    epochs_->SeedBaseClips(std::move(base));
    index.SetMutateHook(
        [this](core::NodeId nid, std::span<const core::ClipPoint<D>> old_run) {
          OnClipMutate(nid, old_run);
        });
  }

  /// Closes the log and the page file and detaches and drops the write
  /// mirror — the teardown shared by Close() and a failed write open.
  /// The pool must already be gone (its destructor flushes to file_).
  void CloseFilesAndMirror() {
    assert(!pool_);
    wal_.Close();
    file_.Close();
    if (tree_) {
      tree_->SetStoreObserver(nullptr);
      tree_->SetStoreIdSource(nullptr);
      tree_->mutable_clip_index().SetMutateHook(nullptr);
      tree_.reset();
    }
    hooks_.reset();
    clips_ = &clip_index_;  // never leave clips_ aimed at a dead mirror
  }

  bool OpenWriteImpl(const std::string& path,
                     std::unique_ptr<RTree<D>> variant,
                     const OpenOptions& opts) {
    Close();
    if (variant == nullptr) return false;
    if (!OpenAndRecover(path, /*writable=*/true)) return false;

    // Scan the section: nodes at their file indexes, spilled clip runs
    // reattached to their owners, free pages collected for the chain walk.
    std::vector<std::byte> page(sb_.file_page_size);
    std::vector<std::pair<storage::PageId, Node<D>>> nodes;
    std::unordered_map<storage::PageId, std::vector<core::ClipPoint<D>>>
        clips;
    std::unordered_map<storage::PageId, int64_t> free_next;
    if (!LoadRootAndClips(&page, nullptr, &nodes, &clips, &free_next)) {
      file_.Close();
      return false;
    }

    // Walk the superblock-anchored free chain; its length and membership
    // must agree with the per-page flags or the file is corrupt.
    std::vector<storage::PageId> chain;
    int64_t cur = sb_.free_head;
    while (cur != -1 && chain.size() <= free_next.size()) {
      auto it = free_next.find(cur);
      if (it == free_next.end()) {  // chain hits a non-free page
        file_.Close();
        return false;
      }
      chain.push_back(cur);
      cur = it->second;
    }
    if (chain.size() != free_next.size() || chain.size() != sb_.free_count) {
      file_.Close();
      return false;
    }

    core::ClipConfig<D> cfg;
    if (sb_.clipped) {
      cfg.mode = static_cast<core::ClipMode>(sb_.clip_mode);
      cfg.max_clips = sb_.max_clips;
      cfg.tau = sb_.tau;
    }
    RTreeOptions topts = variant->options();
    topts.page_size = sb_.page_size;
    topts.max_entries = sb_.max_entries;
    topts.min_entries = sb_.min_entries;
    tree_ = std::move(variant);
    tree_->RestoreFromPagedLayout(topts, sb_.num_section_pages,
                                  std::move(nodes), sb_.root_page,
                                  sb_.num_objects, sb_.clipped != 0, cfg,
                                  std::move(clips));
    if (!free_map_.Reset(sb_.num_section_pages, std::move(chain))) {
      CloseFilesAndMirror();
      return false;
    }
    hooks_ = std::make_unique<StoreHooks>(this);
    tree_->SetStoreObserver(hooks_.get());
    tree_->SetStoreIdSource(hooks_.get());
    clips_ = &tree_->clip_index();

    if (!wal_.Open(WalPathFor(path), sb_.file_page_size,
                   std::max(sb_.lsn, recovery_.max_lsn) + 1)) {
      CloseFilesAndMirror();
      return false;
    }
    if (recovery_.records_scanned > 0 || recovery_.tail_discarded > 0) {
      // Recovery just truncated a log a follower may have been tailing —
      // advance the checkpoint generation so it rebases instead of
      // resuming its old byte offset into this fresh log incarnation.
      stage_buf_.resize(sb_.file_page_size);
      if (!BumpCheckpointGen()) {
        CloseFilesAndMirror();
        return false;
      }
    }
    FinishOpen(opts);
    pool_->SetWal(&wal_);
    write_mode_ = true;
    commit_every_ = opts.commit_every > 0 ? opts.commit_every : 1;
    // Redo already replayed the newest durable superblock, whose
    // last_op_seq agrees with the WAL's committed prefix; taking the max
    // also covers a checkpointed (truncated) log.
    op_seq_ = std::max(sb_.last_op_seq, recovery_.last_op_seq);
    height_ = tree_->Height();
    bounds_ = tree_->bounds();
    ArmEpochClips(tree_->mutable_clip_index());
    return true;
  }

 public:

  /// Closes the tree. A healthy writer checkpoints (flush + fsync + WAL
  /// truncate); a poisoned one (io_error(), e.g. a staging failure)
  /// instead discards its frames and NEVER truncates the WAL — the log is
  /// the only durable copy of the committed suffix, so the file stays at
  /// the last durable commit and the next open recovers, exactly as if
  /// the process had crashed at the failure point. A checkpoint failure
  /// at close poisons the same way. A read-only close touches neither
  /// checkpoint nor the sidecar .wal file (it may belong to a live
  /// writer elsewhere).
  ///
  /// Returns false when durability could not be guaranteed (poisoned, or
  /// the close-time checkpoint failed). The destructor discards the
  /// result, so callers that need certainty must call Close() (or
  /// Checkpoint()) explicitly and check it; io_error() also stays
  /// readable after Close. Idempotent: calling Close() again — including
  /// the destructor after an explicit Close() — performs no further I/O
  /// and reports the same verdict.
  bool Close() {
    bool ok = !io_error_.load(std::memory_order_relaxed);
    if (open_ && write_mode_) {
      if (!ok || !Checkpoint()) {
        io_error_.store(true, std::memory_order_relaxed);
        if (pool_) pool_->DiscardAll();
        ok = false;
      }
    } else if (open_) {
      // Read-only close: the WAL was never opened (Open() replays the
      // sidecar log without adopting it), so nothing here can touch it.
      assert(!wal_.is_open());
    }
    pool_.reset();
    CloseFilesAndMirror();
    clip_index_.SetMutateHook(nullptr);  // Clear must not capture pre-images
    clip_index_.Clear();
    spill_of_.clear();
    redo_overlay_.clear();
    tailer_.reset();
    follow_mode_ = false;
    applied_lsn_ = 0;
    gen_ = 0;
    update_io_.Reset();
    // Outstanding Snapshot handles keep the manager alive through their
    // shared_ptr — destruction after Close stays safe; queries on them do
    // not (the pool and file are gone).
    epochs_.reset();
    win_captured_.clear();
    win_clip_captured_.clear();
    open_ = false;
    write_mode_ = false;
    // io_error_ deliberately survives Close (reset by the next open).
    return ok;
  }

  bool is_open() const { return open_; }
  bool writable() const { return write_mode_; }

  /// Sticky: true once any query hit an unreadable or corrupt page and
  /// returned a truncated traversal, or a write-path page could not be
  /// staged. Partial results must not be mistaken for small ones — check
  /// this after measurement runs. Atomic so concurrent queries can set
  /// and read it without a race.
  bool io_error() const { return io_error_.load(std::memory_order_relaxed); }

  // ------------------------------------------------------------- metadata

  const Superblock& superblock() const { return sb_; }
  uint32_t user_tag() const { return sb_.user_tag; }
  size_t NumObjects() const { return sb_.num_objects; }
  size_t NumNodes() const { return sb_.num_nodes; }
  int Height() const { return height_; }
  int max_entries() const { return sb_.max_entries; }
  const RectT& bounds() const { return bounds_; }
  bool clipping_enabled() const { return sb_.clipped != 0; }
  const core::ClipIndex<D>& clip_index() const { return *clips_; }
  storage::BufferPool& pool() { return *pool_; }
  const storage::PageFile& file() const { return file_; }
  const storage::Wal& wal() const { return wal_; }
  const storage::FreePageMap& free_map() const { return free_map_; }
  /// The memory mirror (write mode only; null otherwise).
  const RTree<D>* mirror() const { return tree_.get(); }
  /// Result of the WAL redo pass the last successful open performed.
  const storage::Wal::RecoveryResult& recovery() const { return recovery_; }
  /// Operation sequence number of the last committed operation — after a
  /// crash, the length of the operation-log prefix the file reflects.
  uint64_t last_committed_op() const { return op_seq_; }
  /// Cumulative physical I/O of the write path (faulted pages, WAL
  /// traffic, write-backs; see IoStats).
  const storage::IoStats& update_io() const { return update_io_; }

  // ----------------------------------------------------------- snapshots

  /// Pins the latest published epoch and returns the RAII handle. Pass it
  /// to the query entry points (RangeQuery/Knn/TraverseWindowEmit, or the
  /// facade's Execute/ExecuteBatch) to read exactly that epoch's committed
  /// state while the writer keeps committing — see the thread-safety
  /// contract in the header comment. Pinning retains the pre-image deltas
  /// of every later epoch until the handle drops; an unused snapshot
  /// costs nothing on the unpinned query path.
  SnapshotT PinSnapshot() {
    assert(open_);
    return SnapshotT(epochs_, epochs_->Pin());
  }

  /// Epoch of the most recent publish (0 until the first commit-boundary
  /// publish of this open).
  uint64_t current_epoch() const {
    return epochs_ ? epochs_->published_epoch() : 0;
  }

  /// Epoch-chain counters (published/reclaimed/pinned/retained bytes).
  storage::EpochStats EpochChainStats() const {
    return epochs_ ? epochs_->Stats() : storage::EpochStats{};
  }

  /// Publishes the storage layer's counters and latency distributions —
  /// buffer pool, WAL, epoch chain, and the last open's recovery result —
  /// into `registry` (idempotent Set/overwrite semantics; callable on a
  /// live tree).
  void PublishMetrics(obs::MetricsRegistry& registry) const {
    pool_->PublishMetrics(registry);
    wal_.PublishMetrics(registry);
    registry.SetGauge("recovery_pages_replayed",
                      recovery_.pages_replayed);
    registry.SetGauge("recovery_tail_discarded_bytes",
                      recovery_.tail_discarded);
    if (epochs_) {
      const storage::EpochStats es = epochs_->Stats();
      registry.SetGauge("epoch_published", es.published_epoch);
      registry.SetCounter("epochs_published_total", es.epochs_published);
      registry.SetCounter("epochs_reclaimed_total", es.epochs_reclaimed);
      registry.SetGauge("epoch_live_deltas", es.live_deltas);
      registry.SetGauge("epoch_pinned_snapshots", es.pinned_snapshots);
      registry.SetGauge("epoch_oldest_pinned_age", es.oldest_pinned_age);
      registry.SetGauge("epoch_retained_bytes", es.retained_bytes);
      registry.SetCounter("epoch_pages_captured_total", es.pages_captured);
      registry.SetCounter("epoch_clip_runs_captured_total",
                          es.clip_runs_captured);
      registry.SetCounter(
          "epoch_capture_file_reads_total",
          capture_reads_.load(std::memory_order_relaxed));
    }
    if (follow_mode_) {
      std::lock_guard<std::mutex> lock(refresh_mu_);
      registry.SetGauge("replica_applied_lsn", applied_lsn_);
      registry.SetGauge("replica_checkpoint_gen", gen_);
      if (tailer_) {
        const storage::WalTailer::Stats& ts = tailer_->stats();
        registry.SetCounter("replica_bytes_tailed_total", ts.bytes_tailed);
        registry.SetCounter("replica_polls_total", ts.polls);
        registry.SetCounter("replica_commits_tailed_total",
                            ts.commits_seen);
        const uint64_t consumed = tailer_->consumed_bytes();
        registry.SetGauge("replica_commit_lag_bytes",
                          ts.last_log_bytes > consumed
                              ? ts.last_log_bytes - consumed
                              : 0);
      }
      registry.SetCounter("replica_rebases_total{path=\"fast\"}",
                          fast_rebases_);
      registry.SetCounter("replica_rebases_total{path=\"full\"}",
                          full_rebases_);
      registry.SetCounter("replica_epochs_republished", windows_applied_);
      registry.SetHistogram("replica_apply_ns", apply_ns_);
      registry.SetHistogram("replica_rebase_ns", rebase_ns_);
    }
  }

  // ---------------------------------------------------------------- replica

  /// True when this open is a follower replica (OpenMode::kFollow).
  bool following() const { return follow_mode_; }
  /// Follow mode: WAL LSN the published replica state has applied
  /// through (stable between Refresh calls; 0 on non-followers).
  uint64_t replica_applied_lsn() const { return applied_lsn_; }
  uint64_t replica_rebases() const { return fast_rebases_ + full_rebases_; }
  /// Rebases that found the replica caught up (O(1), no page pass); the
  /// rest re-read the whole section (see Rebase).
  uint64_t replica_fast_rebases() const { return fast_rebases_; }
  /// Commit windows applied (== epochs republished, counting windows
  /// whose only image was the superblock and thus minted no delta).
  uint64_t replica_windows_applied() const { return windows_applied_; }

  /// Follow mode: advances the replica to the writer's current committed
  /// state — polls the log for complete commit windows and applies each
  /// as one published epoch; a checkpoint-generation bump or a shrunk
  /// log instead rebases from the (then fully durable) page file. Safe
  /// concurrently with pinned and unpinned queries; concurrent Refresh
  /// calls serialize. Returns false on an unreadable log/superblock —
  /// transient while the writer is live (the next call retries); nothing
  /// is torn on failure (windows apply atomically).
  bool Refresh(storage::Status* status = nullptr) {
    if (!follow_mode_ || !open_) return false;
    std::lock_guard<std::mutex> lock(refresh_mu_);
    std::vector<storage::WalCommitWindow> windows;
    std::vector<std::byte> sb_page(sb_.file_page_size);
    for (int round = 0; round < 4; ++round) {
      windows.clear();
      const storage::WalTailer::PollResult pr = tailer_->Poll(&windows);
      if (pr == storage::WalTailer::PollResult::kError ||
          pr == storage::WalTailer::PollResult::kBadHeader) {
        if (status) *status = {storage::ErrorKind::kWal, -1};
        return false;
      }
      // The generation is read AFTER the poll: the writer bumps it (and
      // syncs) strictly before truncating, so if the poll could have
      // scanned post-truncate bytes, the bump is visible here — the
      // polled windows are then discarded and the replica rebases (the
      // checkpoint made their effects durable in the page file first).
      if (!ReadLivePage(0, sb_page.data())) {
        if (status) *status = {storage::ErrorKind::kChecksum, 0};
        return false;
      }
      Superblock fsb{};
      std::memcpy(&fsb, sb_page.data(), sizeof fsb);
      if (fsb.checkpoint_gen != gen_ ||
          pr == storage::WalTailer::PollResult::kShrunk) {
        if (!Rebase(fsb)) {
          if (status) *status = {storage::ErrorKind::kIo, -1};
          return false;
        }
        continue;  // tail the post-checkpoint log in the next round
      }
      for (const storage::WalCommitWindow& win : windows) {
        if (win.commit_lsn <= applied_lsn_) continue;  // already reflected
        ApplyWindow(win);
      }
      return true;
    }
    if (status) *status = {storage::ErrorKind::kIo, -1};
    return false;  // checkpoints kept landing mid-refresh; retry later
  }

  // ---------------------------------------------------------------- update

  /// Inserts one object, staging every modified page through the WAL and
  /// the buffer pool. Returns false when staging failed — the writer is
  /// then poisoned (io_error()): the operation never commits, further
  /// updates are refused, and the next open recovers the file to the
  /// last durable commit.
  bool Insert(const RectT& rect, ObjectId oid) {
    assert(write_mode_);
    if (io_error()) return false;  // poisoned: mirror and file diverged
    BeginOp();
    tree_->Insert(rect, oid);
    return EndOp();
  }

  /// Deletes the object with exactly this rect and id; false if absent or
  /// staging failed (see Insert for failure semantics).
  bool Delete(const RectT& rect, ObjectId oid) {
    assert(write_mode_);
    if (io_error()) return false;
    BeginOp();
    const bool found = tree_->Delete(rect, oid);
    const bool staged = EndOp();
    return found && staged;
  }

  /// (Re)builds the clip table under `config` — enabling clipping on an
  /// unclipped paged tree or retuning an existing one. Rewrites every node
  /// page (clips travel with their node; runs that no longer fit inline
  /// relocate to spill pages, runs that shrank release theirs) as ONE
  /// transaction: every node frame is staged before the commit, so the
  /// transient footprint is O(file) — the same order as the memory
  /// mirror itself, i.e. fine in the regime this write mode targets, but
  /// not an out-of-core rewrite. (The WAL buffer is bounded separately:
  /// EndOp syncs it whenever it grows past kWalBufferSoftMax.)
  bool UpdateClips(const core::ClipConfig<D>& config) {
    assert(write_mode_);
    if (io_error()) return false;
    BeginOp();
    tree_->EnableClipping(config);
    sb_.clipped = 1;
    sb_.clip_mode = static_cast<uint8_t>(config.mode);
    sb_.max_clips = config.max_clips;
    sb_.tau = config.tau;
    return EndOp();
  }

  /// Log size past which an update checkpoints once it commits, so the
  /// .wal file never exceeds this bound by more than one operation.
  static constexpr uint64_t kWalCheckpointBytes = uint64_t{128} << 20;

  /// Makes everything durable and resets the WAL: syncs pending commits,
  /// flushes every dirty frame, fsyncs the page file, truncates the log.
  /// Refused on a poisoned writer — its frames hold uncommitted
  /// mutations, and truncating the WAL would discard the only durable
  /// copy of the committed suffix the next open must recover.
  bool Checkpoint() {
    if (!write_mode_ || !open_) return false;
    if (io_error_.load(std::memory_order_relaxed)) return false;
    if (!wal_.Sync()) return false;
    PublishEpoch();  // everything synced is committed — expose it
    if (!pool_->FlushAll()) return false;
    if (!file_.Sync()) return false;
    // Bump the checkpoint generation and make it durable BEFORE the log
    // shrinks: a follower that ever observes post-truncate log bytes is
    // then guaranteed to observe the bump too, so it rebases instead of
    // replaying stale byte offsets into the new log incarnation. Crash-
    // safe with no recovery changes — redo is unconditional, so dying
    // between this write and the truncate just restores the pre-bump
    // superblock image from the still-intact log.
    if (!BumpCheckpointGen()) return false;
    return wal_.Truncate();
  }

  /// Forces the commit boundary early (group commit flush). On success
  /// this is also an epoch publish point: the synced state becomes
  /// pinnable by new snapshots.
  bool Commit() {
    if (!write_mode_) return false;
    ops_since_sync_ = 0;
    const bool ok = wal_.Sync();
    if (ok && !io_error()) PublishEpoch();
    return ok;
  }

  // --------------------------------------------------------------- queries

  /// Range query; same contract as RTree::RangeQuery plus physical-I/O
  /// accounting. The physical transfers this call performed flow into the
  /// caller's `io` through per-call PinIo — never through shared pool
  /// counter deltas, which would interleave across concurrent queries.
  size_t RangeQuery(const RectT& q, std::vector<ObjectId>* out = nullptr,
                    storage::IoStats* io = nullptr,
                    TraversalScratch* scratch = nullptr,
                    storage::Status* status = nullptr,
                    const SnapshotT* snap = nullptr) {
    if (out) {
      return TraverseWindowEmit(
          q, MatchAllPred{}, [out](ObjectId id) { out->push_back(id); }, io,
          scratch, status, snap);
    }
    return TraverseWindowEmit(q, MatchAllPred{}, [](ObjectId) {}, io, scratch,
                              status, snap);
  }

  size_t RangeCount(const RectT& q, storage::IoStats* io = nullptr,
                    TraversalScratch* scratch = nullptr,
                    storage::Status* status = nullptr,
                    const SnapshotT* snap = nullptr) {
    return RangeQuery(q, nullptr, io, scratch, status, snap);
  }

  /// The window traversal of rtree/traverse.h over pool-pinned pages (the
  /// on-page SoA IntersectsAll kernel runs zero-copy on the frame bytes).
  /// Visits leaf entries intersecting `window` and keeps those satisfying
  /// `pred`; `emit(ObjectId)` fires once per result in visit order — the
  /// same order, results, and logical I/O counts as the in-memory tree.
  /// Every window query kind of the unified query API (rtree/query_api.h)
  /// runs through here.
  ///
  /// A valid `snap` (PinSnapshot) runs the traversal against that pinned
  /// epoch instead of the live tree — safe concurrently with the writer;
  /// results equal a serialized run against the epoch's committed state.
  /// Null/invalid `snap` is the latest-epoch path.
  ///
  /// Failure semantics: a page that cannot be pinned (after the pool's
  /// bounded retries) or fails validation abandons the traversal, latches
  /// the sticky io_error_ flag, and — when `status` is given — reports the
  /// error kind and page, so callers can distinguish a truncated result
  /// set from a small one per query, not just per engine.
  template <typename Pred, typename Emit>
  size_t TraverseWindowEmit(const RectT& window, const Pred& pred,
                            Emit&& emit, storage::IoStats* io = nullptr,
                            TraversalScratch* scratch = nullptr,
                            storage::Status* status = nullptr,
                            const SnapshotT* snap = nullptr) {
    return OverSource(snap, io, status, scratch, [&](auto& src, auto* s) {
      return TraverseWindow<D>(src, window, pred, emit, io, s);
    });
  }

  /// k nearest objects to `q`, ascending squared distance — the best-first
  /// search of rtree/traverse.h over pinned pages. Emits each
  /// KnnNeighbor<D> the moment it is popped from the frontier; returns the
  /// number emitted. A valid `snap` runs against that pinned epoch
  /// (concurrent-writer-safe; see TraverseWindowEmit).
  template <typename Emit>
    requires std::invocable<Emit&, const KnnNeighbor<D>&>
  size_t Knn(const geom::Vec<D>& q, int k, Emit&& emit,
             storage::IoStats* io = nullptr,
             storage::Status* status = nullptr,
             const SnapshotT* snap = nullptr) {
    if (k <= 0) return 0;
    return OverSource(snap, io, status, /*scratch=*/nullptr,
                      [&](auto& src, auto*) {
                        return KnnBestFirst<D>(src, q, k, emit, io);
                      });
  }

 private:
  // ---------------------------------------------------- traversal sources
  // The shared traversals run over one of two sources:
  //
  //  * LatestSource — the unpinned path: reads the live superblock, pins
  //    frames in the pool, and consults the live clip table. An unused
  //    snapshot facility costs this path nothing.
  //  * SnapshotSource — a pinned epoch: shape comes from the snapshot's
  //    frozen EpochTreeView; pages resolve through the epoch manager's
  //    pre-image chain first, and a chain miss copies the live frame out
  //    under the pool's shard latch and then RE-CHECKS the chain. The
  //    writer captures a page's pre-image (manager mutex) strictly before
  //    installing new bytes (shard latch), so a copy that raced an
  //    install is always caught by the re-check — the reader sees either
  //    the old bytes or the captured pre-image, never a lost version.
  //    Nothing stays pinned: chain hits are stable heap buffers (retained
  //    while the epoch is pinned) and misses land in the caller's buffer.

  /// What both sources share (the node-source interface of
  /// rtree/traverse.h): page decode, validation, and the failure policy.
  /// An unreadable or corrupt page latches io_error_ — a stale snapshot
  /// does not, it is a transient per-pin condition (the follower's writer
  /// raced ahead) — and reports through `status`.
  template <typename Derived>
  struct PagedSource {
    struct View {
      PagedNodeView<D> page;
      SoaNodeView<D> soa;
      uint32_t n() const { return soa.n; }
      bool IsLeaf() const { return page.IsLeaf(); }
      int64_t Id(uint32_t i) const { return soa.id[i]; }
      RectT EntryRect(uint32_t i) const { return page.EntryRect(i); }
      double MinDist2(uint32_t i, const geom::Vec<D>& q) const {
        return SoaMinDist2<D>(soa, i, q);
      }
      const uint64_t* Mask(const RectT& w, TraversalScratch* s) const {
        uint64_t* mask = s->MaskFor(soa.n);
        IntersectsAll<D>(soa, w, mask, s->FlagsFor(soa.n));
        return mask;
      }
    };

    PagedRTree* t;
    storage::BufferPool::PinIo* pin_io;
    storage::Status* status;

    bool Acquire(int64_t node, View* v) {
      storage::Status st;
      const std::byte* bytes = self().AcquirePage(1 + node, &st);
      if (!bytes) {
        Fail(st, st.kind != storage::ErrorKind::kStaleSnapshot);
        return false;
      }
      v->page = DecodeNodePage<D>(bytes);
      if (!t->ValidPage(v->page)) {  // corrupt counts would walk off the frame
        Fail({storage::ErrorKind::kCorruptStructure, 1 + node});
        self().ReleasePage(1 + node);
        return false;
      }
      v->soa = v->page.Soa();
      return true;
    }
    void Release(int64_t node) { self().ReleasePage(1 + node); }
    /// A corrupt child pointer is reported and not followed.
    bool ChildOk(int64_t node, int64_t child) {
      if (child >= 0 &&
          child < static_cast<int64_t>(self().section_pages())) {
        return true;
      }
      Fail({storage::ErrorKind::kCorruptStructure, 1 + node});
      return false;
    }
    void Fail(const storage::Status& st, bool latch = true) {
      if (latch) t->io_error_.store(true, std::memory_order_relaxed);
      if (status) *status = st;
    }
    Derived& self() { return static_cast<Derived&>(*this); }
  };

  struct LatestSource : PagedSource<LatestSource> {
    int64_t root() const { return this->t->sb_.root_page; }
    uint64_t section_pages() const { return this->t->sb_.num_section_pages; }
    bool clipped() const { return this->t->clipping_enabled(); }
    const std::byte* AcquirePage(storage::PageId fid, storage::Status* st) {
      return this->t->pool_->Pin(fid, this->pin_io, st);
    }
    void ReleasePage(storage::PageId fid) {
      this->t->pool_->Unpin(fid, false, 0, this->pin_io);
    }
    std::span<const core::ClipPoint<D>> Clips(int64_t node) {
      return this->t->clips_->Get(node);
    }
  };

  struct SnapshotSource : PagedSource<SnapshotSource> {
    const SnapshotT* snap;
    std::vector<std::byte>* page_buf;  // one file page, caller-owned
    typename EpochManager<D>::ClipRun clip_buf;
    int64_t root() const { return snap->view().root_page; }
    uint64_t section_pages() const { return snap->view().num_section_pages; }
    bool clipped() const { return snap->view().clipped; }
    const std::byte* AcquirePage(storage::PageId fid, storage::Status* st) {
      EpochManager<D>* m = snap->manager();
      if (const auto* pre = m->FindPage(snap->epoch(), fid)) {
        return Resolve(pre, fid, st);
      }
      storage::Status s;
      if (!this->t->pool_->ReadPageCopy(fid, page_buf->data(), this->pin_io,
                                        &s)) {
        // A checksum failure on a follower's base read is a torn read
        // racing the live writer's write-back — the same transient the
        // LSN gate below would catch one instant later (the writer only
        // ever installs newer LSNs). Report it as a stale pin rather
        // than letting a racing pwrite latch the sticky I/O flag.
        if (s.kind == storage::ErrorKind::kChecksum &&
            snap->view().follower) {
          s.kind = storage::ErrorKind::kStaleSnapshot;
        }
        if (st) *st = s;
        return nullptr;
      }
      // Copy-then-recheck (see the source comment above): if the copy
      // raced the writer's install, this lookup finds the pre-image.
      if (const auto* pre = m->FindPage(snap->epoch(), fid)) {
        return Resolve(pre, fid, st);
      }
      // Follower gate: base-file bytes stamped past the pinned view's
      // applied LSN are the cross-process writer's future leaking
      // through the page file — fail loudly rather than serve a
      // torn-in-time mix. Transient: Refresh() plus a fresh pin
      // observes that state exactly.
      if (snap->view().follower &&
          PageLsn(page_buf->data()) > snap->view().applied_lsn) {
        if (st) *st = {storage::ErrorKind::kStaleSnapshot, fid};
        return nullptr;
      }
      return page_buf->data();
    }
    /// A chain hit is authoritative — unless it is a follower tombstone
    /// (empty image: the true pre-image was lost to a racing writer
    /// write-back before the replica could capture it).
    const std::byte* Resolve(const std::vector<std::byte>* pre,
                             storage::PageId fid, storage::Status* st) {
      if (!pre->empty()) return pre->data();
      if (st) *st = {storage::ErrorKind::kStaleSnapshot, fid};
      return nullptr;
    }
    void ReleasePage(storage::PageId) {}
    std::span<const core::ClipPoint<D>> Clips(int64_t node) {
      std::span<const core::ClipPoint<D>> out;
      if (snap->manager()->FindClips(snap->epoch(), node, &out, &clip_buf)) {
        return out;
      }
      return this->t->clips_->Get(node);  // read-only open: immutable table
    }
  };

  /// Runs `body(src, scratch)` over the source a query reads — the pinned
  /// epoch when `snap` is valid, else the live tree — and folds the call's
  /// physical transfers into `io`. In follow mode every query runs pinned:
  /// an unpinned call pins the latest applied epoch for its duration, so
  /// all page reads are latched copies the applier may refresh
  /// concurrently. A null `scratch` gets a per-call one.
  template <typename Body>
  size_t OverSource(const SnapshotT* snap, storage::IoStats* io,
                    storage::Status* status, TraversalScratch* scratch,
                    Body&& body) {
    assert(open_);
    SnapshotT auto_snap;
    if (follow_mode_ && (snap == nullptr || !snap->valid())) {
      auto_snap = PinSnapshot();
      snap = &auto_snap;
    }
    const bool pinned = snap != nullptr && snap->valid();
    TraversalScratch local;
    if (!scratch) {
      scratch = &local;
      local.Reserve(pinned ? snap->view().height : height_, sb_.max_entries);
    }
    storage::BufferPool::PinIo pin_io;
    size_t found;
    if (pinned) {
      scratch->page_buf.resize(sb_.file_page_size);
      SnapshotSource src{{this, &pin_io, status}, snap, &scratch->page_buf, {}};
      found = body(src, scratch);
    } else {
      LatestSource src{{this, &pin_io, status}};
      found = body(src, scratch);
    }
    FoldPinIo(pin_io, io);
    return found;
  }

  /// Adds one call's physical transfers to `io` (no-op when null).
  static void FoldPinIo(const storage::BufferPool::PinIo& p,
                        storage::IoStats* io) {
    if (!io) return;
    io->page_reads += p.reads;
    io->read_retries += p.read_retries;
    io->page_writes += p.writes;
    io->wal_syncs += p.wal_syncs;
    io->pin_miss_ns += p.miss_ns;
  }

  // ----------------------------------------------------------- open helpers

  /// Opens the page file, replays any sidecar WAL (redo to the last
  /// durable commit), and validates the superblock. A writable open owns
  /// the file: redo writes the pages and truncates the log. A read-only
  /// open owns nothing: the file opens O_RDONLY, one poll of a fresh
  /// `tailer_` folds the committed images into the in-memory overlay
  /// (`redo_overlay_`, last image wins), and the .wal stays
  /// byte-identical (it may be a live writer's only durable copy).
  bool OpenAndRecover(const std::string& path, bool writable) {
    recovery_ = storage::Wal::RecoveryResult{};
    redo_overlay_.clear();
    tailer_.reset();
    if (!file_.Open(path, /*create=*/false, /*page_size=*/0,
                    /*read_only=*/!writable)) {
      return false;
    }
    // Bootstrap the page size for recovery from the superblock when it is
    // believable; a torn superblock leaves it unset and Recover adopts
    // the WAL header's authoritative size instead.
    Superblock probe{};
    if (!file_.ReadRaw(0, &probe, sizeof probe)) {
      file_.Close();
      return false;
    }
    if (probe.magic == kPagedMagic &&
        probe.file_page_size >= sizeof(Superblock) &&
        probe.file_page_size <= serialize_internal::kMaxFilePageSize &&
        probe.file_page_size % 8 == 0) {
      file_.set_page_size(probe.file_page_size);
    }
    if (writable) {
      if (!storage::Wal::Recover(WalPathFor(path), &file_, &recovery_)) {
        file_.Close();
        return false;
      }
    } else {
      tailer_ = std::make_unique<storage::WalTailer>(WalPathFor(path));
      std::vector<storage::WalCommitWindow> windows;
      if (!storage::PollForRecovery(tailer_.get(), &file_, &windows,
                                    &recovery_)) {
        file_.Close();
        return false;
      }
      for (const storage::WalCommitWindow& win : windows) {
        for (const storage::WalPageImage& img : win.images) {
          redo_overlay_[img.page_id].assign(img.bytes.begin(),
                                            img.bytes.end());
        }
      }
    }
    update_io_.recovery_replays += recovery_.pages_replayed;
    if (recovery_.pages_replayed > 0) {
      obs::EventLog::Global().Record(obs::EventKind::kRecoveryReplay,
                                     /*page=*/-1, /*shard=*/0,
                                     writable ? "write-mode-redo"
                                              : "read-only-overlay",
                                     recovery_.pages_replayed);
    }
    // Now the newest durable superblock is on disk (write mode) or in
    // the overlay (read-only mode, when the log rewrote page 0).
    if (auto it = redo_overlay_.find(0); it != redo_overlay_.end()) {
      std::memcpy(&sb_, it->second.data(),
                  std::min(sizeof sb_, it->second.size()));
    } else if (!file_.ReadRaw(0, &sb_, sizeof sb_)) {
      file_.Close();
      return false;
    }
    // Same sanity bounds DeserializeTree applies, plus: every size the
    // superblock declares must fit the actual file, so a corrupt header
    // can never drive an allocation or a read off the end. (A file whose
    // tail pages exist only as WAL images was just made whole by redo.)
    if (!serialize_internal::SuperblockSane(sb_,
                                            static_cast<uint32_t>(D))) {
      file_.Close();
      return false;
    }
    file_.set_page_size(sb_.file_page_size);
    // Whole-page superblock checksum: the field-level sanity checks above
    // cannot see damage in fields they don't interpret.
    {
      std::vector<std::byte> sb_page(sb_.file_page_size);
      if (!ReadRecoveredPage(0, sb_page.data()) ||
          !VerifySuperblockPage(sb_page.data(), sb_page.size())) {
        file_.Close();
        return false;
      }
    }
    // Pages may exist only as WAL images: write-mode redo just wrote them
    // into the file; read-only redo holds them in the overlay, so count
    // overlay coverage toward the effective file size.
    uint64_t covered = file_.SizeBytes();
    for (const auto& [pid, bytes] : redo_overlay_) {
      if (pid >= 0) {
        covered = std::max(covered,
                           (static_cast<uint64_t>(pid) + 1) *
                               static_cast<uint64_t>(sb_.file_page_size));
      }
    }
    if ((1 + sb_.num_section_pages) *
            static_cast<uint64_t>(sb_.file_page_size) >
        covered) {
      file_.Close();
      return false;
    }
    return true;
  }

  /// One sequential scan of the section. Always validates the root and
  /// computes height/bounds. When `into` is set, loads inline + spilled
  /// clip runs into it (read-only open). When `nodes` is set, decodes
  /// every node at its file index with clips into `clips`, and free-page
  /// next links into `free_next` (write-mode open).
  bool LoadRootAndClips(
      std::vector<std::byte>* page, core::ClipIndex<D>* into,
      std::vector<std::pair<storage::PageId, Node<D>>>* nodes,
      std::unordered_map<storage::PageId, std::vector<core::ClipPoint<D>>>*
          clips,
      std::unordered_map<storage::PageId, int64_t>* free_next) {
    bool root_seen = false;
    uint64_t node_count = 0;
    for (uint64_t p = 0; p < sb_.num_section_pages; ++p) {
      const bool need_page =
          nodes != nullptr || free_next != nullptr || sb_.clipped ||
          static_cast<int64_t>(p) == sb_.root_page;
      if (!need_page) continue;
      if (!ReadRecoveredPage(1 + static_cast<int64_t>(p), page->data())) {
        return false;
      }
      // Bit rot anywhere in a scanned page fails the open cleanly here,
      // before any decode can run over damaged bytes.
      if (!VerifyPageChecksum(page->data(), page->size())) return false;
      NodePageHeader h;
      std::memcpy(&h, page->data(), sizeof h);
      if (h.flags() & kPageFlagFree) {
        if (static_cast<int64_t>(p) == sb_.root_page) return false;
        if (free_next) {
          (*free_next)[static_cast<storage::PageId>(p)] =
              FreePageNext(page->data());
        }
        continue;
      }
      if (h.flags() & kPageFlagSpill) {
        if (static_cast<int64_t>(p) == sb_.root_page) return false;
        SpillPageView<D> spill;
        if (!DecodeSpillPage<D>(page->data(), page->size(), &spill)) {
          return false;
        }
        if (spill.owner < 0 ||
            spill.owner >= static_cast<int64_t>(sb_.num_section_pages)) {
          return false;
        }
        if (into) into->Set(spill.owner, spill.Decode());
        if (clips) (*clips)[spill.owner] = spill.Decode();
        if (nodes) {
          spill_of_[spill.owner] = static_cast<storage::PageId>(p);
        }
        continue;
      }
      const PagedNodeView<D> v = DecodeNodePage<D>(page->data());
      if (!ValidPage(v)) return false;
      ++node_count;
      if (static_cast<int64_t>(p) == sb_.root_page) {
        root_seen = true;
        SetShape(v);
      }
      if (v.header.clip_count() > 0) {
        if (into) {
          into->Set(static_cast<core::NodeId>(p), v.DecodeClips());
        }
        if (clips) {
          (*clips)[static_cast<storage::PageId>(p)] = v.DecodeClips();
        }
      }
      if (nodes) {
        nodes->emplace_back(static_cast<storage::PageId>(p),
                            DecodeNode<D>(page->data()));
      }
    }
    if (!root_seen) return false;
    // The full-scan paths can cross-check the superblock's node count.
    if ((nodes != nullptr || sb_.clipped) && node_count != sb_.num_nodes) {
      return false;
    }
    return true;
  }

  /// One full page, preferring the read-only redo overlay (newest
  /// committed image) over the file. Write mode has an empty overlay.
  bool ReadRecoveredPage(storage::PageId file_page, std::byte* buf) {
    auto it = redo_overlay_.find(file_page);
    if (it != redo_overlay_.end()) {
      std::memcpy(buf, it->second.data(), sb_.file_page_size);
      return true;
    }
    return file_.ReadPage(file_page, buf);
  }

  void FinishOpen(const OpenOptions& opts) {
    const size_t frames =
        opts.pool_pages > 0
            ? opts.pool_pages
            : std::max<size_t>(16, sb_.num_section_pages / 10);
    pool_ = std::make_unique<storage::BufferPool>(
        frames, &file_, opts.pool_shards > 0 ? opts.pool_shards : 1);
    if (!redo_overlay_.empty()) {
      // The pool owns the overlay from here on; the follower patches it
      // in place per applied window (BufferPool::PatchReadOverlay).
      pool_->SetReadOverlay(std::move(redo_overlay_));
      redo_overlay_.clear();  // moved-from: make the state definite
    }
    // Every miss read is verified — checksum first, then structural
    // bounds — before the frame becomes visible to any traversal.
    pool_->SetVerifier(
        [this](storage::PageId file_page, const std::byte* bytes) {
          return VerifyFilePage(file_page, bytes);
        });
    file_.ResetCounters();
    io_error_.store(false, std::memory_order_relaxed);
    // Fresh epoch chain at 0. Read-only mode never publishes: pins get
    // the open-time view, every chain lookup misses, and queries fall
    // through to the pool/clip table — pinned == unpinned by design.
    epochs_ = std::make_shared<EpochManager<D>>(CurrentView());
    stage_buf_.assign(sb_.file_page_size, std::byte{0});
    capture_buf_.assign(sb_.file_page_size, std::byte{0});
    win_captured_.clear();
    win_clip_captured_.clear();
    capture_reads_.store(0, std::memory_order_relaxed);
    fast_rebases_ = 0;
    full_rebases_ = 0;
    windows_applied_ = 0;
    apply_ns_ = obs::Histogram{};
    rebase_ns_ = obs::Histogram{};
    open_ = true;
  }

  /// Miss-read verifier the pool runs under its shard latch: page 0 checks
  /// as a superblock, section pages check their header checksum and then
  /// the structural bounds decode would rely on. Cheap relative to the
  /// read itself (one CRC pass over the page).
  storage::Status VerifyFilePage(storage::PageId file_page,
                                 const std::byte* bytes) const {
    const size_t ps = sb_.file_page_size;
    if (file_page == 0) {
      if (!VerifySuperblockPage(bytes, ps)) {
        return {storage::ErrorKind::kChecksum, file_page};
      }
      return {};
    }
    if (!VerifyPageChecksum(bytes, ps)) {
      return {storage::ErrorKind::kChecksum, file_page};
    }
    NodePageHeader h;
    std::memcpy(&h, bytes, sizeof h);
    if (h.flags() & kPageFlagFree) return {};
    if (h.flags() & kPageFlagSpill) {
      if (SpillPageBytes<D>(h.clip_count()) > ps) {
        return {storage::ErrorKind::kCorruptStructure, file_page};
      }
      return {};
    }
    if (h.entry_count() > static_cast<uint32_t>(sb_.max_entries) ||
        PagedNodeBytes<D>(h.entry_count()) +
                ClipRunBytes<D>((h.flags() & kNodeFlagClipsSpilled)
                                    ? 0
                                    : h.clip_count()) >
            ps) {
      return {storage::ErrorKind::kCorruptStructure, file_page};
    }
    return {};
  }

  // --------------------------------------------------- follower apply path
  // All of these run with refresh_mu_ held (single applier at a time);
  // they synchronize with concurrent pinned queries through the epoch
  // manager's capture-then-install protocol, exactly like the writer.

  /// Reads file page `fid` into `buf`, checksum-verified with a bounded
  /// retry: a read racing the writer's in-place pwrite can be torn, and
  /// the writer finishes the write within one staging step.
  bool ReadLivePage(storage::PageId fid, std::byte* buf) {
    const size_t ps = sb_.file_page_size;
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (!file_.ReadPage(fid, buf)) return false;
      if (fid == 0 ? VerifySuperblockPage(buf, ps)
                   : VerifyPageChecksum(buf, ps)) {
        return true;
      }
    }
    return false;
  }

  /// Captures the replica's currently visible image of `fid` into the
  /// pending epoch (first-touch per window). `incoming_lsn` is the LSN
  /// the new image will carry: visible bytes already at or past it mean
  /// the writer's write-back outran our poll and the true pre-image is
  /// gone — a TOMBSTONE (empty image) is captured instead, and a pinned
  /// epoch that later needs the page fails kStaleSnapshot. Bytes that
  /// fail their checksum (a torn read against a racing pwrite) tombstone
  /// the same way.
  void CaptureReplicaPreImage(storage::PageId fid, uint64_t incoming_lsn) {
    if (fid == 0) return;  // snapshots never read the superblock page
    if (!win_captured_.insert(fid).second) return;
    bool from_file = false;
    if (!pool_->ReadForCapture(fid, capture_buf_.data(), &from_file)) {
      return;  // page born in this window: no committed pre-image exists
    }
    CaptureVisible(fid, from_file,
                   PageLsn(capture_buf_.data()) >= incoming_lsn);
  }

  /// Captures the replica-visible image just read into capture_buf_ as
  /// `fid`'s pre-image — or a tombstone when the true pre-image is `lost`
  /// or the bytes fail their checksum (a torn read against a racing
  /// pwrite).
  void CaptureVisible(storage::PageId fid, bool from_file, bool lost) {
    if (from_file) capture_reads_.fetch_add(1, std::memory_order_relaxed);
    const size_t ps = sb_.file_page_size;
    const bool usable =
        !lost && VerifyPageChecksum(capture_buf_.data(), ps);
    epochs_->CapturePage(fid, capture_buf_.data(), usable ? ps : 0);
  }

  /// True when `run` is bit-for-bit the run the replica clip index
  /// already holds for `nid` (both sides decode through the same page
  /// views, so scores synthesize identically). Rebase reapplies every
  /// live page's run, and runs that never moved must not fire the
  /// mutate hook — each firing captures a pre-image and forces the
  /// publish to mint an epoch.
  bool SameClipRun(core::NodeId nid,
                   const std::vector<core::ClipPoint<D>>& run) const {
    const std::span<const core::ClipPoint<D>> cur = clip_index_.Get(nid);
    if (cur.size() != run.size()) return false;
    for (size_t i = 0; i < run.size(); ++i) {
      // Field-wise (ClipPoint has padding after the mask byte, so a raw
      // memcmp would diff garbage and recapture every run each rebase).
      if (cur[i].mask != run[i].mask || cur[i].score != run[i].score) {
        return false;
      }
      for (int d = 0; d < D; ++d) {
        if (cur[i].coord[d] != run[i].coord[d]) return false;
      }
    }
    return true;
  }

  /// Folds one page's NEW image into the replica clip index (the hook
  /// armed at open captures each run's pre-image first-touch). Spill
  /// runs are keyed by their OWNER node; a node page whose run spilled
  /// is settled by the spill-page image travelling in the same window
  /// (or, on rebase, read in the same full-section pass). No-op
  /// updates are skipped so rebase can safely reapply every page.
  void ApplyClipUpdate(storage::PageId fid, const std::byte* bytes,
                       size_t n) {
    const core::NodeId nid = static_cast<core::NodeId>(fid - 1);
    NodePageHeader h;
    std::memcpy(&h, bytes, sizeof h);
    if (h.flags() & kPageFlagFree) {
      if (!clip_index_.Get(nid).empty()) clip_index_.Erase(nid);
      return;
    }
    if (h.flags() & kPageFlagSpill) {
      SpillPageView<D> spill;
      if (DecodeSpillPage<D>(bytes, n, &spill) && spill.owner >= 0) {
        const core::NodeId owner = static_cast<core::NodeId>(spill.owner);
        std::vector<core::ClipPoint<D>> run = spill.Decode();
        if (!SameClipRun(owner, run)) clip_index_.Set(owner, std::move(run));
      }
      return;
    }
    const PagedNodeView<D> v = DecodeNodePage<D>(bytes);
    if (!ValidPage(v)) return;
    if (v.ClipsSpilled()) return;  // the spill image settles it
    if (v.header.clip_count() > 0) {
      std::vector<core::ClipPoint<D>> run = v.DecodeClips();
      if (!SameClipRun(nid, run)) clip_index_.Set(nid, std::move(run));
    } else {
      if (!clip_index_.Get(nid).empty()) clip_index_.Erase(nid);
    }
  }

  /// Installs a newer superblock on the replica, leaving the immutable
  /// geometry fields (magic, dim, page sizes, fanout) untouched so
  /// concurrent pinned traversals may keep reading them unsynchronized.
  void ApplyReplicaSuperblock(const Superblock& n) {
    sb_.lsn = n.lsn;
    sb_.clipped = n.clipped;
    sb_.clip_mode = n.clip_mode;
    sb_.max_clips = n.max_clips;
    sb_.tau = n.tau;
    sb_.num_objects = n.num_objects;
    sb_.num_section_pages = n.num_section_pages;
    sb_.num_nodes = n.num_nodes;
    sb_.root_page = n.root_page;
    sb_.free_head = n.free_head;
    sb_.free_count = n.free_count;
    sb_.num_spill_pages = n.num_spill_pages;
    sb_.num_clip_points = n.num_clip_points;
    sb_.num_clipped_nodes = n.num_clipped_nodes;
    sb_.last_op_seq = n.last_op_seq;
    sb_.checksum = n.checksum;
    sb_.checkpoint_gen = n.checkpoint_gen;
  }

  /// Recomputes the cached tree shape from a (new) root page image.
  void RefreshShapeFromRoot(const std::byte* root_bytes) {
    const PagedNodeView<D> v = DecodeNodePage<D>(root_bytes);
    if (ValidPage(v)) SetShape(v);
  }

  /// Caches height and bounds from the decoded root page.
  void SetShape(const PagedNodeView<D>& root) {
    height_ = static_cast<int>(root.header.level()) + 1;
    bounds_ = RectT::Empty();
    for (uint32_t i = 0; i < root.n(); ++i) {
      bounds_.ExpandToInclude(root.EntryRect(i));
    }
  }

  /// Applies one committed transaction — one replica epoch. Order is the
  /// writer's capture-then-install protocol: (1) pre-images into the
  /// pending epoch under the manager mutex, (2) the new images become
  /// visible page by page (overlay patch + resident-frame refresh; a
  /// reader's copy-then-recheck finds each pre-image already captured),
  /// (3) clip runs and the cached shape advance, (4) publish. Costs
  /// O(pages in the window), however large the overlay has grown.
  void ApplyWindow(const storage::WalCommitWindow& win) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const storage::WalPageImage& img : win.images) {
      CaptureReplicaPreImage(img.page_id, img.lsn);
    }
    for (const storage::WalPageImage& img : win.images) {
      pool_->PatchReadOverlay(img.page_id, img.bytes.data());
    }
    for (const storage::WalPageImage& img : win.images) {
      if (img.page_id == 0) {
        Superblock nsb{};
        std::memcpy(&nsb, img.bytes.data(), sizeof nsb);
        ApplyReplicaSuperblock(nsb);
      } else {
        ApplyClipUpdate(img.page_id, img.bytes.data(), img.bytes.size());
      }
    }
    for (const storage::WalPageImage& img : win.images) {
      if (img.page_id == 1 + sb_.root_page) {
        RefreshShapeFromRoot(img.bytes.data());
        break;
      }
    }
    applied_lsn_ = win.commit_lsn;
    op_seq_ = win.op_seq;
    PublishEpoch();
    ++windows_applied_;
    apply_ns_.Record(ElapsedNs(t0));
  }

  static uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// Resynchronizes from the page file after the writer checkpointed
  /// (generation bump / shrunk log). The file is fully durable past a
  /// checkpoint, so it IS the replica state from here on, and the
  /// overlay is dropped. Two paths:
  ///
  ///  * Fast, O(1): the replica applied every window the file reflects
  ///    (applied LSN >= the file superblock's LSN — every committed
  ///    transaction rewrites the superblock, so its LSN is that of the
  ///    last one; applied_lsn_ counts committed records only, see
  ///    OpenReadImpl). The file then equals base plus overlay, so the
  ///    visible bytes, clip runs and shape are already right: only the
  ///    superblock, generation and tailer move.
  ///  * Full, O(section): the replica missed windows (they went with the
  ///    truncated log). Every section page whose durable bytes differ
  ///    from the visible ones gets its old version captured (pinned
  ///    epochs stay exact) and its clip run reapplied.
  ///
  /// Either way one "jump" epoch is published. Returns false on an
  /// unreadable page (transient while the writer is mid-write; the next
  /// Refresh retries; no state was modified past the captures, which are
  /// harmless duplicates on retry).
  bool Rebase(const Superblock& fsb) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!serialize_internal::SuperblockSane(fsb,
                                            static_cast<uint32_t>(D))) {
      return false;
    }
    const bool fast = applied_lsn_ >= fsb.lsn;
    if (fast) {
      pool_->SetReadOverlay({});
    } else if (!RebaseFromFile(fsb)) {
      return false;
    }
    ApplyReplicaSuperblock(fsb);
    applied_lsn_ = std::max(applied_lsn_, fsb.lsn);
    op_seq_ = std::max(op_seq_, fsb.last_op_seq);
    gen_ = fsb.checkpoint_gen;
    tailer_->ResetToStart();
    ++(fast ? fast_rebases_ : full_rebases_);
    PublishEpoch();
    rebase_ns_.Record(ElapsedNs(t0));
    return true;
  }

  /// The full rebase's page pass (see Rebase): captures and refreshes
  /// every changed section page, reapplies every clip run, drops the
  /// overlay and recomputes the shape from the file's root.
  bool RebaseFromFile(const Superblock& fsb) {
    const size_t ps = sb_.file_page_size;
    std::vector<std::byte> file_page(ps);
    std::vector<std::byte> root_page;
    std::vector<std::pair<storage::PageId, std::vector<std::byte>>> changed;
    for (uint64_t p = 0; p < fsb.num_section_pages; ++p) {
      const storage::PageId fid = 1 + static_cast<int64_t>(p);
      if (!ReadLivePage(fid, file_page.data())) return false;
      if (static_cast<int64_t>(p) == fsb.root_page) {
        root_page = file_page;
      }
      bool from_file = false;
      const bool have_old =
          pool_->ReadForCapture(fid, capture_buf_.data(), &from_file);
      const bool visibly_same =
          have_old &&
          std::memcmp(capture_buf_.data(), file_page.data(), ps) == 0;
      if (!visibly_same) {
        if (have_old && win_captured_.insert(fid).second) {
          CaptureVisible(fid, from_file,
                         PageLsn(capture_buf_.data()) > applied_lsn_);
        }
        changed.emplace_back(fid, std::vector<std::byte>(file_page.begin(),
                                                         file_page.end()));
      }
      // Reapply the clip run from EVERY live page, not just visibly
      // changed ones: "visibly unchanged" only means the bytes match
      // what a reader could pin right now — a page that was never
      // resident reads back the new file bytes on both sides of that
      // diff, hiding every change since this replica last decoded it.
      // The clip index is derived state and must track the durable
      // image; no-op reapplies are skipped inside (no capture, no
      // epoch). Safe mid-loop: followers resolve clip lookups through
      // the epoch manager's base table, never this live index.
      ApplyClipUpdate(fid, file_page.data(), ps);
    }
    pool_->SetReadOverlay({});
    for (const auto& [fid, bytes] : changed) {
      pool_->RefreshResident(fid, bytes.data());
    }
    if (!root_page.empty()) RefreshShapeFromRoot(root_page.data());
    return true;
  }

  // ------------------------------------------------------------ write path

  /// Store hooks: dirty-set collection + file-owned id allocation.
  struct StoreHooks : storage::PageStoreObserver, storage::PageIdSource {
    explicit StoreHooks(PagedRTree* o) : owner(o) {}
    void OnAllocate(storage::PageId id) override {
      owner->dirty_.insert(id);
      owner->born_.insert(id);
      owner->freed_.erase(id);
    }
    void OnFree(storage::PageId id) override {
      // Capture before the born_ bookkeeping below: old snapshots may
      // still reference this page as a node, and its id can be recycled
      // within this very window (free + realloc in one op leaves no
      // staging step to capture from).
      owner->CaptureFreedPage(id);
      owner->dirty_.erase(id);
      owner->born_.erase(id);
      owner->freed_.insert(id);
      // The node's relocated clip run dies with it.
      auto it = owner->spill_of_.find(id);
      if (it != owner->spill_of_.end()) {
        owner->ReleaseSectionPage(it->second);
        owner->spill_of_.erase(it);
      }
    }
    void OnTouchMutable(storage::PageId id) override {
      owner->dirty_.insert(id);
    }
    storage::PageId NextId() override {
      return owner->AllocateSectionPage();
    }
    void ReleaseId(storage::PageId id) override {
      if (!owner->free_map_.Free(id)) {
        // A refused free means the allocator and the tree disagree about
        // the page's state — poison rather than corrupt the chain.
        owner->io_error_.store(true, std::memory_order_relaxed);
      }
    }
    PagedRTree* owner;
  };

  storage::PageId AllocateSectionPage() { return free_map_.Allocate().id; }

  void ReleaseSectionPage(storage::PageId id) {
    // Only spill pages come through here (shrink-back and owner-death
    // cleanup) — snapshot readers never read spill pages, so no
    // pre-image capture is needed.
    if (!free_map_.Free(id)) {
      io_error_.store(true, std::memory_order_relaxed);
      return;
    }
    born_.erase(id);
    freed_.insert(id);
  }

  void BeginOp() {
    dirty_.clear();
    born_.clear();
    freed_.clear();
    stage_io_ = storage::BufferPool::PinIo{};
    staging_seq_ = op_seq_ + 1;  // the transaction every record is tagged
  }

  /// Stages one operation: encodes every dirty node page (relocating or
  /// releasing clip-spill pages as runs grow/shrink), rewrites freed pages
  /// as free-chain links, refreshes the superblock, appends everything to
  /// the WAL, and closes the transaction with a commit record. Group
  /// commit: fsync every `commit_every` operations.
  ///
  /// Transaction atomicity: every staged frame stays *pinned* until the
  /// commit record is appended, so a mid-operation eviction can never push
  /// a page of an uncommitted transaction into the file (a forced WAL
  /// flush may durable-ize a commit-less record tail, but recovery
  /// discards such tails and none of their pages can have reached disk).
  bool EndOp() {
    const storage::WalStats wal0 = wal_.stats();
    bool ok = true;

    // Deterministic page order keeps WAL contents reproducible.
    std::vector<storage::PageId> order(dirty_.begin(), dirty_.end());
    std::sort(order.begin(), order.end());
    for (storage::PageId id : order) {
      if (freed_.count(id) || !tree_->NodeLive(id)) continue;
      ok &= StageNodePage(id);
      // Bound the WAL buffer on huge transactions (UpdateClips rewrites
      // every node): a mid-transaction sync is safe — the record tail
      // has no commit yet, and op_seq tagging keeps leaked images inert.
      if (wal_.pending_bytes() > kWalBufferSoftMax) ok &= wal_.Sync();
    }
    std::vector<storage::PageId> freed(freed_.begin(), freed_.end());
    std::sort(freed.begin(), freed.end());
    for (storage::PageId id : freed) {
      if (!free_map_.Contains(id)) continue;  // reallocated within the op
      ok &= StageFreePage(id);
    }
    ok &= StageSuperblock();
    if (ok) {
      wal_.AppendCommit(staging_seq_);
      op_seq_ = staging_seq_;
    } else {
      // Staging failed: the operation never commits. Durable-ize earlier
      // group-committed work (this op's leaked images stay inert — no
      // commit record carries their op_seq), then poison the writer:
      // frames holding uncommitted mutations are dropped so nothing of
      // this op can reach the file, and further updates are refused. The
      // next open recovers the file to the last durable commit.
      wal_.Sync();
    }
    for (const auto& [page, lsn] : staged_pins_) {
      pool_->Unpin(page, /*dirty=*/true, lsn, &stage_io_);
    }
    staged_pins_.clear();
    if (!ok) {
      pool_->DiscardAll();
      io_error_.store(true, std::memory_order_relaxed);
      return false;
    }
    // Refresh the cached shape before a possible publish below — the
    // published EpochTreeView must describe the state this op committed.
    height_ = tree_->Height();
    bounds_ = tree_->bounds();
    if (++ops_since_sync_ >= commit_every_) {
      ops_since_sync_ = 0;
      ok &= wal_.Sync();
      // Group-commit boundary: everything synced is committed, so the
      // writer-side publish point is here (never on eviction-forced syncs,
      // which can run on reader threads mid-window).
      if (ok) PublishEpoch();
    }

    // WAL syncs come from the WalStats delta (stage_io_.wal_syncs is a
    // subset of it: forced write-back syncs are real Wal::Sync calls).
    stage_io_.wal_syncs = 0;
    FoldPinIo(stage_io_, &update_io_);
    const storage::WalStats& w = wal_.stats();
    update_io_.wal_appends += w.appends - wal0.appends;
    update_io_.wal_bytes += w.bytes - wal0.bytes;
    update_io_.wal_syncs += w.syncs - wal0.syncs;
    // Bound the log at an operation boundary: it grows by whole page
    // images and only a checkpoint truncates it, so a writer that never
    // checkpoints would otherwise grow it without limit.
    if (ok && wal_.size_bytes() > kWalCheckpointBytes) ok = Checkpoint();
    if (!ok) io_error_.store(true, std::memory_order_relaxed);
    return ok;
  }

  /// Pins a page frame for full overwrite: pages born this operation have
  /// no on-disk contents worth reading (PinNew); existing pages fault in
  /// through the pool like any real paged engine (the physical read is the
  /// update path's page-read cost).
  std::byte* PinForStage(storage::PageId id) {
    if (born_.count(id)) return pool_->PinNew(1 + id, &stage_io_);
    return pool_->PinForWrite(1 + id, &stage_io_);
  }

  bool StageNodePage(storage::PageId id) {
    const Node<D>& n = tree_->NodeAt(id);
    const std::span<const core::ClipPoint<D>> clips =
        sb_.clipped ? clips_->Get(id)
                    : std::span<const core::ClipPoint<D>>{};
    std::byte* frame = PinForStage(id);
    if (!frame) return false;
    const storage::PageId fid = 1 + id;
    // First touch this window: the pinned frame still holds the page as
    // of the last publish — capture that pre-image for snapshot readers
    // before the install replaces it. Pages born this op have no
    // committed pre-image. (`win_captured_` keys are FILE page ids.)
    if (epochs_ && !born_.count(id) && win_captured_.insert(fid).second) {
      epochs_->CapturePage(fid, frame, sb_.file_page_size);
    }
    const uint64_t lsn = wal_.next_lsn();
    staged_pins_.emplace_back(fid, lsn);
    // Encode into private scratch, log from it, then install into the
    // pinned frame under the pool's shard latch — a concurrent snapshot
    // reader copying this frame sees either the old page or the new one,
    // never a torn mix. (The encoders zero-fill, so the scratch image is
    // byte-identical to the old in-place encode.)
    const bool inlined =
        EncodeNodePage<D>(n, clips, stage_buf_.data(), sb_.file_page_size,
                          lsn);
    wal_.AppendPageImage(fid, stage_buf_.data(), staging_seq_);
    pool_->OverwritePinned(fid, stage_buf_.data());

    if (!inlined) {
      auto it = spill_of_.find(id);
      storage::PageId sp;
      if (it != spill_of_.end()) {
        sp = it->second;  // rewrite the node's existing spill page
      } else {
        sp = AllocateSectionPage();
        born_.insert(sp);
        freed_.erase(sp);
        spill_of_[id] = sp;
      }
      // No pre-image capture: snapshot readers never read spill pages
      // (clip runs resolve through the epoch manager), and a recycled id
      // was captured when it was freed.
      std::byte* sframe =
          pool_->PinNew(1 + sp, &stage_io_);  // full overwrite, no read
      if (!sframe) return false;
      const uint64_t slsn = wal_.next_lsn();
      staged_pins_.emplace_back(1 + sp, slsn);
      if (!EncodeSpillPage<D>(id, clips, stage_buf_.data(),
                              sb_.file_page_size, slsn)) {
        return false;  // run exceeds a whole page; file page size too small
      }
      wal_.AppendPageImage(1 + sp, stage_buf_.data(), staging_seq_);
      pool_->OverwritePinned(1 + sp, stage_buf_.data());
    } else {
      auto it = spill_of_.find(id);
      if (it != spill_of_.end()) {  // run shrank back inline
        ReleaseSectionPage(it->second);
        spill_of_.erase(it);
        // The released page is staged by the freed-page loop in EndOp
        // when it is still free by then.
      }
    }
    return true;
  }

  bool StageFreePage(storage::PageId id) {
    // Pre-image capture happened when the page left the live set
    // (CaptureFreedPage) — by staging time the id may already be
    // recycled, so capturing here would be too late.
    std::byte* frame = pool_->PinNew(1 + id, &stage_io_);  // full overwrite
    if (!frame) return false;
    const uint64_t lsn = wal_.next_lsn();
    staged_pins_.emplace_back(1 + id, lsn);
    EncodeFreePage(stage_buf_.data(), sb_.file_page_size,
                   free_map_.NextOf(id), lsn);
    wal_.AppendPageImage(1 + id, stage_buf_.data(), staging_seq_);
    pool_->OverwritePinned(1 + id, stage_buf_.data());
    return true;
  }

  bool StageSuperblock() {
    // The op number rides in the superblock image as well as the commit
    // record, so it survives the checkpoint truncating the WAL.
    sb_.last_op_seq = staging_seq_;
    sb_.num_objects = tree_->NumObjects();
    sb_.num_nodes = tree_->NumNodes();
    sb_.num_section_pages = free_map_.SectionPages();
    sb_.root_page = tree_->root();
    sb_.free_head = free_map_.head() == storage::kInvalidPage
                        ? -1
                        : free_map_.head();
    sb_.free_count = free_map_.FreeCount();
    sb_.num_spill_pages = spill_of_.size();
    if (sb_.clipped) {
      sb_.num_clip_points = clips_->TotalClipPoints();
      sb_.num_clipped_nodes = clips_->NumClippedNodes();
    }
    // Page 0 never becomes a pool frame: the image goes to the log only,
    // and the file's superblock is written by BumpCheckpointGen alone,
    // after the pages it describes are synced. A superblock reaching the
    // file ahead of its data pages (through eviction or a checkpoint
    // flush) would let a follower rebase onto an LSN the file does not
    // yet reflect.
    sb_.lsn = wal_.next_lsn();
    EncodeSuperblock();
    wal_.AppendPageImage(0, stage_buf_.data(), staging_seq_);
    return true;
  }

  /// Encodes sb_ as a full page into stage_buf_ and keeps the in-memory
  /// superblock's checksum equal to the encoded image's.
  void EncodeSuperblock() {
    std::memset(stage_buf_.data(), 0, sb_.file_page_size);
    std::memcpy(stage_buf_.data(), &sb_, sizeof sb_);
    StampSuperblockPage(stage_buf_.data(), sb_.file_page_size);
    std::memcpy(&sb_.checksum,
                stage_buf_.data() + offsetof(Superblock, checksum),
                sizeof sb_.checksum);
  }

  /// Advances the superblock's checkpoint generation and writes page 0
  /// straight to the (just-synced) file, durably, with the SAME LSN —
  /// followers key their rebase decision off the generation alone. The
  /// only writer of the file's page 0: it runs between a checkpoint's data
  /// sync and its log truncation (see Checkpoint() for why this order
  /// makes log truncation safe to observe from another process), and at a
  /// write open whose recovery truncated the log.
  bool BumpCheckpointGen() {
    ++sb_.checkpoint_gen;
    EncodeSuperblock();
    return file_.WritePage(0, stage_buf_.data()) && file_.Sync();
  }

  // ---------------------------------------------------- epoch bookkeeping

  /// The live tree shape as an EpochTreeView (the manager stamps the
  /// epoch id at publish).
  EpochTreeView<D> CurrentView() const {
    EpochTreeView<D> v;
    v.root_page = sb_.root_page;
    v.num_section_pages = sb_.num_section_pages;
    v.num_objects = sb_.num_objects;
    v.height = height_;
    v.clipped = sb_.clipped != 0;
    v.bounds = bounds_;
    v.follower = follow_mode_;
    v.applied_lsn = applied_lsn_;
    return v;
  }

  /// First-touch pre-image capture of a page leaving the live node set:
  /// old snapshots' parents may still reference it, and no later staging
  /// step sees its old bytes (the id may be recycled within this very
  /// window). Reads the resident frame, else the file (the file copy is
  /// current — dirty frames only leave the pool via write-back). A failed
  /// read means the page never reached the file: it was born inside this
  /// window, so no published epoch references it and skipping is correct.
  void CaptureFreedPage(storage::PageId id) {
    if (!epochs_ || born_.count(id)) return;
    const storage::PageId fid = 1 + id;
    if (win_captured_.count(fid)) return;
    bool from_file = false;
    if (!pool_->ReadForCapture(fid, capture_buf_.data(), &from_file)) {
      return;
    }
    if (from_file) capture_reads_.fetch_add(1, std::memory_order_relaxed);
    epochs_->CapturePage(fid, capture_buf_.data(), sb_.file_page_size);
    win_captured_.insert(fid);
  }

  /// ClipIndex pre-mutation hook (write mode): first touch of a node's
  /// clip run in this window captures its pre-image into the pending
  /// epoch. Fires before Set/Erase and once per live entry before Clear,
  /// so UpdateClips (rebuild = Clear + Sets) captures the whole old table.
  void OnClipMutate(core::NodeId nid,
                    std::span<const core::ClipPoint<D>> old_run) {
    if (!epochs_) return;
    if (!win_clip_captured_.insert(nid).second) return;
    epochs_->CaptureClips(nid, old_run);
  }

  /// Folds the window's captures into a published epoch (commit
  /// boundaries only — everything staged so far is durable). Hands the
  /// manager the post-state clip runs of every node whose clips changed,
  /// so its base table advances in step with the live index; then opens a
  /// fresh capture window. An empty window refreshes the published view
  /// without minting an epoch (and without an event).
  void PublishEpoch() {
    if (!epochs_) return;
    std::vector<std::pair<core::NodeId, typename EpochManager<D>::ClipRun>>
        base_updates;
    base_updates.reserve(win_clip_captured_.size());
    for (core::NodeId nid : win_clip_captured_) {
      const std::span<const core::ClipPoint<D>> run = clips_->Get(nid);
      base_updates.emplace_back(
          nid, typename EpochManager<D>::ClipRun(run.begin(), run.end()));
    }
    const uint64_t before = epochs_->published_epoch();
    const uint64_t e =
        epochs_->Publish(CurrentView(), std::move(base_updates));
    win_captured_.clear();
    win_clip_captured_.clear();
    if (e != before) {
      obs::EventLog::Global().Record(obs::EventKind::kSnapshotPublish,
                                     /*page=*/-1, /*shard=*/0,
                                     "commit-boundary", e);
    }
  }

  /// True when the page is a node page whose declared counts fit the
  /// frame; a corrupt or non-node page must never drive the scan kernels
  /// past the pinned bytes. (Called from the open-time scan before
  /// height_ is known, so it cannot bound level; the packed header caps
  /// level at 31 structurally.)
  bool ValidPage(const PagedNodeView<D>& v) const {
    return PageIsNode(v.header) &&
           v.n() <= static_cast<uint32_t>(sb_.max_entries) &&
           PagedNodeBytes<D>(v.n()) +
                   ClipRunBytes<D>(v.ClipsSpilled()
                                       ? 0
                                       : v.header.clip_count()) <=
               sb_.file_page_size;
  }

  storage::PageFile file_;
  std::unique_ptr<storage::BufferPool> pool_;
  /// Open-time redo scratch: newest committed WAL images a read-only
  /// open must not write into the file (empty in write mode). Handed to
  /// the pool by FinishOpen, which owns the overlay from then on (patched
  /// per applied window in follow mode, dropped at rebase).
  storage::RecoveredPageMap redo_overlay_;
  Superblock sb_{};
  core::ClipIndex<D> clip_index_;  // read-only mode's clip table
  const core::ClipIndex<D>* clips_ = &clip_index_;  // active table
  RectT bounds_ = RectT::Empty();
  int height_ = 1;
  bool open_ = false;
  /// Sticky error flag; atomic — concurrent queries set it (see io_error).
  std::atomic<bool> io_error_{false};

  // Write mode.
  bool write_mode_ = false;
  std::unique_ptr<RTree<D>> tree_;  // memory mirror, ids = file indexes
  std::unique_ptr<StoreHooks> hooks_;
  storage::Wal wal_;
  storage::FreePageMap free_map_;
  storage::Wal::RecoveryResult recovery_;
  std::unordered_map<storage::PageId, storage::PageId> spill_of_;
  std::unordered_set<storage::PageId> dirty_;  // touched this op
  std::unordered_set<storage::PageId> born_;   // allocated this op
  std::unordered_set<storage::PageId> freed_;  // released this op
  /// Frames staged this op, pinned until the commit record is appended
  /// (file page id, WAL LSN of its image).
  std::vector<std::pair<storage::PageId, uint64_t>> staged_pins_;
  /// Physical transfers of the operation being staged (single-writer, so
  /// one accumulator suffices; reset by BeginOp, drained into update_io_).
  storage::BufferPool::PinIo stage_io_;
  storage::IoStats update_io_;
  uint64_t op_seq_ = 0;
  uint64_t staging_seq_ = 0;  // transaction tag of the op being staged
  size_t commit_every_ = 1;
  size_t ops_since_sync_ = 0;
  /// Mid-transaction WAL-buffer flush threshold (see EndOp).
  static constexpr size_t kWalBufferSoftMax = size_t{16} << 20;

  // Epoch / snapshot machinery (rtree/epoch.h). shared_ptr because
  // Snapshot handles may outlive Close().
  std::shared_ptr<EpochManager<D>> epochs_;
  /// Staging scratch: pages are encoded here and installed into the
  /// pinned frame under the shard latch, so a concurrent snapshot reader
  /// never sees a frame mid-encode.
  std::vector<std::byte> stage_buf_;
  std::vector<std::byte> capture_buf_;  // CaptureFreedPage read target
  /// File page ids whose pre-image is already in the pending epoch.
  std::unordered_set<storage::PageId> win_captured_;
  /// Node ids whose clip-run pre-image is already in the pending epoch.
  std::unordered_set<core::NodeId> win_clip_captured_;
  /// Pre-image captures that fell through to a direct file read
  /// (metrics; atomic only because PublishMetrics is const-callable from
  /// other threads).
  std::atomic<uint64_t> capture_reads_{0};

  // Follow mode (replica). All mutable replica state below is written
  // only under refresh_mu_; queries never read it directly (they go
  // through pinned epoch views), and PublishMetrics takes the mutex.
  bool follow_mode_ = false;
  /// The log reader: its first poll built the open-time redo overlay,
  /// so it resumes past every window that overlay reflects.
  std::unique_ptr<storage::WalTailer> tailer_;
  /// WAL LSN the replica's published state has applied through: the
  /// commit record of the last applied window (at open, the last one
  /// recovered — never a pending tail's records), or the superblock LSN
  /// after a rebase that had missed windows. Never decreases while open. Stays 0 on non-followers (the staleness gate in
  /// SnapshotSource is then disabled).
  uint64_t applied_lsn_ = 0;
  /// Checkpoint generation the replica's log cursor is valid for.
  uint32_t gen_ = 0;
  uint64_t fast_rebases_ = 0;  // caught up: overlay dropped, no page pass
  uint64_t full_rebases_ = 0;  // missed windows: every page re-read
  uint64_t windows_applied_ = 0;
  obs::Histogram apply_ns_;   // per applied commit window
  obs::Histogram rebase_ns_;  // per rebase, both paths
  /// Serializes Refresh() callers and guards the replica counters for
  /// PublishMetrics.
  mutable std::mutex refresh_mu_;
};

}  // namespace clipbb::rtree

#endif  // CLIPBB_RTREE_PAGED_RTREE_H_
