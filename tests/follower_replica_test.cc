// Follower-replica coverage: a forked writer child applies an operation
// log to a read-write PagedRTree while the parent tails the same file in
// OpenMode::kFollow. The two processes run in lockstep over a pipe pair
// (child commits one op, signals, waits for the ack), so at every commit
// boundary the parent can gate the follower element-for-element against
// an in-memory reference tree built over exactly the committed prefix —
// range results, visit-order I/O counters, and kNN distances — across
// variants and D=2/3, with mid-stream Checkpoint() truncations forcing
// the rebase path. Mostly each checkpoint gets a lockstep beat of its
// own, so the lockstep follower has applied every window before it
// rebases (the O(1) fast path); a second follower that refreshes only at
// checkpoints misses windows and takes the full page-file pass, and the
// two must then agree byte for byte. One run checkpoints inside the
// op's beat instead, so the lockstep follower itself takes the full path
// under its long-lived pin.
//
// The kill-point sweep reuses the crash injection of wal_recovery_test:
// the child dies mid-write (optionally leaving a torn page/record), the
// follower refreshes against the carcass (allowed to answer exactly or
// fail kStaleSnapshot — never a torn mix), then a write-mode open runs
// recovery, whose checkpoint-generation bump the follower must detect
// and rebase from, after which gating is unconditional again.
//
// Sweep control (same env hooks as wal_recovery_test):
//   CLIPBB_CRASH_AFTER_N_WRITES=N  verify exactly one kill point
//   CLIPBB_CRASH_TORN=1            the fatal write leaves a torn prefix
//   CLIPBB_CRASH_SWEEP_STRIDE=k    sweep every k-th kill point
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "storage/crash_point.h"
#include "storage/wal_scan.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomPoint;
using clipbb::testing::RandomRect;

template <int D>
geom::Rect<D> Domain() {
  geom::Rect<D> r;
  for (int i = 0; i < D; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "clipbb_fol_" + name + "_" +
         std::to_string(::getpid()) + ".pages";
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() {
    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
  }
  std::string path;
};

template <int D>
struct Op {
  bool is_insert;
  geom::Rect<D> rect;
  ObjectId id;
};

template <int D>
struct Workload {
  std::vector<Entry<D>> items;
  std::vector<Op<D>> ops;
};

template <int D>
Workload<D> MakeWorkload(int n_items, int n_ops, uint32_t seed) {
  Rng rng(seed);
  Workload<D> w;
  for (int i = 0; i < n_items; ++i) {
    w.items.push_back(Entry<D>{RandomRect<D>(rng, 0.05), i});
  }
  size_t del = 0;
  ObjectId next_id = n_items;
  for (int i = 0; i < n_ops; ++i) {
    if (i % 3 == 1 && del < w.items.size()) {
      w.ops.push_back(Op<D>{false, w.items[del].rect, w.items[del].id});
      ++del;
    } else {
      w.ops.push_back(Op<D>{true, RandomRect<D>(rng, 0.05), next_id++});
    }
  }
  return w;
}

/// Element-for-element gate: every query kind the engine offers must
/// answer over the follower exactly like the in-memory reference — same
/// ids in the same order, same logical node accesses, same kNN
/// distances. The reference holds the committed prefix, so equality here
/// IS the replication contract.
template <int D>
void GateQueries(PagedRTree<D>& follower, RTree<D>* ref, uint32_t seed) {
  SCOPED_TRACE(::testing::Message() << "gate seed " << seed);
  Rng rng(seed);
  for (int q = 0; q < 6; ++q) {
    const auto query = RandomRect<D>(rng, 0.15);
    std::vector<ObjectId> a, b;
    storage::IoStats io_a, io_b;
    storage::Status st;
    ref->RangeQuery(query, &a, &io_a);
    follower.RangeQuery(query, &b, &io_b, nullptr, &st);
    ASSERT_TRUE(st.ok()) << st.kind_name() << " at page " << st.page;
    ASSERT_EQ(a, b) << "query " << q;
    ASSERT_EQ(io_a.leaf_accesses, io_b.leaf_accesses);
    ASSERT_EQ(io_a.internal_accesses, io_b.internal_accesses);
    ASSERT_EQ(io_a.clip_accesses, io_b.clip_accesses);
    ASSERT_EQ(follower.RangeCount(query), a.size());
  }
  const geom::Vec<D> p = RandomPoint<D>(rng);
  const SpatialEngine<D> mem(*ref);
  std::vector<KnnNeighbor<D>> mem_knn;
  KnnHeapSink<D> mem_sink(&mem_knn);
  mem.Execute(QuerySpec<D>::Knn(p, 8), &mem_sink);
  std::vector<KnnNeighbor<D>> rep_knn;
  storage::Status st;
  follower.Knn(
      p, 8, [&rep_knn](const KnnNeighbor<D>& n) { rep_knn.push_back(n); },
      nullptr, &st);
  ASSERT_TRUE(st.ok()) << st.kind_name();
  ASSERT_EQ(rep_knn.size(), mem_knn.size());
  for (size_t i = 0; i < rep_knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(rep_knn[i].dist2, mem_knn[i].dist2) << "rank " << i;
  }
}

/// Checkpoint cadence of the lockstep harness: true after op `i` (0-based)
/// when the child checkpoints there.
bool CheckpointAfter(size_t i, int checkpoint_every) {
  return checkpoint_every > 0 &&
         (i + 1) % static_cast<size_t>(checkpoint_every) == 0;
}

/// Where a checkpoint falls in the lockstep harness.
enum class CheckpointBeat {
  /// A beat of its own after the op's beat: the follower has applied
  /// every window first, so its rebase takes the fast path, and a second
  /// follower that refreshes only at checkpoints takes the full path.
  kOwn,
  /// In the op's beat, right after its commit: the follower never sees
  /// that window (the checkpoint truncates it), so its rebase takes the
  /// full path under the long-lived pinned snapshot's exact check.
  kWithCommit,
};

/// Child body: one lockstep beat per op (commit, signal, wait for the
/// ack), plus one per checkpoint with CheckpointBeat::kOwn; clean close,
/// exit 0.
template <int D>
void RunLockstepChild(const std::string& path, Variant variant,
                      const Workload<D>& w, int checkpoint_every,
                      CheckpointBeat cp_beat, int sig_fd, int ack_fd) {
  PagedRTree<D> paged;
  typename PagedRTree<D>::OpenOptions wopts;
  wopts.mode = PagedRTree<D>::OpenMode::kReadWrite;
  wopts.commit_every = 1;  // every op durable (and tailable) on return
  wopts.pool_pages = 16;   // small pool: evictions + WAL rule on the way
  if (!paged.Open(path, wopts, MakeRTree<D>(variant, Domain<D>()))) {
    ::_exit(3);
  }
  char beat = 0;
  auto lockstep = [&] {
    if (::write(sig_fd, &beat, 1) != 1) ::_exit(6);
    if (::read(ack_fd, &beat, 1) != 1) ::_exit(7);
  };
  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Op<D>& op = w.ops[i];
    if (op.is_insert ? !paged.Insert(op.rect, op.id)
                     : !paged.Delete(op.rect, op.id)) {
      ::_exit(4);
    }
    const bool cp = CheckpointAfter(i, checkpoint_every);
    if (cp && cp_beat == CheckpointBeat::kWithCommit && !paged.Checkpoint()) {
      ::_exit(5);
    }
    lockstep();
    if (cp && cp_beat == CheckpointBeat::kOwn) {
      if (!paged.Checkpoint()) ::_exit(5);
      lockstep();
    }
  }
  if (!paged.Close()) ::_exit(8);
  ::_exit(0);
}

/// Refresh that must succeed and must never move the applied LSN back.
template <int D>
void RefreshMonotone(PagedRTree<D>& follower) {
  const uint64_t before = follower.replica_applied_lsn();
  ASSERT_TRUE(follower.Refresh());
  ASSERT_GE(follower.replica_applied_lsn(), before)
      << "replica_applied_lsn went backwards";
}

template <int D>
bool SameClipRun(std::span<const core::ClipPoint<D>> a,
                 std::span<const core::ClipPoint<D>> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Field-wise: ClipPoint has padding after the mask byte.
    if (a[i].mask != b[i].mask || a[i].score != b[i].score ||
        !(a[i].coord == b[i].coord)) {
      return false;
    }
  }
  return true;
}

/// Byte-for-byte replica state equality of two followers of one file:
/// superblock, committed op, cached shape, every section page as a
/// reader copies it out of the pool, and every clip run.
template <int D>
void ExpectSameReplicaState(PagedRTree<D>& a, PagedRTree<D>& b) {
  ASSERT_EQ(std::memcmp(&a.superblock(), &b.superblock(),
                        sizeof(Superblock)),
            0);
  ASSERT_EQ(a.last_committed_op(), b.last_committed_op());
  ASSERT_EQ(a.Height(), b.Height());
  ASSERT_TRUE(a.bounds() == b.bounds());
  const Superblock& sb = a.superblock();
  std::vector<std::byte> pa(sb.file_page_size), pb(sb.file_page_size);
  for (uint64_t p = 0; p < sb.num_section_pages; ++p) {
    const storage::PageId fid = 1 + static_cast<storage::PageId>(p);
    ASSERT_TRUE(a.pool().ReadPageCopy(fid, pa.data())) << "page " << fid;
    ASSERT_TRUE(b.pool().ReadPageCopy(fid, pb.data())) << "page " << fid;
    ASSERT_EQ(pa, pb) << "page " << fid;
  }
  std::map<core::NodeId, std::span<const core::ClipPoint<D>>> runs;
  a.clip_index().ForEach(
      [&](core::NodeId nid, std::span<const core::ClipPoint<D>> run) {
        runs.emplace(nid, run);
      });
  size_t b_runs = 0;
  b.clip_index().ForEach(
      [&](core::NodeId nid, std::span<const core::ClipPoint<D>> run) {
        ++b_runs;
        auto it = runs.find(nid);
        ASSERT_TRUE(it != runs.end()) << "clip run of node " << nid;
        EXPECT_TRUE(SameClipRun<D>(it->second, run)) << "node " << nid;
      });
  ASSERT_EQ(b_runs, runs.size());
}

/// Range answers (outcome, ids and leaf accesses) of a follower's
/// snapshot.
struct SnapshotAnswers {
  std::vector<storage::ErrorKind> kinds;
  std::vector<std::vector<ObjectId>> ids;
  std::vector<uint64_t> leaf_accesses;
};

template <int D>
SnapshotAnswers AnswerAll(PagedRTree<D>& follower,
                          const std::vector<geom::Rect<D>>& queries,
                          const typename PagedRTree<D>::SnapshotT* snap) {
  SnapshotAnswers out;
  for (const geom::Rect<D>& q : queries) {
    std::vector<ObjectId> ids;
    storage::IoStats io;
    storage::Status st;
    follower.RangeQuery(q, &ids, &io, nullptr, &st, snap);
    out.kinds.push_back(st.kind);
    out.ids.push_back(std::move(ids));
    out.leaf_accesses.push_back(io.leaf_accesses);
  }
  return out;
}

/// `b` must answer every query exactly like `a`, both without error.
/// With `b_may_be_stale`, a query of `b` may instead refuse with
/// kStaleSnapshot — the follower contract for a pin whose pre-image was
/// lost — but whatever it does answer must match.
void ExpectSameAnswers(const SnapshotAnswers& a, const SnapshotAnswers& b,
                       const char* what, bool b_may_be_stale = false) {
  ASSERT_EQ(a.ids.size(), b.ids.size()) << what;
  const auto ok = storage::ErrorKind::kNone;
  for (size_t q = 0; q < a.ids.size(); ++q) {
    if (b_may_be_stale && b.kinds[q] == storage::ErrorKind::kStaleSnapshot) {
      continue;
    }
    ASSERT_EQ(b.kinds[q], ok) << what << ", query " << q;
    ASSERT_EQ(a.kinds[q], ok) << what << ", query " << q;
    ASSERT_EQ(a.ids[q], b.ids[q]) << what << ", query " << q;
    ASSERT_EQ(a.leaf_accesses[q], b.leaf_accesses[q]) << what << ", query "
                                                      << q;
  }
}

/// The checkpoint beat. `follower` applied every window before the
/// checkpoint, so its rebase must take the fast path; `catchup` has not
/// refreshed since the previous checkpoint, so its rebase must take the
/// full page-file pass. Afterwards the two must hold the same state byte
/// for byte and answer like the reference. A snapshot pinned on each
/// just before the rebase keeps its answers: exactly on the caught-up
/// follower, and on the lagging one wherever it answers at all (the
/// checkpoint already overwrote base pages it never captured, so some
/// of its reads legitimately refuse with kStaleSnapshot).
template <int D>
void RebaseBothPaths(PagedRTree<D>& follower, PagedRTree<D>& catchup,
                     RTree<D>* ref, uint32_t seed) {
  Rng rng(seed);
  std::vector<geom::Rect<D>> queries;
  for (int q = 0; q < 4; ++q) queries.push_back(RandomRect<D>(rng, 0.3));
  auto fast_pin = follower.PinSnapshot();
  auto full_pin = catchup.PinSnapshot();
  const SnapshotAnswers fast_before = AnswerAll(follower, queries, &fast_pin);
  const SnapshotAnswers full_before = AnswerAll(catchup, queries, &full_pin);
  const uint64_t fast0 = follower.replica_fast_rebases();
  const uint64_t rebases0 = follower.replica_rebases();
  const uint64_t op = follower.last_committed_op();
  RefreshMonotone(follower);
  ASSERT_EQ(follower.replica_rebases(), rebases0 + 1);
  ASSERT_EQ(follower.replica_fast_rebases(), fast0 + 1)
      << "a caught-up follower took the full rebase";
  ASSERT_EQ(follower.last_committed_op(), op);
  const uint64_t catchup_fast0 = catchup.replica_fast_rebases();
  RefreshMonotone(catchup);
  ASSERT_GE(catchup.replica_rebases(), 1u);
  ASSERT_EQ(catchup.replica_fast_rebases(), catchup_fast0)
      << "a follower that missed windows took the fast rebase";
  // The page file is authoritative past a checkpoint: no overlay left.
  EXPECT_EQ(follower.pool().ReadOverlayPages(), 0u);
  EXPECT_EQ(catchup.pool().ReadOverlayPages(), 0u);

  ExpectSameReplicaState(follower, catchup);
  if (::testing::Test::HasFatalFailure()) return;
  ExpectSameAnswers(fast_before, AnswerAll(follower, queries, &fast_pin),
                    "fast-path pin after rebase");
  ExpectSameAnswers(full_before, AnswerAll(catchup, queries, &full_pin),
                    "full-path pin after rebase", /*b_may_be_stale=*/true);
  // A checkpoint changes no content: the pre-checkpoint pin answers like
  // the full-path follower's current state.
  ExpectSameAnswers(fast_before, AnswerAll(catchup, queries, nullptr),
                    "fast-path pin vs full-path current");
  GateQueries<D>(catchup, ref, seed + 1);
}

/// Lockstep drive: gate the follower at every commit boundary while a
/// mid-stream pinned snapshot must keep answering its pin-time results
/// bit-for-bit no matter how far the replica advances past it.
template <int D>
void LockstepFollow(Variant variant, int n_items, int n_ops, uint32_t seed,
                    int checkpoint_every,
                    CheckpointBeat cp_beat = CheckpointBeat::kOwn) {
  const Workload<D> w = MakeWorkload<D>(n_items, n_ops, seed);
  auto bulk = BuildTree<D>(variant, w.items, Domain<D>());
  bulk->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath(std::string("lock") + VariantName(variant) +
                          std::to_string(D) + "c" +
                          std::to_string(checkpoint_every)));
  ASSERT_TRUE(WritePagedTree<D>(*bulk, file.path));

  PagedRTree<D> follower, catchup;
  typename PagedRTree<D>::OpenOptions fopts;
  fopts.mode = PagedRTree<D>::OpenMode::kFollow;
  ASSERT_TRUE(follower.Open(file.path, fopts));
  ASSERT_TRUE(follower.following());
  ASSERT_TRUE(catchup.Open(file.path, fopts));

  int sig[2], ack[2];
  ASSERT_EQ(::pipe(sig), 0);
  ASSERT_EQ(::pipe(ack), 0);
  ::fflush(nullptr);  // don't duplicate buffered gtest output in the child
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(sig[0]);
    ::close(ack[1]);
    RunLockstepChild<D>(file.path, variant, w, checkpoint_every, cp_beat,
                        sig[1], ack[0]);  // never returns
  }
  ::close(sig[1]);
  ::close(ack[0]);

  auto ref = BuildTree<D>(variant, w.items, Domain<D>());
  ref->EnableClipping(core::ClipConfig<D>::Sta());

  typename PagedRTree<D>::SnapshotT pinned;
  std::vector<ObjectId> pinned_expect;
  Rng pin_rng(seed + 1);
  const geom::Rect<D> pin_query = RandomRect<D>(pin_rng, 0.4);
  const size_t pin_at = w.ops.size() / 2;

  char beat = 0;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << VariantName(variant) << " D=" << D << " op " << i + 1);
    ASSERT_EQ(::read(sig[0], &beat, 1), 1) << "child died before op " << i;
    const bool cp = CheckpointAfter(i, checkpoint_every);
    const uint64_t full0 =
        follower.replica_rebases() - follower.replica_fast_rebases();
    RefreshMonotone(follower);
    if (::testing::Test::HasFatalFailure()) break;
    ASSERT_EQ(follower.last_committed_op(), i + 1);
    if (cp && cp_beat == CheckpointBeat::kWithCommit) {
      ASSERT_EQ(follower.replica_rebases() - follower.replica_fast_rebases(),
                full0 + 1)
          << "a follower that missed the truncated window took the fast "
             "rebase";
    }
    const Op<D>& op = w.ops[i];
    if (op.is_insert) {
      ref->Insert(op.rect, op.id);
    } else {
      ASSERT_TRUE(ref->Delete(op.rect, op.id));
    }
    GateQueries<D>(follower, ref.get(), seed + 100 + static_cast<int>(i));
    if (::testing::Test::HasFatalFailure()) break;
    if (i + 1 == pin_at) {
      pinned = follower.PinSnapshot();
      storage::Status st;
      follower.RangeQuery(pin_query, &pinned_expect, nullptr, nullptr, &st,
                          &pinned);
      ASSERT_TRUE(st.ok());
    }
    if (pinned.valid()) {
      std::vector<ObjectId> again;
      storage::Status st;
      follower.RangeQuery(pin_query, &again, nullptr, nullptr, &st, &pinned);
      ASSERT_TRUE(st.ok()) << st.kind_name() << " after op " << i + 1;
      ASSERT_EQ(again, pinned_expect) << "pinned epoch drifted at op "
                                      << i + 1;
    }
    ASSERT_EQ(::write(ack[1], &beat, 1), 1);
    if (cp && cp_beat == CheckpointBeat::kOwn) {
      ASSERT_EQ(::read(sig[0], &beat, 1), 1)
          << "child died in the checkpoint after op " << i + 1;
      RebaseBothPaths<D>(follower, catchup, ref.get(),
                         seed + 300 + static_cast<uint32_t>(i));
      if (::testing::Test::HasFatalFailure()) break;
      ASSERT_EQ(::write(ack[1], &beat, 1), 1);
    }
  }
  pinned.Release();
  EXPECT_GT(follower.replica_windows_applied(), 0u);
  const bool both_paths =
      checkpoint_every > 0 && cp_beat == CheckpointBeat::kOwn;
  if (checkpoint_every > 0) EXPECT_GE(follower.replica_rebases(), 1u);
  if (both_paths) EXPECT_GE(catchup.replica_rebases(), 1u);
  EXPECT_FALSE(follower.io_error());
  EXPECT_FALSE(catchup.io_error());
  // Close the pipe ends BEFORE reaping: if a gate failure broke out of
  // the loop mid-beat, the child is blocked reading the ack — EOF sends
  // it to its error exit instead of deadlocking the wait below.
  ::close(sig[0]);
  ::close(ack[1]);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exit " << WEXITSTATUS(status);
  // The CI smoke job greps this line to confirm live republication ran.
  std::printf("replica_epochs_republished=%llu rebases=%llu\n",
              static_cast<unsigned long long>(
                  follower.replica_windows_applied()),
              static_cast<unsigned long long>(follower.replica_rebases()));
  if (both_paths) {
    // ... and this one that both rebase paths ran and agreed.
    std::printf("rebase_paths_agree fast=%llu full=%llu\n",
                static_cast<unsigned long long>(
                    follower.replica_fast_rebases()),
                static_cast<unsigned long long>(
                    catchup.replica_rebases() -
                    catchup.replica_fast_rebases()));
  }
  EXPECT_TRUE(follower.Close());
  EXPECT_TRUE(catchup.Close());
}

TEST(FollowerReplica, Lockstep2dNoCheckpoint) {
  LockstepFollow<2>(Variant::kHilbert, 1500, 24, 601, /*checkpoint_every=*/0);
}

TEST(FollowerReplica, Lockstep2dCheckpointRotation) {
  // Checkpoints every 5 ops, each in its op's beat: the follower crosses
  // several generation bumps having missed the truncated window, so it
  // takes the full rebase through each, with the long-lived pin exact.
  LockstepFollow<2>(Variant::kRStar, 1200, 25, 603, /*checkpoint_every=*/5,
                    CheckpointBeat::kWithCommit);
}

TEST(FollowerReplica, Lockstep3dCheckpointRotation) {
  LockstepFollow<3>(Variant::kRRStar, 700, 18, 605, /*checkpoint_every=*/6);
}

TEST(FollowerReplica, LockstepAllVariantsCoarse) {
  // Every checkpoint beat rebases a caught-up follower (fast path) and a
  // follower that missed the windows since the last checkpoint (full
  // path), then compares them byte for byte (RebaseBothPaths).
  for (Variant v : kAllVariants) {
    LockstepFollow<2>(v, 600, 12, 607, /*checkpoint_every=*/4);
    if (::testing::Test::HasFatalFailure()) return;
    LockstepFollow<3>(v, 500, 10, 609, /*checkpoint_every=*/4);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------- crashes

/// Child body for the kill sweep: free-run the whole log (checkpointing
/// on a cadence so kills land before/inside/after truncations), exit 0.
template <int D>
void RunCrashChild(const std::string& path, Variant variant,
                   const Workload<D>& w, int checkpoint_every) {
  PagedRTree<D> paged;
  typename PagedRTree<D>::OpenOptions wopts;
  wopts.mode = PagedRTree<D>::OpenMode::kReadWrite;
  wopts.commit_every = 1;
  wopts.pool_pages = 16;
  if (!paged.Open(path, wopts, MakeRTree<D>(variant, Domain<D>()))) {
    ::_exit(3);
  }
  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Op<D>& op = w.ops[i];
    if (op.is_insert ? !paged.Insert(op.rect, op.id)
                     : !paged.Delete(op.rect, op.id)) {
      ::_exit(4);
    }
    if (checkpoint_every > 0 &&
        (i + 1) % static_cast<size_t>(checkpoint_every) == 0) {
      if (!paged.Checkpoint()) ::_exit(5);
    }
  }
  if (!paged.Checkpoint()) ::_exit(5);
  ::_exit(0);
}

template <int D>
bool CrashAt(const std::string& path, Variant variant, const Workload<D>& w,
             uint64_t n, bool torn, int checkpoint_every) {
  ::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    storage::CrashPointArm(n, torn);
    RunCrashChild<D>(path, variant, w, checkpoint_every);  // never returns
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  const int code = WEXITSTATUS(status);
  EXPECT_TRUE(code == 0 || code == storage::kCrashExitCode)
      << "child failed (not crash-killed) with exit " << code
      << " at kill point " << n;
  return code == 0;
}

/// One kill point: the follower (open across the whole crash) refreshes
/// against the dead writer's carcass — it may answer exactly, refuse
/// with kStaleSnapshot (an uncommitted eviction overwrote a base page it
/// never captured), or fail the refresh outright on a torn superblock;
/// what it must never do is answer wrong. Then write-mode recovery runs,
/// its generation bump lands, and the follower's next Refresh rebases to
/// the recovered prefix where gating is unconditional.
template <int D>
void VerifyFollowerAcrossCrash(PagedRTree<D>& follower,
                               const std::string& path, Variant variant,
                               const Workload<D>& w, uint64_t kill_point) {
  SCOPED_TRACE(::testing::Message() << "kill point " << kill_point);
  const bool refreshed = follower.Refresh();
  if (refreshed) {
    const uint64_t k1 = follower.last_committed_op();
    ASSERT_LE(k1, w.ops.size()) << "kill point " << kill_point;
    auto ref = BuildTree<D>(variant, w.items, Domain<D>());
    ref->EnableClipping(core::ClipConfig<D>::Sta());
    for (uint64_t i = 0; i < k1; ++i) {
      const Op<D>& op = w.ops[i];
      if (op.is_insert) {
        ref->Insert(op.rect, op.id);
      } else {
        ASSERT_TRUE(ref->Delete(op.rect, op.id));
      }
    }
    Rng rng(81);
    for (int q = 0; q < 10; ++q) {
      const auto query = RandomRect<D>(rng, 0.15);
      std::vector<ObjectId> a, b;
      storage::Status st;
      ref->RangeQuery(query, &a);
      follower.RangeQuery(query, &b, nullptr, nullptr, &st);
      if (st.ok()) {
        ASSERT_EQ(a, b) << "kill point " << kill_point << ", query " << q;
      } else {
        ASSERT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot)
            << st.kind_name() << " at kill point " << kill_point;
      }
    }
  }
  EXPECT_FALSE(follower.io_error()) << "kill point " << kill_point;

  // Writer-side recovery: redo the committed prefix, truncate the log,
  // bump the generation (recovery truncated a non-empty log).
  uint64_t k = 0;
  {
    PagedRTree<D> writer;
    typename PagedRTree<D>::OpenOptions wopts;
    wopts.mode = PagedRTree<D>::OpenMode::kReadWrite;
    ASSERT_TRUE(writer.Open(path, wopts, MakeRTree<D>(variant, Domain<D>())))
        << "recovery failed at kill point " << kill_point;
    k = writer.last_committed_op();
    ASSERT_TRUE(writer.Close());
  }
  ASSERT_LE(k, w.ops.size()) << "kill point " << kill_point;

  ASSERT_TRUE(follower.Refresh()) << "kill point " << kill_point;
  ASSERT_EQ(follower.last_committed_op(), k) << "kill point " << kill_point;

  auto ref = BuildTree<D>(variant, w.items, Domain<D>());
  ref->EnableClipping(core::ClipConfig<D>::Sta());
  for (uint64_t i = 0; i < k; ++i) {
    const Op<D>& op = w.ops[i];
    if (op.is_insert) {
      ref->Insert(op.rect, op.id);
    } else {
      ASSERT_TRUE(ref->Delete(op.rect, op.id));
    }
  }
  GateQueries<D>(follower, ref.get(), 83);
  EXPECT_FALSE(follower.io_error()) << "kill point " << kill_point;
}

template <int D>
void SweepKillPoints(Variant variant, int n_items, int n_ops, uint32_t seed,
                     uint64_t stride, bool torn, int checkpoint_every) {
  const Workload<D> w = MakeWorkload<D>(n_items, n_ops, seed);
  auto bulk = BuildTree<D>(variant, w.items, Domain<D>());
  bulk->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath(std::string("crash") + (torn ? "t" : "") +
                          VariantName(variant) + std::to_string(D)));
  for (uint64_t n = 1;; n += stride) {
    ASSERT_TRUE(WritePagedTree<D>(*bulk, file.path));
    PagedRTree<D> follower;
    typename PagedRTree<D>::OpenOptions fopts;
    fopts.mode = PagedRTree<D>::OpenMode::kFollow;
    ASSERT_TRUE(follower.Open(file.path, fopts));
    const bool completed =
        CrashAt<D>(file.path, variant, w, n, torn, checkpoint_every);
    VerifyFollowerAcrossCrash<D>(follower, file.path, variant, w, n);
    follower.Close();
    if (::testing::Test::HasFatalFailure()) return;
    if (completed) break;  // the whole log fit under the budget: done
  }
}

uint64_t EnvStride(uint64_t fallback) {
  const char* v = std::getenv("CLIPBB_CRASH_SWEEP_STRIDE");
  if (v == nullptr || *v == '\0') return fallback;
  const uint64_t n = std::strtoull(v, nullptr, 10);
  return n > 0 ? n : fallback;
}

bool EnvTorn() {
  const char* t = std::getenv("CLIPBB_CRASH_TORN");
  return t != nullptr && *t == '1';
}

TEST(FollowerReplica, KillPointSweep2d) {
  const char* env_n = std::getenv("CLIPBB_CRASH_AFTER_N_WRITES");
  if (env_n != nullptr && *env_n != '\0') {
    const uint64_t n = std::strtoull(env_n, nullptr, 10);
    const Workload<2> w = MakeWorkload<2>(1200, 24, 611);
    auto bulk = BuildTree<2>(Variant::kHilbert, w.items, Domain<2>());
    bulk->EnableClipping(core::ClipConfig<2>::Sta());
    FileGuard file(TempPath("env"));
    ASSERT_TRUE(WritePagedTree<2>(*bulk, file.path));
    PagedRTree<2> follower;
    PagedRTree<2>::OpenOptions fopts;
    fopts.mode = PagedRTree<2>::OpenMode::kFollow;
    ASSERT_TRUE(follower.Open(file.path, fopts));
    CrashAt<2>(file.path, Variant::kHilbert, w, n, EnvTorn(),
               /*checkpoint_every=*/7);
    VerifyFollowerAcrossCrash<2>(follower, file.path, Variant::kHilbert, w,
                                 n);
    follower.Close();
    return;
  }
  SweepKillPoints<2>(Variant::kHilbert, 1200, 24, 611, EnvStride(2),
                     EnvTorn(), /*checkpoint_every=*/7);
}

// Every kill point by default: a torn write inside a checkpoint's flush
// is where a superblock written ahead of its data pages once made the
// follower skip committed windows.
TEST(FollowerReplica, KillPointSweep2dTornWrites) {
  if (std::getenv("CLIPBB_CRASH_AFTER_N_WRITES")) GTEST_SKIP();
  SweepKillPoints<2>(Variant::kRStar, 800, 21, 613, EnvStride(1), true,
                     /*checkpoint_every=*/5);
}

TEST(FollowerReplica, KillPointSweep3d) {
  if (std::getenv("CLIPBB_CRASH_AFTER_N_WRITES")) GTEST_SKIP();
  SweepKillPoints<3>(Variant::kRRStar, 600, 18, 615, EnvStride(7), false,
                     /*checkpoint_every=*/6);
}

// ----------------------------------------------------- stale pin semantics

/// A writer that dies without Close() after applying every op of `w`,
/// one commit each: the log keeps every committed window (the child exits
/// raw, so no destructor checkpoint truncates it — the same state a crash
/// leaves behind).
template <int D>
void WriteAndDie(const std::string& path, Variant variant,
                 const Workload<D>& w) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    PagedRTree<D> writer;
    typename PagedRTree<D>::OpenOptions opts;
    opts.mode = PagedRTree<D>::OpenMode::kReadWrite;
    opts.commit_every = 1;
    if (!writer.Open(path, opts, MakeRTree<D>(variant, Domain<D>()))) {
      ::_exit(4);
    }
    for (const Op<D>& op : w.ops) {
      const bool ok = op.is_insert ? writer.Insert(op.rect, op.id)
                                   : writer.Delete(op.rect, op.id);
      if (!ok) ::_exit(5);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

/// Offline WAL validation (`clipbb_cli scrub --wal` runs this exact
/// scanner): a writer that dies without checkpointing leaves a log whose
/// committed windows the report must count exactly; garbage appended
/// past the committed end is a torn tail (reported, still clean — both
/// recovery and the tailer ignore it); a clobbered file header is what
/// flags the log corrupt.
TEST(FollowerReplica, WalScrubReportCountsWindowsAndFlagsCorruption) {
  constexpr int D = 2;
  Workload<D> w = MakeWorkload<D>(300, 9, 811);
  auto bulk = BuildTree<D>(Variant::kHilbert, w.items, Domain<D>());
  bulk->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath("scrub"));
  ASSERT_TRUE(WritePagedTree<D>(*bulk, file.path));
  const std::string wal = WalPathFor(file.path);

  // Nothing to replay yet: the bulk load leaves no sidecar log.
  storage::WalScrubReport rep;
  ASSERT_TRUE(storage::ScrubWalFile(wal, &rep));
  EXPECT_FALSE(rep.log_found);
  EXPECT_TRUE(rep.ok());

  WriteAndDie<D>(file.path, Variant::kHilbert, w);
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(storage::ScrubWalFile(wal, &rep));
  EXPECT_TRUE(rep.log_found);
  EXPECT_TRUE(rep.header_ok);
  EXPECT_GT(rep.page_size, 0u);
  EXPECT_EQ(rep.commit_windows, w.ops.size());
  EXPECT_EQ(rep.last_op_seq, w.ops.size());
  EXPECT_EQ(rep.pending_records, 0u);
  EXPECT_EQ(rep.tail_bytes, 0u);
  EXPECT_GT(rep.pages_imaged, 0u);
  EXPECT_TRUE(rep.ok());

  const char junk[] = "torn tail torn tail torn tail torn t";
  {
    std::FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(junk, 1, sizeof junk, f), sizeof junk);
    std::fclose(f);
  }
  ASSERT_TRUE(storage::ScrubWalFile(wal, &rep));
  EXPECT_EQ(rep.commit_windows, w.ops.size());
  EXPECT_EQ(rep.tail_bytes, sizeof junk);
  EXPECT_TRUE(rep.ok());

  {
    std::FILE* f = std::fopen(wal.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint64_t zero = 0;
    ASSERT_EQ(std::fwrite(&zero, sizeof zero, 1, f), 1u);
    std::fclose(f);
  }
  ASSERT_TRUE(storage::ScrubWalFile(wal, &rep));
  EXPECT_TRUE(rep.log_found);
  EXPECT_FALSE(rep.header_ok);
  EXPECT_FALSE(rep.ok());
}

uint64_t CounterValue(const obs::MetricsRegistry& registry,
                      const std::string& name) {
  for (const auto& [n, v] : registry.Snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

/// A follower reads its log once: the open-time redo poll is its
/// tailer's first poll, so a crashed writer's N commit windows are all
/// tailed before any Refresh, and a Refresh with nothing new applies no
/// window and tails nothing again.
TEST(FollowerReplica, OpenReadsTheLogOnce) {
  constexpr int D = 2;
  const Workload<D> w = MakeWorkload<D>(300, 9, 821);
  auto bulk = BuildTree<D>(Variant::kHilbert, w.items, Domain<D>());
  bulk->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath("readonce"));
  ASSERT_TRUE(WritePagedTree<D>(*bulk, file.path));
  WriteAndDie<D>(file.path, Variant::kHilbert, w);
  if (::testing::Test::HasFatalFailure()) return;

  PagedRTree<D> follower;
  typename PagedRTree<D>::OpenOptions fopts;
  fopts.mode = PagedRTree<D>::OpenMode::kFollow;
  ASSERT_TRUE(follower.Open(file.path, fopts));
  ASSERT_EQ(follower.last_committed_op(), w.ops.size());
  obs::MetricsRegistry registry;
  follower.PublishMetrics(registry);
  EXPECT_EQ(CounterValue(registry, "replica_commits_tailed_total"),
            w.ops.size());

  ASSERT_TRUE(follower.Refresh());
  EXPECT_EQ(follower.replica_windows_applied(), 0u);
  follower.PublishMetrics(registry);
  EXPECT_EQ(CounterValue(registry, "replica_commits_tailed_total"),
            w.ops.size());
  auto ref = BuildTree<D>(Variant::kHilbert, w.items, Domain<D>());
  ref->EnableClipping(core::ClipConfig<D>::Sta());
  for (const Op<D>& op : w.ops) {
    if (op.is_insert) {
      ref->Insert(op.rect, op.id);
    } else {
      ASSERT_TRUE(ref->Delete(op.rect, op.id));
    }
  }
  GateQueries<D>(follower, ref.get(), 823);
  EXPECT_TRUE(follower.Close());
}

/// Deterministic kStaleSnapshot: a follower that never refreshes while a
/// same-process writer rewrites every leaf and checkpoints. The pinned
/// epoch's base pages are gone from the file (higher LSNs), the small
/// pool cannot have kept them all resident, so both the old pin and a
/// fresh unrefreshed auto-pin must refuse — transiently, without
/// latching io_error — until Refresh() rebases, after which current
/// reads are exact and the old pin keeps refusing (its pre-images were
/// tombstoned: genuinely unrecoverable, and said so).
TEST(FollowerReplica, StalePinFailsLoudlyThenRebaseRecovers) {
  constexpr int D = 2;
  // Enough objects that the node pages far exceed the 16-frame pool:
  // the stale path needs base reads that actually hit the (rewritten)
  // file, not frames cached from before the writer ran.
  const int n = 3000;
  Rng rng(617);
  std::vector<Entry<D>> items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Entry<D>{RandomRect<D>(rng, 0.05), i});
  }
  auto bulk = BuildTree<D>(Variant::kHilbert, items, Domain<D>());
  bulk->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath("stale"));
  ASSERT_TRUE(WritePagedTree<D>(*bulk, file.path));

  PagedRTree<D> follower;
  PagedRTree<D>::OpenOptions fopts;
  fopts.mode = PagedRTree<D>::OpenMode::kFollow;
  fopts.pool_pages = 16;  // most of the tree must NOT stay resident
  ASSERT_TRUE(follower.Open(file.path, fopts));

  const geom::Rect<D> everything = Domain<D>();
  auto pinned = follower.PinSnapshot();
  std::vector<ObjectId> at_pin;
  storage::Status st;
  follower.RangeQuery(everything, &at_pin, nullptr, nullptr, &st, &pinned);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(at_pin.size(), static_cast<size_t>(n));

  // Same-process writer rewrites every leaf: delete + reinsert all.
  auto ref = BuildTree<D>(Variant::kHilbert, items, Domain<D>());
  ref->EnableClipping(core::ClipConfig<D>::Sta());
  {
    PagedRTree<D> writer;
    PagedRTree<D>::OpenOptions wopts;
    wopts.mode = PagedRTree<D>::OpenMode::kReadWrite;
    wopts.commit_every = 8;
    ASSERT_TRUE(writer.Open(file.path, wopts,
                            MakeRTree<D>(Variant::kHilbert, Domain<D>())));
    Rng wrng(619);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(writer.Delete(items[i].rect, items[i].id));
      ASSERT_TRUE(ref->Delete(items[i].rect, items[i].id));
      const auto r = RandomRect<D>(wrng, 0.05);
      ASSERT_TRUE(writer.Insert(r, n + i));
      ref->Insert(r, n + i);
    }
    ASSERT_TRUE(writer.Checkpoint());
    ASSERT_TRUE(writer.Close());
  }

  // The old pin and an unrefreshed current read both refuse, loudly but
  // transiently: nothing latches.
  std::vector<ObjectId> out;
  follower.RangeQuery(everything, &out, nullptr, nullptr, &st, &pinned);
  EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot) << st.kind_name();
  st = {};
  out.clear();
  follower.RangeQuery(everything, &out, nullptr, nullptr, &st);
  EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot) << st.kind_name();
  EXPECT_FALSE(follower.io_error());

  // Refresh crosses the generation bump(s) and rebases; current reads
  // are exact again.
  ASSERT_TRUE(follower.Refresh());
  EXPECT_GE(follower.replica_rebases(), 1u);
  std::vector<ObjectId> a, b;
  storage::IoStats io_a, io_b;
  st = {};
  ref->RangeQuery(everything, &a, &io_a);
  follower.RangeQuery(everything, &b, &io_b, nullptr, &st);
  ASSERT_TRUE(st.ok()) << st.kind_name();
  ASSERT_EQ(a, b);
  ASSERT_EQ(io_a.leaf_accesses, io_b.leaf_accesses);

  // The old pin's pre-images were lost before capture — it must keep
  // saying so rather than resurrect approximate history.
  st = {};
  out.clear();
  follower.RangeQuery(everything, &out, nullptr, nullptr, &st, &pinned);
  EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot) << st.kind_name();
  EXPECT_FALSE(follower.io_error());
  pinned.Release();
  EXPECT_TRUE(follower.Close());
}

/// A reader-forced WAL sync can make a transaction's records durable
/// before its commit record. A follower opened on such a log has applied
/// only the committed prefix, so when the transaction then commits and
/// the writer checkpoints, the follower has missed it: its rebase must
/// re-read the file (full path) rather than keep its older pages, clip
/// runs and shape. The log's pending tail here ends in the superblock
/// image whose LSN the checkpointed superblock keeps — a follower that
/// counted pending LSNs as applied would take the fast path.
TEST(FollowerReplica, PendingTailAtOpenTakesFullRebase) {
  constexpr int D = 2;
  const Workload<D> w = MakeWorkload<D>(800, 6, 631);
  auto bulk = BuildTree<D>(Variant::kRStar, w.items, Domain<D>());
  bulk->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath("pending"));
  ASSERT_TRUE(WritePagedTree<D>(*bulk, file.path));
  const std::string wal = WalPathFor(file.path);
  auto ref = BuildTree<D>(Variant::kRStar, w.items, Domain<D>());
  ref->EnableClipping(core::ClipConfig<D>::Sta());

  PagedRTree<D> writer;
  typename PagedRTree<D>::OpenOptions wopts;
  wopts.mode = PagedRTree<D>::OpenMode::kReadWrite;
  wopts.commit_every = 1;
  ASSERT_TRUE(writer.Open(file.path, wopts,
                          MakeRTree<D>(Variant::kRStar, Domain<D>())));
  for (const Op<D>& op : w.ops) {
    ASSERT_TRUE(op.is_insert ? writer.Insert(op.rect, op.id)
                             : writer.Delete(op.rect, op.id));
    if (op.is_insert) {
      ref->Insert(op.rect, op.id);
    } else {
      ASSERT_TRUE(ref->Delete(op.rect, op.id));
    }
  }

  // The log as the writer left it, last record the final commit.
  std::vector<char> log;
  {
    std::FILE* f = std::fopen(wal.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      log.insert(log.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  storage::WalRecordHeader commit;
  ASSERT_GT(log.size(), sizeof commit);
  std::memcpy(&commit, log.data() + log.size() - sizeof commit,
              sizeof commit);
  ASSERT_EQ(commit.type, storage::Wal::kCommit);
  ASSERT_EQ(commit.op_seq, w.ops.size());

  // Open the follower while the last transaction's commit record is not
  // yet in the log: it recovers the committed prefix only.
  ASSERT_EQ(::truncate(wal.c_str(),
                       static_cast<off_t>(log.size() - sizeof commit)),
            0);
  PagedRTree<D> follower;
  typename PagedRTree<D>::OpenOptions fopts;
  fopts.mode = PagedRTree<D>::OpenMode::kFollow;
  ASSERT_TRUE(follower.Open(file.path, fopts));
  ASSERT_EQ(follower.last_committed_op(), w.ops.size() - 1);
  EXPECT_LT(follower.replica_applied_lsn(), commit.lsn);
  // Make every page resident, so pages a wrong rebase failed to re-read
  // would keep their old bytes.
  storage::Status st;
  follower.RangeQuery(Domain<D>(), nullptr, nullptr, nullptr, &st);
  ASSERT_TRUE(st.ok()) << st.kind_name();

  // The commit lands, then the writer checkpoints before the follower
  // ever refreshes.
  {
    std::FILE* f = std::fopen(wal.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
    std::fclose(f);
  }
  ASSERT_TRUE(writer.Checkpoint());

  ASSERT_TRUE(follower.Refresh());
  EXPECT_EQ(follower.replica_rebases(), 1u);
  EXPECT_EQ(follower.replica_fast_rebases(), 0u)
      << "a follower that never saw the last commit took the fast rebase";
  EXPECT_EQ(follower.last_committed_op(), w.ops.size());
  GateQueries<D>(follower, ref.get(), 633);
  if (::testing::Test::HasFatalFailure()) return;
  // Byte for byte what a follower opened on the checkpointed file sees.
  PagedRTree<D> fresh;
  ASSERT_TRUE(fresh.Open(file.path, fopts));
  ExpectSameReplicaState(follower, fresh);
  EXPECT_TRUE(fresh.Close());
  EXPECT_TRUE(follower.Close());
  EXPECT_TRUE(writer.Close());
}

}  // namespace
}  // namespace clipbb::rtree
