// Read-path fault acceptance sweep — the failure-model contract, proven
// over a dense fault matrix: {EIO, short read, flipped bit} × {transient,
// persistent} × a spread of trigger points. For every armed combination,
// every query against the paged engine must either (a) return a count
// identical to the in-memory engine's, with an ok Status, or (b) surface
// an explicit non-ok Status (and fire the sink's OnError exactly once).
// Zero success-with-wrong-result outcomes, ever — a silently truncated
// traversal is the one behavior this file exists to make impossible.
// Transient faults (budget 1) must additionally be invisible: absorbed by
// the pool's bounded retry, counted in IoStats::read_retries, all counts
// exact. The env-driven case at the bottom is the hook for the CI fault
// sweep (CLIPBB_READ_FAULT=...), mirroring the crash-recovery env sweep.
// The PagedWalFault cases aim the same injector at the log read (the
// tailer's region read, shared by recovery and the follower's Refresh):
// a failed read refuses the open or the refresh and writes nothing; a
// flipped byte ends redo at the damaged record.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "storage/fault_injection.h"
#include "storage/status.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomRect;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_fault_" + name + "_" +
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

struct FaultGuard {
  ~FaultGuard() { storage::ReadFaultDisarm(); }
};

geom::Rect<2> Domain2() {
  geom::Rect<2> r;
  for (int i = 0; i < 2; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

/// Counts matches and records every OnError delivery.
class RecordingSink final : public ResultSink<2> {
 public:
  void OnMatch(ObjectId) override { ++count_; }
  void OnError(const storage::Status& s) override {
    ++errors_;
    last_error_ = s;
  }
  size_t count() const { return count_; }
  int errors() const { return errors_; }
  const storage::Status& last_error() const { return last_error_; }
  void Reset() {
    count_ = 0;
    errors_ = 0;
    last_error_ = storage::Status{};
  }

 private:
  size_t count_ = 0;
  int errors_ = 0;
  storage::Status last_error_{};
};

/// A mixed-kind query workload: range, stabbing, containment, kNN.
std::vector<QuerySpec<2>> MixedSpecs(Rng& rng) {
  std::vector<QuerySpec<2>> specs;
  for (int q = 0; q < 90; ++q) {
    specs.push_back(QuerySpec<2>::Intersects(RandomRect<2>(rng, 0.10)));
  }
  for (int q = 0; q < 20; ++q) {
    specs.push_back(
        QuerySpec<2>::ContainsPoint(RandomRect<2>(rng, 0.0).lo));
  }
  for (int q = 0; q < 20; ++q) {
    specs.push_back(QuerySpec<2>::ContainedIn(RandomRect<2>(rng, 0.25)));
  }
  for (int q = 0; q < 10; ++q) {
    specs.push_back(QuerySpec<2>::Knn(RandomRect<2>(rng, 0.0).lo, 12));
  }
  return specs;
}

struct SweepOutcome {
  size_t ok_queries = 0;
  size_t failed_queries = 0;
  size_t wrong_results = 0;  // ok status but count != reference — must be 0
  size_t sink_error_mismatches = 0;
  storage::IoStats io;
};

/// Opens the paged tree fresh, then calls `arm` (arming after the open
/// scopes the fault window to the query path — Open itself reads the free
/// chain and root without the pool's retry protection), runs every spec,
/// and checks the no-silent-truncation invariant query by query. The
/// caller disarms.
template <typename ArmFn>
SweepOutcome RunArmedSweep(const std::string& path,
                           const std::vector<QuerySpec<2>>& specs,
                           const std::vector<size_t>& ref, ArmFn&& arm) {
  SweepOutcome out;
  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions opts;
  opts.pool_pages = 64;  // small: evictions keep the read path busy
  opts.pool_shards = 1;
  EXPECT_TRUE(paged.Open(path, opts));
  arm();
  const SpatialEngine<2> engine(paged);
  TraversalScratch scratch;
  RecordingSink sink;
  for (size_t i = 0; i < specs.size(); ++i) {
    sink.Reset();
    storage::Status status;
    const size_t n =
        engine.Execute(specs[i], &sink, &out.io, &scratch, &status);
    EXPECT_EQ(n, sink.count()) << "spec " << i;
    if (status.ok()) {
      ++out.ok_queries;
      if (n != ref[i]) ++out.wrong_results;
      if (sink.errors() != 0) ++out.sink_error_mismatches;
    } else {
      ++out.failed_queries;
      // OnError fired exactly once, carrying the same status.
      if (sink.errors() != 1 ||
          sink.last_error().kind != status.kind) {
        ++out.sink_error_mismatches;
      }
    }
  }
  paged.Close();
  return out;
}

TEST(PagedFaultSweep, NoSilentTruncationAcrossTheFaultMatrix) {
  FaultGuard guard;
  Rng rng(431);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(Variant::kRStar, items, Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  const std::vector<QuerySpec<2>> specs = MixedSpecs(rng);

  FileGuard file(TempPath("matrix"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));

  // In-memory reference counts (the in-memory engine cannot fail).
  std::vector<size_t> ref(specs.size());
  {
    const SpatialEngine<2> mem(*tree);
    TraversalScratch scratch;
    for (size_t i = 0; i < specs.size(); ++i) {
      ref[i] = mem.Execute(specs[i], nullptr, nullptr, &scratch);
    }
  }

  const storage::ReadFaultKind kKinds[] = {
      storage::ReadFaultKind::kEio, storage::ReadFaultKind::kShortRead,
      storage::ReadFaultKind::kBitFlip};
  const char* kKindNames[] = {"eio", "short", "flip"};
  const uint64_t kNth[] = {1, 3, 7, 17, 41, 97};

  for (int ki = 0; ki < 3; ++ki) {
    for (const bool persistent : {false, true}) {
      for (const uint64_t nth : kNth) {
        SCOPED_TRACE(::testing::Message()
                     << kKindNames[ki] << (persistent ? "/persistent" : "/transient")
                     << " nth=" << nth);
        const SweepOutcome out = RunArmedSweep(file.path, specs, ref, [&] {
          storage::ReadFaultArm(kKinds[ki], nth,
                                persistent ? (1u << 20) : 1);
        });
        const uint64_t injected = storage::ReadFaultInjected();
        storage::ReadFaultDisarm();

        // The contract, in both regimes: an ok status is a guarantee.
        EXPECT_EQ(out.wrong_results, 0u)
            << "a query returned success with a wrong result";
        EXPECT_EQ(out.sink_error_mismatches, 0u);

        if (!persistent) {
          // One fault, absorbed: nothing fails, every count exact, the
          // retry that absorbed it is visible in the stats.
          EXPECT_EQ(out.failed_queries, 0u);
          EXPECT_EQ(out.ok_queries, specs.size());
          if (injected > 0) {
            EXPECT_GE(out.io.read_retries, 1u);
          }
        } else if (injected > 0) {
          // Unbounded budget: the fault outlasts every retry, so at
          // least one query must have failed loudly.
          EXPECT_GT(out.failed_queries, 0u);
          EXPECT_GE(out.io.read_retries,
                    storage::BufferPool::kMaxReadRetries);
        }
      }
    }
  }
}

// CI hook: when CLIPBB_READ_FAULT is set, run the same invariant under
// whatever fault the environment describes (the workflow sweeps kind ×
// trigger point, exactly like the crash-recovery sweep). Unset, the test
// skips, so local `ctest` runs are unaffected.
TEST(PagedFaultEnv, EnvConfiguredFaultNeverTruncatesSilently) {
  FaultGuard guard;
  if (!storage::ReadFaultArmFromEnv()) {
    GTEST_SKIP() << "CLIPBB_READ_FAULT not set";
  }
  storage::ReadFaultDisarm();  // re-arm after the setup phase below

  Rng rng(433);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(Variant::kHilbert, items, Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  const std::vector<QuerySpec<2>> specs = MixedSpecs(rng);
  FileGuard file(TempPath("env"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  std::vector<size_t> ref(specs.size());
  {
    const SpatialEngine<2> mem(*tree);
    TraversalScratch scratch;
    for (size_t i = 0; i < specs.size(); ++i) {
      ref[i] = mem.Execute(specs[i], nullptr, nullptr, &scratch);
    }
  }

  const SweepOutcome out = RunArmedSweep(file.path, specs, ref, [] {
    ASSERT_TRUE(storage::ReadFaultArmFromEnv());
  });
  storage::ReadFaultDisarm();
  EXPECT_EQ(out.wrong_results, 0u)
      << "a query returned success with a wrong result under "
      << std::getenv("CLIPBB_READ_FAULT");
  EXPECT_EQ(out.sink_error_mismatches, 0u);
  // Whatever happened — absorbed or failed — both totals add up.
  EXPECT_EQ(out.ok_queries + out.failed_queries, specs.size());
}

// --------------------------------------------------------- log read faults

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<Entry<2>> WalFaultItems() {
  Rng rng(437);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 1500; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  return items;
}

PagedRTree<2>::OpenOptions WriterOptions() {
  PagedRTree<2>::OpenOptions opts;
  opts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  opts.commit_every = 1;
  // Every page stays resident: nothing is written back before a
  // checkpoint, so the file is the bulk load and any committed prefix of
  // the log is a consistent state.
  opts.pool_pages = 4096;
  return opts;
}

/// Inserts `ops` objects (ids from `first_id`), one commit each.
void Churn(PagedRTree<2>& writer, int ops, ObjectId first_id,
           uint32_t seed) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    ASSERT_TRUE(writer.Insert(RandomRect<2>(rng, 0.04), first_id + i));
  }
}

/// `path` as a writer that died after `ops` committed updates leaves it:
/// the bulk-loaded page file and a log holding every commit (copied while
/// the writer is still open, before its close checkpoints).
void MakeCrashedWriterFiles(const std::string& path, int ops) {
  auto tree = BuildTree<2>(Variant::kHilbert, WalFaultItems(), Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  FileGuard live(path + ".live");
  ASSERT_TRUE(WritePagedTree<2>(*tree, live.path));
  PagedRTree<2> writer;
  ASSERT_TRUE(writer.Open(live.path, WriterOptions(),
                          MakeRTree<2>(Variant::kHilbert, Domain2())));
  Churn(writer, ops, 100000, 439);
  WriteBytes(path, FileBytes(live.path));
  WriteBytes(WalPathFor(path), FileBytes(WalPathFor(live.path)));
  EXPECT_TRUE(writer.Close());
}

TEST(PagedWalFault, FailedLogReadRefusesTheOpenAndWritesNothing) {
  FaultGuard guard;
  FileGuard file(TempPath("walread"));
  MakeCrashedWriterFiles(file.path, 12);
  if (::testing::Test::HasFatalFailure()) return;
  const std::string wal = WalPathFor(file.path);
  const std::string pages0 = FileBytes(file.path);
  const std::string wal0 = FileBytes(wal);
  ASSERT_GT(wal0.size(), sizeof(storage::WalFileHeader));

  for (const auto kind :
       {storage::ReadFaultKind::kEio, storage::ReadFaultKind::kShortRead}) {
    for (const bool writable : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (kind == storage::ReadFaultKind::kEio ? "eio"
                                                            : "short")
                   << (writable ? " write open" : " read-only open"));
      storage::ReadFaultArm(kind, 1, 1, storage::kReadFaultWal);
      PagedRTree<2> tree;
      if (writable) {
        EXPECT_FALSE(tree.Open(file.path, WriterOptions(),
                               MakeRTree<2>(Variant::kHilbert, Domain2())));
      } else {
        EXPECT_FALSE(tree.Open(file.path));
      }
      EXPECT_EQ(storage::ReadFaultInjected(), 1u);
      storage::ReadFaultDisarm();
      EXPECT_EQ(FileBytes(wal), wal0);
      EXPECT_EQ(FileBytes(file.path), pages0);
    }
  }
}

TEST(PagedWalFault, FlippedLogByteEndsReadOnlyRedoAtTheDamagedRecord) {
  FaultGuard guard;
  constexpr int kOps = 12;
  FileGuard file(TempPath("walflip"));
  MakeCrashedWriterFiles(file.path, kOps);
  if (::testing::Test::HasFatalFailure()) return;
  const std::string wal0 = FileBytes(WalPathFor(file.path));

  storage::ReadFaultArm(storage::ReadFaultKind::kBitFlip, 1, 1,
                        storage::kReadFaultWal);
  PagedRTree<2> flipped;
  ASSERT_TRUE(flipped.Open(file.path));
  EXPECT_EQ(storage::ReadFaultInjected(), 1u);
  storage::ReadFaultDisarm();
  EXPECT_TRUE(flipped.recovery().log_found);
  EXPECT_GT(flipped.recovery().tail_discarded, 0u);
  EXPECT_LT(flipped.last_committed_op(), static_cast<uint64_t>(kOps));
  EXPECT_TRUE(flipped.Close());
  EXPECT_EQ(FileBytes(WalPathFor(file.path)), wal0);

  // The damage was in the read, not the log: an unarmed open redoes it
  // all.
  PagedRTree<2> clean;
  ASSERT_TRUE(clean.Open(file.path));
  EXPECT_EQ(clean.recovery().tail_discarded, 0u);
  EXPECT_EQ(clean.last_committed_op(), static_cast<uint64_t>(kOps));
}

TEST(PagedWalFault, FollowerRefreshRetriesAFailedLogRead) {
  FaultGuard guard;
  auto tree = BuildTree<2>(Variant::kHilbert, WalFaultItems(), Domain2());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  FileGuard file(TempPath("walrefresh"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  PagedRTree<2> writer;
  ASSERT_TRUE(writer.Open(file.path, WriterOptions(),
                          MakeRTree<2>(Variant::kHilbert, Domain2())));
  Churn(writer, 5, 100000, 441);
  PagedRTree<2>::OpenOptions fopts;
  fopts.mode = PagedRTree<2>::OpenMode::kFollow;
  PagedRTree<2> follower;
  ASSERT_TRUE(follower.Open(file.path, fopts));
  Churn(writer, 5, 200000, 443);

  storage::ReadFaultArm(storage::ReadFaultKind::kEio, 1, 1,
                        storage::kReadFaultWal);
  storage::Status st;
  EXPECT_FALSE(follower.Refresh(&st));
  EXPECT_EQ(st.kind, storage::ErrorKind::kWal) << st.kind_name();
  EXPECT_EQ(storage::ReadFaultInjected(), 1u);
  storage::ReadFaultDisarm();
  EXPECT_EQ(follower.replica_windows_applied(), 0u);
  EXPECT_FALSE(follower.io_error());

  // The retry applies what the failed poll could not, and the follower
  // then answers exactly like one opened fresh.
  ASSERT_TRUE(follower.Refresh());
  EXPECT_EQ(follower.replica_windows_applied(), 5u);
  PagedRTree<2> fresh;
  ASSERT_TRUE(fresh.Open(file.path, fopts));
  EXPECT_EQ(follower.last_committed_op(), writer.last_committed_op());
  EXPECT_EQ(follower.last_committed_op(), fresh.last_committed_op());
  EXPECT_EQ(follower.replica_applied_lsn(), fresh.replica_applied_lsn());
  EXPECT_EQ(std::memcmp(&follower.superblock(), &fresh.superblock(),
                        sizeof(Superblock)),
            0);
  Rng rng(445);
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomRect<2>(rng, 0.2);
    std::vector<ObjectId> a, b;
    storage::IoStats io_a, io_b;
    storage::Status sa, sb;
    follower.RangeQuery(query, &a, &io_a, nullptr, &sa);
    fresh.RangeQuery(query, &b, &io_b, nullptr, &sb);
    ASSERT_TRUE(sa.ok() && sb.ok());
    ASSERT_EQ(a, b) << "query " << q;
    EXPECT_EQ(io_a.leaf_accesses, io_b.leaf_accesses);
    EXPECT_EQ(io_a.internal_accesses, io_b.internal_accesses);
  }
  EXPECT_TRUE(fresh.Close());
  EXPECT_TRUE(follower.Close());
  EXPECT_TRUE(writer.Close());
}

}  // namespace
}  // namespace clipbb::rtree
