// Single-process concurrency coverage of the follower replica, shaped
// for ThreadSanitizer (no fork — TSan cannot follow children): a writer
// instance and a follower instance share one page file inside this
// process, two threads call Refresh() on the follower (they serialize on
// the refresh mutex; one also publishes metrics), while reader threads
// hammer pinned and unpinned queries throughout. TSan watches the applier's overlay swaps, epoch
// publishes, and resident-frame refreshes race against traversals; the
// test itself only asserts what is stable under the race — queries
// either answer or report kStaleSnapshot, nothing latches io_error, and
// once the writer quiesces one Refresh converges the follower to exact
// parity. A pool-level case races ReadPageCopy against the in-place
// overlay patches the applier makes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomPoint;
using clipbb::testing::RandomRect;
using clipbb::testing::TempFileGuard;
using clipbb::testing::TempPagePath;

geom::Rect<2> Domain2() {
  geom::Rect<2> r;
  for (int i = 0; i < 2; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

TEST(FollowerTsan, ConcurrentRefreshQueriesAndCheckpoints) {
  const int n = 1200;
  Rng rng(701);
  std::vector<Entry<2>> items;
  for (int i = 0; i < n; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.05), i});
  }
  auto bulk = BuildTree<2>(Variant::kHilbert, items, Domain2());
  bulk->EnableClipping(core::ClipConfig<2>::Sta());
  TempFileGuard file(TempPagePath("follower_tsan"));
  ASSERT_TRUE(WritePagedTree<2>(*bulk, file.path));

  PagedRTree<2> writer;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  wopts.commit_every = 1;
  wopts.pool_pages = 32;
  ASSERT_TRUE(writer.Open(file.path, wopts,
                          MakeRTree<2>(Variant::kHilbert, Domain2())));

  PagedRTree<2> follower;
  PagedRTree<2>::OpenOptions fopts;
  fopts.mode = PagedRTree<2>::OpenMode::kFollow;
  fopts.pool_pages = 32;
  fopts.pool_shards = 4;
  ASSERT_TRUE(follower.Open(file.path, fopts));

  std::atomic<bool> stop{false};

  // Readers: pinned and unpinned range + kNN queries. Under the race
  // the only legal failure is a stale pin; results when ok are a
  // consistent epoch's answer, whose size never exceeds what the
  // workload could have made live.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&follower, &stop, t] {
      Rng qrng(800 + t);
      TraversalScratch scratch;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto q = RandomRect<2>(qrng, 0.2);
        std::vector<ObjectId> out;
        storage::Status st;
        follower.RangeQuery(q, &out, nullptr, &scratch, &st);
        if (!st.ok()) {
          EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot)
              << st.kind_name();
        }
        auto snap = follower.PinSnapshot();
        st = {};
        out.clear();
        follower.RangeQuery(q, &out, nullptr, &scratch, &st, &snap);
        if (!st.ok()) {
          EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot)
              << st.kind_name();
        }
        st = {};
        const auto p = RandomPoint<2>(qrng);
        follower.Knn(p, 4, [](const KnnNeighbor<2>&) {}, nullptr, &st);
        if (!st.ok()) {
          EXPECT_EQ(st.kind, storage::ErrorKind::kStaleSnapshot)
              << st.kind_name();
        }
      }
    });
  }

  // Two refreshers racing each other (refresh_mu_ serializes them), one
  // of them also the metrics publisher reading the replica gauges.
  std::thread applier([&follower, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      follower.Refresh();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread refresher([&follower, &stop] {
    obs::MetricsRegistry registry;
    while (!stop.load(std::memory_order_relaxed)) {
      follower.Refresh();
      follower.PublishMetrics(registry);
      std::this_thread::yield();
    }
  });

  // Writer: churn with periodic checkpoints so the follower crosses
  // live generation bumps while the readers run.
  Rng wrng(703);
  ObjectId next_id = n;
  for (int i = 0; i < 240; ++i) {
    if (i % 3 == 1) {
      const int victim = i / 3;
      ASSERT_TRUE(writer.Delete(items[victim].rect, items[victim].id));
    } else {
      ASSERT_TRUE(writer.Insert(RandomRect<2>(wrng, 0.05), next_id++));
    }
    if ((i + 1) % 60 == 0) ASSERT_TRUE(writer.Checkpoint());
  }
  ASSERT_TRUE(writer.Checkpoint());

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  applier.join();
  refresher.join();

  // Quiesced: one refresh converges the follower onto the writer's
  // exact state (the final checkpoint truncated the log, so this lands
  // via the rebase path).
  ASSERT_TRUE(follower.Refresh());
  EXPECT_EQ(follower.last_committed_op(), writer.last_committed_op());
  Rng prng(705);
  for (int q = 0; q < 12; ++q) {
    const auto query = RandomRect<2>(prng, 0.2);
    std::vector<ObjectId> a, b;
    storage::Status st;
    writer.RangeQuery(query, &a);
    follower.RangeQuery(query, &b, nullptr, nullptr, &st);
    ASSERT_TRUE(st.ok()) << st.kind_name();
    ASSERT_EQ(a, b) << "query " << q;
  }
  EXPECT_GT(follower.replica_windows_applied(), 0u);
  EXPECT_GE(follower.replica_rebases(), 1u);
  EXPECT_FALSE(follower.io_error());
  EXPECT_TRUE(follower.Close());
  EXPECT_TRUE(writer.Close());
}

/// The applier patches overlay pages in place while readers copy them
/// out: every copy must be one whole image (each image is a single byte
/// value repeated, so a torn mix shows), a page's images must never go
/// backwards for one reader, and once patching stops every page reads
/// its last image — no stale frame survives a refresh.
TEST(FollowerTsan, ReadPageCopyRacesOverlayPatches) {
  constexpr uint32_t kPage = 512;
  constexpr int kPages = 24;
  constexpr int kRounds = 200;
  TempFileGuard file(TempPagePath("overlay_race"));
  storage::PageFile pf;
  ASSERT_TRUE(pf.Open(file.path, /*create=*/true, kPage));
  for (int p = 0; p < kPages; ++p) {
    const std::vector<std::byte> zero(kPage, std::byte{0});
    ASSERT_TRUE(pf.WritePage(p, zero.data()));
  }
  // Fewer frames than pages, in two shards: copies mix hits on refreshed
  // frames with misses served from the overlay.
  storage::BufferPool pool(8, &pf, 2);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&pool, &stop, t] {
      std::vector<std::byte> buf(kPage);
      std::vector<int> last_seen(kPages, 0);
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int p = (i * 7 + t) % kPages;
        storage::Status st;
        ASSERT_TRUE(pool.ReadPageCopy(p, buf.data(), nullptr, &st))
            << st.kind_name();
        const std::byte v = buf[0];
        for (uint32_t b = 1; b < kPage; ++b) {
          ASSERT_EQ(buf[b], v) << "torn copy of page " << p;
        }
        const int round = static_cast<int>(v);
        ASSERT_GE(round, last_seen[p]) << "page " << p << " went back";
        last_seen[p] = round;
      }
    });
  }
  std::vector<std::byte> img(kPage);
  for (int round = 1; round <= kRounds; ++round) {
    std::memset(img.data(), round, kPage);
    for (int p = 0; p < kPages; ++p) pool.PatchReadOverlay(p, img.data());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  std::vector<std::byte> buf(kPage);
  for (int p = 0; p < kPages; ++p) {
    ASSERT_TRUE(pool.ReadPageCopy(p, buf.data()));
    EXPECT_EQ(buf[0], static_cast<std::byte>(kRounds)) << "page " << p;
  }
  EXPECT_EQ(pool.ReadOverlayPages(), static_cast<size_t>(kPages));
}

}  // namespace
}  // namespace clipbb::rtree
