// Tests for the page store, the page file, and the LRU buffer pool (pin/
// unpin with dirty tracking and write-back eviction), including the
// lock-striped sharding, the all-pinned overflow high-water accounting,
// the exactly-once-read guarantee under concurrent pins, and the in-place
// read overlay (patched pages served on a miss, resident frames
// refreshed).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/page_store.h"
#include "storage/status.h"

namespace clipbb::storage {
namespace {

constexpr uint32_t kPage = 256;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_storage_" + name + "_" +
         std::to_string(::getpid()) + ".pages";
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
  std::string path;
};

/// A page filled with a marker byte derived from its id.
std::vector<std::byte> MarkedPage(int64_t id) {
  return std::vector<std::byte>(kPage,
                                static_cast<std::byte>(0x40 + id % 64));
}

TEST(PageStore, AllocateAndAccess) {
  PageStore<int> store;
  const PageId a = store.Allocate();
  const PageId b = store.Allocate();
  EXPECT_NE(a, b);
  store.At(a) = 42;
  store.At(b) = 7;
  EXPECT_EQ(store.At(a), 42);
  EXPECT_EQ(store.Size(), 2u);
}

TEST(PageStore, FreeAndRecycle) {
  PageStore<int> store;
  const PageId a = store.Allocate();
  store.At(a) = 9;
  store.Free(a);
  EXPECT_FALSE(store.IsLive(a));
  EXPECT_EQ(store.Size(), 0u);
  const PageId b = store.Allocate();
  EXPECT_EQ(b, a);  // recycled
  EXPECT_EQ(store.At(b), 0);  // reset to default
}

TEST(PageStore, IsLiveBounds) {
  PageStore<int> store;
  EXPECT_FALSE(store.IsLive(-1));
  EXPECT_FALSE(store.IsLive(0));
  const PageId a = store.Allocate();
  EXPECT_TRUE(store.IsLive(a));
  EXPECT_FALSE(store.IsLive(a + 1));
}

TEST(PageStore, Clear) {
  PageStore<int> store;
  store.Allocate();
  store.Allocate();
  store.Clear();
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_EQ(store.Capacity(), 0u);
}

TEST(PageFile, WriteReadRoundTrip) {
  FileGuard f(TempPath("roundtrip"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  for (int64_t p = 0; p < 8; ++p) {
    EXPECT_TRUE(file.WritePage(p, MarkedPage(p).data()));
  }
  EXPECT_EQ(file.NumPages(), 8u);
  EXPECT_EQ(file.writes(), 8u);
  std::vector<std::byte> buf(kPage);
  for (int64_t p = 7; p >= 0; --p) {
    ASSERT_TRUE(file.ReadPage(p, buf.data()));
    EXPECT_EQ(buf, MarkedPage(p));
  }
  EXPECT_EQ(file.reads(), 8u);
  file.Close();

  // Reopen without create: contents persist; page size is re-declared.
  ASSERT_TRUE(file.Open(f.path, /*create=*/false));
  file.set_page_size(kPage);
  ASSERT_TRUE(file.ReadPage(3, buf.data()));
  EXPECT_EQ(buf, MarkedPage(3));
  EXPECT_FALSE(file.ReadPage(100, buf.data()));  // past EOF
}

TEST(PageFile, RawAccessBypassesPageCounters) {
  FileGuard f(TempPath("raw"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, true, kPage));
  const char header[] = "superblock";
  EXPECT_TRUE(file.WriteRaw(0, header, sizeof header));
  char back[sizeof header] = {};
  EXPECT_TRUE(file.ReadRaw(0, back, sizeof back));
  EXPECT_STREQ(back, header);
  EXPECT_EQ(file.reads(), 0u);
  EXPECT_EQ(file.writes(), 0u);
}

class ContentPoolTest : public ::testing::Test {
 protected:
  ContentPoolTest() : guard_(TempPath("pool")) {
    EXPECT_TRUE(file_.Open(guard_.path, true, kPage));
    for (int64_t p = 0; p < 10; ++p) {
      EXPECT_TRUE(file_.WritePage(p, MarkedPage(p).data()));
    }
    file_.ResetCounters();
  }
  FileGuard guard_;
  PageFile file_;
};

TEST_F(ContentPoolTest, PinReadsAndCaches) {
  BufferPool pool(2, &file_);
  const std::byte* a = pool.Pin(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a[0], MarkedPage(1)[0]);
  pool.Unpin(1);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(file_.reads(), 1u);
  ASSERT_NE(pool.Pin(1), nullptr);  // hit: no new file read
  pool.Unpin(1);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(file_.reads(), 1u);
}

TEST_F(ContentPoolTest, LruEvictionBoundsFrames) {
  BufferPool pool(2, &file_);
  for (int64_t p = 0; p < 6; ++p) {
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.misses(), 6u);
  EXPECT_TRUE(pool.Resident(5));
  EXPECT_TRUE(pool.Resident(4));
  EXPECT_FALSE(pool.Resident(0));
}

TEST_F(ContentPoolTest, RetouchProtectsFromEviction) {
  BufferPool pool(2, &file_);
  for (int64_t p : {1, 2, 1}) {  // 1 becomes the most recent again
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  ASSERT_NE(pool.Pin(3), nullptr);  // evicts 2, the LRU page
  pool.Unpin(3);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_FALSE(pool.Resident(2));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 3u);
  ASSERT_NE(pool.Pin(2), nullptr);  // evicted: a miss and a file read
  pool.Unpin(2);
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(file_.reads(), 4u);
}

TEST_F(ContentPoolTest, ClearResetsCountersAndResidency) {
  BufferPool pool(4, &file_);
  for (int64_t p : {1, 2, 1}) {
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  pool.Clear();
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Resident(1));
  ASSERT_NE(pool.Pin(1), nullptr);  // cold again: a miss
  pool.Unpin(1);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST_F(ContentPoolTest, PinnedFramesAreNotEvicted) {
  BufferPool pool(2, &file_);
  const std::byte* held = pool.Pin(0);
  ASSERT_NE(held, nullptr);
  for (int64_t p = 1; p < 5; ++p) {
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  EXPECT_TRUE(pool.Resident(0));        // pinned page survived
  EXPECT_EQ(held[0], MarkedPage(0)[0]);  // frame bytes still valid
  pool.Unpin(0);
}

TEST_F(ContentPoolTest, TransientOverageWhenAllPinned) {
  BufferPool pool(1, &file_);
  const std::byte* a = pool.Pin(0);
  const std::byte* b = pool.Pin(1);  // grows past capacity
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.size(), 2u);
  pool.Unpin(0);
  pool.Unpin(1);
  EXPECT_EQ(pool.size(), 1u);  // shrank back on unpin
}

TEST_F(ContentPoolTest, HighWaterRecordsAllPinnedOverage) {
  // Pinning capacity + k frames at once must keep working (the pool grows
  // transiently), and the ballooned footprint must be observable through
  // frames_high_water() — the signal that a tiny pool under a large
  // transaction (e.g. UpdateClips staging O(file) pages) outgrew its
  // budget, instead of silent unbounded growth.
  BufferPool pool(2, &file_);
  for (int64_t p = 0; p < 5; ++p) {
    ASSERT_NE(pool.Pin(p), nullptr);  // all five stay pinned
  }
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.frames_high_water(), 5u);
  for (int64_t p = 0; p < 5; ++p) pool.Unpin(p);
  EXPECT_EQ(pool.size(), 2u);               // shrank back to capacity
  EXPECT_EQ(pool.frames_high_water(), 5u);  // the peak stays recorded
}

TEST_F(ContentPoolTest, ShardedPoolServesAllPagesAndSumsCounters) {
  BufferPool pool(8, &file_, 4);
  EXPECT_EQ(pool.shards(), 4u);
  BufferPool::PinIo io;
  for (int round = 0; round < 2; ++round) {
    for (int64_t p = 0; p < 10; ++p) {
      const std::byte* f = pool.Pin(p, &io);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(f[0], MarkedPage(p)[0]);
      pool.Unpin(p, false, 0, &io);
    }
  }
  EXPECT_EQ(pool.hits() + pool.misses(), 20u);
  EXPECT_GE(pool.misses(), 10u);  // every page missed at least once
  EXPECT_EQ(io.reads, pool.misses());  // PinIo mirrors the summed counters
  EXPECT_LE(pool.size(), 8u);  // per-shard capacity still bounds frames
}

TEST_F(ContentPoolTest, ShardCountClampedToCapacity) {
  // Every shard must own at least one frame, or a stripe of a bounded
  // pool could never evict.
  BufferPool pool(2, &file_, 16);
  EXPECT_LE(pool.shards(), 2u);
  for (int64_t p = 0; p < 10; ++p) {
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  EXPECT_LE(pool.size(), 2u);
}

TEST_F(ContentPoolTest, ConcurrentPinsReadEachResidencyOnce) {
  // Four threads hammer ten pages through a sharded pool big enough to
  // never evict: every page must be read from the file exactly once (the
  // shard latch is held across the read, so racing pinners of the same
  // page serialize and hit), and per-thread PinIo sums must equal the
  // pool totals — the accumulate-per-thread, sum-once contract. Capacity
  // 40 = ten frames per shard, so no stripe can evict however unevenly
  // the ten page ids hash.
  BufferPool pool(40, &file_, 4);
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<BufferPool::PinIo> per_thread(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int64_t p = (t + i) % 10;
        const std::byte* f = pool.Pin(p, &per_thread[t]);
        EXPECT_NE(f, nullptr);
        if (f) EXPECT_EQ(f[0], MarkedPage(p)[0]);
        pool.Unpin(p, false, 0, &per_thread[t]);
      }
    });
  }
  for (auto& w : workers) w.join();
  uint64_t reads = 0;
  for (const auto& io : per_thread) reads += io.reads;
  EXPECT_EQ(reads, 10u);  // one physical read per distinct page
  EXPECT_EQ(reads, pool.misses());
  EXPECT_EQ(file_.reads(), 10u);
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST_F(ContentPoolTest, DirtyEvictionWritesBack) {
  BufferPool pool(1, &file_);
  std::byte* w = pool.PinForWrite(2);
  ASSERT_NE(w, nullptr);
  w[0] = std::byte{0xEE};
  pool.Unpin(2);
  ASSERT_NE(pool.Pin(7), nullptr);  // evicts dirty page 2 -> write-back
  pool.Unpin(7);
  EXPECT_EQ(pool.writebacks(), 1u);
  EXPECT_EQ(file_.writes(), 1u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file_.ReadPage(2, buf.data()));
  EXPECT_EQ(buf[0], std::byte{0xEE});
  EXPECT_EQ(buf[1], MarkedPage(2)[1]);  // rest of the page untouched
}

TEST_F(ContentPoolTest, FlushAllWritesEveryDirtyFrameOnce) {
  BufferPool pool(4, &file_);
  for (int64_t p = 0; p < 3; ++p) {
    std::byte* w = pool.PinForWrite(p);
    ASSERT_NE(w, nullptr);
    w[0] = std::byte{0xAB};
    pool.Unpin(p);
  }
  EXPECT_TRUE(pool.FlushAll());
  EXPECT_EQ(pool.writebacks(), 3u);
  EXPECT_TRUE(pool.FlushAll());  // now clean: no further writes
  EXPECT_EQ(pool.writebacks(), 3u);
  std::vector<std::byte> buf(kPage);
  for (int64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(file_.ReadPage(p, buf.data()));
    EXPECT_EQ(buf[0], std::byte{0xAB});
  }
}

TEST_F(ContentPoolTest, UnpinWithDirtyFlagMarksFrame) {
  BufferPool pool(1, &file_);
  std::byte* w = pool.PinForWrite(4);
  ASSERT_NE(w, nullptr);
  w[0] = std::byte{0x77};
  pool.Unpin(4, /*dirty=*/true);
  pool.Clear();  // flushes dirty frames
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file_.ReadPage(4, buf.data()));
  EXPECT_EQ(buf[0], std::byte{0x77});
}

TEST_F(ContentPoolTest, ReadPageDetailedDistinguishesEofFromShortRead) {
  std::vector<std::byte> buf(kPage);
  // Whole pages read fine.
  EXPECT_EQ(file_.ReadPageDetailed(3, buf.data()), PageReadResult::kOk);
  // A page entirely past the end of the file is EOF, not a short read.
  EXPECT_EQ(file_.ReadPageDetailed(100, buf.data()), PageReadResult::kEof);
  // A file ending mid-page (truncation / torn append) is a short read.
  ASSERT_TRUE(file_.Truncate(10 * kPage + kPage / 2));
  EXPECT_EQ(file_.ReadPageDetailed(10, buf.data()),
            PageReadResult::kShortRead);
  EXPECT_EQ(file_.ReadPageDetailed(11, buf.data()), PageReadResult::kEof);
}

/// Guard that always disarms the injector, even on early test failure.
struct FaultGuard {
  ~FaultGuard() { ReadFaultDisarm(); }
};

TEST_F(ContentPoolTest, TransientReadFaultAbsorbedByRetry) {
  FaultGuard guard;
  for (const ReadFaultKind kind :
       {ReadFaultKind::kEio, ReadFaultKind::kShortRead}) {
    BufferPool pool(2, &file_);
    ReadFaultArm(kind, /*nth_read=*/1, /*count=*/1);
    BufferPool::PinIo io;
    Status status;
    const std::byte* f = pool.Pin(3, &io, &status);
    ASSERT_NE(f, nullptr);  // one retry absorbed the fault
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(f[0], MarkedPage(3)[0]);
    EXPECT_EQ(io.read_retries, 1u);
    EXPECT_EQ(pool.read_retries(), 1u);
    EXPECT_EQ(io.reads, 2u);  // both physical attempts counted
    EXPECT_EQ(pool.quarantined_pages(), 0u);
    pool.Unpin(3);
    ReadFaultDisarm();
  }
}

TEST_F(ContentPoolTest, PersistentReadFaultQuarantinesPage) {
  FaultGuard guard;
  BufferPool pool(2, &file_);
  // More faults than attempts (1 + kMaxReadRetries): the pin must fail.
  ReadFaultArm(ReadFaultKind::kEio, /*nth_read=*/1, /*count=*/100,
               /*page_id=*/5);
  BufferPool::PinIo io;
  Status status;
  EXPECT_EQ(pool.Pin(5, &io, &status), nullptr);
  EXPECT_EQ(status.kind, ErrorKind::kIo);
  EXPECT_EQ(status.page, 5);
  EXPECT_EQ(io.read_retries, BufferPool::kMaxReadRetries);
  EXPECT_EQ(io.reads, 1u + BufferPool::kMaxReadRetries);
  EXPECT_EQ(pool.quarantined_pages(), 1u);

  // Later pins fast-fail without touching the file, even disarmed.
  ReadFaultDisarm();
  const uint64_t reads_before = file_.reads();
  Status again;
  EXPECT_EQ(pool.Pin(5, nullptr, &again), nullptr);
  EXPECT_EQ(again.kind, ErrorKind::kQuarantined);
  EXPECT_EQ(again.page, 5);
  EXPECT_EQ(file_.reads(), reads_before);

  // Other pages are unaffected; Clear() gives the page another chance.
  ASSERT_NE(pool.Pin(6), nullptr);
  pool.Unpin(6);
  pool.Clear();
  EXPECT_EQ(pool.quarantined_pages(), 0u);
  const std::byte* f = pool.Pin(5);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f[0], MarkedPage(5)[0]);
  pool.Unpin(5);
}

TEST_F(ContentPoolTest, EofPinFailsWithoutRetryOrQuarantine) {
  BufferPool pool(2, &file_);
  BufferPool::PinIo io;
  Status status;
  EXPECT_EQ(pool.Pin(100, &io, &status), nullptr);
  EXPECT_EQ(status.kind, ErrorKind::kEof);
  EXPECT_EQ(io.read_retries, 0u);  // deterministic: retrying is pointless
  EXPECT_EQ(pool.quarantined_pages(), 0u);  // caller bug, not a bad page
}

TEST_F(ContentPoolTest, VerifierRejectionRetriesThenQuarantines) {
  FaultGuard guard;
  // Format-aware stand-in: every byte of a marked page equals byte 0, so
  // the mid-page bit flip the injector plants is detectable — exactly how
  // the real checksum verifier catches a flipped bit before decode.
  BufferPool pool(2, &file_);
  pool.SetVerifier([](PageId id, const std::byte* bytes) {
    return bytes[kPage / 2] == bytes[0]
               ? Status{}
               : Status{ErrorKind::kChecksum, id};
  });

  // Transient flip: one retry re-reads clean bytes.
  ReadFaultArm(ReadFaultKind::kBitFlip, /*nth_read=*/1, /*count=*/1);
  BufferPool::PinIo io;
  Status status;
  const std::byte* f = pool.Pin(2, &io, &status);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f[kPage / 2], f[0]);  // verified bytes, not the flipped ones
  EXPECT_EQ(io.read_retries, 1u);
  pool.Unpin(2);
  ReadFaultDisarm();

  // Persistent flip: every attempt reads damaged bytes -> quarantine with
  // the verifier's own error kind.
  ReadFaultArm(ReadFaultKind::kBitFlip, /*nth_read=*/1, /*count=*/100,
               /*page_id=*/7);
  Status bad;
  EXPECT_EQ(pool.Pin(7, nullptr, &bad), nullptr);
  EXPECT_EQ(bad.kind, ErrorKind::kChecksum);
  EXPECT_EQ(bad.page, 7);
  EXPECT_EQ(pool.quarantined_pages(), 1u);
}

TEST_F(ContentPoolTest, CorruptStructureVerdictFailsFast) {
  // kCorruptStructure from the verifier means the checksum MATCHED but the
  // decoded layout is absurd — the bytes on disk are stably wrong, so
  // retrying cannot help and the page fails on the first attempt.
  BufferPool pool(2, &file_);
  pool.SetVerifier([](PageId id, const std::byte*) {
    return Status{ErrorKind::kCorruptStructure, id};
  });
  BufferPool::PinIo io;
  Status status;
  EXPECT_EQ(pool.Pin(1, &io, &status), nullptr);
  EXPECT_EQ(status.kind, ErrorKind::kCorruptStructure);
  EXPECT_EQ(io.read_retries, 0u);
  EXPECT_EQ(pool.quarantined_pages(), 1u);
}

TEST_F(ContentPoolTest, PatchedOverlayPageServedOnMissAndRepatched) {
  BufferPool pool(2, &file_);
  const std::vector<std::byte> v1(kPage, std::byte{0xA1});
  const std::vector<std::byte> v2(kPage, std::byte{0xA2});
  pool.PatchReadOverlay(3, v1.data());
  EXPECT_EQ(pool.ReadOverlayPages(), 1u);
  EXPECT_FALSE(pool.Resident(3));  // patching installs no frame

  // A miss on a patched page copies the overlay image, not the file.
  BufferPool::PinIo io;
  const std::byte* f = pool.Pin(3, &io);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::memcmp(f, v1.data(), kPage), 0);
  pool.Unpin(3);
  EXPECT_EQ(io.reads, 1u);       // still a miss: a fault outside the pool
  EXPECT_EQ(file_.reads(), 0u);  // ...but the file was never touched

  // Evict page 3, re-patch it: the next miss serves the newer image, and
  // the overlay still holds one image of the page.
  for (int64_t p = 4; p < 6; ++p) {
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  ASSERT_FALSE(pool.Resident(3));
  pool.PatchReadOverlay(3, v2.data());
  EXPECT_EQ(pool.ReadOverlayPages(), 1u);
  std::vector<std::byte> out(kPage);
  ASSERT_TRUE(pool.ReadPageCopy(3, out.data()));
  EXPECT_EQ(out, v2);
  bool from_file = true;
  ASSERT_TRUE(pool.ReadForCapture(3, out.data(), &from_file));
  EXPECT_EQ(out, v2);
  EXPECT_FALSE(from_file);

  // Unpatched pages still come from the file; detaching the overlay
  // sends the patched page back there too.
  ASSERT_TRUE(pool.ReadPageCopy(7, out.data()));
  EXPECT_EQ(out, MarkedPage(7));
  pool.SetReadOverlay({});
  EXPECT_EQ(pool.ReadOverlayPages(), 0u);
  for (int64_t p = 4; p < 6; ++p) {  // push page 3 out again
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p);
  }
  ASSERT_FALSE(pool.Resident(3));
  ASSERT_TRUE(pool.ReadPageCopy(3, out.data()));
  EXPECT_EQ(out, MarkedPage(3));
}

TEST_F(ContentPoolTest, PatchRefreshesResidentFrame) {
  BufferPool pool(4, &file_);
  std::vector<std::byte> out(kPage);
  ASSERT_TRUE(pool.ReadPageCopy(2, out.data()));  // page 2 now resident
  EXPECT_EQ(out, MarkedPage(2));
  const uint64_t reads = file_.reads();
  const std::vector<std::byte> img(kPage, std::byte{0xB7});
  pool.PatchReadOverlay(2, img.data());
  ASSERT_TRUE(pool.Resident(2));
  const uint64_t hits = pool.hits();
  ASSERT_TRUE(pool.ReadPageCopy(2, out.data()));
  EXPECT_EQ(out, img);  // the hit sees the patch: the frame was refreshed
  EXPECT_EQ(pool.hits(), hits + 1);
  EXPECT_EQ(file_.reads(), reads);
}

TEST(IoStats, Accumulate) {
  IoStats a, b;
  a.leaf_accesses = 3;
  a.internal_accesses = 2;
  a.clip_accesses = 1;
  b.leaf_accesses = 5;
  b.contributing_leaf_accesses = 4;
  b.clip_accesses = 6;
  b.page_reads = 7;
  b.page_writes = 2;
  a += b;
  EXPECT_EQ(a.leaf_accesses, 8u);
  EXPECT_EQ(a.TotalAccesses(), 10u);
  EXPECT_EQ(a.clip_accesses, 7u);
  EXPECT_EQ(a.page_reads, 7u);
  EXPECT_EQ(a.page_writes, 2u);
  a.Reset();
  EXPECT_EQ(a.TotalAccesses(), 0u);
  EXPECT_EQ(a.page_reads, 0u);
}

}  // namespace
}  // namespace clipbb::storage
