// Write-ahead-log unit coverage (storage/wal.h): record round-trip through
// redo, CRC rejection of corrupt/torn tails, commit-boundary semantics
// (uncommitted images are never replayed), LSN-idempotent redo, log
// truncation at checkpoint, agreement of the log's three readers (redo,
// the tailer, scrub) on every fixture — plus the buffer-pool WAL rule: a
// dirty frame whose record is not durable is never written back without
// syncing the log first.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "storage/wal_scan.h"

namespace clipbb::storage {
namespace {

constexpr uint32_t kPage = 256;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_wal_" + name + "_" +
         std::to_string(::getpid());
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
  std::string path;
};

std::vector<std::byte> ImageFor(int64_t page, uint64_t lsn,
                                std::byte marker) {
  std::vector<std::byte> img(kPage, marker);
  // Honour the page-LSN convention so redo's idempotency check works.
  std::memset(img.data(), 0, kPageLsnOffset);
  std::memcpy(img.data() + kPageLsnOffset, &lsn, sizeof lsn);
  (void)page;
  return img;
}

TEST(Crc32, KnownVectorAndChaining) {
  // IEEE CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  const uint32_t whole = Crc32("123456789", 9);
  uint32_t chained = Crc32("12345", 5);
  chained = Crc32("6789", 4, chained);
  EXPECT_EQ(chained, whole);
}

TEST(Wal, CommittedImagesReplayUncommittedTailDiscards) {
  FileGuard f(TempPath("replay"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  for (int64_t p = 0; p < 4; ++p) ASSERT_TRUE(file.WritePage(p, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, /*start_lsn=*/1));
  // Committed op 1: pages 1 and 2.
  uint64_t l1 = wal.next_lsn();
  wal.AppendPageImage(1, ImageFor(1, l1, std::byte{0xA1}).data(), 1);
  uint64_t l2 = wal.next_lsn();
  wal.AppendPageImage(2, ImageFor(2, l2, std::byte{0xA2}).data(), 1);
  wal.AppendCommit(/*op_seq=*/1);
  ASSERT_TRUE(wal.Sync());
  EXPECT_EQ(wal.durable_lsn(), l2 + 1);
  // Uncommitted tail: page 3's image without a commit record.
  uint64_t l3 = wal.next_lsn();
  wal.AppendPageImage(3, ImageFor(3, l3, std::byte{0xA3}).data(), 2);
  ASSERT_TRUE(wal.Sync());  // durable but commit-less
  wal.Close();

  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_TRUE(res.log_found);
  EXPECT_EQ(res.pages_replayed, 2u);
  EXPECT_EQ(res.last_op_seq, 1u);
  EXPECT_GT(res.tail_discarded, 0u);

  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(1, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xA1});
  ASSERT_TRUE(file.ReadPage(2, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xA2});
  ASSERT_TRUE(file.ReadPage(3, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0});  // uncommitted: untouched

  // Recovery truncated the log: replaying again is a no-op.
  Wal::RecoveryResult res2;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res2));
  EXPECT_FALSE(res2.log_found);
}

TEST(Wal, RedoRepairsTornPageEvenWhenItsLsnPersisted) {
  // A torn page write can persist the page header — LSN included — while
  // the tail is garbage. Redo must therefore replay committed images
  // unconditionally (log order makes it idempotent), never trusting the
  // on-disk LSN as proof the content is intact.
  FileGuard f(TempPath("tornpage"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  const uint64_t l = wal.next_lsn();
  const auto image = ImageFor(0, l, std::byte{0x66});
  wal.AppendPageImage(0, image.data(), 1);
  wal.AppendCommit(1);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  // Simulate the torn write-back: first half (header + LSN) lands, the
  // tail stays zero.
  std::vector<std::byte> torn(kPage, std::byte{0});
  std::memcpy(torn.data(), image.data(), kPage / 2);
  ASSERT_TRUE(file.WritePage(0, torn.data()));

  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_EQ(res.pages_replayed, 1u);  // replayed despite matching LSN
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(0, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0x66});  // tail repaired
}

TEST(Wal, TornTailIsDetectedByCrcAndDiscarded) {
  FileGuard f(TempPath("torn"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  ASSERT_TRUE(file.WritePage(0, zero.data()));
  ASSERT_TRUE(file.WritePage(1, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  uint64_t l0 = wal.next_lsn();
  wal.AppendPageImage(0, ImageFor(0, l0, std::byte{0xB0}).data(), 1);
  wal.AppendCommit(1);
  uint64_t l1 = wal.next_lsn();
  wal.AppendPageImage(1, ImageFor(1, l1, std::byte{0xB1}).data(), 2);
  wal.AppendCommit(2);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  // Tear the SECOND transaction's image mid-payload (flip bytes), leaving
  // record framing intact: only the CRC can catch it.
  {
    PageFile raw;
    ASSERT_TRUE(raw.Open(f.path + ".wal", /*create=*/false));
    const uint64_t off = 16 /*file hdr*/ + (40 + kPage) + 40 /*commit*/ +
                         40 + kPage / 2;
    const uint32_t garbage = 0xDEADBEEF;
    ASSERT_TRUE(raw.WriteRaw(off, &garbage, sizeof garbage));
  }
  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_EQ(res.pages_replayed, 1u);  // only the intact first transaction
  EXPECT_EQ(res.last_op_seq, 1u);
  EXPECT_GT(res.tail_discarded, 0u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(0, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xB0});
  ASSERT_TRUE(file.ReadPage(1, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0});  // corrupt record not replayed
}

TEST(Wal, LeakedImagesOfFailedOpAreNotAdoptedByNextCommit) {
  // A writer that fails mid-staging syncs the log (to preserve earlier
  // group-committed work) and never appends a commit for the failed
  // transaction. Its leaked page images must stay inert: the NEXT
  // transaction's commit record must not retroactively apply them.
  FileGuard f(TempPath("orphan"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  ASSERT_TRUE(file.WritePage(0, zero.data()));
  ASSERT_TRUE(file.WritePage(1, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  // Failed op 7: image leaked, no commit.
  uint64_t lo = wal.next_lsn();
  wal.AppendPageImage(0, ImageFor(0, lo, std::byte{0xBA}).data(), 7);
  ASSERT_TRUE(wal.Sync());
  // Successful op 8 commits its own page.
  uint64_t l1 = wal.next_lsn();
  wal.AppendPageImage(1, ImageFor(1, l1, std::byte{0x08}).data(), 8);
  wal.AppendCommit(8);
  ASSERT_TRUE(wal.Sync());
  wal.Close();

  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_EQ(res.pages_replayed, 1u);  // only op 8's page
  EXPECT_EQ(res.last_op_seq, 8u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(0, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0});  // orphan image NOT applied
  ASSERT_TRUE(file.ReadPage(1, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0x08});
}

TEST(Wal, TruncateEmptiesLogAndKeepsLsnRunning) {
  FileGuard f(TempPath("trunc"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 10));
  EXPECT_EQ(wal.next_lsn(), 10u);
  wal.AppendPageImage(0, ImageFor(0, 10, std::byte{0x5A}).data(), 1);
  wal.AppendCommit(1);
  ASSERT_TRUE(wal.Sync());
  ASSERT_TRUE(wal.Truncate());
  EXPECT_EQ(wal.pending_bytes(), 0u);
  const uint64_t next = wal.next_lsn();
  EXPECT_GT(next, 10u);  // counter keeps running past truncation
  wal.Close();
  Wal::RecoveryResult res;
  ASSERT_TRUE(Wal::Recover(f.path + ".wal", &file, &res));
  EXPECT_FALSE(res.log_found);  // truncated log has nothing to replay
}

/// One committed transaction a fixture wrote: its op_seq, commit LSN and
/// the pages its images target, in log order.
struct ExpectedWindow {
  uint64_t op_seq;
  uint64_t commit_lsn;
  std::vector<int64_t> pages;
};

/// A log shape from the tests above, rebuilt by `write` (which returns
/// the windows it committed), plus what its uncommitted remainder is.
struct LogFixture {
  const char* name;
  std::function<std::vector<ExpectedWindow>(const std::string& wal_path)>
      write;
  uint64_t max_lsn;  // highest LSN of any valid record
  bool tail;         // bytes follow the last commit
};

void AppendImage(Wal& wal, int64_t page, uint64_t op_seq) {
  const uint64_t l = wal.next_lsn();
  wal.AppendPageImage(page, ImageFor(page, l, std::byte{0x5C}).data(),
                      op_seq);
}

std::vector<LogFixture> LogFixtures() {
  return {
      {"committed_then_pending",
       [](const std::string& path) {
         Wal wal;
         EXPECT_TRUE(wal.Open(path, kPage, 1));
         AppendImage(wal, 1, 1);
         AppendImage(wal, 2, 1);
         const uint64_t c = wal.AppendCommit(1);
         AppendImage(wal, 3, 2);  // durable but commit-less
         EXPECT_TRUE(wal.Sync());
         return std::vector<ExpectedWindow>{{1, c, {1, 2}}};
       },
       4, true},
      {"torn_record",
       [](const std::string& path) {
         Wal wal;
         EXPECT_TRUE(wal.Open(path, kPage, 1));
         AppendImage(wal, 0, 1);
         const uint64_t c = wal.AppendCommit(1);
         AppendImage(wal, 1, 2);
         wal.AppendCommit(2);
         EXPECT_TRUE(wal.Sync());
         wal.Close();
         // The second transaction's image loses its last half page.
         EXPECT_EQ(::truncate(path.c_str(),
                              16 + 2 * 40 + kPage + 40 + kPage / 2),
                   0);
         return std::vector<ExpectedWindow>{{1, c, {0}}};
       },
       2, true},
      {"corrupt_record",
       [](const std::string& path) {
         Wal wal;
         EXPECT_TRUE(wal.Open(path, kPage, 1));
         AppendImage(wal, 0, 1);
         const uint64_t c = wal.AppendCommit(1);
         AppendImage(wal, 1, 2);
         wal.AppendCommit(2);
         EXPECT_TRUE(wal.Sync());
         wal.Close();
         PageFile raw;
         EXPECT_TRUE(raw.Open(path, /*create=*/false));
         const uint32_t garbage = 0xDEADBEEF;
         EXPECT_TRUE(raw.WriteRaw(16 + 2 * 40 + kPage + 40 + kPage / 2,
                                  &garbage, sizeof garbage));
         return std::vector<ExpectedWindow>{{1, c, {0}}};
       },
       2, true},
      {"leaked_images_of_failed_op",
       [](const std::string& path) {
         Wal wal;
         EXPECT_TRUE(wal.Open(path, kPage, 1));
         AppendImage(wal, 0, 7);  // op 7 fails: its image is never committed
         EXPECT_TRUE(wal.Sync());
         AppendImage(wal, 1, 8);
         const uint64_t c = wal.AppendCommit(8);
         EXPECT_TRUE(wal.Sync());
         return std::vector<ExpectedWindow>{{8, c, {1}}};
       },
       3, false},
      {"truncated_to_header",
       [](const std::string& path) {
         Wal wal;
         EXPECT_TRUE(wal.Open(path, kPage, 10));
         AppendImage(wal, 0, 1);
         wal.AppendCommit(1);
         EXPECT_TRUE(wal.Sync());
         EXPECT_TRUE(wal.Truncate());
         return std::vector<ExpectedWindow>{};
       },
       0, false},
  };
}

// Redo, the tailer and scrub read every fixture alike: the same commit
// windows (op_seq, commit LSN, page ids — leaked images adopted by none),
// the same last op, max LSN, record and image counts, and tail bytes.
TEST(WalReaders, RecoverTailerAndScrubAgreeOnEveryFixture) {
  for (const LogFixture& fx : LogFixtures()) {
    SCOPED_TRACE(fx.name);
    FileGuard f(TempPath(fx.name));
    PageFile file;
    ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
    const std::vector<std::byte> zero(kPage, std::byte{0});
    for (int64_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(file.WritePage(p, zero.data()));
    }
    const std::string wal = f.path + ".wal";
    const std::vector<ExpectedWindow> expected = fx.write(wal);

    WalTailer tailer(wal);
    std::vector<WalCommitWindow> windows;
    WalScanResult scan;
    ASSERT_EQ(tailer.Poll(&windows, &scan), WalTailer::PollResult::kOk);
    ASSERT_EQ(windows.size(), expected.size());
    uint64_t images = 0;
    for (size_t w = 0; w < windows.size(); ++w) {
      EXPECT_EQ(windows[w].op_seq, expected[w].op_seq);
      EXPECT_EQ(windows[w].commit_lsn, expected[w].commit_lsn);
      std::vector<int64_t> pages;
      for (const WalPageImage& img : windows[w].images) {
        pages.push_back(img.page_id);
        EXPECT_EQ(img.bytes.size(), kPage);
      }
      EXPECT_EQ(pages, expected[w].pages);
      images += pages.size();
    }
    const uint64_t tail =
        tailer.stats().last_log_bytes - tailer.consumed_bytes();
    EXPECT_EQ(tail > 0, fx.tail);
    EXPECT_EQ(scan.max_lsn, fx.max_lsn);

    WalScrubReport rep;
    ASSERT_TRUE(ScrubWalFile(wal, &rep));
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.commit_windows, windows.size());
    EXPECT_EQ(rep.pages_imaged, images);
    EXPECT_EQ(rep.records_scanned, scan.records_scanned);
    EXPECT_EQ(rep.last_op_seq, scan.last_op_seq);
    EXPECT_EQ(rep.max_lsn, fx.max_lsn);
    EXPECT_EQ(rep.tail_bytes, tail);

    Wal::RecoveryResult res;
    ASSERT_TRUE(Wal::Recover(wal, &file, &res));
    EXPECT_EQ(res.log_found, !expected.empty() || fx.tail);
    EXPECT_EQ(res.pages_replayed, images);
    EXPECT_EQ(res.records_scanned, scan.records_scanned);
    EXPECT_EQ(res.last_op_seq,
              expected.empty() ? 0 : expected.back().op_seq);
    EXPECT_EQ(res.last_commit_lsn,
              expected.empty() ? 0 : expected.back().commit_lsn);
    EXPECT_EQ(res.max_lsn, fx.max_lsn);
    EXPECT_EQ(res.tail_discarded, tail);
  }
}

// Satellite regression: the pool must not write back a dirty frame whose
// WAL record is unflushed — it syncs the log first (flushed-LSN >=
// page-LSN before write-back), never the other way around.
TEST(BufferPoolWalRule, EvictionSyncsLogBeforeWriteBack) {
  FileGuard f(TempPath("rule"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  std::vector<std::byte> zero(kPage, std::byte{0});
  for (int64_t p = 0; p < 4; ++p) ASSERT_TRUE(file.WritePage(p, zero.data()));

  Wal wal;
  ASSERT_TRUE(wal.Open(f.path + ".wal", kPage, 1));
  BufferPool pool(1, &file);
  pool.SetWal(&wal);

  std::byte* frame = pool.PinForWrite(2);
  ASSERT_NE(frame, nullptr);
  frame[kPage - 1] = std::byte{0xCD};
  const uint64_t lsn = wal.next_lsn();
  std::memcpy(frame + kPageLsnOffset, &lsn, sizeof lsn);
  wal.AppendPageImage(2, frame, 1);
  wal.AppendCommit(1);
  pool.Unpin(2, /*dirty=*/true, lsn);
  ASSERT_GT(lsn, wal.durable_lsn());  // record only buffered so far

  // Evict page 2 by pinning another page: the pool must sync the WAL
  // before the write-back reaches the file.
  ASSERT_NE(pool.Pin(3), nullptr);
  pool.Unpin(3);
  EXPECT_EQ(pool.wal_forced_syncs(), 1u);
  EXPECT_EQ(pool.writebacks(), 1u);
  EXPECT_GE(wal.durable_lsn(), lsn);  // log-before-data held

  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(2, buf.data()));
  EXPECT_EQ(buf[kPage - 1], std::byte{0xCD});

  // A frame whose record is already durable evicts without another sync.
  std::byte* frame2 = pool.PinForWrite(0);
  ASSERT_NE(frame2, nullptr);
  frame2[kPage - 1] = std::byte{0xCE};
  const uint64_t lsn2 = wal.next_lsn();
  std::memcpy(frame2 + kPageLsnOffset, &lsn2, sizeof lsn2);
  wal.AppendPageImage(0, frame2, 2);
  wal.AppendCommit(2);
  ASSERT_TRUE(wal.Sync());
  pool.Unpin(0, /*dirty=*/true, lsn2);
  ASSERT_NE(pool.Pin(1), nullptr);
  pool.Unpin(1);
  EXPECT_EQ(pool.wal_forced_syncs(), 1u);  // unchanged
  EXPECT_EQ(pool.writebacks(), 2u);
}

TEST(BufferPool, PinNewHandsOutZeroedDirtyFrameWithoutRead) {
  FileGuard f(TempPath("pinnew"));
  PageFile file;
  ASSERT_TRUE(file.Open(f.path, /*create=*/true, kPage));
  BufferPool pool(2, &file);
  // Page 9 does not exist on disk yet (file is empty).
  std::byte* frame = pool.PinNew(9);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(file.reads(), 0u);
  for (uint32_t i = 0; i < kPage; ++i) EXPECT_EQ(frame[i], std::byte{0});
  frame[0] = std::byte{0x7E};
  pool.Unpin(9, /*dirty=*/true);
  ASSERT_TRUE(pool.FlushAll());  // write-back extends the file
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(file.ReadPage(9, buf.data()));
  EXPECT_EQ(buf[0], std::byte{0x7E});
}

}  // namespace
}  // namespace clipbb::storage
