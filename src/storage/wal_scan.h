// The read side of the write-ahead log (storage/wal.h): the only code that
// decodes log records. Three readers share it — Wal::Recover and read-only
// opens (one poll of a fresh tailer at open), the follower replica's
// incremental tail (every Refresh polls the same tailer), and the offline
// scrub pass (clipbb_cli scrub --wal) — so they cannot disagree about the
// committed prefix.
//
// The scanner: a record with a bad magic, a torn payload, a CRC mismatch,
// or an unknown type ends the scan; page images are promoted only when a
// commit record with the SAME op_seq follows them, so images leaked by a
// failed operation stay inert. The unit of output is the commit window:
// one committed transaction's page post-images in log order plus its
// commit record's LSN/op_seq. The follower applies exactly one epoch per
// window, which is what lets it answer queries identically to a serial
// replay of the committed prefix at every commit boundary.
//
// The tailer re-opens the log on every Poll and scans only the bytes past
// its consumed offset. That offset is always a record boundary just past
// a commit record (or the file header), so every Poll resumes with an
// empty pending set. The tailer NEVER writes the log (O_RDONLY, pread
// only). Three live-writer races are handled here:
//
//  * A half-written group-commit batch at the end of the region scans as
//    a torn tail; the scanner stops at the last complete commit and the
//    next Poll re-reads from there. No partial transaction ever leaks.
//  * Checkpoint truncation shrinks the file below the consumed offset;
//    Poll reports kShrunk and the follower rebases (and ResetToStart()s
//    the tailer). A truncate-then-regrow past the old offset is NOT
//    detectable from the log alone — the follower closes that hole by
//    checking the superblock's checkpoint generation after every poll
//    (the writer bumps it before truncating).
//  * A missing file just means the writer has not created the log yet
//    (or nothing was ever committed): success with zero windows.
#ifndef CLIPBB_STORAGE_WAL_SCAN_H_
#define CLIPBB_STORAGE_WAL_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/page_file.h"
#include "storage/page_store.h"
#include "storage/wal.h"

namespace clipbb::storage {

/// One page post-image of a committed transaction: a view into the
/// scanned buffer (for a tailer, valid until its next Poll).
struct WalPageImage {
  PageId page_id = kInvalidPage;
  uint64_t lsn = 0;
  std::span<const std::byte> bytes;
};

/// One committed transaction: its page images in log order, closed by a
/// commit record.
struct WalCommitWindow {
  uint64_t op_seq = 0;
  uint64_t commit_lsn = 0;
  std::vector<WalPageImage> images;
};

/// What a scan over one byte region found.
struct WalScanResult {
  /// Offset (relative to the scanned region's start) just past the last
  /// commit record consumed — always a record boundary with no partial
  /// transaction before it, so the next scan may resume exactly here.
  size_t committed_end = 0;
  /// Valid records inside consumed windows (images + commits).
  uint64_t records_scanned = 0;
  uint64_t commit_windows = 0;
  uint64_t pages_imaged = 0;
  /// Valid records past committed_end still awaiting their commit.
  uint64_t pending_records = 0;
  /// op_seq and LSN of the last commit record consumed (0 = none).
  uint64_t last_op_seq = 0;
  uint64_t last_commit_lsn = 0;
  /// Highest LSN over EVERY valid record, committed or pending.
  uint64_t max_lsn = 0;
};

/// Scans `[data, data + size)` — which must start at a record boundary —
/// for committed windows. Image payloads must be `page_size` bytes
/// (records claiming otherwise end the scan). When `out` is non-null,
/// every complete window is appended to it, its images viewing `data`;
/// pass nullptr to validate and count only.
WalScanResult ScanCommittedWindows(const std::byte* data, size_t size,
                                   uint32_t page_size,
                                   std::vector<WalCommitWindow>* out);

class WalTailer {
 public:
  enum class PollResult {
    kOk,         // zero or more new windows appended
    kShrunk,     // the log shrank below the consumed offset: rebase needed
    kBadHeader,  // the file does not start with a WAL header
    kError,      // real I/O failure (or an injected read fault)
  };

  /// Cumulative tail statistics (monotonic across rebases, except
  /// last_log_bytes which is a point-in-time reading).
  struct Stats {
    uint64_t polls = 0;
    uint64_t bytes_tailed = 0;    // committed bytes consumed
    uint64_t records_seen = 0;    // valid records inside consumed windows
    uint64_t commits_seen = 0;    // commit windows handed back
    uint64_t last_log_bytes = 0;  // log file size at the last poll
  };

  explicit WalTailer(std::string wal_path) : path_(std::move(wal_path)) {}

  /// Scans the log past the consumed offset and appends every NEW
  /// complete commit window to `*out` (in log order; null counts only).
  /// The images view a buffer the tailer owns until its next Poll. kOk
  /// with an empty append means "caught up". `scan` (optional) receives
  /// what this poll's scan found (zeroed when no region was read).
  PollResult Poll(std::vector<WalCommitWindow>* out,
                  WalScanResult* scan = nullptr);

  /// Forgets all progress: the next Poll scans from the file header
  /// again. The rebase path calls this after reloading from the page
  /// file (the rebased state already reflects every commit the old log
  /// covered, and the new log describes changes on top of it).
  void ResetToStart() {
    consumed_ = 0;
    page_size_ = 0;
  }

  /// Absolute file offset up to which commits were consumed (0 until the
  /// first successful header read).
  uint64_t consumed_bytes() const { return consumed_; }
  /// Page size from the log header (0 until a header was accepted).
  uint32_t page_size() const { return page_size_; }
  const Stats& stats() const { return stats_; }

 private:
  std::string path_;
  size_t consumed_ = 0;    // 0 = header not yet consumed
  uint32_t page_size_ = 0;
  std::vector<std::byte> region_;  // the last poll's bytes (window views)
  Stats stats_;
};

/// The open-time redo poll both recovery paths run: one Poll of a fresh
/// `tailer`, then the page-size check against `file` (a file whose torn
/// superblock left its page size unset adopts the log header's), then
/// `*out` from what the poll found. A missing or header-only log is
/// success with log_found = false. Returns false on an I/O failure, an
/// unrecognisable header, or a page-size mismatch.
bool PollForRecovery(WalTailer* tailer, PageFile* file,
                     std::vector<WalCommitWindow>* windows,
                     Wal::RecoveryResult* out);

/// Offline WAL validation for `clipbb_cli scrub --wal`.
struct WalScrubReport {
  bool log_found = false;   // the file exists and is non-empty
  bool header_ok = false;   // magic + page size parse
  uint32_t page_size = 0;
  uint64_t file_bytes = 0;
  uint64_t records_scanned = 0;
  uint64_t commit_windows = 0;
  uint64_t pages_imaged = 0;
  uint64_t pending_records = 0;
  uint64_t last_op_seq = 0;
  uint64_t max_lsn = 0;
  /// Bytes past the last commit record (uncommitted or torn tail) —
  /// exactly what Recover would discard.
  uint64_t tail_bytes = 0;

  /// A missing/empty log is fine; an existing one must at least have a
  /// valid header. A nonzero tail is NOT a failure — it is the normal
  /// shape after a crash, reported so the operator can see it.
  bool ok() const { return !log_found || header_ok; }
};

/// Validates the whole log at `path` with one count-only tailer poll.
/// Returns false only on real I/O failure (open/stat/read); a missing or
/// empty file is success with log_found = false.
bool ScrubWalFile(const std::string& path, WalScrubReport* report);

}  // namespace clipbb::storage

#endif  // CLIPBB_STORAGE_WAL_SCAN_H_
