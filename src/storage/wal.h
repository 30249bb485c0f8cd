// Write-ahead log of the paged storage engine: physical redo logging with
// page-image records, CRC-protected, fsync'd at commit boundaries.
//
// Protocol (ARIES-style redo-only, no-steal at transaction granularity):
//
//  * Every page the writer modifies is first stamped with a fresh LSN (the
//    page-format convention puts the LSN at byte offset kPageLsnOffset of
//    every page, superblock included) and its full post-image appended to
//    the log; only then may the frame become evictable. One top-level tree
//    operation = one transaction = its page images followed by one commit
//    record carrying the operation sequence number. Records accumulate in
//    a memory buffer that only ever holds whole transactions, so the
//    on-disk log prefix is always transaction-aligned.
//  * Sync() makes the buffered transactions durable (write + fdatasync) —
//    the commit boundary. The BufferPool refuses to write back any dirty
//    frame whose LSN exceeds durable_lsn(), calling Sync() first (WAL rule:
//    log before data).
//  * Recover() scans the log at open (through the tailer of
//    storage/wal_scan.h, the one reader of the record format), discards a
//    torn or corrupt tail (CRC / truncation), and replays every page image
//    of every *committed* transaction in log order. Redo is idempotent; a
//    crash during recovery just replays again.
//  * Checkpoint = flush all dirty frames, fsync the page file, then
//    Truncate() the log. The superblock's lsn field persists the LSN
//    high-water mark across log truncations.
//
// Concurrency: the log is single-writer — one thread appends records —
// but with a sharded BufferPool any shard's eviction path may force a
// Sync() (the log-before-data rule), so Append/Sync/Truncate serialize on
// an internal latch and durable_lsn() is an atomic read. Two shards
// racing to the same forced sync are fine: the loser finds the buffer
// empty and returns immediately.
#ifndef CLIPBB_STORAGE_WAL_H_
#define CLIPBB_STORAGE_WAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/page_file.h"
#include "storage/page_store.h"

namespace clipbb::storage {

/// Byte offset at which every page (superblock included) stores the LSN of
/// the log record that last wrote it — the contract between the WAL's redo
/// pass and the page formats layered above storage.
inline constexpr size_t kPageLsnOffset = 8;

inline constexpr uint64_t kWalFileMagic = 0xC11BB0CC'0A11'0001ULL;
inline constexpr uint32_t kWalRecordMagic = 0xCBB17EC0u;

/// CRC-32 (IEEE, reflected 0xEDB88320) over `data`; seed with a previous
/// return value to chain blocks.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// On-disk WAL file header, written once at offset 0. Public so the
/// log reader (storage/wal_scan.h) can parse the bytes Open() writes; the
/// layout is part of the on-disk format and must not change shape.
struct WalFileHeader {
  uint64_t magic = kWalFileMagic;
  uint32_t page_size = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(WalFileHeader) == 16);

/// Fixed-size WAL record header; the CRC covers the header (crc field
/// zeroed) and the payload, so a torn write anywhere in the record is
/// detected.
struct WalRecordHeader {
  uint32_t magic = kWalRecordMagic;
  uint8_t type = 0;
  uint8_t pad[3] = {0, 0, 0};
  uint64_t lsn = 0;
  int64_t page_id = 0;   // page image: target page; commit: unused (0)
  uint64_t op_seq = 0;   // transaction this record belongs to
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};
static_assert(sizeof(WalRecordHeader) == 40);

/// The CRC a valid record must carry (header with crc zeroed, then
/// payload). Takes the header by value so zeroing never mutates the
/// caller's copy.
inline uint32_t WalRecordCrc(WalRecordHeader h, const void* payload) {
  h.crc = 0;
  uint32_t c = Crc32(&h, sizeof h);
  if (h.payload_len > 0) c = Crc32(payload, h.payload_len, c);
  return c;
}

struct WalStats {
  uint64_t appends = 0;   // records appended (images + commits)
  uint64_t bytes = 0;     // bytes appended
  uint64_t syncs = 0;     // commit-boundary fsyncs
  uint64_t commits = 0;   // commit records (one per completed operation)
};

/// Latency and group-commit distributions, recorded under the WAL latch
/// (plain counters, no atomics — the latch already serializes them).
struct WalMetrics {
  obs::Histogram append_ns;    // Append{PageImage,Commit} wall time
  obs::Histogram sync_ns;      // Sync wall time (write + fdatasync)
  obs::Histogram sync_records; // records drained per sync (group-commit
                               // batch size; empty-buffer syncs not counted)
  obs::Histogram sync_bytes;   // bytes drained per sync
};

class Wal {
 public:
  enum RecordType : uint8_t { kPageImage = 1, kCommit = 2 };

  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating or appending to) the log at `path`. `page_size` is
  /// recorded in the file header; `start_lsn` seeds the LSN counter (pass
  /// the superblock's persisted high-water mark + 1).
  bool Open(const std::string& path, uint32_t page_size, uint64_t start_lsn);
  void Close();
  bool is_open() const { return fd_ >= 0; }

  /// Appends a page post-image record; returns its LSN (0 on failure —
  /// LSNs start at 1). The image must be page_size bytes. `op_seq` names
  /// the transaction the image belongs to: redo applies an image only
  /// when a commit record with the SAME op_seq follows it, so images a
  /// failed (never-committed) operation leaked into the log are inert —
  /// a later transaction's commit cannot adopt them.
  uint64_t AppendPageImage(int64_t page_id, const void* image,
                           uint64_t op_seq);

  /// Appends a commit record closing transaction `op_seq` (also the
  /// operation sequence number recovery reports back).
  uint64_t AppendCommit(uint64_t op_seq);

  /// Writes the buffered transactions and fdatasyncs. The commit
  /// boundary. Callable from any thread (the write-back rule forces it
  /// from buffer-pool evictions); serialized on the internal latch.
  bool Sync();

  /// Highest LSN covered by a completed Sync (0 = nothing durable).
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  /// LSN the next record will receive.
  uint64_t next_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed);
  }
  /// Bytes waiting in the buffer for the next Sync.
  size_t pending_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_.size();
  }

  /// Size of the log once everything appended is synced: the bytes on
  /// disk (header included) plus the buffered bytes.
  uint64_t size_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return file_bytes_ + buffer_.size();
  }

  /// Empties the log after a checkpoint (dirty pages flushed, page file
  /// synced). The LSN counter keeps running.
  bool Truncate();

  /// Point-in-time copy: eviction-forced Syncs bump the counters from
  /// reader threads, so the caller gets a consistent value, not a ref.
  WalStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Point-in-time copy of the latency/group-commit distributions (taken
  /// under the latch, so the copy is internally consistent).
  WalMetrics MetricsSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_;
  }

  /// Publishes stats + distributions into `registry` under wal_* names
  /// (idempotent Set/overwrite semantics).
  void PublishMetrics(obs::MetricsRegistry& registry) const;

  struct RecoveryResult {
    bool log_found = false;        // a non-empty log existed
    uint64_t records_scanned = 0;  // valid records up to the last commit
    uint64_t pages_replayed = 0;   // images actually written to the file
    uint64_t tail_discarded = 0;   // bytes of torn/uncommitted tail dropped
    uint64_t last_op_seq = 0;      // op seq of the last committed record
    uint64_t last_commit_lsn = 0;  // LSN of the last commit record
    /// Highest LSN of any valid record, committed or not (a pending tail
    /// counts: LSNs handed out after recovery must not collide with it).
    uint64_t max_lsn = 0;
  };

  /// Redo pass over the log at `wal_path`: one poll of a fresh tailer
  /// (storage/wal_scan.h), then every committed page image written into
  /// `file` (open, page size set or adopted from the log header) in log
  /// order, the file fsynced, and the log truncated to its header so the
  /// next writer starts clean. Read-only opens run the same poll but
  /// fold the images into memory instead (PollForRecovery).
  ///
  /// A missing or empty log is success with log_found = false. Returns
  /// false only on real I/O failure or an unrecognisable log — a torn
  /// tail is discarded, not fatal.
  static bool Recover(const std::string& wal_path, PageFile* file,
                      RecoveryResult* out);

 private:
  int fd_ = -1;
  uint32_t page_size_ = 0;
  std::atomic<uint64_t> next_lsn_{1};
  std::atomic<uint64_t> durable_lsn_{0};
  uint64_t buffered_lsn_ = 0;  // highest LSN in buffer_ (latched)
  std::vector<std::byte> buffer_;
  uint64_t file_bytes_ = 0;  // bytes written to the log file (latched)
  WalStats stats_;
  WalMetrics metrics_;
  uint64_t records_since_sync_ = 0;  // group-commit batch accumulator
  /// Serializes append/sync/truncate; see the class comment.
  mutable std::mutex mu_;
};

}  // namespace clipbb::storage

#endif  // CLIPBB_STORAGE_WAL_H_
