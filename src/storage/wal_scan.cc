#include "storage/wal_scan.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "storage/fault_injection.h"

namespace clipbb::storage {

WalScanResult ScanCommittedWindows(const std::byte* data, size_t size,
                                   uint32_t page_size,
                                   std::vector<WalCommitWindow>* out) {
  WalScanResult res;
  // Images since the last commit: a commit promotes only images of ITS
  // transaction — images leaked by an operation that failed before
  // committing stay inert.
  struct Pending {
    uint64_t op_seq;
    WalPageImage image;
  };
  std::vector<Pending> pending;
  uint64_t valid_records = 0;  // every valid record up to the scan stop
  size_t off = 0;
  while (off + sizeof(WalRecordHeader) <= size) {
    WalRecordHeader h;
    std::memcpy(&h, data + off, sizeof h);
    if (h.magic != kWalRecordMagic) break;
    if (off + sizeof h + h.payload_len > size) break;  // torn payload
    if (h.crc != WalRecordCrc(h, data + off + sizeof h)) break;
    if (h.type == Wal::kPageImage) {
      if (h.payload_len != page_size) break;
      pending.push_back(
          {h.op_seq, {h.page_id, h.lsn, {data + off + sizeof h, page_size}}});
    } else if (h.type == Wal::kCommit) {
      WalCommitWindow win;
      win.op_seq = h.op_seq;
      win.commit_lsn = h.lsn;
      for (const Pending& p : pending) {
        if (p.op_seq != h.op_seq) continue;
        ++res.pages_imaged;
        if (out != nullptr) win.images.push_back(p.image);
      }
      pending.clear();
      if (out != nullptr) out->push_back(std::move(win));
      ++res.commit_windows;
      res.last_op_seq = h.op_seq;
      res.last_commit_lsn = h.lsn;
      res.committed_end = off + sizeof h;
      res.records_scanned = valid_records + 1;  // this commit included
    } else {
      break;  // unknown record type: treat as tail corruption
    }
    // Max over every valid record, committed or not, so LSNs handed out
    // after recovery never collide with ones a dead writer consumed.
    if (h.lsn > res.max_lsn) res.max_lsn = h.lsn;
    ++valid_records;
    off += sizeof h + h.payload_len;
  }
  res.pending_records = valid_records - res.records_scanned;
  return res;
}

WalTailer::PollResult WalTailer::Poll(std::vector<WalCommitWindow>* out,
                                      WalScanResult* scan) {
  if (scan) *scan = WalScanResult{};
  region_ = {};  // the previous poll's views expire here
  ++stats_.polls;
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) {
    // No log yet. If we had consumed past a header before, the file was
    // removed out from under us — treat like a shrink so the follower
    // resynchronizes from the page file.
    return consumed_ > 0 ? PollResult::kShrunk : PollResult::kOk;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return PollResult::kError;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  stats_.last_log_bytes = size;
  if (size < consumed_) {
    ::close(fd);
    return PollResult::kShrunk;
  }
  if (consumed_ == 0) {
    if (size < sizeof(WalFileHeader)) {
      ::close(fd);
      return PollResult::kOk;  // header still being written (or empty)
    }
    WalFileHeader fh;
    if (::pread(fd, &fh, sizeof fh, 0) !=
        static_cast<ssize_t>(sizeof fh)) {
      ::close(fd);
      return PollResult::kError;
    }
    if (fh.magic != kWalFileMagic || fh.page_size == 0) {
      ::close(fd);
      return PollResult::kBadHeader;
    }
    page_size_ = fh.page_size;
    consumed_ = sizeof fh;
  }
  if (size == consumed_) {
    ::close(fd);
    return PollResult::kOk;  // caught up
  }
  // Injected faults on the region read: EIO and short reads fail the
  // poll (a recovery open is refused; a follower's next Refresh retries);
  // a bit flip lands in the region's middle byte, where the per-record
  // CRC treats the damaged record as the start of the torn tail.
  const ReadFaultKind fault = ReadFaultNext(kReadFaultWal);
  if (fault == ReadFaultKind::kEio || fault == ReadFaultKind::kShortRead) {
    ::close(fd);
    return PollResult::kError;
  }
  region_.resize(size - consumed_);
  const ssize_t got = ::pread(fd, region_.data(), region_.size(),
                              static_cast<off_t>(consumed_));
  ::close(fd);
  if (got < 0) return PollResult::kError;
  // A concurrent truncation between fstat and pread can shorten the
  // region; scan whatever arrived — the scanner stops at the last
  // complete commit either way, and the next poll (or the follower's
  // generation check) sorts out the rest.
  region_.resize(static_cast<size_t>(got));
  if (fault == ReadFaultKind::kBitFlip && !region_.empty()) {
    region_[region_.size() / 2] ^= std::byte{0x10};
  }
  const WalScanResult res =
      ScanCommittedWindows(region_.data(), region_.size(), page_size_, out);
  consumed_ += res.committed_end;
  stats_.bytes_tailed += res.committed_end;
  stats_.records_seen += res.records_scanned;
  stats_.commits_seen += res.commit_windows;
  if (scan) *scan = res;
  return PollResult::kOk;
}

bool PollForRecovery(WalTailer* tailer, PageFile* file,
                     std::vector<WalCommitWindow>* windows,
                     Wal::RecoveryResult* out) {
  WalScanResult scan;
  if (tailer->Poll(windows, &scan) != WalTailer::PollResult::kOk) {
    return false;  // I/O failure or an unrecognisable log: refuse to guess
  }
  Wal::RecoveryResult res;
  if (tailer->page_size() != 0) {
    if (file->page_size() == 0) {
      // The page file's superblock was torn; the log header is the
      // authoritative size (its image will repair the superblock).
      file->set_page_size(tailer->page_size());
    } else if (tailer->page_size() != file->page_size()) {
      return false;
    }
    const uint64_t log_bytes = tailer->stats().last_log_bytes;
    res.log_found = log_bytes > sizeof(WalFileHeader);
    res.tail_discarded = log_bytes - tailer->consumed_bytes();
  }
  res.records_scanned = scan.records_scanned;
  res.pages_replayed = scan.pages_imaged;
  res.last_op_seq = scan.last_op_seq;
  res.last_commit_lsn = scan.last_commit_lsn;
  res.max_lsn = scan.max_lsn;
  if (out) *out = res;
  return true;
}

bool ScrubWalFile(const std::string& path, WalScrubReport* report) {
  WalScrubReport rep;
  WalTailer tailer(path);
  WalScanResult scan;
  const WalTailer::PollResult pr = tailer.Poll(nullptr, &scan);
  if (pr == WalTailer::PollResult::kError) return false;
  rep.file_bytes = tailer.stats().last_log_bytes;
  rep.log_found = rep.file_bytes > 0;
  rep.header_ok = tailer.page_size() != 0;
  if (rep.header_ok) {
    rep.page_size = tailer.page_size();
    rep.records_scanned = scan.records_scanned;
    rep.commit_windows = scan.commit_windows;
    rep.pages_imaged = scan.pages_imaged;
    rep.pending_records = scan.pending_records;
    rep.last_op_seq = scan.last_op_seq;
    rep.max_lsn = scan.max_lsn;
    rep.tail_bytes = rep.file_bytes - tailer.consumed_bytes();
  }
  if (report) *report = rep;
  return true;
}

}  // namespace clipbb::storage
