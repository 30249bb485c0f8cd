#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "obs/clock.h"
#include "storage/crash_point.h"
#include "storage/fault_injection.h"

namespace clipbb::storage {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

bool FullWrite(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Wal::~Wal() { Close(); }

bool Wal::Open(const std::string& path, uint32_t page_size,
               uint64_t start_lsn) {
  Close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return false;
  page_size_ = page_size;
  const uint64_t first = start_lsn > 0 ? start_lsn : 1;
  next_lsn_.store(first, std::memory_order_relaxed);
  durable_lsn_.store(first - 1, std::memory_order_release);
  buffered_lsn_ = first - 1;  // nothing buffered yet
  buffer_.clear();
  stats_ = WalStats{};

  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    Close();
    return false;
  }
  file_bytes_ = static_cast<uint64_t>(st.st_size);
  if (st.st_size == 0) {
    WalFileHeader h;
    h.page_size = page_size_;
    if (!FullWrite(fd_, &h, sizeof h)) {
      Close();
      return false;
    }
    file_bytes_ = sizeof h;
  } else {
    // Appending to an existing (recovered, truncated-to-header) log; the
    // page size must match.
    WalFileHeader h;
    if (::pread(fd_, &h, sizeof h, 0) != static_cast<ssize_t>(sizeof h) ||
        h.magic != kWalFileMagic || h.page_size != page_size_) {
      Close();
      return false;
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      Close();
      return false;
    }
  }
  return true;
}

void Wal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

uint64_t Wal::AppendPageImage(int64_t page_id, const void* image,
                              uint64_t op_seq) {
  const uint64_t t0 = obs::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return 0;
  WalRecordHeader h;
  h.type = kPageImage;
  h.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  h.page_id = page_id;
  h.op_seq = op_seq;
  h.payload_len = page_size_;
  h.crc = WalRecordCrc(h, image);
  const size_t base = buffer_.size();
  buffer_.resize(base + sizeof h + page_size_);
  std::memcpy(buffer_.data() + base, &h, sizeof h);
  std::memcpy(buffer_.data() + base + sizeof h, image, page_size_);
  buffered_lsn_ = h.lsn;
  ++stats_.appends;
  stats_.bytes += sizeof h + page_size_;
  ++records_since_sync_;
  metrics_.append_ns.Record(obs::NowNs() - t0);
  return h.lsn;
}

uint64_t Wal::AppendCommit(uint64_t op_seq) {
  const uint64_t t0 = obs::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return 0;
  WalRecordHeader h;
  h.type = kCommit;
  h.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  h.op_seq = op_seq;
  h.payload_len = 0;
  h.crc = WalRecordCrc(h, nullptr);
  const size_t base = buffer_.size();
  buffer_.resize(base + sizeof h);
  std::memcpy(buffer_.data() + base, &h, sizeof h);
  buffered_lsn_ = h.lsn;
  ++stats_.appends;
  stats_.bytes += sizeof h;
  ++stats_.commits;
  ++records_since_sync_;
  metrics_.append_ns.Record(obs::NowNs() - t0);
  return h.lsn;
}

bool Wal::Sync() {
  const uint64_t t0 = obs::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return false;
  if (buffer_.empty()) return true;  // a racing sync already drained it
  const uint64_t drained_bytes = buffer_.size();
  CrashPointBeforeWrite(buffer_.size(), [&](uint64_t half) {
    FullWrite(fd_, buffer_.data(), half);
  });
  if (!FullWrite(fd_, buffer_.data(), buffer_.size())) return false;
  file_bytes_ += drained_bytes;
  if (::fdatasync(fd_) != 0) return false;
  buffer_.clear();
  durable_lsn_.store(buffered_lsn_, std::memory_order_release);
  ++stats_.syncs;
  metrics_.sync_ns.Record(obs::NowNs() - t0);
  metrics_.sync_records.Record(records_since_sync_);
  metrics_.sync_bytes.Record(drained_bytes);
  records_since_sync_ = 0;
  return true;
}

void Wal::PublishMetrics(obs::MetricsRegistry& registry) const {
  WalStats stats;
  WalMetrics m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = stats_;
    m = metrics_;
  }
  registry.SetCounter("wal_appends_total", stats.appends);
  registry.SetCounter("wal_bytes_total", stats.bytes);
  registry.SetCounter("wal_syncs_total", stats.syncs);
  registry.SetCounter("wal_commits_total", stats.commits);
  registry.SetGauge("wal_durable_lsn", durable_lsn());
  registry.SetHistogram("wal_append_ns", m.append_ns);
  registry.SetHistogram("wal_sync_ns", m.sync_ns);
  registry.SetHistogram("wal_sync_records", m.sync_records);
  registry.SetHistogram("wal_sync_bytes", m.sync_bytes);
}

bool Wal::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return false;
  buffer_.clear();
  const uint64_t caught_up = next_lsn_.load(std::memory_order_relaxed) - 1;
  buffered_lsn_ = caught_up;
  durable_lsn_.store(caught_up, std::memory_order_release);
  if (::ftruncate(fd_, sizeof(WalFileHeader)) != 0) return false;
  file_bytes_ = sizeof(WalFileHeader);
  if (::lseek(fd_, 0, SEEK_END) < 0) return false;
  return ::fdatasync(fd_) == 0;
}

bool Wal::Recover(const std::string& wal_path, PageFile* file,
                  RecoveryResult* out, bool truncate_after_replay,
                  RecoveredPageMap* overlay) {
  RecoveryResult res;
  const int fd =
      ::open(wal_path.c_str(), truncate_after_replay ? O_RDWR : O_RDONLY);
  if (fd < 0) {
    if (out) *out = res;
    return true;  // no log, nothing to do
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size <= sizeof(WalFileHeader)) {
    ::close(fd);
    if (out) *out = res;
    return true;  // header-only (clean checkpoint) or empty
  }
  // Injected faults on the whole-log read: EIO and short reads make
  // recovery fail cleanly (the caller refuses the open); a bit flip lands
  // in the log buffer, where the per-record CRC machinery below treats the
  // damaged record as the start of the torn tail.
  const ReadFaultKind fault = ReadFaultNext(kReadFaultWal);
  if (fault == ReadFaultKind::kEio || fault == ReadFaultKind::kShortRead) {
    ::close(fd);
    return false;
  }
  std::vector<std::byte> log(size);
  const bool read_ok =
      ::pread(fd, log.data(), size, 0) == static_cast<ssize_t>(size);
  if (!read_ok) {
    ::close(fd);
    return false;
  }
  if (fault == ReadFaultKind::kBitFlip) {
    log[sizeof(WalFileHeader) + (size - sizeof(WalFileHeader)) / 2] ^=
        std::byte{0x10};
  }
  WalFileHeader fh;
  std::memcpy(&fh, log.data(), sizeof fh);
  if (fh.magic != kWalFileMagic || fh.page_size == 0) {
    // Unrecognisable log: refuse to guess — the caller decides whether the
    // page file alone is usable.
    ::close(fd);
    return false;
  }
  if (file->page_size() == 0) {
    // The page file's superblock was torn; the log header is the
    // authoritative size (its image will repair the superblock).
    file->set_page_size(fh.page_size);
  } else if (fh.page_size != file->page_size()) {
    ::close(fd);
    return false;
  }
  res.log_found = true;

  // Scan forward validating records; remember the offset just past the
  // last commit — everything after it is an uncommitted or torn tail.
  struct Image {
    uint64_t lsn;
    int64_t page_id;
    uint64_t op_seq;
    size_t payload_off;
  };
  std::vector<Image> images;        // images of committed transactions
  std::vector<Image> pending;       // images awaiting their commit
  size_t off = sizeof(WalFileHeader);
  size_t committed_end = off;
  while (off + sizeof(WalRecordHeader) <= size) {
    WalRecordHeader h;
    std::memcpy(&h, log.data() + off, sizeof h);
    if (h.magic != kWalRecordMagic) break;
    if (off + sizeof h + h.payload_len > size) break;  // torn payload
    if (h.crc != WalRecordCrc(h, log.data() + off + sizeof h)) break;
    if (h.type == kPageImage) {
      if (h.payload_len != fh.page_size) break;
      pending.push_back(Image{h.lsn, h.page_id, h.op_seq, off + sizeof h});
    } else if (h.type == kCommit) {
      // Promote only images of THIS transaction; images of a different
      // op_seq were leaked by an operation that failed before committing
      // (the writer synced them to preserve earlier group-committed
      // work) and must stay inert.
      for (const Image& im : pending) {
        if (im.op_seq == h.op_seq) images.push_back(im);
      }
      pending.clear();
      res.last_op_seq = h.op_seq;
      res.last_commit_lsn = h.lsn;
      committed_end = off + sizeof h;
    } else {
      break;  // unknown record type: treat as tail corruption
    }
    // Max over every valid record, committed or not, so LSNs handed out
    // after recovery never collide with ones the dead writer consumed.
    if (h.lsn > res.max_lsn) res.max_lsn = h.lsn;
    res.records_scanned++;
    off += sizeof h + h.payload_len;
  }
  res.tail_discarded = size - committed_end;
  // Records of the discarded tail must not count.
  res.records_scanned -= pending.size();

  // Redo: write every committed image in log order — last image wins, so
  // the pass is idempotent without consulting on-disk page LSNs. (It must
  // not: a torn page write can persist the header, LSN included, while
  // the page tail is garbage, so "disk LSN >= record LSN" does not imply
  // the page content is intact. Every file page write was covered by a
  // durable image first — the WAL rule — so unconditional replay is
  // always sound.)
  for (const Image& im : images) {
    if (overlay != nullptr) {
      // Read-only redo: the newest committed image lands in memory; the
      // page file stays untouched (a live writer may own it).
      (*overlay)[im.page_id].assign(
          log.begin() + static_cast<ptrdiff_t>(im.payload_off),
          log.begin() + static_cast<ptrdiff_t>(im.payload_off) +
              fh.page_size);
    } else if (!file->WritePage(im.page_id, log.data() + im.payload_off)) {
      ::close(fd);
      return false;
    }
    ++res.pages_replayed;
  }
  if (overlay == nullptr && !file->Sync()) {
    ::close(fd);
    return false;
  }
  // Write mode: the log's work is done; empty it so the next writer
  // starts clean. A read-only open leaves the log byte-identical — it may
  // be another process's only durable copy (see the header contract).
  if (truncate_after_replay &&
      (::ftruncate(fd, sizeof(WalFileHeader)) != 0 ||
       ::fdatasync(fd) != 0)) {
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (out) *out = res;
  return true;
}

}  // namespace clipbb::storage
