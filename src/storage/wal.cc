#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "obs/clock.h"
#include "storage/crash_point.h"
#include "storage/wal_scan.h"

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
                  RecoveryResult* out) {
  WalTailer tailer(wal_path);
  std::vector<WalCommitWindow> windows;
  RecoveryResult res;
  if (!PollForRecovery(&tailer, file, &windows, &res)) return false;
  if (!res.log_found) {
    if (out) *out = res;
    return true;  // no log, or header-only (clean checkpoint)
  }
  // Redo: write every committed image in log order — last image wins, so
  // the pass is idempotent without consulting on-disk page LSNs. (It must
  // not: a torn page write can persist the header, LSN included, while
  // the page tail is garbage, so "disk LSN >= record LSN" does not imply
  // the page content is intact. Every file page write was covered by a
  // durable image first — the WAL rule — so unconditional replay is
  // always sound.)
  for (const WalCommitWindow& win : windows) {
    for (const WalPageImage& img : win.images) {
      if (!file->WritePage(img.page_id, img.bytes.data())) return false;
    }
  }
  if (!file->Sync()) return false;
  // The log's work is done; empty it so the next writer starts clean.
  const int fd = ::open(wal_path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const bool truncated = ::ftruncate(fd, sizeof(WalFileHeader)) == 0 &&
                         ::fdatasync(fd) == 0;
  ::close(fd);
  if (!truncated) return false;
  if (out) *out = res;
  return true;
}

}  // namespace clipbb::storage
