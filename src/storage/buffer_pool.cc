#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "obs/clock.h"
#include "obs/event_log.h"
#include "storage/wal.h"

namespace clipbb::storage {

namespace {

/// Stable page-id -> shard mix (fmix64); sequential page ids must not all
/// land in one stripe.
uint64_t MixPageId(PageId id) {
  uint64_t x = static_cast<uint64_t>(id);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Shard index of a page, for event-log attribution (the pin paths hold a
/// Shard& but not its index; recomputing the mix is cheaper than carrying
/// the index through every signature).
uint32_t ShardIndexOf(size_t n_shards, PageId id) {
  if (n_shards <= 1) return 0;
  return static_cast<uint32_t>(MixPageId(id) % n_shards);
}

}  // namespace

BufferPool::BufferPool(size_t capacity, PageFile* file, unsigned shards)
    : capacity_(std::max<size_t>(capacity, 1)), file_(file) {
  assert(file_ != nullptr);
  // Every shard must own at least one frame, or a stripe would be unable
  // to evict.
  const size_t n = std::min<size_t>(std::max(shards, 1u), capacity_);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[i]->capacity = capacity_ / n + (i < capacity_ % n ? 1 : 0);
  }
}

BufferPool::~BufferPool() { FlushAll(); }

BufferPool::Shard& BufferPool::ShardFor(PageId id) {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[MixPageId(id) % shards_.size()];
}

const BufferPool::Shard& BufferPool::ShardFor(PageId id) const {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[MixPageId(id) % shards_.size()];
}

uint64_t BufferPool::Sum(uint64_t Shard::*counter) const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += (*s).*counter;
  }
  return total;
}

size_t BufferPool::size() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->map.size();
  }
  return total;
}

bool BufferPool::Resident(PageId id) const {
  const Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.map.contains(id);
}

void BufferPool::MoveToFront(Shard& s, PageId id, Frame& f) {
  if (f.in_lru) s.lru.erase(f.lru_it);
  s.lru.push_front(id);
  f.lru_it = s.lru.begin();
  f.in_lru = true;
}

void BufferPool::NoteGrowth(Shard& s) {
  if (s.map.size() > s.high_water) s.high_water = s.map.size();
}

bool BufferPool::LoadFrame(Shard& s, PageId id, std::byte* dst, PinIo* io,
                           Status* status) {
  // Pages whose newest committed image lives only in the WAL (read-only
  // redo or follower overlay) never touch the file. An overlay image is
  // plain memory: re-reading it cannot change the outcome, so a verify
  // rejection is final with no retry.
  if (CopyFromOverlay(id, dst)) {
    if (verifier_) {
      const Status v = verifier_(id, dst);
      if (!v.ok()) {
        obs::EventLog::Global().Record(
            obs::EventKind::kChecksumReject, id,
            ShardIndexOf(shards_.size(), id), ErrorKindName(v.kind));
        if (status) *status = v;
        return false;
      }
    }
    return true;
  }
  Status last{ErrorKind::kIo, id};
  for (unsigned attempt = 0; attempt <= kMaxReadRetries; ++attempt) {
    if (attempt > 0) {
      ++s.read_retries;
      if (io) ++io->read_retries;
      // Tiny linear backoff before re-reading. This sleeps holding the
      // shard latch — deliberate: the page is mid-fault, and any thread
      // blocked on this stripe would only re-attempt the same read.
      std::this_thread::sleep_for(std::chrono::microseconds(50) * attempt);
    }
    switch (file_->ReadPageDetailed(id, dst)) {
      case PageReadResult::kOk:
        break;
      case PageReadResult::kEof:
        // Deterministic: the page lies past EOF; re-reading cannot help.
        if (status) *status = Status{ErrorKind::kEof, id};
        return false;
      case PageReadResult::kShortRead:
        last = Status{ErrorKind::kShortRead, id};
        if (io) ++io->reads;  // the retry is another physical attempt
        continue;
      case PageReadResult::kIoError:
        last = Status{ErrorKind::kIo, id};
        if (io) ++io->reads;
        continue;
    }
    if (verifier_) {
      const Status v = verifier_(id, dst);
      if (!v.ok()) {
        obs::EventLog::Global().Record(
            obs::EventKind::kChecksumReject, id,
            ShardIndexOf(shards_.size(), id), ErrorKindName(v.kind));
        if (v.kind == ErrorKind::kCorruptStructure) {
          // Checksum passed but the contents are impossible: the bytes on
          // disk are wrong, not the transfer. No retry.
          if (status) *status = v;
          return false;
        }
        last = v;
        if (io) ++io->reads;
        continue;
      }
    }
    return true;
  }
  // PinIo::reads over-counted the last attempt's replacement read that
  // never happened; drop it so reads matches file reads exactly.
  if (io) --io->reads;
  obs::EventLog::Global().Record(obs::EventKind::kRetryExhausted, id,
                                 ShardIndexOf(shards_.size(), id),
                                 ErrorKindName(last.kind), kMaxReadRetries);
  if (status) *status = last;
  return false;
}

std::byte* BufferPool::PinImpl(PageId id, bool dirty, PinIo* io,
                               Status* status) {
  assert(file_ != nullptr && file_->page_size() > 0);
  // One clock read per pin: starts before the latch, so the recorded
  // latency includes latch wait (the contention is part of what the
  // histogram is for). Recorded under the latch into plain per-shard
  // histograms — same no-atomics discipline as the counters.
  const uint64_t t0 = obs::NowNs();
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  if (it != s.map.end() && it->second.loaded) {
    Frame& f = it->second;
    ++s.hits;
    if (f.in_lru) {  // pinned frames leave the LRU (never evictable)
      s.lru.erase(f.lru_it);
      f.in_lru = false;
    }
    ++f.pins;
    f.dirty |= dirty;
    s.pin_hit_ns.Record(obs::NowNs() - t0);
    return f.data.get();
  }
  if (s.quarantined.contains(id)) {
    // Known-bad page: fail fast without touching the file, so one rotten
    // page cannot stall every query that brushes against it.
    if (status) *status = Status{ErrorKind::kQuarantined, id};
    return nullptr;
  }
  ++s.misses;
  if (io) ++io->reads;
  if (it == s.map.end()) {
    // Evict down to capacity before adding a frame; if every frame is
    // pinned the shard grows transiently (Unpin shrinks it back).
    if (s.map.size() >= s.capacity) EvictOne(s, io);
    it = s.map.try_emplace(id).first;
    NoteGrowth(s);
  }
  Frame& f = it->second;
  if (f.in_lru) {
    s.lru.erase(f.lru_it);
    f.in_lru = false;
  }
  if (!f.data) f.data.reset(new std::byte[file_->page_size()]);
  // The shard latch is held across the fetch, so a second thread pinning
  // the same page waits here and then takes the hit path — the source is
  // read exactly once per residency.
  Status load_status;
  if (!LoadFrame(s, id, f.data.get(), io, &load_status)) {
    s.map.erase(it);
    // Exhausted retries (or an unretryable failure): quarantine, except
    // for EOF — an out-of-range pin is a caller bug, not a bad page.
    if (quarantine_enabled_ && load_status.kind != ErrorKind::kEof) {
      s.quarantined.insert(id);
      obs::EventLog::Global().Record(obs::EventKind::kQuarantine, id,
                                     ShardIndexOf(shards_.size(), id),
                                     ErrorKindName(load_status.kind));
    }
    const uint64_t dt = obs::NowNs() - t0;
    s.pin_miss_ns.Record(dt);
    if (io) io->miss_ns += dt;
    if (status) *status = load_status;
    return nullptr;
  }
  f.loaded = true;
  f.pins = 1;
  f.dirty = dirty;
  f.lsn = 0;
  const uint64_t dt = obs::NowNs() - t0;
  s.pin_miss_ns.Record(dt);
  if (io) io->miss_ns += dt;
  return f.data.get();
}

const std::byte* BufferPool::Pin(PageId id, PinIo* io, Status* status) {
  return PinImpl(id, false, io, status);
}

std::byte* BufferPool::PinForWrite(PageId id, PinIo* io, Status* status) {
  return PinImpl(id, true, io, status);
}

std::byte* BufferPool::PinNew(PageId id, PinIo* io) {
  assert(file_ != nullptr && file_->page_size() > 0);
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  if (it == s.map.end()) {
    if (s.map.size() >= s.capacity) EvictOne(s, io);
    it = s.map.try_emplace(id).first;
    NoteGrowth(s);
  }
  Frame& f = it->second;
  if (f.in_lru) {
    s.lru.erase(f.lru_it);
    f.in_lru = false;
  }
  if (!f.data) f.data.reset(new std::byte[file_->page_size()]);
  std::memset(f.data.get(), 0, file_->page_size());
  f.loaded = true;
  f.pins += 1;
  f.dirty = true;
  f.lsn = 0;
  return f.data.get();
}

void BufferPool::Unpin(PageId id, bool dirty, uint64_t lsn, PinIo* io) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  assert(it != s.map.end() && it->second.pins > 0);
  if (it == s.map.end()) return;
  Frame& f = it->second;
  f.dirty |= dirty;
  if (lsn > f.lsn) f.lsn = lsn;
  if (f.pins > 0 && --f.pins == 0) {
    MoveToFront(s, id, f);
    // Shrink any transient overage created while everything was pinned.
    while (s.map.size() > s.capacity) {
      if (!EvictOne(s, io)) break;
    }
  }
}

void BufferPool::OverwritePinned(PageId id, const std::byte* src) {
  assert(file_ != nullptr && file_->page_size() > 0);
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  assert(it != s.map.end() && it->second.pins > 0 && it->second.loaded);
  if (it == s.map.end()) return;
  std::memcpy(it->second.data.get(), src, file_->page_size());
}

bool BufferPool::RefreshResident(PageId id, const std::byte* src) {
  assert(file_ != nullptr && file_->page_size() > 0);
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  if (it == s.map.end() || !it->second.loaded) return false;
  std::memcpy(it->second.data.get(), src, file_->page_size());
  return true;
}

void BufferPool::SetReadOverlay(RecoveredPageMap overlay) {
  OverlayMap next;
  next.reserve(overlay.size());
  for (auto& [id, bytes] : overlay) {
    next.emplace(id, std::make_shared<const std::vector<std::byte>>(
                         std::move(bytes)));
  }
  {
    std::lock_guard<std::mutex> lock(overlay_mu_);
    overlay_.swap(next);
    overlay_attached_.store(!overlay_.empty(), std::memory_order_release);
  }
  // `next` now holds the old images: freed here, outside the lock.
}

void BufferPool::PatchReadOverlay(PageId id, const std::byte* src) {
  assert(file_ != nullptr && file_->page_size() > 0);
  auto image = std::make_shared<const std::vector<std::byte>>(
      src, src + file_->page_size());
  {
    std::lock_guard<std::mutex> lock(overlay_mu_);
    overlay_[id].swap(image);
    overlay_attached_.store(true, std::memory_order_release);
  }
  // `image` now holds the replaced image (if any), freed outside the
  // lock. Overlay first, frame second: a racing miss that copied the old
  // image holds the shard latch until its frame is installed, so this
  // refresh (which needs that latch) always lands after it.
  RefreshResident(id, src);
}

size_t BufferPool::ReadOverlayPages() const {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  return overlay_.size();
}

bool BufferPool::CopyFromOverlay(PageId id, std::byte* dst) const {
  if (!overlay_attached_.load(std::memory_order_acquire)) return false;
  std::shared_ptr<const std::vector<std::byte>> image;
  {
    std::lock_guard<std::mutex> lock(overlay_mu_);
    auto it = overlay_.find(id);
    if (it == overlay_.end()) return false;
    image = it->second;
  }
  // Images are immutable once installed (a patch swaps in a new one), so
  // the copy needs no lock.
  std::memcpy(dst, image->data(), file_->page_size());
  return true;
}

bool BufferPool::ReadPageCopy(PageId id, std::byte* dst, PinIo* io,
                              Status* status) {
  assert(file_ != nullptr && file_->page_size() > 0);
  const uint64_t t0 = obs::NowNs();
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  if (it != s.map.end() && it->second.loaded) {
    ++s.hits;
    if (it->second.in_lru) MoveToFront(s, id, it->second);
    std::memcpy(dst, it->second.data.get(), file_->page_size());
    s.pin_hit_ns.Record(obs::NowNs() - t0);
    return true;
  }
  if (s.quarantined.contains(id)) {
    if (status) *status = Status{ErrorKind::kQuarantined, id};
    return false;
  }
  ++s.misses;
  if (io) ++io->reads;
  if (it == s.map.end()) {
    if (s.map.size() >= s.capacity) EvictOne(s, io);
    it = s.map.try_emplace(id).first;
    NoteGrowth(s);
  }
  Frame& f = it->second;
  if (!f.data) f.data.reset(new std::byte[file_->page_size()]);
  Status load_status;
  if (!LoadFrame(s, id, f.data.get(), io, &load_status)) {
    s.map.erase(it);
    if (quarantine_enabled_ && load_status.kind != ErrorKind::kEof) {
      s.quarantined.insert(id);
      obs::EventLog::Global().Record(obs::EventKind::kQuarantine, id,
                                     ShardIndexOf(shards_.size(), id),
                                     ErrorKindName(load_status.kind));
    }
    const uint64_t dt = obs::NowNs() - t0;
    s.pin_miss_ns.Record(dt);
    if (io) io->miss_ns += dt;
    if (status) *status = load_status;
    return false;
  }
  f.loaded = true;
  f.dirty = false;
  f.lsn = 0;
  std::memcpy(dst, f.data.get(), file_->page_size());
  MoveToFront(s, id, f);  // enters the LRU unpinned
  const uint64_t dt = obs::NowNs() - t0;
  s.pin_miss_ns.Record(dt);
  if (io) io->miss_ns += dt;
  return true;
}

bool BufferPool::ReadForCapture(PageId id, std::byte* dst, bool* from_file) {
  assert(file_ != nullptr && file_->page_size() > 0);
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(id);
  if (it != s.map.end() && it->second.loaded) {
    std::memcpy(dst, it->second.data.get(), file_->page_size());
    if (from_file) *from_file = false;
    return true;
  }
  if (CopyFromOverlay(id, dst)) {
    if (from_file) *from_file = false;
    return true;
  }
  if (from_file) *from_file = true;
  // Not resident: the file copy is current (dirty frames only leave the
  // pool via write-back), so a direct read is exact.
  return file_->ReadPage(id, dst);
}

bool BufferPool::WriteBack(Shard& s, PageId id, Frame& f, PinIo* io) {
  // WAL rule: the record covering these bytes must be durable before the
  // page file sees them; otherwise a crash after this write leaves a page
  // no committed log prefix can explain. The Wal latches internally, so
  // concurrent shards racing to the sync serialize there (the loser sees
  // durable_lsn already advanced and its Sync is a cheap no-op).
  if (wal_ != nullptr && f.lsn > wal_->durable_lsn()) {
    ++s.wal_forced_syncs;
    if (io) ++io->wal_syncs;
    if (!wal_->Sync()) {
      ++s.write_failures;  // cannot write back without breaking the rule
      obs::EventLog::Global().Record(obs::EventKind::kWriteFailure, id,
                                     ShardIndexOf(shards_.size(), id),
                                     "wal-sync-failed");
      return false;
    }
  }
  if (!file_->WritePage(id, f.data.get())) {
    ++s.write_failures;
    obs::EventLog::Global().Record(obs::EventKind::kWriteFailure, id,
                                   ShardIndexOf(shards_.size(), id),
                                   "page-write-failed");
    return false;
  }
  ++s.writebacks;
  if (io) ++io->writes;
  return true;
}

bool BufferPool::EvictOne(Shard& s, PinIo* io) {
  if (s.lru.empty()) return false;
  const PageId victim = s.lru.back();
  s.lru.pop_back();
  auto it = s.map.find(victim);
  assert(it != s.map.end());
  Frame& f = it->second;
  if (f.dirty && f.loaded) {
    // The frame is gone either way; WriteBack makes a failure observable
    // (write_failures) instead of counting it as a successful write-back.
    WriteBack(s, victim, f, io);
  }
  s.map.erase(it);
  ++s.evictions;
  return true;
}

bool BufferPool::FlushAll() {
  bool ok = true;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto& [id, f] : s.map) {
      if (f.dirty && f.loaded) {
        if (WriteBack(s, id, f, nullptr)) {
          f.dirty = false;
        } else {
          ok = false;
        }
      }
    }
  }
  return ok;
}

size_t BufferPool::quarantined_pages() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->quarantined.size();
  }
  return total;
}

void BufferPool::ResetShardCounters(Shard& s) {
  s.hits = s.misses = s.evictions = s.writebacks = s.write_failures =
      s.wal_forced_syncs = s.read_retries = 0;
  s.high_water = s.map.size();
  s.pin_hit_ns.Reset();
  s.pin_miss_ns.Reset();
}

std::vector<BufferPool::ShardCounters> BufferPool::PerShardCounters()
    const {
  std::vector<ShardCounters> out;
  out.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    ShardCounters c;
    c.hits = s.hits;
    c.misses = s.misses;
    c.evictions = s.evictions;
    c.writebacks = s.writebacks;
    c.write_failures = s.write_failures;
    c.wal_forced_syncs = s.wal_forced_syncs;
    c.read_retries = s.read_retries;
    c.high_water = s.high_water;
    c.quarantined = s.quarantined.size();
    c.frames = s.map.size();
    out.push_back(c);
  }
  return out;
}

obs::Histogram BufferPool::PinHitLatency() const {
  obs::Histogram h;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    h += sp->pin_hit_ns;
  }
  return h;
}

obs::Histogram BufferPool::PinMissLatency() const {
  obs::Histogram h;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    h += sp->pin_miss_ns;
  }
  return h;
}

void BufferPool::PublishMetrics(obs::MetricsRegistry& registry) const {
  const std::vector<ShardCounters> per = PerShardCounters();
  ShardCounters tot;
  for (const ShardCounters& c : per) {
    tot.hits += c.hits;
    tot.misses += c.misses;
    tot.evictions += c.evictions;
    tot.writebacks += c.writebacks;
    tot.write_failures += c.write_failures;
    tot.wal_forced_syncs += c.wal_forced_syncs;
    tot.read_retries += c.read_retries;
    tot.high_water += c.high_water;
    tot.quarantined += c.quarantined;
    tot.frames += c.frames;
  }
  registry.SetCounter("pool_pins_total{outcome=\"hit\"}", tot.hits);
  registry.SetCounter("pool_pins_total{outcome=\"miss\"}", tot.misses);
  registry.SetCounter("pool_evictions_total", tot.evictions);
  registry.SetCounter("pool_writebacks_total", tot.writebacks);
  registry.SetCounter("pool_write_failures_total", tot.write_failures);
  registry.SetCounter("pool_wal_forced_syncs_total", tot.wal_forced_syncs);
  registry.SetCounter("pool_read_retries_total", tot.read_retries);
  registry.SetGauge("pool_quarantined_pages", tot.quarantined);
  registry.SetGauge("pool_frames", tot.frames);
  registry.SetGauge("pool_frames_high_water", tot.high_water);
  registry.SetGauge("pool_capacity", capacity_);
  registry.SetGauge("pool_shards", shards_.size());
  registry.SetHistogram("pool_pin_ns{outcome=\"hit\"}", PinHitLatency());
  registry.SetHistogram("pool_pin_ns{outcome=\"miss\"}", PinMissLatency());
  if (per.size() > 1) {
    char name[80];
    for (size_t i = 0; i < per.size(); ++i) {
      const ShardCounters& c = per[i];
      std::snprintf(name, sizeof name,
                    "pool_shard_pins_total{shard=\"%zu\",outcome=\"hit\"}",
                    i);
      registry.SetCounter(name, c.hits);
      std::snprintf(name, sizeof name,
                    "pool_shard_pins_total{shard=\"%zu\",outcome=\"miss\"}",
                    i);
      registry.SetCounter(name, c.misses);
      std::snprintf(name, sizeof name,
                    "pool_shard_evictions_total{shard=\"%zu\"}", i);
      registry.SetCounter(name, c.evictions);
      std::snprintf(name, sizeof name,
                    "pool_shard_quarantined_pages{shard=\"%zu\"}", i);
      registry.SetGauge(name, c.quarantined);
    }
  }
}

void BufferPool::ResetCounters() {
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    ResetShardCounters(*sp);
  }
}

void BufferPool::Clear() {
  FlushAll();
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.map.clear();
    s.quarantined.clear();  // a fresh start re-attempts quarantined pages
    ResetShardCounters(s);
  }
}

void BufferPool::DiscardAll() {
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    assert(s.lru.size() == s.map.size());  // nothing pinned
    s.lru.clear();
    s.map.clear();
  }
}

}  // namespace clipbb::storage
