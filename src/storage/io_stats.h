// I/O accounting. The paper's headline metric is leaf-node accesses
// (internal nodes and the clip table are assumed memory-resident, §V-C);
// we additionally count internal accesses, result-contributing leaf
// accesses (for the Fig. 1c optimality ratio), clip-table lookups, and —
// on the paged storage engine — the physical transfers: page reads from
// the page file (buffer-pool misses), page writes (dirty evictions and
// flushes), write-ahead-log appends/bytes/syncs, and pages replayed by
// crash recovery.
//
// Concurrency contract: an IoStats is deliberately plain counters, never
// shared between threads. Multithreaded paths (SpatialEngine::ExecuteBatch
// over rtree/query_batch.h's ForEachChunked) give every worker its own
// instance and combine with operator+= after the join — accumulate
// per-thread, sum once, exact totals with no atomics on the hot path.
#ifndef CLIPBB_STORAGE_IO_STATS_H_
#define CLIPBB_STORAGE_IO_STATS_H_

#include <cstdint>

namespace clipbb::storage {

struct IoStats {
  uint64_t internal_accesses = 0;
  uint64_t leaf_accesses = 0;
  /// Leaf accesses that contributed at least one result (Fig. 1c numerator).
  uint64_t contributing_leaf_accesses = 0;
  /// Clip-table lookups (one per child considered while clipping is on).
  uint64_t clip_accesses = 0;
  /// Physical page reads from the page file (buffer-pool misses).
  uint64_t page_reads = 0;
  /// Re-reads after a transient read failure or checksum mismatch (each
  /// retry is also counted in page_reads; a fault absorbed by retry is
  /// visible here and nowhere else).
  uint64_t read_retries = 0;
  /// Physical page writes to the page file (dirty evictions + flushes).
  uint64_t page_writes = 0;
  /// Write-ahead-log records appended (page images + commits).
  uint64_t wal_appends = 0;
  /// Write-ahead-log bytes appended.
  uint64_t wal_bytes = 0;
  /// Write-ahead-log fsyncs (commit boundaries + forced by write-back).
  uint64_t wal_syncs = 0;
  /// Page images replayed by WAL redo at open (crash recovery).
  uint64_t recovery_replays = 0;
  /// Wall time (ns) spent inside buffer-pool miss pins — the physical
  /// read, verification, retries, and any eviction they forced. The
  /// traced pin-miss-io span of a sampled query is this counter's delta.
  uint64_t pin_miss_ns = 0;

  void Reset() { *this = IoStats{}; }

  IoStats& operator+=(const IoStats& o) {
    internal_accesses += o.internal_accesses;
    leaf_accesses += o.leaf_accesses;
    contributing_leaf_accesses += o.contributing_leaf_accesses;
    clip_accesses += o.clip_accesses;
    page_reads += o.page_reads;
    read_retries += o.read_retries;
    page_writes += o.page_writes;
    wal_appends += o.wal_appends;
    wal_bytes += o.wal_bytes;
    wal_syncs += o.wal_syncs;
    recovery_replays += o.recovery_replays;
    pin_miss_ns += o.pin_miss_ns;
    return *this;
  }

  uint64_t TotalAccesses() const { return internal_accesses + leaf_accesses; }
};

}  // namespace clipbb::storage

#endif  // CLIPBB_STORAGE_IO_STATS_H_
