// Deterministic read-fault injection for the paged read path, mirroring the
// crash-at-write harness in storage/crash_point.h. When armed, the Nth
// eligible page read (1-based, optionally restricted to one file page id)
// fails with EIO, a mid-page short read, or a single flipped bit in the
// frame, for up to `count` consecutive eligible reads from that point on
// (count == 1 models a transient fault that a retry absorbs). Disarmed cost
// is a single relaxed atomic load. Tests arm programmatically; CI arms via
// environment variables:
//
//   CLIPBB_READ_FAULT=eio|short|flip   fault kind (unset/empty = disarmed)
//   CLIPBB_READ_FAULT_NTH=<n>          trigger on the nth eligible read (1-)
//   CLIPBB_READ_FAULT_COUNT=<c>        inject at most c faults (default 1)
//   CLIPBB_READ_FAULT_PAGE=<p>         only file page p is eligible
//                                      (default: every page)
#ifndef CLIPBB_STORAGE_FAULT_INJECTION_H_
#define CLIPBB_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace clipbb::storage {

enum class ReadFaultKind : uint8_t {
  kNone = 0,
  kEio,        ///< the pread fails outright
  kShortRead,  ///< the pread returns fewer bytes than a page
  kBitFlip,    ///< the read succeeds but one bit of the frame is flipped
};

/// Sentinel "page id" the log tailer's region read (recovery at open and
/// every follower Refresh) passes to ReadFaultNext; lets a page filter
/// target either the log read or a specific data page.
inline constexpr int64_t kReadFaultWal = -2;

namespace read_fault_internal {
inline std::atomic<uint8_t> kind{0};
inline std::atomic<uint64_t> nth{0};      // 1-based trigger point
inline std::atomic<uint64_t> budget{0};   // faults still to inject
inline std::atomic<int64_t> page{-1};     // -1 = any page eligible
inline std::atomic<uint64_t> seen{0};     // eligible reads observed
inline std::atomic<uint64_t> injected{0};
}  // namespace read_fault_internal

inline void ReadFaultDisarm() {
  namespace fi = read_fault_internal;
  fi::kind.store(0, std::memory_order_relaxed);
  fi::nth.store(0, std::memory_order_relaxed);
  fi::budget.store(0, std::memory_order_relaxed);
  fi::page.store(-1, std::memory_order_relaxed);
  fi::seen.store(0, std::memory_order_relaxed);
  fi::injected.store(0, std::memory_order_relaxed);
}

/// Arms the injector: starting with the `nth_read`-th eligible read
/// (1-based), inject `count` faults of kind `k`. When `page_id` >= 0 or is
/// kReadFaultWal, only reads of that page are eligible (and counted).
inline void ReadFaultArm(ReadFaultKind k, uint64_t nth_read,
                         uint64_t count = 1, int64_t page_id = -1) {
  namespace fi = read_fault_internal;
  ReadFaultDisarm();
  fi::nth.store(nth_read == 0 ? 1 : nth_read, std::memory_order_relaxed);
  fi::budget.store(count, std::memory_order_relaxed);
  fi::page.store(page_id, std::memory_order_relaxed);
  fi::kind.store(static_cast<uint8_t>(k), std::memory_order_relaxed);
}

/// Faults injected since the last arm/disarm.
inline uint64_t ReadFaultInjected() {
  return read_fault_internal::injected.load(std::memory_order_relaxed);
}

/// Eligible reads observed since the last arm/disarm.
inline uint64_t ReadFaultSeen() {
  return read_fault_internal::seen.load(std::memory_order_relaxed);
}

/// Arms from CLIPBB_READ_FAULT* (see header comment); returns true if armed.
inline bool ReadFaultArmFromEnv() {
  const char* kind_env = std::getenv("CLIPBB_READ_FAULT");
  if (kind_env == nullptr || *kind_env == '\0') return false;
  ReadFaultKind k;
  if (std::strcmp(kind_env, "eio") == 0) {
    k = ReadFaultKind::kEio;
  } else if (std::strcmp(kind_env, "short") == 0) {
    k = ReadFaultKind::kShortRead;
  } else if (std::strcmp(kind_env, "flip") == 0) {
    k = ReadFaultKind::kBitFlip;
  } else {
    return false;
  }
  const char* nth_env = std::getenv("CLIPBB_READ_FAULT_NTH");
  const char* count_env = std::getenv("CLIPBB_READ_FAULT_COUNT");
  const char* page_env = std::getenv("CLIPBB_READ_FAULT_PAGE");
  const uint64_t nth_read =
      nth_env != nullptr ? std::strtoull(nth_env, nullptr, 10) : 1;
  const uint64_t count =
      count_env != nullptr ? std::strtoull(count_env, nullptr, 10) : 1;
  const int64_t page_id =
      page_env != nullptr ? std::strtoll(page_env, nullptr, 10) : -1;
  ReadFaultArm(k, nth_read, count, page_id);
  return true;
}

/// Called by the read hooks with the file page id being read (or
/// kReadFaultWal for the log tailer's region read). Returns the fault to apply to
/// this read, or kNone.
inline ReadFaultKind ReadFaultNext(int64_t page_id) {
  namespace fi = read_fault_internal;
  const uint8_t k = fi::kind.load(std::memory_order_relaxed);
  if (k == 0) return ReadFaultKind::kNone;
  const int64_t want = fi::page.load(std::memory_order_relaxed);
  if (want != -1 && want != page_id) return ReadFaultKind::kNone;
  const uint64_t s =
      fi::seen.fetch_add(1, std::memory_order_relaxed) + 1;
  if (s < fi::nth.load(std::memory_order_relaxed)) {
    return ReadFaultKind::kNone;
  }
  uint64_t b = fi::budget.load(std::memory_order_relaxed);
  while (b > 0) {
    if (fi::budget.compare_exchange_weak(b, b - 1,
                                         std::memory_order_relaxed)) {
      fi::injected.fetch_add(1, std::memory_order_relaxed);
      return static_cast<ReadFaultKind>(k);
    }
  }
  return ReadFaultKind::kNone;
}

}  // namespace clipbb::storage

#endif  // CLIPBB_STORAGE_FAULT_INJECTION_H_
