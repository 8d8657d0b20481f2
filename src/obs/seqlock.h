// Writer side of the per-slot seqlock shared by obs::TraceRing and
// obs::RequestTracer. A slot's `version` is odd while a writer is inside.
// After a ring wraps, two writers can map to one slot; the claim moves the
// version from even to odd with a compare-exchange, so they take turns
// instead of interleaving fields under an even version or leaving the slot
// odd for good. A writer whose span is older than the slot's drops it, so
// the slot ends with the newest span.

#ifndef CHRONICLE_OBS_SEQLOCK_H_
#define CHRONICLE_OBS_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

namespace chronicle {
namespace obs {

// Claims the slot for span `seq`: on true, `*claimed` holds the odd version
// and the caller stores its fields (relaxed), then calls SeqlockRelease. On
// false the slot already holds a newer span and nothing was claimed.
inline bool SeqlockClaim(std::atomic<uint64_t>* version,
                         const std::atomic<uint64_t>& slot_seq, uint64_t seq,
                         uint64_t* claimed) {
  uint64_t v = version->load(std::memory_order_relaxed);
  while ((v & 1) != 0 ||
         !version->compare_exchange_weak(v, v + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
    if (v & 1) {
      std::this_thread::yield();  // another writer is inside this slot
      v = version->load(std::memory_order_relaxed);
    }
  }
  // Version 0: never written, so the seq field is not a span yet.
  if (v != 0 && slot_seq.load(std::memory_order_relaxed) > seq) {
    version->store(v, std::memory_order_release);
    return false;
  }
  // Readers that see any field store below also see the odd version.
  std::atomic_thread_fence(std::memory_order_release);
  *claimed = v + 1;
  return true;
}

// Publishes the fields written under a successful SeqlockClaim.
inline void SeqlockRelease(std::atomic<uint64_t>* version, uint64_t claimed) {
  version->store(claimed + 1, std::memory_order_release);
}

}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_SEQLOCK_H_
