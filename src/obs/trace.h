// TraceRing: a fixed-size ring of span records for the append tick.
//
// Each maintained append leaves a handful of spans — the tick itself, the
// routing phase, one span per worker batch of the parallel fan-out, and
// the batch-order merge — so a stall or an imbalance is visible after the
// fact without a profiler attached. The ring is sized at construction and
// NEVER allocates on the emission path: a span costs one relaxed
// fetch_add to pick a slot, one compare-exchange to claim it, and a
// handful of relaxed stores. Old spans
// are overwritten (it is a flight recorder, not a log); Snapshot() returns
// the retained window oldest-first.
//
// Concurrency: emission is safe from multiple workers — each Emit takes a
// distinct emission number, and writers whose numbers map to one slot
// after a wrap take turns on it (obs/seqlock.h); the newest span wins.
// Snapshot may run CONCURRENTLY with emission (the live monitoring
// endpoint and the flight recorder read the ring from other threads):
// every slot is a seqlock — an atomic version that is odd while a writer
// is inside plus atomic fields — so a reader that races an overwrite
// detects the torn slot (version odd, or changed across the read) and
// drops that span instead of returning garbage.
//
// Timestamps are steady-clock nanoseconds relative to the ring's creation
// (NowNanos), so spans from one process compare directly and no wall-clock
// is involved.

#ifndef CHRONICLE_OBS_TRACE_H_
#define CHRONICLE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace chronicle {
namespace obs {

// What a span measures. detail0/detail1 are kind-specific payloads.
enum class SpanKind : uint8_t {
  kAppendTick = 0,   // whole maintenance of one append; d0=views considered, d1=delta rows
  kRouting = 1,      // candidate selection + guard filtering; d0=candidates, d1=work size
  kWorkerBatch = 2,  // one fan-out task's batch; d0=views in batch, d1=delta rows
  kMerge = 3,        // batch-order report merge; d0=batches, d1=0
  kWalSync = 4,      // one fsync; d0=bytes since last sync, d1=0
};

// Human-readable name of a SpanKind, e.g. "append_tick".
const char* SpanKindToString(SpanKind kind);

struct TraceSpan {
  uint64_t seq = 0;        // monotone emission number (global order)
  SpanKind kind = SpanKind::kAppendTick;
  uint16_t worker = 0;     // fan-out task index (0 outside the fan-out)
  uint64_t sn = 0;         // sequence number of the tick the span belongs to
  int64_t start_ns = 0;    // offset from ring creation (steady clock)
  int64_t duration_ns = 0;
  uint64_t detail0 = 0;
  uint64_t detail1 = 0;
};

class TraceRing {
 public:
  // `capacity` is rounded up to a power of two; 0 disables the ring
  // entirely (Emit returns immediately, Snapshot is empty).
  explicit TraceRing(size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  bool enabled() const { return !slots_.empty(); }
  size_t capacity() const { return slots_.size(); }

  // Steady-clock nanoseconds since the ring was created; the timebase of
  // every span's start_ns.
  int64_t NowNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Records one span. Lock-free; overwrites the oldest span when full.
  void Emit(SpanKind kind, uint16_t worker, uint64_t sn, int64_t start_ns,
            int64_t duration_ns, uint64_t detail0 = 0, uint64_t detail1 = 0);

  // Spans still retained, oldest first. Safe to call from any thread;
  // slots caught mid-overwrite are skipped (see header comment), so a
  // snapshot racing heavy emission may return slightly fewer spans than
  // the retained window.
  std::vector<TraceSpan> Snapshot() const;

  // Spans ever emitted; emitted - min(emitted, capacity) were overwritten.
  uint64_t total_emitted() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  // One ring slot: a per-slot seqlock. `version` is odd while a writer is
  // inside; the payload fields are relaxed atomics so a racing read is a
  // defined read (the version check decides whether it is also coherent).
  struct Slot {
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> seq{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<uint16_t> worker{0};
    std::atomic<uint64_t> sn{0};
    std::atomic<int64_t> start_ns{0};
    std::atomic<int64_t> duration_ns{0};
    std::atomic<uint64_t> detail0{0};
    std::atomic<uint64_t> detail1{0};
  };

  // Reads `slot` coherently into `out`; false if a writer raced every try.
  static bool ReadSlot(const Slot& slot, TraceSpan* out);

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_TRACE_H_
