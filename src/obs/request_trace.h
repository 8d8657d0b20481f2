// RequestTracer: end-to-end request tracing across the wire front-end.
//
// A request entering net::WireService is assigned (or arrives with) a
// 128-bit trace id plus a root span id, carried as a W3C-traceparent-style
// header: `00-<32 hex trace id>-<16 hex span id>-<2 hex flags>`. The
// context rides through cql::Session execution, across the ingest-queue
// handoff, and (via the thread-local RequestScope) into the per-shard
// maintenance tick, so a single append leaves one parent-linked span tree
// covering every stage it crossed:
//
//   parse       decode the request body (TSV ticks / CQL script)
//   queue_wait  time between enqueue and the ingest worker's pop
//   append      session AppendRows (split + route + apply)
//   wal_commit  WAL group-commit for the batch (per shard when sharded)
//   maintain    one view-maintenance tick (per shard when sharded)
//   merge       router split + shard fan-out bookkeeping
//   respond     request entry to response write-out (the root's tail)
//
// Sampling is probabilistic head sampling: the decision is made once at
// request entry (client-supplied `sampled` flag forces it), and an
// unsampled request takes the zero-overhead path — no span is emitted, no
// clock beyond the RED accounting is read. RED (rate/error/duration)
// counters are recorded for EVERY request, sampled or not.
//
// Storage is the same per-slot seqlock ring discipline as obs::TraceRing:
// emission is one relaxed fetch_add plus relaxed payload stores bracketed
// by an odd/even version claimed with a compare-exchange (obs/seqlock.h,
// shared by both rings), so shard workers and HTTP threads emit
// concurrently without locks and a reader snapshotting mid-overwrite
// drops the torn slot instead of returning garbage. Span trees are
// stitched on READ by grouping the ring on trace id — nothing at emission
// time cares which thread a span came from.
//
// Slow-request capture: when a sampled request's total latency exceeds
// `slow_budget_ns`, MaybeCaptureSlow invokes the installed callback
// (cql::Session wires it to obs::FlightRecorder::RecordSlowRequest) with
// the trace id, so the full span tree + stats snapshot land in one
// atomically-written dump file.

#ifndef CHRONICLE_OBS_REQUEST_TRACE_H_
#define CHRONICLE_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/stats.h"

namespace chronicle {
namespace obs {

// The fixed stage vocabulary. kRequest is the root span (exported via the
// RED duration families); the other seven are the `chronicle_req_stage_*`
// histogram families.
enum class ReqStage : uint8_t {
  kRequest = 0,
  kParse = 1,
  kQueueWait = 2,
  kAppend = 3,
  kWalCommit = 4,
  kMaintain = 5,
  kMerge = 6,
  kRespond = 7,
};
constexpr int kNumReqStages = 8;

// "request", "parse", "queue_wait", ...
const char* ReqStageToString(ReqStage stage);

// Endpoint classification for the RED families.
enum class ReqEndpoint : uint8_t {
  kSession = 0,  // /v1/session and /v1/session/close
  kSql = 1,      // /v1/sql
  kAppend = 2,   // /v1/append
  kDrain = 3,    // /v1/drain
  kMonitor = 4,  // the GET monitoring catalog
  kOther = 5,    // everything else (404s, bad paths)
};
constexpr int kNumReqEndpoints = 6;

const char* ReqEndpointToString(ReqEndpoint endpoint);

// The propagated context: 128-bit trace id + the id of the span that is
// the parent of whatever the carrier does next.
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t parent_span = 0;
  bool sampled = false;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

// Parses a `00-<32hex>-<16hex>-<2hex>` traceparent header. Strict: exact
// length 55, version "00", non-zero trace and span ids. Returns false
// (and leaves *ctx untouched) on any malformation.
bool ParseTraceparent(const std::string& header, TraceContext* ctx);

// Renders the header the other way: `ctx`'s trace id with `span_id` as
// the span field and ctx.sampled as the flags bit.
std::string FormatTraceparent(const TraceContext& ctx, uint64_t span_id);

// One span as read back out of the ring.
struct RequestSpan {
  uint64_t seq = 0;          // monotone emission number
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;  // 0 for the request root
  ReqStage stage = ReqStage::kRequest;
  int32_t shard = -1;        // -1 = not shard-specific / unsharded
  uint16_t worker = 0;       // emitting worker/thread tag
  int64_t start_ns = 0;      // offset from tracer creation (steady clock)
  int64_t duration_ns = 0;
  uint64_t detail = 0;       // stage-specific payload (rows, shards, ...)
};

class RequestTracer {
 public:
  // `capacity` span slots (rounded up to a power of two; 0 disables the
  // ring and with it all span emission), `sample_rate` in [0,1],
  // `slow_budget_ns` (0 disables slow capture).
  RequestTracer(size_t capacity, double sample_rate, int64_t slow_budget_ns);

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  bool enabled() const { return !slots_.empty(); }
  size_t capacity() const { return slots_.size(); }
  double sample_rate() const { return sample_rate_; }
  int64_t slow_budget_ns() const { return slow_budget_ns_; }

  // Steady-clock nanoseconds since construction; the timebase of every
  // span's start_ns.
  int64_t NowNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Mints a fresh context (new non-zero trace id, sampling decided by the
  // configured rate). parent_span is left 0 — the caller emits the root.
  TraceContext Mint();

  // A fresh non-zero span id.
  uint64_t NewSpanId();

  // Records one span and folds its duration into the per-stage histogram.
  // Lock-free; call only for sampled contexts (the unsampled path must
  // not reach here — that is the overhead contract).
  void Emit(const TraceContext& ctx, uint64_t span_id, uint64_t parent_span,
            ReqStage stage, int32_t shard, uint16_t worker, int64_t start_ns,
            int64_t duration_ns, uint64_t detail = 0);

  // RED accounting, recorded for EVERY request (sampled or not).
  void CountRequest(ReqEndpoint endpoint, bool error, int64_t duration_ns);
  // Sampling-decision tally (feeds chronicle_req_sampled_total /
  // chronicle_req_unsampled_total).
  void CountSample(bool sampled);

  // Retained spans, oldest first; torn slots skipped (see header).
  std::vector<RequestSpan> Snapshot() const;

  uint64_t total_emitted() const {
    return next_.load(std::memory_order_relaxed);
  }
  uint64_t sampled_requests() const {
    return sampled_requests_.load(std::memory_order_relaxed);
  }
  uint64_t unsampled_requests() const {
    return unsampled_requests_.load(std::memory_order_relaxed);
  }
  uint64_t slow_captures() const {
    return slow_captures_.load(std::memory_order_relaxed);
  }

  // Fills the `req` section of a stats snapshot (stage histograms, RED
  // families, sampling counters). Safe concurrently with emission.
  void Fill(ReqStatsSnapshot* out) const;

  // `GET /requests.json`: the most recent sampled span trees (newest
  // first, at most `max_traces`), spans within a tree in start order.
  // Schema documented in docs/OBSERVABILITY.md. Passes ValidateJson.
  std::string RenderRequestsJson(size_t max_traces = 32) const;

  // One trace's tree as a standalone JSON object ("{}" placeholder shape
  // when the ring no longer holds it) — the flight recorder's payload.
  std::string RenderTraceTreeJson(uint64_t trace_hi, uint64_t trace_lo) const;

  // Slow-request capture hook: invoked (serialized) from MaybeCaptureSlow
  // when a sampled request exceeds slow_budget_ns.
  using SlowCaptureFn =
      std::function<void(uint64_t trace_hi, uint64_t trace_lo,
                         int64_t total_ns)>;
  void set_slow_capture(SlowCaptureFn fn);

  // Call at request completion with the root's total latency; dispatches
  // the capture hook when the budget is configured and exceeded.
  void MaybeCaptureSlow(const TraceContext& ctx, int64_t total_ns);

 private:
  // One ring slot: the same per-slot seqlock as obs::TraceRing — version
  // odd while a writer is inside, payload fields relaxed atomics.
  struct Slot {
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> trace_hi{0};
    std::atomic<uint64_t> trace_lo{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_span{0};
    std::atomic<uint8_t> stage{0};
    std::atomic<int32_t> shard{-1};
    std::atomic<uint16_t> worker{0};
    std::atomic<int64_t> start_ns{0};
    std::atomic<int64_t> duration_ns{0};
    std::atomic<uint64_t> detail{0};
  };

  // A lock-free mirror of LatencyHistogram: relaxed atomic buckets the
  // emission path increments, converted to a plain histogram on read.
  struct AtomicHist {
    std::atomic<uint64_t> buckets[LatencyHistogram::kBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};  // sentinel until first Record
    std::atomic<int64_t> max{0};

    void Record(int64_t nanos);
    LatencyHistogram ToHistogram() const;
  };

  struct EndpointCounters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    AtomicHist duration;
  };

  static bool ReadSlot(const Slot& slot, RequestSpan* out);
  uint64_t NextRand();

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
  std::chrono::steady_clock::time_point epoch_;

  double sample_rate_;
  // NextRand() < threshold  <=>  sampled (avoids a float compare per
  // request); the always/never flags cover the exact endpoints.
  uint64_t sample_threshold_ = 0;
  bool always_sample_ = false;
  bool never_sample_ = true;
  int64_t slow_budget_ns_;
  std::atomic<uint64_t> rng_state_;

  std::atomic<uint64_t> sampled_requests_{0};
  std::atomic<uint64_t> unsampled_requests_{0};
  std::atomic<uint64_t> slow_captures_{0};
  AtomicHist stage_hist_[kNumReqStages];
  EndpointCounters endpoints_[kNumReqEndpoints];

  std::mutex slow_mu_;  // serializes the capture callback
  SlowCaptureFn slow_capture_;
};

// The thread-local carrier that lets deep layers (the WAL commit inside
// ChronicleDatabase::AppendInternal, the maintenance tick, the shard
// router) emit spans without threading a context through every signature.
// Valid because the sharded sync append path drives every shard engine on
// the calling thread, and the ingest worker installs a scope around each
// batch it applies.
struct RequestScopeState {
  RequestTracer* tracer = nullptr;  // nullptr = no active sampled request
  TraceContext ctx;
  uint64_t root_span = 0;
  uint16_t worker = 0;
};

class RequestScope {
 public:
  // Installs the scope on this thread. A null tracer or an unsampled
  // context installs nothing (Current() stays as it was) — the overhead
  // path is a single thread_local read.
  RequestScope(RequestTracer* tracer, const TraceContext& ctx,
               uint64_t root_span, uint16_t worker = 0);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  // The active scope on this thread, or nullptr.
  static RequestScopeState* Current();

 private:
  bool installed_ = false;
  RequestScopeState saved_;
};

}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_REQUEST_TRACE_H_
