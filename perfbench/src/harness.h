// Shared plumbing for the benchmark workloads: clocks, latency samples,
// process-level cost probes, the metric table a run reports, and the
// benchmark-side span log the traced run keeps.
//
// Spans are recorded in the benchmark's own code around each call into a
// layer's public functions; nothing inside the program is instrumented.
// A span carries its name, start, end, parent span and op id. Spans stay
// in memory and are written out once, when the run ends.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace chronicle {
class LatencyHistogram;
namespace obs {
struct StatsSnapshot;
}  // namespace obs
}  // namespace chronicle

namespace perfbench {

// Steady-clock nanoseconds.
int64_t NowNs();
void SleepUntilNs(int64_t deadline_ns);
// Sleeps until shortly before `deadline_ns`, then spins up to it, so the
// caller leaves on time instead of whenever the timer wake-up lands. Call
// PreciseTimers() once on the thread first: it drops the kernel's timer
// slack, which keeps the spin short.
void WaitUntilNs(int64_t deadline_ns);
void PreciseTimers();
// User + system CPU of the whole process (all threads), in seconds.
double ProcessCpuSeconds();
// CPU time the hypervisor took from this machine's vCPUs, all CPUs summed
// (the steal column of /proc/stat); 0 where it is not reported.
double StealSeconds();
// VmHWM of this process, in MiB.
double PeakRssMb();
// Bytes of all regular files below `dir` (0 when absent).
uint64_t DirBytes(const std::string& dir);
// Creates an empty directory (removing any previous contents).
void FreshDir(const std::string& dir);
void RemoveDir(const std::string& dir);

// Aborts the run on a library error: a broken setup would silently
// invalidate every number after it.
void Check(const chronicle::Status& status, const char* what);
template <typename T>
T Unwrap(chronicle::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// Latency samples in nanoseconds; percentiles by nearest rank.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void Append(const Samples& other);
  size_t count() const { return ns_.size(); }
  // q in [0, 1]; microseconds. 0 when empty.
  double PercentileUs(double q) const;

 private:
  mutable std::vector<int64_t> ns_;
  mutable bool sorted_ = false;
};

double Median(std::vector<double> values);

// One slice of a timed window: its latency samples, the rows it applied,
// the process CPU it used, the CPU the hypervisor stole meanwhile and its
// length.
struct Slice {
  Samples append;
  Samples read;
  uint64_t rows = 0;
  double cpu_s = 0;
  double steal_s = 0;
  double seconds = 0;
};

// Length of one slice of a timed window.
constexpr int64_t kSliceNs = 250000000;

// A timed window cut into consecutive slices. Every end-to-end figure is
// computed per slice and reported as the median over slices, so a stall
// from outside the program (a burst of hypervisor steal, one slow fsync)
// moves one slice instead of the whole run.
class SlicedRun {
 public:
  SlicedRun(int64_t t0, int64_t slice_ns);

  // The slice an event at `at_ns` falls in (created on demand).
  Slice& At(int64_t at_ns);
  // Closes the slices that ended by `now_ns`, charging the rows and CPU
  // accumulated since the previous close to the slice being closed. Call
  // it after each operation of a closed loop, or at each slice boundary
  // from a sampler.
  void Mark(int64_t now_ns, uint64_t rows_total);
  // Closes the open slice at `now_ns`; called once more at the end of the
  // window.
  void Finish(int64_t now_ns, uint64_t rows_total);
  // Keeps CPU spent and stolen off the clock (between two parts of a
  // window) out of the open slice.
  void SkipOffClock(double cpu_s, double steal_s) {
    cpu_at_open_ += cpu_s;
    steal_at_open_ += steal_s;
  }
  // Adds another thread's latency samples, slice by slice.
  void MergeSamples(const SlicedRun& other);

  // Medians over the slices at least half a slice long.
  double RowsPerSecond() const;
  double CpuUsPerRow() const;
  double PercentileUs(Samples Slice::*series, double q) const;
  // Samples behind a latency figure, and slices behind every figure.
  uint64_t Count(Samples Slice::*series) const;
  size_t slices() const;
  // Steal over the whole window, in seconds.
  double steal_s() const;

 private:
  std::vector<const Slice*> Full() const;

  int64_t t0_;
  int64_t slice_ns_;
  std::vector<Slice> slices_;
  int64_t open_start_ns_;  // start of the interval not yet charged
  uint64_t rows_at_open_ = 0;
  double cpu_at_open_;
  double steal_at_open_;
};

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 1;
};

// Ordered name -> metric table.
class MetricTable {
 public:
  // Adds `name`, or replaces it when already present.
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  const std::vector<std::pair<std::string, Metric>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
};

// One benchmark-side span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // the workload operation this span belongs to
  uint32_t thread = 0;
};

// Per-thread span buffer. A workload thread owns one; the run collects
// them all when it ends. Null SpanLog pointers mean "untraced" and every
// helper below is then a no-op.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) { spans_.reserve(1 << 16); }

  // Opens a span under the innermost open span of this log.
  uint64_t Begin(const char* name, uint64_t op, int64_t start_ns);
  void End(uint64_t id, int64_t end_ns);
  // Records an already-finished span (e.g. an op timed from its due time).
  uint64_t Record(const char* name, uint64_t op, int64_t start_ns,
                  int64_t end_ns, uint64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of open spans
};

// RAII span; inert when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_ = 0;
};

// The end-to-end figures every workload reports from its sliced window:
// setup_s, rows_per_s, append_p50/p99_us, read_p50/p99_us, cpu_us_per_row.
void SetSlicedMetrics(const SlicedRun& run, double setup_s, size_t setups,
                      uint64_t rows, MetricTable* e2e);

// Owns every thread's SpanLog for one run. NewLog is called before the
// workload's threads start; each thread then writes only its own log.
class Tracer {
 public:
  SpanLog* NewLog();
  // Duration and self-time (duration minus the time child spans cover)
  // samples of every span named `name`.
  Samples Durations(const std::string& name) const;
  Samples SelfTimes(const std::string& name) const;
  size_t total_spans() const;
  // Writes every span as JSON to `path`.
  void Write(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// What a workload run hands back to main.
struct RunResult {
  MetricTable e2e;     // untraced end-to-end metrics (and report-only ones)
  MetricTable layers;  // per-layer metrics (traced run)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  // reference mismatches, invalid runs
  double cpu_us_per_row = 0;          // for obs.trace_cost

  // One reference comparison: counts as an attempted operation, and a
  // non-empty diff fails the run and counts as a failed one.
  void Expect(const std::string& what, const std::string& diff) {
    ++attempted;
    if (diff.empty()) return;
    ++failed;
    Invalid(what + ": " + diff);
  }
  // Marks the run as not reportable (a mismatch, or a generator that fell
  // behind its schedule).
  void Invalid(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  // Scratch root inside the checkout (WAL, segments, span dumps).
  std::string scratch;
  // wire_mixed schedule (rows/s over both append connections, lookups/s).
  double wire_append_rows_per_s = 0;
  double wire_sql_per_s = 0;
};

// Quantile of a program-side log2 histogram, interpolated inside the
// bucket; microseconds.
double HistQuantileUs(const chronicle::LatencyHistogram& hist, double q);

// Per-layer counts from the program's CollectStats() snapshot: views.*,
// exec.*, and shard.*/wal.*/store.*/req.* when those sections are
// attached. `family_of` maps view names to the family whose p50 they
// feed (views.<family>_p50_us).
void AddSnapshotLayers(const chronicle::obs::StatsSnapshot& snap,
                       uint64_t rows_appended,
                       const std::map<std::string, std::string>& family_of,
                       MetricTable* layers);

RunResult RunViewsLocal(const RunConfig& config, Tracer* tracer);
RunResult RunWireMixed(const RunConfig& config, Tracer* tracer);
RunResult RunShardsDurable(const RunConfig& config, Tracer* tracer);
// Closed-loop wire capacity (rows/s) used to size wire_mixed's rate.
double CalibrateWire(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
