#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

void WaitUntilNs(int64_t deadline_ns) {
  // About as late as a timer wake-up usually runs on a virtual machine.
  constexpr int64_t kSpinNs = 100000;
  if (deadline_ns - NowNs() > kSpinNs) SleepUntilNs(deadline_ns - kSpinNs);
  while (NowNs() < deadline_ns) {
  }
}

void PreciseTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double StealSeconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(stat);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void FreshDir(const std::string& dir) {
  RemoveDir(dir);
  fs::create_directories(dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void Check(const chronicle::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

// --- Samples ---

void Samples::Append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  sorted_ = false;
}

double Samples::PercentileUs(double q) const {
  if (ns_.empty()) return 0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(ns_.size()));
  if (rank >= ns_.size()) rank = ns_.size() - 1;
  return static_cast<double>(ns_[rank]) / 1e3;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- SlicedRun ---

SlicedRun::SlicedRun(int64_t t0, int64_t slice_ns)
    : t0_(t0),
      slice_ns_(slice_ns),
      open_start_ns_(t0),
      cpu_at_open_(ProcessCpuSeconds()),
      steal_at_open_(StealSeconds()) {}

Slice& SlicedRun::At(int64_t at_ns) {
  const size_t i =
      at_ns <= t0_ ? 0 : static_cast<size_t>((at_ns - t0_) / slice_ns_);
  if (i >= slices_.size()) slices_.resize(i + 1);
  return slices_[i];
}

void SlicedRun::Finish(int64_t end_ns, uint64_t rows_total) {
  const double cpu = ProcessCpuSeconds();
  const double steal = StealSeconds();
  Slice& slice = At(open_start_ns_);
  slice.rows += rows_total - rows_at_open_;
  slice.cpu_s += cpu - cpu_at_open_;
  slice.steal_s += steal - steal_at_open_;
  steal_at_open_ = steal;
  slice.seconds += static_cast<double>(end_ns - open_start_ns_) / 1e9;
  rows_at_open_ = rows_total;
  cpu_at_open_ = cpu;
  open_start_ns_ = end_ns;
}

void SlicedRun::Mark(int64_t now_ns, uint64_t rows_total) {
  const int64_t open_slice = (open_start_ns_ - t0_) / slice_ns_;
  if (now_ns >= t0_ + (open_slice + 1) * slice_ns_) Finish(now_ns, rows_total);
}

void SlicedRun::MergeSamples(const SlicedRun& other) {
  if (other.slices_.size() > slices_.size()) slices_.resize(other.slices_.size());
  for (size_t i = 0; i < other.slices_.size(); ++i) {
    slices_[i].append.Append(other.slices_[i].append);
    slices_[i].read.Append(other.slices_[i].read);
  }
}

std::vector<const Slice*> SlicedRun::Full() const {
  std::vector<const Slice*> out;
  const double half = static_cast<double>(slice_ns_) / 2e9;
  for (const Slice& slice : slices_) {
    if (slice.seconds >= half) out.push_back(&slice);
  }
  return out;
}

double SlicedRun::steal_s() const {
  double total = 0;
  for (const Slice& slice : slices_) total += slice.steal_s;
  return total;
}

double SlicedRun::RowsPerSecond() const {
  std::vector<double> v;
  for (const Slice* s : Full()) v.push_back(static_cast<double>(s->rows) / s->seconds);
  return Median(v);
}

double SlicedRun::CpuUsPerRow() const {
  std::vector<double> v;
  for (const Slice* s : Full()) {
    if (s->rows > 0) v.push_back(s->cpu_s * 1e6 / static_cast<double>(s->rows));
  }
  return Median(v);
}

double SlicedRun::PercentileUs(Samples Slice::*series, double q) const {
  std::vector<double> v;
  for (const Slice* s : Full()) {
    if ((s->*series).count() > 0) v.push_back((s->*series).PercentileUs(q));
  }
  return Median(v);
}

uint64_t SlicedRun::Count(Samples Slice::*series) const {
  uint64_t n = 0;
  for (const Slice* s : Full()) n += (s->*series).count();
  return n;
}

size_t SlicedRun::slices() const { return Full().size(); }

void SetSlicedMetrics(const SlicedRun& run, double setup_s, size_t setups,
                      uint64_t rows, MetricTable* e2e) {
  const uint64_t appends = run.Count(&Slice::append);
  const uint64_t reads = run.Count(&Slice::read);
  e2e->Set("setup_s", setup_s, "s", setups);
  e2e->Set("rows_per_s", run.RowsPerSecond(), "rows/s", rows);
  e2e->Set("append_p50_us", run.PercentileUs(&Slice::append, 0.5), "us", appends);
  e2e->Set("append_p90_us", run.PercentileUs(&Slice::append, 0.9), "us", appends);
  e2e->Set("append_p99_us", run.PercentileUs(&Slice::append, 0.99), "us", appends);
  e2e->Set("read_p50_us", run.PercentileUs(&Slice::read, 0.5), "us", reads);
  e2e->Set("read_p90_us", run.PercentileUs(&Slice::read, 0.9), "us", reads);
  e2e->Set("read_p99_us", run.PercentileUs(&Slice::read, 0.99), "us", reads);
  e2e->Set("cpu_us_per_row", run.CpuUsPerRow(), "us", rows);
  e2e->Set("slices", static_cast<double>(run.slices()), "count");
  e2e->Set("window_steal_s", run.steal_s(), "s");
}

// --- MetricTable ---

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  for (auto& [n, m] : entries_) {
    if (n == name) {
      m = Metric{value, unit, samples};
      return;
    }
  }
  entries_.emplace_back(name, Metric{value, unit, samples});
}

// --- spans ---

uint64_t SpanLog::Begin(const char* name, uint64_t op, int64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.op = op;
  span.thread = thread_;
  open_.push_back(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void SpanLog::End(uint64_t id, int64_t end_ns) {
  // Spans close innermost-first; the id check guards against misuse.
  if (open_.empty() || spans_[open_.back()].id != id) return;
  spans_[open_.back()].end_ns = end_ns;
  open_.pop_back();
}

uint64_t SpanLog::Record(const char* name, uint64_t op, int64_t start_ns,
                         int64_t end_ns, uint64_t parent) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id_++;
  span.parent = parent;
  span.op = op;
  span.thread = thread_;
  spans_.push_back(span);
  return span.id;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t op)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->Begin(name, op, NowNs());
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->End(id_, NowNs());
}

SpanLog* Tracer::NewLog() {
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<uint32_t>(logs_.size())));
  return logs_.back().get();
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const auto& log : logs_) {
    for (const Span& span : log->spans()) {
      if (name == span.name) out.Add(span.end_ns - span.start_ns);
    }
  }
  return out;
}

Samples Tracer::SelfTimes(const std::string& name) const {
  Samples out;
  for (const auto& log : logs_) {
    // Children of one span run on the same thread, one after another, so
    // the time they cover is the sum of their durations.
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span& span : log->spans()) {
      if (span.parent != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (const Span& span : log->spans()) {
      if (name != span.name) continue;
      auto it = child_ns.find(span.id);
      const int64_t covered = it == child_ns.end() ? 0 : it->second;
      out.Add(span.end_ns - span.start_ns - covered);
    }
  }
  return out;
}

size_t Tracer::total_spans() const {
  size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

void Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "[\n");
  bool first = true;
  for (const auto& log : logs_) {
    for (const Span& span : log->spans()) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"thread\":%u}",
                   first ? "" : ",\n", span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.op), span.thread);
      first = false;
    }
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
}

}  // namespace perfbench
