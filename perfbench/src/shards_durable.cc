// shards_durable: closed loop, library embedding, one producer thread.
// shard::ShardedDatabase runs two shards, each with its own WAL (default
// group commit) and a tiered chronicle spilling sealed segments into the
// run's scratch data_dir. The producer feeds the async pipeline
// (StartIngest / EnqueueAppend / Flush) in slabs; after each slab it runs a
// merged ScanView and aligned QueryView lookups. The shard router and
// lanes, the WAL, segment sealing and recovery do most of the work; the
// one view is cheap. This is the only workload that reaches the SPSC
// pipeline.
//
// The run is a sequence of epochs of kEpochSlabs slabs on a fresh database,
// so disk use and recovery time stay bounded however fast ingest gets.
// After the last epoch the database is stopped, closed, reopened and
// recovered from its WAL (several times; recover_s is the median), and the
// recovered state must equal the state before the restart.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cql/session.h"
#include "harness.h"
#include "obs/stats.h"
#include "reference.h"
#include "shard/sharded_db.h"
#include "views/summary_spec.h"
#include "workload/call_records.h"

namespace perfbench {
namespace {

using chronicle::AggSpec;
using chronicle::CallRecordGenerator;
using chronicle::CallRecordOptions;
using chronicle::ChronicleDatabase;
using chronicle::DatabaseOptions;
using chronicle::RetentionPolicy;
using chronicle::SummarySpec;
using chronicle::Tuple;
using chronicle::shard::ShardedDatabase;

// Idle shard workers spin on yield, so each shard keeps a vCPU busy; two
// workers and the producer leave one of four for the kernel's I/O.
constexpr size_t kShards = 2;
constexpr size_t kTickRows = 256;
constexpr size_t kSlabTicks = 64;     // ticks enqueued between two Flushes
constexpr size_t kEpochSlabs = 32;    // slabs per database lifetime
constexpr size_t kPoolTicks = 1024;   // ticks cycle through this pool
constexpr size_t kLookupsPerSlab = 8;
constexpr uint64_t kDepthSampleEvery = 16;  // traced: slabs per lane-depth sample
constexpr size_t kHotRows = 4096;     // RetentionPolicy::Tiered hot window
constexpr int kSetups = 5;
constexpr int kRecoveries = 3;

struct Inputs {
  std::vector<std::vector<Tuple>> ticks;
  std::vector<Tuple> lookup_keys;
};

Inputs MakeInputs(uint64_t seed) {
  CallRecordOptions options;
  options.seed = seed;
  CallRecordGenerator gen(options);
  Inputs in;
  for (size_t t = 0; t < kPoolTicks; ++t) {
    in.ticks.push_back(gen.NextBatch(kTickRows));
    in.lookup_keys.push_back(Tuple{in.ticks.back()[0][0]});
  }
  return in;
}

DatabaseOptions Options(const std::string& dir, bool traced) {
  DatabaseOptions options;  // default ObservabilityOptions: metrics on
  options.sharding.num_shards = kShards;
  options.sharding.wal_dir = dir + "/wal";
  options.storage.data_dir = dir + "/data";
  if (traced) options.set_profile_view_latency(true);
  return options;
}

// Open + DDL; WALs not yet attached (recovery must run first).
std::unique_ptr<ShardedDatabase> OpenWithDdl(const std::string& dir,
                                             bool traced) {
  auto db = Unwrap(ShardedDatabase::Open(Options(dir, traced)),
                   "ShardedDatabase::Open");
  Check(db->CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                            RetentionPolicy::Tiered(kHotRows))
            .status(),
        "CreateChronicle");
  // Grouped on the partition column, so the view is aligned: each group
  // lives on one shard and QueryView goes straight to it.
  Check(db->CreateView(
              "by_caller",
              [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
              Unwrap(SummarySpec::GroupBy(
                         CallRecordGenerator::RecordSchema(), {"caller"},
                         {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}),
                     "GroupBy"))
            .status(),
        "CreateView");
  return db;
}

std::unique_ptr<ShardedDatabase> OpenFresh(const std::string& dir, bool traced) {
  FreshDir(dir);
  auto db = OpenWithDdl(dir, traced);
  Check(db->AttachWals(), "AttachWals");
  Check(db->StartIngest(1), "StartIngest");
  return db;
}

// Virtual clock of the timed window: ingest and reads advance it, epoch
// turnovers do not.
struct Window {
  SlicedRun run{0, kSliceNs};
  int64_t offset_ns = 0;  // add to NowNs() for window time
  int64_t Now() const { return NowNs() + offset_ns; }
};

struct Counts {
  uint64_t attempted = 0, failed = 0, queue_depth_max = 0;
};

// One slab: kSlabTicks ticks starting at `tick`, then the reads. `window`
// null (warm-up) records no timings.
void RunSlab(ShardedDatabase* db, const Inputs& in, uint64_t tick,
             Window* window, SpanLog* spans, Counts* counts) {
  const uint64_t op = tick / kSlabTicks;
  // EnqueueAppend takes its rows by value; copy them out of the pool
  // before the slab's clock starts.
  std::vector<std::vector<Tuple>> slab(kSlabTicks);
  for (size_t t = 0; t < kSlabTicks; ++t) slab[t] = in.ticks[(tick + t) % kPoolTicks];
  {
    ScopedSpan slab_span(spans, "slab", op);
    const int64_t start = window != nullptr ? window->Now() : 0;
    for (std::vector<Tuple>& batch : slab) {
      ScopedSpan span(spans, "shard.enqueue", op);
      ++counts->attempted;
      if (!db->EnqueueAppend(0, "calls", std::move(batch)).ok()) ++counts->failed;
    }
    if (spans != nullptr && op % kDepthSampleEvery == 0) {
      // CollectStats costs milliseconds, so lane depth is sampled on a
      // fraction of slabs, under its own span.
      ScopedSpan sample(spans, "bench.collect_stats", op);
      for (const auto& shard : db->CollectStats().sharding.shards) {
        counts->queue_depth_max = std::max(counts->queue_depth_max, shard.queue_depth);
      }
    }
    {
      ScopedSpan span(spans, "shard.flush", op);
      ++counts->attempted;
      if (!db->Flush().ok()) ++counts->failed;
    }
    if (window != nullptr) {
      window->run.At(start).append.Add(window->Now() - start);
    }
  }
  ScopedSpan read_span(spans, "reads", op);
  {
    ScopedSpan span(spans, "shard.scan", op);
    const int64_t start = window != nullptr ? window->Now() : 0;
    auto rows = db->ScanView("by_caller");
    if (window != nullptr) window->run.At(start).read.Add(window->Now() - start);
    ++counts->attempted;
    if (!rows.ok() || rows->empty()) ++counts->failed;
  }
  for (size_t q = 0; q < kLookupsPerSlab; ++q) {
    const Tuple& key = in.lookup_keys[(op * kLookupsPerSlab + q) % kPoolTicks];
    ScopedSpan span(spans, "shard.query", op);
    const int64_t start = window != nullptr ? window->Now() : 0;
    auto row = db->QueryView("by_caller", key);
    if (window != nullptr) window->run.At(start).read.Add(window->Now() - start);
    ++counts->attempted;
    // Keys come from ticks already in the pool; the first ones may not be
    // ingested yet in this epoch, so only errors other than NotFound count.
    if (!row.ok() && !row.status().IsNotFound()) ++counts->failed;
  }
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return chronicle::TupleCompare(a, b) < 0;
  });
  return rows;
}

}  // namespace

RunResult RunShardsDurable(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  const bool traced = tracer != nullptr;
  const std::string dir = config.scratch + "/shards";

  // --- set-up (input generation, open, DDL, WAL attach, warm-up slab),
  // repeated; the last one is kept ---
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<ShardedDatabase> db;
  Counts counts;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    const int64_t start = NowNs();
    in = MakeInputs(config.seed);
    db = OpenFresh(dir, traced);
    RunSlab(db.get(), in, 0, nullptr, nullptr, &counts);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  // --- timed closed loop, epoch by epoch; the window covers ingest and
  // reads only, not the epoch turnover ---
  SpanLog* spans = traced ? tracer->NewLog() : nullptr;
  Window window;
  const int64_t budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  uint64_t epoch_tick = kSlabTicks;  // the warm-up slab opened epoch 1
  uint64_t rows = 0;
  int64_t resume_at = 0;  // window time where the next epoch starts
  for (;;) {
    window.offset_ns = resume_at - NowNs();
    while (epoch_tick < kEpochSlabs * kSlabTicks) {
      RunSlab(db.get(), in, epoch_tick, &window, spans, &counts);
      epoch_tick += kSlabTicks;
      rows += kSlabTicks * kTickRows;
      window.run.Mark(window.Now(), rows);
    }
    const int64_t epoch_end = window.Now();
    const double cpu_turnover = ProcessCpuSeconds();
    const double steal_turnover = StealSeconds();
    Check(db->StopIngest(), "StopIngest");
    SumCountRecompute recompute(0, 2);
    for (uint64_t t = 0; t < epoch_tick; ++t) recompute.Add(in.ticks[t % kPoolTicks]);
    result.Expect("shards_durable recompute by_caller",
                  recompute.Diff(Unwrap(db->ScanView("by_caller"), "ScanView")));
    if (epoch_end >= budget_ns) {
      window.run.Finish(epoch_end, rows);
      break;
    }
    // Next epoch on a fresh database, off the clock.
    Check(db->CloseWals(), "CloseWals");
    db.reset();
    db = OpenFresh(dir, traced);
    epoch_tick = 0;
    window.run.SkipOffClock(ProcessCpuSeconds() - cpu_turnover,
                            StealSeconds() - steal_turnover);
    resume_at = epoch_end;
  }
  const double peak_rss = PeakRssMb();
  const chronicle::obs::StatsSnapshot snap = db->CollectStats();
  const uint64_t epoch_rows = epoch_tick * kTickRows;

  // --- restart: close, reopen, recover; state must survive ---
  const std::vector<Tuple> before = Sorted(Unwrap(db->ScanView("by_caller"), "ScanView"));
  Check(db->CloseWals(), "CloseWals");
  db.reset();
  const double disk_bytes = static_cast<double>(DirBytes(dir));
  std::vector<double> recover_s;
  uint64_t recover_records = 0;
  for (int i = 0; i < kRecoveries; ++i) {
    const int64_t start = NowNs();
    auto reopened = OpenWithDdl(dir, traced);
    auto reports = Unwrap(reopened->RecoverFromWal(), "RecoverFromWal");
    std::vector<Tuple> after = Unwrap(reopened->ScanView("by_caller"), "ScanView");
    recover_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    recover_records = 0;
    for (const auto& report : reports) recover_records += report.replay.records_applied;
    result.Expect("shards_durable recovered by_caller",
                  DiffRows(Sorted(std::move(after)), before));
  }

  // --- reference: the last epoch's ticks on an unsharded session ---
  {
    DatabaseOptions options;
    options.set_metrics(false);
    auto reference = Unwrap(chronicle::cql::Session::Open(std::move(options)),
                            "Session::Open");
    Check(reference
              ->ExecuteScript(
                  "CREATE CHRONICLE calls (caller INT64, region STRING, "
                  "minutes INT64, charge DOUBLE) RETAIN NONE;"
                  "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, "
                  "COUNT(*) AS n FROM calls GROUP BY caller;")
              .status(),
          "reference DDL");
    for (uint64_t t = 0; t < epoch_tick; ++t) {
      Check(reference->AppendRows("calls", {in.ticks[t % kPoolTicks]}).status(),
            "reference append");
    }
    result.Expect("shards_durable by_caller",
                  DiffRows(before, DumpView(*reference->db(), {"by_caller"})));
  }
  RemoveDir(dir);

  result.attempted += counts.attempted;
  result.failed += counts.failed;
  result.cpu_us_per_row = window.run.CpuUsPerRow();
  MetricTable& e = result.e2e;
  // An "append" here is one slab: enqueue, then Flush until every shard
  // has applied it and the view is current.
  SetSlicedMetrics(window.run, Median(setup_s), setup_s.size(), rows, &e);
  e.Set("peak_rss_mb", peak_rss, "MiB");
  e.Set("recover_s", Median(recover_s), "s", recover_s.size());
  e.Set("disk_bytes_per_row", disk_bytes / static_cast<double>(epoch_rows), "B",
        epoch_rows);

  if (traced) {
    AddSnapshotLayers(snap, epoch_rows, {{"by_caller", "groupby"}}, &result.layers);
    MetricTable& l = result.layers;
    const Samples enqueue = tracer->Durations("shard.enqueue");
    const Samples flush = tracer->Durations("shard.flush");
    const Samples scan = tracer->Durations("shard.scan");
    const Samples query = tracer->Durations("shard.query");
    l.Set("shard.enqueue_p50_us", enqueue.PercentileUs(0.5), "us", enqueue.count());
    l.Set("shard.enqueue_p99_us", enqueue.PercentileUs(0.99), "us", enqueue.count());
    l.Set("shard.flush_ms", flush.PercentileUs(0.5) / 1e3, "ms", flush.count());
    l.Set("shard.queue_depth_max", static_cast<double>(counts.queue_depth_max),
          "count");
    l.Set("shard.scan_us", scan.PercentileUs(0.5), "us", scan.count());
    l.Set("shard.query_us", query.PercentileUs(0.5), "us", query.count());
    l.Set("wal.recover_records", static_cast<double>(recover_records), "count");
    const Samples slab_self = tracer->SelfTimes("slab");
    l.Set("bench.slab_self_us", slab_self.PercentileUs(0.5), "us",
          slab_self.count());
  }
  return result;
}

}  // namespace perfbench
