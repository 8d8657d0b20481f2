// Per-layer counts read from the program's own CollectStats() snapshot at
// the end of a traced run.

#include <algorithm>

#include "harness.h"
#include "obs/stats.h"

namespace perfbench {

using chronicle::LatencyHistogram;

double HistQuantileUs(const LatencyHistogram& hist, double q) {
  if (hist.count() == 0) return 0;
  const double target = q * static_cast<double>(hist.count());
  double seen = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const double in_bucket = static_cast<double>(hist.bucket(b));
    if (in_bucket > 0 && seen + in_bucket >= target) {
      // Interpolate linearly inside the log2 bucket, clamped to the
      // observed range, so the figure is not stuck on a power of two.
      double lo = b == 0 ? 0.0
                         : static_cast<double>(
                               LatencyHistogram::BucketUpperBound(b - 1));
      double hi = static_cast<double>(LatencyHistogram::BucketUpperBound(b));
      lo = std::max(lo, static_cast<double>(hist.MinNanos()));
      hi = std::min(hi, static_cast<double>(hist.MaxNanos()));
      if (hi < lo) hi = lo;
      const double frac = (target - seen) / in_bucket;
      return (lo + (hi - lo) * frac) / 1e3;
    }
    seen += in_bucket;
  }
  return static_cast<double>(hist.MaxNanos()) / 1e3;
}

void AddSnapshotLayers(const chronicle::obs::StatsSnapshot& snap,
                       uint64_t rows_appended,
                       const std::map<std::string, std::string>& family_of,
                       MetricTable* layers) {
  // --- views / exec: per-view counters, summed over views ---
  uint64_t ticks = 0, updates = 0, delta_rows = 0, lookups = 0;
  uint64_t compiled = 0, interpreted = 0, arena_hwm = 0, max_rows = 0;
  std::map<std::string, LatencyHistogram> families;
  for (const auto& view : snap.views) {
    ticks += view.stats.ticks;
    updates += view.stats.updates;
    delta_rows += view.stats.delta_rows;
    lookups += view.stats.relation_lookups;
    compiled += view.stats.compiled_ticks;
    interpreted += view.stats.interpreted_ticks;
    arena_hwm = std::max(arena_hwm, view.stats.arena_hwm_bytes);
    max_rows = std::max(max_rows, view.stats.max_intermediate_rows);
    auto family = family_of.find(view.name);
    if (view.profiled && family != family_of.end()) {
      families[family->second].Merge(view.latency);
    }
  }
  const double appends =
      static_cast<double>(std::max<uint64_t>(snap.appends_processed, 1));
  layers->Set("views.ticks_per_append", static_cast<double>(ticks) / appends,
              "count", snap.appends_processed);
  layers->Set("views.useful_ratio",
              ticks == 0 ? 0 : static_cast<double>(updates) / ticks, "ratio",
              ticks);
  layers->Set("views.delta_rows_per_append",
              static_cast<double>(delta_rows) / appends, "count",
              snap.appends_processed);
  layers->Set("views.relation_lookups_per_append",
              static_cast<double>(lookups) / appends, "count",
              snap.appends_processed);
  layers->Set("views.compiled_ratio",
              compiled + interpreted == 0
                  ? 0
                  : static_cast<double>(compiled) / (compiled + interpreted),
              "ratio", compiled + interpreted);
  for (const auto& [family, hist] : families) {
    layers->Set("views." + family + "_p50_us", HistQuantileUs(hist, 0.5), "us",
                hist.count());
  }
  layers->Set("exec.arena_hwm_bytes", static_cast<double>(arena_hwm), "B");
  layers->Set("exec.max_intermediate_rows", static_cast<double>(max_rows),
              "count");

  const double rows =
      static_cast<double>(std::max<uint64_t>(rows_appended, 1));

  // --- shard ---
  if (snap.sharding.attached && !snap.sharding.shards.empty()) {
    uint64_t max_routed = 0, sum_routed = 0;
    LatencyHistogram tick;
    for (const auto& shard : snap.sharding.shards) {
      max_routed = std::max(max_routed, shard.routed_rows);
      sum_routed += shard.routed_rows;
      if (shard.tick_latency_populated) tick.Merge(shard.tick_latency);
    }
    const double mean = static_cast<double>(sum_routed) /
                        static_cast<double>(snap.sharding.shards.size());
    layers->Set("shard.skew", mean == 0 ? 0 : max_routed / mean, "ratio",
                snap.sharding.shards.size());
    layers->Set("shard.tick_p50_us", HistQuantileUs(tick, 0.5), "us",
                tick.count());
  }

  // --- wal ---
  if (snap.wal.attached) {
    layers->Set("wal.bytes_per_row",
                static_cast<double>(snap.wal.bytes_logged) / rows, "B",
                rows_appended);
    layers->Set("wal.syncs", static_cast<double>(snap.wal.syncs), "count");
    layers->Set("wal.fsync_p99_us", HistQuantileUs(snap.wal.fsync_latency, 0.99),
                "us", snap.wal.fsync_latency.count());
  }

  // --- store ---
  if (snap.storage.attached) {
    layers->Set("store.segments_sealed",
                static_cast<double>(snap.storage.segments_sealed), "count");
    layers->Set("store.bytes_per_row",
                static_cast<double>(snap.storage.bytes_written) / rows, "B",
                rows_appended);
    layers->Set("store.seal_failures",
                static_cast<double>(snap.storage.seal_failures), "count");
  }

  // --- obs: the request tracer's per-stage histograms ---
  if (snap.req.attached && snap.req.sampled_requests > 0) {
    for (const auto& stage : snap.req.stages) {
      layers->Set("req." + stage.stage + "_p50_us",
                  HistQuantileUs(stage.latency, 0.5), "us",
                  stage.latency.count());
    }
  }
}

}  // namespace perfbench
