// Exporter fuzz: randomized StatsSnapshots — hostile view names (quotes,
// backslashes, control bytes, non-ASCII), extreme counter values, random
// histograms — rendered through RenderJson must always satisfy the
// RFC 8259 grammar (ValidateJson), and the other renderers must at least
// not crash. Seeded via CHRONICLE_FUZZ_SEED (common/random.h FuzzSeed) so
// CI explores a fresh corner every run and failures replay locally.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/export.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace chronicle {
namespace obs {
namespace {

std::string RandomName(Rng* rng) {
  // Half the time a plausible identifier, half the time byte soup that
  // stresses every escape path in the exporters.
  const size_t len = rng->Uniform(24) + 1;
  std::string out;
  out.reserve(len);
  const bool hostile = rng->Uniform(2) == 0;
  for (size_t i = 0; i < len; ++i) {
    if (hostile) {
      out.push_back(static_cast<char>(rng->Uniform(256)));
    } else {
      static const char kAlphabet[] =
          "abcdefghijklmnopqrstuvwxyz_0123456789\"\\\n\t/";
      out.push_back(kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)]);
    }
  }
  return out;
}

uint64_t RandomCount(Rng* rng) {
  // Mix small values with extremes: uint64 max exercises the widest
  // integer rendering.
  switch (rng->Uniform(4)) {
    case 0:
      return 0;
    case 1:
      return rng->Uniform(1000);
    case 2:
      return rng->Uniform(std::numeric_limits<uint64_t>::max());
    default:
      return std::numeric_limits<uint64_t>::max();
  }
}

LatencyHistogram RandomHistogram(Rng* rng) {
  LatencyHistogram h;
  const size_t samples = rng->Uniform(20);
  for (size_t i = 0; i < samples; ++i) {
    // Spread across the full bucket range, including the clamp-to-zero
    // path for negative inputs.
    h.Record(rng->UniformInt(-10, 1) < 0
                 ? -1
                 : static_cast<int64_t>(rng->Uniform(1ull << 40)));
  }
  return h;
}

StatsSnapshot RandomSnapshot(Rng* rng) {
  StatsSnapshot snap;
  snap.appends_processed = RandomCount(rng);
  snap.live_views = rng->Uniform(10);
  snap.trace_emitted = RandomCount(rng);
  snap.trace_capacity = rng->Uniform(1024);

  const size_t metrics = rng->Uniform(6);
  for (size_t i = 0; i < metrics; ++i) {
    MetricSample m;
    m.name = RandomName(rng);
    m.help = RandomName(rng);
    m.is_histogram = rng->Uniform(2) == 0;
    if (m.is_histogram) {
      m.histogram = RandomHistogram(rng);
    } else {
      m.value = RandomCount(rng);
    }
    snap.metrics.push_back(std::move(m));
  }

  const size_t views = rng->Uniform(5);
  for (size_t i = 0; i < views; ++i) {
    ViewStatsSnapshot v;
    v.name = RandomName(rng);
    v.stats.ticks = RandomCount(rng);
    v.stats.updates = RandomCount(rng);
    v.stats.delta_rows = RandomCount(rng);
    v.stats.compiled_ticks = RandomCount(rng);
    v.stats.relation_lookups = RandomCount(rng);
    v.stats.max_intermediate_rows = RandomCount(rng);
    v.stats.plan_slots = static_cast<uint32_t>(rng->Uniform(64));
    v.stats.arena_hwm_bytes = RandomCount(rng);
    v.stats.max_dedupe_load = rng->NextDouble();
    v.profiled = rng->Uniform(2) == 0;
    if (v.profiled) v.latency = RandomHistogram(rng);
    snap.views.push_back(std::move(v));
  }

  if (rng->Uniform(2) == 0) {
    snap.wal.attached = true;
    snap.wal.records_logged = RandomCount(rng);
    snap.wal.bytes_logged = RandomCount(rng);
    snap.wal.syncs = RandomCount(rng);
    snap.wal.segments_created = RandomCount(rng);
    snap.wal.segments_removed = RandomCount(rng);
    snap.wal.checkpoints_written = RandomCount(rng);
    snap.wal.group_commits = RandomCount(rng);
    snap.wal.group_commit_ticks = RandomCount(rng);
    snap.wal.fsync_latency = RandomHistogram(rng);
    snap.wal.recovered = rng->Uniform(2) == 0;
    snap.wal.recovery_records_applied = RandomCount(rng);
    snap.wal.recovery_records_skipped = RandomCount(rng);
  }
  return snap;
}

TEST(ObsExportFuzzTest, RenderJsonAlwaysValidates) {
  const uint64_t seed = FuzzSeed(90210);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    StatsSnapshot snap = RandomSnapshot(&rng);
    const std::string json = RenderJson(snap);
    Status st = ValidateJson(json);
    ASSERT_TRUE(st.ok()) << "trial " << trial << ": " << st.ToString()
                         << "\n"
                         << json;
  }
}

TEST(ObsExportFuzzTest, OtherRenderersNeverCrash) {
  const uint64_t seed = FuzzSeed(777);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    StatsSnapshot snap = RandomSnapshot(&rng);
    EXPECT_FALSE(RenderText(snap).empty());
    EXPECT_FALSE(RenderPrometheus(snap).empty());

    std::vector<TraceSpan> spans;
    const size_t n = rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      TraceSpan span;
      span.seq = i;
      span.kind = static_cast<SpanKind>(rng.Uniform(5));
      span.worker = static_cast<uint16_t>(rng.Uniform(16));
      span.sn = RandomCount(&rng);
      span.start_ns = static_cast<int64_t>(rng.Uniform(1ull << 40));
      span.duration_ns = static_cast<int64_t>(rng.Uniform(1ull << 30));
      spans.push_back(span);
    }
    EXPECT_FALSE(RenderTraceText(spans, n, 8).empty());
  }
}

TEST(ObsExportFuzzTest, ValidateJsonAgreesWithMutations) {
  // Mutating one byte of valid JSON output must never make the validator
  // crash or loop; it may still accept (many mutations stay valid).
  const uint64_t seed = FuzzSeed(5150);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  StatsSnapshot snap = RandomSnapshot(&rng);
  const std::string json = RenderJson(snap);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = json;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    ValidateJson(mutated).ok();  // must terminate without crashing
  }
}

}  // namespace
}  // namespace obs
}  // namespace chronicle
