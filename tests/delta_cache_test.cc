// Tests for the interpreter oracle's per-tick DeltaCache (DAG sharing
// across plans).

#include <gtest/gtest.h>

#include "oracle/delta_engine.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

AppendEvent Event(SeqNum sn, std::vector<Tuple> tuples) {
  AppendEvent event;
  event.sn = sn;
  event.chronon = static_cast<Chronon>(sn);
  event.inserts.emplace_back(0, std::move(tuples));
  return event;
}

Tuple Call(int64_t caller, const std::string& region, int64_t minutes) {
  return Tuple{Value(caller), Value(region), Value(minutes)};
}

TEST(DeltaCacheTest, SharedNodeComputedOncePerTick) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr filtered =
      CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(0)))).value();
  // Two plans sharing `filtered` as a subexpression.
  CaExprPtr plan_a = CaExpr::Project(filtered, {"caller"}).value();
  CaExprPtr plan_b = CaExpr::Project(filtered, {"region"}).value();

  DeltaEngine engine;
  DeltaCache cache;
  AppendEvent event = Event(1, {Call(1, "NJ", 5), Call(2, "NY", 7)});

  ASSERT_TRUE(engine.ComputeDelta(*plan_a, event, nullptr, &cache).ok());
  const uint64_t misses_after_a = cache.misses();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(misses_after_a, 3u);  // scan, select, project_a

  ASSERT_TRUE(engine.ComputeDelta(*plan_b, event, nullptr, &cache).ok());
  // plan_b re-used the select (the memo short-circuits at the highest
  // shared node, so the scan below it is not even consulted); only its own
  // projection was computed.
  EXPECT_EQ(cache.misses(), misses_after_a + 1);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DeltaCacheTest, RepeatedPlanIsFullyCached) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr plan =
      CaExpr::GroupBySeq(scan, {"region"}, {AggSpec::Sum("minutes", "m")})
          .value();
  DeltaEngine engine;
  DeltaCache cache;
  AppendEvent event = Event(1, {Call(1, "NJ", 5)});
  auto first = engine.ComputeDelta(*plan, event, nullptr, &cache).value();
  auto second = engine.ComputeDelta(*plan, event, nullptr, &cache).value();
  EXPECT_EQ(first.size(), second.size());
  // One hit: the root short-circuits, children are never re-visited.
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DeltaCacheTest, ClearResetsMemoButKeepsCounters) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  DeltaEngine engine;
  DeltaCache cache;
  ASSERT_TRUE(
      engine.ComputeDelta(*scan, Event(1, {Call(1, "NJ", 5)}), nullptr, &cache)
          .ok());
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  // A new tick recomputes rather than serving stale data.
  auto delta = engine
                   .ComputeDelta(*scan, Event(2, {Call(9, "TX", 1)}), nullptr,
                                 &cache)
                   .value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values[0], Value(9));
}

TEST(DeltaCacheTest, StaleCacheWouldServeOldTick) {
  // Documented sharp edge: a cache is only valid for one event. This test
  // pins the contract (callers clear it per append).
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  DeltaEngine engine;
  DeltaCache cache;
  ASSERT_TRUE(
      engine.ComputeDelta(*scan, Event(1, {Call(1, "NJ", 5)}), nullptr, &cache)
          .ok());
  // WITHOUT clearing, the next event gets tick 1's payloads.
  auto stale = engine
                   .ComputeDelta(*scan, Event(2, {Call(9, "TX", 1)}), nullptr,
                                 &cache)
                   .value();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].values[0], Value(1));  // tick 1's row, as specified
}

}  // namespace
}  // namespace chronicle
