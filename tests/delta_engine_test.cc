#include "oracle/delta_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/relation.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema CustSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

CaExprPtr ScanCalls() { return CaExpr::Scan(0, "calls", CallSchema()).value(); }

Tuple Call(int64_t caller, const std::string& region, int64_t minutes) {
  return Tuple{Value(caller), Value(region), Value(minutes)};
}

AppendEvent Event(SeqNum sn, std::vector<Tuple> tuples, ChronicleId id = 0,
                  Chronon chronon = 0) {
  AppendEvent event;
  event.sn = sn;
  event.chronon = chronon == 0 ? static_cast<Chronon>(sn) : chronon;
  event.inserts.emplace_back(id, std::move(tuples));
  return event;
}

std::vector<Tuple> Payloads(const std::vector<ChronicleRow>& rows) {
  std::vector<Tuple> out;
  for (const ChronicleRow& row : rows) out.push_back(row.values);
  std::sort(out.begin(), out.end(),
            [](const Tuple& a, const Tuple& b) { return TupleCompare(a, b) < 0; });
  return out;
}

TEST(DeltaEngineTest, ScanPassesThroughAppendedTuples) {
  DeltaEngine engine;
  auto delta =
      engine.ComputeDelta(*ScanCalls(), Event(5, {Call(1, "NJ", 10)})).value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].sn, 5u);
  EXPECT_EQ(delta[0].values, Call(1, "NJ", 10));
}

TEST(DeltaEngineTest, ScanIgnoresOtherChronicles) {
  DeltaEngine engine;
  auto delta = engine
                   .ComputeDelta(*ScanCalls(),
                                 Event(5, {Call(1, "NJ", 10)}, /*id=*/3))
                   .value();
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaEngineTest, ScanDeduplicatesWithinTick) {
  // Set semantics: the same (sn, payload) row appears once.
  DeltaEngine engine;
  auto delta = engine
                   .ComputeDelta(*ScanCalls(),
                                 Event(5, {Call(1, "NJ", 10), Call(1, "NJ", 10),
                                           Call(2, "NY", 3)}))
                   .value();
  EXPECT_EQ(delta.size(), 2u);
}

TEST(DeltaEngineTest, SelectFiltersByPredicate) {
  DeltaEngine engine;
  CaExprPtr plan =
      CaExpr::Select(ScanCalls(), Ge(Col("minutes"), Lit(Value(10)))).value();
  auto delta =
      engine
          .ComputeDelta(*plan, Event(5, {Call(1, "NJ", 10), Call(2, "NY", 3)}))
          .value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values[0], Value(1));
}

TEST(DeltaEngineTest, SelectOnSeqNum) {
  DeltaEngine engine;
  CaExprPtr plan =
      CaExpr::Select(ScanCalls(), Ge(ScalarExpr::SeqNumRef(), Lit(Value(100))))
          .value();
  EXPECT_TRUE(
      engine.ComputeDelta(*plan, Event(99, {Call(1, "NJ", 1)})).value().empty());
  EXPECT_EQ(
      engine.ComputeDelta(*plan, Event(100, {Call(1, "NJ", 1)})).value().size(),
      1u);
}

TEST(DeltaEngineTest, ProjectMapsAndDedupes) {
  DeltaEngine engine;
  CaExprPtr plan = CaExpr::Project(ScanCalls(), {"region"}).value();
  auto delta = engine
                   .ComputeDelta(*plan, Event(7, {Call(1, "NJ", 10),
                                                  Call(2, "NJ", 20),
                                                  Call(3, "NY", 5)}))
                   .value();
  EXPECT_EQ(delta.size(), 2u);  // NJ collapses
}

TEST(DeltaEngineTest, UnionDedupesAcrossBranches) {
  DeltaEngine engine;
  CaExprPtr scan = ScanCalls();
  CaExprPtr nj = CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))).value();
  CaExprPtr big = CaExpr::Select(scan, Ge(Col("minutes"), Lit(Value(10)))).value();
  CaExprPtr plan = CaExpr::Union(nj, big).value();
  // (1,NJ,15) satisfies both branches but must appear once.
  auto delta =
      engine
          .ComputeDelta(*plan, Event(9, {Call(1, "NJ", 15), Call(2, "NY", 20)}))
          .value();
  EXPECT_EQ(delta.size(), 2u);
}

TEST(DeltaEngineTest, DifferenceWithinTick) {
  DeltaEngine engine;
  CaExprPtr scan = ScanCalls();
  CaExprPtr nj = CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))).value();
  CaExprPtr plan = CaExpr::Difference(scan, nj).value();  // non-NJ calls
  auto delta =
      engine
          .ComputeDelta(*plan, Event(3, {Call(1, "NJ", 5), Call(2, "NY", 7)}))
          .value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values[1], Value("NY"));
}

TEST(DeltaEngineTest, SeqJoinPairsWithinTick) {
  // Two chronicles receiving tuples under one SN join pairwise.
  Schema left_schema({{"x", DataType::kInt64}});
  Schema right_schema({{"y", DataType::kInt64}});
  CaExprPtr left = CaExpr::Scan(0, "l", left_schema).value();
  CaExprPtr right = CaExpr::Scan(1, "r", right_schema).value();
  CaExprPtr plan = CaExpr::SeqJoin(left, right).value();

  AppendEvent event;
  event.sn = 4;
  event.chronon = 4;
  event.inserts.emplace_back(
      0, std::vector<Tuple>{Tuple{Value(1)}, Tuple{Value(2)}});
  event.inserts.emplace_back(1, std::vector<Tuple>{Tuple{Value(10)}});

  DeltaEngine engine;
  auto delta = engine.ComputeDelta(*plan, event).value();
  ASSERT_EQ(delta.size(), 2u);
  std::vector<Tuple> payloads = Payloads(delta);
  EXPECT_EQ(payloads[0], (Tuple{Value(1), Value(10)}));
  EXPECT_EQ(payloads[1], (Tuple{Value(2), Value(10)}));
}

TEST(DeltaEngineTest, SeqJoinEmptyWhenOneSideSilent) {
  Schema s({{"x", DataType::kInt64}});
  CaExprPtr plan = CaExpr::SeqJoin(CaExpr::Scan(0, "l", s).value(),
                                   CaExpr::Scan(1, "r", s).value())
                       .value();
  DeltaEngine engine;
  // Only chronicle 0 receives data: the join delta must be empty.
  auto delta = engine.ComputeDelta(*plan, Event(4, {Tuple{Value(1)}})).value();
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaEngineTest, GroupBySeqAggregatesWithinTick) {
  DeltaEngine engine;
  CaExprPtr plan =
      CaExpr::GroupBySeq(ScanCalls(), {"region"},
                         {AggSpec::Sum("minutes", "total"), AggSpec::Count()})
          .value();
  auto delta = engine
                   .ComputeDelta(*plan, Event(11, {Call(1, "NJ", 5),
                                                   Call(2, "NJ", 7),
                                                   Call(3, "NY", 1)}))
                   .value();
  std::vector<Tuple> payloads = Payloads(delta);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], (Tuple{Value("NJ"), Value(12), Value(2)}));
  EXPECT_EQ(payloads[1], (Tuple{Value("NY"), Value(1), Value(1)}));
}

TEST(DeltaEngineTest, RelKeyJoinLooksUpCurrentVersion) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.Insert(Tuple{Value(1), Value("NJ")}).ok());
  CaExprPtr plan = CaExpr::RelKeyJoin(ScanCalls(), &rel, "caller").value();

  DeltaEngine engine;
  DeltaStats stats;
  auto delta =
      engine
          .ComputeDelta(*plan, Event(2, {Call(1, "x", 5), Call(9, "x", 5)}),
                        &stats)
          .value();
  // caller 9 has no customer row: inner join drops it.
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values, (Tuple{Value(1), Value("x"), Value(5), Value(1),
                                    Value("NJ")}));
  EXPECT_EQ(stats.relation_lookups, 2u);

  // Proactive update: future ticks see the new state.
  ASSERT_TRUE(rel.UpdateByKey(Value(1), Tuple{Value(1), Value("CA")}).ok());
  auto delta2 = engine.ComputeDelta(*plan, Event(3, {Call(1, "x", 5)})).value();
  ASSERT_EQ(delta2.size(), 1u);
  EXPECT_EQ(delta2[0].values[4], Value("CA"));
}

TEST(DeltaEngineTest, RelCrossExpandsByRelationSize) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple{Value(i), Value("S")}).ok());
  }
  CaExprPtr plan = CaExpr::RelCross(ScanCalls(), &rel).value();
  DeltaEngine engine;
  DeltaStats stats;
  auto delta = engine
                   .ComputeDelta(*plan,
                                 Event(2, {Call(1, "x", 5), Call(2, "y", 6)}),
                                 &stats)
                   .value();
  EXPECT_EQ(delta.size(), 8u);  // 2 tuples × |R| = 4
  EXPECT_EQ(stats.relation_rows_scanned, 8u);
  EXPECT_GE(stats.max_intermediate_rows, 8u);
}

TEST(DeltaEngineTest, RefusesForbiddenOperators) {
  DeltaEngine engine;
  CaExprPtr cross = CaExpr::ChronicleCross(ScanCalls(), ScanCalls()).value();
  Status st =
      engine.ComputeDelta(*cross, Event(1, {Call(1, "NJ", 1)})).status();
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("Theorem 4.3"), std::string::npos);

  CaExprPtr drop = CaExpr::ProjectDropSn(ScanCalls(), {"caller"}).value();
  EXPECT_FALSE(engine.ComputeDelta(*drop, Event(1, {Call(1, "NJ", 1)})).ok());
}

TEST(DeltaEngineTest, ComplexPlanEndToEnd) {
  // σ(minutes>0) → key-join cust → groupby(region-of-customer) per tick.
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.Insert(Tuple{Value(1), Value("NJ")}).ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(2), Value("NJ")}).ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(3), Value("NY")}).ok());

  CaExprPtr plan =
      CaExpr::GroupBySeq(
          CaExpr::RelKeyJoin(
              CaExpr::Select(ScanCalls(), Gt(Col("minutes"), Lit(Value(0))))
                  .value(),
              &rel, "caller")
              .value(),
          {"state"}, {AggSpec::Sum("minutes", "mins")})
          .value();

  DeltaEngine engine;
  auto delta = engine
                   .ComputeDelta(*plan, Event(6, {Call(1, "x", 5),
                                                  Call(2, "x", 6),
                                                  Call(3, "x", 7),
                                                  Call(1, "x", 0)}))
                   .value();
  std::vector<Tuple> payloads = Payloads(delta);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], (Tuple{Value("NJ"), Value(11)}));
  EXPECT_EQ(payloads[1], (Tuple{Value("NY"), Value(7)}));
}

TEST(DeltaEngineTest, StatsTrackIntermediateSizes) {
  DeltaEngine engine;
  CaExprPtr plan = CaExpr::Project(ScanCalls(), {"region"}).value();
  DeltaStats stats;
  ASSERT_TRUE(engine
                  .ComputeDelta(*plan,
                                Event(1, {Call(1, "NJ", 1), Call(2, "NY", 2)}),
                                &stats)
                  .ok());
  EXPECT_EQ(stats.max_intermediate_rows, 2u);
  EXPECT_EQ(stats.total_rows_produced, 4u);  // scan(2) + project(2)
}

}  // namespace
}  // namespace chronicle
