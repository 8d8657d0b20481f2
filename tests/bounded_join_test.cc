// Tests for RelBoundedJoin — the general Definition 4.2 admission rule:
// an equijoin with a declared constant bound on matching relation tuples,
// served by a secondary index.

#include <gtest/gtest.h>

#include "algebra/complexity.h"
#include "algebra/validate.h"
#include "baseline/naive_engine.h"
#include "common/random.h"
#include "oracle/delta_engine.h"
#include "views/persistent_view.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"plan_id", DataType::kInt64},
                 {"minutes", DataType::kInt64}});
}

// plan feature table: plan_id is NOT unique — each plan has up to 2
// feature rows — but an integrity constraint bounds matches at 2.
Schema FeatureSchema() {
  return Schema({{"plan_id", DataType::kInt64},
                 {"feature", DataType::kString},
                 {"discount", DataType::kDouble}});
}

Relation MakeFeatures() {
  Relation rel = Relation::Make("features", FeatureSchema()).value();
  EXPECT_TRUE(rel.CreateSecondaryIndex("plan_id").ok());
  EXPECT_TRUE(rel.Insert(Tuple{Value(1), Value("intl"), Value(0.1)}).ok());
  EXPECT_TRUE(rel.Insert(Tuple{Value(1), Value("data"), Value(0.05)}).ok());
  EXPECT_TRUE(rel.Insert(Tuple{Value(2), Value("data"), Value(0.02)}).ok());
  return rel;
}

CaExprPtr ScanCalls() { return CaExpr::Scan(0, "calls", CallSchema()).value(); }

AppendEvent Event(SeqNum sn, std::vector<Tuple> tuples) {
  AppendEvent event;
  event.sn = sn;
  event.chronon = static_cast<Chronon>(sn);
  event.inserts.emplace_back(0, std::move(tuples));
  return event;
}

TEST(BoundedJoinTest, FactoryValidation) {
  Relation features = MakeFeatures();
  EXPECT_TRUE(
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "plan_id", "plan_id", 2)
          .ok());
  // No secondary index on the join column.
  Relation no_index = Relation::Make("f", FeatureSchema()).value();
  Result<CaExprPtr> bad =
      CaExpr::RelBoundedJoin(ScanCalls(), &no_index, "plan_id", "plan_id", 2);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("secondary index"), std::string::npos);
  // Zero bound.
  EXPECT_FALSE(
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "plan_id", "plan_id", 0)
          .ok());
  // Unknown columns.
  EXPECT_FALSE(
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "nope", "plan_id", 2).ok());
  EXPECT_FALSE(
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "plan_id", "nope", 2).ok());
}

TEST(BoundedJoinTest, ClassifiedAsCaJoin) {
  Relation features = MakeFeatures();
  CaExprPtr plan =
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "plan_id", "plan_id", 2)
          .value();
  EXPECT_TRUE(ValidateChronicleAlgebra(*plan).ok());
  ComplexityReport report = AnalyzeComplexity(*plan);
  EXPECT_EQ(report.ca_class, CaClass::kCaJoin);
  EXPECT_EQ(report.im_class, ImClass::kImLogR);
  EXPECT_EQ(report.num_joins, 1);
}

TEST(BoundedJoinTest, DeltaExpandsByMatches) {
  Relation features = MakeFeatures();
  CaExprPtr plan =
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "plan_id", "plan_id", 2)
          .value();
  DeltaEngine engine;
  DeltaStats stats;
  auto delta = engine
                   .ComputeDelta(*plan,
                                 Event(1, {Tuple{Value(7), Value(1), Value(5)},
                                           Tuple{Value(8), Value(2), Value(6)},
                                           Tuple{Value(9), Value(99), Value(7)}}),
                                 &stats)
                   .value();
  // plan 1 -> 2 features, plan 2 -> 1, plan 99 -> 0.
  EXPECT_EQ(delta.size(), 3u);
  EXPECT_EQ(stats.relation_lookups, 3u);
  for (const ChronicleRow& row : delta) {
    EXPECT_EQ(row.values.size(), 6u);  // 3 chronicle + 3 relation columns
  }
}

TEST(BoundedJoinTest, BoundViolationIsIntegrityError) {
  Relation features = MakeFeatures();
  CaExprPtr plan =
      CaExpr::RelBoundedJoin(ScanCalls(), &features, "plan_id", "plan_id", 2)
          .value();
  // Violate the constraint: plan 1 now has 3 feature rows.
  ASSERT_TRUE(
      features.Insert(Tuple{Value(1), Value("evening"), Value(0.01)}).ok());
  DeltaEngine engine;
  Status st = engine
                  .ComputeDelta(*plan,
                                Event(1, {Tuple{Value(7), Value(1), Value(5)}}))
                  .status();
  ASSERT_TRUE(st.IsFailedPrecondition());
  EXPECT_NE(st.message().find("Definition 4.2"), std::string::npos);
}

TEST(BoundedJoinTest, MatchesOracleRecomputation) {
  ChronicleGroup group;
  ChronicleId calls = group.CreateChronicle("calls", CallSchema()).value();
  Relation features = MakeFeatures();
  CaExprPtr plan =
      CaExpr::RelBoundedJoin(
          CaExpr::Scan(*group.GetChronicle(calls).value()).value(), &features,
          "plan_id", "plan_id", 2)
          .value();
  SummarySpec spec = SummarySpec::GroupBy(plan->schema(), {"feature"},
                                          {AggSpec::Sum("minutes", "m"),
                                           AggSpec::Count("n")})
                         .value();
  auto view = PersistentView::Make(0, "by_feature", plan, spec).value();

  DeltaEngine engine;
  Rng rng(5);
  for (int tick = 0; tick < 100; ++tick) {
    AppendEvent event =
        group
            .Append(calls, {Tuple{Value(static_cast<int64_t>(rng.Uniform(20))),
                                  Value(static_cast<int64_t>(rng.Uniform(4))),
                                  Value(static_cast<int64_t>(rng.Uniform(60)))}})
            .value();
    ASSERT_TRUE(view->ApplyDelta(engine.ComputeDelta(*plan, event).value()).ok());
  }

  NaiveEngine oracle(&group);
  std::vector<Tuple> expected = oracle.EvaluateSummary(*plan, spec).value();
  std::vector<Tuple> actual;
  ASSERT_TRUE(view->Scan([&](const Tuple& row) { actual.push_back(row); }).ok());
  SortTuples(&actual);
  EXPECT_EQ(actual, expected);
}

TEST(BoundedJoinTest, SeesCurrentRelationVersion) {
  ChronicleGroup group;
  ChronicleId calls = group.CreateChronicle("calls", CallSchema()).value();
  Relation features = MakeFeatures();
  CaExprPtr plan =
      CaExpr::RelBoundedJoin(
          CaExpr::Scan(*group.GetChronicle(calls).value()).value(), &features,
          "plan_id", "plan_id", 2)
          .value();
  DeltaEngine engine;

  AppendEvent e1 =
      group.Append(calls, {Tuple{Value(1), Value(2), Value(5)}}).value();
  EXPECT_EQ(engine.ComputeDelta(*plan, e1).value().size(), 1u);

  // Proactive feature addition for plan 2: future ticks see both rows.
  ASSERT_TRUE(features.Insert(Tuple{Value(2), Value("intl"), Value(0.2)}).ok());
  AppendEvent e2 =
      group.Append(calls, {Tuple{Value(1), Value(2), Value(5)}}).value();
  EXPECT_EQ(engine.ComputeDelta(*plan, e2).value().size(), 2u);
}

}  // namespace
}  // namespace chronicle
