// Property tests: for randomized streams and a zoo of view shapes, the
// incrementally maintained PersistentView must equal a from-scratch
// recomputation by the naive relational engine after every batch of ticks.
//
// This is the library's strongest correctness statement: the Theorem 4.2
// delta rules (which never read the chronicle) agree with the definitional
// semantics (which read all of it), including under proactive relation
// updates mid-stream (the implicit temporal join, via RelationHistory).

#include <gtest/gtest.h>

#include <memory>

#include "baseline/naive_engine.h"
#include "common/random.h"
#include "oracle/delta_engine.h"
#include "views/view_manager.h"

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

const char* kRegions[] = {"NJ", "NY", "CA", "TX"};
const char* kStates[] = {"NJ", "NY", "CA"};

struct Scenario {
  const char* name;
  // Builds (plan, spec) from the two chronicle scans and the relation.
  std::function<std::pair<CaExprPtr, SummarySpec>(
      CaExprPtr scan_a, CaExprPtr scan_b, const Relation* rel)>
      build;
  bool uses_second_chronicle = false;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;

  scenarios.push_back(
      {"Sca1GroupBy",
       [](CaExprPtr a, CaExprPtr, const Relation*) {
         CaExprPtr plan =
             CaExpr::Select(a, Gt(Col("minutes"), Lit(Value(30)))).value();
         SummarySpec spec =
             SummarySpec::GroupBy(plan->schema(), {"caller"},
                                  {AggSpec::Sum("minutes", "total"),
                                   AggSpec::Count("n"),
                                   AggSpec::Max("minutes", "longest")})
                 .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"Sca1DistinctProjection",
       [](CaExprPtr a, CaExprPtr, const Relation*) {
         CaExprPtr plan = CaExpr::Project(a, {"region", "caller"}).value();
         SummarySpec spec =
             SummarySpec::DistinctProjection(plan->schema(), {"region"}).value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"ScaJoinKeyJoin",
       [](CaExprPtr a, CaExprPtr, const Relation* rel) {
         CaExprPtr plan = CaExpr::RelKeyJoin(a, rel, "caller").value();
         SummarySpec spec =
             SummarySpec::GroupBy(plan->schema(), {"state"},
                                  {AggSpec::Sum("minutes", "total"),
                                   AggSpec::Count("n")})
                 .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"ScaFullCross",
       [](CaExprPtr a, CaExprPtr, const Relation* rel) {
         CaExprPtr plan = CaExpr::RelCross(a, rel).value();
         SummarySpec spec =
             SummarySpec::GroupBy(plan->schema(), {"state"},
                                  {AggSpec::Count("n")})
                 .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"UnionOfSelections",
       [](CaExprPtr a, CaExprPtr, const Relation*) {
         CaExprPtr nj =
             CaExpr::Select(a, Eq(Col("region"), Lit(Value("NJ")))).value();
         CaExprPtr big =
             CaExpr::Select(a, Gt(Col("minutes"), Lit(Value(80)))).value();
         CaExprPtr plan = CaExpr::Union(nj, big).value();
         SummarySpec spec = SummarySpec::GroupBy(plan->schema(), {"caller"},
                                                 {AggSpec::Count("n")})
                                .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"DifferenceOfSelections",
       [](CaExprPtr a, CaExprPtr, const Relation*) {
         CaExprPtr nj =
             CaExpr::Select(a, Eq(Col("region"), Lit(Value("NJ")))).value();
         CaExprPtr plan = CaExpr::Difference(a, nj).value();
         SummarySpec spec = SummarySpec::GroupBy(plan->schema(), {"region"},
                                                 {AggSpec::Count("n")})
                                .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"SeqJoinTwoChronicles",
       [](CaExprPtr a, CaExprPtr b, const Relation*) {
         CaExprPtr plan = CaExpr::SeqJoin(a, b).value();
         SummarySpec spec =
             SummarySpec::GroupBy(plan->schema(), {"caller"},
                                  {AggSpec::Sum("minutes", "total")})
                 .value();
         return std::make_pair(plan, spec);
       },
       true});

  scenarios.push_back(
      {"GroupBySeqThenSummarize",
       [](CaExprPtr a, CaExprPtr, const Relation*) {
         CaExprPtr per_tick =
             CaExpr::GroupBySeq(a, {"caller"},
                                {AggSpec::Sum("minutes", "tick_total")})
                 .value();
         SummarySpec spec =
             SummarySpec::GroupBy(per_tick->schema(), {"caller"},
                                  {AggSpec::Max("tick_total", "best_tick"),
                                   AggSpec::Count("ticks")})
                 .value();
         return std::make_pair(per_tick, spec);
       },
       false});

  scenarios.push_back(
      {"ScaJoinBounded",
       [](CaExprPtr a, CaExprPtr, const Relation* rel) {
         // The generalized Definition 4.2 join: equijoin through the
         // secondary index on acct (unique here, so bound 1 holds).
         CaExprPtr plan =
             CaExpr::RelBoundedJoin(a, rel, "caller", "acct", 1).value();
         SummarySpec spec =
             SummarySpec::GroupBy(plan->schema(), {"state"},
                                  {AggSpec::Sum("minutes", "total")})
                 .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"DistinctProjectionOverJoin",
       [](CaExprPtr a, CaExprPtr, const Relation* rel) {
         CaExprPtr plan = CaExpr::RelKeyJoin(a, rel, "caller").value();
         SummarySpec spec = SummarySpec::DistinctProjection(
                                plan->schema(), {"region", "state"})
                                .value();
         return std::make_pair(plan, spec);
       },
       false});

  scenarios.push_back(
      {"GlobalAggregates",
       [](CaExprPtr a, CaExprPtr, const Relation*) {
         SummarySpec spec =
             SummarySpec::GroupBy(a->schema(), {},
                                  {AggSpec::Count("n"),
                                   AggSpec::Sum("minutes", "total"),
                                   AggSpec::Min("minutes", "lo"),
                                   AggSpec::Avg("minutes", "mean")})
                 .value();
         return std::make_pair(a, spec);
       },
       false});

  return scenarios;
}

struct TestParam {
  size_t scenario;
  IndexMode index_mode;
  uint64_t seed;
};

class OraclePropertyTest : public ::testing::TestWithParam<TestParam> {};

TEST_P(OraclePropertyTest, IncrementalMatchesFullRecompute) {
  const TestParam param = GetParam();
  const Scenario scenario = Scenarios()[param.scenario];

  ChronicleGroup group;
  ChronicleId calls = group.CreateChronicle("calls", CallSchema()).value();
  ChronicleId calls_b = group.CreateChronicle("calls_b", CallSchema()).value();
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  RelationHistory history;

  Rng rng(param.seed);
  const int64_t kAccounts = 12;
  ASSERT_TRUE(rel.CreateSecondaryIndex("acct").ok());  // for the bounded join
  for (int64_t acct = 0; acct < kAccounts; ++acct) {
    ASSERT_TRUE(
        rel.Insert(Tuple{Value(acct), Value(kStates[rng.Uniform(3)])}).ok());
  }
  history.Snapshot(rel, 1);

  auto [plan, spec] = scenario.build(
      CaExpr::Scan(*group.GetChronicle(calls).value()).value(),
      CaExpr::Scan(*group.GetChronicle(calls_b).value()).value(), &rel);
  auto view =
      PersistentView::Make(0, scenario.name, plan, spec, {}, param.index_mode)
          .value();

  DeltaEngine delta_engine;
  NaiveEngine oracle(&group, &history);

  auto random_call = [&]() {
    return Tuple{Value(static_cast<int64_t>(rng.Uniform(kAccounts))),
                 Value(kRegions[rng.Uniform(4)]),
                 Value(static_cast<int64_t>(rng.Uniform(120)))};
  };

  for (int tick = 0; tick < 240; ++tick) {
    // Occasional proactive relation update (affects only future SNs).
    if (rng.Bernoulli(0.08)) {
      int64_t acct = static_cast<int64_t>(rng.Uniform(kAccounts));
      ASSERT_TRUE(
          rel.UpdateByKey(Value(acct),
                          Tuple{Value(acct), Value(kStates[rng.Uniform(3)])})
              .ok());
      history.Snapshot(rel, group.last_sn() + 1);
    }

    // Random batch, possibly multi-chronicle.
    std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
    std::vector<Tuple> batch_a;
    const size_t batch = 1 + rng.Uniform(3);
    for (size_t i = 0; i < batch; ++i) batch_a.push_back(random_call());
    inserts.emplace_back(calls, std::move(batch_a));
    if (scenario.uses_second_chronicle && rng.Bernoulli(0.7)) {
      std::vector<Tuple> batch_b;
      const size_t nb = 1 + rng.Uniform(2);
      for (size_t i = 0; i < nb; ++i) batch_b.push_back(random_call());
      inserts.emplace_back(calls_b, std::move(batch_b));
    }
    AppendEvent event =
        group.AppendMulti(std::move(inserts), static_cast<Chronon>(tick))
            .value();

    auto delta = delta_engine.ComputeDelta(*plan, event);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(view->ApplyDelta(*delta).ok());

    if (tick % 20 != 19) continue;
    // Oracle: recompute the whole view from the stored chronicle + history.
    auto expected = oracle.EvaluateSummary(*plan, spec);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    std::vector<Tuple> actual;
    ASSERT_TRUE(
        view->Scan([&](const Tuple& row) { actual.push_back(row); }).ok());
    SortTuples(&actual);
    ASSERT_EQ(actual.size(), expected->size())
        << scenario.name << " tick " << tick;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], (*expected)[i])
          << scenario.name << " tick " << tick << " row " << i << ": "
          << TupleToString(actual[i]) << " vs " << TupleToString((*expected)[i]);
    }
  }
}

std::vector<TestParam> AllParams() {
  std::vector<TestParam> params;
  const size_t num_scenarios = Scenarios().size();
  for (size_t s = 0; s < num_scenarios; ++s) {
    for (IndexMode mode : {IndexMode::kHash, IndexMode::kOrdered}) {
      for (uint64_t seed : {11u, 97u}) {
        params.push_back(TestParam{s, mode, seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OraclePropertyTest, ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<TestParam>& info) {
      const Scenario scenario = Scenarios()[info.param.scenario];
      std::string name = scenario.name;
      name += info.param.index_mode == IndexMode::kHash ? "_Hash" : "_Ordered";
      name += "_Seed" + std::to_string(info.param.seed);
      return name;
    });

// The ViewManager path (routing + guards) must agree with direct
// maintenance, for every routing mode.
TEST(OracleRoutingTest, ViewManagerModesAgreeWithOracle) {
  for (RoutingMode mode :
       {RoutingMode::kCheckAll, RoutingMode::kGuards, RoutingMode::kEqIndex}) {
    ChronicleGroup group;
    ChronicleId calls = group.CreateChronicle("calls", CallSchema()).value();
    ViewManager manager(mode);
    NaiveEngine oracle(&group);

    CaExprPtr scan = CaExpr::Scan(*group.GetChronicle(calls).value()).value();
    std::vector<std::pair<CaExprPtr, SummarySpec>> defs;
    for (const char* region : kRegions) {
      CaExprPtr plan =
          CaExpr::Select(scan, Eq(Col("region"), Lit(Value(region)))).value();
      SummarySpec spec = SummarySpec::GroupBy(plan->schema(), {"caller"},
                                              {AggSpec::Sum("minutes", "m")})
                             .value();
      ASSERT_TRUE(
          manager
              .AddView(PersistentView::Make(0, std::string("v_") + region,
                                            plan, spec)
                           .value())
              .ok());
      defs.emplace_back(plan, spec);
    }

    Rng rng(3 + static_cast<uint64_t>(mode));
    for (int tick = 0; tick < 150; ++tick) {
      AppendEvent event =
          group
              .Append(calls,
                      {Tuple{Value(static_cast<int64_t>(rng.Uniform(6))),
                             Value(kRegions[rng.Uniform(4)]),
                             Value(static_cast<int64_t>(rng.Uniform(60)))}})
              .value();
      ASSERT_TRUE(manager.ProcessAppend(event).ok());
    }

    for (size_t i = 0; i < defs.size(); ++i) {
      PersistentView* view =
          manager.FindView(std::string("v_") + kRegions[i]).value();
      std::vector<Tuple> actual;
      ASSERT_TRUE(
          view->Scan([&](const Tuple& row) { actual.push_back(row); }).ok());
      SortTuples(&actual);
      auto expected = oracle.EvaluateSummary(*defs[i].first, defs[i].second);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(actual, *expected) << "mode=" << static_cast<int>(mode)
                                   << " region=" << kRegions[i];
    }
  }
}

}  // namespace
}  // namespace chronicle
