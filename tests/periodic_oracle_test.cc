// Oracle test for the §5.1 views: PeriodicViewSet instances and
// SlidingWindowView windows, maintained tick by tick through their compiled
// delta plans, must equal a from-scratch NaiveEngine recompute over the rows
// of their interval.
//
// Each round draws a random chronicle-algebra plan (selections, identity
// projections, unions and relation key joins over one shared scan, with an
// optional key-preserving projection on top) and a random GroupBy spec,
// then feeds random ticks — with repeated chronons, gaps and proactive
// relation updates — into a periodic set on a tumbling calendar, a periodic
// set on an overlapping calendar (both with random expiration) and a
// sliding window. At checkpoints every live instance and the current window
// are compared row for row with NaiveEngine::EvaluateSummary over the plan
// restricted to the interval's chronons, with historical relation versions
// from RelationHistory. An instance that should be live (its interval has
// rows and has not expired) must exist; one that should not, must not.
//
// Seeded through the CHRONICLE_FUZZ_SEED replay scheme.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/naive_engine.h"
#include "common/random.h"
#include "periodic/periodic_view.h"
#include "periodic/sliding_window.h"

namespace chronicle {
namespace {

constexpr int64_t kAccounts = 12;
const char* const kRegions[] = {"NJ", "NY", "CA", "TX"};
const char* const kStates[] = {"NJ", "NY", "CA"};

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema CustSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

// Random CA plans over the calls scan. `joined` plans carry cust's columns
// after a key join on caller; plain plans have the call schema. Union
// operands are always drawn with the same `joined` flag, so their schemas
// agree.
class PlanGen {
 public:
  PlanGen(Rng* rng, CaExprPtr scan, const Relation* rel)
      : rng_(rng), scan_(std::move(scan)), rel_(rel) {}

  CaExprPtr Gen(int depth, bool joined) {
    switch (depth == 0 ? 0 : rng_->Uniform(4)) {
      case 0:
        return joined ? KeyJoin(scan_) : scan_;
      case 1:
        return CaExpr::Select(Gen(depth - 1, joined), Pred(joined)).value();
      case 2:
        return CaExpr::Union(Gen(depth - 1, joined), Gen(depth - 1, joined))
            .value();
      default:
        if (joined && rng_->Bernoulli(0.5)) {
          return KeyJoin(Gen(depth - 1, false));
        }
        return CaExpr::Project(Gen(depth - 1, joined), Columns(joined))
            .value();
    }
  }

 private:
  CaExprPtr KeyJoin(CaExprPtr child) {
    return CaExpr::RelKeyJoin(std::move(child), rel_, "caller").value();
  }

  static std::vector<std::string> Columns(bool joined) {
    std::vector<std::string> cols = {"caller", "region", "minutes"};
    if (joined) {
      cols.push_back("acct");
      cols.push_back("state");
    }
    return cols;
  }

  ScalarExprPtr Pred(bool joined) {
    switch (rng_->Uniform(joined ? 4 : 3)) {
      case 0:
        return Gt(Col("minutes"),
                  Lit(Value(static_cast<int64_t>(rng_->Uniform(120)))));
      case 1:
        return Ne(Col("region"), Lit(Value(kRegions[rng_->Uniform(4)])));
      case 2:
        return Lt(Col("caller"),
                  Lit(Value(static_cast<int64_t>(rng_->Uniform(kAccounts)))));
      default:
        return Eq(Col("state"), Lit(Value(kStates[rng_->Uniform(3)])));
    }
  }

  Rng* rng_;
  CaExprPtr scan_;
  const Relation* rel_;
};

// The plan restricted to rows whose chronon lies in [begin, end).
CaExprPtr InInterval(const CaExprPtr& plan, Chronon begin, Chronon end) {
  return CaExpr::Select(
             plan, ScalarExpr::And(
                       Ge(ScalarExpr::ChrononRef(), Lit(Value(begin))),
                       Lt(ScalarExpr::ChrononRef(), Lit(Value(end)))))
      .value();
}

std::vector<Tuple> SortedScan(const PersistentView& view) {
  std::vector<Tuple> rows;
  EXPECT_TRUE(view.Scan([&](const Tuple& row) { rows.push_back(row); }).ok());
  SortTuples(&rows);
  return rows;
}

struct Counts {
  size_t instances = 0;  // live periodic instances compared
  size_t windows = 0;    // non-empty sliding windows compared
};

// Compares every instance `set` should hold against the oracle.
void CheckPeriodic(const PeriodicViewSet& set, Chronon expire_after,
                   Chronon now, const CaExprPtr& plan, const SummarySpec& spec,
                   const NaiveEngine& oracle, Counts* counts) {
  std::map<int64_t, const PersistentView*> live;
  set.VisitInstances([&](int64_t index, const PersistentView& instance) {
    live[index] = &instance;
  });
  std::vector<int64_t> current;
  set.calendar().IntervalsContaining(now, &current);
  int64_t last = live.empty() ? -1 : live.rbegin()->first;
  for (int64_t index : current) last = std::max(last, index);
  for (int64_t index = 0; index <= last; ++index) {
    SCOPED_TRACE(testing::Message() << set.name() << " interval " << index);
    const Interval interval = set.calendar().GetInterval(index).value();
    const auto it = live.find(index);
    if (expire_after >= 0 && interval.end + expire_after <= now) {
      EXPECT_EQ(it, live.end()) << "expired instance still live";
      continue;
    }
    const std::vector<Tuple> expected =
        oracle
            .EvaluateSummary(*InInterval(plan, interval.begin, interval.end),
                             spec)
            .value();
    if (it == live.end()) {
      EXPECT_TRUE(expected.empty()) << "instance with rows never created";
      continue;
    }
    ASSERT_EQ(SortedScan(*it->second), expected);
    ++counts->instances;
  }
}

void CheckSliding(const SlidingWindowView& view, Chronon origin,
                  const CaExprPtr& plan, const SummarySpec& spec,
                  const NaiveEngine& oracle, Counts* counts) {
  std::vector<Tuple> actual;
  ASSERT_TRUE(
      view.ScanWindow([&](const Tuple& row) { actual.push_back(row); }).ok());
  SortTuples(&actual);
  if (view.current_pane() < 0) {
    EXPECT_TRUE(actual.empty());
    return;
  }
  const Chronon end = origin + (view.current_pane() + 1) * view.pane_width();
  const Chronon begin = std::max(origin, end - view.window());
  SCOPED_TRACE(testing::Message()
               << "window [" << begin << ", " << end << ")");
  const std::vector<Tuple> expected =
      oracle.EvaluateSummary(*InInterval(plan, begin, end), spec).value();
  ASSERT_EQ(actual, expected);
  if (!actual.empty()) ++counts->windows;
}

TEST(PeriodicOracleTest, RandomPlansMatchNaiveRecomputePerInterval) {
  const uint64_t seed = FuzzSeed(20261020);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  Counts counts;

  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE(testing::Message() << "round=" << round);
    ChronicleGroup group;
    const ChronicleId calls =
        group.CreateChronicle("calls", CallSchema()).value();
    Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
    for (int64_t acct = 0; acct < kAccounts; ++acct) {
      ASSERT_TRUE(
          rel.Insert(Tuple{Value(acct), Value(kStates[rng.Uniform(3)])}).ok());
    }
    RelationHistory history;
    history.Snapshot(rel, 1);

    // Plan and GroupBy spec.
    const bool joined = rng.Bernoulli(0.5);
    PlanGen gen(&rng, CaExpr::Scan(*group.GetChronicle(calls).value()).value(),
                &rel);
    CaExprPtr plan = gen.Gen(1 + static_cast<int>(rng.Uniform(3)), joined);
    std::vector<std::string> keys;
    switch (rng.Uniform(joined ? 4 : 3)) {
      case 0: keys = {"caller"}; break;
      case 1: keys = {"region"}; break;
      case 2: keys = {"caller", "region"}; break;
      default: keys = {"state"}; break;
    }
    if (rng.Bernoulli(0.3)) {
      // Key-preserving projection: rows that agree on (sn, keys, minutes)
      // collapse under set semantics.
      std::vector<std::string> cols = keys;
      cols.push_back("minutes");
      plan = CaExpr::Project(plan, cols).value();
    }
    SCOPED_TRACE(testing::Message() << "plan=\n" << plan->ToString());
    const SummarySpec spec =
        SummarySpec::GroupBy(plan->schema(), keys,
                             {AggSpec::Count("n"),
                              AggSpec::Sum("minutes", "total"),
                              AggSpec::Max("minutes", "hi")})
            .value();
    const IndexMode index_mode =
        rng.Bernoulli(0.5) ? IndexMode::kHash : IndexMode::kOrdered;

    // Views: tumbling and overlapping periodic sets, and a sliding window.
    const Chronon origin = static_cast<Chronon>(rng.Uniform(6));
    PeriodicViewOptions tumbling_options;
    tumbling_options.expire_after =
        rng.Bernoulli(0.5) ? -1 : static_cast<Chronon>(rng.Uniform(12));
    tumbling_options.index_mode = index_mode;
    auto tumbling =
        PeriodicViewSet::Make(
            "tumbling", plan, spec,
            PeriodicCalendar::Make(
                origin, 3 + static_cast<Chronon>(rng.Uniform(8)))
                .value(),
            tumbling_options)
            .value();
    const Chronon slide = 2 + static_cast<Chronon>(rng.Uniform(4));
    const int64_t panes = 1 + static_cast<int64_t>(rng.Uniform(4));
    PeriodicViewOptions overlapping_options;
    overlapping_options.expire_after =
        rng.Bernoulli(0.5) ? -1 : static_cast<Chronon>(rng.Uniform(12));
    overlapping_options.index_mode = index_mode;
    auto overlapping =
        PeriodicViewSet::Make(
            "overlapping", plan, spec,
            SlidingCalendar::Make(origin, slide * panes, slide).value(),
            overlapping_options)
            .value();
    auto sliding = SlidingWindowView::Make("sliding", plan, spec, origin,
                                           slide, panes, index_mode)
                       .value();

    NaiveEngine oracle(&group, &history);
    std::map<SeqNum, Chronon> chronon_of;
    oracle.set_chronon_resolver(
        [&chronon_of](SeqNum sn) { return chronon_of.at(sn); });

    Chronon chronon = 0;
    for (int tick = 0; tick < 120; ++tick) {
      if (rng.Bernoulli(0.08)) {
        // Proactive relation update: affects only later sequence numbers.
        const int64_t acct = static_cast<int64_t>(rng.Uniform(kAccounts));
        ASSERT_TRUE(
            rel.UpdateByKey(Value(acct), Tuple{Value(acct),
                                               Value(kStates[rng.Uniform(3)])})
                .ok());
        history.Snapshot(rel, group.last_sn() + 1);
      }
      chronon += static_cast<Chronon>(rng.Uniform(3));  // repeats and gaps
      std::vector<Tuple> batch;
      const size_t rows = 1 + rng.Uniform(3);
      for (size_t i = 0; i < rows; ++i) {
        batch.push_back(
            Tuple{Value(static_cast<int64_t>(rng.Uniform(kAccounts))),
                  Value(kRegions[rng.Uniform(4)]),
                  Value(static_cast<int64_t>(rng.Uniform(120)))});
      }
      std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
      inserts.emplace_back(calls, std::move(batch));
      const AppendEvent event =
          group.AppendMulti(std::move(inserts), chronon).value();
      chronon_of[event.sn] = event.chronon;
      ASSERT_TRUE(tumbling->ProcessAppend(event).ok());
      ASSERT_TRUE(overlapping->ProcessAppend(event).ok());
      ASSERT_TRUE(sliding->ProcessAppend(event).ok());

      if (tick % 15 != 14) continue;
      SCOPED_TRACE(testing::Message() << "tick=" << tick);
      CheckPeriodic(*tumbling, tumbling_options.expire_after, chronon, plan,
                    spec, oracle, &counts);
      CheckPeriodic(*overlapping, overlapping_options.expire_after, chronon,
                    plan, spec, oracle, &counts);
      CheckSliding(*sliding, origin, plan, spec, oracle, &counts);
      if (HasFatalFailure()) return;
    }
  }
  // The comparisons must have had something to compare.
  EXPECT_GT(counts.instances, 100u);
  EXPECT_GT(counts.windows, 20u);
}

// A plan outside chronicle algebra is refused by the plan compiler when
// the view is made, not on the first append.
TEST(PeriodicOracleTest, NonCaPlanFailsAtMake) {
  ChronicleGroup group;
  const ChronicleId calls = group.CreateChronicle("calls", CallSchema()).value();
  CaExprPtr scan = CaExpr::Scan(*group.GetChronicle(calls).value()).value();
  CaExprPtr dropped = CaExpr::ProjectDropSn(scan, {"caller", "minutes"}).value();
  const SummarySpec spec =
      SummarySpec::GroupBy(dropped->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "total")})
          .value();
  auto periodic = PeriodicViewSet::Make(
      "p", dropped, spec, PeriodicCalendar::Make(0, 10).value());
  ASSERT_FALSE(periodic.ok());
  EXPECT_EQ(periodic.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(periodic.status().message().find("Theorem 4.3"), std::string::npos);
  auto sliding = SlidingWindowView::Make("s", dropped, spec, 0, 5, 3);
  ASSERT_FALSE(sliding.ok());
  EXPECT_EQ(sliding.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sliding.status().message().find("Theorem 4.3"), std::string::npos);
}

}  // namespace
}  // namespace chronicle
