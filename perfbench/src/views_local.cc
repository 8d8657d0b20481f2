// views_local: closed loop, one thread, no network, unsharded Session, no
// WAL. About three dozen views over one CDR stream, so view maintenance
// (views/exec/aggregates/periodic) does nearly all the work and the net,
// shard and wal layers none.
//
// Each step appends one 256-row tick through Session::AppendRows (its
// return means every view is current); at fixed ratios it also runs a
// point lookup through the parser and ExecuteStatement, and a proactive
// relation UPDATE that changes what the join views see from then on.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ca_expr.h"
#include "cql/parser.h"
#include "cql/session.h"
#include "harness.h"
#include "obs/stats.h"
#include "reference.h"
#include "views/summary_spec.h"
#include "workload/call_records.h"

namespace perfbench {
namespace {

using chronicle::AggSpec;
using chronicle::CaExpr;
using chronicle::CaExprPtr;
using chronicle::CallRecordGenerator;
using chronicle::CallRecordOptions;
using chronicle::ChronicleDatabase;
using chronicle::DatabaseOptions;
using chronicle::SummarySpec;
using chronicle::Tuple;
using chronicle::cql::Session;

constexpr size_t kTickRows = 256;
constexpr size_t kPoolTicks = 1024;   // ticks cycle through this pool
constexpr size_t kWarmupSteps = 32;   // applied during set-up
constexpr int kSetups = 5;            // set-up repetitions (median reported)
// Per step one append; a lookup every kLookupEvery steps, so the scan a
// lookup costs (about two appends' worth) does not drown the maintenance
// the workload is for; relation updates every 8 and 16 steps.
constexpr uint64_t kLookupEvery = 4;
constexpr uint64_t kCustUpdateEvery = 8;
constexpr uint64_t kPlanUpdateEvery = 16;
constexpr int64_t kPlans = 64;
constexpr int64_t kTiers = 8;

// CallRecordOptions' default num_regions (8) draws from these names.
const char* const kRegions[] = {"NJ", "NY", "CA", "TX", "IL", "WA", "FL", "MA"};

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Inputs {
  std::vector<std::vector<Tuple>> ticks;
  std::vector<std::string> lookups;       // one per pool tick
  std::vector<std::string> cust_updates;  // cycled by step / 8
  std::vector<std::string> plan_updates;  // cycled by step / 16
  std::vector<std::string> load_sql;      // relation loads, in order
};

Inputs MakeInputs(uint64_t seed) {
  CallRecordOptions options;
  options.seed = seed;
  CallRecordGenerator gen(options);
  Inputs in;
  in.ticks.reserve(kPoolTicks);
  for (size_t t = 0; t < kPoolTicks; ++t) {
    in.ticks.push_back(gen.NextBatch(kTickRows));
    // Lookup keys follow the stream's own skew: the first caller of the
    // tick just appended.
    in.lookups.push_back("SELECT * FROM by_caller WHERE caller = " +
                         std::to_string(in.ticks.back()[0][0].int64()));
    const uint64_t h = Mix(seed * 1000003 + t);
    const uint64_t acct = h % options.num_accounts;
    in.cust_updates.push_back("UPDATE cust SET home = '" +
                              std::string(kRegions[(h >> 20) % 8]) +
                              "' WHERE acct = " + std::to_string(acct));
    in.plan_updates.push_back(
        "UPDATE acct_plan SET plan = " +
        std::to_string(static_cast<int64_t>((h >> 32) % kPlans)) +
        " WHERE acct = " + std::to_string((h >> 8) % options.num_accounts));
  }

  // Relations: the generator's customers, plus the plan chain
  // acct -> plan -> tier -> rate derived from the seed.
  auto chunked = [&](const std::string& table, size_t n,
                     const std::function<std::string(size_t)>& row) {
    for (size_t begin = 0; begin < n; begin += 500) {
      std::string sql = "INSERT INTO " + table + " VALUES ";
      for (size_t i = begin; i < std::min(n, begin + 500); ++i) {
        if (i > begin) sql += ", ";
        sql += row(i);
      }
      in.load_sql.push_back(std::move(sql));
    }
  };
  const std::vector<Tuple> customers = gen.CustomerRows();
  chunked("cust", customers.size(), [&](size_t i) {
    return "(" + std::to_string(customers[i][0].int64()) + ", '" +
           customers[i][1].str() + "', '" + customers[i][2].str() + "')";
  });
  chunked("acct_plan", options.num_accounts, [&](size_t i) {
    return "(" + std::to_string(i) + ", " +
           std::to_string(Mix(seed ^ (i << 1)) % kPlans) + ")";
  });
  chunked("plans", kPlans, [&](size_t i) {
    return "(" + std::to_string(i) + ", " +
           std::to_string(Mix(seed ^ (i << 2)) % kTiers) + ")";
  });
  chunked("tiers", kTiers, [&](size_t i) {
    return "(" + std::to_string(i) + ", " + std::to_string(5 + 3 * i) + ")";
  });
  return in;
}

constexpr char kSchemaDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN NONE;"
    "CREATE RELATION cust (acct INT64, name STRING, home STRING) KEY acct;"
    "CREATE RELATION acct_plan (acct INT64, plan INT64) KEY acct;"
    "CREATE RELATION plans (plan INT64, tier INT64) KEY plan;"
    "CREATE RELATION tiers (tier INT64, rate INT64) KEY tier;";

// The CQL views, with the family each one reports under.
struct CqlView {
  std::string name;
  std::string family;
  ViewKind kind;
  std::string ddl;
};

std::vector<CqlView> CqlViews() {
  std::vector<CqlView> views = {
      {"by_caller", "groupby", ViewKind::kPersistent,
       "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, "
       "COUNT(*) AS n FROM calls GROUP BY caller"},
      {"by_region", "groupby", ViewKind::kPersistent,
       "CREATE VIEW by_region AS SELECT region, SUM(minutes) AS m, "
       "COUNT(*) AS n, SUM(charge) AS c FROM calls GROUP BY region"},
      {"caller_stats", "groupby", ViewKind::kPersistent,
       "CREATE VIEW caller_stats AS SELECT caller, MIN(minutes) AS lo, "
       "MAX(minutes) AS hi, AVG(minutes) AS avg FROM calls GROUP BY caller"},
      {"totals", "groupby", ViewKind::kPersistent,
       "CREATE VIEW totals AS SELECT COUNT(*) AS n, SUM(minutes) AS m "
       "FROM calls"},
      {"caller_class", "groupby", ViewKind::kPersistent,
       "CREATE VIEW caller_class AS SELECT caller, SUM(minutes) AS total, "
       "CASE WHEN total >= 20000 THEN 'heavy' ELSE 'light' END AS class "
       "FROM calls GROUP BY caller"},
      {"regions_seen", "distinct", ViewKind::kPersistent,
       "CREATE VIEW regions_seen AS SELECT region FROM calls"},
      // CA_join key joins to the customer relation.
      {"by_home", "join", ViewKind::kPersistent,
       "CREATE VIEW by_home AS SELECT home, SUM(minutes) AS m, COUNT(*) AS n "
       "FROM calls JOIN cust ON caller = acct GROUP BY home"},
      {"roaming", "join", ViewKind::kPersistent,
       "CREATE VIEW roaming AS SELECT caller, COUNT(*) AS n FROM calls "
       "JOIN cust ON caller = acct WHERE region <> home GROUP BY caller"},
      {"home_caller", "join", ViewKind::kPersistent,
       "CREATE VIEW home_caller AS SELECT home, caller, SUM(charge) AS c "
       "FROM calls JOIN cust ON caller = acct GROUP BY home, caller"},
      {"nj_by_home", "join", ViewKind::kPersistent,
       "CREATE VIEW nj_by_home AS SELECT home, COUNT(*) AS n FROM calls "
       "JOIN cust ON caller = acct WHERE region = 'NJ' GROUP BY home"},
      {"by_name", "join", ViewKind::kPersistent,
       "CREATE VIEW by_name AS SELECT name, SUM(minutes) AS m FROM calls "
       "JOIN cust ON caller = acct GROUP BY name"},
      {"by_plan", "join", ViewKind::kPersistent,
       "CREATE VIEW by_plan AS SELECT plan, SUM(minutes) AS m, COUNT(*) AS n "
       "FROM calls JOIN acct_plan ON caller = acct GROUP BY plan"},
      // §5.3 tiered discounts.
      {"bill", "tiered", ViewKind::kPersistent,
       "CREATE VIEW bill AS SELECT caller, TIERED(charge, 10:0.1, 25:0.2) AS "
       "owed FROM calls GROUP BY caller"},
      {"region_bill", "tiered", ViewKind::kPersistent,
       "CREATE VIEW region_bill AS SELECT region, TIERED(minutes, 1000:0.05, "
       "100000:0.1) AS owed FROM calls GROUP BY region"},
      // §5.1 sliding window and periodic calendar.
      {"recent", "sliding", ViewKind::kSliding,
       "CREATE SLIDING VIEW recent AS SELECT region, SUM(minutes) AS m, "
       "COUNT(*) AS n FROM calls GROUP BY region OVER WINDOW 16 PANES OF 4"},
      {"daily", "periodic", ViewKind::kPeriodic,
       "CREATE PERIODIC VIEW daily AS SELECT caller, SUM(minutes) AS m, "
       "COUNT(*) AS n FROM calls GROUP BY caller OVER PERIOD 64 "
       "EXPIRE AFTER 128"},
  };
  // §5.2: GroupBy summaries behind region guards. The equality conjunct
  // indexes each view under its region, and the minutes conjunct makes the
  // guard fail on a good share of ticks, so routing skips views every tick.
  for (const char* region : kRegions) {
    const std::string r = region;
    views.push_back({"long_" + r, "groupby", ViewKind::kPersistent,
                     "CREATE VIEW long_" + r +
                         " AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
                         "FROM calls WHERE region = '" + r +
                         "' AND minutes > 114 GROUP BY caller"});
    views.push_back({"short_" + r, "groupby", ViewKind::kPersistent,
                     "CREATE VIEW short_" + r +
                         " AS SELECT caller, COUNT(*) AS n, MAX(charge) AS c "
                         "FROM calls WHERE region = '" + r +
                         "' AND minutes < 3 GROUP BY caller"});
  }
  return views;
}

// Key-join chains of depth 2 and 3 (CQL takes one JOIN per view, so these
// go through ChronicleDatabase::CreateView).
const char* const kChainViews[] = {"chain2_tier", "chain2_caller",
                                   "chain3_rate", "chain3_region"};

void CreateChainViews(ChronicleDatabase* db) {
  auto rel = [&](const char* name) {
    return Unwrap(db->GetRelation(name), "GetRelation");
  };
  CaExprPtr scan = Unwrap(db->ScanChronicle("calls"), "ScanChronicle");
  CaExprPtr j1 = Unwrap(CaExpr::RelKeyJoin(scan, rel("acct_plan"), "caller"),
                        "RelKeyJoin acct_plan");
  CaExprPtr j2 = Unwrap(CaExpr::RelKeyJoin(j1, rel("plans"), "plan"),
                        "RelKeyJoin plans");
  CaExprPtr j3 = Unwrap(CaExpr::RelKeyJoin(j2, rel("tiers"), "tier"),
                        "RelKeyJoin tiers");
  auto group = [&](const CaExprPtr& plan, std::vector<std::string> keys,
                   std::vector<AggSpec> aggs) {
    return Unwrap(SummarySpec::GroupBy(plan->schema(), std::move(keys),
                                       std::move(aggs)),
                  "GroupBy");
  };
  Check(db->CreateView("chain2_tier", j2,
                       group(j2, {"tier"},
                             {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}))
            .status(),
        "chain2_tier");
  Check(db->CreateView("chain2_caller", j2,
                       group(j2, {"caller", "tier"}, {AggSpec::Sum("minutes", "m")}))
            .status(),
        "chain2_caller");
  Check(db->CreateView("chain3_rate", j3,
                       group(j3, {"rate"},
                             {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}))
            .status(),
        "chain3_rate");
  Check(db->CreateView("chain3_region", j3,
                       group(j3, {"region", "rate"}, {AggSpec::Sum("charge", "c")}))
            .status(),
        "chain3_region");
}

std::unique_ptr<Session> OpenLoaded(const Inputs& in, DatabaseOptions options) {
  auto session = Unwrap(Session::Open(std::move(options)), "Session::Open");
  Check(session->ExecuteScript(kSchemaDdl).status(), "schema DDL");
  for (const std::string& sql : in.load_sql) {
    Check(session->ExecuteSql(sql).status(), "relation load");
  }
  for (const CqlView& view : CqlViews()) {
    Check(session->ExecuteSql(view.ddl).status(), view.name.c_str());
  }
  CreateChainViews(session->db());
  return session;
}

std::vector<ViewRef> AllViews() {
  std::vector<ViewRef> refs;
  for (const CqlView& view : CqlViews()) refs.push_back({view.name, view.kind});
  for (const char* name : kChainViews) refs.push_back({name, ViewKind::kPersistent});
  return refs;
}

// Relation writes of step `step`, in the order the loop issues them.
std::vector<const std::string*> UpdatesAt(const Inputs& in, uint64_t step) {
  std::vector<const std::string*> out;
  if (step % kCustUpdateEvery == kCustUpdateEvery - 1) {
    out.push_back(&in.cust_updates[(step / kCustUpdateEvery) % kPoolTicks]);
  }
  if (step % kPlanUpdateEvery == kPlanUpdateEvery - 1) {
    out.push_back(&in.plan_updates[(step / kPlanUpdateEvery) % kPoolTicks]);
  }
  return out;
}

// The untimed part of a step: what the reference replays.
void ApplyWrites(Session* session, const Inputs& in, uint64_t step) {
  Check(session->AppendRows("calls", {in.ticks[step % kPoolTicks]}).status(),
        "AppendRows");
  for (const std::string* sql : UpdatesAt(in, step)) {
    Check(session->ExecuteSql(*sql).status(), "relation update");
  }
}

struct Setup {
  Inputs inputs;
  std::unique_ptr<Session> session;
};

Setup SetUp(const RunConfig& config) {
  Setup s;
  s.inputs = MakeInputs(config.seed);
  DatabaseOptions options;  // default ObservabilityOptions: metrics on
  if (config.traced) {
    options.set_profile_view_latency(true);
    options.observability.request_sample_rate = 1.0;
  }
  s.session = OpenLoaded(s.inputs, std::move(options));
  for (uint64_t step = 0; step < kWarmupSteps; ++step) {
    ApplyWrites(s.session.get(), s.inputs, step);
  }
  return s;
}

}  // namespace

RunResult RunViewsLocal(const RunConfig& config, Tracer* tracer) {
  RunResult result;

  // --- set-up, repeated; the last one is kept ---
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup();  // tear the previous one down outside the timing
    const int64_t start = NowNs();
    setup = SetUp(config);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  Session* session = setup.session.get();
  const Inputs& in = setup.inputs;
  SpanLog* spans = tracer != nullptr ? tracer->NewLog() : nullptr;

  // --- timed closed loop ---
  uint64_t step = kWarmupSteps, rows = 0;
  const int64_t budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  const int64_t t0 = NowNs();
  SlicedRun run(t0, kSliceNs);
  int64_t now = t0;
  while (now - t0 < budget_ns) {
    std::vector<std::vector<Tuple>> batch{in.ticks[step % kPoolTicks]};
    {
      ScopedSpan op(spans, "tick", step);
      ScopedSpan call(spans, "cql.append_rows", step);
      const int64_t start = NowNs();
      auto applied = session->AppendRows("calls", std::move(batch));
      run.At(start).append.Add(NowNs() - start);
      ++result.attempted;
      if (!applied.ok()) {
        ++result.failed;
      } else {
        rows += *applied;
      }
    }
    if (step % kLookupEvery == 0) {
      ScopedSpan op(spans, "lookup", step);
      const int64_t start = NowNs();
      chronicle::Result<chronicle::cql::Statement> stmt = [&] {
        ScopedSpan parse(spans, "cql.parse", step);
        return chronicle::cql::ParseStatement(in.lookups[step % kPoolTicks]);
      }();
      bool ok = stmt.ok();
      if (ok) {
        ScopedSpan exec(spans, "cql.execute", step);
        auto found = session->ExecuteStatement(*stmt);
        // The caller was just appended, so its group must exist.
        ok = found.ok() && found->rows.size() == 1;
      }
      run.At(start).read.Add(NowNs() - start);
      ++result.attempted;
      if (!ok) ++result.failed;
    }
    for (const std::string* sql : UpdatesAt(in, step)) {
      ScopedSpan op(spans, "update", step);
      chronicle::Result<chronicle::cql::Statement> stmt = [&] {
        ScopedSpan parse(spans, "cql.parse", step);
        return chronicle::cql::ParseStatement(*sql);
      }();
      ScopedSpan exec(spans, "cql.execute_dml", step);
      ++result.attempted;
      if (!stmt.ok() || !session->ExecuteStatement(*stmt).ok()) ++result.failed;
    }
    ++step;
    now = NowNs();
    run.Mark(now, rows);
  }
  run.Finish(now, rows);
  const double peak_rss = PeakRssMb();
  const chronicle::obs::StatsSnapshot snap = session->CollectStats();

  result.cpu_us_per_row = run.CpuUsPerRow();
  SetSlicedMetrics(run, Median(setup_s), setup_s.size(), rows, &result.e2e);
  result.e2e.Set("peak_rss_mb", peak_rss, "MiB");

  if (tracer != nullptr) {
    std::map<std::string, std::string> family_of;
    for (const CqlView& view : CqlViews()) family_of[view.name] = view.family;
    for (const char* name : kChainViews) family_of[name] = "chain";
    AddSnapshotLayers(snap, rows, family_of, &result.layers);
    MetricTable& l = result.layers;
    const Samples parse = tracer->Durations("cql.parse");
    const Samples exec = tracer->Durations("cql.execute");
    const Samples dml = tracer->Durations("cql.execute_dml");
    const Samples append = tracer->Durations("cql.append_rows");
    l.Set("cql.parse_us", parse.PercentileUs(0.5), "us", parse.count());
    l.Set("cql.execute_us", exec.PercentileUs(0.5), "us", exec.count());
    l.Set("cql.execute_dml_us", dml.PercentileUs(0.5), "us", dml.count());
    l.Set("cql.append_rows_us", append.PercentileUs(0.5), "us", append.count());
    l.Set("cql.append_rows_p99_us", append.PercentileUs(0.99), "us",
          append.count());
  }

  // --- reference: the same steps applied to a fresh, untimed session ---
  const uint64_t steps = step;
  {
    DatabaseOptions options;
    options.set_metrics(false);
    auto reference = OpenLoaded(in, std::move(options));
    for (uint64_t s = 0; s < steps; ++s) ApplyWrites(reference.get(), in, s);
    for (const ViewRef& view : AllViews()) {
      const std::string diff = DiffRows(DumpView(*session->db(), view),
                                        DumpView(*reference->db(), view));
      result.Expect("views_local " + view.name, diff);
    }
  }
  SumCountRecompute by_caller(0, 2), by_region(1, 2);
  for (uint64_t s = 0; s < steps; ++s) {
    by_caller.Add(in.ticks[s % kPoolTicks]);
    by_region.Add(in.ticks[s % kPoolTicks]);
  }
  for (auto [name, recompute] :
       {std::pair{"by_caller", &by_caller}, std::pair{"by_region", &by_region}}) {
    result.Expect(std::string("views_local recompute ") + name,
                  recompute->Diff(
                      DumpView(*session->db(), {name, ViewKind::kPersistent})));
  }
  return result;
}

}  // namespace perfbench
