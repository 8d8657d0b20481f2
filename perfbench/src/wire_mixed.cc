// wire_mixed: open loop over the wire. The server is a cql::Session with
// two shards and a per-shard WAL behind net::WireService on loopback; the
// clients are net::HttpClient connections in this process.
//
// Two keep-alive connections POST 64-row /v1/append TSV ticks on a fixed
// schedule (combined rate from perfbench/config.json), and a third POSTs
// /v1/sql point lookups on its own schedule. Every request is timed from
// the moment it was due, not from when it went out, so a stall is charged
// to every request it delayed; how late each send went out is reported as
// gen.late_p99_us. HTTP framing, TSV decode and the session queue do most
// of the work; lookups share the session's execution mutex with the ingest
// worker, so read latency shows the apply cost that the 202 ack hides.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cql/session.h"
#include "harness.h"
#include "net/http_client.h"
#include "net/wire_service.h"
#include "obs/stats.h"
#include "reference.h"
#include "workload/call_records.h"

namespace perfbench {
namespace {

using chronicle::CallRecordGenerator;
using chronicle::CallRecordOptions;
using chronicle::DatabaseOptions;
using chronicle::Tuple;
using chronicle::cql::Session;
using chronicle::net::HttpClient;
using chronicle::net::WireService;
using Headers = std::vector<std::pair<std::string, std::string>>;

constexpr size_t kTickRows = 64;
constexpr size_t kPoolTicks = 4096;  // ticks cycle through this pool
constexpr size_t kAppenders = 2;
constexpr uint64_t kWarmupTicks = 64;
constexpr int kSetups = 5;
// A run is invalid when, in some slice of the window, half the sends left
// this late or later: the generator had a backlog rather than jitter, so
// the latencies it timed describe the generator, not the server.
constexpr double kMaxSliceLateP50Us = 10000;

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN LAST 4096;"
    "CREATE RELATION cust (acct INT64, name STRING, home STRING) KEY acct;";
constexpr char kViews[] =
    "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY caller;"
    "CREATE VIEW by_home AS SELECT home, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls JOIN cust ON caller = acct GROUP BY home;";
const char* const kViewNames[] = {"by_caller", "by_home"};

struct Inputs {
  std::vector<std::vector<Tuple>> ticks;
  std::vector<std::string> bodies;   // ticks as /v1/append TSV
  std::vector<std::string> lookups;  // /v1/sql bodies
  std::vector<std::string> load_sql;
};

std::string EncodeTsv(const std::vector<Tuple>& rows) {
  std::string body;
  char buf[64];
  for (const Tuple& row : rows) {
    std::snprintf(buf, sizeof(buf), "%.17g", row[3].dbl());
    body += std::to_string(row[0].int64()) + "\t" + row[1].str() + "\t" +
            std::to_string(row[2].int64()) + "\t" + buf + "\n";
  }
  return body;
}

Inputs MakeInputs(uint64_t seed) {
  CallRecordOptions options;  // 10k accounts, Zipf 0.9
  options.seed = seed;
  CallRecordGenerator gen(options);
  Inputs in;
  for (size_t t = 0; t < kPoolTicks; ++t) {
    in.ticks.push_back(gen.NextBatch(kTickRows));
    in.bodies.push_back(EncodeTsv(in.ticks.back()));
    in.lookups.push_back("SELECT * FROM by_caller WHERE caller = " +
                         std::to_string(in.ticks.back()[0][0].int64()));
  }
  const std::vector<Tuple> customers = gen.CustomerRows();
  for (size_t begin = 0; begin < customers.size(); begin += 500) {
    std::string sql = "INSERT INTO cust VALUES ";
    for (size_t i = begin; i < std::min(customers.size(), begin + 500); ++i) {
      if (i > begin) sql += ", ";
      sql += "(" + std::to_string(customers[i][0].int64()) + ", '" +
             customers[i][1].str() + "', '" + customers[i][2].str() + "')";
    }
    in.load_sql.push_back(std::move(sql));
  }
  return in;
}

std::unique_ptr<Session> OpenLoaded(const Inputs& in, DatabaseOptions options) {
  auto session = Unwrap(Session::Open(std::move(options)), "Session::Open");
  Check(session->ExecuteScript(kDdl).status(), "DDL");
  for (const std::string& sql : in.load_sql) {
    Check(session->ExecuteSql(sql).status(), "relation load");
  }
  Check(session->ExecuteScript(kViews).status(), "views");
  return session;
}

Headers OpenWireSession(HttpClient* client) {
  auto open = Unwrap(client->Post("/v1/session", ""), "POST /v1/session");
  const std::string marker = "\"session\":\"";
  const size_t at = open.body.find(marker);
  if (open.status != 200 || at == std::string::npos) {
    std::fprintf(stderr, "perfbench: session open failed: %s\n",
                 open.body.c_str());
    std::exit(3);
  }
  const size_t start = at + marker.size();
  return {{"X-Chronicle-Session",
           open.body.substr(start, open.body.find('"', start) - start)}};
}

// The server side plus one client connection per generator thread.
struct Rig {
  Inputs inputs;
  std::string wal_dir;
  std::unique_ptr<Session> session;
  std::unique_ptr<WireService> service;
  std::vector<std::unique_ptr<HttpClient>> clients;  // appenders, then reader
  std::vector<Headers> headers;
  // Sequence numbers of the ticks each appender got a 202 for; pool index
  // is seq % kPoolTicks.
  std::vector<std::vector<uint64_t>> accepted;
  std::atomic<uint64_t> accepted_ticks{0};
  uint64_t next_seq = 0;  // per appender: seq = i * kAppenders + a

  ~Rig() {
    clients.clear();
    if (service != nullptr) service->Stop();
    service.reset();
    session.reset();
    if (!wal_dir.empty()) RemoveDir(wal_dir);
  }
};

std::unique_ptr<Rig> SetUp(const RunConfig& config, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->inputs = MakeInputs(config.seed);
  rig->wal_dir = config.scratch + "/wire-wal";
  FreshDir(rig->wal_dir);
  DatabaseOptions options;  // default ObservabilityOptions: metrics on
  options.sharding.num_shards = 2;
  options.sharding.wal_dir = rig->wal_dir;
  if (traced) {
    options.set_profile_view_latency(true);
    options.observability.request_sample_rate = 1.0;
  }
  rig->session = OpenLoaded(rig->inputs, std::move(options));
  rig->service =
      std::make_unique<WireService>(rig->session.get(), chronicle::net::NetOptions{});
  Check(rig->service->Start(0), "WireService::Start");
  for (size_t c = 0; c <= kAppenders; ++c) {
    rig->clients.push_back(std::make_unique<HttpClient>(rig->service->port()));
    rig->headers.push_back(OpenWireSession(rig->clients.back().get()));
  }
  rig->accepted.resize(kAppenders);
  // Warm-up: every connection sends a few requests, then the server drains.
  for (uint64_t seq = 0; seq < kWarmupTicks; ++seq) {
    const size_t a = seq % kAppenders;
    auto resp = Unwrap(rig->clients[a]->Post("/v1/append?chronicle=calls",
                                             rig->inputs.bodies[seq % kPoolTicks],
                                             rig->headers[a]),
                       "warm-up append");
    if (resp.status == 202) {
      rig->accepted[a].push_back(seq);
      rig->accepted_ticks.fetch_add(1, std::memory_order_relaxed);
    }
    Check(rig->clients[kAppenders]
              ->Post("/v1/sql", rig->inputs.lookups[seq % kPoolTicks],
                     rig->headers[kAppenders])
              .status(),
          "warm-up sql");
  }
  Check(rig->clients[0]->Post("/v1/drain", "", rig->headers[0]).status(),
        "warm-up drain");
  rig->next_seq = kWarmupTicks;
  return rig;
}

// What one generator thread measured.
struct ClientStats {
  explicit ClientStats(int64_t t0) : latency(t0, kSliceNs) {}
  SlicedRun latency;  // due -> response, by due time
  Samples late;       // due -> send
  std::vector<Samples> late_by_slice;
  Samples service;    // send -> response (HttpClient::Post)
  double service_sum_ns = 0;
  uint64_t sent = 0, failed = 0, rejected_429 = 0, queue_rows_max = 0;
};

void RecordLate(ClientStats* out, int64_t t0, int64_t due, int64_t send) {
  const size_t slice = due <= t0 ? 0 : static_cast<size_t>((due - t0) / kSliceNs);
  if (slice >= out->late_by_slice.size()) out->late_by_slice.resize(slice + 1);
  out->late_by_slice[slice].Add(send - due);
}

uint64_t QueuedRows(const std::string& body) {
  const std::string marker = "\"queued_rows\":";
  const size_t at = body.find(marker);
  return at == std::string::npos
             ? 0
             : std::strtoull(body.c_str() + at + marker.size(), nullptr, 10);
}

// Appender `a`: its share of the combined tick stream, evenly interleaved
// with the other appender. `interval_ns` == 0 runs closed loop.
void AppendLoop(Rig* rig, size_t a, int64_t t0, int64_t end_ns,
                int64_t interval_ns, SpanLog* spans, ClientStats* out) {
  HttpClient& client = *rig->clients[a];
  PreciseTimers();
  for (uint64_t i = 0;; ++i) {
    const uint64_t seq = rig->next_seq + i * kAppenders + a;
    int64_t due = t0 + static_cast<int64_t>(i * kAppenders + a) * interval_ns /
                           static_cast<int64_t>(kAppenders);
    if (interval_ns == 0) due = NowNs();
    if (due >= end_ns) break;
    WaitUntilNs(due);
    const int64_t send = NowNs();
    auto resp = client.Post("/v1/append?chronicle=calls",
                            rig->inputs.bodies[seq % kPoolTicks], rig->headers[a]);
    const int64_t done = NowNs();
    if (spans != nullptr) {
      const uint64_t op = spans->Record("append", seq, due, done, 0);
      spans->Record("net.append_post", seq, send, done, op);
    }
    out->latency.At(due).append.Add(done - due);
    out->late.Add(send - due);
    RecordLate(out, t0, due, send);
    out->service.Add(done - send);
    out->service_sum_ns += static_cast<double>(done - send);
    ++out->sent;
    if (resp.ok() && resp->status == 202) {
      rig->accepted[a].push_back(seq);
      rig->accepted_ticks.fetch_add(1, std::memory_order_relaxed);
      if (spans != nullptr) {
        out->queue_rows_max = std::max(out->queue_rows_max, QueuedRows(resp->body));
      }
    } else {
      ++out->failed;
      if (resp.ok() && resp->status == 429) ++out->rejected_429;
    }
  }
}

void ReadLoop(Rig* rig, int64_t t0, int64_t end_ns, int64_t interval_ns,
              SpanLog* spans, ClientStats* out) {
  HttpClient& client = *rig->clients[kAppenders];
  PreciseTimers();
  for (uint64_t i = 0;; ++i) {
    const int64_t due = t0 + static_cast<int64_t>(i) * interval_ns;
    if (due >= end_ns) break;
    WaitUntilNs(due);
    const int64_t send = NowNs();
    auto resp = client.Post("/v1/sql", rig->inputs.lookups[i % kPoolTicks],
                            rig->headers[kAppenders]);
    const int64_t done = NowNs();
    if (spans != nullptr) {
      const uint64_t op = spans->Record("read", i, due, done, 0);
      spans->Record("net.sql_post", i, send, done, op);
    }
    out->latency.At(due).read.Add(done - due);
    out->late.Add(send - due);
    RecordLate(out, t0, due, send);
    out->service.Add(done - send);
    out->service_sum_ns += static_cast<double>(done - send);
    ++out->sent;
    if (!resp.ok() || resp->status != 200) ++out->failed;
  }
}

uint64_t AcceptedRows(const Rig& rig) {
  return rig.accepted_ticks.load(std::memory_order_relaxed) * kTickRows;
}

// Server-side request time (RED duration) per endpoint, summed.
double RedSumNs(const chronicle::obs::StatsSnapshot& snap, uint64_t* count) {
  double sum = 0;
  *count = 0;
  for (const auto& endpoint : snap.req.endpoints) {
    if (endpoint.endpoint == "append" || endpoint.endpoint == "sql") {
      sum += endpoint.duration.SumNanos();
      *count += endpoint.duration.count();
    }
  }
  return sum;
}

}  // namespace

RunResult RunWireMixed(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  if (config.wire_append_rows_per_s <= 0 || config.wire_sql_per_s <= 0) {
    std::fprintf(stderr, "perfbench: wire_mixed needs its schedule rates\n");
    std::exit(2);
  }

  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const int64_t start = NowNs();
    rig = SetUp(config, tracer != nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  const int64_t append_interval_ns = static_cast<int64_t>(
      1e9 * kTickRows * kAppenders / config.wire_append_rows_per_s);
  const int64_t read_interval_ns =
      static_cast<int64_t>(1e9 / config.wire_sql_per_s);
  std::vector<SpanLog*> logs(kAppenders + 1, nullptr);
  if (tracer != nullptr) {
    for (SpanLog*& log : logs) log = tracer->NewLog();
  }
  uint64_t red_count0 = 0;
  const double red_ns0 = RedSumNs(rig->session->CollectStats(), &red_count0);
  const uint64_t rows0 = AcceptedRows(*rig);

  // --- timed open loop; this thread closes each slice as it ends ---
  const int64_t t0 = NowNs() + 1000000;  // first sends due 1 ms from now
  const int64_t end_ns = t0 + static_cast<int64_t>(config.seconds * 1e9);
  SleepUntilNs(t0);
  SlicedRun run(t0, kSliceNs);
  std::vector<ClientStats> stats(kAppenders + 1, ClientStats(t0));
  {
    std::vector<std::thread> threads;
    for (size_t a = 0; a < kAppenders; ++a) {
      threads.emplace_back(AppendLoop, rig.get(), a, t0, end_ns,
                           append_interval_ns, logs[a], &stats[a]);
    }
    threads.emplace_back(ReadLoop, rig.get(), t0, end_ns, read_interval_ns,
                         logs[kAppenders], &stats[kAppenders]);
    for (int64_t boundary = t0 + kSliceNs; boundary < end_ns;
         boundary += kSliceNs) {
      SleepUntilNs(boundary);
      run.Mark(NowNs(), AcceptedRows(*rig) - rows0);
    }
    for (std::thread& t : threads) t.join();
  }
  const int64_t drain_start = NowNs();
  auto drained = rig->clients[0]->Post("/v1/drain", "", rig->headers[0]);
  const int64_t t_end = NowNs();
  run.Finish(t_end, AcceptedRows(*rig) - rows0);
  const double peak_rss = PeakRssMb();
  const chronicle::obs::StatsSnapshot snap = rig->session->CollectStats();
  ++result.attempted;
  if (!drained.ok() || drained->status != 200) ++result.failed;

  Samples late;
  std::vector<Samples> late_by_slice;
  for (const ClientStats& s : stats) {
    run.MergeSamples(s.latency);
    late.Append(s.late);
    if (s.late_by_slice.size() > late_by_slice.size()) {
      late_by_slice.resize(s.late_by_slice.size());
    }
    for (size_t i = 0; i < s.late_by_slice.size(); ++i) {
      late_by_slice[i].Append(s.late_by_slice[i]);
    }
    result.attempted += s.sent;
    result.failed += s.failed;
  }
  const uint64_t rows = AcceptedRows(*rig) - rows0;
  result.cpu_us_per_row = run.CpuUsPerRow();
  const double late_p99 = late.PercentileUs(0.99);
  double worst_slice_late_p50 = 0;
  for (const Samples& slice : late_by_slice) {
    worst_slice_late_p50 = std::max(worst_slice_late_p50, slice.PercentileUs(0.5));
  }
  if (worst_slice_late_p50 > kMaxSliceLateP50Us) {
    result.Invalid("wire_mixed generator fell behind its schedule: median "
                   "send lateness reached " +
                   std::to_string(worst_slice_late_p50) + " us in one second");
  }

  MetricTable& e = result.e2e;
  SetSlicedMetrics(run, Median(setup_s), setup_s.size(), rows, &e);
  e.Set("peak_rss_mb", peak_rss, "MiB");
  const uint64_t total_rows = AcceptedRows(*rig);
  e.Set("disk_bytes_per_row",
        static_cast<double>(DirBytes(rig->wal_dir)) /
            static_cast<double>(total_rows),
        "B", total_rows);
  e.Set("gen.late_p99_us", late_p99, "us", late.count());
  e.Set("gen.worst_slice_late_p50_us", worst_slice_late_p50, "us", late.count());

  if (tracer != nullptr) {
    AddSnapshotLayers(snap, total_rows,
                      {{"by_caller", "groupby"}, {"by_home", "join"}},
                      &result.layers);
    MetricTable& l = result.layers;
    Samples post, sql = stats[kAppenders].service;
    uint64_t queue_rows_max = 0, rejected = 0;
    for (size_t a = 0; a < kAppenders; ++a) {
      post.Append(stats[a].service);
      queue_rows_max = std::max(queue_rows_max, stats[a].queue_rows_max);
      rejected += stats[a].rejected_429;
    }
    l.Set("gen.late_p99_us", late_p99, "us", late.count());
    l.Set("net.append_post_p50_us", post.PercentileUs(0.5), "us", post.count());
    l.Set("net.append_post_p99_us", post.PercentileUs(0.99), "us", post.count());
    l.Set("net.sql_post_p50_us", sql.PercentileUs(0.5), "us", sql.count());
    l.Set("net.sql_post_p99_us", sql.PercentileUs(0.99), "us", sql.count());
    l.Set("net.queue_rows_max", static_cast<double>(queue_rows_max), "count");
    l.Set("net.rejected_429", static_cast<double>(rejected), "count");
    l.Set("net.drain_ms", static_cast<double>(t_end - drain_start) / 1e6, "ms");
    // Server-side request spans over the client-side time of the same
    // POSTs: the share of what the client waited for that the program's
    // own tracer accounts for (the rest is loopback and client framing).
    uint64_t red_count = 0;
    const double red_ns = RedSumNs(snap, &red_count) - red_ns0;
    double client_ns = 0;
    for (const ClientStats& s : stats) client_ns += s.service_sum_ns;
    l.Set("req.stage_coverage", client_ns > 0 ? red_ns / client_ns : 0,
          "ratio", red_count - red_count0);
  }

  // --- reference: the accepted ticks applied to an unsharded session ---
  {
    DatabaseOptions options;
    options.set_metrics(false);
    auto reference = OpenLoaded(rig->inputs, std::move(options));
    SumCountRecompute by_caller(0, 2);
    for (const auto& seqs : rig->accepted) {
      for (uint64_t seq : seqs) {
        const std::vector<Tuple>& tick = rig->inputs.ticks[seq % kPoolTicks];
        Check(reference->AppendRows("calls", {tick}).status(), "reference append");
        by_caller.Add(tick);
      }
    }
    for (const char* view : kViewNames) {
      std::vector<Tuple> got =
          Unwrap(rig->session->sharded_db()->ScanView(view), "ScanView");
      std::sort(got.begin(), got.end(), [](const Tuple& a, const Tuple& b) {
        return chronicle::TupleCompare(a, b) < 0;
      });
      result.Expect(std::string("wire_mixed ") + view,
                    DiffRows(got, DumpView(*reference->db(), {view})));
    }
    result.Expect("wire_mixed recompute by_caller",
                  by_caller.Diff(Unwrap(
                      rig->session->sharded_db()->ScanView("by_caller"), "ScanView")));
  }
  return result;
}

double CalibrateWire(const RunConfig& config) {
  auto rig = SetUp(config, false);
  const uint64_t rows0 = AcceptedRows(*rig);
  const int64_t t0 = NowNs();
  std::vector<ClientStats> stats(kAppenders + 1, ClientStats(t0));
  const int64_t end_ns = t0 + static_cast<int64_t>(config.seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t a = 0; a < kAppenders; ++a) {
    threads.emplace_back(AppendLoop, rig.get(), a, t0, end_ns, int64_t{0},
                         nullptr, &stats[a]);
  }
  // The lookups run on their schedule meanwhile: they share the session's
  // execution mutex with the ingest worker, so they take capacity too.
  threads.emplace_back(ReadLoop, rig.get(), t0, end_ns,
                       static_cast<int64_t>(1e9 / config.wire_sql_per_s),
                       nullptr, &stats[kAppenders]);
  for (std::thread& t : threads) t.join();
  Check(rig->clients[0]->Post("/v1/drain", "", rig->headers[0]).status(),
        "drain");
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
  return static_cast<double>(AcceptedRows(*rig) - rows0) / elapsed;
}

}  // namespace perfbench
