// perfbench: runs one benchmark workload and prints one JSON report line.
//
//   perfbench --workload {views_local|wire_mixed|shards_durable}
//             --seed N --seconds S --trace {0|1} --scratch DIR
//             [--wire-append-rows-per-s R --wire-sql-per-s Q]
//   perfbench --calibrate-wire --seconds S --scratch DIR --wire-sql-per-s Q
//
// --trace 0 measures the end-to-end metrics with no benchmark spans and
// the program's default ObservabilityOptions. --trace 1 runs the workload
// three times on the same seed and sizes, each for a third of the time:
// untraced, traced (benchmark spans on, plus the program's
// profile_view_latency and request_sample_rate = 1.0), untraced. The
// traced third gives the per-layer metrics; its CPU per row over that of
// the untraced thirds gives obs.trace_cost.
//
// perfbench/run.py builds this binary and turns the report into the
// benchmark's result line.

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

void PrintTable(std::FILE* out, const MetricTable& table) {
  std::fprintf(out, "{");
  bool first = true;
  for (const auto& [name, m] : table.entries()) {
    std::fprintf(out, "%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\",\"samples\":%llu}",
                 first ? "" : ",", name.c_str(), m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
    first = false;
  }
  std::fprintf(out, "}");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

RunResult RunWorkload(const RunConfig& config, Tracer* tracer) {
  if (config.workload == "views_local") return RunViewsLocal(config, tracer);
  if (config.workload == "wire_mixed") return RunWireMixed(config, tracer);
  return RunShardsDurable(config, tracer);
}

int Main(int argc, char** argv) {
  RunConfig config;
  int trace = 0;
  bool calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--scratch") {
      config.scratch = value();
    } else if (arg == "--wire-append-rows-per-s") {
      config.wire_append_rows_per_s = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--wire-sql-per-s") {
      config.wire_sql_per_s = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--calibrate-wire") {
      calibrate = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool assertions = true;
#else
  const bool assertions = false;
#endif
  if (build_type == "Debug" || assertions) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build with assertions "
                 "%s; build RelWithDebInfo (the repository default) or "
                 "Release\n",
                 build_type.c_str(), assertions ? "on" : "off");
    return 2;
  }
  if (config.scratch.empty() || config.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --scratch and --seconds are required\n");
    return 2;
  }
  FreshDir(config.scratch);

  if (calibrate) {
    const double rows_per_s = CalibrateWire(config);
    std::printf("{\"wire_closed_loop_rows_per_s\":%.1f}\n", rows_per_s);
    RemoveDir(config.scratch);
    return 0;
  }
  if (config.workload != "views_local" && config.workload != "wire_mixed" &&
      config.workload != "shards_durable") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }

  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  const double steal0 = StealSeconds();

  RunResult result;
  MetricTable untraced_e2e;
  size_t spans = 0;
  if (trace == 0) {
    result = RunWorkload(config, nullptr);
  } else {
    // Untraced, traced, untraced: comparing the traced third with the mean
    // of the two around it cancels drift over the run (heap growth, a
    // neighbour's load) that a plain A-then-B order would charge to tracing.
    RunConfig third = config;
    third.seconds = config.seconds / 3;
    RunResult before = RunWorkload(third, nullptr);
    third.traced = true;
    Tracer tracer;
    result = RunWorkload(third, &tracer);
    third.traced = false;
    RunResult after = RunWorkload(third, nullptr);
    untraced_e2e = before.e2e;
    result.layers.Set(
        "obs.trace_cost",
        2 * result.cpu_us_per_row / (before.cpu_us_per_row + after.cpu_us_per_row),
        "ratio", 3);
    for (const RunResult* plain : {&before, &after}) {
      result.attempted += plain->attempted;
      result.failed += plain->failed;
      if (!plain->correct) result.correct = false;
      result.problems.insert(result.problems.end(), plain->problems.begin(),
                             plain->problems.end());
    }
    spans = tracer.total_spans();
    tracer.Write(config.scratch + "/../spans-" + config.workload + "-seed" +
                 std::to_string(config.seed) + ".json");
  }
  RemoveDir(config.scratch);
  const double steal_s = StealSeconds() - steal0;

  utsname host{};
  uname(&host);
  std::FILE* out = stdout;
  std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
               "\"trace\":%d,",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               trace);
  std::fprintf(out,
               "\"env\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
               "\"kernel\":\"%s\",\"loadavg_start\":[%.2f,%.2f,%.2f],"
               "\"cpu_steal_s\":%.3f},",
               std::thread::hardware_concurrency(),
               JsonEscape(PERFBENCH_COMPILER).c_str(), build_type.c_str(),
               JsonEscape(host.release).c_str(), load[0], load[1], load[2],
               steal_s);
  std::fprintf(out, "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"error_ratio\":%.6g,",
               result.correct ? "true" : "false",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               result.attempted == 0
                   ? 1.0
                   : static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted));
  std::fprintf(out, "\"problems\":[");
  for (size_t i = 0; i < result.problems.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ",",
                 JsonEscape(result.problems[i]).c_str());
  }
  std::fprintf(out, "],\"end_to_end\":");
  PrintTable(out, trace == 0 ? result.e2e : untraced_e2e);
  std::fprintf(out, ",\"per_layer\":");
  PrintTable(out, result.layers);
  std::fprintf(out, ",\"spans\":%zu}\n", spans);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
