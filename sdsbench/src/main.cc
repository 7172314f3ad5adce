// sdsbench driver: runs one workload and prints its metrics, the output
// checks, and as the last line one JSON result object.
//
//   sdsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--fingerprints FILE] [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes a Chrome trace
// to DIR/<workload>-seed<N>.trace.json.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "telemetry/trace_export.h"

namespace {

using sdsbench::Metric;

int usage(const char* error) {
  std::fprintf(stderr,
               "sdsbench: %s\n"
               "usage: sdsbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                [--fingerprints FILE] [--out-dir DIR] "
               "[--git-sha SHA]\n"
               "workloads:",
               error);
  for (const auto& spec : sdsbench::workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                 spec.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Shortest decimal that round-trips (every digit as measured).
std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %16s %-6s%s%s\n", m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(), m.note.empty() ? "" : "  ",
              m.note.empty() ? "" : ("(" + m.note + ")").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sdsbench::Options options;
  std::string workload;
  std::string git_sha = "unknown";
  std::string out_dir = "sdsbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--fingerprints") {
      options.fingerprints_path = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  options.spec = sdsbench::find_workload(workload);
  if (options.spec == nullptr) return usage("unknown or missing --workload");
  if (options.fingerprints_path.empty()) {
    return usage("--fingerprints is required");
  }

  std::printf("sdsbench workload=%s seed=%llu seconds=%s trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0);
  std::printf("provenance: hw_threads=%u build_type=%s compiler=\"%s\" "
              "git_sha=%s seed=%llu\n",
              std::thread::hardware_concurrency(), SDSBENCH_BUILD_TYPE,
              SDSBENCH_COMPILER, git_sha.c_str(),
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);

  sds::telemetry::SpanTracer tracer(1u << 20);
  if (options.trace) {
    options.tracer = &tracer;
    tracer.set_track_name(sdsbench::kBenchTrack, "sdsbench driver");
  }
  const double start = sdsbench::wall_seconds();
  sdsbench::RunReport report = options.spec->kind == sdsbench::Kind::kSim
                                   ? sdsbench::run_sim(options)
                                   : sdsbench::run_live(options);

  std::printf("%s: %s (%.1f s)\n", workload.c_str(), report.status.c_str(),
              sdsbench::wall_seconds() - start);
  if (report.status != "ran") return 3;  // nothing measured: no result line

  for (auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.check(false, m.name + " is not finite");
      m.value = 0;
    }
    print_metric(m);
  }
  if (!report.extra.empty()) {
    std::printf("  -- printed only, not in the result line:\n");
    for (const auto& m : report.extra) print_metric(m);
  }
  const double failed_pct =
      report.attempted > 0 ? 100.0 * static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 100.0;
  std::printf("  %-36s %16s %-6s  (%llu of %llu attempted cycles)\n",
              "failed_cycle_pct", number(failed_pct).c_str(), "%",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& line : report.checks) std::printf("  check %s\n", line.c_str());

  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/" + workload + "-seed" +
                             std::to_string(options.seed) + ".trace.json";
    const auto written = sds::telemetry::write_chrome_trace(path, tracer, "sdsbench");
    report.check(written.is_ok(), "trace written to " + path);
    std::printf("  trace: %s (%llu spans)\n", path.c_str(),
                static_cast<unsigned long long>(tracer.recorded()));
  }

  const bool correct = report.correct() && report.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
