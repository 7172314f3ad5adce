// Shared bench harness: runs a simulator configuration, summarizes its
// cycle latency and controller resource usage, and prints rows in the
// same shape the paper reports (mean latency + phase breakdown; CPU% /
// memory / tx / rx per controller).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"
#include "telemetry/trace_export.h"

namespace sds::bench {

/// What one bench row reports about a run.
struct RunSummary {
  double total_ms = 0;
  double collect_ms = 0;
  double compute_ms = 0;
  double enforce_ms = 0;
  double cycles = 0;
  sim::ControllerUsage global{};
  sim::ControllerUsage aggregator{};
  // -- Resilience accounting (all zero for fault-free runs) -------------
  /// Percentage of cycles closed on quorum/deadline instead of full
  /// replies.
  double degraded_pct = 0;
  /// Stage-cycles decided on stale state, per executed cycle.
  double stale_per_cycle = 0;
  /// Mean restart-to-first-fresh-collect gap (ms).
  double recovery_ms = 0;
  /// Faults the plan injected.
  double faults = 0;
};

/// Run `config` once. The paper repeats each test at least 3 times
/// (§III-D) to average out noise; the simulator has none, and every field
/// printed here is the same for any seed
/// (tests/sim/seed_invariance_test.cc), so one run is the measurement.
inline Result<RunSummary> run_config(const sim::ExperimentConfig& config) {
  auto result = sim::run_experiment(config);
  if (!result.is_ok()) return result.status();
  const auto cycles = static_cast<double>(result->cycles);
  RunSummary out;
  out.total_ms = result->stats.mean_total_ms();
  out.collect_ms = result->stats.mean_collect_ms();
  out.compute_ms = result->stats.mean_compute_ms();
  out.enforce_ms = result->stats.mean_enforce_ms();
  out.cycles = cycles;
  out.global = result->global;
  out.aggregator = result->aggregator;
  if (cycles > 0) {
    out.degraded_pct =
        100.0 * static_cast<double>(result->degraded_cycles) / cycles;
    out.stale_per_cycle =
        static_cast<double>(result->stale_stage_reports) / cycles;
  }
  out.recovery_ms = result->mean_recovery_ms;
  out.faults = static_cast<double>(result->faults_injected);
  return out;
}

inline void print_title(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
}

inline void print_latency_header() {
  std::printf("%-24s %10s %10s %10s %10s %10s %8s\n", "configuration",
              "total(ms)", "paper(ms)", "collect", "compute", "enforce",
              "cycles");
}

inline void print_latency_row(const std::string& label,
                              const RunSummary& result, double paper_ms) {
  std::printf("%-24s %10.2f %10.1f %10.2f %10.2f %10.2f %8.0f\n",
              label.c_str(), result.total_ms, paper_ms, result.collect_ms,
              result.compute_ms, result.enforce_ms, result.cycles);
}

inline void print_resource_header() {
  std::printf("%-24s %-11s %9s %9s %9s %9s\n", "configuration", "controller",
              "cpu(%)", "mem(GB)", "tx(MB/s)", "rx(MB/s)");
}

inline void print_resource_row(const std::string& label,
                               const std::string& controller,
                               const sim::ControllerUsage& usage) {
  std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", label.c_str(),
              controller.c_str(), usage.cpu_percent, usage.memory_gb,
              usage.transmitted_mbps, usage.received_mbps);
}

inline void print_paper_note(const char* note) { std::printf("  paper: %s\n", note); }

inline void print_resilience_header() {
  std::printf("%-24s %10s %10s %10s %10s %12s %8s %8s\n", "configuration",
              "total(ms)", "collect", "degraded%", "stale/cyc", "recovery(ms)",
              "faults", "cycles");
}

inline void print_resilience_row(const std::string& label,
                                 const RunSummary& result) {
  std::printf("%-24s %10.2f %10.2f %9.1f%% %10.2f %12.2f %8.0f %8.0f\n",
              label.c_str(), result.total_ms, result.collect_ms,
              result.degraded_pct, result.stale_per_cycle,
              result.recovery_ms, result.faults, result.cycles);
}

/// Resolve the benches' `--fault-plan=FILE` flag: parse FILE (see
/// fault::FaultPlan::parse for the format) and return the plan, or
/// nullopt when the flag is absent. A malformed file aborts the bench —
/// silently falling back to a built-in plan would mislabel the results.
inline std::optional<fault::FaultPlan> fault_plan_flag(int argc, char** argv) {
  constexpr std::string_view kFlag = "--fault-plan=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) != kFlag) continue;
    const std::string path(arg.substr(kFlag.size()));
    auto plan = fault::FaultPlan::load(path);
    if (!plan.is_ok()) {
      std::fprintf(stderr, "--fault-plan=%s: %s\n", path.c_str(),
                   plan.status().to_string().c_str());
      std::exit(2);
    }
    std::printf("  fault plan: %s\n", path.c_str());
    return *plan;
  }
  return std::nullopt;
}

/// True when `--quick` was passed (smoke-test mode: tiny scales and a
/// short horizon so CTest can exercise the bench in milliseconds).
inline bool quick_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") return true;
  }
  return false;
}

/// True when `--extended` was passed. Figure benches that support it
/// append projection rows beyond the paper's scales (100k–1M stages,
/// million-stage control cycles); the default rows and their printed
/// output stay byte-identical whether or not the flag is given.
inline bool extended_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--extended") return true;
  }
  return false;
}

/// Default simulated stress duration for bench runs. The paper runs >= 5
/// minutes; the deterministic simulator's means settle within seconds,
/// so benches default to 10 s. Override with SDSCALE_BENCH_SECONDS.
inline Nanos bench_duration() {
  if (const char* env = std::getenv("SDSCALE_BENCH_SECONDS")) {
    const long secs = std::strtol(env, nullptr, 10);
    if (secs > 0) return seconds(secs);
  }
  return seconds(10);
}

/// Optional machine-readable output for the figure/table benches. Each
/// bench main() constructs one with its binary name; when
/// `--telemetry-out=<dir>` (or the SDSCALE_TELEMETRY_OUT env var) names a
/// directory, every sim run attach()ed to it shares one MetricsRegistry +
/// SpanTracer, and flush() (or the destructor) drops three artifacts next
/// to the printed table:
///   <dir>/<name>.metrics.jsonl  — JSONL snapshot (cycle histograms per
///                                 configuration + exact bench_* row gauges)
///   <dir>/<name>.prom           — Prometheus text exposition
///   <dir>/<name>.trace.json     — Chrome-tracing spans (one per cycle
///                                 phase), loadable at ui.perfetto.dev
class Telemetry {
 public:
  explicit Telemetry(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)) {
    constexpr std::string_view kFlag = "--telemetry-out=";
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.substr(0, kFlag.size()) == kFlag) {
        out_dir_ = std::string(arg.substr(kFlag.size()));
      }
    }
    if (out_dir_.empty()) {
      if (const char* env = std::getenv("SDSCALE_TELEMETRY_OUT")) {
        out_dir_ = env;
      }
    }
    if (!out_dir_.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(out_dir_, ec);
    }
  }

  ~Telemetry() { flush(); }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] bool enabled() const { return !out_dir_.empty(); }

  /// Point a sim config at the shared registry/tracer; `label` becomes the
  /// configuration="<label>" value distinguishing this run's series.
  void attach(sim::ExperimentConfig& config, const std::string& label) {
    if (!enabled()) return;
    config.metrics = &registry_;
    config.tracer = &tracer_;
    config.telemetry_label = label;
  }

  /// Record the exact values of one printed table row as gauges, so the
  /// JSONL snapshot reproduces the table verbatim.
  void observe(const std::string& label, const RunSummary& result,
               double paper_ms) {
    if (!enabled()) return;
    const telemetry::Labels labels{{"configuration", label}};
    registry_.gauge("bench_total_ms_mean", labels)->set(result.total_ms);
    registry_.gauge("bench_collect_ms_mean", labels)->set(result.collect_ms);
    registry_.gauge("bench_compute_ms_mean", labels)->set(result.compute_ms);
    registry_.gauge("bench_enforce_ms_mean", labels)->set(result.enforce_ms);
    registry_.gauge("bench_paper_ms", labels)->set(paper_ms);
    registry_.gauge("bench_cycles_mean", labels)->set(result.cycles);
  }

  /// Record one printed resilience row (degraded-cycle rate, decision
  /// staleness, recovery time, injected faults) as gauges.
  void observe_resilience(const std::string& label,
                          const RunSummary& result) {
    if (!enabled()) return;
    const telemetry::Labels labels{{"configuration", label}};
    registry_.gauge("bench_degraded_percent", labels)->set(result.degraded_pct);
    registry_.gauge("bench_stale_per_cycle", labels)
        ->set(result.stale_per_cycle);
    registry_.gauge("bench_recovery_ms_mean", labels)->set(result.recovery_ms);
    registry_.gauge("bench_faults_injected_mean", labels)->set(result.faults);
  }

  /// Record one printed resource row (Tables II–IV shape) as gauges.
  void observe_usage(const std::string& label, const std::string& controller,
                     const sim::ControllerUsage& usage) {
    if (!enabled()) return;
    const telemetry::Labels labels{{"configuration", label},
                                   {"controller", controller}};
    registry_.gauge("bench_cpu_percent", labels)->set(usage.cpu_percent);
    registry_.gauge("bench_memory_gb", labels)->set(usage.memory_gb);
    registry_.gauge("bench_tx_mbps", labels)->set(usage.transmitted_mbps);
    registry_.gauge("bench_rx_mbps", labels)->set(usage.received_mbps);
  }

  [[nodiscard]] telemetry::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] telemetry::SpanTracer& tracer() { return tracer_; }

  /// Write all three artifacts now (idempotent; also runs on destruction).
  void flush() {
    if (!enabled() || flushed_) return;
    flushed_ = true;
    const auto snapshot = registry_.snapshot();
    const std::string base = out_dir_ + "/" + name_;
    (void)telemetry::append_jsonl(base + ".metrics.jsonl", snapshot);
    (void)telemetry::write_prometheus(base + ".prom", snapshot);
    (void)telemetry::write_chrome_trace(base + ".trace.json", tracer_, name_);
    std::printf("  telemetry: %s.{metrics.jsonl,prom,trace.json}\n",
                base.c_str());
  }

 private:
  std::string name_;
  std::string out_dir_;
  bool flushed_ = false;
  telemetry::MetricsRegistry registry_;
  telemetry::SpanTracer tracer_;
};

/// Gnuplot-friendly data-file writer. When SDSCALE_BENCH_OUT names a
/// directory, each figure bench drops a whitespace-separated .dat there
/// (x  total  collect  compute  enforce  paper); tools/plots/*.gp turn
/// them into the paper's figures.
class DatWriter {
 public:
  explicit DatWriter(const std::string& name) {
    if (const char* dir = std::getenv("SDSCALE_BENCH_OUT")) {
      path_ = std::string(dir) + "/" + name + ".dat";
      file_ = std::fopen(path_.c_str(), "w");
      if (file_ != nullptr) {
        std::fprintf(file_,
                     "# x total_ms collect_ms compute_ms enforce_ms paper_ms\n");
      }
    }
  }

  ~DatWriter() {
    if (file_ != nullptr) {
      std::fclose(file_);
      std::printf("  wrote %s\n", path_.c_str());
    }
  }

  DatWriter(const DatWriter&) = delete;
  DatWriter& operator=(const DatWriter&) = delete;

  void row(double x, const RunSummary& result, double paper_ms) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%g %.4f %.4f %.4f %.4f %.4f\n", x, result.total_ms,
                 result.collect_ms, result.compute_ms, result.enforce_ms,
                 paper_ms);
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// DatWriter counterpart for the resilience figures, whose columns are
/// the degraded-cycle metrics rather than the phase breakdown.
class ResilienceDatWriter {
 public:
  explicit ResilienceDatWriter(const std::string& name) {
    if (const char* dir = std::getenv("SDSCALE_BENCH_OUT")) {
      path_ = std::string(dir) + "/" + name + ".dat";
      file_ = std::fopen(path_.c_str(), "w");
      if (file_ != nullptr) {
        std::fprintf(
            file_,
            "# x total_ms degraded_pct stale_per_cycle recovery_ms faults\n");
      }
    }
  }

  ~ResilienceDatWriter() {
    if (file_ != nullptr) {
      std::fclose(file_);
      std::printf("  wrote %s\n", path_.c_str());
    }
  }

  ResilienceDatWriter(const ResilienceDatWriter&) = delete;
  ResilienceDatWriter& operator=(const ResilienceDatWriter&) = delete;

  void row(double x, const RunSummary& result) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%g %.4f %.4f %.4f %.4f %.1f\n", x, result.total_ms,
                 result.degraded_pct, result.stale_per_cycle,
                 result.recovery_ms, result.faults);
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace sds::bench
