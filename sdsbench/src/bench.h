// sdsbench — workload table, run options and the report every workload
// runner fills. See README.md for what each workload is for.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "fingerprint.h"
#include "inputs.h"
#include "telemetry/span_tracer.h"

namespace sdsbench {

enum class Kind { kSim, kLive };
enum class Net { kNone, kTcp, kInProc };

struct WorkloadSpec {
  std::string_view name;
  Kind kind = Kind::kSim;
  std::size_t stages = 0;
  std::size_t aggregators = 0;
  std::size_t stages_per_job = 50;
  bool delta_collect = false;
  /// sim_flat_churn: run under churn_plan(seed).
  bool fault_plan = false;
  Net net = Net::kNone;
  /// Live: stage hosts the stages are spread over.
  std::size_t hosts = 0;
  /// Live: budgets as a share of total base demand (0 = the library's
  /// default budgets, which the simulator workloads use).
  double budget_share = 0;
  /// Live: job churn period in cycles (0 = constant demand).
  std::uint64_t churn_period = 0;
  /// Simulated cycles per timed block (sim) or per traced pass (live).
  std::uint64_t block_cycles = 0;
};

/// Upper bound on the simulated time any simulator run may take (sizes
/// the run's duration cap and the fault plan's compiled horizon).
inline constexpr sds::Nanos kSimHorizon = sds::seconds(600);

[[nodiscard]] std::span<const WorkloadSpec> workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// The topology a workload or a replay runs: a live workload's sim
/// prediction uses the live topology under the simulator.
struct Shape {
  std::size_t stages = 0;
  std::size_t aggregators = 0;
  std::size_t stages_per_job = 50;
  bool delta_collect = false;
  [[nodiscard]] std::size_t jobs() const {
    return (stages + stages_per_job - 1) / stages_per_job;
  }
};
[[nodiscard]] Shape shape_of(const WorkloadSpec& spec);

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fingerprints_path;
  /// Span sink of the traced run (null when untraced).
  sds::telemetry::SpanTracer* tracer = nullptr;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Sample count / provenance shown next to the value.
  std::string note;
};

struct RunReport {
  /// "ran" or "skipped(<reason>)".
  std::string status = "ran";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metrics of the result line: the end-to-end set untraced, the
  /// per-layer set traced.
  std::vector<Metric> metrics;
  /// Per-layer metrics that apply to this workload only; printed, not
  /// part of the result line.
  std::vector<Metric> extra;
  /// One line per output check ("ok: ..." or "FAIL: ...").
  std::vector<std::string> checks;

  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const;
  void add(std::string name, double value, std::string unit,
           std::string note = {});
  void add_extra(std::string name, double value, std::string unit,
                 std::string note = {});
};

[[nodiscard]] RunReport run_sim(const Options& options);
[[nodiscard]] RunReport run_live(const Options& options);

// -- Shared measurement helpers ------------------------------------------

[[nodiscard]] double wall_seconds();
/// Process CPU time (all threads), seconds.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Set-up is measured in two batches of kSetupsPerBatch, one before and
/// one after the timed loop, so its samples span the run; setup_s is the
/// median of both. The count is fixed rather than timed so that the
/// allocator state the timed loop and peak_rss_mb see does not depend on
/// the machine's speed.
inline constexpr std::size_t kSetupsPerBatch = 12;

/// One batch: set up through `set_up_once` (which returns its seconds, or
/// nullopt on failure), appending each sample to `samples`. Returns false
/// when a set-up failed.
template <typename SetUpOnce>
bool sample_setups(std::vector<double>& samples, SetUpOnce&& set_up_once) {
  for (std::size_t n = 0; n < kSetupsPerBatch; ++n) {
    const auto seconds = set_up_once();
    if (!seconds) return false;
    samples.push_back(*seconds);
  }
  return true;
}

/// Closed-loop rates and tails are taken per window of this many
/// consecutive cycles, and reported as the median over the windows, so a
/// host stall moves one window rather than the run. Each window's 90th
/// percentile has ten samples beyond it.
inline constexpr std::size_t kWindowCycles = 100;

/// Track the benchmark's own spans render on in the Chrome trace.
inline constexpr std::uint32_t kBenchTrack = 100;

/// Span around one call from the benchmark into a layer, on the
/// benchmark's track; records on destruction (no-op when tracer is null).
[[nodiscard]] inline sds::telemetry::ScopedSpan layer_span(
    sds::telemetry::SpanTracer* tracer, std::string name, std::string category,
    std::uint64_t cycle = 0) {
  sds::telemetry::Span span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.track = kBenchTrack;
  span.cycle = cycle;
  return {tracer, sds::SystemClock::instance(), std::move(span)};
}

}  // namespace sdsbench
