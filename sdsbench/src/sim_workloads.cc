// Simulator workloads (sim_hier_20k, sim_flat_churn).
//
// Timed run: K-cycle blocks run back to back for --seconds, between two
// batches of one-cycle runs that give setup_s. Each block yields one steady-state sample,
// (block wall - one-cycle wall) / (K - 1): the wall time the simulator
// spends per simulated cycle once the topology is built. Every block is
// fingerprinted, so each timed block is also an output check.
#include <optional>

#include "layers.h"
#include "stats.h"
#include "telemetry/metrics.h"

namespace sdsbench {

namespace {

/// Output checks on one simulated run; returns false on any failure.
bool check_run(const WorkloadSpec& spec, const sds::sim::ExperimentResult& r,
               std::uint64_t cycles, const sds::core::Budgets& budgets,
               RunReport& report, const std::string& label) {
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      report.check(false, label + ": " + what);
      ok = false;
    }
  };
  expect(r.cycles == cycles, "ran " + std::to_string(r.cycles) + " of " +
                                 std::to_string(cycles) + " cycles");
  if (spec.fault_plan) {
    // Degraded cycles are the plan's expected output; stages that missed
    // a cycle's rules keep older ones, so no budget invariant holds here.
    // The fingerprint is the check.
    expect(r.faults_injected > 0 && r.degraded_cycles > 0,
           "the fault plan injected nothing");
    return ok;
  }
  expect(r.degraded_cycles == 0, "degraded cycles without a fault plan");
  std::size_t unruled = 0;
  for (std::size_t i = 0; i < r.final_data_limits.size(); ++i) {
    if (r.final_data_limits[i] < 0 || r.final_meta_limits[i] < 0) ++unruled;
  }
  expect(r.final_data_limits.size() == spec.stages && unruled == 0,
         std::to_string(unruled) + " stages hold no rule");
  const double slack = 1 + 1e-9;
  expect(r.final_data_limit_sum <= budgets.data_iops * slack &&
             r.final_meta_limit_sum <= budgets.meta_iops * slack,
         "enforced limits exceed the budget");
  return ok;
}

}  // namespace

RunReport run_sim(const Options& options) {
  const WorkloadSpec& spec = *options.spec;
  const Shape shape = shape_of(spec);
  const std::uint64_t k = spec.block_cycles;
  const std::string name(spec.name);
  RunReport report;

  const Demand demand = draw_demand(options.seed, spec.stages);
  std::optional<sds::fault::FaultPlan> plan;
  if (spec.fault_plan) plan = churn_plan(options.seed);
  const auto config = [&](std::uint64_t cycles) {
    return sim_config(shape, demand, nullptr, plan ? &*plan : nullptr, cycles);
  };
  const sds::core::Budgets budgets = config(1).budgets;

  auto table = FingerprintTable::load(options.fingerprints_path);
  if (!table.is_ok()) {
    report.check(false, "fingerprint table: " + table.status().to_string());
    return report;
  }

  // Fingerprint of the first block; every later block must repeat it, and
  // shares its verdict against the recorded value.
  std::optional<std::uint64_t> block_print;
  bool print_recorded_ok = true;
  const auto check_block = [&](const SimRun& run, const std::string& label) {
    bool ok = check_run(spec, run.result, k, budgets, report, label);
    const std::uint64_t print = sim_fingerprint(run.result);
    if (!block_print) {
      block_print = print;
      const FingerprintVerdict verdict =
          check_fingerprint(*table, name, options.seed, k, print);
      print_recorded_ok = verdict != FingerprintVerdict::kMismatch;
      report.check(print_recorded_ok,
                   std::string("fingerprint ") + to_hex(print) + " (" +
                       std::to_string(k) + " cycles, seed " +
                       std::to_string(options.seed) + "): " + to_string(verdict));
    } else if (print != *block_print) {
      report.check(false, label + ": fingerprint " + to_hex(print) +
                              " differs from the first block's");
      ok = false;
    }
    ok = ok && print_recorded_ok;
    report.attempted += k;
    if (!ok) report.failed += k;
    return ok;
  };
  const auto run_or_fail = [&](std::uint64_t cycles,
                               sds::telemetry::MetricsRegistry* registry,
                               sds::telemetry::SpanTracer* sim_spans,
                               const char* span) -> std::optional<SimRun> {
    auto cfg = config(cycles);
    cfg.metrics = registry;
    cfg.tracer = sim_spans;
    auto run = timed_run(cfg, options.tracer, span);
    if (!run.is_ok()) {
      report.check(false, "run_experiment: " + run.status().to_string());
      return std::nullopt;
    }
    return std::move(run).value();
  };

  if (!options.trace) {
    std::vector<double> setup_s;
    std::vector<double> setup_cpu_s;
    const auto set_up_once = [&]() -> std::optional<double> {
      auto one = run_or_fail(1, nullptr, nullptr, "sim.setup");
      if (!one) return std::nullopt;
      setup_cpu_s.push_back(one->cpu_s);
      return one->wall_s;
    };
    if (!sample_setups(setup_s, set_up_once)) return report;
    std::vector<double> block_wall_s;
    std::vector<double> block_cpu_s;
    const double start = wall_seconds();
    while (block_wall_s.size() < 2 || wall_seconds() - start < options.seconds) {
      auto block = run_or_fail(k, nullptr, nullptr, "sim.block");
      if (!block) return report;
      check_block(*block, "block " + std::to_string(block_wall_s.size() + 1));
      block_wall_s.push_back(block->wall_s);
      block_cpu_s.push_back(block->cpu_s);
    }
    const double peak_mb = peak_rss_mb();
    if (!sample_setups(setup_s, set_up_once)) return report;
    const double one_wall = median(setup_s);
    const double one_cpu = median(setup_cpu_s);
    std::vector<double> cycle_ms;
    std::vector<double> cpu_ms;
    const double steady_cycles = static_cast<double>(k - 1);
    for (std::size_t b = 0; b < block_wall_s.size(); ++b) {
      cycle_ms.push_back((block_wall_s[b] - one_wall) * 1e3 / steady_cycles);
      cpu_ms.push_back((block_cpu_s[b] - one_cpu) * 1e3 / steady_cycles);
    }
    if (report.failed == 0) {
      report.check(true, std::to_string(cycle_ms.size()) + " blocks of " +
                             std::to_string(k) + " cycles: " +
                             (spec.fault_plan
                                  ? "faults injected, degraded cycles closed"
                                  : "no degraded cycle, every stage holds a "
                                    "rule, limits within budget"));
    }
    const LatencySummary cycles = summarize(cycle_ms);
    const std::string n = "n=" + std::to_string(cycles.count) + " blocks of " +
                          std::to_string(k) + " cycles";
    report.add("cycles_per_s", 1e3 / cycles.p50, "1/s", n);
    report.add("cycle_p50_ms", cycles.p50, "ms", n);
    report.add("cycle_p90_ms", cycles.p90, "ms", n);
    report.add_extra("cycle_p99_ms", cycles.p99, "ms",
                     n + ", " + std::to_string(cycles.beyond_p99) + " beyond");
    report.add("cpu_ms_per_cycle", median(cpu_ms), "ms", n);
    report.add("setup_s", one_wall, "s",
               "n=" + std::to_string(setup_s.size()) +
                   " one-cycle runs, before and after the blocks");
    report.add("peak_rss_mb", peak_mb, "MiB",
               "VmHWM after the first set-up batch and the blocks");
    return report;
  }

  // Traced run: one untraced and one traced block, then the replays. The
  // traced block records the simulator's own per-phase spans (in virtual
  // time, so they stay out of the benchmark's wall-clock trace) and its
  // registry instruments.
  auto one = run_or_fail(1, nullptr, nullptr, "sim.setup");
  if (!one) return report;
  auto untraced = run_or_fail(k, nullptr, nullptr, "sim.block");
  if (!untraced) return report;
  check_block(*untraced, "untraced block");
  sds::telemetry::MetricsRegistry registry;
  sds::telemetry::SpanTracer sim_spans;
  auto traced = run_or_fail(k, &registry, &sim_spans, "sim.block.traced");
  if (!traced) return report;
  check_block(*traced, "traced block");
  report.check(sim_spans.recorded() > 0,
               "the traced block recorded " +
                   std::to_string(sim_spans.recorded()) + " simulator spans");

  const SimSteady st = steady(*one, *traced, spec.aggregators);
  add_replayed_layers(report, shape, demand, nullptr, budgets, st,
                      spec.fault_plan, "cycles 2.." + std::to_string(k),
                      options.tracer);
  const auto& r = traced->result;
  const double cycles = static_cast<double>(r.cycles);
  report.add("wire.collect_bytes_per_cycle", st.collect_bytes_per_cycle,
             "bytes", "modeled");
  report.add("wire.enforce_bytes_per_cycle", st.controller_tx_bytes_per_cycle,
             "bytes", "modeled controller transmit");
  report.add("fault.injected_per_cycle",
             static_cast<double>(r.faults_injected) / cycles, "count");
  report.add("fault.degraded_pct",
             static_cast<double>(r.degraded_cycles) * 100 / cycles, "%");
  report.add("fault.stale_per_cycle",
             static_cast<double>(r.stale_stage_reports) / cycles, "count");
  report.add("telemetry.trace_overhead_pct",
             (traced->wall_s - untraced->wall_s) * 100 / untraced->wall_s, "%",
             "block with spans and registry vs without");
  if (spec.delta_collect) {
    report.add_extra("proto.delta_frame_share",
                     static_cast<double>(r.collect_frames_delta) /
                         static_cast<double>(r.collect_frames_delta +
                                             r.collect_frames_full),
                     "share");
  }
  if (spec.fault_plan) {
    report.add_extra("fault.recovery_ms", r.mean_recovery_ms, "ms");
  }
  return report;
}

}  // namespace sdsbench
