// Ablation — control-cycle periodicity vs QoS reaction (paper §II-B:
// "the periodicity of these control cycles determines how fast the
// control plane reacts to changes in the system", and Obs. #4 on bursty
// workloads needing low-latency cycles).
//
// Workload: 1,000 stages with staggered on/off bursts (1 s on at 2,000
// data ops/s, 1 s off at 50 ops/s), so roughly half the demand picture
// changes every second. Budget: 60% of peak aggregate demand — always
// contended. Metric: mean PFS load factor sampled at cycle boundaries;
// slow control planes strand budget on stages whose burst ended (stale
// high limits) while starving stages whose burst began (stale low
// limits), which shows up as lower utilization.
#include "bench/harness.h"
#include "bench/sweep.h"
#include "workload/generators.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title("Ablation — control period vs PFS utilization (bursty)");
  std::printf("%-16s %10s %10s %12s %10s\n", "period", "cycles",
              "cycle(ms)", "data-util", "meta-util");
  bench::Telemetry telemetry("ablation_control_period", argc, argv);
  bench::Sweep parallel_sweep(argc, argv);

  const struct {
    Nanos period;
    const char* label;
  } sweeps[] = {
      {Nanos{0}, "stress (0)"}, {millis(100), "100 ms"},
      {millis(500), "500 ms"},  {seconds(1), "1 s"},
      {seconds(4), "4 s"},
  };

  int rc = 0;
  for (const auto& sweep : sweeps) {
    sim::ExperimentConfig config;
    config.num_stages = 1000;
    config.stages_per_job = 20;
    config.duration = seconds(40);
    config.cycle_period = sweep.period;
    // Peak aggregate ~ 1000 × 2000 × 50% duty = 1e6; budget = 60% of that.
    config.budgets = {600'000.0, 60'000.0};
    // A 2x headroom ramp: a throttled stage whose burst resumes recovers
    // its allocation in ~5 cycles instead of ~19 (headroom 1.2).
    config.psfa.headroom = 2.0;
    // 1.0 s on / 1.3 s off: the 2.3 s workload period shares no small
    // common multiple with any swept control period (avoids phase-lock
    // aliasing between stale limits and recurring demand).
    config.demand_factory = [](StageId stage, stage::Dimension dim) {
      const double scale = dim == stage::Dimension::kData ? 1.0 : 0.1;
      const Nanos phase = millis(static_cast<std::int64_t>(
          (stage.value() * 137) % 2300));
      return workload::bursty(2000.0 * scale, 50.0 * scale, seconds(1),
                              millis(1300), phase);
    };
    telemetry.attach(config, sweep.label);
    const char* label = sweep.label;
    parallel_sweep.add([&, label, config] {
      auto result = sim::run_experiment(config);
      return [&, label, result] {
        if (!result.is_ok()) {
          std::printf("%s: %s\n", label, result.status().to_string().c_str());
          rc = 1;
          return;
        }
        std::printf("%-16s %10llu %10.2f %12.3f %10.3f\n", label,
                    static_cast<unsigned long long>(result->cycles),
                    result->stats.mean_total_ms(),
                    result->mean_data_utilization,
                    result->mean_meta_utilization);
        if (telemetry.enabled()) {
          const telemetry::Labels labels{{"configuration", label}};
          auto& registry = telemetry.registry();
          registry.gauge("bench_total_ms_mean", labels)
              ->set(result->stats.mean_total_ms());
          registry.gauge("bench_data_utilization", labels)
              ->set(result->mean_data_utilization);
          registry.gauge("bench_meta_utilization", labels)
              ->set(result->mean_meta_utilization);
        }
      };
    });
  }
  parallel_sweep.finish();
  if (rc != 0) return rc;
  std::printf(
      "\nExpected: utilization degrades as the control period grows —\n"
      "with multi-second periods the enforced limits lag the bursts and\n"
      "the PFS budget is stranded on idle stages. This is the paper's\n"
      "case for low-latency control cycles under dynamic workloads.\n");
  return 0;
}
