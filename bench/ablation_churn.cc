// Ablation — churn rate vs control-plane degradation (fault model §VI).
//
// Fixes the scale (2,500 nodes, the paper's flat ceiling) and sweeps the
// per-stage MTBF from none to 10 s for both topologies, holding the
// degraded-cycle contract constant (90% quorum, 50 ms phase timeout,
// 2 s mean outage). The interesting quantity is the slope: how fast
// degraded-cycle rate and decision staleness grow as the cluster gets
// less reliable, and whether the hierarchy's per-subtree quorums flatten
// it. The mtbf=none rows are the healthy baseline — they must match the
// fault-free benches exactly (the fault hooks vanish without a plan).
#include <deque>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  const bool quick = bench::quick_flag(argc, argv);
  bench::print_title("Ablation — churn rate vs degraded cycles at 2,500 nodes");
  std::printf(
      "  plan per row: stage MTBF as listed, downtime 2 s, quorum 90%%,\n"
      "  phase timeout 50 ms; seed fixed, so rows are reproducible.\n\n");
  bench::print_resilience_header();
  bench::ResilienceDatWriter dat("ablation_churn");
  bench::Telemetry telemetry("ablation_churn", argc, argv);
  bench::Sweep sweep(argc, argv);

  const std::size_t nodes = quick ? 200 : 2500;
  const std::vector<double> mtbfs =
      quick ? std::vector<double>{0, 30} : std::vector<double>{0, 120, 60, 30, 10};

  // Plans live here so the pointers handed to the configs stay valid
  // until sweep.finish() (deque: stable addresses across push_back).
  std::deque<fault::FaultPlan> plans;

  int rc = 0;
  double x = 0;
  for (const std::size_t aggs : {std::size_t{0}, std::size_t{4}}) {
    const std::string topo = aggs == 0 ? "flat" : "hier A=" + std::to_string(aggs);
    for (const double mtbf : mtbfs) {
      const std::string label =
          topo + (mtbf > 0 ? " mtbf=" + std::to_string(static_cast<int>(mtbf)) + "s"
                           : " mtbf=none");
      sim::ExperimentConfig config;
      config.num_stages = nodes;
      config.num_aggregators = aggs;
      config.duration = quick ? seconds(1) : bench::bench_duration();
      if (quick) config.max_cycles = 6;
      if (mtbf > 0) {
        fault::FaultPlan plan;
        plan.seed = 7;
        plan.quorum = 0.9;
        plan.phase_timeout = millis(50);
        plan.stage_mtbf_s = mtbf;
        plan.stage_downtime_s = 2;
        // The quick horizon (a few ms of virtual time) is far below the
        // MTBF, so Poisson churn would never fire; script one crash so
        // the smoke run still exercises the injection path.
        if (quick) plan.crash_stage(1, micros(50), millis(1));
        plans.push_back(plan);
        config.fault_plan = &plans.back();
      }
      telemetry.attach(config, label);
      const double row_x = x;
      sweep.add([&, config, label, row_x] {
        auto result = bench::run_config(config);
        return [&, result, label, row_x] {
          if (!result.is_ok()) {
            std::printf("%-24s %s\n", label.c_str(),
                        result.status().to_string().c_str());
            rc = 1;
            return;
          }
          bench::print_resilience_row(label, *result);
          telemetry.observe(label, *result, 0.0);
          telemetry.observe_resilience(label, *result);
          dat.row(row_x, *result);
        };
      });
      x += 1;
    }
  }
  sweep.finish();
  if (rc == 0) {
    std::printf(
        "\nDegradation scales with churn (outages ~ N * horizon / MTBF);\n"
        "the quorum turns each outage into bounded staleness instead of a\n"
        "stalled control cycle.\n");
  }
  return rc;
}
