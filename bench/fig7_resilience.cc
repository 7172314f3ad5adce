// Fig. 7 — control-plane resilience under churn, flat vs hierarchical,
// 50 to 10,000 compute nodes.
//
// The paper's experiments assume a healthy control plane; this figure
// extends them with the failure model of §VI: every stage fails with an
// MTBF of 60 s (2 s mean outage) while 1% of collect replies are lost
// and 5% are delayed. Controllers close phases on a 90% quorum instead
// of stalling, so the columns report what that costs: the fraction of
// cycles that closed degraded, how many stages per cycle were decided on
// stale state, and how long a restarted stage takes to rejoin the
// control loop.
//
// The plan is deterministic (seeded; see fault/plan.h), so rows are
// bit-identical across repeated runs. Pass
// --fault-plan=FILE to replay a custom plan instead of the built-in one.
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

namespace {

fault::FaultPlan default_plan() {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.quorum = 0.9;
  plan.phase_timeout = millis(50);
  plan.stage_mtbf_s = 60;
  plan.stage_downtime_s = 2;
  plan.drop_probability = 0.01;
  plan.delay_probability = 0.05;
  plan.delay = micros(200);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_flag(argc, argv);
  bench::print_title("Fig. 7 — resilience under churn, flat vs hierarchical");

  fault::FaultPlan plan = default_plan();
  if (auto custom = bench::fault_plan_flag(argc, argv)) {
    plan = *custom;
  } else {
    std::printf(
        "  plan: stage MTBF 60 s / downtime 2 s, drop 1%%, delay 5%%,\n"
        "        quorum 90%%, phase timeout 50 ms (override with"
        " --fault-plan=FILE)\n");
  }
  std::printf(
      "  flat rows beyond 2,500 nodes lift the per-node connection cap\n"
      "  (the paper's hard ceiling) to isolate resilience from the\n"
      "  connection wall.\n\n");

  bench::print_resilience_header();
  bench::ResilienceDatWriter dat("fig7_resilience");
  bench::Telemetry telemetry("fig7_resilience", argc, argv);
  bench::Sweep sweep(argc, argv);

  const std::vector<std::size_t> scales =
      quick ? std::vector<std::size_t>{50, 200}
            : std::vector<std::size_t>{50, 500, 2500, 10'000};

  int rc = 0;
  double x = 0;
  for (const std::size_t nodes : scales) {
    // Aggregator count per the paper's hierarchical runs: the minimum
    // forced by the 2,500-connection cap (4 at 10,000 nodes).
    const std::size_t aggs = std::max<std::size_t>(1, nodes / 2500);
    struct Topology {
      std::string label;
      std::size_t num_aggregators;
    };
    for (const Topology& topo :
         {Topology{"flat N=" + std::to_string(nodes), 0},
          Topology{"hier N=" + std::to_string(nodes) +
                       " A=" + std::to_string(aggs),
                   aggs}}) {
      sim::ExperimentConfig config;
      config.num_stages = nodes;
      config.num_aggregators = topo.num_aggregators;
      config.duration = quick ? seconds(1) : bench::bench_duration();
      if (quick) config.max_cycles = 6;
      config.fault_plan = &plan;
      if (topo.num_aggregators == 0 &&
          nodes > config.profile.max_connections_per_node) {
        config.profile.max_connections_per_node = 0;  // see note above
      }
      telemetry.attach(config, topo.label);
      const double row_x = x;
      sweep.add([&, config, topo, row_x] {
        auto result = bench::run_config(config);
        return [&, result, topo, row_x] {
          if (!result.is_ok()) {
            std::printf("%-24s %s\n", topo.label.c_str(),
                        result.status().to_string().c_str());
            rc = 1;
            return;
          }
          bench::print_resilience_row(topo.label, *result);
          telemetry.observe(topo.label, *result, 0.0);
          telemetry.observe_resilience(topo.label, *result);
          dat.row(row_x, *result);
        };
      });
      x += 1;
    }
  }
  sweep.finish();
  if (rc == 0) {
    std::printf(
        "\nThe quorum keeps cycle latency near the healthy baseline while\n"
        "churn shows up as degraded cycles and stale per-stage decisions;\n"
        "the hierarchy confines each outage to one aggregator subtree.\n");
  }
  return rc;
}
