// Ablation — hierarchy depth: when does a third control level pay off?
//
// Part 1, at the paper's scale (10,000 nodes, Frontera-grade 2,500-
// connection cap): a 2-level tree already fits comfortably, so a third
// level (super-aggregators) only adds hops — measurable pure overhead.
//
// Part 2, on constrained nodes (cap 64, e.g. tiny management VMs or very
// conservative connection budgets): a 2-level tree tops out at
// cap² = 4,096 stages, so 10,000 nodes *require* depth 3. The same logic
// scales to Fugaku: with cap 2,500 a 2-level tree covers 2,500² = 6.25 M
// stages — every Top500 system in Table I fits with two levels, which is
// why the paper never needed a third.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

namespace {

void sweep_row(bench::Sweep& sweep, const std::string& label,
               sim::ExperimentConfig config, bench::Telemetry& telemetry) {
  telemetry.attach(config, label);
  sweep.add([&telemetry, label, config] {
    auto result = bench::run_config(config);
    return [&telemetry, label, result] {
      if (!result.is_ok()) {
        std::printf("%-24s %s\n", label.c_str(),
                    result.status().to_string().c_str());
        return;
      }
      bench::print_latency_row(label, *result, 0.0);
      telemetry.observe(label, *result, 0.0);
    };
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_title("Ablation — 2-level vs 3-level hierarchies");
  bench::Telemetry telemetry("ablation_hierarchy_depth", argc, argv);
  bench::Sweep sweep(argc, argv);
  std::printf("\nAt 10,000 nodes with the Frontera cap (2,500 conns):\n");
  bench::print_latency_header();
  for (const std::size_t aggs : {8ul, 20ul}) {
    sim::ExperimentConfig two_level;
    two_level.num_stages = 10'000;
    two_level.num_aggregators = aggs;
    two_level.duration = bench::bench_duration();
    sweep_row(sweep, "2-level A=" + std::to_string(aggs), two_level,
              telemetry);

    sim::ExperimentConfig three_level = two_level;
    three_level.num_super_aggregators = 2;
    sweep_row(sweep, "3-level S=2 A=" + std::to_string(aggs), three_level,
              telemetry);
  }

  // The part-2 header travels the ordered emit stream so it stays below
  // every part-1 row regardless of completion order.
  sweep.add([] {
    return [] {
      std::printf("\nOn constrained nodes (cap 64 connections), 10,000 nodes:\n");
      bench::print_latency_header();
    };
  });
  {
    // 2-level: 64 aggregators is the most the global can hold; each
    // would need 157 stages > cap. Infeasible.
    sim::ExperimentConfig two_level;
    two_level.num_stages = 10'000;
    two_level.num_aggregators = 64;
    two_level.profile.max_connections_per_node = 64;
    two_level.duration = bench::bench_duration();
    sweep.add([two_level] {
      auto result = bench::run_config(two_level);
      return [result] {
        std::printf("%-24s %s\n", "2-level A=64",
                    result.is_ok() ? "(unexpectedly fit)"
                                   : result.status().to_string().c_str());
      };
    });

    // 3-level: 40 supers x 5 children x 50 stages fits under cap 64.
    sim::ExperimentConfig three_level = two_level;
    three_level.num_aggregators = 200;
    three_level.num_super_aggregators = 40;
    sweep_row(sweep, "3-level S=40 A=200", three_level, telemetry);
  }
  sweep.finish();

  std::printf(
      "\nExpected: at Frontera's cap the third level is pure overhead\n"
      "(extra hop + extra merge); it becomes necessary only once a\n"
      "2-level tree cannot fan out (stages > cap^2 — beyond every\n"
      "current Top500 system, Fugaku included).\n");
  return 0;
}
