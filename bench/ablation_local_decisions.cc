// Ablation — offloading control decisions to aggregators (paper §VI
// future work: "hierarchical designs that further explore the processing
// logic that can be offloaded to aggregator nodes in order to be able to
// make independent decisions ... decreasing the computational load from
// the controllers of the top levels of the tree").
//
// In local-decision mode the global controller only re-leases per-subtree
// budgets (proportional to observed demand); each aggregator runs PSFA
// locally over its stages. The global compute phase nearly vanishes.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title("Ablation — centralized PSFA vs aggregator-local PSFA");
  bench::print_latency_header();
  bench::Telemetry telemetry("ablation_local_decisions", argc, argv);
  bench::Sweep sweep(argc, argv);

  int rc = 0;
  for (const std::size_t aggs : {4ul, 10ul, 20ul}) {
    for (const bool local : {false, true}) {
      sim::ExperimentConfig config;
      config.num_stages = 10'000;
      config.num_aggregators = aggs;
      config.local_decisions = local;
      config.duration = bench::bench_duration();
      const std::string label = "A=" + std::to_string(aggs) +
                                (local ? " local" : " central");
      telemetry.attach(config, label);
      sweep.add([&, label, config] {
        auto result = bench::run_config(config);
        return [&, label, result] {
          if (!result.is_ok()) {
            std::printf("error: %s\n", result.status().to_string().c_str());
            rc = 1;
            return;
          }
          bench::print_latency_row(label, *result, 0.0);
          telemetry.observe(label, *result, 0.0);
          bench::print_resource_row("  resources", "global", result->global);
          bench::print_resource_row("  resources", "aggregator",
                                    result->aggregator);
          telemetry.observe_usage(label, "global", result->global);
          telemetry.observe_usage(label, "aggregator", result->aggregator);
        };
      });
    }
  }
  sweep.finish();
  if (rc != 0) return rc;
  std::printf(
      "\nExpected: local decisions cut the global compute phase and global\n"
      "CPU sharply (it only computes budget leases); aggregators pick up\n"
      "the PSFA+split work. Budget guarantees are preserved because lease\n"
      "sums never exceed the global budget (tested in experiment_test).\n");
  return 0;
}
