// Ablation — aggregator pre-aggregation on/off (DESIGN.md decision #2).
//
// With pre-aggregation (Cheferd behaviour) the aggregators merge stage
// metrics into job summaries, so the global controller's compute phase
// only runs PSFA + rule splitting. In pass-through mode the raw entries
// are relayed upward and the global controller must merge them itself.
// This isolates the mechanism behind the paper's Observation #7.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title("Ablation — pre-aggregation vs pass-through relays");
  bench::print_latency_header();
  bench::Telemetry telemetry("ablation_preaggregation", argc, argv);
  bench::Sweep sweep(argc, argv);

  int rc = 0;
  for (const std::size_t aggs : {1ul, 4ul}) {
    for (const bool preagg : {true, false}) {
      sim::ExperimentConfig config;
      config.num_stages = aggs == 1 ? 2500 : 10'000;
      config.num_aggregators = aggs;
      config.preaggregate = preagg;
      config.duration = bench::bench_duration();
      const std::string label = "N=" + std::to_string(config.num_stages) +
                                " A=" + std::to_string(aggs) +
                                (preagg ? " pre-agg" : " passthru");
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
        };
      });
    }
  }
  sweep.finish();
  if (rc != 0) return rc;
  std::printf(
      "\nExpected: pass-through inflates the global compute phase and the\n"
      "global controller's CPU/rx (raw entries instead of job summaries),\n"
      "reproducing why Cheferd-style aggregation matters (Obs. #7).\n");
  return 0;
}
