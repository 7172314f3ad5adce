// Ablation — parallel vs serialized aggregator fan-out (DESIGN.md
// decision #3).
//
// The hierarchical design's scalability depends on aggregator subtrees
// working concurrently. Serializing the walk (global contacts aggregator
// k+1 only after k finished) degrades the design toward flat latency
// plus per-hop overheads.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title("Ablation — parallel vs serialized aggregator fan-out");
  bench::print_latency_header();
  bench::Telemetry telemetry("ablation_fanout", argc, argv);
  bench::Sweep sweep(argc, argv);

  int rc = 0;
  for (const std::size_t aggs : {4ul, 10ul, 20ul}) {
    for (const bool parallel : {true, false}) {
      sim::ExperimentConfig config;
      config.num_stages = 10'000;
      config.num_aggregators = aggs;
      config.parallel_fanout = parallel;
      config.duration = bench::bench_duration();
      config.max_cycles = parallel ? 0 : 40;  // serial cycles are long
      const std::string label = "A=" + std::to_string(aggs) +
                                (parallel ? " parallel" : " serial");
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
        };
      });
    }
  }
  sweep.finish();
  if (rc != 0) return rc;
  std::printf(
      "\nExpected: with parallel fan-out, latency falls as aggregators are\n"
      "added; serialized fan-out loses that benefit (collect/enforce grow\n"
      "with the *sum* of subtree times instead of their max).\n");
  return 0;
}
