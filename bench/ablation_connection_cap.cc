// Ablation — the per-node connection cap (DESIGN.md decision #4).
//
// The paper's flat design hits a hard wall at 2,500 stages: the
// controller node cannot hold more concurrent connections. This bench
// sweeps the cap and shows (a) the flat design failing beyond it and
// (b) the minimum aggregator count needed for 10,000 nodes as a function
// of the cap — exactly why the paper's hierarchical runs start at 4
// aggregators.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title("Ablation — per-node connection cap");
  bench::Telemetry telemetry("ablation_connection_cap", argc, argv);
  bench::Sweep sweep(argc, argv);

  std::printf("\nFlat design vs cap (N = nodes managed):\n");
  std::printf("%-12s %-10s %s\n", "cap", "N", "outcome");
  for (const std::size_t cap : {1000ul, 2500ul, 5000ul}) {
    for (const std::size_t nodes : {1000ul, 2500ul, 5000ul, 10'000ul}) {
      const std::string label = "cap=" + std::to_string(cap) +
                                " N=" + std::to_string(nodes);
      sim::ExperimentConfig config;
      config.num_stages = nodes;
      config.profile.max_connections_per_node = cap;
      config.max_cycles = 3;
      config.duration = seconds(2);
      telemetry.attach(config, label);
      sweep.add([&, label, cap, nodes, config] {
        auto result = sim::run_experiment(config);
        return [&, label, cap, nodes, result] {
          if (result.is_ok()) {
            std::printf("%-12zu %-10zu OK (%.2f ms/cycle)\n", cap, nodes,
                        result->stats.mean_total_ms());
            if (telemetry.enabled()) {
              telemetry.registry()
                  .gauge("bench_total_ms_mean", {{"configuration", label}})
                  ->set(result->stats.mean_total_ms());
            }
          } else {
            std::printf("%-12zu %-10zu REJECTED: %s\n", cap, nodes,
                        result.status().to_string().c_str());
            if (telemetry.enabled()) {
              telemetry.registry()
                  .counter("bench_rejected_total", {{"configuration", label}})
                  ->add();
            }
          }
        };
      });
    }
  }

  // Section header rides the ordered emit stream so it prints after every
  // part-1 row even when the searches below finish first.
  sweep.add([] {
    return [] {
      std::printf("\nMinimum aggregators for 10,000 nodes vs cap:\n");
      std::printf("%-12s %s\n", "cap", "min aggregators");
    };
  });
  for (const std::size_t cap : {1250ul, 2500ul, 5000ul}) {
    sweep.add([&, cap] {
      std::size_t aggs = 1;
      while (true) {
        sim::ExperimentConfig config;
        config.num_stages = 10'000;
        config.num_aggregators = aggs;
        config.profile.max_connections_per_node = cap;
        config.max_cycles = 1;
        config.duration = seconds(1);
        if (sim::run_experiment(config).is_ok()) break;
        ++aggs;
      }
      return [&, cap, aggs] {
        std::printf("%-12zu %zu\n", cap, aggs);
        if (telemetry.enabled()) {
          telemetry.registry()
              .gauge("bench_min_aggregators",
                     {{"configuration", "cap=" + std::to_string(cap)}})
              ->set(static_cast<double>(aggs));
        }
      };
    });
  }
  sweep.finish();
  std::printf(
      "\nPaper: each Frontera node sustains ~2,500 connections, hence the\n"
      "flat ceiling at 2,500 nodes and the minimum of 4 aggregators for\n"
      "10,000 nodes.\n");
  return 0;
}
