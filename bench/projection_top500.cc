// Projection — the paper's title question, answered for the actual
// machines of Table I: can these control-plane designs scale to
// Frontier (9,408 nodes), Aurora (10,624) and Fugaku (158,976)?
//
// For each system: the flat design (rejected beyond the connection cap),
// the hierarchical design with the minimum viable aggregator count
// (ceil(N / 2,500)) and with twice that, and — for Fugaku-class scale —
// the aggregator-local-decision mode that removes the global
// controller's per-stage work from the critical path.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

namespace {

void sweep_row(bench::Sweep& sweep, const std::string& label,
               sim::ExperimentConfig config, bench::Telemetry& telemetry) {
  config.duration = seconds(5);
  telemetry.attach(config, label);
  sweep.add([&telemetry, label, config] {
    auto result = bench::run_config(config);
    return [&telemetry, label, result] {
      if (!result.is_ok()) {
        std::printf("%-28s %s\n", label.c_str(),
                    result.status().to_string().c_str());
        return;
      }
      std::printf("%-28s %10.2f %10.2f %10.2f %10.2f %8.0f\n", label.c_str(),
                  result->total_ms, result->collect_ms, result->compute_ms,
                  result->enforce_ms, result->cycles);
      telemetry.observe(label, *result, 0.0);
    };
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_title(
      "Projection — Table I systems under flat / hierarchical control");
  bench::Telemetry telemetry("projection_top500", argc, argv);
  bench::Sweep sweep(argc, argv);
  std::printf("%-28s %10s %10s %10s %10s %8s\n", "configuration", "total(ms)",
              "collect", "compute", "enforce", "cycles");

  const struct {
    const char* name;
    std::size_t nodes;
  } systems[] = {
      {"Frontier", 9'408}, {"Aurora", 10'624}, {"Fugaku", 158'976}};

  for (const auto& system : systems) {
    sweep.add([name = system.name, nodes = system.nodes] {
      return [name, nodes] {
        std::printf("\n-- %s (%zu nodes) --\n", name, nodes);
      };
    });

    sim::ExperimentConfig flat;
    flat.num_stages = system.nodes;
    sweep_row(sweep, std::string(system.name) + " flat", flat, telemetry);

    const std::size_t min_aggs = (system.nodes + 2'499) / 2'500;
    for (const std::size_t aggs : {min_aggs, 2 * min_aggs}) {
      sim::ExperimentConfig hier;
      hier.num_stages = system.nodes;
      hier.num_aggregators = aggs;
      sweep_row(sweep,
                std::string(system.name) + " hier A=" + std::to_string(aggs),
                hier, telemetry);
    }

    // Local decisions: the only way to keep Fugaku-class cycles fast —
    // the global controller's per-stage split/route otherwise dominates.
    sim::ExperimentConfig local;
    local.num_stages = system.nodes;
    local.num_aggregators = 2 * min_aggs;
    local.local_decisions = true;
    sweep_row(sweep,
              std::string(system.name) + " local A=" +
                  std::to_string(2 * min_aggs),
              local, telemetry);
  }
  sweep.finish();

  std::printf(
      "\nReading: Frontier/Aurora-scale systems run ~100 ms control cycles\n"
      "with the paper's 2-level hierarchy. Fugaku-scale (158,976 nodes)\n"
      "still *fits* in two levels (64+ aggregators) but central PSFA\n"
      "cycles grow toward a second — offloading decisions to aggregators\n"
      "(paper §VI) brings Fugaku back to Frontier-like latencies.\n");
  return 0;
}
