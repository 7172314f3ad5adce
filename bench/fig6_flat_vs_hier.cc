// Fig. 6 — Average latency of control cycles for flat and hierarchical
// (single aggregator) designs managing 2,500 compute nodes.
//
// Paper reference: ~41 ms flat vs ~53 ms hierarchical (+12.3 ms from the
// extra network hop in collect/enforce), with the *compute* phase
// decreasing under the hierarchy (Observation #7: aggregator-side metric
// merging is removed from the global controller's compute phase).
#include <optional>

#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Fig. 6 — flat vs hierarchical (1 aggregator) at 2,500 nodes");
  bench::print_latency_header();
  bench::DatWriter dat("fig6_flat_vs_hier");
  bench::Telemetry telemetry("fig6_flat_vs_hier", argc, argv);
  bench::Sweep sweep(argc, argv);

  int rc = 0;
  std::optional<bench::RunSummary> flat_result;
  std::optional<bench::RunSummary> hier_result;

  sim::ExperimentConfig flat;
  flat.num_stages = 2500;
  flat.duration = bench::bench_duration();
  telemetry.attach(flat, "flat N=2500");
  sweep.add([&, flat] {
    auto result = bench::run_config(flat);
    return [&, result] {
      if (!result.is_ok()) {
        std::printf("flat: %s\n", result.status().to_string().c_str());
        rc = 1;
        return;
      }
      bench::print_latency_row("flat N=2500", *result, 40.40);
      telemetry.observe("flat N=2500", *result, 40.40);
      dat.row(0, *result, 40.40);
      flat_result = *result;
    };
  });

  sim::ExperimentConfig hier = flat;
  hier.num_aggregators = 1;
  telemetry.attach(hier, "hier N=2500 A=1");
  sweep.add([&, hier] {
    auto result = bench::run_config(hier);
    return [&, result] {
      if (!result.is_ok()) {
        std::printf("hier: %s\n", result.status().to_string().c_str());
        rc = 1;
        return;
      }
      bench::print_latency_row("hier N=2500 A=1", *result, 53.0);
      telemetry.observe("hier N=2500 A=1", *result, 53.0);
      dat.row(1, *result, 53.0);
      hier_result = *result;
    };
  });

  sweep.finish();
  if (rc != 0 || !flat_result || !hier_result) return 1;

  const double overhead = hier_result->total_ms - flat_result->total_ms;
  std::printf("\nhierarchy overhead: %+.2f ms (paper: +12.3 ms)\n", overhead);
  std::printf("compute-phase change: %+.2f ms (paper: decreases, Obs. #7)\n",
              hier_result->compute_ms - flat_result->compute_ms);
  return 0;
}
