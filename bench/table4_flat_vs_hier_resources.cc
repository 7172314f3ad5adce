// Table IV — Resource utilization for the flat and hierarchical (single
// aggregator) designs handling 2,500 compute nodes.
//
// Paper reference: global CPU collapses 10.34 → 1.15% under the
// hierarchy (metric merging moves to the aggregator, which shows 7.83%);
// global memory 1.18 → 0.92 GB; the aggregator takes over most of the
// stage-facing traffic (tx 8.65 / rx 4.98 MB/s).
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Table IV — flat vs hierarchical (1 aggregator) at 2,500 nodes");
  bench::print_resource_header();
  bench::Telemetry telemetry("table4_flat_vs_hier_resources", argc, argv);
  bench::Sweep sweep(argc, argv);

  int rc = 0;
  sim::ExperimentConfig flat;
  flat.num_stages = 2500;
  flat.duration = bench::bench_duration();
  telemetry.attach(flat, "flat");
  sweep.add([&, flat] {
    auto result = bench::run_config(flat);
    return [&, result] {
      if (!result.is_ok()) {
        rc = 1;
        return;
      }
      bench::print_resource_row("flat", "global", result->global);
      telemetry.observe_usage("flat", "global", result->global);
      std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", "  (paper)",
                  "global", 10.34, 1.18, 9.73, 5.74);
    };
  });

  sim::ExperimentConfig hier = flat;
  hier.num_aggregators = 1;
  telemetry.attach(hier, "hierarchical");
  sweep.add([&, hier] {
    auto result = bench::run_config(hier);
    return [&, result] {
      if (!result.is_ok()) {
        rc = 1;
        return;
      }
      bench::print_resource_row("hierarchical", "global", result->global);
      telemetry.observe_usage("hierarchical", "global", result->global);
      std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", "  (paper)",
                  "global", 1.15, 0.92, 2.36, 0.77);
      bench::print_resource_row("hierarchical", "aggregator",
                                result->aggregator);
      telemetry.observe_usage("hierarchical", "aggregator",
                              result->aggregator);
      std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", "  (paper)",
                  "aggregator", 7.83, 0.22, 8.65, 4.98);
    };
  });

  sweep.finish();
  return rc;
}
