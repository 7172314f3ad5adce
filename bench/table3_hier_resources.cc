// Table III — Resource utilization for the hierarchical design managing
// 10,000 compute nodes: global controller plus the average per-aggregator
// consumption, for 4 / 5 / 10 / 20 aggregators.
//
// Paper reference: global CPU rises 2.55→3.52% with aggregator count,
// global memory ~3.5 GB throughout, global tx 4.39→6.08 / rx 1.45→1.98
// MB/s; per-aggregator CPU falls 3.95→0.95%, memory 0.16→0.04 GB,
// tx 4.53→1.31, rx 2.53→0.73 MB/s.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Table III — hierarchical design (10,000 nodes): resource utilization");
  bench::print_resource_header();
  bench::Telemetry telemetry("table3_hier_resources", argc, argv);
  bench::Sweep sweep(argc, argv);

  struct Paper {
    std::size_t aggs;
    double g_cpu, g_mem, g_tx, g_rx;
    double a_cpu, a_mem, a_tx, a_rx;
  };
  const Paper paper[] = {
      {4, 2.55, 3.52, 4.39, 1.45, 3.95, 0.16, 4.53, 2.53},
      {5, 2.81, 3.56, 4.73, 1.58, 3.40, 0.13, 4.13, 2.31},
      {10, 3.22, 3.53, 5.66, 1.82, 1.94, 0.08, 2.40, 1.34},
      {20, 3.52, 3.60, 6.08, 1.98, 0.95, 0.04, 1.31, 0.73},
  };

  int rc = 0;
  for (const auto& row : paper) {
    const std::string label = "hier A=" + std::to_string(row.aggs);
    sim::ExperimentConfig config;
    config.num_stages = 10'000;
    config.num_aggregators = row.aggs;
    config.duration = bench::bench_duration();
    telemetry.attach(config, label);
    sweep.add([&, label, row, config] {
      auto result = bench::run_config(config);
      return [&, label, row, result] {
        if (!result.is_ok()) {
          std::printf("A=%zu: %s\n", row.aggs,
                      result.status().to_string().c_str());
          rc = 1;
          return;
        }
        bench::print_resource_row(label, "global", result->global);
        telemetry.observe_usage(label, "global", result->global);
        std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", "  (paper)",
                    "global", row.g_cpu, row.g_mem, row.g_tx, row.g_rx);
        bench::print_resource_row(label, "aggregator", result->aggregator);
        telemetry.observe_usage(label, "aggregator", result->aggregator);
        std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", "  (paper)",
                    "aggregator", row.a_cpu, row.a_mem, row.a_tx, row.a_rx);
      };
    });
  }
  sweep.finish();
  return rc;
}
