// Table II — Resource utilization (CPU, memory, network) for a flat
// control plane with a single global controller, for 50 / 500 / 1,250 /
// 2,500 compute nodes.
//
// Paper reference: CPU 6.07→10.34%, memory 0.07→1.18 GB, transmitted
// 5.67→9.73 MB/s, received 3.74→5.36 MB/s.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Table II — flat design: global-controller resource utilization");
  bench::print_resource_header();
  bench::Telemetry telemetry("table2_flat_resources", argc, argv);
  bench::Sweep sweep(argc, argv);

  struct Paper {
    std::size_t nodes;
    double cpu, mem, tx, rx;
  };
  const Paper paper[] = {{50, 6.07, 0.07, 5.67, 3.74},
                         {500, 9.58, 0.31, 8.74, 5.75},
                         {1250, 10.39, 0.64, 8.74, 5.74},
                         {2500, 10.34, 1.18, 9.73, 5.36}};

  int rc = 0;
  for (const auto& row : paper) {
    const std::string label = "flat N=" + std::to_string(row.nodes);
    sim::ExperimentConfig config;
    config.num_stages = row.nodes;
    config.duration = bench::bench_duration();
    telemetry.attach(config, label);
    sweep.add([&, label, row, config] {
      auto result = bench::run_config(config);
      return [&, label, row, result] {
        if (!result.is_ok()) {
          std::printf("N=%zu: %s\n", row.nodes,
                      result.status().to_string().c_str());
          rc = 1;
          return;
        }
        bench::print_resource_row(label, "global", result->global);
        telemetry.observe_usage(label, "global", result->global);
        std::printf("%-24s %-11s %9.2f %9.2f %9.2f %9.2f\n", "  (paper)",
                    "global", row.cpu, row.mem, row.tx, row.rx);
      };
    });
  }
  sweep.finish();
  return rc;
}
