// Fig. 5 — Average latency of control cycles for the hierarchical design
// managing 10,000 compute nodes with 4 / 5 / 10 / 20 aggregator
// controllers.
//
// Paper reference: ~103 ms with 4 aggregators, under 80 ms with 10,
// under 70 ms with 20; the compute phase stays approximately constant
// while collect and enforce shrink as aggregators are added.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Fig. 5 — hierarchical design: 10,000 nodes, varying aggregators");
  bench::print_latency_header();
  bench::DatWriter dat("fig5_hier_aggregators");
  bench::Telemetry telemetry("fig5_hier_aggregators", argc, argv);
  bench::Sweep sweep(argc, argv);

  struct Point {
    std::size_t nodes;
    std::size_t aggregators;
    double paper_ms;  // 5/10 read off the figure (approximate)
    std::size_t max_cycles = 0;  // 0 = run the full duration
  };
  std::vector<Point> points = {{10'000, 4, 103.0},
                               {10'000, 5, 95.0},
                               {10'000, 10, 79.0},
                               {10'000, 20, 69.0}};
  if (bench::extended_flag(argc, argv)) {
    // Projection beyond the paper: hierarchies at 100k and 1M stages
    // with 2,000 stages per aggregator (the per-node connection cap
    // still holds at every level). Bounded by cycle count — a 1M-stage
    // cycle moves ~1M collect messages, so the full duration would take
    // tens of minutes per run.
    points.push_back({100'000, 50, 0.0, 20});
    points.push_back({1'000'000, 500, 0.0, 5});
  }

  int rc = 0;
  for (const auto& point : points) {
    const std::string label =
        point.nodes == 10'000
            ? "hier A=" + std::to_string(point.aggregators)
            : "hier N=" + std::to_string(point.nodes) + " A=" +
                  std::to_string(point.aggregators);
    sim::ExperimentConfig config;
    config.num_stages = point.nodes;
    config.num_aggregators = point.aggregators;
    config.duration = bench::bench_duration();
    if (point.max_cycles > 0) config.max_cycles = point.max_cycles;
    telemetry.attach(config, label);
    sweep.add([&, label, point, config] {
      auto result = bench::run_config(config);
      return [&, label, point, result] {
        if (!result.is_ok()) {
          std::printf("A=%zu: %s\n", point.aggregators,
                      result.status().to_string().c_str());
          rc = 1;
          return;
        }
        bench::print_latency_row(label, *result, point.paper_ms);
        telemetry.observe(label, *result, point.paper_ms);
        dat.row(static_cast<double>(point.aggregators), *result,
                point.paper_ms);
      };
    });
  }
  sweep.finish();
  if (rc != 0) return rc;
  bench::print_paper_note(
      "103 ms with 4 aggregators, < 80 ms with 10, < 70 ms with 20; "
      "compute ~constant, collect/enforce shrink with more aggregators.");
  return 0;
}
