// Fig. 4 — Average latency of control cycles for a flat control plane
// design with a single global controller managing an increasing number of
// compute nodes (50 / 500 / 1,250 / 2,500), with the collect / compute /
// enforce phase breakdown.
//
// Paper reference points: 1.11 ms @ 50 nodes, 40.40 ms @ 2,500 nodes;
// enforce > collect > compute at every size; stdev below 6%.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Fig. 4 — flat design: average control-cycle latency vs node count");
  bench::print_latency_header();
  bench::DatWriter dat("fig4_flat_scaling");
  bench::Telemetry telemetry("fig4_flat_scaling", argc, argv);
  bench::Sweep sweep(argc, argv);

  struct Point {
    std::size_t nodes;
    double paper_ms;  // 500/1250 read off the figure (approximate)
    bool uncapped = false;
    std::size_t max_cycles = 0;  // 0 = run the full duration
  };
  std::vector<Point> points = {
      {50, 1.11}, {500, 8.1}, {1250, 20.2}, {2500, 40.40}};
  if (bench::extended_flag(argc, argv)) {
    // Projection beyond the paper: the flat design past Frontera's
    // 2,500-connection cap (columnar store + delta collect keep the
    // controller itself viable; the cap is what stops flat at 2,500).
    // Lift the per-node cap and bound the horizon by cycle count — at
    // 100k stages a full 10-simulated-second horizon takes minutes per
    // run.
    points.push_back({10'000, 0.0, true, 50});
    points.push_back({100'000, 0.0, true, 20});
  }

  int rc = 0;
  for (const auto& point : points) {
    const std::string label = "flat N=" + std::to_string(point.nodes) +
                              (point.uncapped ? " uncap" : "");
    sim::ExperimentConfig config;
    config.num_stages = point.nodes;
    config.duration = bench::bench_duration();
    if (point.uncapped) {
      config.profile.max_connections_per_node = 0;  // projection: cap lifted
      config.max_cycles = point.max_cycles;
    }
    telemetry.attach(config, label);
    sweep.add([&, label, point, config] {
      auto result = bench::run_config(config);
      return [&, label, point, result] {
        if (!result.is_ok()) {
          std::printf("N=%zu: %s\n", point.nodes,
                      result.status().to_string().c_str());
          rc = 1;
          return;
        }
        bench::print_latency_row(label, *result, point.paper_ms);
        telemetry.observe(label, *result, point.paper_ms);
        dat.row(static_cast<double>(point.nodes), *result, point.paper_ms);
      };
    });
  }
  sweep.finish();
  if (rc != 0) return rc;
  bench::print_paper_note(
      "1.11 ms @ 50 nodes rising ~linearly to 40.40 ms @ 2,500 nodes; "
      "enforce > collect > compute; stdev < 6%.");
  return 0;
}
