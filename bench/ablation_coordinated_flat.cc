// Ablation — coordinated flat multi-controller design (paper §VI future
// work #1): "flat control designs with multiple controllers that
// coordinate their actions ... each orchestrating different sets of
// nodes while maintaining global visibility".
//
// Compares, at 10,000 nodes, the hierarchical design against K
// coordinated flat peers. The coordinated design removes the global
// controller's per-stage rule-building bottleneck (each peer splits only
// its own subtree) at the cost of (a) K-fold duplicated PSFA compute,
// (b) an O(K^2) all-to-all summary exchange per cycle, and (c) K
// controller nodes each holding a full stage fan-out — so it only fits
// under the connection cap for K >= 4.
#include "bench/harness.h"
#include "bench/sweep.h"

using namespace sds;

int main(int argc, char** argv) {
  bench::print_title(
      "Ablation — hierarchical vs coordinated flat at 10,000 nodes");
  bench::print_latency_header();
  bench::Telemetry telemetry("ablation_coordinated_flat", argc, argv);
  bench::Sweep sweep(argc, argv);

  int rc = 0;
  for (const std::size_t k : {4ul, 5ul, 10ul, 20ul}) {
    const std::string hier_label = "hierarchical A=" + std::to_string(k);
    sim::ExperimentConfig hier;
    hier.num_stages = 10'000;
    hier.num_aggregators = k;
    hier.duration = bench::bench_duration();
    telemetry.attach(hier, hier_label);
    sweep.add([&, hier_label, k, hier] {
      auto result = bench::run_config(hier);
      return [&, hier_label, k, result] {
        if (!result.is_ok()) {
          std::printf("hier A=%zu: %s\n", k,
                      result.status().to_string().c_str());
          rc = 1;
          return;
        }
        bench::print_latency_row(hier_label, *result, 0.0);
        telemetry.observe(hier_label, *result, 0.0);
      };
    });

    const std::string coord_label = "coordinated K=" + std::to_string(k);
    sim::ExperimentConfig coord;
    coord.num_stages = 10'000;
    coord.coordinated_peers = k;
    coord.duration = bench::bench_duration();
    telemetry.attach(coord, coord_label);
    sweep.add([&, coord_label, k, coord] {
      auto result = bench::run_config(coord);
      return [&, coord_label, k, result] {
        if (!result.is_ok()) {
          // K=4 genuinely does not fit: each peer would hold 2,500 stage
          // connections + 3 peer links, above the per-node cap — the
          // coordinated design needs one more controller than the
          // hierarchy at this scale.
          std::printf("coordinated K=%zu        %s\n", k,
                      result.status().to_string().c_str());
          return;
        }
        bench::print_latency_row(coord_label, *result, 0.0);
        telemetry.observe(coord_label, *result, 0.0);
        bench::print_resource_row("  per peer", "peer", result->aggregator);
        telemetry.observe_usage(coord_label, "peer", result->aggregator);
      };
    });
  }
  sweep.finish();
  if (rc != 0) return rc;
  std::printf(
      "\nExpected: the coordinated design beats the hierarchy on latency\n"
      "(no top-level per-stage rule building) but each peer carries flat-\n"
      "controller-grade CPU/memory, and the K^2 exchange erodes the win\n"
      "as K grows — the resource/latency trade-off of paper Obs. #5, in\n"
      "a different shape.\n");
  return 0;
}
