// Million-stage control-cycle benchmark (the PR 7 tentpole): measures
// the columnar collect→compute hot path at 100k–1M stages.
//
//   store.update_msgs_per_sec       — full StageMetrics frames folded
//                                     into a warm 100k-slot MetricsStore.
//   store.delta_fold_msgs_per_sec   — StageMetricsDelta make+apply per
//                                     report (the steady-state path).
//   compute.*                       — incremental compute_from_store vs
//                                     the --psfa-full-recompute ablation
//                                     at low churn, with an in-bench
//                                     bit-identity assert every cycle.
//   sim.*                           — end-to-end hierarchical control
//                                     cycles at 100k stages (50 aggs ×
//                                     2000) with delta collect frames,
//                                     plus the full-recompute A/B.
//
// Writes BENCH_million.json (cwd, or $SDSCALE_BENCH_OUT/…). `--quick`
// shrinks every section for the `million`-labeled CTest smoke;
// `--extended` appends a 1M-stage (500 aggs × 2000) simulation row.
//
// Regression gates (the acceptance bars from DESIGN.md §14), all live in
// quick mode too:
//   * compute_identity: incremental PSFA bit-identical to full
//     recompute in every cycle;
//   * incremental_speedup: >= 5x faster than full recompute at 100k
//     stages, 1% churn (>= 3x at the quick scale);
//   * full_recompute_identity: the end-to-end run ends on the same
//     limits as its full-recompute twin;
//   * delta_compression: delta frames cut modeled collect wire bytes
//     >= 3x.
// Each gate prints `gate <name>: ran (<value> vs <bar>)`; a failing gate
// exits 1.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/gate.h"
#include "common/rng.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "proto/messages.h"
#include "sim/experiment.h"

namespace {

using sds::JobId;
using sds::Nanos;
using sds::Rng;
using sds::StageId;
using sds::bench::format;
using sds::bench::Gate;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

sds::proto::StageMetrics slot_report(const sds::core::MetricsStore& store,
                                     std::uint32_t slot, std::uint64_t cycle,
                                     double data, double meta) {
  sds::proto::StageMetrics m;
  m.cycle_id = cycle;
  m.stage_id = store.stage_ids()[slot];
  m.job_id = store.job_ids()[slot];
  m.data_iops = data;
  m.meta_iops = meta;
  return m;
}

// -- Store fold throughput -------------------------------------------------

struct StoreThroughput {
  double full_msgs_per_sec = 0;
  double delta_msgs_per_sec = 0;
};

StoreThroughput store_throughput(std::size_t stages, std::size_t jobs,
                                 std::uint64_t cycles) {
  sds::core::MetricsStore store;
  for (std::uint32_t i = 0; i < stages; ++i) {
    (void)store.bind(StageId{i}, JobId{static_cast<std::uint32_t>(i % jobs)});
  }
  std::vector<sds::proto::StageMetrics> current(stages);
  for (std::uint32_t i = 0; i < stages; ++i) {
    current[i] = slot_report(store, i, 1, 1000.0 + i % 97, 100.0);
    (void)store.update(current[i]);
  }
  std::vector<std::uint32_t> scratch;
  store.drain_dirty(scratch);

  StoreThroughput out;
  // Full frames: every stage re-reports each cycle with a moved value.
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t cycle = 2; cycle < 2 + cycles; ++cycle) {
    for (std::uint32_t i = 0; i < stages; ++i) {
      current[i].cycle_id = cycle;
      current[i].data_iops += 1.0;
      (void)store.update(current[i]);
    }
    store.drain_dirty(scratch);
  }
  out.full_msgs_per_sec =
      static_cast<double>(cycles * stages) / seconds_since(start);

  // Deltas: one changed field per report, applied via the conn hint
  // (per-stage connections — the live server's resolution path).
  const std::uint64_t base = 2 + cycles;
  start = std::chrono::steady_clock::now();
  for (std::uint64_t cycle = base; cycle < base + cycles; ++cycle) {
    for (std::uint32_t i = 0; i < stages; ++i) {
      sds::proto::StageMetrics next = current[i];
      next.cycle_id = cycle;
      next.data_iops += 1.0;
      const auto delta = sds::proto::StageMetricsDelta::make(
          current[i], next, /*include_stage_id=*/false);
      if (store.apply_delta(delta, i) != sds::core::DeltaStatus::kApplied) {
        return {};
      }
      current[i] = next;
    }
    store.drain_dirty(scratch);
  }
  out.delta_msgs_per_sec =
      static_cast<double>(cycles * stages) / seconds_since(start);
  return out;
}

// -- Incremental vs full recompute ----------------------------------------

struct ComputeAb {
  double incremental_cycles_per_sec = 0;
  double full_cycles_per_sec = 0;
  double speedup = 0;
  std::uint64_t incremental_jobs_resummed = 0;
  std::uint64_t full_jobs_resummed = 0;
  /// Cycles whose rule hashes agree between the arms.
  std::size_t identical_cycles = 0;
  bool identical = false;
};

// One arm of the A/B: a fresh (store, core) pair walked through the
// same seeded churn sequence. Only the compute_from_store calls are
// timed; after each cycle an FNV-1a hash over every rule's stage id and
// limit bit patterns is recorded (untimed) so the arms can be compared
// bit-for-bit cycle by cycle.
struct ComputeArm {
  double secs = 0;
  std::vector<std::uint64_t> cycle_hashes;
  std::uint64_t jobs_resummed = 0;
};

ComputeArm compute_arm(std::size_t stages, std::size_t jobs,
                       std::uint64_t cycles, double churn_fraction,
                       bool full_recompute) {
  sds::core::GlobalOptions options;
  options.budgets = {2.0 * static_cast<double>(stages) * 1000.0,
                     2.0 * static_cast<double>(stages) * 100.0};
  sds::core::GlobalControllerCore core(options);
  sds::core::MetricsStore store;
  for (std::uint32_t i = 0; i < stages; ++i) {
    (void)store.bind(StageId{i}, JobId{static_cast<std::uint32_t>(i % jobs)});
  }
  Rng rng(0x9e11107u);
  for (std::uint32_t i = 0; i < stages; ++i) {
    const double data = 500.0 + static_cast<double>(rng.next_below(1000));
    (void)store.update(slot_report(store, i, 1, data, data / 10));
  }
  // Untimed warm-up: the first store compute is always a full rebuild
  // (state construction + every job summed) in BOTH arms — it would
  // otherwise dominate the incremental arm's short timing window.
  (void)core.compute_from_store(store, full_recompute);

  const auto churn_jobs = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(churn_fraction *
                                    static_cast<double>(jobs)));
  ComputeArm arm;
  arm.cycle_hashes.reserve(cycles);
  for (std::uint64_t cycle = 2; cycle < 2 + cycles; ++cycle) {
    for (std::uint64_t c = 0; c < churn_jobs; ++c) {
      const auto job = static_cast<std::uint32_t>(rng.next_below(jobs));
      // Slots are bound round-robin, so job j owns slots j, j+jobs, ...
      for (std::uint32_t slot = job; slot < stages;
           slot += static_cast<std::uint32_t>(jobs)) {
        const double data =
            500.0 + static_cast<double>(rng.next_below(1000));
        (void)store.update(slot_report(store, slot, cycle, data, data / 10));
      }
    }
    const auto start = std::chrono::steady_clock::now();
    const auto& result = core.compute_from_store(store, full_recompute);
    arm.secs += seconds_since(start);

    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (const auto& rule : result.rules) {
      mix(rule.stage_id.value());
      mix(std::bit_cast<std::uint64_t>(rule.data_iops_limit));
      mix(std::bit_cast<std::uint64_t>(rule.meta_iops_limit));
    }
    arm.cycle_hashes.push_back(h);
  }
  arm.jobs_resummed = core.store_compute_stats().jobs_resummed;
  return arm;
}

// Churn is job-correlated (a job ramps as a whole): each cycle
// `churn_fraction` of the JOBS re-report every stage with moved demand,
// the rest stay silent — the steady-state shape of a large cluster. The
// budget is provisioned above total demand; under that regime an
// untouched job's allocation is a pure function of its own demand, so
// the incremental path re-splits only the churned jobs. (At saturation
// every demand move shifts the shared water level and ALL jobs re-split
// — incremental degenerates to full by necessity, not by defect.)
// The two arms run back to back — not interleaved, which would make
// each evict the other's columns and rules from cache every cycle.
ComputeAb compute_ab(std::size_t stages, std::size_t jobs,
                     std::uint64_t cycles, double churn_fraction) {
  const ComputeArm inc =
      compute_arm(stages, jobs, cycles, churn_fraction, false);
  const ComputeArm full =
      compute_arm(stages, jobs, cycles, churn_fraction, true);
  ComputeAb out;
  for (std::size_t i = 0; i < inc.cycle_hashes.size() &&
                          i < full.cycle_hashes.size(); ++i) {
    if (inc.cycle_hashes[i] == full.cycle_hashes[i]) ++out.identical_cycles;
  }
  out.identical = inc.cycle_hashes == full.cycle_hashes &&
                  !inc.cycle_hashes.empty();
  out.incremental_cycles_per_sec =
      inc.secs > 0 ? static_cast<double>(cycles) / inc.secs : 0;
  out.full_cycles_per_sec =
      full.secs > 0 ? static_cast<double>(cycles) / full.secs : 0;
  out.speedup = inc.secs > 0 ? full.secs / inc.secs : 0;
  out.incremental_jobs_resummed = inc.jobs_resummed;
  out.full_jobs_resummed = full.jobs_resummed;
  return out;
}

// -- End-to-end simulation -------------------------------------------------

struct SimRow {
  bool ok = false;
  std::size_t stages = 0;
  std::size_t aggregators = 0;
  std::uint64_t cycles = 0;
  double cycles_per_sec = 0;
  double events_per_sec = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_bytes_full = 0;
  double wire_ratio = 0;
  std::uint64_t frames_full = 0;
  std::uint64_t frames_delta = 0;
  double final_data_limit_sum = 0;
};

SimRow sim_row(std::size_t stages, std::size_t aggregators,
               std::uint64_t max_cycles, bool full_recompute) {
  sds::sim::ExperimentConfig config;
  config.num_stages = stages;
  config.num_aggregators = aggregators;
  config.stages_per_job = 50;
  config.duration = sds::seconds(120);  // max_cycles is the real bound
  config.max_cycles = max_cycles;
  config.delta_collect = true;
  config.delta_refresh = 64;
  config.psfa_full_recompute = full_recompute;
  const auto start = std::chrono::steady_clock::now();
  const auto result = sds::sim::run_experiment(config);
  if (!result.is_ok()) {
    std::printf("FAIL: sim at %zu stages: %s\n", stages,
                result.status().to_string().c_str());
    return {};
  }
  const double secs = seconds_since(start);
  SimRow row;
  row.ok = true;
  row.stages = stages;
  row.aggregators = aggregators;
  row.cycles = result->cycles;
  row.cycles_per_sec = static_cast<double>(result->cycles) / secs;
  row.events_per_sec = static_cast<double>(result->events_executed) / secs;
  row.wire_bytes = result->collect_wire_bytes;
  row.wire_bytes_full = result->collect_wire_bytes_full;
  row.wire_ratio = row.wire_bytes > 0
                       ? static_cast<double>(row.wire_bytes_full) /
                             static_cast<double>(row.wire_bytes)
                       : 0;
  row.frames_full = result->collect_frames_full;
  row.frames_delta = result->collect_frames_delta;
  row.final_data_limit_sum = result->final_data_limit_sum;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool extended = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--extended") == 0) extended = true;
  }
  // Quick shrinks stage counts ~5x and cycle counts so the `million`
  // CTest smoke finishes in seconds while exercising every code path
  // and every gate (at a softer speedup bar — the incremental win
  // grows with scale).
  const std::size_t store_stages = quick ? 20'000 : 100'000;
  const std::size_t store_jobs = quick ? 400 : 2'000;
  const std::uint64_t store_cycles = quick ? 10 : 20;
  const std::uint64_t compute_cycles = quick ? 200 : 60;
  const double churn = 0.01;
  // Enough cycles to pass the initial limit ramp: while limits move,
  // every delta carries real field payloads; the 3x wire gate is about
  // the steady state that follows.
  const std::size_t sim_stages = quick ? 10'000 : 100'000;
  const std::size_t sim_aggs = quick ? 10 : 50;
  const std::uint64_t sim_cycles = 60;
  const double speedup_bar = quick ? 3.0 : 5.0;

  unsigned hw_threads = std::thread::hardware_concurrency();
  if (hw_threads == 0) hw_threads = 1;
  std::printf("perf_million (%s, %u hw threads)\n", quick ? "quick" : "full",
              hw_threads);

  const StoreThroughput store =
      store_throughput(store_stages, store_jobs, store_cycles);
  std::printf("store.update_msgs_per_sec     %14.0f\n",
              store.full_msgs_per_sec);
  std::printf("store.delta_fold_msgs_per_sec %14.0f\n",
              store.delta_msgs_per_sec);
  if (store.full_msgs_per_sec <= 0 || store.delta_msgs_per_sec <= 0) {
    std::printf("FAIL: store fold rejected an in-sequence report\n");
    return 1;
  }

  const ComputeAb compute =
      compute_ab(store_stages, store_jobs, compute_cycles, churn);
  std::printf("compute.num_stages            %14zu\n", store_stages);
  std::printf("compute.churn_pct             %14.1f\n", churn * 100);
  std::printf("compute.incremental_cycles_per_sec %9.2f\n",
              compute.incremental_cycles_per_sec);
  std::printf("compute.full_cycles_per_sec   %14.2f\n",
              compute.full_cycles_per_sec);
  std::printf("compute.speedup               %13.2fx\n", compute.speedup);
  std::printf("compute.jobs_resummed         %8llu vs %llu full\n",
              static_cast<unsigned long long>(
                  compute.incremental_jobs_resummed),
              static_cast<unsigned long long>(compute.full_jobs_resummed));

  const SimRow sim = sim_row(sim_stages, sim_aggs, sim_cycles, false);
  if (!sim.ok) return 1;
  const SimRow sim_full = sim_row(sim_stages, sim_aggs, sim_cycles, true);
  if (!sim_full.ok) return 1;
  std::printf("sim.num_stages                %14zu\n", sim.stages);
  std::printf("sim.aggregators               %14zu\n", sim.aggregators);
  std::printf("sim.cycles                    %14llu\n",
              static_cast<unsigned long long>(sim.cycles));
  std::printf("sim.cycles_per_sec            %14.2f\n", sim.cycles_per_sec);
  std::printf("sim.events_per_sec            %14.0f\n", sim.events_per_sec);
  std::printf("sim.collect_wire_bytes        %14llu\n",
              static_cast<unsigned long long>(sim.wire_bytes));
  std::printf("sim.collect_wire_bytes_full   %14llu\n",
              static_cast<unsigned long long>(sim.wire_bytes_full));
  std::printf("sim.delta_compression         %13.2fx\n", sim.wire_ratio);

  SimRow million;
  if (extended) {
    million = sim_row(1'000'000, 500, 5, false);
    if (!million.ok) return 1;
    std::printf("sim1m.cycles_per_sec          %14.2f\n",
                million.cycles_per_sec);
    std::printf("sim1m.events_per_sec          %14.0f\n",
                million.events_per_sec);
    std::printf("sim1m.delta_compression       %13.2fx\n",
                million.wire_ratio);
  }

  Gate compute_gate("compute_identity");
  compute_gate.ran = true;
  compute_gate.pass = compute.identical;
  compute_gate.detail =
      format("%.0f of %.0f cycles bit-identical to full recompute",
             static_cast<double>(compute.identical_cycles),
             static_cast<double>(compute_cycles));
  Gate speedup_gate("incremental_speedup");
  speedup_gate.ran = true;
  speedup_gate.pass = compute.speedup >= speedup_bar;
  speedup_gate.detail =
      format("%.2fx vs >= %.2fx", compute.speedup, speedup_bar);
  // The end-to-end run must end on exactly the limits of its
  // full-recompute twin, after as many cycles.
  Gate sim_gate("full_recompute_identity");
  sim_gate.ran = true;
  sim_gate.pass = sim.final_data_limit_sum == sim_full.final_data_limit_sum &&
                  sim.cycles == sim_full.cycles;
  sim_gate.detail = format("limit sum %.17g vs %.17g", sim.final_data_limit_sum,
                           sim_full.final_data_limit_sum);
  Gate wire_gate("delta_compression");
  wire_gate.ran = true;
  wire_gate.pass = sim.wire_ratio >= 3.0;
  wire_gate.detail = format("%.2fx vs >= %.2fx", sim.wire_ratio, 3.0);
  const Gate* gates[] = {&compute_gate, &speedup_gate, &sim_gate, &wire_gate};
  bool all_pass = true;
  for (const Gate* gate : gates) {
    gate->report();
    all_pass = all_pass && gate->pass;
  }

  std::string path = "BENCH_million.json";
  if (const char* dir = std::getenv("SDSCALE_BENCH_OUT")) {
    path = std::string(dir) + "/BENCH_million.json";
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_million\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"store\": {\n"
                 "    \"num_stages\": %zu,\n"
                 "    \"update_msgs_per_sec\": %.0f,\n"
                 "    \"delta_fold_msgs_per_sec\": %.0f\n"
                 "  },\n"
                 "  \"compute\": {\n"
                 "    \"num_stages\": %zu,\n"
                 "    \"num_jobs\": %zu,\n"
                 "    \"churn_pct\": %.1f,\n"
                 "    \"incremental_cycles_per_sec\": %.2f,\n"
                 "    \"full_recompute_cycles_per_sec\": %.2f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"bit_identical\": %s\n"
                 "  },\n"
                 "  \"sim\": {\n"
                 "    \"num_stages\": %zu,\n"
                 "    \"num_aggregators\": %zu,\n"
                 "    \"cycles\": %llu,\n"
                 "    \"cycles_per_sec\": %.2f,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"collect_wire_bytes\": %llu,\n"
                 "    \"collect_wire_bytes_full\": %llu,\n"
                 "    \"delta_compression\": %.2f,\n"
                 "    \"collect_frames_full\": %llu,\n"
                 "    \"collect_frames_delta\": %llu,\n"
                 "    \"full_recompute_bit_identical\": %s\n"
                 "  },\n",
                 quick ? "quick" : "full", hw_threads, store_stages,
                 store.full_msgs_per_sec, store.delta_msgs_per_sec,
                 store_stages, store_jobs, churn * 100,
                 compute.incremental_cycles_per_sec,
                 compute.full_cycles_per_sec, compute.speedup,
                 compute.identical ? "true" : "false", sim.stages,
                 sim.aggregators,
                 static_cast<unsigned long long>(sim.cycles),
                 sim.cycles_per_sec, sim.events_per_sec,
                 static_cast<unsigned long long>(sim.wire_bytes),
                 static_cast<unsigned long long>(sim.wire_bytes_full),
                 sim.wire_ratio,
                 static_cast<unsigned long long>(sim.frames_full),
                 static_cast<unsigned long long>(sim.frames_delta),
                 sim_gate.pass ? "true" : "false");
    if (extended) {
      std::fprintf(f,
                   "  \"sim_million\": {\n"
                   "    \"num_stages\": %zu,\n"
                   "    \"num_aggregators\": %zu,\n"
                   "    \"cycles\": %llu,\n"
                   "    \"cycles_per_sec\": %.2f,\n"
                   "    \"events_per_sec\": %.0f,\n"
                   "    \"delta_compression\": %.2f\n"
                   "  },\n",
                   million.stages, million.aggregators,
                   static_cast<unsigned long long>(million.cycles),
                   million.cycles_per_sec, million.events_per_sec,
                   million.wire_ratio);
    }
    std::fprintf(f,
                 "  \"gates\": {\n"
                 "    \"compute_identity\": %s,\n"
                 "    \"incremental_speedup\": %s,\n"
                 "    \"full_recompute_identity\": %s,\n"
                 "    \"delta_compression\": %s\n"
                 "  }\n"
                 "}\n",
                 compute_gate.json().c_str(), speedup_gate.json().c_str(),
                 sim_gate.json().c_str(), wire_gate.json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  return all_pass ? 0 : 1;
}
