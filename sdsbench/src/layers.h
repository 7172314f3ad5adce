// Per-layer measurements for the traced run. Each one times calls into a
// layer's public entry points from outside, on the workload's shapes:
//
//   sim        run_experiment (one-cycle and block runs)
//   core       MetricsStore::update / apply_delta,
//              AggregatorCore::aggregate_from_store,
//              GlobalControllerCore::compute_from_store, in a closed loop
//              that feeds the computed limits back into the next reports
//   policy     policy::Psfa::compute
//   proto      proto::to_shared_frame / proto::from_frame
//   transport  Endpoint::send on the workload's Network (ping-pong and a
//              one-frame-per-connection fan-out wave)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "sim/experiment.h"

namespace sdsbench {

// -- sim -----------------------------------------------------------------

/// The simulator configuration of a shape: default demand distribution
/// (drawn from the seed), library-default budgets unless `budgets` is
/// given, lanes left at their default, simulated time capped at
/// kSimHorizon.
[[nodiscard]] sds::sim::ExperimentConfig sim_config(
    const Shape& shape, const Demand& demand, const sds::core::Budgets* budgets,
    const sds::fault::FaultPlan* plan, std::uint64_t cycles);

/// One run_experiment call, timed.
struct SimRun {
  sds::sim::ExperimentResult result;
  double wall_s = 0;
  double cpu_s = 0;
};
[[nodiscard]] sds::Result<SimRun> timed_run(
    const sds::sim::ExperimentConfig& config,
    sds::telemetry::SpanTracer* tracer, const char* span_name);

/// Steady-state per-cycle figures from a K-cycle run minus a one-cycle
/// run of the same configuration (cycles 2..K).
struct SimSteady {
  double events_per_cycle = 0;
  double ms_per_cycle = 0;
  double collect_bytes_per_cycle = 0;
  /// Bytes every controller transmits per cycle (collect requests and
  /// rule batches), as the simulator models them.
  double controller_tx_bytes_per_cycle = 0;
};
[[nodiscard]] SimSteady steady(const SimRun& one, const SimRun& block,
                               std::size_t aggregators);

// -- core ----------------------------------------------------------------

struct CoreReplay {
  std::uint64_t cycles = 0;
  double fold_ns_per_report = 0;
  /// Hierarchical shapes only (0 when flat).
  double aggregate_ms_per_cycle = 0;
  double compute_ms_per_cycle = 0;
  double jobs_resummed_per_cycle = 0;
  double stages_resplit_per_cycle = 0;
};
/// `churn` may be null (constant demand).
[[nodiscard]] CoreReplay replay_core(const Shape& shape, const Demand& demand,
                                     const JobChurn* churn,
                                     const sds::core::Budgets& budgets,
                                     std::uint64_t cycles,
                                     sds::telemetry::SpanTracer* tracer);

// -- policy --------------------------------------------------------------

/// Median microseconds per Psfa::compute call over the shape's per-job
/// data demand against `budget`.
[[nodiscard]] double replay_psfa_us(const Shape& shape, const Demand& demand,
                                    double budget,
                                    sds::telemetry::SpanTracer* tracer);

// -- proto ---------------------------------------------------------------

struct CodecCost {
  std::string message;
  double encode_ns = 0;
  double decode_ns = 0;
};
/// stage_metrics, stage_metrics_delta, enforce_batch and
/// aggregated_metrics at the sizes one cycle of the shape carries.
[[nodiscard]] std::vector<CodecCost> replay_codec(
    const Shape& shape, const Demand& demand,
    sds::telemetry::SpanTracer* tracer);

// -- transport -----------------------------------------------------------

struct TransportCost {
  double rtt_us = 0;
  double fanout_wave_ms = 0;
};
[[nodiscard]] sds::Result<TransportCost> replay_transport(
    Net net, std::size_t connections, sds::telemetry::SpanTracer* tracer);

// -- The per-layer set every workload reports -----------------------------

/// Runs the core, policy and proto replays on `shape` and adds their
/// metrics, plus sim.* from `sim` — the workload's own simulated blocks,
/// or the simulator's prediction for a live topology. sim.self_ms_per_cycle
/// is the simulated cycle's wall time minus the replayed time of the core
/// calls the simulator itself makes on that shape: fold and compute from
/// the store when flat; fold and aggregate from the store when
/// hierarchical (its global compute runs over batch summaries, which the
/// benchmark does not call); none under a fault plan (`faulted`), where
/// it runs the batch pipeline only.
void add_replayed_layers(RunReport& report, const Shape& shape,
                         const Demand& demand, const JobChurn* churn,
                         const sds::core::Budgets& budgets, const SimSteady& sim,
                         bool faulted, const std::string& sim_note,
                         sds::telemetry::SpanTracer* tracer);

}  // namespace sdsbench
