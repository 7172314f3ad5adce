// Scale-experiment driver: reproduces the paper's methodology (§III) in
// the discrete-event simulator.
//
// A run deploys one global controller, optionally a layer of aggregator
// controllers, and N virtual data-plane stages, then executes the stress
// workload: control cycles back-to-back with no idle gap, each cycle
// collecting metrics from every stage, running PSFA, and enforcing rules
// on every stage. Latency per phase is recorded exactly as the paper
// measures it (at the global controller), and per-controller resource
// usage mirrors the REMORA columns of Tables II–IV.
//
// All control decisions are made by the real core:: logic; the simulator
// models only *time* and *resources*.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/cycle_stats.h"
#include "core/policy_table.h"
#include "fault/plan.h"
#include "policy/psfa.h"
#include "sim/profile.h"
#include "stage/virtual_stage.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"

namespace sds::sim {

struct ExperimentConfig {
  /// Virtual data-plane stages (the paper treats each as one compute
  /// node; §III-D).
  std::size_t num_stages = 50;
  /// Aggregator controllers; 0 selects the flat design.
  std::size_t num_aggregators = 0;
  /// Optional third control level: super-aggregators between the global
  /// controller and the aggregators (global → supers → aggregators →
  /// stages). Each super-aggregator relays collects downward, merges its
  /// children's summaries upward, and splits enforce batches per child.
  /// Requires num_aggregators > 0, pre-aggregation, parallel fan-out and
  /// central decisions. A deeper tree becomes *necessary* only when the
  /// 2-level fan-outs exceed the connection cap (cap² stages); below
  /// that it just adds a hop — which this mode lets you measure.
  std::size_t num_super_aggregators = 0;
  /// Coordinated flat peers (paper §VI future work #1): K controllers
  /// each own a disjoint stage set, exchange per-job demand summaries
  /// all-to-all each cycle, and deterministically compute the same
  /// global PSFA before enforcing their own subtree. Mutually exclusive
  /// with num_aggregators; 0 disables.
  std::size_t coordinated_peers = 0;
  /// Stages per job (jobs drive the PSFA input size).
  std::size_t stages_per_job = 50;
  /// Simulated stress duration (the paper runs >= 5 min; the default is
  /// shorter because the deterministic simulator needs no settling).
  Nanos duration = seconds(20);
  /// Optional hard cap on executed cycles (0 = run until `duration`).
  std::uint64_t max_cycles = 0;
  /// Control-cycle periodicity (paper §II-B: "usually set by the system
  /// administrator"). 0 = stress mode, cycles run back-to-back; > 0 =
  /// cycle n+1 starts `cycle_period` after cycle n started (or
  /// immediately, if the cycle ran longer than the period).
  Nanos cycle_period = Nanos{0};
  /// Aggregators merge stage metrics into job summaries before
  /// forwarding (ablation for Observation #7 when disabled).
  bool preaggregate = true;
  /// Aggregator subtrees work concurrently (ablation when disabled:
  /// the global controller walks aggregators one at a time).
  bool parallel_fanout = true;
  /// Future-work mode (§VI): aggregators run PSFA locally under budget
  /// leases; the global controller only re-leases budgets.
  bool local_decisions = false;
  core::Budgets budgets{};
  /// PSFA tuning (activity threshold, headroom ramp, probe share).
  policy::PsfaOptions psfa{};
  /// Columnar collect path: controllers fold stage reports into a
  /// core::MetricsStore in place and recompute incrementally from it
  /// (flat: GlobalControllerCore::compute_from_store; hierarchical:
  /// AggregatorCore::aggregate_from_store at each aggregator). Rules are
  /// bit-identical to the batch path on the flat topology; hierarchical
  /// summaries are store-slot-ordered instead of arrival-ordered, which
  /// only perturbs last-bit FP rounding. Silently falls back to the
  /// legacy batch path under a fault plan (degraded cycles need the
  /// received-only compaction), in coordinated mode (peers summarize in
  /// arrival order, like aggregators on the batch path), in pass-through
  /// mode and with local decisions.
  bool store_collect = true;
  /// Ablation: force the store-backed compute to rebuild every job from
  /// scratch each cycle. Identical decisions, none of the incremental
  /// savings — the control arm for the bit-identity claim.
  bool psfa_full_recompute = false;
  /// Delta-encoded collect frames (requires the store path): after its
  /// first report each stage sends a StageMetricsDelta carrying only
  /// the fields that changed since its previous report, with a full
  /// StageMetrics refresh every `delta_refresh` cycles (staggered by
  /// stage index so refresh bursts spread across cycles). Deltas
  /// reproduce the full frame bit-for-bit at the receiver, so decisions
  /// are unchanged — only the modeled collect wire bytes shrink.
  bool delta_collect = false;
  std::size_t delta_refresh = 64;
  /// MetricsStore compute-view threshold (ops/s): reported moves of at
  /// most this magnitude leave the compute view — and therefore the
  /// incremental dirty sets — untouched. 0 = track every change.
  double activity_threshold = 0.0;
  FronteraProfile profile{};
  std::uint64_t seed = 42;
  /// Optional fault plan (not owned; must outlive the run). When set,
  /// the plan is compiled against the topology and injected at event
  /// granularity: crashed/partitioned stages stay silent, slow windows
  /// multiply stage CPU work, and per-message fates drop/duplicate/delay
  /// replies and acks. Controllers then close phases on the plan's
  /// quorum/deadline instead of waiting forever, recording degraded
  /// cycles, stale stages and recovery times. Injection is a pure
  /// function of (plan seed, cycle, entity), so results stay
  /// bit-identical across runs. Supported for the flat and
  /// 2-level hierarchical topologies with central decisions,
  /// pre-aggregation and parallel fan-out; nullptr = fault-free (the
  /// hooks vanish and event schedules are byte-identical to pre-fault
  /// builds).
  const fault::FaultPlan* fault_plan = nullptr;
  /// Optional custom demand model; default: constant per-stage demand
  /// drawn uniformly from [500, 1500) data ops/s and [50, 150) meta
  /// ops/s.
  std::function<stage::DemandFn(StageId, stage::Dimension)> demand_factory;
  /// Optional telemetry sinks (all may be null). When `metrics` is set,
  /// the run feeds the shared cycle histograms/counters plus
  /// `sds_sim_events_executed` and `sds_sim_virtual_time_seconds`; when
  /// `tracer` is set, it records one span per cycle phase (collect /
  /// aggregate / compute / disseminate / enforce, with the cycle id and
  /// causal span ids) plus an enclosing cycle span and per-component
  /// child spans (aggregators, a representative stage), timestamped in
  /// virtual time — ready for Perfetto and tools/trace_report. When
  /// `flight` is set, the same phase spans also land in the fixed-size
  /// flight recorder ring (always allocation-free). None of the three
  /// perturbs simulated results: tracing reads the virtual clock and
  /// never touches RNG or event ordering.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::SpanTracer* tracer = nullptr;
  telemetry::FlightRecorder* flight = nullptr;
  /// Label value distinguishing this configuration's series when several
  /// runs share one registry (exported as `configuration="<label>"`).
  std::string telemetry_label;
};

/// One controller's resource usage in the units of Tables II–IV.
struct ControllerUsage {
  double cpu_percent = 0;
  double memory_gb = 0;
  double transmitted_mbps = 0;
  double received_mbps = 0;
};

struct ExperimentResult {
  core::CycleStats stats;
  std::uint64_t cycles = 0;
  Nanos elapsed{0};
  ControllerUsage global;
  /// Average across the middle tier — aggregators in the hierarchical
  /// design or peer controllers in the coordinated-flat design (all
  /// zero for the plain flat design). In coordinated mode `global` is
  /// peer 0's usage (all peers are statistically identical).
  ControllerUsage aggregator;
  /// Average across super-aggregators (3-level hierarchies only).
  ControllerUsage super_aggregator;
  std::uint64_t events_executed = 0;
  /// Sum of enforced per-stage data limits in the final cycle —
  /// invariant-checked against the budget in tests.
  double final_data_limit_sum = 0;
  double final_meta_limit_sum = 0;
  /// Per-stage limits after the final cycle, indexed by stage id
  /// (kUnlimited where no rule was ever applied). Used to cross-validate
  /// simulated against live runs.
  std::vector<double> final_data_limits;
  std::vector<double> final_meta_limits;
  /// Time-averaged PFS load factor (sampled every 50 ms of simulated
  /// time):
  /// Σ_stages min(demand, enforced limit) / budget, per dimension.
  /// > 1 means the PFS is overloaded (limits not yet enforced);
  /// < 1 under contention means the control plane is reallocating too
  /// slowly (stale limits strand budget). The paper's reaction-time
  /// discussion (Obs. #1/#4) is about exactly this quantity.
  double mean_data_utilization = 0;
  double mean_meta_utilization = 0;
  // -- Resilience accounting (all zero without a fault plan) -----------
  /// Cycles that closed a phase on quorum/deadline instead of full
  /// replies (== stats.degraded_cycles()).
  std::uint64_t degraded_cycles = 0;
  /// Stage-cycles the controller decided on stale state
  /// (== stats.stale_stages()).
  std::uint64_t stale_stage_reports = 0;
  /// Faults the plan actually injected (swallowed replies, drops,
  /// duplicates, delays, slow-downs).
  std::uint64_t faults_injected = 0;
  /// Mean restart-to-first-fresh-collect time (ms; 0 when no stage
  /// recovered during the run).
  double mean_recovery_ms = 0;
  // -- Collect-path wire accounting -------------------------------------
  /// Bytes of accepted stage→controller collect report frames as modeled
  /// on the wire (delta frames when delta_collect is on).
  std::uint64_t collect_wire_bytes = 0;
  /// What the same reports would have cost as full StageMetrics frames
  /// (== collect_wire_bytes when delta_collect is off). The ratio
  /// full/actual is the delta compression factor the wire benchmarks
  /// gate on.
  std::uint64_t collect_wire_bytes_full = 0;
  std::uint64_t collect_frames_full = 0;
  std::uint64_t collect_frames_delta = 0;
};

/// Run one configuration. Fails with kResourceExhausted when a topology
/// exceeds the per-node connection cap (e.g. flat beyond 2,500 stages) —
/// the hardware ceiling the paper identifies.
[[nodiscard]] Result<ExperimentResult> run_experiment(const ExperimentConfig& config);

}  // namespace sds::sim
