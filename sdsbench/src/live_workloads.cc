// Live-runtime workloads (live_flat_tcp, live_hier_inproc): a
// GlobalControllerServer, optional AggregatorServers and StageHosts in
// this process, driven by one thread that issues run_cycle() back to back
// (closed loop). Every virtual stage keeps its own connection.
//
// The topology is assembled from the server classes directly rather than
// through runtime::Deployment so the traced run can hand every server the
// same MetricsRegistry and SpanTracer (TelemetryOptions), and so the TCP
// workload can bind ephemeral loopback ports.
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "layers.h"
#include "runtime/aggregator_server.h"
#include "runtime/global_server.h"
#include "runtime/stage_host.h"
#include "stats.h"
#include "transport/inproc.h"
#include "transport/tcp.h"

namespace sdsbench {

namespace {

using sds::Nanos;
using sds::core::PhaseBreakdown;
namespace runtime = sds::runtime;
namespace telemetry = sds::telemetry;

/// Demand the stage hosts read: the seeded base draw times the job's
/// churn level at the cycle the driver is about to run. The driver
/// advances the cycle between run_cycle() calls; hosts read it on their
/// delivery threads while answering the collect.
class LiveDemand {
 public:
  LiveDemand(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec),
        base_(draw_demand(seed, spec.stages)),
        churn_(seed, spec.churn_period) {}

  void set_cycle(std::uint64_t cycle) {
    cycle_.store(cycle, std::memory_order_release);
  }
  [[nodiscard]] double data(std::size_t stage) const {
    return base_.data[stage] * factor(stage);
  }
  [[nodiscard]] double meta(std::size_t stage) const {
    return base_.meta[stage] * factor(stage);
  }
  [[nodiscard]] const Demand& base() const { return base_; }
  [[nodiscard]] const JobChurn* churn() const {
    return spec_.churn_period > 0 ? &churn_ : nullptr;
  }

 private:
  [[nodiscard]] double factor(std::size_t stage) const {
    if (spec_.churn_period == 0) return 1.0;
    return churn_.factor(stage / spec_.stages_per_job,
                         cycle_.load(std::memory_order_acquire));
  }

  const WorkloadSpec& spec_;
  const Demand base_;
  const JobChurn churn_;
  std::atomic<std::uint64_t> cycle_{1};
};

/// Shared sinks handed to every server of a traced rig.
struct TelemetryHooks {
  telemetry::MetricsRegistry* registry = nullptr;
  telemetry::SpanTracer* tracer = nullptr;
};

telemetry::TelemetryOptions telemetry_for(const TelemetryHooks* hooks,
                                          std::string component,
                                          std::uint32_t track) {
  telemetry::TelemetryOptions options;
  if (hooks == nullptr) return options;
  options.enabled = true;
  options.component = std::move(component);
  options.registry = hooks->registry;
  options.tracer = hooks->tracer;
  options.track = track;
  return options;
}

void add_counters(sds::transport::Counters& sum,
                  const sds::transport::Counters& c) {
  sum.bytes_sent += c.bytes_sent;
  sum.bytes_received += c.bytes_received;
  sum.messages_sent += c.messages_sent;
  sum.messages_received += c.messages_received;
}

class LiveRig {
 public:
  static sds::Result<std::unique_ptr<LiveRig>> build(
      const WorkloadSpec& spec, const LiveDemand& demand,
      const sds::core::Budgets& budgets, const TelemetryHooks* hooks);

  ~LiveRig() {
    // Stages first (they would otherwise fail over), then the middle
    // tier, then the global controller; the network goes last.
    for (auto& host : hosts_) host->shutdown();
    for (auto& agg : aggregators_) agg->shutdown();
    if (global_) global_->shutdown();
  }
  LiveRig(const LiveRig&) = delete;
  LiveRig& operator=(const LiveRig&) = delete;

  [[nodiscard]] runtime::GlobalControllerServer& global() { return *global_; }

  /// Transport counters summed over the controllers (global and
  /// aggregators) or over every endpoint.
  [[nodiscard]] sds::transport::Counters controller_counters() {
    sds::transport::Counters sum;
    add_counters(sum, global_->endpoint()->counters());
    for (auto& agg : aggregators_) add_counters(sum, agg->endpoint()->counters());
    return sum;
  }
  [[nodiscard]] sds::transport::Counters all_counters() {
    sds::transport::Counters sum = controller_counters();
    for (auto& host : hosts_) add_counters(sum, host->endpoint()->counters());
    return sum;
  }

  /// Every stage holds a rule, and the enforced limits sum to at most
  /// the budget in each dimension.
  void check_rules(const sds::core::Budgets& budgets, RunReport& report) const {
    std::size_t unruled = 0;
    double data_sum = 0;
    double meta_sum = 0;
    for (std::size_t i = 0; i < spec_->stages; ++i) {
      const sds::StageId stage{static_cast<std::uint32_t>(i)};
      const auto& host = hosts_[i / stages_per_host_];
      const auto data = host->stage_limit(stage, sds::stage::Dimension::kData);
      const auto meta = host->stage_limit(stage, sds::stage::Dimension::kMeta);
      if (!data.is_ok() || !meta.is_ok() || *data < 0 || *meta < 0) {
        ++unruled;
        continue;
      }
      data_sum += *data;
      meta_sum += *meta;
    }
    report.check(unruled == 0, std::to_string(spec_->stages - unruled) + "/" +
                                   std::to_string(spec_->stages) +
                                   " stages hold a rule");
    const double slack = 1 + 1e-9;
    report.check(data_sum <= budgets.data_iops * slack &&
                     meta_sum <= budgets.meta_iops * slack,
                 "enforced limits within budget (data " +
                     std::to_string(data_sum) + " <= " +
                     std::to_string(budgets.data_iops) + ", meta " +
                     std::to_string(meta_sum) + " <= " +
                     std::to_string(budgets.meta_iops) + ")");
  }

 private:
  LiveRig() = default;

  const WorkloadSpec* spec_ = nullptr;
  std::size_t stages_per_host_ = 1;
  // Declared first so it is destroyed last.
  std::unique_ptr<sds::transport::Network> network_;
  std::unique_ptr<runtime::GlobalControllerServer> global_;
  std::vector<std::unique_ptr<runtime::AggregatorServer>> aggregators_;
  std::vector<std::unique_ptr<runtime::StageHost>> hosts_;
};

sds::Result<std::unique_ptr<LiveRig>> LiveRig::build(
    const WorkloadSpec& spec, const LiveDemand& demand,
    const sds::core::Budgets& budgets, const TelemetryHooks* hooks) {
  auto rig = std::unique_ptr<LiveRig>(new LiveRig());
  rig->spec_ = &spec;
  const bool tcp = spec.net == Net::kTcp;
  if (tcp) {
    rig->network_ = std::make_unique<sds::transport::TcpNetwork>();
  } else {
    rig->network_ = std::make_unique<sds::transport::InProcNetwork>();
  }
  const auto address = [tcp](const std::string& name) {
    return tcp ? std::string("127.0.0.1:0") : name;
  };
  const Nanos phase_timeout = sds::seconds(5);

  runtime::GlobalServerOptions global_options;
  global_options.core.budgets = budgets;
  global_options.phase_timeout = phase_timeout;
  global_options.telemetry = telemetry_for(hooks, "global", 0);
  rig->global_ = std::make_unique<runtime::GlobalControllerServer>(
      *rig->network_, address("global"), global_options);
  SDS_RETURN_IF_ERROR(rig->global_->start());

  std::uint32_t track = 1;
  for (std::size_t a = 0; a < spec.aggregators; ++a) {
    runtime::AggregatorServerOptions options;
    options.id = sds::ControllerId{static_cast<std::uint32_t>(a)};
    options.upstream_address = rig->global_->address();
    options.phase_timeout = phase_timeout;
    options.telemetry = telemetry_for(hooks, "agg" + std::to_string(a), track++);
    auto agg = std::make_unique<runtime::AggregatorServer>(
        *rig->network_, address("agg" + std::to_string(a)), options);
    SDS_RETURN_IF_ERROR(agg->start());
    rig->aggregators_.push_back(std::move(agg));
  }

  rig->stages_per_host_ = (spec.stages + spec.hosts - 1) / spec.hosts;
  for (std::size_t h = 0; h < spec.hosts; ++h) {
    const std::string name = "host" + std::to_string(h);
    runtime::StageHostOptions options;
    options.controller_addresses = {
        spec.aggregators > 0
            ? rig->aggregators_[h % spec.aggregators]->address()
            : rig->global_->address()};
    options.delta_metrics = spec.delta_collect;
    options.delta_refresh = 64;
    options.telemetry = telemetry_for(hooks, name, track++);
    auto host = std::make_unique<runtime::StageHost>(*rig->network_,
                                                     address(name), options);
    SDS_RETURN_IF_ERROR(host->start());
    const std::size_t first = h * rig->stages_per_host_;
    const std::size_t last = std::min(spec.stages, first + rig->stages_per_host_);
    for (std::size_t i = first; i < last; ++i) {
      sds::proto::StageInfo info;
      info.stage_id = sds::StageId{static_cast<std::uint32_t>(i)};
      info.node_id = sds::NodeId{static_cast<std::uint32_t>(i)};
      info.job_id = sds::JobId{static_cast<std::uint32_t>(i / spec.stages_per_job)};
      info.hostname = name;
      SDS_RETURN_IF_ERROR(host->add_stage(
          info, [&demand, i](Nanos) { return demand.data(i); },
          [&demand, i](Nanos) { return demand.meta(i); }));
    }
    rig->hosts_.push_back(std::move(host));
  }
  for (auto& host : rig->hosts_) SDS_RETURN_IF_ERROR(host->register_all());

  const double deadline = wall_seconds() + 30;
  while (rig->global_->registered_stages() < spec.stages) {
    if (wall_seconds() > deadline) {
      return sds::Status::deadline_exceeded(
          "global controller saw " +
          std::to_string(rig->global_->registered_stages()) + "/" +
          std::to_string(spec.stages) + " registrations");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return rig;
}

/// Closed-loop cycles on one rig.
struct Pass {
  /// Cycles that succeeded undegraded, in completion order.
  std::vector<CycleSample> cycles;
  std::vector<PhaseBreakdown> phases;
  std::uint64_t attempted = 0;
  /// Cycles that returned an error or closed degraded.
  std::uint64_t failed = 0;
  std::string first_failure;
  double start_s = 0;
  double start_cpu_s = 0;

  [[nodiscard]] LatencySummary latency() const {
    std::vector<double> ms;
    ms.reserve(cycles.size());
    for (const CycleSample& c : cycles) ms.push_back(c.latency_ms);
    return summarize(std::move(ms));
  }
  [[nodiscard]] WindowSummary windows() const {
    return summarize_windows(cycles, start_s, start_cpu_s, kWindowCycles);
  }
};

class Driver {
 public:
  Driver(LiveDemand& demand, telemetry::SpanTracer* tracer)
      : demand_(demand), tracer_(tracer) {}

  /// Run cycles until `max_cycles` ran or `seconds` passed (0 = no limit).
  Pass drive(LiveRig& rig, std::uint64_t max_cycles, double seconds) {
    Pass pass;
    pass.start_cpu_s = cpu_seconds();
    pass.start_s = wall_seconds();
    while (pass.attempted < max_cycles &&
           (seconds <= 0 || wall_seconds() - pass.start_s < seconds)) {
      demand_.set_cycle(next_cycle_);
      const std::uint64_t degraded_before =
          rig.global().stats().degraded_cycles();
      const double t0 = wall_seconds();
      sds::Result<PhaseBreakdown> result = [&] {
        const auto span =
            layer_span(tracer_, "runtime.run_cycle", "runtime", next_cycle_);
        return rig.global().run_cycle();
      }();
      const double t1 = wall_seconds();
      const double cpu1 = cpu_seconds();
      ++next_cycle_;
      ++pass.attempted;
      std::string failure;
      if (!result.is_ok()) {
        failure = result.status().to_string();
      } else if (rig.global().stats().degraded_cycles() != degraded_before) {
        failure = "cycle closed degraded";
      }
      if (!failure.empty()) {
        if (pass.failed++ == 0) pass.first_failure = failure;
        continue;
      }
      pass.cycles.push_back({t1, cpu1, (t1 - t0) * 1e3});
      pass.phases.push_back(*result);
    }
    return pass;
  }

  /// Build a rig and run its first cycle; returns the set-up seconds.
  sds::Result<double> set_up(std::unique_ptr<LiveRig>& rig,
                             const WorkloadSpec& spec,
                             const sds::core::Budgets& budgets,
                             const TelemetryHooks* hooks) {
    rig.reset();
    next_cycle_ = 1;
    const double t0 = wall_seconds();
    auto built = LiveRig::build(spec, demand_, budgets, hooks);
    if (!built.is_ok()) return built.status();
    rig = std::move(built).value();
    const Pass first = drive(*rig, 1, 0);
    if (first.failed > 0) {
      return sds::Status::internal("first cycle: " + first.first_failure);
    }
    return wall_seconds() - t0;
  }

 private:
  LiveDemand& demand_;
  telemetry::SpanTracer* tracer_;
  std::uint64_t next_cycle_ = 1;
};

void record_pass(const Pass& pass, const std::string& label, RunReport& report) {
  report.attempted += pass.attempted;
  report.failed += pass.failed;
  report.check(pass.failed == 0,
               label + ": " + std::to_string(pass.attempted - pass.failed) +
                   "/" + std::to_string(pass.attempted) +
                   " cycles succeeded undegraded" +
                   (pass.failed > 0 ? " (first failure: " + pass.first_failure + ")"
                                    : ""));
}

double median_of(const std::vector<PhaseBreakdown>& phases,
                 Nanos PhaseBreakdown::*field) {
  std::vector<double> ms;
  ms.reserve(phases.size());
  for (const auto& p : phases) ms.push_back(sds::to_millis(p.*field));
  return median(std::move(ms));
}

/// A loopback bind refused means the box cannot run the workload at all.
bool is_bind_failure(const sds::Status& status) {
  const std::string text = status.to_string();
  return text.find("bind") != std::string::npos ||
         text.find("listen") != std::string::npos ||
         text.find("socket") != std::string::npos;
}

}  // namespace

RunReport run_live(const Options& options) {
  const WorkloadSpec& spec = *options.spec;
  RunReport report;
  LiveDemand demand(spec, options.seed);
  const sds::core::Budgets budgets = budgets_for(demand.base(), spec.budget_share);
  constexpr std::uint64_t kWarmupCycles = 50;
  std::unique_ptr<LiveRig> rig;

  const auto setup_failed = [&](const sds::Status& status) {
    if (is_bind_failure(status)) {
      report.status = "skipped(" + status.to_string() + ")";
    } else {
      report.check(false, "set-up: " + status.to_string());
    }
    return report;
  };

  if (!options.trace) {
    Driver driver(demand, nullptr);
    std::vector<double> setup_s;
    sds::Status setup_error;
    const auto set_up_once = [&]() -> std::optional<double> {
      auto secs = driver.set_up(rig, spec, budgets, nullptr);
      if (!secs.is_ok()) {
        setup_error = secs.status();
        return std::nullopt;
      }
      return *secs;
    };
    // The last rig of the first set-up batch is the one timed.
    if (!sample_setups(setup_s, set_up_once)) return setup_failed(setup_error);
    const Pass warmup = driver.drive(*rig, kWarmupCycles, 0);
    record_pass(warmup, "warm-up", report);
    const Pass timed = driver.drive(*rig, UINT64_MAX, options.seconds);
    record_pass(timed, "timed", report);
    rig->check_rules(budgets, report);
    // Before the second set-up batch, which would only add allocator churn.
    const double peak_mb = peak_rss_mb();
    if (!sample_setups(setup_s, set_up_once)) return setup_failed(setup_error);
    rig.reset();

    const LatencySummary lat = timed.latency();
    const WindowSummary win = timed.windows();
    const std::string n = "n=" + std::to_string(lat.count) + " cycles";
    const std::string windows = "median of " + std::to_string(win.windows) +
                                " windows of " +
                                std::to_string(kWindowCycles) + " cycles, " + n;
    report.add("cycles_per_s", win.cycles_per_s, "1/s", windows);
    report.add("cycle_p50_ms", lat.p50, "ms", n);
    report.add("cycle_p90_ms", win.p90_ms, "ms", windows);
    report.add_extra("cycle_p90_ms.whole_run", lat.p90, "ms", n);
    report.add_extra("cycle_p99_ms.whole_run", lat.p99, "ms",
                     n + ", " + std::to_string(lat.beyond_p99) + " beyond");
    report.add("cpu_ms_per_cycle", win.cpu_ms_per_cycle, "ms",
               windows + ", all threads");
    report.add("setup_s", median(setup_s), "s",
               "n=" + std::to_string(setup_s.size()) +
                   " topology builds, before and after the timed loop");
    report.add("peak_rss_mb", peak_mb, "MiB",
               "VmHWM after the first set-up batch and the timed loop");
    return report;
  }

  // Traced run. Pass A: untraced rig; pass B: every server shares one
  // registry and the benchmark's tracer. Both run the same cycle count.
  const std::uint64_t cycles = spec.block_cycles;
  double untraced_p50 = 0;
  {
    Driver driver(demand, nullptr);
    auto secs = driver.set_up(rig, spec, budgets, nullptr);
    if (!secs.is_ok()) return setup_failed(secs.status());
    record_pass(driver.drive(*rig, kWarmupCycles, 0), "untraced warm-up", report);
    const Pass pass = driver.drive(*rig, cycles, 0);
    record_pass(pass, "untraced pass", report);
    untraced_p50 = pass.latency().p50;
    rig.reset();
  }
  // Servers record their own spans (cycle phases, per-stage hops) into a
  // ring of their own, merged into the benchmark's trace at the end, so
  // they cannot evict the benchmark's spans.
  telemetry::MetricsRegistry registry;
  telemetry::SpanTracer server_spans;
  const TelemetryHooks hooks{&registry,
                             options.tracer != nullptr ? &server_spans : nullptr};
  // Declared after the sinks it writes into, so it is destroyed first.
  std::unique_ptr<LiveRig> traced_rig;
  Driver driver(demand, options.tracer);
  auto secs = driver.set_up(traced_rig, spec, budgets, &hooks);
  if (!secs.is_ok()) return setup_failed(secs.status());
  record_pass(driver.drive(*traced_rig, kWarmupCycles, 0), "traced warm-up",
              report);
  const sds::transport::Counters ctl0 = traced_rig->controller_counters();
  const sds::transport::Counters all0 = traced_rig->all_counters();
  const Pass pass = driver.drive(*traced_rig, cycles, 0);
  record_pass(pass, "traced pass", report);
  const sds::transport::Counters ctl1 = traced_rig->controller_counters();
  const sds::transport::Counters all1 = traced_rig->all_counters();
  traced_rig->check_rules(budgets, report);
  // The registry polls the rig's endpoints on snapshot: take it first.
  const auto snapshot = registry.snapshot();
  traced_rig.reset();
  if (options.tracer != nullptr) {
    for (auto& span : server_spans.snapshot()) options.tracer->record(std::move(span));
    for (auto& [track, name] : server_spans.track_names()) {
      options.tracer->set_track_name(track, name);
    }
  }

  const double n = static_cast<double>(pass.attempted);
  const auto* wave = snapshot.find("sds_rpc_gather_wave_latency_ns",
                                   {{"component", "global"}});
  double timeouts = 0;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == "sds_rpc_gather_timeouts_total") timeouts += sample.value;
  }
  report.check(timeouts == 0, "no gather timed out");

  // The simulator's prediction for the same topology (sim layer), and the
  // same topology under fig7_resilience's fault plan (fault layer: the
  // live workloads run fault-free).
  const Shape shape = shape_of(spec);
  const sds::fault::FaultPlan plan = churn_plan(options.seed);
  const auto sim_cfg = [&](std::uint64_t k, const sds::fault::FaultPlan* p) {
    // The simulator refuses delta frames under fault injection (a silent
    // stage would break every later delta chain).
    Shape s = shape;
    s.delta_collect = s.delta_collect && p == nullptr;
    return sim_config(s, demand.base(), &budgets, p, k);
  };
  constexpr std::uint64_t kSimCycles = 40;
  constexpr std::uint64_t kFaultCycles = 200;
  auto one = timed_run(sim_cfg(1, nullptr), options.tracer, "sim.prediction.setup");
  auto block = timed_run(sim_cfg(kSimCycles, nullptr), options.tracer,
                         "sim.prediction");
  auto faulted = timed_run(sim_cfg(kFaultCycles, &plan), options.tracer,
                           "sim.fault_prediction");
  for (const auto* run : {&one, &block, &faulted}) {
    if (!run->is_ok()) {
      report.check(false, "sim prediction: " + run->status().to_string());
      return report;
    }
  }
  const auto& fr = faulted->result;
  report.check(fr.cycles == kFaultCycles && fr.faults_injected > 0,
               "fault prediction: " + std::to_string(fr.cycles) +
                   " cycles, faults injected");
  add_replayed_layers(report, shape, demand.base(), demand.churn(), budgets,
                      steady(*one, *block, spec.aggregators), false,
                      "simulator prediction for this topology", options.tracer);
  report.add("wire.collect_bytes_per_cycle",
             static_cast<double>(ctl1.bytes_received - ctl0.bytes_received) / n,
             "bytes", "received by controller endpoints");
  report.add("wire.enforce_bytes_per_cycle",
             static_cast<double>(ctl1.bytes_sent - ctl0.bytes_sent) / n, "bytes",
             "sent by controller endpoints");
  const double fault_cycles = static_cast<double>(fr.cycles);
  const std::string fault_note = "simulator under fig7's plan, this topology";
  report.add("fault.injected_per_cycle",
             static_cast<double>(fr.faults_injected) / fault_cycles, "count",
             fault_note);
  report.add("fault.degraded_pct",
             static_cast<double>(fr.degraded_cycles) * 100 / fault_cycles, "%",
             fault_note);
  report.add("fault.stale_per_cycle",
             static_cast<double>(fr.stale_stage_reports) / fault_cycles, "count",
             fault_note);
  report.add_extra("fault.recovery_ms", fr.mean_recovery_ms, "ms", fault_note);
  const double traced_p50 = pass.latency().p50;
  report.add("telemetry.trace_overhead_pct",
             (traced_p50 - untraced_p50) * 100 / untraced_p50, "%",
             "cycle p50, traced vs untraced rig");

  // Phases of the traced pass, as run_cycle() returns them.
  const auto phase_ms = [&](Nanos PhaseBreakdown::*field) {
    return median_of(pass.phases, field);
  };
  const std::string phases = "median of " +
                             std::to_string(pass.phases.size()) +
                             " traced cycles";
  report.add("runtime.collect_ms", phase_ms(&PhaseBreakdown::collect), "ms",
             phases);
  report.add("runtime.compute_ms", phase_ms(&PhaseBreakdown::compute), "ms",
             phases);
  report.add("runtime.enforce_ms", phase_ms(&PhaseBreakdown::enforce), "ms",
             phases);
  report.add("runtime.aggregate_ms", phase_ms(&PhaseBreakdown::aggregate),
             "ms", phases);
  report.add("runtime.disseminate_ms", phase_ms(&PhaseBreakdown::disseminate),
             "ms", phases);
  report.check(wave != nullptr && wave->hist.count > 0,
               "the global controller recorded gather waves");
  report.add("rpc.gather_wave_ms",
             wave != nullptr ? static_cast<double>(wave->hist.p50) * 1e-6 : 0,
             "ms", "global controller, p50");
  report.add("rpc.timeouts", timeouts, "count", "every server");
  report.add("transport.frames_per_cycle",
             static_cast<double>(all1.messages_sent - all0.messages_sent) / n,
             "count", "all endpoints");
  const std::size_t fanout =
      spec.aggregators > 0 ? spec.stages / spec.aggregators : spec.stages;
  auto transport = replay_transport(spec.net, fanout, options.tracer);
  report.check(transport.is_ok(),
               "transport replay" +
                   (transport.is_ok() ? std::string()
                                      : ": " + transport.status().to_string()));
  if (transport.is_ok()) {
    report.add("transport.rtt_us", transport->rtt_us, "us",
               "one-connection ping-pong, median");
    report.add("transport.fanout_wave_ms", transport->fanout_wave_ms, "ms",
               std::to_string(fanout) + " connections, median wave");
  }
  return report;
}

}  // namespace sdsbench
