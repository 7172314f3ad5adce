#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/aggregator.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "policy/incremental_psfa.h"
#include "policy/psfa.h"
#include "proto/messages.h"
#include "stats.h"
#include "transport/inproc.h"
#include "transport/tcp.h"

namespace sdsbench {

using sds::JobId;
using sds::StageId;
namespace proto = sds::proto;

// -- sim -----------------------------------------------------------------

sds::sim::ExperimentConfig sim_config(const Shape& shape, const Demand& demand,
                                      const sds::core::Budgets* budgets,
                                      const sds::fault::FaultPlan* plan,
                                      std::uint64_t cycles) {
  sds::sim::ExperimentConfig config;
  config.num_stages = shape.stages;
  config.num_aggregators = shape.aggregators;
  config.stages_per_job = shape.stages_per_job;
  config.delta_collect = shape.delta_collect;
  config.delta_refresh = 64;
  config.max_cycles = cycles;
  config.duration = kSimHorizon;
  config.fault_plan = plan;
  if (budgets != nullptr) config.budgets = *budgets;
  // The seeded draws are handed over as constant per-stage demand — the
  // simulator's default demand model, with the benchmark's seed.
  auto table = std::make_shared<const Demand>(demand);
  config.demand_factory = [table](StageId stage, sds::stage::Dimension dim) {
    const double rate = dim == sds::stage::Dimension::kData
                            ? table->data[stage.value()]
                            : table->meta[stage.value()];
    return sds::stage::DemandFn([rate](sds::Nanos) { return rate; });
  };
  return config;
}

sds::Result<SimRun> timed_run(const sds::sim::ExperimentConfig& config,
                              sds::telemetry::SpanTracer* tracer,
                              const char* span_name) {
  SimRun run;
  const double cpu0 = cpu_seconds();
  const double t0 = wall_seconds();
  sds::Result<sds::sim::ExperimentResult> result = [&] {
    const auto span = layer_span(tracer, span_name, "sim", config.max_cycles);
    return sds::sim::run_experiment(config);
  }();
  run.wall_s = wall_seconds() - t0;
  run.cpu_s = cpu_seconds() - cpu0;
  if (!result.is_ok()) return result.status();
  run.result = std::move(result).value();
  return run;
}

SimSteady steady(const SimRun& one, const SimRun& block,
                 std::size_t aggregators) {
  const auto tx_bytes = [aggregators](const SimRun& run) {
    const double elapsed_s = sds::to_seconds(run.result.elapsed);
    return (run.result.global.transmitted_mbps +
            static_cast<double>(aggregators) *
                run.result.aggregator.transmitted_mbps) *
           1e6 * elapsed_s;
  };
  const double cycles =
      static_cast<double>(block.result.cycles - one.result.cycles);
  SimSteady out;
  if (cycles <= 0) return out;
  out.events_per_cycle = static_cast<double>(block.result.events_executed -
                                             one.result.events_executed) /
                         cycles;
  out.ms_per_cycle = (block.wall_s - one.wall_s) * 1e3 / cycles;
  out.collect_bytes_per_cycle =
      static_cast<double>(block.result.collect_wire_bytes -
                          one.result.collect_wire_bytes) /
      cycles;
  out.controller_tx_bytes_per_cycle = (tx_bytes(block) - tx_bytes(one)) / cycles;
  return out;
}

// -- core ----------------------------------------------------------------

namespace {

double elapsed_ns(double since) { return (wall_seconds() - since) * 1e9; }

/// One stage report as it arrives at the controller: a full frame or a
/// delta against the stage's previous report.
struct Report {
  bool full = true;
  proto::StageMetrics metrics;
  proto::StageMetricsDelta delta;
};

}  // namespace

CoreReplay replay_core(const Shape& shape, const Demand& demand,
                       const JobChurn* churn, const sds::core::Budgets& budgets,
                       std::uint64_t cycles, sds::telemetry::SpanTracer* tracer) {
  constexpr std::uint64_t kRefresh = 64;
  const std::size_t n = shape.stages;
  const std::size_t aggs = shape.aggregators;
  const auto replay_span = layer_span(tracer, "core.replay", "core");

  sds::core::GlobalControllerCore global(
      sds::core::GlobalOptions{budgets}, std::make_unique<sds::policy::IncrementalPsfa>());
  sds::core::MetricsStore global_store;
  std::vector<std::unique_ptr<sds::core::AggregatorCore>> agg_cores;
  std::vector<std::uint32_t> agg_of(n, 0);
  std::vector<std::uint32_t> agg_slot(n, 0);
  for (std::size_t a = 0; a < aggs; ++a) {
    agg_cores.push_back(std::make_unique<sds::core::AggregatorCore>(
        sds::core::AggregatorOptions{sds::ControllerId{static_cast<std::uint32_t>(a)}}));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const StageId stage{static_cast<std::uint32_t>(i)};
    const JobId job{static_cast<std::uint32_t>(i / shape.stages_per_job)};
    (void)global_store.bind(stage, job);
    if (aggs > 0) {
      // Contiguous subtrees, as the simulator assigns them.
      agg_of[i] = static_cast<std::uint32_t>(i * aggs / n);
      agg_slot[i] = agg_cores[agg_of[i]]->store().bind(stage, job);
    }
  }

  std::vector<double> data_limit(n, proto::kUnlimited);
  std::vector<double> meta_limit(n, proto::kUnlimited);
  std::vector<proto::StageMetrics> last(n);
  std::vector<Report> reports(n);
  std::vector<double> fold_ns;
  std::vector<double> aggregate_ms;
  std::vector<double> compute_ms;
  sds::core::GlobalControllerCore::StoreComputeStats warm{};

  // Cycle 1 binds state and computes everything from scratch; it is the
  // warm-up and stays untimed.
  for (std::uint64_t cycle = 1; cycle <= cycles + 1; ++cycle) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t job = i / shape.stages_per_job;
      const double factor = churn != nullptr ? churn->factor(job, cycle) : 1.0;
      const auto throttled = [](double want, double limit) {
        return limit < 0 ? want : std::min(want, limit);
      };
      proto::StageMetrics m;
      m.cycle_id = cycle;
      m.stage_id = StageId{static_cast<std::uint32_t>(i)};
      m.job_id = JobId{static_cast<std::uint32_t>(job)};
      m.data_iops = throttled(demand.data[i] * factor, data_limit[i]);
      m.meta_iops = throttled(demand.meta[i] * factor, meta_limit[i]);
      m.data_limit = data_limit[i];
      m.meta_limit = meta_limit[i];
      Report& r = reports[i];
      r.full = !shape.delta_collect || cycle == 1 || (cycle + i) % kRefresh == 0;
      if (!r.full) {
        r.delta = proto::StageMetricsDelta::make(last[i], m, false);
      }
      r.metrics = m;
      last[i] = m;
    }

    const bool timed = cycle > 1;
    {
      const auto span =
          layer_span(timed ? tracer : nullptr, "core.fold", "core", cycle);
      const double t0 = wall_seconds();
      for (std::size_t i = 0; i < n; ++i) {
        const Report& r = reports[i];
        sds::core::MetricsStore& store =
            aggs > 0 ? agg_cores[agg_of[i]]->store() : global_store;
        const std::uint32_t slot =
            aggs > 0 ? agg_slot[i] : static_cast<std::uint32_t>(i);
        if (r.full) {
          (void)store.update(r.metrics);
        } else {
          (void)store.apply_delta(r.delta, slot);
        }
      }
      if (timed) fold_ns.push_back(elapsed_ns(t0) / static_cast<double>(n));
    }
    if (aggs > 0) {
      {
        const auto span = layer_span(timed ? tracer : nullptr,
                                     "core.aggregate", "core", cycle);
        const double t0 = wall_seconds();
        for (auto& agg : agg_cores) (void)agg->aggregate_from_store(cycle);
        if (timed) aggregate_ms.push_back(elapsed_ns(t0) * 1e-6);
      }
      // The global compute reads a store over the whole roster: the one
      // collect→compute path the roadmap keeps. Untimed plumbing.
      for (std::size_t i = 0; i < n; ++i) {
        (void)global_store.update(reports[i].metrics);
      }
    }
    if (cycle == 2) warm = global.store_compute_stats();
    const sds::core::ComputeResult* result = nullptr;
    {
      const auto span =
          layer_span(timed ? tracer : nullptr, "core.compute", "core", cycle);
      const double t0 = wall_seconds();
      result = &global.compute_from_store(global_store);
      if (timed) compute_ms.push_back(elapsed_ns(t0) * 1e-6);
    }
    for (const auto& rule : result->rules) {
      const std::uint32_t i = rule.stage_id.value();
      data_limit[i] = rule.data_iops_limit;
      meta_limit[i] = rule.meta_iops_limit;
    }
  }

  const auto& end = global.store_compute_stats();
  CoreReplay out;
  out.cycles = cycles;
  out.fold_ns_per_report = median(fold_ns);
  out.aggregate_ms_per_cycle = median(aggregate_ms);
  out.compute_ms_per_cycle = median(compute_ms);
  const auto per_cycle = [cycles](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(cycles);
  };
  out.jobs_resummed_per_cycle = per_cycle(end.jobs_resummed - warm.jobs_resummed);
  out.stages_resplit_per_cycle =
      per_cycle(end.stages_resplit - warm.stages_resplit);
  return out;
}

// -- policy --------------------------------------------------------------

double replay_psfa_us(const Shape& shape, const Demand& demand, double budget,
                      sds::telemetry::SpanTracer* tracer) {
  std::vector<sds::policy::JobDemand> demands(shape.jobs());
  for (std::size_t j = 0; j < demands.size(); ++j) {
    demands[j].job_id = JobId{static_cast<std::uint32_t>(j)};
  }
  for (std::size_t i = 0; i < shape.stages; ++i) {
    demands[i / shape.stages_per_job].demand += demand.data[i];
  }
  const auto span = layer_span(tracer, "policy.psfa", "policy");
  const sds::policy::Psfa psfa;
  std::vector<sds::policy::JobAllocation> out;
  std::vector<double> per_call_us;
  const double start = wall_seconds();
  while (per_call_us.size() < 2000 &&
         (per_call_us.size() < 20 || wall_seconds() - start < 0.05)) {
    const double t0 = wall_seconds();
    psfa.compute(demands, budget, out);
    per_call_us.push_back(elapsed_ns(t0) * 1e-3);
  }
  return median(per_call_us);
}

// -- proto ---------------------------------------------------------------

namespace {

/// Median ns per call of `fn` over batches of `batch` calls (~20 ms).
template <typename Fn>
double ns_per_call(std::size_t batch, Fn&& fn) {
  std::vector<double> samples;
  const double start = wall_seconds();
  while (samples.size() < 5 || (wall_seconds() - start < 0.02 && samples.size() < 200)) {
    const double t0 = wall_seconds();
    for (std::size_t k = 0; k < batch; ++k) fn();
    samples.push_back(elapsed_ns(t0) / static_cast<double>(batch));
  }
  return median(samples);
}

template <typename M>
CodecCost codec_cost(std::string name, const M& msg,
                     sds::telemetry::SpanTracer* tracer) {
  const auto span = layer_span(tracer, "proto." + name, "proto");
  const sds::wire::Frame frame = proto::to_frame(msg);
  // Batch sized so one batch is ~50 us of work at ~10 ns/byte.
  const std::size_t batch = std::max<std::size_t>(1, 5000 / (frame.payload.size() + 1));
  CodecCost cost;
  cost.message = std::move(name);
  std::size_t sink = 0;
  cost.encode_ns = ns_per_call(batch, [&] {
    sink += proto::to_shared_frame(msg).wire_size();
  });
  bool ok = true;
  cost.decode_ns = ns_per_call(batch, [&] {
    ok = ok && proto::from_frame<M>(frame).is_ok();
  });
  if (!ok || sink == 0) cost.decode_ns = -1;  // surfaced as a failed check
  return cost;
}

}  // namespace

std::vector<CodecCost> replay_codec(const Shape& shape, const Demand& demand,
                                    sds::telemetry::SpanTracer* tracer) {
  proto::StageMetrics prev;
  prev.cycle_id = 1000;
  prev.stage_id = StageId{7};
  prev.job_id = JobId{0};
  prev.data_iops = demand.data[7 % shape.stages];
  prev.meta_iops = demand.meta[7 % shape.stages];
  prev.data_limit = prev.data_iops * 1.2;
  prev.meta_limit = prev.meta_iops * 1.2;
  proto::StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  curr.data_iops *= 1.01;

  // One controller's share of a cycle: a flat controller sends one rule
  // per stage connection; an aggregator routes its whole subtree.
  const std::size_t subtree =
      shape.aggregators > 0 ? shape.stages / shape.aggregators : shape.stages;
  proto::EnforceBatch batch;
  batch.cycle_id = curr.cycle_id;
  const std::size_t rules = shape.aggregators > 0 ? subtree : 1;
  for (std::size_t i = 0; i < rules; ++i) {
    batch.rules.push_back({StageId{static_cast<std::uint32_t>(i)},
                           JobId{static_cast<std::uint32_t>(i / shape.stages_per_job)},
                           demand.data[i] * 1.2, demand.meta[i] * 1.2,
                           (1ull << 32) | curr.cycle_id});
  }
  proto::AggregatedMetrics summary;
  summary.cycle_id = curr.cycle_id;
  summary.from = sds::ControllerId{0};
  summary.total_stages = static_cast<std::uint32_t>(subtree);
  for (std::size_t i = 0; i < subtree; ++i) {
    const auto job = static_cast<std::uint32_t>(i / shape.stages_per_job);
    if (summary.jobs.empty() || summary.jobs.back().job_id.value() != job) {
      summary.jobs.push_back({JobId{job}, 0, 0, 0});
    }
    summary.jobs.back().data_iops += demand.data[i];
    summary.jobs.back().meta_iops += demand.meta[i];
    ++summary.jobs.back().stage_count;
    summary.digests.push_back({StageId{static_cast<std::uint32_t>(i)},
                               static_cast<float>(demand.data[i]),
                               static_cast<float>(demand.meta[i])});
  }

  return {codec_cost("stage_metrics", curr, tracer),
          codec_cost("stage_metrics_delta",
                     proto::StageMetricsDelta::make(prev, curr, false), tracer),
          codec_cost("enforce_batch", batch, tracer),
          codec_cost("aggregated_metrics", summary, tracer)};
}

// -- transport -----------------------------------------------------------

namespace {

/// Counts echoed frames arriving at the hub endpoint.
class ReplyCounter {
 public:
  void arrived() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++count_;
    }
    cv_.notify_one();
  }
  /// Wait until `target` replies arrived in total (false on timeout).
  bool wait_for_total(std::uint64_t target) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return count_ >= target; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t count_ = 0;
};

}  // namespace

sds::Result<TransportCost> replay_transport(Net net, std::size_t connections,
                                            sds::telemetry::SpanTracer* tracer) {
  // Declared before the endpoints: their delivery threads call into it
  // until the endpoints are destroyed.
  ReplyCounter replies;
  std::unique_ptr<sds::transport::Network> network;
  std::string hub_address = "sdsbench-hub";
  std::string echo_address = "sdsbench-echo";
  if (net == Net::kTcp) {
    network = std::make_unique<sds::transport::TcpNetwork>();
    hub_address = echo_address = "127.0.0.1:0";
  } else {
    network = std::make_unique<sds::transport::InProcNetwork>();
  }
  auto echo = network->bind(echo_address, {});
  if (!echo.is_ok()) return echo.status();
  auto hub = network->bind(hub_address, {});
  if (!hub.is_ok()) return hub.status();
  sds::transport::Endpoint* echo_ep = echo.value().get();
  echo_ep->set_frame_handler([echo_ep](sds::ConnId conn, sds::wire::Frame frame) {
    (void)echo_ep->send(conn, std::move(frame));
  });
  echo_ep->set_conn_handler([](sds::ConnId, sds::transport::ConnEvent) {});
  hub.value()->set_frame_handler(
      [&replies](sds::ConnId, sds::wire::Frame) { replies.arrived(); });
  hub.value()->set_conn_handler([](sds::ConnId, sds::transport::ConnEvent) {});

  std::vector<sds::ConnId> conns;
  for (std::size_t c = 0; c < connections; ++c) {
    auto conn = hub.value()->connect(echo_ep->address());
    if (!conn.is_ok()) return conn.status();
    conns.push_back(conn.value());
  }
  proto::CollectRequest request;
  request.cycle_id = 1;
  const sds::wire::SharedFrame frame = proto::to_shared_frame(request);

  TransportCost cost;
  std::uint64_t expected = 0;
  bool ok = true;
  {
    const auto span = layer_span(tracer, "transport.ping_pong", "transport");
    std::vector<double> rtt_us;
    for (int k = 0; k < 300 && ok; ++k) {
      const double t0 = wall_seconds();
      ok = hub.value()->send_shared(conns.front(), frame).is_ok() &&
           replies.wait_for_total(++expected);
      rtt_us.push_back(elapsed_ns(t0) * 1e-3);
    }
    cost.rtt_us = median(rtt_us);
  }
  {
    const auto span = layer_span(tracer, "transport.fanout", "transport");
    std::vector<double> wave_ms;
    const double start = wall_seconds();
    while (ok && (wave_ms.size() < 10 ||
                  (wave_ms.size() < 200 && wall_seconds() - start < 1.0))) {
      const double t0 = wall_seconds();
      for (const sds::ConnId conn : conns) {
        ok = ok && hub.value()->send_shared(conn, frame).is_ok();
      }
      expected += conns.size();
      ok = ok && replies.wait_for_total(expected);
      wave_ms.push_back(elapsed_ns(t0) * 1e-6);
    }
    cost.fanout_wave_ms = median(wave_ms);
  }
  hub.value()->shutdown();
  echo_ep->shutdown();
  if (!ok) return sds::Status::unavailable("transport replay lost a frame");
  return cost;
}

// -- The per-layer set every workload reports -----------------------------

void add_replayed_layers(RunReport& report, const Shape& shape,
                         const Demand& demand, const JobChurn* churn,
                         const sds::core::Budgets& budgets, const SimSteady& sim,
                         bool faulted, const std::string& sim_note,
                         sds::telemetry::SpanTracer* tracer) {
  // About 2M stage reports per replay, within 10..200 cycles.
  const std::uint64_t cycles =
      std::clamp<std::uint64_t>(2'000'000 / shape.stages, 10, 200);
  const CoreReplay core =
      replay_core(shape, demand, churn, budgets, cycles, tracer);
  // Only the core calls the simulator itself makes on this shape.
  const bool hier = shape.aggregators > 0;
  double core_ms = 0;
  if (!faulted) {
    core_ms = core.fold_ns_per_report * 1e-6 *
                  static_cast<double>(shape.stages) +
              (hier ? core.aggregate_ms_per_cycle : core.compute_ms_per_cycle);
  }

  report.add("sim.events_per_cycle", sim.events_per_cycle, "count", sim_note);
  report.add("sim.events_per_s", sim.events_per_cycle * 1e3 / sim.ms_per_cycle,
             "1/s");
  report.add("sim.self_ms_per_cycle", sim.ms_per_cycle - core_ms, "ms",
             faulted ? "wall per simulated cycle (batch pipeline, no "
                       "replayed core call)"
             : hier  ? "wall per simulated cycle minus replayed fold and "
                       "aggregate"
                     : "wall per simulated cycle minus replayed fold and "
                       "compute");
  const std::string replayed =
      "median of " + std::to_string(core.cycles) + " replayed cycles";
  report.add("core.fold_ns_per_report", core.fold_ns_per_report, "ns", replayed);
  report.add("core.compute_ms_per_cycle", core.compute_ms_per_cycle, "ms",
             replayed);
  report.add("core.jobs_resummed_per_cycle", core.jobs_resummed_per_cycle,
             "count");
  report.add("core.stages_resplit_per_cycle", core.stages_resplit_per_cycle,
             "count");
  if (shape.aggregators > 0) {
    report.add_extra("core.aggregate_ms_per_cycle", core.aggregate_ms_per_cycle,
                     "ms", replayed);
  }
  report.add("policy.psfa_us_per_call",
             replay_psfa_us(shape, demand, budgets.data_iops, tracer), "us",
             std::to_string(shape.jobs()) + " jobs");
  for (const CodecCost& c : replay_codec(shape, demand, tracer)) {
    report.check(c.decode_ns >= 0, "proto round trip of " + c.message);
    report.add("proto.encode_ns." + c.message, c.encode_ns, "ns");
    report.add("proto.decode_ns." + c.message, c.decode_ns, "ns");
  }
}

}  // namespace sdsbench
