// Multi-lane parallel simulation (sim/parallel.h): the tentpole claim is
// that a lane count never changes results. These tests pin that down at
// three levels — the Engine's lane hooks, the LaneRunner's merge/barrier
// semantics, and whole experiments fingerprinted bit-for-bit across lane
// counts, topologies, and seeds (a doubled field differing in one ULP
// fails the fingerprint comparison).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "telemetry/metrics.h"

namespace sds::sim {
namespace {

// ---------------------------------------------------------------------------
// Engine lane hooks

TEST(EngineLaneHooks, SameLaneScheduleCrossRunsLocally) {
  Engine e;
  e.configure_lane(3, /*capture_cross=*/true);
  std::vector<int> ran;
  e.schedule_cross(3, Nanos{10}, [&] { ran.push_back(1); });
  EXPECT_TRUE(e.outbox_empty());
  e.run();
  EXPECT_EQ(ran, std::vector<int>{1});
}

TEST(EngineLaneHooks, SerialEngineRoutesCrossCallsLocally) {
  // An unconfigured (serial) engine treats any destination lane as local:
  // schedule_cross degenerates to schedule_at.
  Engine e;
  std::vector<int> ran;
  e.schedule_cross(7, Nanos{20}, [&] { ran.push_back(7); });
  e.schedule_cross(0, Nanos{10}, [&] { ran.push_back(0); });
  EXPECT_TRUE(e.outbox_empty());
  e.run();
  EXPECT_EQ(ran, (std::vector<int>{0, 7}));
  EXPECT_EQ(e.now(), Nanos{20});
}

TEST(EngineLaneHooks, CrossLaneCallsBufferInCreationOrder) {
  Engine e;
  e.configure_lane(0, /*capture_cross=*/true);
  std::vector<int> ran;
  e.schedule_cross(1, Nanos{100}, [&] { ran.push_back(100); });
  e.schedule_cross(2, Nanos{50}, [&] { ran.push_back(50); });
  e.schedule_cross(0, Nanos{10}, [&] { ran.push_back(10); });
  ASSERT_EQ(e.outbox().size(), 2u);
  // Outbox keeps creation order; src_seq is the strictly increasing
  // per-engine merge tie-break.
  EXPECT_EQ(e.outbox()[0].at, Nanos{100});
  EXPECT_EQ(e.outbox()[0].dest_lane, 1u);
  EXPECT_EQ(e.outbox()[1].at, Nanos{50});
  EXPECT_EQ(e.outbox()[1].dest_lane, 2u);
  EXPECT_LT(e.outbox()[0].src_seq, e.outbox()[1].src_seq);
  e.run();  // only the local event executes
  EXPECT_EQ(ran, std::vector<int>{10});
}

TEST(EngineLaneHooks, RunBeforeIsStrictAndLeavesClockAtLastEvent) {
  Engine e;
  std::vector<std::int64_t> ran;
  for (const std::int64_t t : {10, 20, 30}) {
    e.schedule_at(Nanos{t}, [&ran, t] { ran.push_back(t); });
  }
  Nanos next{0};
  ASSERT_TRUE(e.peek_next(next));
  EXPECT_EQ(next, Nanos{10});
  // The bound is exclusive: the event *at* 20 must not run.
  e.run_before(Nanos{20});
  EXPECT_EQ(ran, std::vector<std::int64_t>{10});
  // Unlike run_until, the clock stays at the last executed event so the
  // lane cannot advance past events other lanes may still mail it.
  EXPECT_EQ(e.now(), Nanos{10});
  e.run_before(Nanos{31});
  EXPECT_EQ(ran, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(e.now(), Nanos{30});
  EXPECT_TRUE(e.empty());
}

TEST(EngineLaneHooks, AdvanceToNeverRewinds) {
  Engine e;
  e.advance_to(Nanos{50});
  EXPECT_EQ(e.now(), Nanos{50});
  e.advance_to(Nanos{10});
  EXPECT_EQ(e.now(), Nanos{50});
}

// ---------------------------------------------------------------------------
// LaneRunner semantics

/// Thread-safe event recorder: lane windows may run on worker threads.
struct Recorder {
  Mutex mu;
  std::vector<std::string> order;

  void add(std::string entry) {
    MutexLock lock(mu);
    order.push_back(std::move(entry));
  }
};

/// A cross-lane ping-pong chain: the same logical schedule executed with
/// any lane count. Each hop records its virtual time; the chain's trace
/// must be identical whether hops cross lanes or stay local.
std::vector<std::string> run_pingpong(std::size_t lanes,
                                      bool force_threads = false) {
  LaneRunner::Options opt;
  opt.lanes = lanes;
  opt.lookahead = micros(5);
  opt.seed = 1;
  opt.force_threads = force_threads;
  LaneRunner runner(opt);
  // The runner's own rule: threads whenever forced, and otherwise on any
  // box with spare hardware threads unless nested in a pool worker.
  const bool expect_threads =
      lanes > 1 && (force_threads ||
                    (!ThreadPool::in_worker() &&
                     std::thread::hardware_concurrency() > 1));
  EXPECT_EQ(runner.threaded(), expect_threads);
  const auto n = static_cast<std::uint32_t>(runner.lanes());
  Recorder rec;
  std::function<void(std::uint32_t, int)> hop;
  hop = [&](std::uint32_t at_lane, int depth) {
    Engine& e = runner.lane(at_lane);
    rec.add("hop" + std::to_string(depth) + "@" +
            std::to_string(e.now().count()));
    if (depth == 6) return;
    const std::uint32_t next = (at_lane + 1) % n;
    e.schedule_cross(next, e.now() + opt.lookahead,
                     [&hop, next, depth] { hop(next, depth + 1); });
  };
  runner.lane(0).schedule_at(Nanos{0}, [&hop] { hop(0, 0); });
  runner.run();
  EXPECT_EQ(runner.total_executed(), 7u);
  if (lanes > 1) {
    EXPECT_GT(runner.cross_messages(), 0u);
  }
  return rec.order;
}

TEST(LaneRunnerTest, CrossLanePingPongMatchesSerialTrace) {
  const auto serial = run_pingpong(1);
  ASSERT_EQ(serial.size(), 7u);
  EXPECT_EQ(serial.front(), "hop0@0");
  EXPECT_EQ(serial.back(), "hop6@30000");  // 6 hops x 5 us lookahead
  EXPECT_EQ(run_pingpong(2), serial);
  EXPECT_EQ(run_pingpong(3), serial);
}

// Same schedule through the worker team (forced on, so the cross-thread
// round hand-off runs — and runs under TSan — even on a 1-core box,
// where the runner would otherwise always fall back to inline lanes).
TEST(LaneRunnerTest, WorkerTeamMatchesInlineTrace) {
  const auto serial = run_pingpong(1);
  EXPECT_EQ(run_pingpong(2, /*force_threads=*/true), serial);
  EXPECT_EQ(run_pingpong(3, /*force_threads=*/true), serial);
  EXPECT_EQ(run_pingpong(7, /*force_threads=*/true), serial);
}

TEST(LaneRunnerTest, BarriersRunBeforeSameTimestampLaneEvents) {
  LaneRunner::Options opt;
  opt.lanes = 2;
  opt.lookahead = micros(1);
  LaneRunner runner(opt);
  Recorder rec;
  runner.lane(0).schedule_at(Nanos{10}, [&rec] { rec.add("lane0@10"); });
  runner.lane(1).schedule_at(Nanos{10}, [&rec] { rec.add("lane1@10"); });
  runner.schedule_barrier_at(Nanos{10}, [&rec, &runner] {
    rec.add("barrier@10");
    EXPECT_EQ(runner.barrier_now(), Nanos{10});
  });
  runner.schedule_barrier_at(Nanos{20}, [&rec] { rec.add("barrier@20"); });
  runner.run();
  ASSERT_EQ(rec.order.size(), 4u);
  // The barrier at t runs before any lane event at t; the trailing
  // barrier fires after the lanes drain. Lane events of one window may
  // interleave in any thread order, so only the barrier positions are
  // asserted.
  EXPECT_EQ(rec.order.front(), "barrier@10");
  EXPECT_EQ(rec.order.back(), "barrier@20");
  EXPECT_EQ(runner.barriers_run(), 2u);
}

TEST(LaneRunnerTest, RngStreamsIndependentOfLaneCount) {
  LaneRunner::Options two;
  two.lanes = 2;
  two.lookahead = micros(1);
  two.seed = 99;
  LaneRunner::Options four = two;
  four.lanes = 4;
  LaneRunner r2(two);
  LaneRunner r4(four);
  for (std::size_t lane = 0; lane < 2; ++lane) {
    for (int draw = 0; draw < 8; ++draw) {
      EXPECT_EQ(r2.lane_rng(lane).next_u64(), r4.lane_rng(lane).next_u64())
          << "lane " << lane << " draw " << draw;
    }
  }
}

TEST(LaneRunnerTest, IdleCallbackSeedsNewWork) {
  LaneRunner::Options opt;
  opt.lanes = 2;
  opt.lookahead = micros(1);
  LaneRunner runner(opt);
  Recorder rec;
  int waves = 0;
  runner.set_idle_callback([&] {
    if (waves == 2) return false;
    ++waves;
    const Nanos at = runner.max_lane_now() + micros(1);
    runner.lane(1).schedule_at(at, [&rec, at] {
      rec.add("wave@" + std::to_string(at.count()));
    });
    return true;
  });
  runner.lane(0).schedule_at(Nanos{0}, [&rec] { rec.add("start"); });
  runner.run();
  EXPECT_EQ(rec.order,
            (std::vector<std::string>{"start", "wave@1000", "wave@2000"}));
}

// ---------------------------------------------------------------------------
// Whole-experiment bit-identity

/// Hex image of a double's exact bit pattern: one ULP of drift between a
/// serial and a parallel run changes the fingerprint.
std::string bits(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

void append_hist(std::ostringstream& out, const Histogram& h) {
  out << h.count() << ',' << h.min() << ',' << h.max() << ',' << bits(h.mean())
      << ',' << bits(h.stddev()) << ';';
}

void append_usage(std::ostringstream& out, const ControllerUsage& u) {
  out << bits(u.cpu_percent) << ',' << bits(u.memory_gb) << ','
      << bits(u.transmitted_mbps) << ',' << bits(u.received_mbps) << ';';
}

/// Every externally visible field of an ExperimentResult, bit-exact.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  append_hist(out, r.stats.collect());
  append_hist(out, r.stats.compute());
  append_hist(out, r.stats.enforce());
  append_hist(out, r.stats.total());
  out << r.cycles << ';' << r.elapsed.count() << ';';
  append_usage(out, r.global);
  append_usage(out, r.aggregator);
  append_usage(out, r.super_aggregator);
  out << r.events_executed << ';' << bits(r.final_data_limit_sum) << ','
      << bits(r.final_meta_limit_sum) << ';';
  for (const double v : r.final_data_limits) out << bits(v) << ',';
  out << ';';
  for (const double v : r.final_meta_limits) out << bits(v) << ',';
  out << ';' << bits(r.mean_data_utilization) << ','
      << bits(r.mean_meta_utilization);
  return std::move(out).str();
}

struct Topology {
  const char* name;
  std::size_t stages;
  std::size_t aggregators;
  std::size_t super_aggregators;
  std::size_t peers;
};

ExperimentConfig make_config(const Topology& topo, std::uint64_t seed) {
  ExperimentConfig config;
  config.num_stages = topo.stages;
  config.num_aggregators = topo.aggregators;
  config.num_super_aggregators = topo.super_aggregators;
  config.coordinated_peers = topo.peers;
  config.stages_per_job = 10;
  config.duration = millis(200);
  config.max_cycles = 12;
  config.seed = seed;
  config.lanes = 1;  // explicit: callers override; never the env default
  return config;
}

TEST(ParallelExperimentTest, BitIdenticalAcrossLaneCountsTopologiesSeeds) {
  // Lane counts beyond, below, and not dividing the unit count; a
  // non-divisible hierarchy (7 aggregators); a deep tree; coordinated
  // peers whose completion is joined by the idle callback.
  const Topology topologies[] = {
      {"flat", 120, 0, 0, 0},
      {"hier", 250, 7, 0, 0},
      {"deep", 200, 8, 2, 0},
      {"coordinated", 120, 0, 0, 3},
  };
  for (const auto& topo : topologies) {
    for (const std::uint64_t seed : {42ULL, 7ULL}) {
      auto config = make_config(topo, seed);
      const auto reference = run_experiment(config);
      ASSERT_TRUE(reference.is_ok())
          << topo.name << ": " << reference.status();
      const std::string want = fingerprint(*reference);
      for (const std::size_t lanes : {2, 4, 7}) {
        config.lanes = lanes;
        const auto result = run_experiment(config);
        ASSERT_TRUE(result.is_ok())
            << topo.name << " lanes=" << lanes << ": " << result.status();
        EXPECT_EQ(fingerprint(*result), want)
            << topo.name << " lanes=" << lanes << " seed=" << seed;
      }
    }
  }
}

TEST(ParallelExperimentTest, DeltaCollectBitIdenticalAcrossLaneCounts) {
  // The delta-collect path keeps per-stage framing state on the stage's
  // lane and wire counters per receiving lane, so sharding must not
  // change a single output bit — including the wire-byte accounting.
  const Topology topologies[] = {
      {"flat-delta", 120, 0, 0, 0},
      {"hier-delta", 250, 7, 0, 0},
  };
  for (const auto& topo : topologies) {
    auto config = make_config(topo, 42);
    config.delta_collect = true;
    config.delta_refresh = 8;  // several refresh waves within 12 cycles
    const auto reference = run_experiment(config);
    ASSERT_TRUE(reference.is_ok()) << topo.name << ": " << reference.status();
    ASSERT_GT(reference->collect_frames_delta, 0u) << topo.name;
    const std::string want = fingerprint(*reference);
    for (const std::size_t lanes : {2, 4}) {
      config.lanes = lanes;
      const auto result = run_experiment(config);
      ASSERT_TRUE(result.is_ok())
          << topo.name << " lanes=" << lanes << ": " << result.status();
      EXPECT_EQ(fingerprint(*result), want) << topo.name << " lanes=" << lanes;
      EXPECT_EQ(result->collect_wire_bytes, reference->collect_wire_bytes)
          << topo.name << " lanes=" << lanes;
      EXPECT_EQ(result->collect_frames_delta, reference->collect_frames_delta)
          << topo.name << " lanes=" << lanes;
    }
  }
}

TEST(ParallelExperimentTest, Fig6StyleSweepIsLaneCountInvariant) {
  // The fig6 comparison (flat vs one-aggregator hierarchy at equal
  // scale), diffed between serial and 4-lane runs.
  const Topology sweep[] = {
      {"fig6-flat", 500, 0, 0, 0},
      {"fig6-hier", 500, 1, 0, 0},
  };
  for (const auto& topo : sweep) {
    auto config = make_config(topo, 42);
    config.max_cycles = 5;
    const auto serial = run_experiment(config);
    ASSERT_TRUE(serial.is_ok()) << serial.status();
    config.lanes = 4;
    const auto parallel = run_experiment(config);
    ASSERT_TRUE(parallel.is_ok()) << parallel.status();
    EXPECT_EQ(fingerprint(*parallel), fingerprint(*serial)) << topo.name;
  }
}

/// Number of `sds_sim_lane_events_executed` gauges — one per effective
/// lane, the only externally observable trace of the lane count.
std::size_t lane_gauge_count(telemetry::MetricsRegistry& registry) {
  std::size_t count = 0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name == "sds_sim_lane_events_executed") ++count;
  }
  return count;
}

TEST(ParallelExperimentTest, EffectiveLanesClampToTopologyUnits) {
  // Hierarchical: lanes clamp to the aggregator count (subtrees are the
  // unit of lane-locality).
  {
    auto config = make_config({"hier", 120, 3, 0, 0}, 42);
    config.lanes = 7;
    telemetry::MetricsRegistry registry;
    config.metrics = &registry;
    ASSERT_TRUE(run_experiment(config).is_ok());
    EXPECT_EQ(lane_gauge_count(registry), 3u);
  }
  // Flat: stages are the unit, so the request is honored as-is.
  {
    auto config = make_config({"flat", 120, 0, 0, 0}, 42);
    config.lanes = 4;
    telemetry::MetricsRegistry registry;
    config.metrics = &registry;
    ASSERT_TRUE(run_experiment(config).is_ok());
    EXPECT_EQ(lane_gauge_count(registry), 4u);
  }
  // No wire latency means no conservative lookahead: forced serial.
  {
    auto config = make_config({"flat", 60, 0, 0, 0}, 42);
    config.lanes = 4;
    config.profile.wire_latency = Nanos{0};
    telemetry::MetricsRegistry registry;
    config.metrics = &registry;
    ASSERT_TRUE(run_experiment(config).is_ok());
    EXPECT_EQ(lane_gauge_count(registry), 1u);
  }
}

TEST(ParallelExperimentTest, EnvVarSelectsLaneCountWhenUnset) {
  const char* saved = std::getenv("SDSCALE_SIM_LANES");
  const std::string restore = saved == nullptr ? "" : saved;

  auto config = make_config({"flat", 60, 0, 0, 0}, 42);
  const auto reference = run_experiment(config);
  ASSERT_TRUE(reference.is_ok());
  const std::string want = fingerprint(*reference);

  // lanes == 0 defers to the environment.
  ::setenv("SDSCALE_SIM_LANES", "3", 1);
  config.lanes = 0;
  {
    telemetry::MetricsRegistry registry;
    config.metrics = &registry;
    const auto result = run_experiment(config);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(lane_gauge_count(registry), 3u);
    config.metrics = nullptr;
    EXPECT_EQ(fingerprint(*run_experiment(config)), want);
  }
  // An explicit lane count beats the environment.
  {
    telemetry::MetricsRegistry registry;
    config.lanes = 2;
    config.metrics = &registry;
    ASSERT_TRUE(run_experiment(config).is_ok());
    EXPECT_EQ(lane_gauge_count(registry), 2u);
    config.metrics = nullptr;
  }
  // Garbage in the environment falls back to serial.
  {
    ::setenv("SDSCALE_SIM_LANES", "banana", 1);
    telemetry::MetricsRegistry registry;
    config.lanes = 0;
    config.metrics = &registry;
    ASSERT_TRUE(run_experiment(config).is_ok());
    EXPECT_EQ(lane_gauge_count(registry), 1u);
  }

  if (restore.empty()) {
    ::unsetenv("SDSCALE_SIM_LANES");
  } else {
    ::setenv("SDSCALE_SIM_LANES", restore.c_str(), 1);
  }
}

TEST(ParallelExperimentTest, ComposesWithBenchJobsPool) {
  // bench --jobs runs whole experiments on ThreadPool workers; a lane
  // runner invoked there must fall back to inline execution (the sweep
  // already owns the cores) and still produce bit-identical results.
  auto config = make_config({"hier", 120, 3, 0, 0}, 42);
  const auto reference = run_experiment(config);
  ASSERT_TRUE(reference.is_ok());
  const std::string want = fingerprint(*reference);

  config.lanes = 3;
  ThreadPool pool(3);
  std::vector<std::string> got(3);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    const auto result = run_experiment(config);
    got[i] = result.is_ok() ? fingerprint(*result)
                            : "error: " + result.status().to_string();
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want) << "pool slot " << i;
  }
}

}  // namespace
}  // namespace sds::sim
