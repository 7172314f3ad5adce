// Golden fingerprints of whole simulated runs. Each case runs one
// configuration and hashes every externally visible field of its result
// bit-exactly (a doubled field differing in one ULP changes the hash).
// The expected hashes were recorded from the simulator as it stood
// before these cases were written, so any change to event order, timing,
// floating-point summation order or controller logic shows up here.
//
// events_executed is deliberately left out, as in sdsbench's
// fingerprint: a faster simulator may execute fewer events for the same
// results without re-recording these hashes.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "sim/experiment.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"

namespace sds::sim {
namespace {

/// Hex image of a double's exact bit pattern.
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

/// Every externally visible field of an ExperimentResult except
/// events_executed, bit-exact.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  append_hist(out, r.stats.collect());
  append_hist(out, r.stats.aggregate());
  append_hist(out, r.stats.compute());
  append_hist(out, r.stats.disseminate());
  append_hist(out, r.stats.enforce());
  append_hist(out, r.stats.total());
  out << r.cycles << ';' << r.elapsed.count() << ';';
  append_usage(out, r.global);
  append_usage(out, r.aggregator);
  append_usage(out, r.super_aggregator);
  out << bits(r.final_data_limit_sum) << ',' << bits(r.final_meta_limit_sum)
      << ';';
  for (const double v : r.final_data_limits) out << bits(v) << ',';
  out << ';';
  for (const double v : r.final_meta_limits) out << bits(v) << ',';
  out << ';' << bits(r.mean_data_utilization) << ','
      << bits(r.mean_meta_utilization) << ';' << r.degraded_cycles << ','
      << r.stale_stage_reports << ',' << r.faults_injected << ','
      << bits(r.mean_recovery_ms) << ';' << r.collect_wire_bytes << ','
      << r.collect_wire_bytes_full << ',' << r.collect_frames_full << ','
      << r.collect_frames_delta;
  return std::move(out).str();
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

ExperimentConfig topology(std::size_t stages, std::size_t aggregators,
                          std::size_t supers, std::size_t peers,
                          std::uint64_t seed) {
  ExperimentConfig config;
  config.num_stages = stages;
  config.num_aggregators = aggregators;
  config.num_super_aggregators = supers;
  config.coordinated_peers = peers;
  config.stages_per_job = 10;
  config.duration = millis(200);
  config.max_cycles = 12;
  config.seed = seed;
  return config;
}

ExperimentConfig delta(std::size_t stages, std::size_t aggregators) {
  ExperimentConfig config = topology(stages, aggregators, 0, 0, 42);
  config.delta_collect = true;
  config.delta_refresh = 8;  // several refresh waves within 12 cycles
  return config;
}

ExperimentConfig fig6(std::size_t aggregators) {
  ExperimentConfig config = topology(500, aggregators, 0, 0, 42);
  config.max_cycles = 5;
  return config;
}

/// Every fault injection class at once (sim_fault_test's plan).
const fault::FaultPlan& busy_plan() {
  static const fault::FaultPlan plan = [] {
    fault::FaultPlan p;
    p.seed = 3;
    p.quorum = 0.85;
    p.phase_timeout = millis(2);
    p.drop_probability = 0.05;
    p.duplicate_probability = 0.03;
    p.delay_probability = 0.05;
    p.delay = micros(137);
    p.crash_stage(2, millis(5), millis(15));
    p.slow(0, 5, millis(0), millis(40), 3.0);
    p.partition(8, 11, millis(10), millis(30));
    p.stage_mtbf_s = 0.2;
    p.stage_downtime_s = 0.02;
    return p;
  }();
  return plan;
}

ExperimentConfig faulted(std::size_t aggregators) {
  ExperimentConfig config = topology(60, aggregators, 0, 0, 42);
  config.duration = millis(120);
  config.fault_plan = &busy_plan();
  return config;
}

/// Coordinated peers with a cycle period longer than a cycle: every
/// cycle closes on its last peer's enforce and the next one waits for
/// the period.
ExperimentConfig coordinated_periodic() {
  ExperimentConfig config = topology(120, 0, 0, 3, 42);
  config.cycle_period = millis(3);
  return config;
}

/// Run to the end of `duration` instead of stopping after 12 cycles, so
/// the utilization sampler (every 50 ms of simulated time) takes samples
/// between, and during, cycles. Demand doubles in every other 35 ms
/// window, so each sample's value depends on the instant it is taken.
ExperimentConfig sampled(ExperimentConfig config) {
  config.max_cycles = 0;
  config.demand_factory = [](StageId id, stage::Dimension dim) {
    const double base = dim == stage::Dimension::kData
                            ? 800.0 + 7.0 * (id.value() % 13)
                            : 80.0 + (id.value() % 5);
    return stage::DemandFn([base](Nanos t) {
      return (t / millis(35)) % 2 == 0 ? base : 2 * base;
    });
  };
  return config;
}

/// Run `config` and compare its hash with `want`. On a mismatch the
/// computed hash is printed, ready to paste once a change in results is
/// intended.
void expect_golden(const ExperimentConfig& config, std::uint64_t want) {
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  const std::uint64_t got = fnv1a(fingerprint(*result));
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, want) << "computed hash " << hex;
  // Each case must exercise the path it is named for.
  if (config.delta_collect) {
    EXPECT_GT(result->collect_frames_delta, 0u);
  }
  if (config.fault_plan != nullptr) {
    EXPECT_GT(result->faults_injected, 0u);
  }
  if (config.cycle_period > Nanos{0}) {
    EXPECT_GE(result->elapsed, config.cycle_period * static_cast<std::int64_t>(
                                                         result->cycles - 1));
  }
  if (config.max_cycles == 0) {
    EXPECT_GT(result->mean_data_utilization, 0.0);
  }
}

constexpr std::uint64_t kFlat120Seed42 = 0x8cae02770d681904ull;
constexpr std::uint64_t kHier250Seed42 = 0x79068e8b6e852de3ull;
constexpr std::uint64_t kDeep200Seed42 = 0x5dc1442a3e042775ull;
constexpr std::uint64_t kCoordinated120x3Seed42 = 0x896316b411a502e7ull;

TEST(GoldenTest, Flat120Seed42) {
  expect_golden(topology(120, 0, 0, 0, 42), kFlat120Seed42);
}

TEST(GoldenTest, Flat120Seed7) {
  expect_golden(topology(120, 0, 0, 0, 7), 0x77690e8966338cfeull);
}

TEST(GoldenTest, Hier250x7Seed42) {
  expect_golden(topology(250, 7, 0, 0, 42), kHier250Seed42);
}

TEST(GoldenTest, Hier250x7Seed7) {
  expect_golden(topology(250, 7, 0, 0, 7), 0x38007fb720b6a03eull);
}

TEST(GoldenTest, Deep200x8x2Seed42) {
  expect_golden(topology(200, 8, 2, 0, 42), kDeep200Seed42);
}

TEST(GoldenTest, Deep200x8x2Seed7) {
  expect_golden(topology(200, 8, 2, 0, 7), 0xa6e964c1a82213ccull);
}

TEST(GoldenTest, Coordinated120x3Seed42) {
  expect_golden(topology(120, 0, 0, 3, 42), kCoordinated120x3Seed42);
}

TEST(GoldenTest, Coordinated120x3Seed7) {
  expect_golden(topology(120, 0, 0, 3, 7), 0xec94f6e41facb7adull);
}

TEST(GoldenTest, FlatDeltaCollect) {
  expect_golden(delta(120, 0), 0x6f5aa95de65b65e5ull);
}

TEST(GoldenTest, HierDeltaCollect) {
  expect_golden(delta(250, 7), 0x4cb8988de1e730ebull);
}

TEST(GoldenTest, Fig6Flat500) {
  expect_golden(fig6(0), 0x04e7319fe0a17210ull);
}

TEST(GoldenTest, Fig6Hier500) {
  expect_golden(fig6(1), 0xde3deb7778bddeeaull);
}

TEST(GoldenTest, FaultPlanFlat60) {
  expect_golden(faulted(0), 0xbbef423feaf48965ull);
}

TEST(GoldenTest, FaultPlanHier60x3) {
  expect_golden(faulted(3), 0xdfb9d8d0149bb2bdull);
}

TEST(GoldenTest, CoordinatedWithCyclePeriod) {
  expect_golden(coordinated_periodic(), 0x84f00b61b5f74379ull);
}

TEST(GoldenTest, FlatSampledOverDuration) {
  expect_golden(sampled(topology(120, 0, 0, 0, 42)), 0x9802b2216b79f580ull);
}

TEST(GoldenTest, HierWithCyclePeriodSampled) {
  ExperimentConfig config = sampled(topology(250, 7, 0, 0, 42));
  config.cycle_period = millis(4);
  expect_golden(config, 0x8157bb4735cc9c2eull);
}

TEST(GoldenTest, CoordinatedWithCyclePeriodSampled) {
  expect_golden(sampled(coordinated_periodic()), 0x017ce9cd78de56e4ull);
}

/// The hierarchical 250x7 run with its per-node policies changed: serial
/// fan-out, pass-through relays and local decisions, alone and combined.
ExperimentConfig hier_policy(bool preaggregate, bool parallel_fanout,
                             bool local_decisions) {
  ExperimentConfig config = topology(250, 7, 0, 0, 42);
  config.preaggregate = preaggregate;
  config.parallel_fanout = parallel_fanout;
  config.local_decisions = local_decisions;
  return config;
}

TEST(GoldenTest, HierSerialFanout) {
  expect_golden(hier_policy(true, false, false), 0x73bc0f946257067cull);
}

TEST(GoldenTest, HierPassThrough) {
  expect_golden(hier_policy(false, true, false), 0x1886f83e249aea2full);
}

TEST(GoldenTest, HierPassThroughSerial) {
  expect_golden(hier_policy(false, false, false), 0x643adf684c419375ull);
}

TEST(GoldenTest, HierLocalDecisions) {
  expect_golden(hier_policy(true, true, true), 0x5bee279ba26e4a90ull);
}

TEST(GoldenTest, HierLocalDecisionsSerial) {
  expect_golden(hier_policy(true, false, true), 0x7949e353bcfb0862ull);
}

TEST(GoldenTest, DeepDeltaCollect) {
  ExperimentConfig config = delta(200, 8);
  config.num_super_aggregators = 2;
  expect_golden(config, 0x5d3409b7af057952ull);
}

/// The batch collect path (what fault plans still run on) reproduces the
/// store path's results on every tree shape.
ExperimentConfig batch(ExperimentConfig config) {
  config.store_collect = false;
  return config;
}

TEST(GoldenTest, FlatBatchPathMatchesStorePath) {
  expect_golden(batch(topology(120, 0, 0, 0, 42)), kFlat120Seed42);
}

TEST(GoldenTest, HierBatchPathMatchesStorePath) {
  expect_golden(batch(topology(250, 7, 0, 0, 42)), kHier250Seed42);
}

TEST(GoldenTest, DeepBatchPathMatchesStorePath) {
  expect_golden(batch(topology(200, 8, 2, 0, 42)), kDeep200Seed42);
}

TEST(GoldenTest, FlatFullRecomputeMatchesIncremental) {
  ExperimentConfig config = topology(120, 0, 0, 0, 42);
  config.psfa_full_recompute = true;
  expect_golden(config, kFlat120Seed42);
}

/// Run `config` with a tracer, a metrics registry and a flight recorder
/// attached: none of them may change the hash.
void expect_golden_with_sinks(ExperimentConfig config, std::uint64_t want) {
  telemetry::SpanTracer tracer;
  telemetry::MetricsRegistry metrics;
  telemetry::FlightRecorder flight;
  config.tracer = &tracer;
  config.metrics = &metrics;
  config.flight = &flight;
  expect_golden(config, want);
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_GT(flight.recorded(), 0u);
}

TEST(GoldenTest, TelemetrySinksLeaveHashUnchanged) {
  expect_golden_with_sinks(topology(250, 7, 0, 0, 42), kHier250Seed42);
}

TEST(GoldenTest, TelemetrySinksLeaveCoordinatedHashUnchanged) {
  expect_golden_with_sinks(topology(120, 0, 0, 3, 42), kCoordinated120x3Seed42);
}

}  // namespace
}  // namespace sds::sim
