// Steady-cycle allocation gate. A control cycle that repeats the previous
// one moves thousands of frames, and none of those hops may touch the
// allocator: per-stage payloads sit in the frames' inline buffers, the
// transport's queues keep their blocks, and the stage host decodes rule
// batches into one reused message. What remains is per-wave and per-job
// work (gathers, PSFA, splitting), so the count per cycle is bounded far
// below one allocation per stage.
//
// Every operator new in the process is counted, on every thread (the
// deliveries run on several), so the counter is atomic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "runtime/deployment.h"

// The replacements are noinline so that GCC, seeing malloc/free through
// an inlined new-expression, does not read them as mismatched.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sds::runtime {
namespace {

constexpr std::size_t kWarmupCycles = 50;
constexpr std::size_t kCountedCycles = 100;

/// Per-cycle costs of kCountedCycles steady cycles, after kWarmupCycles
/// that let every buffer reach its high-water mark.
struct SteadyCycle {
  double allocations = -1;  // heap allocations
  double frames = 0;        // frames sent, all endpoints
  double handoffs = 0;      // chunks handed to another thread's queue
  double deliveries = 0;    // runs handed to a frame handler
};

/// Frames sent, hand-offs made and runs delivered so far, summed over
/// every endpoint.
struct TransportTotals {
  std::uint64_t frames = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t deliveries = 0;
};

TransportTotals transport_totals(Deployment& d) {
  std::vector<transport::Endpoint*> endpoints = {d.global().endpoint()};
  for (auto& agg : d.aggregators()) endpoints.push_back(agg->endpoint());
  for (auto& host : d.stage_hosts()) endpoints.push_back(host->endpoint());
  TransportTotals totals;
  for (const transport::Endpoint* endpoint : endpoints) {
    const transport::Counters counters = endpoint->counters();
    totals.frames += counters.messages_sent;
    totals.handoffs += counters.handoffs;
    totals.deliveries += counters.deliveries;
  }
  return totals;
}

SteadyCycle steady_cycle(const DeploymentOptions& options) {
  transport::InProcNetwork net;
  auto deployment = Deployment::create(net, options);
  EXPECT_TRUE(deployment.is_ok()) << deployment.status();
  if (!deployment.is_ok()) return {};
  GlobalControllerServer& global = (*deployment)->global();
  EXPECT_TRUE(global.run_cycles(kWarmupCycles).is_ok());
  const TransportTotals before_totals = transport_totals(**deployment);
  const std::uint64_t before = g_allocations.load();
  EXPECT_TRUE(global.run_cycles(kCountedCycles).is_ok());
  const std::uint64_t counted = g_allocations.load() - before;
  const TransportTotals after_totals = transport_totals(**deployment);
  EXPECT_EQ(global.stats().cycles(), kWarmupCycles + kCountedCycles);
  constexpr double kCycles = kCountedCycles;
  const auto per_cycle = [&](std::uint64_t TransportTotals::*field) {
    return static_cast<double>(after_totals.*field - before_totals.*field) /
           kCycles;
  };
  return {static_cast<double>(counted) / kCycles,
          per_cycle(&TransportTotals::frames),
          per_cycle(&TransportTotals::handoffs),
          per_cycle(&TransportTotals::deliveries)};
}

/// In-process frames cross threads a chunk at a time: at most one
/// hand-off per 16 frames (a frame at a time made one per frame). They
/// reach the handlers a run at a time, and a run never spans two popped
/// batches, so there are no more runs than hand-offs.
void expect_chunked_handoffs(const SteadyCycle& cycle) {
  std::printf(
      "  %.1f frames, %.2f hand-offs and %.2f runs delivered per steady "
      "cycle\n",
      cycle.frames, cycle.handoffs, cycle.deliveries);
  EXPECT_GT(cycle.frames, 0);
  EXPECT_LE(cycle.handoffs, cycle.frames / 16);
  EXPECT_GT(cycle.deliveries, 0);
  EXPECT_LE(cycle.deliveries, cycle.handoffs);
}

TEST(SteadyAllocTest, HierarchicalCycleAllocatesPerWaveNotPerStage) {
  // live_hier_inproc's shape at a fifth of the size: every stage on one
  // host under one aggregator.
  DeploymentOptions options;
  options.num_stages = 500;
  options.num_aggregators = 1;
  options.stages_per_host = 500;
  options.stages_per_job = 50;
  const SteadyCycle cycle = steady_cycle(options);
  const double per_cycle = cycle.allocations;
  std::printf("hier 500 stages: %.2f allocations per steady cycle\n",
              per_cycle);
  expect_chunked_handoffs(cycle);
  EXPECT_GE(per_cycle, 0);
  // With per-frame heap payloads and deque-backed queues this shape
  // counted 3,136 per cycle. It counts 92 with the aggregator folding
  // its stages into its store, and the bound is 25% above that.
  EXPECT_LE(per_cycle, 115);
}

TEST(SteadyAllocTest, FlatDeltaCycleAllocatesPerWaveNotPerStage) {
  // live_flat_tcp's shape on the in-process transport.
  DeploymentOptions options;
  options.num_stages = 250;
  options.stages_per_host = 125;
  options.stages_per_job = 10;
  options.delta_metrics = true;
  const SteadyCycle cycle = steady_cycle(options);
  const double per_cycle = cycle.allocations;
  std::printf("flat 250 stages, deltas: %.2f allocations per steady cycle\n",
              per_cycle);
  expect_chunked_handoffs(cycle);
  EXPECT_GE(per_cycle, 0);
  // With per-frame heap payloads, deque-backed queues and per-connection
  // rule maps this shape counted 2,033 per cycle. It counts 10, and the
  // bound is 25% above that.
  EXPECT_LE(per_cycle, 12);
}

}  // namespace
}  // namespace sds::runtime
