// bench::Sweep — ordered emission, flag parsing, and the load-bearing
// guarantee: a parallel sweep's output is byte-identical to a serial run
// of the same configurations.
#include "bench/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"

namespace sds::bench {
namespace {

TEST(SweepTest, JobsFlagBeatsEnvBeatsHardware) {
  char prog[] = "bench";
  char flag[] = "--jobs=3";
  char* argv_flag[] = {prog, flag};
  EXPECT_EQ(sweep_jobs(2, argv_flag), 3u);

  ::setenv("SDSCALE_BENCH_JOBS", "5", 1);
  char* argv_none[] = {prog};
  EXPECT_EQ(sweep_jobs(1, argv_none), 5u);
  // The explicit flag still wins over the env var.
  EXPECT_EQ(sweep_jobs(2, argv_flag), 3u);
  ::unsetenv("SDSCALE_BENCH_JOBS");

  char bad[] = "--jobs=0";
  char* argv_bad[] = {prog, bad};
  EXPECT_GE(sweep_jobs(2, argv_bad), 1u);
}

TEST(SweepTest, SerialSweepRunsJobsInline) {
  Sweep sweep(1);
  const auto main_id = std::this_thread::get_id();
  std::thread::id job_id;
  sweep.add([&] {
    job_id = std::this_thread::get_id();
    return [] {};
  });
  sweep.finish();
  EXPECT_EQ(job_id, main_id);
}

TEST(SweepTest, EmitOrderMatchesSubmissionOrder) {
  Sweep sweep(4);
  std::vector<int> emitted;
  for (int i = 0; i < 8; ++i) {
    sweep.add([i, &emitted] {
      // Earlier jobs sleep longer, so completion order is reversed; the
      // emit order must still follow submission order.
      std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 2));
      return [i, &emitted] { emitted.push_back(i); };
    });
  }
  sweep.finish();
  ASSERT_EQ(emitted.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(emitted[static_cast<std::size_t>(i)], i);
}

TEST(SweepTest, FinishRethrowsFirstJobException) {
  Sweep sweep(2);
  sweep.add([]() -> Sweep::Emit { throw std::runtime_error("job failed"); });
  sweep.add([] { return [] {}; });
  EXPECT_THROW(sweep.finish(), std::runtime_error);
}

// The acceptance property for parallel bench sweeps: running the same
// simulator configurations through a parallel Sweep produces output that
// is byte-for-byte identical to the serial run. The simulator is
// deterministic by seed, and Sweep defers all side effects to the
// ordered emit phase, so the formatted rows must match exactly.
std::string run_sweep(std::size_t jobs) {
  struct Point {
    std::size_t stages;
    std::size_t aggregators;
  };
  const Point points[] = {{50, 0}, {100, 0}, {200, 2}, {400, 4}};

  std::string out;
  Sweep sweep(jobs);
  for (const auto& point : points) {
    sim::ExperimentConfig config;
    config.num_stages = point.stages;
    config.num_aggregators = point.aggregators;
    config.duration = seconds(1);
    sweep.add([&out, point, config] {
      auto result = run_config(config);
      return [&out, point, result] {
        if (!result.is_ok()) {
          out += "error: " + result.status().to_string() + "\n";
          return;
        }
        char row[256];
        std::snprintf(row, sizeof(row),
                      "N=%zu A=%zu total=%.6f collect=%.6f compute=%.6f "
                      "enforce=%.6f cycles=%.1f\n",
                      point.stages, point.aggregators,
                      result->total_ms, result->collect_ms,
                      result->compute_ms, result->enforce_ms, result->cycles);
        out += row;
      };
    });
  }
  sweep.finish();
  return out;
}

TEST(SweepTest, ParallelSweepIsByteIdenticalToSerial) {
  const std::string serial = run_sweep(1);
  const std::string parallel = run_sweep(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sds::bench
