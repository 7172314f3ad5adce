#include "bench.h"

#include <array>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace sdsbench {

namespace {

constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {.name = "sim_hier_20k",
     .kind = Kind::kSim,
     .stages = 20'000,
     .aggregators = 10,
     .stages_per_job = 50,
     .delta_collect = true,
     .block_cycles = 40},
    {.name = "sim_flat_churn",
     .kind = Kind::kSim,
     .stages = 2'500,
     .stages_per_job = 50,
     .fault_plan = true,
     .block_cycles = 500},
    {.name = "live_flat_tcp",
     .kind = Kind::kLive,
     .stages = 250,
     .stages_per_job = 10,
     .delta_collect = true,
     .net = Net::kTcp,
     .hosts = 2,
     .budget_share = 3.0,
     .churn_period = 25,
     .block_cycles = 400},
    {.name = "live_hier_inproc",
     .kind = Kind::kLive,
     .stages = 2'500,
     .aggregators = 1,
     .stages_per_job = 50,
     .net = Net::kInProc,
     .hosts = 1,
     .budget_share = 0.5,
     .block_cycles = 200},
}};

}  // namespace

std::span<const WorkloadSpec> workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Shape shape_of(const WorkloadSpec& spec) {
  return {spec.stages, spec.aggregators, spec.stages_per_job,
          spec.delta_collect};
}

void RunReport::check(bool ok, const std::string& what) {
  checks.push_back((ok ? "ok: " : "FAIL: ") + what);
}

bool RunReport::correct() const {
  if (status != "ran" || failed > 0) return false;
  for (const auto& line : checks) {
    if (line.rfind("FAIL", 0) == 0) return false;
  }
  return true;
}

void RunReport::add(std::string name, double value, std::string unit,
                    std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void RunReport::add_extra(std::string name, double value, std::string unit,
                          std::string note) {
  extra.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would report
  // the launching process's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace sdsbench
