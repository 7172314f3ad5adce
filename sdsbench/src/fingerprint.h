// Output fingerprints for the simulator workloads: a 64-bit FNV-1a hash
// over everything a simulated run reports that must stay bit-identical
// across performance work — cycle count, the phase-latency histograms,
// final per-stage limits, collect wire bytes and frames, and the
// fault/degraded/stale accounting. It deliberately leaves out
// events_executed, which a faster simulator is expected to reduce.
//
// Recorded values live in fingerprints.txt beside the benchmark, one
// `<workload> <seed> <cycles> <hex>` line each.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "common/status.h"
#include "sim/experiment.h"

namespace sdsbench {

class Fnv1a {
 public:
  void mix(std::uint64_t value);
  void mix_double(double value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] std::uint64_t sim_fingerprint(
    const sds::sim::ExperimentResult& result);

[[nodiscard]] std::string to_hex(std::uint64_t value);

class FingerprintTable {
 public:
  /// Parse a table; '#' starts a comment, blank lines are skipped.
  [[nodiscard]] static sds::Result<FingerprintTable> parse(
      const std::string& text);
  [[nodiscard]] static sds::Result<FingerprintTable> load(
      const std::string& path);

  void add(const std::string& workload, std::uint64_t seed,
           std::uint64_t cycles, std::uint64_t value);
  [[nodiscard]] std::optional<std::uint64_t> find(const std::string& workload,
                                                  std::uint64_t seed,
                                                  std::uint64_t cycles) const;

 private:
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>,
           std::uint64_t>
      entries_;
};

enum class FingerprintVerdict { kMatch, kMismatch, kUnrecorded };

[[nodiscard]] FingerprintVerdict check_fingerprint(
    const FingerprintTable& table, const std::string& workload,
    std::uint64_t seed, std::uint64_t cycles, std::uint64_t value);

[[nodiscard]] const char* to_string(FingerprintVerdict verdict);

}  // namespace sdsbench
