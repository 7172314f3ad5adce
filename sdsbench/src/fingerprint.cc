#include "fingerprint.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace sdsbench {

void Fnv1a::mix(std::uint64_t value) {
  for (int i = 0; i < 64; i += 8) {
    hash_ = (hash_ ^ ((value >> i) & 0xff)) * 0x100000001b3ull;
  }
}

void Fnv1a::mix_double(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

namespace {

void mix_histogram(Fnv1a& h, const sds::Histogram& hist) {
  h.mix(hist.count());
  if (hist.count() == 0) return;
  h.mix(static_cast<std::uint64_t>(hist.min()));
  h.mix(static_cast<std::uint64_t>(hist.max()));
  h.mix_double(hist.mean());
  for (const double q : {0.5, 0.9, 0.99}) {
    h.mix(static_cast<std::uint64_t>(hist.percentile(q)));
  }
}

}  // namespace

std::uint64_t sim_fingerprint(const sds::sim::ExperimentResult& result) {
  Fnv1a h;
  h.mix(result.cycles);
  const auto& stats = result.stats;
  for (const sds::Histogram* hist :
       {&stats.collect(), &stats.aggregate(), &stats.compute(),
        &stats.disseminate(), &stats.enforce(), &stats.total(),
        &stats.degraded_total_latency(), &stats.recovery()}) {
    mix_histogram(h, *hist);
  }
  h.mix(result.final_data_limits.size());
  for (const double v : result.final_data_limits) h.mix_double(v);
  for (const double v : result.final_meta_limits) h.mix_double(v);
  h.mix(result.collect_wire_bytes);
  h.mix(result.collect_wire_bytes_full);
  h.mix(result.collect_frames_full);
  h.mix(result.collect_frames_delta);
  h.mix(result.faults_injected);
  h.mix(result.degraded_cycles);
  h.mix(result.stale_stage_reports);
  h.mix_double(result.mean_recovery_ms);
  return h.value();
}

std::string to_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

sds::Result<FingerprintTable> FingerprintTable::parse(const std::string& text) {
  FingerprintTable table;
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string workload;
    std::string hex;
    std::uint64_t seed = 0;
    std::uint64_t cycles = 0;
    if (!(fields >> workload)) continue;
    std::string rest;
    if (!(fields >> seed >> cycles >> hex) || (fields >> rest)) {
      return sds::Status::invalid_argument(
          "fingerprint table line " + std::to_string(number) +
          ": expected `<workload> <seed> <cycles> <hex>`");
    }
    std::size_t used = 0;
    std::uint64_t value = 0;
    try {
      value = std::stoull(hex, &used, 16);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != hex.size() || hex.empty()) {
      return sds::Status::invalid_argument("fingerprint table line " +
                                           std::to_string(number) +
                                           ": bad hex value " + hex);
    }
    table.add(workload, seed, cycles, value);
  }
  return table;
}

sds::Result<FingerprintTable> FingerprintTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return sds::Status::not_found("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

void FingerprintTable::add(const std::string& workload, std::uint64_t seed,
                           std::uint64_t cycles, std::uint64_t value) {
  entries_[{workload, seed, cycles}] = value;
}

std::optional<std::uint64_t> FingerprintTable::find(const std::string& workload,
                                                    std::uint64_t seed,
                                                    std::uint64_t cycles) const {
  const auto it = entries_.find({workload, seed, cycles});
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

FingerprintVerdict check_fingerprint(const FingerprintTable& table,
                                     const std::string& workload,
                                     std::uint64_t seed, std::uint64_t cycles,
                                     std::uint64_t value) {
  const auto recorded = table.find(workload, seed, cycles);
  if (!recorded) return FingerprintVerdict::kUnrecorded;
  return *recorded == value ? FingerprintVerdict::kMatch
                            : FingerprintVerdict::kMismatch;
}

const char* to_string(FingerprintVerdict verdict) {
  switch (verdict) {
    case FingerprintVerdict::kMatch: return "match";
    case FingerprintVerdict::kMismatch: return "MISMATCH";
    case FingerprintVerdict::kUnrecorded: return "unrecorded";
  }
  return "?";
}

}  // namespace sdsbench
