#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/rng.h"

namespace sds::fault {

namespace {

/// Deterministic uniform [0,1) draw from a key tuple: SplitMix64 over the
/// mixed key. Pure — the same (seed, kind, cycle, entity) always yields
/// the same value regardless of draw order or thread timing.
double hash01(std::uint64_t seed, std::uint64_t kind, std::uint64_t cycle,
              std::uint64_t entity) {
  SplitMix64 sm(seed ^ (kind * 0x9E3779B97F4A7C15ULL) ^
                (cycle * 0xC2B2AE3D27D4EB4FULL) ^
                (entity * 0x165667B19E3779F9ULL));
  // One warm-up step decorrelates nearby keys before the output draw.
  (void)sm.next();
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// `value * scale` nanoseconds, or nullopt when that is not a number
/// Nanos can hold (casting such a double to an integer is undefined).
std::optional<Nanos> to_nanos(double value, double scale) {
  const double ns = value * scale;
  // -2^63 converts exactly; 2^63 is the first double that does not fit.
  if (!(ns >= -0x1p63 && ns < 0x1p63)) return std::nullopt;
  return Nanos{static_cast<std::int64_t>(ns)};
}

/// The end of an outage starting at `at` and lasting `length` (>= 0), or
/// kNever when that instant does not fit in Nanos.
Nanos outage_end(Nanos at, Nanos length) {
  return length < CompiledPlan::kNever - std::max(at, Nanos{0})
             ? at + length
             : CompiledPlan::kNever;
}

/// Merge scripted crashes + churn arrivals into a sorted, non-overlapping
/// outage timeline for one entity.
std::vector<DownInterval> normalize(std::vector<DownInterval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const DownInterval& a, const DownInterval& b) {
              return a.from < b.from;
            });
  std::vector<DownInterval> merged;
  for (const DownInterval& iv : intervals) {
    if (!merged.empty() && iv.from <= merged.back().until) {
      merged.back().until = std::max(merged.back().until, iv.until);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

/// Expand a Poisson failure process for one entity: exponential
/// inter-arrival times with mean `mtbf_s`, exponential outages with mean
/// `downtime_s` (<= 0 downtime means permanent).
void expand_churn(Rng& rng, double mtbf_s, double downtime_s, Nanos horizon,
                  std::vector<DownInterval>& out) {
  if (mtbf_s <= 0) return;
  // The horizon test runs on doubles, so an arrival too far out for Nanos
  // still ends the loop; below the horizon the conversion always fits.
  const auto horizon_ns = static_cast<double>(horizon.count());
  double t_s = rng.exponential(1.0 / mtbf_s);
  while (t_s * 1e9 < horizon_ns) {
    const Nanos at = *to_nanos(t_s, 1e9);
    if (downtime_s <= 0) {
      out.push_back({at, CompiledPlan::kNever});
      return;
    }
    const double outage_s = rng.exponential(1.0 / downtime_s);
    // An outage too long for Nanos lasts past any horizon.
    const std::optional<Nanos> outage = to_nanos(outage_s, 1e9);
    out.push_back(
        {at, outage ? outage_end(at, *outage) : CompiledPlan::kNever});
    t_s += outage_s + rng.exponential(1.0 / mtbf_s);
  }
}

}  // namespace

FaultPlan& FaultPlan::crash_stage(std::uint32_t stage, Nanos at,
                                  Nanos down_for) {
  stage_crashes.push_back({stage, at, down_for});
  return *this;
}

FaultPlan& FaultPlan::crash_aggregator(std::uint32_t aggregator, Nanos at,
                                       Nanos down_for) {
  aggregator_crashes.push_back({aggregator, at, down_for});
  return *this;
}

FaultPlan& FaultPlan::slow(std::uint32_t first, std::uint32_t last, Nanos from,
                           Nanos until, double multiplier) {
  slow_windows.push_back({first, last, from, until, multiplier});
  return *this;
}

FaultPlan& FaultPlan::partition(std::uint32_t first, std::uint32_t last,
                                Nanos from, Nanos until) {
  partitions.push_back({first, last, from, until});
  return *this;
}

bool FaultPlan::empty() const {
  return stage_crashes.empty() && aggregator_crashes.empty() &&
         slow_windows.empty() && partitions.empty() && stage_mtbf_s <= 0 &&
         aggregator_mtbf_s <= 0 && drop_probability <= 0 &&
         duplicate_probability <= 0 && delay_probability <= 0;
}

Status FaultPlan::validate() const {
  if (quorum <= 0.0 || quorum > 1.0) {
    return Status::invalid_argument("fault plan: quorum must be in (0, 1]");
  }
  if (phase_timeout <= Nanos{0}) {
    return Status::invalid_argument("fault plan: phase_timeout must be > 0");
  }
  const auto prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!prob(drop_probability) || !prob(duplicate_probability) ||
      !prob(delay_probability) ||
      drop_probability + duplicate_probability + delay_probability > 1.0) {
    return Status::invalid_argument(
        "fault plan: message-fault probabilities must be in [0,1] and sum "
        "to <= 1");
  }
  if (stage_mtbf_s < 0 || aggregator_mtbf_s < 0) {
    return Status::invalid_argument("fault plan: MTBF must be >= 0");
  }
  if (delay < Nanos{0}) {
    return Status::invalid_argument("fault plan: delay must be >= 0");
  }
  for (const SlowWindow& w : slow_windows) {
    if (w.multiplier < 1.0) {
      return Status::invalid_argument(
          "fault plan: slow-window multiplier must be >= 1");
    }
    if (w.last_stage < w.first_stage || w.until <= w.from) {
      return Status::invalid_argument("fault plan: malformed slow window");
    }
  }
  for (const PartitionWindow& w : partitions) {
    if (w.last_stage < w.first_stage || w.until <= w.from) {
      return Status::invalid_argument("fault plan: malformed partition");
    }
  }
  return Status::ok();
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& why) -> Status {
    return Status::invalid_argument("fault plan line " +
                                    std::to_string(line_no) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tok(line);
    std::string word;
    if (!(tok >> word)) continue;  // blank / comment-only line
    if (word == "seed") {
      if (!(tok >> plan.seed)) return fail("expected: seed <u64>");
    } else if (word == "quorum") {
      if (!(tok >> plan.quorum)) return fail("expected: quorum <fraction>");
    } else if (word == "timeout_ms") {
      double ms = 0;
      if (!(tok >> ms)) return fail("expected: timeout_ms <ms>");
      const std::optional<Nanos> timeout = to_nanos(ms, 1e6);
      if (!timeout) return fail("timeout_ms out of range");
      plan.phase_timeout = *timeout;
    } else if (word == "churn") {
      std::string tier, k1, k2;
      double mtbf = 0;
      double down = 0;
      if (!(tok >> tier >> k1 >> mtbf >> k2 >> down) || k1 != "mtbf_s" ||
          k2 != "downtime_s") {
        return fail("expected: churn stage|aggregator mtbf_s <s> downtime_s <s>");
      }
      if (tier == "stage") {
        plan.stage_mtbf_s = mtbf;
        plan.stage_downtime_s = down;
      } else if (tier == "aggregator") {
        plan.aggregator_mtbf_s = mtbf;
        plan.aggregator_downtime_s = down;
      } else {
        return fail("churn tier must be stage or aggregator");
      }
    } else if (word == "drop") {
      if (!(tok >> plan.drop_probability)) return fail("expected: drop <p>");
    } else if (word == "duplicate") {
      if (!(tok >> plan.duplicate_probability)) {
        return fail("expected: duplicate <p>");
      }
    } else if (word == "delay") {
      double us = 0;
      if (!(tok >> plan.delay_probability >> us)) {
        return fail("expected: delay <p> <extra latency µs>");
      }
      const std::optional<Nanos> delay = to_nanos(us, 1e3);
      if (!delay) return fail("delay latency out of range");
      plan.delay = *delay;
    } else if (word == "crash") {
      std::string tier, k1, k2;
      std::uint32_t id = 0;
      double at_ms = 0;
      double for_ms = 0;
      if (!(tok >> tier >> id >> k1 >> at_ms >> k2 >> for_ms) ||
          k1 != "at_ms" || k2 != "for_ms") {
        return fail("expected: crash stage|aggregator <id> at_ms <ms> for_ms <ms>");
      }
      const std::optional<Nanos> at = to_nanos(at_ms, 1e6);
      const std::optional<Nanos> down = to_nanos(for_ms, 1e6);
      if (!at || !down) return fail("crash time out of range");
      if (tier == "stage") {
        plan.crash_stage(id, *at, *down);
      } else if (tier == "aggregator") {
        plan.crash_aggregator(id, *at, *down);
      } else {
        return fail("crash tier must be stage or aggregator");
      }
    } else if (word == "slow") {
      std::uint32_t first = 0;
      std::uint32_t last = 0;
      std::string k1, k2, k3;
      double from_ms = 0;
      double until_ms = 0;
      double mult = 1.0;
      if (!(tok >> first >> last >> k1 >> from_ms >> k2 >> until_ms >> k3 >>
            mult) ||
          k1 != "from_ms" || k2 != "until_ms" || k3 != "x") {
        return fail(
            "expected: slow <first> <last> from_ms <ms> until_ms <ms> x <mult>");
      }
      const std::optional<Nanos> from = to_nanos(from_ms, 1e6);
      const std::optional<Nanos> until = to_nanos(until_ms, 1e6);
      if (!from || !until) return fail("slow window out of range");
      plan.slow(first, last, *from, *until, mult);
    } else if (word == "partition") {
      std::uint32_t first = 0;
      std::uint32_t last = 0;
      std::string k1, k2;
      double from_ms = 0;
      double until_ms = 0;
      if (!(tok >> first >> last >> k1 >> from_ms >> k2 >> until_ms) ||
          k1 != "from_ms" || k2 != "until_ms") {
        return fail("expected: partition <first> <last> from_ms <ms> until_ms <ms>");
      }
      const std::optional<Nanos> from = to_nanos(from_ms, 1e6);
      const std::optional<Nanos> until = to_nanos(until_ms, 1e6);
      if (!from || !until) return fail("partition window out of range");
      plan.partition(first, last, *from, *until);
    } else {
      return fail("unknown directive '" + word + "'");
    }
  }
  SDS_RETURN_IF_ERROR(plan.validate());
  return plan;
}

Result<FaultPlan> FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::not_found("fault plan file: " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return parse(contents.str());
}

CompiledPlan CompiledPlan::compile(const FaultPlan& plan,
                                   std::size_t num_stages,
                                   std::size_t num_aggregators, Nanos horizon) {
  CompiledPlan compiled;
  compiled.seed_ = plan.seed;
  compiled.quorum_ = plan.quorum;
  compiled.phase_timeout_ = plan.phase_timeout;
  compiled.max_extensions_ = plan.max_deadline_extensions;
  compiled.drop_p_ = plan.drop_probability;
  compiled.dup_p_ = plan.duplicate_probability;
  compiled.delay_p_ = plan.delay_probability;
  compiled.delay_ = plan.delay;
  compiled.slow_windows_ = plan.slow_windows;
  compiled.partitions_ = plan.partitions;

  compiled.stage_down_.assign(num_stages, {});
  compiled.aggregator_down_.assign(num_aggregators, {});

  for (const StageCrash& crash : plan.stage_crashes) {
    if (crash.stage >= num_stages) continue;  // off-topology: ignore
    const Nanos until = crash.down_for > Nanos{0}
                            ? outage_end(crash.at, crash.down_for)
                            : kNever;
    compiled.stage_down_[crash.stage].push_back({crash.at, until});
  }
  for (const AggregatorCrash& crash : plan.aggregator_crashes) {
    if (crash.aggregator >= num_aggregators) continue;
    const Nanos until = crash.down_for > Nanos{0}
                            ? outage_end(crash.at, crash.down_for)
                            : kNever;
    compiled.aggregator_down_[crash.aggregator].push_back({crash.at, until});
  }

  // Churn expansion: one split RNG stream per entity, derived from
  // (seed, tier, id) — independent of every other entity's stream.
  if (plan.stage_mtbf_s > 0) {
    for (std::size_t i = 0; i < num_stages; ++i) {
      Rng rng(SplitMix64(plan.seed ^ (0xA11CE5ULL + i)).next());
      expand_churn(rng, plan.stage_mtbf_s, plan.stage_downtime_s, horizon,
                   compiled.stage_down_[i]);
    }
  }
  if (plan.aggregator_mtbf_s > 0) {
    for (std::size_t a = 0; a < num_aggregators; ++a) {
      Rng rng(SplitMix64(plan.seed ^ (0xB0B0ULL + (a << 20))).next());
      expand_churn(rng, plan.aggregator_mtbf_s, plan.aggregator_downtime_s,
                   horizon, compiled.aggregator_down_[a]);
    }
  }

  for (auto& intervals : compiled.stage_down_) {
    intervals = normalize(std::move(intervals));
    compiled.total_outages_ += intervals.size();
  }
  for (auto& intervals : compiled.aggregator_down_) {
    intervals = normalize(std::move(intervals));
    compiled.total_outages_ += intervals.size();
  }
  return compiled;
}

bool CompiledPlan::up_at(const std::vector<DownInterval>& intervals, Nanos t) {
  // First interval starting after t; the one before it is the only
  // candidate cover.
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](Nanos value, const DownInterval& iv) { return value < iv.from; });
  if (it == intervals.begin()) return true;
  --it;
  return t >= it->until;
}

bool CompiledPlan::stage_up(std::size_t stage, Nanos t) const {
  return stage >= stage_down_.size() || up_at(stage_down_[stage], t);
}

bool CompiledPlan::aggregator_up(std::size_t aggregator, Nanos t) const {
  return aggregator >= aggregator_down_.size() ||
         up_at(aggregator_down_[aggregator], t);
}

bool CompiledPlan::partitioned(std::size_t stage, Nanos t) const {
  for (const PartitionWindow& w : partitions_) {
    if (stage >= w.first_stage && stage <= w.last_stage && t >= w.from &&
        t < w.until) {
      return true;
    }
  }
  return false;
}

double CompiledPlan::service_multiplier(std::size_t stage, Nanos t) const {
  double multiplier = 1.0;
  for (const SlowWindow& w : slow_windows_) {
    if (stage >= w.first_stage && stage <= w.last_stage && t >= w.from &&
        t < w.until) {
      multiplier = std::max(multiplier, w.multiplier);
    }
  }
  return multiplier;
}

MessageFate CompiledPlan::message_fate(MessageKind kind, std::uint64_t cycle,
                                       std::uint64_t entity) const {
  if (drop_p_ <= 0 && dup_p_ <= 0 && delay_p_ <= 0) return MessageFate::kDeliver;
  const double u =
      hash01(seed_, static_cast<std::uint64_t>(kind), cycle, entity);
  if (u < drop_p_) return MessageFate::kDrop;
  if (u < drop_p_ + dup_p_) return MessageFate::kDuplicate;
  if (u < drop_p_ + dup_p_ + delay_p_) return MessageFate::kDelay;
  return MessageFate::kDeliver;
}

Nanos CompiledPlan::last_stage_restart_before(std::size_t stage,
                                              Nanos t) const {
  if (stage >= stage_down_.size()) return Nanos{-1};
  const std::vector<DownInterval>& intervals = stage_down_[stage];
  Nanos restart{-1};
  for (const DownInterval& iv : intervals) {
    if (iv.until == kNever || iv.until > t) break;
    restart = iv.until;
  }
  return restart;
}

std::size_t quorum_count(double quorum, std::size_t expected) {
  if (expected == 0) return 0;
  const auto count =
      static_cast<std::size_t>(std::ceil(quorum * static_cast<double>(expected)));
  return std::min(std::max<std::size_t>(count, 1), expected);
}

}  // namespace sds::fault
