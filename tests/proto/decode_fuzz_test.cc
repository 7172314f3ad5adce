// Seeded mutation fuzzing of every message decoder. Each message kind
// starts from a valid inline-sized frame and a valid heap-sized one; the
// loop flips bits, overwrites, truncates, extends, inserts and deletes
// bytes (the repo's Rng, a fixed iteration count, so every run feeds the
// same inputs) and feeds each mutant to proto::from_frame<T>() and to the
// decode-into overload. A decoder must return an error or a value, never
// crash or read out of bounds; the ASan and UBSan builds check the
// latter. A value it returns must re-encode to bytes that decode to the
// same encoding, and must match what the other overload returned.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "proto/messages.h"

namespace sds::proto {
namespace {

constexpr int kMutationsPerSeed = 20000;

wire::Bytes encoded(const auto& msg) { return to_frame(msg).payload; }

/// One mutation of `payload`, chosen and shaped by `rng`.
wire::Bytes mutate(const wire::Bytes& payload, Rng& rng) {
  wire::Bytes out = payload;
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = out.empty() ? 0 : rng.next_below(out.size());
    switch (rng.next_below(6)) {
      case 0:  // flip one bit
        if (!out.empty()) {
          out[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:  // overwrite one byte (often with a varint-ish extreme)
        if (!out.empty()) {
          const std::uint8_t extremes[] = {0x00, 0x7F, 0x80, 0xFF};
          out[at] = rng.bernoulli(0.5)
                        ? extremes[rng.next_below(4)]
                        : static_cast<std::uint8_t>(rng.next_u64());
        }
        break;
      case 2:  // truncate
        out.resize(at);
        break;
      case 3: {  // extend with random bytes
        const std::size_t n = 1 + rng.next_below(80);
        for (std::size_t i = 0; i < n; ++i) {
          out.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
        break;
      }
      case 4: {  // insert one byte
        const std::uint8_t byte = static_cast<std::uint8_t>(rng.next_u64());
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), &byte,
                   &byte + 1);
        break;
      }
      default:  // delete a run
        if (!out.empty()) {
          const std::size_t n = 1 + rng.next_below(out.size() - at);
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                    out.begin() + static_cast<std::ptrdiff_t>(at + n));
        }
    }
  }
  return out;
}

/// Feeds `kMutationsPerSeed` mutants of each seed message to both
/// from_frame overloads; returns how many decoded.
template <typename M>
int fuzz(const std::vector<M>& seeds, std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  int decoded = 0;
  for (const M& seed : seeds) {
    const wire::Bytes original = encoded(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      wire::Frame frame;
      frame.type = static_cast<std::uint16_t>(M::kType);
      frame.payload = mutate(original, rng);
      const Result<M> fresh = from_frame<M>(frame);
      M reused = seed;  // decode-into overwrites a message that held data
      const Status into = from_frame(frame, reused);
      EXPECT_EQ(fresh.is_ok(), into.is_ok()) << "mutant " << i;
      if (!fresh.is_ok()) continue;
      ++decoded;
      EXPECT_EQ(encoded(*fresh), encoded(reused)) << "mutant " << i;
      // Decoding normalizes (e.g. overlong varints); after that, the
      // encoding is a fixed point and wire_size() is exact.
      wire::Frame again;
      again.type = frame.type;
      again.payload = encoded(*fresh);
      EXPECT_EQ(again.payload.size(), fresh->wire_size()) << "mutant " << i;
      const Result<M> redecoded = from_frame<M>(again);
      EXPECT_TRUE(redecoded.is_ok()) << "mutant " << i;
      if (redecoded.is_ok()) {
        EXPECT_EQ(encoded(*redecoded), again.payload) << "mutant " << i;
      }
    }
  }
  return decoded;
}

StageMetrics stage_metrics(std::uint64_t cycle, std::uint32_t stage) {
  StageMetrics m;
  m.cycle_id = cycle;
  m.stage_id = StageId{stage};
  m.job_id = JobId{stage / 50};
  m.data_iops = 1234.5 + stage;
  m.meta_iops = 67.25;
  m.data_limit = 2000;
  m.meta_limit = kUnlimited;
  return m;
}

Rule rule(std::uint32_t stage) {
  return Rule{StageId{stage}, JobId{stage / 50}, 1500.0 + stage, 150.0,
              std::uint64_t{1} << 40};
}

TEST(DecodeFuzzTest, PerStageMessagesFitTheInlinePayload) {
  // The largest per-stage messages at their widest varints.
  const std::uint64_t max_cycle = ~std::uint64_t{0};
  const auto fits = [](const wire::Frame& frame) {
    return frame.payload.size() <= wire::Bytes::kInlineCapacity;
  };
  EXPECT_TRUE(fits(to_frame(stage_metrics(max_cycle, ~0u))));
  EnforceBatch one_rule{max_cycle, {rule(~0u)}};
  one_rule.rules.front().epoch = ~std::uint64_t{0};
  EXPECT_TRUE(fits(to_frame(one_rule)));
  EXPECT_TRUE(fits(to_frame(EnforceAck{max_cycle, ~0u})));
  EXPECT_TRUE(fits(to_frame(CollectRequest{max_cycle, true})));
}

TEST(DecodeFuzzTest, RegistrationAndLiveness) {
  RegisterRequest small{StageInfo{StageId{3}, NodeId{1}, JobId{0}, "n1"}};
  RegisterRequest large{
      StageInfo{StageId{9}, NodeId{4}, JobId{2}, std::string(200, 'h')}};
  fuzz<RegisterRequest>({small, large}, 0xF001);
  fuzz<RegisterAck>({RegisterAck{true, 7}}, 0xF002);
  fuzz<Heartbeat>({Heartbeat{ControllerId{2}, 99}}, 0xF003);
  fuzz<HeartbeatAck>({HeartbeatAck{1u << 30}}, 0xF004);
  fuzz<ErrorMessage>({ErrorMessage{5, "bad"},
                      ErrorMessage{6, std::string(300, 'e')}},
                     0xF005);
}

TEST(DecodeFuzzTest, CollectMessages) {
  fuzz<CollectRequest>({CollectRequest{12345, false}}, 0xF011);
  fuzz<StageMetrics>({stage_metrics(77, 5)}, 0xF012);
  StageMetrics next = stage_metrics(78, 5);
  next.data_iops += 17;
  fuzz<StageMetricsDelta>(
      {StageMetricsDelta::make(stage_metrics(77, 5), next, false),
       StageMetricsDelta::make(stage_metrics(70, 5), next, true)},
      0xF013);
  MetricsBatch batch{90, ControllerId{1}, {}};
  for (std::uint32_t s = 0; s < 6; ++s) {
    batch.entries.push_back(stage_metrics(90, s));
  }
  fuzz<MetricsBatch>({MetricsBatch{90, ControllerId{1}, {}}, batch}, 0xF014);
  AggregatedMetrics agg{91, ControllerId{1}, 6, {}, {}};
  for (std::uint32_t j = 0; j < 3; ++j) {
    agg.jobs.push_back(JobMetrics{JobId{j}, 100.0 * j, 10.0 * j, 2});
  }
  for (std::uint32_t s = 0; s < 6; ++s) {
    agg.digests.push_back(StageDigest{StageId{s}, 1.5f * s, 0.25f});
  }
  fuzz<AggregatedMetrics>({AggregatedMetrics{91, ControllerId{1}, 0, {}, {}},
                           agg},
                          0xF015);
}

TEST(DecodeFuzzTest, EnforceMessages) {
  EnforceBatch many{120, {}};
  for (std::uint32_t s = 0; s < 12; ++s) many.rules.push_back(rule(s));
  const int decoded = fuzz<EnforceBatch>({EnforceBatch{120, {rule(4)}}, many},
                                         0xF021);
  EXPECT_GT(decoded, 0);  // the loop reaches the value path too
  fuzz<EnforceAck>({EnforceAck{120, 12}}, 0xF022);
  fuzz<BudgetLease>({BudgetLease{121, 5e5, 5e4, 1u << 31}}, 0xF023);
}

TEST(DecodeFuzzTest, DecodeIntoReusesAndReplacesRules) {
  EnforceBatch many{7, {}};
  for (std::uint32_t s = 0; s < 12; ++s) many.rules.push_back(rule(s));
  EnforceBatch out = many;
  const Rule* storage = out.rules.data();
  const EnforceBatch one{8, {rule(40)}};
  ASSERT_TRUE(from_frame(to_frame(one), out).is_ok());
  EXPECT_EQ(out, one);
  EXPECT_EQ(out.rules.data(), storage);  // capacity kept, nothing allocated
  wire::Frame wrong = to_frame(one);
  wrong.type = static_cast<std::uint16_t>(MessageType::kEnforceAck);
  EXPECT_FALSE(from_frame(wrong, out).is_ok());
}

}  // namespace
}  // namespace sds::proto
