#include "proto/messages.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"

namespace sds::proto {
namespace {

/// Round-trip any message through a Frame and verify equality plus that
/// wire_size() is exact.
template <typename M>
void expect_roundtrip(const M& msg) {
  wire::Encoder enc;
  msg.encode(enc);
  EXPECT_EQ(enc.size(), msg.wire_size()) << "wire_size mismatch";

  const wire::Frame frame = to_frame(msg);
  EXPECT_EQ(frame.type, static_cast<std::uint16_t>(M::kType));
  EXPECT_EQ(frame.payload.size(), msg.wire_size());

  auto decoded = from_frame<M>(frame);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  EXPECT_EQ(*decoded, msg);
}

StageMetrics sample_metrics(std::uint32_t i) {
  StageMetrics m;
  m.cycle_id = 77;
  m.stage_id = StageId{i};
  m.job_id = JobId{i / 4};
  m.data_iops = 1000.5 + i;
  m.meta_iops = 50.25 + i;
  m.data_limit = 900.0;
  m.meta_limit = kUnlimited;
  return m;
}

TEST(MessagesTest, RegisterRequestRoundTrip) {
  RegisterRequest msg;
  msg.info = {StageId{1}, NodeId{2}, JobId{3}, "c101-001.frontera"};
  expect_roundtrip(msg);
}

TEST(MessagesTest, RegisterRequestEmptyHostname) {
  RegisterRequest msg;
  msg.info = {StageId{1}, NodeId{2}, JobId{3}, ""};
  expect_roundtrip(msg);
}

TEST(MessagesTest, RegisterAckRoundTrip) {
  expect_roundtrip(RegisterAck{true, 42});
  expect_roundtrip(RegisterAck{false, 0});
}

TEST(MessagesTest, CollectRequestRoundTrip) {
  expect_roundtrip(CollectRequest{0, false});
  expect_roundtrip(CollectRequest{1'000'000'000'000ull, true});
}

TEST(MessagesTest, StageMetricsRoundTrip) { expect_roundtrip(sample_metrics(9)); }

TEST(MessagesTest, StageMetricsUnlimitedLimits) {
  StageMetrics m = sample_metrics(1);
  m.data_limit = kUnlimited;
  m.meta_limit = kUnlimited;
  expect_roundtrip(m);
}

TEST(MessagesTest, MetricsBatchRoundTrip) {
  MetricsBatch batch;
  batch.cycle_id = 3;
  batch.from = ControllerId{7};
  for (std::uint32_t i = 0; i < 100; ++i) batch.entries.push_back(sample_metrics(i));
  expect_roundtrip(batch);
}

TEST(MessagesTest, MetricsBatchEmpty) {
  MetricsBatch batch;
  batch.cycle_id = 1;
  batch.from = ControllerId{0};
  expect_roundtrip(batch);
}

TEST(MessagesTest, AggregatedMetricsRoundTrip) {
  AggregatedMetrics agg;
  agg.cycle_id = 12;
  agg.from = ControllerId{2};
  agg.total_stages = 2500;
  agg.jobs.push_back({JobId{1}, 120000.0, 8000.0, 1250});
  agg.jobs.push_back({JobId{2}, 60000.0, 4000.0, 1250});
  agg.digests.push_back({StageId{0}, 1000.0f, 50.0f});
  agg.digests.push_back({StageId{1}, 2000.0f, 75.0f});
  expect_roundtrip(agg);
}

TEST(MessagesTest, AggregatedMetricsWithoutDigests) {
  AggregatedMetrics agg;
  agg.cycle_id = 1;
  agg.from = ControllerId{9};
  agg.total_stages = 10;
  agg.jobs.push_back({JobId{1}, 10.0, 1.0, 10});
  expect_roundtrip(agg);
}

TEST(MessagesTest, EnforceBatchRoundTrip) {
  EnforceBatch batch;
  batch.cycle_id = 55;
  for (std::uint32_t i = 0; i < 64; ++i) {
    batch.rules.push_back({StageId{i}, JobId{i / 8}, 100.0 + i, 10.0 + i, 99});
  }
  expect_roundtrip(batch);
}

TEST(MessagesTest, EnforceAckRoundTrip) { expect_roundtrip(EnforceAck{55, 64}); }

TEST(MessagesTest, HeartbeatRoundTrip) {
  expect_roundtrip(Heartbeat{ControllerId{3}, 1234});
  expect_roundtrip(HeartbeatAck{1234});
}

TEST(MessagesTest, BudgetLeaseRoundTrip) {
  expect_roundtrip(BudgetLease{9, 1e6, 5e5, 123456789});
}

TEST(MessagesTest, ErrorMessageRoundTrip) {
  expect_roundtrip(ErrorMessage{404, "stage not found"});
}

/// Both from_frame overloads refuse `msg`.
template <typename M>
void expect_refused(const M& msg, double bad) {
  const wire::Frame frame = to_frame(msg);
  EXPECT_FALSE(from_frame<M>(frame).is_ok()) << to_string(M::kType) << " " << bad;
  M out;
  EXPECT_FALSE(from_frame(frame, out).is_ok())
      << to_string(M::kType) << " " << bad;
}

TEST(MessagesTest, NonFiniteValuesAreRefused) {
  // The codec carries any bit pattern; the messages refuse a NaN or an
  // infinity in every rate, limit and budget they carry.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (double StageMetrics::*field :
         {&StageMetrics::data_iops, &StageMetrics::meta_iops,
          &StageMetrics::data_limit, &StageMetrics::meta_limit}) {
      StageMetrics m = sample_metrics(1);
      m.*field = bad;
      expect_refused(m, bad);
      MetricsBatch batch;
      batch.entries = {sample_metrics(0), m};
      expect_refused(batch, bad);
    }
    AggregatedMetrics agg;
    agg.total_stages = 1;
    agg.jobs.push_back({JobId{1}, 10.0, 1.0, 1});
    agg.digests.push_back({StageId{0}, 10.0f, 1.0f});
    for (double JobMetrics::*field :
         {&JobMetrics::data_iops, &JobMetrics::meta_iops}) {
      AggregatedMetrics bad_job = agg;
      bad_job.jobs[0].*field = bad;
      expect_refused(bad_job, bad);
    }
    for (float StageDigest::*field :
         {&StageDigest::data_iops, &StageDigest::meta_iops}) {
      AggregatedMetrics bad_digest = agg;
      bad_digest.digests[0].*field = static_cast<float>(bad);
      expect_refused(bad_digest, bad);
    }
    for (double Rule::*field : {&Rule::data_iops_limit, &Rule::meta_iops_limit}) {
      EnforceBatch batch;
      batch.rules = {{StageId{0}, JobId{0}, 100.0, 10.0, 1},
                     {StageId{1}, JobId{0}, 100.0, 10.0, 1}};
      batch.rules[1].*field = bad;
      expect_refused(batch, bad);
    }
    expect_refused(BudgetLease{9, bad, 5e5, 1}, bad);
    expect_refused(BudgetLease{9, 1e6, bad, 1}, bad);
  }
}

TEST(MessagesTest, FromFrameRejectsWrongType) {
  const wire::Frame frame = to_frame(EnforceAck{1, 2});
  auto decoded = from_frame<CollectRequest>(frame);
  EXPECT_FALSE(decoded.is_ok());
}

TEST(MessagesTest, FromFrameRejectsTrailingBytes) {
  wire::Frame frame = to_frame(EnforceAck{1, 2});
  frame.payload.push_back(0xFF);
  auto decoded = from_frame<EnforceAck>(frame);
  EXPECT_FALSE(decoded.is_ok());
}

TEST(MessagesTest, TruncatedPayloadRejected) {
  wire::Frame frame = to_frame(sample_metrics(3));
  frame.payload.resize(frame.payload.size() / 2);
  auto decoded = from_frame<StageMetrics>(frame);
  EXPECT_FALSE(decoded.is_ok());
}

TEST(MessagesTest, BatchCountOverflowRejected) {
  // Hand-craft a batch whose count field claims 2^30 entries.
  wire::Frame frame;
  frame.type = static_cast<std::uint16_t>(MessageType::kEnforceBatch);
  wire::Encoder enc(frame.payload);
  enc.put_varint(1);           // cycle
  enc.put_varint(1ull << 30);  // absurd count
  auto decoded = from_frame<EnforceBatch>(frame);
  EXPECT_FALSE(decoded.is_ok());
}

TEST(MessagesTest, MessageTypeNames) {
  EXPECT_EQ(to_string(MessageType::kCollectRequest), "CollectRequest");
  EXPECT_EQ(to_string(MessageType::kEnforceBatch), "EnforceBatch");
  EXPECT_EQ(to_string(MessageType::kAggregatedMetrics), "AggregatedMetrics");
}

TEST(MessagesTest, RandomGarbagePayloadsNeverCrash) {
  Rng rng(5);
  for (int round = 0; round < 3000; ++round) {
    wire::Frame frame;
    frame.type = static_cast<std::uint16_t>(1 + rng.next_below(13));
    frame.payload.resize(rng.next_below(128));
    for (auto& b : frame.payload) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    // Try to decode as every message type; failure is fine, UB is not.
    (void)from_frame<RegisterRequest>(frame);
    (void)from_frame<RegisterAck>(frame);
    (void)from_frame<CollectRequest>(frame);
    (void)from_frame<StageMetrics>(frame);
    (void)from_frame<StageMetricsDelta>(frame);
    (void)from_frame<MetricsBatch>(frame);
    (void)from_frame<AggregatedMetrics>(frame);
    (void)from_frame<EnforceBatch>(frame);
    (void)from_frame<EnforceAck>(frame);
    (void)from_frame<Heartbeat>(frame);
    (void)from_frame<HeartbeatAck>(frame);
    (void)from_frame<BudgetLease>(frame);
    (void)from_frame<ErrorMessage>(frame);
  }
}

TEST(StageMetricsDeltaTest, MakeApplyReproducesBitForBit) {
  const StageMetrics prev = sample_metrics(5);
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  curr.data_iops = prev.data_iops * 1.0001;
  curr.meta_iops = prev.meta_iops - 0.125;
  const auto delta = StageMetricsDelta::make(prev, curr, true);
  EXPECT_EQ(delta.fields & StageMetricsDelta::kDataIops,
            StageMetricsDelta::kDataIops);
  EXPECT_EQ(delta.fields & StageMetricsDelta::kMetaIops,
            StageMetricsDelta::kMetaIops);
  EXPECT_EQ(delta.fields & StageMetricsDelta::kDataLimit, 0);
  EXPECT_EQ(delta.apply(prev), curr);
}

TEST(StageMetricsDeltaTest, RoundTripWithAndWithoutStageId) {
  const StageMetrics prev = sample_metrics(5);
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  curr.data_iops += 17.5;
  curr.data_limit = 1234.0;
  expect_roundtrip(StageMetricsDelta::make(prev, curr, true));
  expect_roundtrip(StageMetricsDelta::make(prev, curr, false));
}

TEST(StageMetricsDeltaTest, UnchangedMetricsEncodeNoFields) {
  StageMetrics prev = sample_metrics(5);
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  const auto delta = StageMetricsDelta::make(prev, curr, false);
  EXPECT_EQ(delta.fields & 0x0f, 0);
  // cycle varint + flags byte only: the idle-stage floor.
  EXPECT_LE(delta.wire_size(), 3u);
  EXPECT_EQ(delta.apply(prev), curr);
  expect_roundtrip(delta);
}

TEST(StageMetricsDeltaTest, ExplicitBaseAgeRoundTrips) {
  StageMetrics prev = sample_metrics(5);
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 4;  // three reports skipped
  curr.meta_iops += 1.0;
  const auto delta = StageMetricsDelta::make(prev, curr, true);
  EXPECT_EQ(delta.base_cycle_id, prev.cycle_id);
  // The non-default base age costs an extra varint on the wire.
  StageMetricsDelta adjacent = delta;
  adjacent.base_cycle_id = delta.cycle_id - 1;
  EXPECT_GT(delta.wire_size(), adjacent.wire_size());
  expect_roundtrip(delta);
  EXPECT_EQ(delta.apply(prev), curr);
}

TEST(StageMetricsDeltaTest, LimitTransitionsToAndFromUnlimited) {
  StageMetrics prev = sample_metrics(5);
  prev.data_limit = kUnlimited;
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  curr.data_limit = 512.0;
  const auto to_capped = StageMetricsDelta::make(prev, curr, true);
  EXPECT_EQ(to_capped.apply(prev), curr);
  StageMetrics next = curr;
  next.cycle_id = curr.cycle_id + 1;
  next.data_limit = kUnlimited;
  const auto to_uncapped = StageMetricsDelta::make(curr, next, true);
  EXPECT_EQ(to_uncapped.apply(curr), next);
  expect_roundtrip(to_capped);
  expect_roundtrip(to_uncapped);
}

TEST(StageMetricsDeltaTest, ReservedFlagBitsRejected) {
  StageMetrics prev = sample_metrics(5);
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  curr.data_iops += 1.0;
  const auto delta = StageMetricsDelta::make(prev, curr, true);
  wire::Frame frame = to_frame(delta);
  for (const unsigned reserved : {0x40u, 0x80u, 0xc0u}) {
    wire::Frame bad;
    bad.type = frame.type;
    wire::Encoder enc(bad.payload);
    enc.put_varint(delta.cycle_id);
    enc.put_u8(static_cast<std::uint8_t>(delta.fields | reserved));
    auto decoded = from_frame<StageMetricsDelta>(bad);
    EXPECT_FALSE(decoded.is_ok()) << "reserved bit 0x" << std::hex
                                  << int(reserved) << " accepted";
  }
}

TEST(StageMetricsDeltaTest, LowChurnDeltaIsAFractionOfFullFrame) {
  // The wire-bytes claim behind the tentpole: a one-field drift on a
  // per-stage connection (no stage id) stays well under a third of the
  // full StageMetrics frame.
  const StageMetrics prev = sample_metrics(5);
  StageMetrics curr = prev;
  curr.cycle_id = prev.cycle_id + 1;
  curr.data_iops = prev.data_iops * (1.0 + 1e-9);
  const auto delta = StageMetricsDelta::make(prev, curr, false);
  EXPECT_LE(delta.wire_size() * 3, curr.wire_size());
}

TEST(StageMetricsDeltaTest, RandomWalkRoundTripsAndApplies) {
  Rng rng(0xd17a);
  StageMetrics prev = sample_metrics(1);
  for (int round = 0; round < 500; ++round) {
    StageMetrics curr = prev;
    curr.cycle_id = prev.cycle_id + 1 + rng.next_below(3);
    if (rng.bernoulli(0.8)) curr.data_iops *= 1.0 + rng.normal(0, 0.02);
    if (rng.bernoulli(0.4)) curr.meta_iops += rng.normal(0, 1.0);
    if (rng.bernoulli(0.05)) {
      curr.data_limit = rng.bernoulli(0.5) ? kUnlimited : rng.uniform01() * 1e4;
    }
    const bool with_id = rng.bernoulli(0.5);
    const auto delta = StageMetricsDelta::make(prev, curr, with_id);
    expect_roundtrip(delta);
    ASSERT_EQ(delta.apply(prev), curr);
    prev = curr;
  }
}

TEST(StageMetricsDeltaTest, FullFrameGoldenBytesPinned) {
  // The delta path leaves full StageMetrics frames byte-identical: pin
  // the exact encoding so a codec change can't silently slip past the
  // compatibility claim.
  StageMetrics m;
  m.cycle_id = 7;
  m.stage_id = StageId{3};
  m.job_id = JobId{1};
  m.data_iops = 2.0;
  m.meta_iops = 0.5;
  m.data_limit = kUnlimited;
  m.meta_limit = kUnlimited;
  const wire::Frame frame = to_frame(m);
  wire::Encoder expected;
  expected.put_varint(7);
  expected.put_u32(3);
  expected.put_u32(1);
  expected.put_double(2.0);
  expected.put_double(0.5);
  expected.put_double(kUnlimited);
  expected.put_double(kUnlimited);
  EXPECT_EQ(frame.payload, expected.bytes());
}

class MetricsBatchSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MetricsBatchSizeTest, RoundTripAtSize) {
  MetricsBatch batch;
  batch.cycle_id = 42;
  batch.from = ControllerId{1};
  for (std::uint32_t i = 0; i < GetParam(); ++i) {
    batch.entries.push_back(sample_metrics(i));
  }
  expect_roundtrip(batch);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MetricsBatchSizeTest,
                         ::testing::Values(0, 1, 2, 50, 500, 2500));

}  // namespace
}  // namespace sds::proto
