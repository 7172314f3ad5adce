// Wire-level trace-context propagation: the 16-byte (trace_id,
// parent_span) trailer rides *after* the message payload, flagged by
// header-flags bit 0, and every decode path strips it back off so the
// message codecs see exactly the bytes they always saw.
#include "wire/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "proto/messages.h"
#include "telemetry/span_tracer.h"
#include "wire/shared_frame.h"

namespace sds::wire {
namespace {

TEST(TraceContextTest, SerializeAppendsFlaggedTrailer) {
  Frame frame;
  frame.type = 7;
  frame.payload = {1, 2, 3, 4, 5};
  frame.trace = TraceContext{0x1122334455667788ull, 0xAABBCCDDEEFF0011ull};

  const Bytes bytes(SharedFrame::from_frame(frame).wire_image());
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 5 + kTraceContextSize);
  EXPECT_EQ(frame.wire_size(), bytes.size());

  const auto header = FrameHeader::decode(bytes).value();
  EXPECT_EQ(header.type, 7);
  EXPECT_NE(header.flags & kFlagTraceContext, 0);
  // The length covers payload + trailer, so pre-tracing framers still
  // consume the right number of stream bytes.
  EXPECT_EQ(header.length, 5u + kTraceContextSize);

  const auto ctx = TraceContext::decode_trailer(
      std::span<const std::uint8_t>(bytes).last(kTraceContextSize));
  EXPECT_EQ(ctx, *frame.trace);
}

TEST(TraceContextTest, UntracedFrameKeepsPreTracingFormat) {
  Frame frame;
  frame.type = 3;
  frame.payload = {9, 9, 9};
  const Bytes bytes(SharedFrame::from_frame(frame).wire_image());
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 3);
  const auto header = FrameHeader::decode(bytes).value();
  EXPECT_EQ(header.flags, 0);
  EXPECT_EQ(header.length, 3u);
}

TEST(TraceContextTest, SharedFramePayloadExcludesTrailer) {
  const TraceContext ctx{42, 99};
  const SharedFrame shared = SharedFrame::encode(
      11, 4, [](Encoder& enc) { enc.put_u32(0xDEADBEEF); }, ctx);

  // The wire image carries header + payload + trailer; the payload view
  // the frame handler sees is exactly the 4 message bytes.
  EXPECT_EQ(shared.wire_size(), kFrameHeaderSize + 4 + kTraceContextSize);
  EXPECT_EQ(shared.payload().size(), 4u);

  const Frame frame = shared.to_frame();
  EXPECT_EQ(frame.type, 11);
  EXPECT_EQ(frame.payload.size(), 4u);
  ASSERT_TRUE(frame.trace.has_value());
  EXPECT_EQ(*frame.trace, ctx);
}

TEST(TraceContextTest, FromFrameRoundTripsContext) {
  Frame frame;
  frame.type = 5;
  frame.payload = {1};
  frame.trace = TraceContext{7, 8};
  const Frame round = SharedFrame::from_frame(frame).to_frame();
  EXPECT_EQ(round.payload, frame.payload);
  ASSERT_TRUE(round.trace.has_value());
  EXPECT_EQ(*round.trace, *frame.trace);

  frame.trace.reset();
  const Frame bare = SharedFrame::from_frame(frame).to_frame();
  EXPECT_FALSE(bare.trace.has_value());
}

TEST(TraceContextTest, ProtoEncodersThreadTheContext) {
  proto::CollectRequest request;
  request.cycle_id = 12;
  const TraceContext ctx{12, telemetry::derive_span_id(12, 0, "collect")};

  const Frame framed = proto::to_frame(request, ctx);
  ASSERT_TRUE(framed.trace.has_value());
  EXPECT_EQ(*framed.trace, ctx);

  const Frame via_shared = proto::to_shared_frame(request, ctx).to_frame();
  ASSERT_TRUE(via_shared.trace.has_value());
  EXPECT_EQ(*via_shared.trace, ctx);
  // Both paths produce identical message payloads: the trailer never
  // perturbs the encoding.
  EXPECT_EQ(via_shared.payload, framed.payload);
  EXPECT_EQ(framed.payload, proto::to_frame(request).payload);

  EXPECT_FALSE(proto::to_frame(request).trace.has_value());
  EXPECT_FALSE(proto::to_shared_frame(request).to_frame().trace.has_value());
}

TEST(TraceContextTest, DeriveSpanIdIsDeterministicAndKeyed) {
  constexpr std::uint64_t id = telemetry::derive_span_id(5, 0, "collect");
  static_assert(id != 0, "0 is reserved for 'no span'");
  EXPECT_EQ(id, telemetry::derive_span_id(5, 0, "collect"));
  // Every key component participates in the hash.
  EXPECT_NE(id, telemetry::derive_span_id(6, 0, "collect"));
  EXPECT_NE(id, telemetry::derive_span_id(5, 1, "collect"));
  EXPECT_NE(id, telemetry::derive_span_id(5, 0, "enforce"));
}

}  // namespace
}  // namespace sds::wire
