#include "wire/shared_frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "wire/frame.h"

namespace sds::wire {
namespace {

Frame make_frame(std::uint16_t type, std::size_t payload_size) {
  Frame frame;
  frame.type = type;
  frame.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return frame;
}

TEST(SharedFrameTest, DefaultIsEmpty) {
  SharedFrame shared;
  EXPECT_TRUE(shared.empty());
  EXPECT_EQ(shared.wire_size(), 0u);
  EXPECT_TRUE(shared.payload().empty());
}

TEST(SharedFrameTest, WireImageHasValidHeaderAndPayload) {
  const Frame frame = make_frame(7, 33);
  const SharedFrame shared = SharedFrame::from_frame(frame);
  ASSERT_FALSE(shared.empty());
  EXPECT_EQ(shared.type(), 7);
  EXPECT_EQ(shared.wire_size(), kFrameHeaderSize + 33);

  const auto header = FrameHeader::decode(shared.wire_image());
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header->type, 7);
  EXPECT_EQ(header->length, 33u);

  const auto payload = shared.payload();
  ASSERT_EQ(payload.size(), frame.payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame.payload.begin()));
}

TEST(SharedFrameTest, ToFrameRoundTrips) {
  const Frame frame = make_frame(3, 100);
  const Frame round = SharedFrame::from_frame(frame).to_frame();
  EXPECT_EQ(round.type, frame.type);
  EXPECT_EQ(round.payload, frame.payload);
}

TEST(SharedFrameTest, MatchesFrameSerialize) {
  // The shared wire image must be byte-identical to a unicast frame's
  // header + payload, since TCP peers decode either form from the same
  // stream.
  const Frame frame = make_frame(11, 57);
  Encoder enc;
  FrameHeader{frame.type, 0, static_cast<std::uint32_t>(frame.payload.size())}
      .encode(enc);
  enc.put_raw(frame.payload);
  const Bytes serialized = enc.take();
  const auto image = SharedFrame::from_frame(frame).wire_image();
  ASSERT_EQ(image.size(), serialized.size());
  EXPECT_TRUE(std::equal(image.begin(), image.end(), serialized.begin()));
}

TEST(SharedFrameTest, HeaderLengthPatchedFromActualBytes) {
  // A size hint that undershoots must not corrupt the header.
  const SharedFrame shared =
      SharedFrame::encode(5, 1, [](Encoder& enc) {
        for (int i = 0; i < 40; ++i) enc.put_u8(0xAA);
      });
  const auto header = FrameHeader::decode(shared.wire_image());
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header->length, 40u);
  EXPECT_EQ(shared.payload().size(), 40u);
}

TEST(SharedFrameTest, CopiesShareOneImage) {
  const SharedFrame a = SharedFrame::from_frame(make_frame(2, 16));
  EXPECT_EQ(a.use_count(), 1);
  const SharedFrame b = a;
  const SharedFrame c = a;
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(b.wire_image().data(), a.wire_image().data());  // same bytes
  EXPECT_EQ(c.wire_image().data(), a.wire_image().data());
  {
    const SharedFrame d = b;
    EXPECT_EQ(a.use_count(), 4);
  }
  EXPECT_EQ(a.use_count(), 3);
}

TEST(SharedFrameTest, EncodeCountsOncePerMessageNotPerCopy) {
  const auto before = EncodeStats::frames_encoded.load();
  const SharedFrame shared = SharedFrame::from_frame(make_frame(9, 8));
  std::vector<SharedFrame> fanout(100, shared);
  EXPECT_EQ(EncodeStats::frames_encoded.load() - before, 1u);
  EXPECT_EQ(shared.use_count(), 101);
}

TEST(SharedFrameTest, BufferReturnsToPoolAndIsReused) {
  // Warm the pool, then check a release→acquire cycle hits it.
  { auto warm = SharedFrame::from_frame(make_frame(1, 64)); }
  const auto hits_before = EncodeStats::pool_hits.load();
  { auto shared = SharedFrame::from_frame(make_frame(1, 64)); }
  EXPECT_GT(EncodeStats::pool_hits.load(), hits_before);
}

TEST(SharedFrameTest, ReleaseOnAnotherThreadIsSafe) {
  // The last reference may drop on a different thread (TCP event loop);
  // the buffer joins that thread's pool. Run under TSan via -L tsan.
  SharedFrame shared = SharedFrame::from_frame(make_frame(4, 256));
  std::thread consumer([moved = std::move(shared)]() mutable {
    const Frame frame = moved.to_frame();
    EXPECT_EQ(frame.payload.size(), 256u);
    moved = SharedFrame{};  // last ref dies here, off-thread
  });
  consumer.join();
}

}  // namespace
}  // namespace sds::wire
