#include "wire/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "wire/shared_frame.h"

namespace sds::wire {
namespace {

TEST(FrameTest, HeaderRoundTrip) {
  Encoder enc;
  FrameHeader header{42, 0, 1234};
  header.encode(enc);
  EXPECT_EQ(enc.size(), kFrameHeaderSize);

  auto decoded = FrameHeader::decode(enc.bytes());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->type, 42);
  EXPECT_EQ(decoded->length, 1234u);
}

TEST(FrameTest, ShortHeaderRejected) {
  const Bytes data{1, 2, 3};
  auto decoded = FrameHeader::decode(data);
  EXPECT_FALSE(decoded.is_ok());
}

TEST(FrameTest, BadMagicRejected) {
  Encoder enc;
  enc.put_u32(0xBADC0DE);
  enc.put_u16(1);
  enc.put_u16(0);
  enc.put_u32(0);
  auto decoded = FrameHeader::decode(enc.bytes());
  EXPECT_FALSE(decoded.is_ok());
}

TEST(FrameTest, OversizedPayloadRejected) {
  Encoder enc;
  FrameHeader header{1, 0, kMaxFramePayload + 1};
  header.encode(enc);
  auto decoded = FrameHeader::decode(enc.bytes());
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, SerializeIncludesHeaderAndPayload) {
  Frame frame;
  frame.type = 9;
  frame.payload = {10, 20, 30};
  EXPECT_EQ(frame.wire_size(), kFrameHeaderSize + 3);

  const Bytes bytes(SharedFrame::from_frame(frame).wire_image());
  ASSERT_EQ(bytes.size(), frame.wire_size());

  auto header = FrameHeader::decode(bytes);
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header->type, 9);
  EXPECT_EQ(header->length, 3u);
  EXPECT_EQ(bytes[kFrameHeaderSize], 10);
  EXPECT_EQ(bytes[kFrameHeaderSize + 2], 30);
}

/// `n` bytes of a fixed pattern that depends on `seed`.
Bytes pattern(std::size_t n, std::uint8_t seed = 7) {
  Bytes bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31 + seed);
  }
  return bytes;
}

// Payload storage at its edges: empty, exactly the inline capacity, one
// byte over it, and a heap-sized 1 MiB.
class PayloadStorageTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadStorageTest, CopyMoveAssignResizeAndEquality) {
  const std::size_t n = GetParam();
  const Bytes original = pattern(n);
  ASSERT_EQ(original.size(), n);

  Bytes copy = original;
  EXPECT_EQ(copy, original);
  if (n > 0) {
    EXPECT_NE(copy.data(), original.data());
  }

  // A move carries the contents and leaves the source empty.
  Bytes moved = std::move(copy);
  EXPECT_EQ(moved, original);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  Bytes& alias = moved;
  moved = std::move(alias);  // self-move-assign keeps the contents
  EXPECT_EQ(moved, original);

  // Assigning over buffers of every storage size.
  for (const std::size_t other : {std::size_t{0}, Bytes::kInlineCapacity,
                                  Bytes::kInlineCapacity + 1,
                                  std::size_t{1} << 20}) {
    Bytes target = pattern(other, 99);
    target = original;
    EXPECT_EQ(target, original) << "copy over " << other;
    Bytes source = original;
    Bytes moved_over = pattern(other, 99);
    moved_over = std::move(source);
    EXPECT_EQ(moved_over, original) << "move over " << other;
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  }

  // assign() from a range, including the buffer's own second half.
  Bytes assigned;
  assigned.assign(original.begin(), original.end());
  EXPECT_EQ(assigned, original);
  assigned.assign(assigned.begin() + n / 2, assigned.end());
  EXPECT_EQ(assigned, Bytes(std::span(original).subspan(n / 2)));
  assigned.assign(3, 0xEE);
  EXPECT_EQ(assigned, (Bytes{0xEE, 0xEE, 0xEE}));

  // resize() zero-fills growth and truncates without losing the prefix.
  Bytes resized = original;
  resized.resize(n + 1);
  EXPECT_EQ(resized[n], 0);
  resized.resize(n);
  EXPECT_EQ(resized, original);
  resized.resize(n / 2);
  EXPECT_EQ(resized, Bytes(std::span(original).first(n / 2)));
  resized.clear();
  EXPECT_TRUE(resized.empty());
  EXPECT_GE(resized.capacity(), Bytes::kInlineCapacity);

  // Equality sees a single differing byte and a length difference.
  if (n > 0) {
    Bytes differs = original;
    differs[n - 1] ^= 0x01;
    EXPECT_NE(differs, original);
  }
  Bytes longer = original;
  longer.push_back(0);
  EXPECT_NE(longer, original);

  // A frame carrying the payload survives the shared image both ways.
  Frame frame;
  frame.type = 5;
  frame.payload = original;
  EXPECT_EQ(frame.wire_size(), kFrameHeaderSize + n);
  EXPECT_EQ(SharedFrame::from_frame(frame).to_frame().payload, original);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PayloadStorageTest,
    ::testing::Values(std::size_t{0}, Bytes::kInlineCapacity,
                      Bytes::kInlineCapacity + 1, std::size_t{1} << 20));

TEST(FrameTest, EmptyPayloadSerializes) {
  Frame frame;
  frame.type = 1;
  const Bytes bytes(SharedFrame::from_frame(frame).wire_image());
  EXPECT_EQ(bytes.size(), kFrameHeaderSize);
}

}  // namespace
}  // namespace sds::wire
