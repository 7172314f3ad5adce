// SharedFrame — a message encoded once, broadcast many times.
//
// The global controller's collect/enforce/heartbeat phases send one
// identical message to N connections. The naive path re-encodes (or at
// least re-copies) the payload per connection; at 2,500 connections per
// node that is thousands of avoidable allocations and memcpys inside the
// very phase latencies the paper measures. A SharedFrame holds the
// complete wire image (12-byte header + payload) in one ref-counted
// buffer: encode once, then every endpoint queues the same immutable
// bytes. TCP writes it directly (writev); in-process delivery hands the
// receiver a view and pays exactly one copy at the receiving end, which
// is the copy a real NIC would make.
//
// Images are wire::Bytes, so one of at most Bytes::kInlineCapacity bytes
// (a CollectRequest with or without its trace trailer) needs no buffer
// allocation; each encode still allocates its shared_ptr control block.
// Larger images take their buffer from a thread-local pool (each pool is
// touched only by its own thread — no locks), but a buffer joins the
// pool of the thread that drops its last reference, not the encoder's.
// In-process that is the receiver's delivery thread, over TCP the event
// loop's thread, so on the live broadcast paths the encoding thread's
// pool misses on every wave and the receiving side's pool only fills.
// The pool pays off where one thread both encodes and releases.
// EncodeStats counts encodes and pool traffic so tests can assert the
// exactly-one-encode-per-wave invariant.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "wire/frame.h"

namespace sds::wire {

/// Process-wide counters for the shared-frame fast path. Monotonic,
/// relaxed atomics; tests snapshot deltas around a broadcast wave.
struct EncodeStats {
  inline static std::atomic<std::uint64_t> frames_encoded{0};
  inline static std::atomic<std::uint64_t> pool_hits{0};
  inline static std::atomic<std::uint64_t> pool_misses{0};
  inline static std::atomic<std::uint64_t> pool_returns{0};
};

namespace detail {

/// Thread-local free list of encode buffers. Buffers may be released on
/// a different thread than they were acquired on (e.g. the TCP event
/// loop drops the last reference); they simply join that thread's pool.
class BufferPool {
 public:
  static constexpr std::size_t kMaxPooled = 64;
  /// Buffers that grew beyond this are freed instead of pooled, so one
  /// huge frame can't pin memory forever.
  static constexpr std::size_t kMaxPooledCapacity = 256 * 1024;

  static BufferPool& local() {
    thread_local BufferPool pool;
    return pool;
  }

  Bytes acquire() {
    if (free_.empty()) {
      EncodeStats::pool_misses.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    EncodeStats::pool_hits.fetch_add(1, std::memory_order_relaxed);
    Bytes buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    return buf;
  }

  void release(Bytes&& buf) {
    if (free_.size() >= kMaxPooled || buf.capacity() > kMaxPooledCapacity) {
      return;  // let it free
    }
    EncodeStats::pool_returns.fetch_add(1, std::memory_order_relaxed);
    free_.push_back(std::move(buf));
  }

 private:
  std::vector<Bytes> free_;
};

/// shared_ptr control block payload: returns the buffer to the pool of
/// whichever thread drops the last reference.
struct PooledImage {
  Bytes bytes;
  explicit PooledImage(Bytes&& b) : bytes(std::move(b)) {}
  PooledImage(const PooledImage&) = delete;
  PooledImage& operator=(const PooledImage&) = delete;
  ~PooledImage() { BufferPool::local().release(std::move(bytes)); }
};

}  // namespace detail

class SharedFrame {
 public:
  SharedFrame() = default;

  /// Encode once: header for `type` plus the payload written by
  /// `encode_payload(Encoder&)`, into a pooled buffer. `size_hint` sizes
  /// the reservation (messages expose wire_size() for exactly this); the
  /// header's length field is patched from the bytes actually written.
  template <typename PayloadWriter>
  [[nodiscard]] static SharedFrame encode(
      std::uint16_t type, std::size_t size_hint,
      PayloadWriter&& encode_payload,
      std::optional<TraceContext> trace = std::nullopt) {
    Bytes buf = detail::BufferPool::local().acquire();
    Encoder enc(buf);
    enc.reserve(kFrameHeaderSize + size_hint);
    const std::uint16_t flags = trace ? kFlagTraceContext : 0;
    const FrameHeader header{type, flags,
                             static_cast<std::uint32_t>(size_hint)};
    header.encode(enc);
    encode_payload(enc);
    if (trace) trace->encode(enc);
    const auto length = static_cast<std::uint32_t>(buf.size() - kFrameHeaderSize);
    std::memcpy(buf.data() + 8, &length, sizeof(length));
    EncodeStats::frames_encoded.fetch_add(1, std::memory_order_relaxed);
    SharedFrame out;
    out.type_ = type;
    out.flags_ = flags;
    out.image_ = std::make_shared<detail::PooledImage>(std::move(buf));
    return out;
  }

  /// Wrap an already-built Frame (one copy; used at API boundaries
  /// that only have a Frame).
  [[nodiscard]] static SharedFrame from_frame(const Frame& frame) {
    return encode(
        frame.type, frame.payload.size(),
        [&frame](Encoder& enc) { enc.put_raw(frame.payload); }, frame.trace);
  }

  [[nodiscard]] bool empty() const { return image_ == nullptr; }
  [[nodiscard]] std::uint16_t type() const { return type_; }

  /// The full wire image (header + payload) — what TCP writes.
  [[nodiscard]] std::span<const std::uint8_t> wire_image() const {
    return image_ ? std::span<const std::uint8_t>(image_->bytes)
                  : std::span<const std::uint8_t>{};
  }

  /// Payload view (what the frame handler on the receiving side sees) —
  /// the trace trailer, if any, is excluded.
  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    auto image = wire_image();
    if (image.size() < kFrameHeaderSize) return {};
    auto body = image.subspan(kFrameHeaderSize);
    if ((flags_ & kFlagTraceContext) != 0 &&
        body.size() >= kTraceContextSize) {
      body = body.first(body.size() - kTraceContextSize);
    }
    return body;
  }

  [[nodiscard]] std::size_t wire_size() const { return wire_image().size(); }

  /// Reference count (diagnostics/tests only).
  [[nodiscard]] long use_count() const { return image_.use_count(); }

  /// Materialize an owned Frame — the receiving side's single copy, into
  /// the payload's inline buffer when it fits. The trace trailer (if
  /// present) is decoded back into `Frame::trace`.
  [[nodiscard]] Frame to_frame() const {
    Frame frame;
    frame.type = type_;
    const auto p = payload();
    frame.payload.assign(p.begin(), p.end());
    if ((flags_ & kFlagTraceContext) != 0) {
      auto image = wire_image();
      if (image.size() >= kFrameHeaderSize + kTraceContextSize) {
        frame.trace = TraceContext::decode_trailer(
            image.last(kTraceContextSize));
      }
    }
    return frame;
  }

 private:
  std::shared_ptr<const detail::PooledImage> image_;
  std::uint16_t type_ = 0;
  std::uint16_t flags_ = 0;
};

}  // namespace sds::wire
