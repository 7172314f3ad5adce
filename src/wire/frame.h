// Transport frame: fixed 12-byte header followed by the message payload.
//
//   magic   u32  'S','D','S','1'
//   type    u16  proto::MessageType
//   flags   u16  bit 0: trace-context trailer present (rest reserved, 0)
//   length  u32  payload byte count (including any trailer)
//
// TCP streams carry back-to-back frames; the in-process transport and the
// simulator carry Frame objects directly (payload sizes still count).
//
// Trace context rides as a fixed 16-byte trailer *after* the message
// payload — (trace_id u64, parent_span u64, little-endian) — flagged by
// kFlagTraceContext. Decoders that strip the trailer hand the message
// codecs exactly the payload they always saw, so tracing never perturbs
// message encoding, and a peer that predates tracing still parses the
// header (flags were always reserved-zero before).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/status.h"
#include "wire/codec.h"

namespace sds::wire {

constexpr std::uint32_t kFrameMagic = 0x31534453;  // "SDS1" little-endian
constexpr std::size_t kFrameHeaderSize = 12;
/// Upper bound on a single frame payload (guards against corrupt lengths).
constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Header flags bit 0: a 16-byte trace-context trailer follows the payload.
constexpr std::uint16_t kFlagTraceContext = 0x1;
/// Wire size of the trace-context trailer (two fixed u64s).
constexpr std::size_t kTraceContextSize = 16;

/// Compact causal context carried across wire hops: which per-cycle trace
/// a message belongs to and which span caused it. trace_id is the cycle
/// number by convention (unique enough per run).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  void encode(Encoder& enc) const {
    enc.put_u64(trace_id);
    enc.put_u64(parent_span);
  }

  [[nodiscard]] static TraceContext decode_trailer(
      std::span<const std::uint8_t> trailer) {
    Decoder dec(trailer);
    TraceContext ctx;
    ctx.trace_id = dec.get_u64();
    ctx.parent_span = dec.get_u64();
    return ctx;
  }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

struct FrameHeader {
  std::uint16_t type = 0;
  std::uint16_t flags = 0;
  std::uint32_t length = 0;

  void encode(Encoder& enc) const {
    enc.put_u32(kFrameMagic);
    enc.put_u16(type);
    enc.put_u16(flags);
    enc.put_u32(length);
  }

  [[nodiscard]] static Result<FrameHeader> decode(std::span<const std::uint8_t> buf) {
    if (buf.size() < kFrameHeaderSize) {
      return Status::invalid_argument("short frame header");
    }
    Decoder dec(buf.subspan(0, kFrameHeaderSize));
    if (dec.get_u32() != kFrameMagic) {
      return Status::invalid_argument("bad frame magic");
    }
    FrameHeader h;
    h.type = dec.get_u16();
    h.flags = dec.get_u16();
    h.length = dec.get_u32();
    if (h.length > kMaxFramePayload) {
      return Status::out_of_range("frame payload too large");
    }
    return h;
  }
};

/// A complete message as carried by a transport. `trace`, when set, is
/// carried out-of-band: in-process transports move the Frame (and the
/// context with it); byte transports append the trailer and re-attach it
/// on decode, so `payload` is always exactly the message bytes. A
/// per-stage message fits `payload`'s inline buffer, so a Frame carrying
/// one owns no heap memory.
struct Frame {
  std::uint16_t type = 0;
  Bytes payload;
  std::optional<TraceContext> trace;

  [[nodiscard]] std::size_t wire_size() const {
    return kFrameHeaderSize + payload.size() +
           (trace ? kTraceContextSize : 0);
  }
};

}  // namespace sds::wire
