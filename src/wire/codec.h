// Binary wire codec: little-endian fixed-width integers, LEB128 varints,
// zigzag signed varints, IEEE doubles, and length-prefixed strings/vectors.
//
// Decoder uses a sticky error flag: any underflow or malformed varint sets
// the flag and makes every later read return a zero value, so message
// decoders can read unconditionally and check ok() once at the end.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "wire/bytes.h"

namespace sds::wire {

class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(Bytes& out) : out_(&out) {}

  [[nodiscard]] const Bytes& bytes() const { return out_ ? *out_ : owned_; }
  [[nodiscard]] Bytes take() { return std::move(buffer()); }
  [[nodiscard]] std::size_t size() const { return buffer().size(); }
  void reserve(std::size_t n) { buffer().reserve(n); }
  void clear() { buffer().clear(); }

  void put_u8(std::uint8_t v) { buffer().push_back(v); }

  void put_u16(std::uint16_t v) { put_fixed(v); }
  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }

  /// LEB128 unsigned varint (1–10 bytes). The byte count comes from
  /// std::bit_width (one instruction) so the buffer grows exactly once;
  /// the write loop then has a known trip count instead of testing the
  /// remaining value every byte.
  void put_varint(std::uint64_t v) {
    const std::size_t n = varint_size(v);
    std::uint8_t* p = buffer().append_uninitialized(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      p[i] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    p[n - 1] = static_cast<std::uint8_t>(v);
  }

  /// Zigzag-encoded signed varint.
  void put_svarint(std::int64_t v) {
    put_varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }

  void put_double(double v) { put_fixed(std::bit_cast<std::uint64_t>(v)); }
  /// Lossy 32-bit float — used for compact per-stage digests.
  void put_f32(float v) { put_fixed(std::bit_cast<std::uint32_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_string(std::string_view s) {
    put_varint(s.size());
    buffer().append(
        {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  void put_raw(std::span<const std::uint8_t> data) { buffer().append(data); }

  /// Encoded size of a varint without encoding it (for wire_size()).
  /// Constant-time: ceil(bit_width / 7), with `| 1` making zero one byte.
  [[nodiscard]] static constexpr std::size_t varint_size(std::uint64_t v) {
    return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
  }

 private:
  template <typename T>
  void put_fixed(T v) {
    static_assert(std::endian::native == std::endian::little,
                  "big-endian hosts need byte swaps here");
    std::memcpy(buffer().append_uninitialized(sizeof(T)), &v, sizeof(T));
  }

  Bytes& buffer() { return out_ ? *out_ : owned_; }
  [[nodiscard]] const Bytes& buffer() const { return out_ ? *out_ : owned_; }

  Bytes owned_;
  Bytes* out_ = nullptr;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data, size) {}
  explicit Decoder(const Bytes& data) : data_(data.data(), data.size()) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool fully_consumed() const { return ok_ && remaining() == 0; }

  std::uint8_t get_u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t get_u16() { return get_fixed<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_fixed<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_fixed<std::uint64_t>(); }

  std::uint64_t get_varint() {
    std::uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (!ensure(1)) return 0;
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7E) != 0) {  // overflow past 64 bits
        ok_ = false;
        return 0;
      }
      result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return result;
      shift += 7;
      if (shift > 63) {
        ok_ = false;
        return 0;
      }
    }
  }

  std::int64_t get_svarint() {
    const std::uint64_t z = get_varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  double get_double() { return std::bit_cast<double>(get_u64()); }
  float get_f32() { return std::bit_cast<float>(get_u32()); }
  bool get_bool() { return get_u8() != 0; }

  std::string get_string() {
    const std::uint64_t len = get_varint();
    if (!ensure(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  std::span<const std::uint8_t> get_raw(std::size_t n) {
    if (!ensure(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void mark_bad() { ok_ = false; }

 private:
  bool ensure(std::uint64_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T get_fixed() {
    if (!ensure(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sds::wire
