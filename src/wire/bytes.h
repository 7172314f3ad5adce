// wire::Bytes — the byte buffer behind every frame payload and encoder.
//
// A vector of bytes with a small inline buffer: up to kInlineCapacity
// bytes live inside the object, longer contents on the heap. The inline
// capacity covers the largest per-stage message (a StageMetrics body is
// at most 50 bytes, a one-rule EnforceBatch 45), so a per-stage frame
// hop (encode, queue, copy at the receiver, decode) never touches the
// allocator. Heap storage grows geometrically and is kept by clear(), so
// a reused buffer settles at its high-water mark.
//
// The interface is the part of std::vector<std::uint8_t> the code uses;
// iterators are raw pointers, so spans and std algorithms take a Bytes
// directly. Moving a Bytes copies its inline bytes or steals its heap
// block; the moved-from buffer is left empty.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

namespace sds::wire {

class Bytes {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = std::uint8_t&;
  using const_reference = const std::uint8_t&;
  using pointer = std::uint8_t*;
  using const_pointer = const std::uint8_t*;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  /// Bytes held without a heap allocation.
  static constexpr std::size_t kInlineCapacity = 56;

  Bytes() noexcept {}
  /// `n` zero bytes.
  explicit Bytes(std::size_t n) { resize(n); }
  Bytes(std::initializer_list<std::uint8_t> init) {
    append({init.begin(), init.size()});
  }
  explicit Bytes(std::span<const std::uint8_t> data) { append(data); }

  Bytes(const Bytes& other) { append(other); }
  Bytes(Bytes&& other) noexcept { take(other); }
  Bytes& operator=(const Bytes& other) {
    if (this != &other) {
      clear();
      append(other);
    }
    return *this;
  }
  Bytes& operator=(Bytes&& other) noexcept {
    if (this != &other) {
      free_heap();
      take(other);
    }
    return *this;
  }
  Bytes& operator=(std::initializer_list<std::uint8_t> init) {
    clear();
    append({init.begin(), init.size()});
    return *this;
  }
  ~Bytes() { free_heap(); }

  [[nodiscard]] std::uint8_t* data() noexcept { return data_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] static constexpr std::size_t max_size() noexcept {
    return std::numeric_limits<std::uint32_t>::max();
  }

  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
  const std::uint8_t& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  void reserve(std::size_t n) {
    if (n > capacity_) reallocate(n);
  }
  /// Empties the buffer; heap storage is kept for reuse.
  void clear() noexcept { size_ = 0; }

  void resize(std::size_t n, std::uint8_t value = 0) {
    if (n > size_) {
      const std::size_t added = n - size_;
      std::memset(append_uninitialized(added), value, added);
    } else {
      size_ = static_cast<std::uint32_t>(n);
    }
  }

  void push_back(std::uint8_t value) { *append_uninitialized(1) = value; }

  /// Appends `n` bytes without initializing them and returns where they
  /// start; the caller writes all `n`.
  std::uint8_t* append_uninitialized(std::size_t n) {
    const std::size_t old = size_;
    if (n > capacity_ - old) grow_for(old + n);
    size_ = static_cast<std::uint32_t>(old + n);
    return data_ + old;
  }

  void append(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    std::memcpy(append_uninitialized(bytes.size()), bytes.data(),
                bytes.size());
  }

  void assign(std::size_t n, std::uint8_t value) {
    clear();
    resize(n, value);
  }
  template <std::contiguous_iterator It>
  void assign(It first, It last) {
    const std::span<const std::uint8_t> bytes(
        std::to_address(first), static_cast<std::size_t>(last - first));
    if (bytes.size() > capacity_) {
      // `bytes` may point into this buffer: copy before freeing it.
      Bytes fresh;
      fresh.reallocate(bytes.size());
      fresh.append(bytes);
      *this = std::move(fresh);
      return;
    }
    std::memmove(data_, bytes.data(), bytes.size());
    size_ = static_cast<std::uint32_t>(bytes.size());
  }

  /// Inserts [first, last) before `pos`; the range must not alias this
  /// buffer.
  template <std::contiguous_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    const auto at = static_cast<std::size_t>(pos - data_);
    const auto n = static_cast<std::size_t>(last - first);
    const std::size_t tail = size_ - at;
    append_uninitialized(n);
    std::memmove(data_ + at + n, data_ + at, tail);
    if (n > 0) std::memcpy(data_ + at, std::to_address(first), n);
    return data_ + at;
  }

  iterator erase(const_iterator first, const_iterator last) noexcept {
    const auto at = static_cast<std::size_t>(first - data_);
    const auto n = static_cast<std::size_t>(last - first);
    std::memmove(data_ + at, data_ + at + n, size_ - at - n);
    size_ = static_cast<std::uint32_t>(size_ - n);
    return data_ + at;
  }

  void swap(Bytes& other) noexcept {
    Bytes held(std::move(other));
    other = std::move(*this);
    *this = std::move(held);
  }

  friend bool operator==(const Bytes& a, const Bytes& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  [[nodiscard]] bool on_heap() const noexcept { return data_ != inline_; }

  void grow_for(std::size_t needed) {
    reallocate(std::max(needed, 2 * static_cast<std::size_t>(capacity_)));
  }

  /// Moves the contents into fresh heap storage of exactly `n` bytes.
  void reallocate(std::size_t n) {
    if (n > max_size()) throw std::length_error("wire::Bytes too large");
    auto* fresh = static_cast<std::uint8_t*>(::operator new(n));
    if (size_ > 0) std::memcpy(fresh, data_, size_);
    free_heap();
    data_ = fresh;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  void free_heap() noexcept {
    if (on_heap()) ::operator delete(data_);
    data_ = inline_;
    capacity_ = kInlineCapacity;
  }

  /// Takes `other`'s contents (this buffer holds no heap block).
  void take(Bytes& other) noexcept {
    if (other.on_heap()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineCapacity;
    } else if (other.size_ > 0) {
      std::memcpy(inline_, other.inline_, other.size_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  std::uint8_t* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  std::uint8_t inline_[kInlineCapacity];
};

}  // namespace sds::wire
