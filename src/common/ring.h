// Ring — a FIFO of T kept in a ring of fixed-size blocks.
//
// Elements live in blocks of kBlock slots chained front to back. A block
// the front has emptied goes on a free list and comes back at the tail,
// so a ring that carries the same traffic over and over cycles through
// the same blocks: once it has held its high-water mark, push_back() and
// pop_front() allocate nothing, and growth never moves an element. A
// Queue hands its whole chain to a consumer (hand_over()) and takes the
// blocks the consumer has emptied in exchange, so the two share one set
// of blocks sized to the most items they held at once. The TCP
// transport keeps one small-block ring per connection for its writes.
//
// Not thread-safe.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>

namespace sds {

template <typename T, std::size_t kBlock = 64>
class Ring {
  static_assert(kBlock > 0);

  struct Block {
    Block* next = nullptr;
    alignas(T) unsigned char storage[kBlock * sizeof(T)];

    T* slot(std::size_t i) { return reinterpret_cast<T*>(storage) + i; }
  };

 public:
  static constexpr std::size_t kBlockSize = kBlock;

  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();  // leaves at most the tail block in the chain
    delete head_;
    while (free_ != nullptr) delete std::exchange(free_, free_->next);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  T& front() { return *head_->slot(head_pos_); }

  void push_back(T&& item) { emplace_back(std::move(item)); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (tail_ == nullptr || tail_pos_ == kBlock) add_block();
    std::construct_at(tail_->slot(tail_pos_), std::forward<Args>(args)...);
    ++tail_pos_;
    ++size_;
  }

  void pop_front() {
    std::destroy_at(head_->slot(head_pos_));
    ++head_pos_;
    --size_;
    if (size_ == 0) {
      // Empty: restart in the same block.
      head_pos_ = 0;
      tail_pos_ = 0;
    } else if (head_pos_ == kBlock) {
      Block* emptied = std::exchange(head_, head_->next);
      head_pos_ = 0;
      release(emptied);
    }
  }

  /// Destroys every element; the blocks stay for reuse.
  void clear() {
    while (!empty()) pop_front();
  }

  /// Moves every element to `to`, which must be empty, and takes `to`'s
  /// free blocks in exchange, so the blocks a consumer emptied come back
  /// to the ring that needs them for the next pushes.
  void hand_over(Ring& to) noexcept {
    swap_chains(to);
    while (to.free_ != nullptr) {
      release(std::exchange(to.free_, to.free_->next));
    }
  }

  /// Front-to-back iteration (range-for over a drained batch).
  template <typename V>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iter() = default;
    Iter(Block* block, std::size_t pos, std::size_t left)
        : block_(block), pos_(pos), left_(left) {}
    V& operator*() const { return *block_->slot(pos_); }
    Iter& operator++() {
      --left_;
      if (++pos_ == kBlock) {
        block_ = block_->next;
        pos_ = 0;
      }
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.left_ == b.left_;
    }

   private:
    Block* block_ = nullptr;
    std::size_t pos_ = 0;
    std::size_t left_ = 0;
  };
  using iterator = Iter<T>;
  using const_iterator = Iter<const T>;

  iterator begin() { return {head_, head_pos_, size_}; }
  iterator end() { return {}; }
  const_iterator begin() const { return {head_, head_pos_, size_}; }
  const_iterator end() const { return {}; }

 private:
  /// Links a block (a free one when there is one) after the tail.
  void add_block() {
    Block* block = free_;
    if (block != nullptr) {
      free_ = block->next;
    } else {
      block = new Block;
    }
    block->next = nullptr;
    if (tail_ == nullptr) {
      head_ = block;
      head_pos_ = 0;
    } else {
      tail_->next = block;
    }
    tail_ = block;
    tail_pos_ = 0;
  }

  void release(Block* block) {
    block->next = free_;
    free_ = block;
  }

  void swap_chains(Ring& other) noexcept {
    std::swap(head_, other.head_);
    std::swap(tail_, other.tail_);
    std::swap(head_pos_, other.head_pos_);
    std::swap(tail_pos_, other.tail_pos_);
    std::swap(size_, other.size_);
  }

  Block* head_ = nullptr;  // front element's block
  Block* tail_ = nullptr;  // block that takes the next push_back
  Block* free_ = nullptr;  // emptied blocks, singly linked
  std::size_t head_pos_ = 0;
  std::size_t tail_pos_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sds
