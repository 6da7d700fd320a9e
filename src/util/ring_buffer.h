// Growable power-of-two ring buffer (FIFO) over uninitialized storage.
//
// std::deque is the obvious FIFO, but libstdc++ allocates/frees a block for
// roughly every 4-5 Packets that pass through, which keeps a per-packet
// allocation on the hot path even after the scheduler and callbacks are
// allocation-free. A ring over one flat allocation reaches a steady state
// after warm-up and never touches the heap again; Link's in-flight pipeline,
// the queue disciplines' FIFOs and PelsSource's pacing buffer sit on this.
// Indexing is mask-based, so capacity is always a power of two.
//
// Slots are raw storage: an element is constructed in place by push_back /
// emplace_back and destroyed by pop_front, clear or the ring's destruction,
// so reserve(n) is one allocation that never writes a slot. A queue reserved
// to a 1000-packet limit costs no page faults until packets actually queue.
// A ring that drains restarts at slot 0: a queue or wire that holds one
// packet at a time keeps reusing one hot slot instead of walking its whole
// buffer, one cold cache line per push.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pels {

/// FIFO of move-constructible values.
template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  ~RingBuffer() { release(); }

  RingBuffer(RingBuffer&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        count_(std::exchange(other.count_, 0)) {}

  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      release();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  T& front() {
    assert(count_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return slots_[head_];
  }
  T& back() {
    assert(count_ > 0);
    return slots_[(head_ + count_ - 1) & mask()];
  }

  /// i-th element from the front (0 = front). For diagnostics/tests.
  const T& at(std::size_t i) const {
    assert(i < count_);
    return slots_[(head_ + i) & mask()];
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (count_ == capacity_) grow();
    T* slot = slots_ + ((head_ + count_) & mask());
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++count_;
    return *slot;
  }

  void push_back(T&& value) { emplace_back(std::move(value)); }

  T pop_front() {
    assert(count_ > 0);
    T& slot = slots_[head_];
    T value = std::move(slot);
    slot.~T();
    --count_;
    head_ = count_ == 0 ? 0 : (head_ + 1) & mask();  // drained: restart at slot 0
    return value;
  }

  /// Pre-sizes to at least `n` slots (rounded up to a power of two). Only
  /// allocates: no slot is constructed or written.
  void reserve(std::size_t n) {
    std::size_t cap = capacity_ == 0 ? kInitialCapacity : capacity_;
    while (cap < n) cap *= 2;
    if (cap > capacity_) regrow(cap);
  }

  /// Destroys every element now (held resources such as boxed acks are
  /// released here) and keeps the storage.
  void clear() {
    for (std::size_t i = 0; i < count_; ++i) slots_[(head_ + i) & mask()].~T();
    head_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "regrow relocates elements by move construction");

  std::size_t mask() const { return capacity_ - 1; }

  void grow() { regrow(capacity_ == 0 ? kInitialCapacity : capacity_ * 2); }

  void regrow(std::size_t new_cap) {
    // Relocate into fresh storage unrolled from slot 0.
    T* grown = std::allocator<T>{}.allocate(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      T& src = slots_[(head_ + i) & mask()];
      ::new (static_cast<void*>(grown + i)) T(std::move(src));
      src.~T();
    }
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
    slots_ = grown;
    capacity_ = new_cap;
    head_ = 0;
  }

  void release() {
    clear();
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pels
