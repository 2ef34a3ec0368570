/**
 * @file
 * A queue of recycled slots on a power-of-two ring.
 */
#ifndef APOPHENIA_SUPPORT_SLOT_RING_H
#define APOPHENIA_SUPPORT_SLOT_RING_H

#include <cstddef>
#include <utility>
#include <vector>

namespace apo::support {

/**
 * A double-ended queue whose slots live as long as the ring: popping a
 * slot leaves its value in place, and PushBack() hands it out again
 * as it was left. A slot that owns heap storage, such as a launch's
 * requirement vector, keeps its capacity, so once the ring has reached
 * its high-water size, pushing and popping allocate nothing (a
 * std::deque allocates and frees a node every few hundred bytes of
 * traffic). Growth doubles the ring; the live slots keep their order.
 */
template <typename T>
class SlotRing {
  public:
    /** Append a slot and return it, holding whatever it held last:
     * the caller assigns every field it reads later. */
    T& PushBack()
    {
        if (size_ == slots_.size()) {
            Grow();
        }
        ++size_;
        return Back();
    }

    /** Pop the first `count` slots (at most Size()). */
    void PopFront(std::size_t count = 1)
    {
        head_ = (head_ + count) & (slots_.size() - 1);
        size_ -= count;
    }

    void PopBack() { --size_; }

    /** The i'th live slot, counted from the front. */
    T& operator[](std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    const T& operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    T& Front() { return (*this)[0]; }
    const T& Front() const { return (*this)[0]; }
    T& Back() { return (*this)[size_ - 1]; }

    std::size_t Size() const { return size_; }
    bool Empty() const { return size_ == 0; }

  private:
    /** Called only when full, so every slot moves, front first. */
    void Grow()
    {
        std::vector<T> grown(slots_.empty() ? kInitialSlots
                                            : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i) {
            grown[i] = std::move((*this)[i]);
        }
        slots_ = std::move(grown);
        head_ = 0;
    }

    static constexpr std::size_t kInitialSlots = 64;

    std::vector<T> slots_;
    std::size_t head_ = 0;  ///< index of the front slot in slots_
    std::size_t size_ = 0;  ///< live slots
};

}  // namespace apo::support

#endif  // APOPHENIA_SUPPORT_SLOT_RING_H
