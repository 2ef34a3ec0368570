#include "core/history.h"

#include <algorithm>

namespace apo::core {

HistoryRing::HistoryRing(std::size_t capacity, std::size_t block_size)
    : block_size_(std::max<std::size_t>(block_size, 1)),
      capacity_(std::max<std::size_t>(capacity, 1))
{
}

void
HistoryRing::Append(rt::TokenHash token)
{
    if (blocks_.empty() || blocks_.back()->Full()) {
        blocks_.push_back(std::make_shared<TokenBlock>(block_size_));
    }
    blocks_.back()->Append(token);
    ++stored_;
    // Evict whole blocks the window no longer needs. A snapshot
    // holding a reference keeps the block itself alive.
    while (stored_ - blocks_.front()->Size() >= capacity_) {
        stored_ -= blocks_.front()->Size();
        blocks_.pop_front();
    }
}

void
HistoryRing::SnapshotLastN(std::size_t length, HistorySnapshot& out) const
{
    out.Clear();
    if (length == 0) {
        return;
    }
    // Collect spans back-to-front, then put them in stream order.
    std::size_t remaining = length;
    for (auto it = blocks_.rbegin(); it != blocks_.rend() && remaining > 0;
         ++it) {
        const std::shared_ptr<TokenBlock>& block = *it;
        const std::size_t take = std::min(remaining, block->Size());
        out.spans_.push_back(HistorySnapshot::Span{
            block, block->Data() + (block->Size() - take), take});
        remaining -= take;
    }
    std::reverse(out.spans_.begin(), out.spans_.end());
    out.size_ = length;
}

}  // namespace apo::core
