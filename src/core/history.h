/**
 * @file
 * Zero-copy task-history snapshots for the asynchronous miner.
 *
 * The finder's sliding history window is stored as a chain of
 * fixed-size, append-only token blocks. Launching a mining job no
 * longer copies an O(batchsize) slice of the history: the job takes a
 * HistorySnapshot — a list of refcounted views into the blocks — whose
 * construction costs O(slice / block_size) pointer bumps on the
 * application thread. Published block contents are immutable (tokens
 * are written once, before the snapshot is taken and published to the
 * worker via the executor's queue), so workers read them without
 * synchronization; blocks evicted from the window stay alive for as
 * long as any snapshot still references them.
 */
#ifndef APOPHENIA_CORE_HISTORY_H
#define APOPHENIA_CORE_HISTORY_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "runtime/task.h"

namespace apo::core {

/** One fixed-capacity, append-only run of tokens. */
class TokenBlock {
  public:
    explicit TokenBlock(std::size_t capacity)
        : tokens_(std::make_unique<rt::TokenHash[]>(capacity)),
          capacity_(capacity)
    {
    }

    std::size_t Size() const { return size_; }
    bool Full() const { return size_ == capacity_; }
    void Append(rt::TokenHash token) { tokens_[size_++] = token; }
    const rt::TokenHash* Data() const { return tokens_.get(); }

  private:
    std::unique_ptr<rt::TokenHash[]> tokens_;
    std::size_t size_ = 0;
    std::size_t capacity_;
};

/**
 * An immutable view of a contiguous history slice: shared references
 * to the blocks it spans plus the byte-exact [begin, end) range within
 * each. Cheap to construct and to destroy; safe to read from worker
 * threads for as long as the snapshot lives.
 */
class HistorySnapshot {
  public:
    /** One block's contribution to the slice. */
    struct Span {
        std::shared_ptr<const TokenBlock> block;  ///< keep-alive
        const rt::TokenHash* data = nullptr;
        std::size_t length = 0;
    };

    std::size_t Size() const { return size_; }
    bool Empty() const { return size_ == 0; }
    std::size_t NumSpans() const { return spans_.size(); }
    /** The block-aligned segments of the slice, in order (read-only;
     * lets consumers hash or compare the window without materializing
     * it — see core::MiningCache). */
    std::span<const Span> Spans() const { return spans_; }

    /** Release the block references (keeps span capacity for reuse). */
    void Clear()
    {
        spans_.clear();
        size_ = 0;
    }

    /** Materialize the slice into `out` (cleared first). Runs on the
     * worker thread, off the application's critical path. */
    void CopyTo(std::vector<rt::TokenHash>& out) const
    {
        out.clear();
        out.reserve(size_);
        for (const Span& span : spans_) {
            out.insert(out.end(), span.data, span.data + span.length);
        }
    }

  private:
    friend class HistoryRing;

    std::vector<Span> spans_;
    std::size_t size_ = 0;
};

/**
 * The sliding history window: the last `capacity` observed tokens,
 * chunked into shared blocks of `block_size` tokens.
 */
class HistoryRing {
  public:
    explicit HistoryRing(std::size_t capacity, std::size_t block_size);

    /** Record one token at the end of the window. */
    void Append(rt::TokenHash token);

    /** Tokens currently in the window (<= capacity). */
    std::size_t Size() const { return std::min(stored_, capacity_); }

    std::size_t BlockSize() const { return block_size_; }
    std::size_t NumBlocks() const { return blocks_.size(); }

    /**
     * Snapshot the last `length` tokens (length <= Size()) into `out`,
     * reusing out's span storage. O(length / block_size); copies no
     * tokens.
     */
    void SnapshotLastN(std::size_t length, HistorySnapshot& out) const;

  private:
    std::deque<std::shared_ptr<TokenBlock>> blocks_;
    std::size_t block_size_;
    std::size_t capacity_;
    std::size_t stored_ = 0;  ///< tokens held across blocks (>= Size())
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_HISTORY_H
