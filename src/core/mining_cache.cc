#include "core/mining_cache.h"

#include <algorithm>
#include <cassert>

namespace apo::core {

namespace {

constexpr std::uint64_t kKeySeed = 0x9e3779b97f4a7c15ULL;

/** Token-for-token comparison of a snapshot against a stored window
 * of `length` tokens. */
bool
SpansMatch(const HistorySnapshot& snapshot, const rt::TokenHash* window,
           std::size_t length)
{
    if (snapshot.Size() != length) {
        return false;
    }
    for (const HistorySnapshot::Span& span : snapshot.Spans()) {
        if (!std::equal(span.data, span.data + span.length, window)) {
            return false;
        }
        window += span.length;
    }
    return true;
}

}  // namespace

MiningCache::Key
MiningCache::KeyOf(const HistorySnapshot& snapshot)
{
    // Token i of the window folds into lane i mod 4, so the four
    // HashCombine chains overlap instead of each round waiting on the
    // last. Lanes follow the window position, not the block spans, so
    // a window keys alike however its spans split it.
    std::uint64_t lanes[4] = {kKeySeed, kKeySeed, kKeySeed, kKeySeed};
    std::size_t i = 0;
    for (const HistorySnapshot::Span& span : snapshot.Spans()) {
        for (std::size_t k = 0; k < span.length; ++k, ++i) {
            lanes[i % 4] = support::HashCombine(lanes[i % 4], span.data[k]);
        }
    }
    const std::uint64_t h = support::HashCombine(
        support::HashCombine(support::HashCombine(lanes[0], lanes[1]),
                             lanes[2]),
        lanes[3]);
    return Key{h, snapshot.Size()};
}

MiningCache::Claim
MiningCache::AcquireOrBegin(const Key& key, const HistorySnapshot& snapshot,
                            rt::TokenHash owner)
{
    std::shared_ptr<const rt::TokenHash[]> window;
    Claim hit;
    {
        std::unique_lock lock(mutex_);
        for (;;) {
            auto [it, inserted] = entries_.try_emplace(key);
            if (inserted) {
                misses_.fetch_add(1, std::memory_order_relaxed);
                it->second.owner = owner;
                return Claim{nullptr, true, owner};  // caller mines
            }
            if (it->second.ready) {
                window = it->second.window;
                hit = Claim{it->second.results, false, it->second.owner};
                break;
            }
            // Another node is mining this very window: adopt its
            // result when it lands instead of paying the mining cost
            // twice.
            published_.wait(lock);
        }
    }
    // Detected, never assumed: adopt only a token-for-token identical
    // window. A 64-bit collision (different window, same key) degrades
    // to local mining without publishing — the entry's owner keeps the
    // slot. The stored window is immutable and shared, so the compare
    // needs no lock.
    if (!SpansMatch(snapshot, window.get(), key.length)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return Claim{nullptr, false, owner};
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit.owner != owner) {
        cross_namespace_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return hit;
}

std::shared_ptr<const std::vector<CandidateTrace>>
MiningCache::Publish(const Key& key, std::span<const rt::TokenHash> window,
                     std::vector<CandidateTrace> results,
                     rt::TokenHash owner)
{
    assert(window.size() == key.length);
    auto stored = std::make_shared<const std::vector<CandidateTrace>>(
        std::move(results));
    std::shared_ptr<rt::TokenHash[]> stored_window =
        std::make_shared_for_overwrite<rt::TokenHash[]>(window.size());
    std::copy(window.begin(), window.end(), stored_window.get());
    {
        std::lock_guard lock(mutex_);
        Entry& entry = entries_[key];
        // Only the key's miner publishes it, and nothing but its own
        // Abandon drops an in-progress entry.
        assert(!entry.ready);
        entry.window = std::move(stored_window);
        entry.results = stored;
        entry.ready = true;
        entry.owner = owner;
        ++windows_published_;
        resident_bytes_ += EntryBytes(key, entry);
        retained_.push_back(key);
        // Bounded retention: evict the oldest published entries. An
        // evicted window that recurs is simply re-mined; in-flight
        // adopters keep their shared_ptr alive independently.
        while (max_windows_ != 0 && retained_.size() > max_windows_) {
            auto oldest = entries_.find(retained_.front());
            if (oldest != entries_.end()) {
                resident_bytes_ -= EntryBytes(oldest->first, oldest->second);
                entries_.erase(oldest);
            }
            retained_.pop_front();
            ++evictions_;
        }
    }
    published_.notify_all();
    return stored;
}

void
MiningCache::Abandon(const Key& key)
{
    {
        std::lock_guard lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && !it->second.ready) {
            entries_.erase(it);
        }
    }
    published_.notify_all();
}

MiningCache::Stats
MiningCache::Snapshot() const
{
    std::lock_guard lock(mutex_);
    return Stats{hits_.load(std::memory_order_relaxed),
                 misses_.load(std::memory_order_relaxed),
                 static_cast<std::size_t>(windows_published_),
                 cross_namespace_hits_.load(std::memory_order_relaxed),
                 evictions_};
}

std::size_t
MiningCache::Size() const
{
    std::lock_guard lock(mutex_);
    return entries_.size();
}

std::size_t
MiningCache::EntryBytes(const Key& key, const Entry& entry)
{
    std::size_t tokens = key.length;
    if (entry.results != nullptr) {
        for (const CandidateTrace& candidate : *entry.results) {
            tokens += candidate.tokens.size();
        }
    }
    return tokens * sizeof(rt::TokenHash);
}

std::size_t
MiningCache::ResidentBytes() const
{
    std::lock_guard lock(mutex_);
    return resident_bytes_;
}

std::size_t
MiningCache::EvictToResidentBytes(std::size_t target_bytes)
{
    std::lock_guard lock(mutex_);
    std::size_t evicted = 0;
    while (resident_bytes_ > target_bytes && !retained_.empty()) {
        auto oldest = entries_.find(retained_.front());
        if (oldest != entries_.end()) {
            resident_bytes_ -= EntryBytes(oldest->first, oldest->second);
            entries_.erase(oldest);
        }
        retained_.pop_front();
        ++evictions_;
        ++evicted;
    }
    return evicted;
}

}  // namespace apo::core
