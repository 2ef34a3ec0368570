/**
 * @file
 * Content-addressed mining memo.
 *
 * Every trace finder probes one of these before it mines a window
 * (finder.h). A finder owns a private memo unless a cluster or service
 * passes it a shared one. Under control replication every node feeds
 * the *same* task stream to its own finder, so every node launches a
 * mining job over a byte-identical window at the same stream position;
 * a service's tenants often run the same kernels. A shared memo makes
 * that work happen once: a completed `AnalysisJob`'s candidate set is
 * memoized under a content address of the mined window, and any finder
 * about to mine an identical window adopts the published result in
 * place instead. A private memo serves one finder's own recurring
 * windows, such as a steady-state loop whose period divides the
 * sampling stride.
 *
 * Windows reach the memo namespace-relative: a finder folds its token
 * namespace out of each token as it enters the history (see
 * rt::FoldNamespace), so two tenants issuing the same kernel under
 * different namespaces present identical windows. The memo itself
 * never folds; it keeps a publisher's namespace only as an owner tag
 * for cross-tenant hit accounting.
 *
 * Correctness rests on two facts:
 *  - `MineSlice` is a pure function of (window, config), so adoption
 *    is bit-identical to local mining — decisions (and the stream
 *    digests) are the same whichever memo served a window;
 *  - hits are *detected*, never assumed: the probe key is the window's
 *    own rolling content hash plus its length, and before a result is
 *    adopted the stored window is compared token-for-token against
 *    the prober's — a (vanishingly rare) 64-bit hash collision
 *    degrades to mining locally, never to adopting a wrong result.
 *
 * Probing and verification walk the probe's zero-copy
 * `HistorySnapshot` block spans directly, so a hit never materializes
 * the window at all — the adopter skips both the O(slice) copy and
 * the mining.
 *
 * Resident memory is bounded: at most `max_windows` published entries
 * are retained (evicted per `kEvictionPolicy` — the one authoritative
 * statement of the policy; a re-probed evicted window is simply
 * re-mined), and EvictToResidentBytes bounds the bytes the same way
 * (a finder's private memo is held to a byte budget after every
 * publish). Adopted candidate sets are shared_ptr-owned so an
 * in-flight job survives the eviction of its entry. The memo
 * therefore composes with the streaming-retire log mode's
 * bounded-memory guarantee on unbounded streams.
 *
 * The memo is also a cross-thread rendezvous: when two jobs race to
 * the same window (two cluster nodes, or two workers of one finder),
 * the first becomes the miner and the second *blocks* until the result
 * is published (mining it twice would be no faster — the wait costs
 * at most one mining latency and keeps the every-window-mined-once
 * invariant at any thread count). A waiter never holds an in-progress
 * entry of its own, so the wait graph has no cycles.
 */
#ifndef APOPHENIA_CORE_MINING_CACHE_H
#define APOPHENIA_CORE_MINING_CACHE_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/finder.h"
#include "core/history.h"
#include "runtime/task.h"
#include "support/hash.h"

namespace apo::core {

/** See file comment. Thread-safe. */
class MiningCache {
  public:
    /**
     * The eviction policy, stated once (every other mention — here,
     * the cluster/service option comments, bench records — refers to
     * this constant): **publication-order FIFO**. Published entries
     * are dropped oldest-published-first when the retention bound is
     * exceeded; recency of *probes* never reorders the queue (unlike
     * the runtime TraceCache's LRU), because a steady replicated
     * stream re-probes windows in rough publication order anyway and
     * FIFO keeps eviction O(1) under the cache mutex. In-progress
     * (unpublished) entries are never evicted. Evictions surface as
     * Stats::evictions and, through the harness, as
     * `ExperimentResult::mining_cache_evictions`.
     */
    static constexpr std::string_view kEvictionPolicy =
        "publication-order FIFO";

    /** @param max_windows retained published entries (kEvictionPolicy
     * applies beyond it); 0 = unbounded. */
    explicit MiningCache(std::size_t max_windows = 1024)
        : max_windows_(max_windows)
    {
    }

    /** Content address of a window: the same incremental HashCombine
     * fold the stream digests use, over the window's tokens, plus the
     * length as a cheap first-stage check. */
    struct Key {
        std::uint64_t hash = 0;
        std::size_t length = 0;

        friend bool operator==(const Key&, const Key&) = default;
    };

    /** Walks the snapshot's block spans in place (no copy). */
    static Key KeyOf(const HistorySnapshot& snapshot);

    /** The outcome of a probe. */
    struct Claim {
        /** Non-null: a verified hit — adopt this candidate set (the
         * shared ownership survives eviction of the entry). */
        std::shared_ptr<const std::vector<CandidateTrace>> results;
        /** True: the caller is the window's miner and MUST follow with
         * Publish() (or Abandon() on failure) before probing any
         * other key. When both fields are empty the key collided with
         * a different window: mine locally, do not publish. */
        bool miner = false;
        /** On a hit: the publisher's owner tag. A hit whose owner
         * differs from the prober's is a cross-tenant hit — one
         * tenant adopted another's mining. */
        rt::TokenHash owner = 0;
    };

    /**
     * Probe the memo with the window's content. A published entry
     * whose stored window matches token for token returns its
     * candidate set (a hit). An in-progress entry blocks until the
     * miner publishes or abandons. An absent entry registers the
     * caller as its miner. `owner` is the prober's tag (its token
     * namespace), used only to attribute cross-tenant hits. The
     * token-for-token verification runs outside the memo's lock, so
     * probes of other windows never queue behind it.
     */
    Claim AcquireOrBegin(const Key& key, const HistorySnapshot& snapshot,
                         rt::TokenHash owner = 0);

    /** Publish the mining result for a key this caller began: stores
     * the window (for hit verification) and the candidates, and
     * returns the now-immutable shared candidate set so the miner
     * reads it in place like every adopter. May evict the oldest
     * entries. */
    std::shared_ptr<const std::vector<CandidateTrace>> Publish(
        const Key& key, std::span<const rt::TokenHash> window,
        std::vector<CandidateTrace> results, rt::TokenHash owner = 0);

    /** Give up on a key this caller began (mining threw): waiters are
     * released and the next prober becomes the miner. */
    void Abandon(const Key& key);

    /** Aggregate counters: every probe is a hit (result adopted,
     * possibly after waiting for the miner) or a miss (the caller
     * mined). `windows` counts mining runs that published — with no
     * eviction pressure and no collisions, misses == windows ⇔ each
     * distinct window was mined exactly once. `cross_namespace_hits`
     * counts hits whose publisher's owner tag differed from the
     * prober's (one tenant adopting another tenant's mining);
     * `evictions` counts entries dropped to the retention bound. */
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t windows = 0;
        std::uint64_t cross_namespace_hits = 0;
        std::uint64_t evictions = 0;
    };

    Stats Snapshot() const;

    /** Currently retained published + in-progress entries. */
    std::size_t Size() const;

    // -- Overload control (serving support) ---------------------------------

    /** Resident bytes of the retained entries (stored window tokens
     * plus candidate-set tokens, 8 bytes each), maintained
     * incrementally — the service health monitor's memory-pressure
     * input. */
    std::size_t ResidentBytes() const;

    /** Pressure eviction: drop the oldest-published entries (the same
     * FIFO order as kEvictionPolicy) until ResidentBytes() is at most
     * `target_bytes`. An evicted window that recurs is re-mined;
     * in-flight adopters keep their shared_ptr. Counted in
     * Stats::evictions. Returns the number of entries evicted. */
    std::size_t EvictToResidentBytes(std::size_t target_bytes);

    /** Watchdog escape hatch: erase every in-progress (unpublished)
     * entry and wake all waiters blocked on them, so a stuck miner
     * can never hang the rendezvous forever. Each released waiter
     * re-probes and becomes the window's miner itself; the abandoned
     * miner's eventual late Publish onto a key that was since
     * republished is tolerated and dropped (first publication wins).
     * Returns the number of entries abandoned. */
    std::size_t AbandonInProgress();

  private:
    struct Entry {
        bool ready = false;
        /** The mined window itself (Key::length tokens), for exact hit
         * verification; shared so a prober can compare it outside the
         * lock while an eviction drops the entry. */
        std::shared_ptr<const rt::TokenHash[]> window;
        std::shared_ptr<const std::vector<CandidateTrace>> results;
        /** Owner tag of the publisher (cross-tenant hit attribution). */
        rt::TokenHash owner = 0;
    };

    struct KeyHasher {
        std::size_t operator()(const Key& key) const
        {
            return static_cast<std::size_t>(
                support::HashCombine(key.hash, key.length));
        }
    };

    /** Bytes an entry contributes to resident_bytes_. */
    static std::size_t EntryBytes(const Key& key, const Entry& entry);

    mutable std::mutex mutex_;
    std::condition_variable published_;
    std::unordered_map<Key, Entry, KeyHasher> entries_;
    /** Publication order of retained entries (the FIFO eviction
     * queue); in-progress entries are not in it and are never
     * evicted. */
    std::deque<Key> retained_;
    std::size_t max_windows_;
    std::size_t resident_bytes_ = 0;
    /** Probe outcomes are counted after the unlocked verification. */
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> cross_namespace_hits_{0};
    std::uint64_t windows_published_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_MINING_CACHE_H
