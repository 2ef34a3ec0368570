/**
 * @file
 * The shared decision engine: mine/match once, drive N runtimes.
 *
 * In a control-replicated cluster every node observes the byte-
 * identical issued stream, so running a full `core::Apophenia` per
 * node repeats the same trie matching, candidate ingestion, and
 * replay decisions N times. The mining cache (core/mining_cache.h)
 * already deduplicated the *mining* half of that redundancy; this
 * class deduplicates the *decision* half: ONE Apophenia — the decider
 * — consumes the stream exactly once over a private decision runtime
 * (whose TraceCache mirrors every node's, since all of them receive
 * the same calls) and records each runtime-bound call it makes as a
 * POD `core::Decision` event. The owner fans those events out to the
 * N per-node runtimes, which apply them verbatim instead of
 * re-deriving them — per-node decision cost drops from O(stream) of
 * trie work to O(stream) of plain applies, and total decision cost
 * is O(1) in N.
 *
 * Soundness stays with the nodes: each keeps its incremental
 * `sim::StreamDigest` and the cluster compares it against the
 * decision runtime's digest at every batch barrier; a diverged node
 * is rebuilt from a checkpoint plus the retained decision tail, or
 * evicted if it diverges again (sim/cluster.h).
 *
 * Memory discipline matches the rest of the issue path: staged
 * launches live in a support::SlotRing of recycled launch slots,
 * decisions in a recycled vector — zero allocations per launch in
 * steady state.
 *
 * The flow: Buffer() every issued launch (cheap copy, no decisions),
 * DecideStaged() at each safe-horizon barrier (the decider runs, the
 * decision log fills), the owner applies Decisions() to each node via
 * LaunchAt(), then Retire() drops the decided ring prefix and clears
 * the log. FlushDecider() ends the stream.
 *
 * Mining runs on the executor the owner passes in. The decider never
 * ingests on its own (Apophenia::LeaveIngestionToOwner): the owner
 * calls Decider().IngestOldestJob() at each job's agreed stream
 * position, which runs the job there if no worker has started it and
 * waits for the worker otherwise. Decisions are therefore the same
 * under any executor; only where the mining time is spent changes.
 */
#ifndef APOPHENIA_CORE_DECISION_ENGINE_H
#define APOPHENIA_CORE_DECISION_ENGINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/apophenia.h"
#include "core/config.h"
#include "runtime/runtime.h"
#include "runtime/task.h"
#include "support/slot_ring.h"

namespace apo::core {

/** See file comment. */
class DecisionEngine {
  public:
    /**
     * @param config front-end tuning for the decider (must have
     *        config.enabled == true — a disabled decider would make
     *        every decision "passthrough" and the engine pointless).
     * @param runtime_options options for the private decision
     *        runtime; must equal the node runtimes' options so
     *        HasTrace/eviction decisions mirror theirs.
     * @param executor runs the decider's mining jobs (the cluster
     *        passes its worker team); nullptr mines inline. Not
     *        owned; must outlive the engine. Behaviour-invariant:
     *        jobs are ingested only where the owner settles it.
     */
    DecisionEngine(const ApopheniaConfig& config,
                   const rt::RuntimeOptions& runtime_options,
                   support::Executor* executor = nullptr);

    // -- Issue path ----------------------------------------------------------

    /** Stage one launch into the retention ring (recycled slot, no
     * decisions yet). Launches must be staged in stream order. */
    void Buffer(const rt::TaskLaunchView& launch);

    /** Run the decider over every staged-but-undecided launch; the
     * emitted decisions accumulate in Decisions(). Call at a batch
     * barrier, after ingestion positions are settled. */
    void DecideStaged();

    /** End-of-stream: flush the decider so it decides everything it
     * was still holding (the final decisions land in Decisions()). */
    void FlushDecider();

    // -- Broadcast surface ---------------------------------------------------

    /** Decision events emitted since the last Retire(), in issue
     * order. */
    std::span<const Decision> Decisions() const { return decisions_; }

    /** View of the retained launch at absolute stream index `index`
     * (must lie in [DecidedThrough(), Staged()) ∪ the decisions of
     * the current round). */
    rt::TaskLaunchView LaunchAt(std::uint64_t index) const
    {
        return ring_[index - base_].View();
    }

    /** Drop the ring prefix covered by the current decision round and
     * clear the decision log (call once every node has applied it).
     * Slot storage is recycled in place. */
    void Retire();

    // -- Introspection -------------------------------------------------------

    /** The decider front-end (ingestion control, stats, digests). */
    Apophenia& Decider() { return decider_; }
    const Apophenia& Decider() const { return decider_; }

    /** The private decision runtime (digest reference, region ops). */
    rt::Runtime& DecisionRuntime() { return runtime_; }
    const rt::Runtime& DecisionRuntime() const { return runtime_; }

    /** Absolute index one past the newest staged launch. */
    std::uint64_t Staged() const { return base_ + ring_.Size(); }
    /** Absolute index one past the retired (fully decided + applied)
     * prefix. */
    std::uint64_t DecidedThrough() const { return base_; }

  private:
    rt::Runtime runtime_;  ///< decision shard (TraceCache mirror)
    Apophenia decider_;
    std::vector<Decision> decisions_;
    /** The staged launches [base_, Staged()). */
    support::SlotRing<rt::LaunchSlot> ring_;
    std::uint64_t base_ = 0;    ///< absolute index of the ring head
    std::uint64_t staged_ = 0;  ///< next launch to feed the decider
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_DECISION_ENGINE_H
