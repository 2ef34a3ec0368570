/**
 * @file
 * The Apophenia front-end: automatic tracing for the task runtime.
 *
 * Apophenia sits between the application and the runtime (paper
 * figure 3 / algorithm 1) and implements the api::Frontend issue
 * surface. Applications call ExecuteTask() here instead of on the
 * runtime; Apophenia takes each launch's token (hashed once at the
 * API boundary and carried with the launch view), feeds the token
 * stream to the trace finder's asynchronous mining jobs, matches the
 * stream against the candidate trie, and forwards a — possibly
 * different — sequence of calls to the runtime: untraced tasks, plus
 * BeginTrace/tasks/EndTrace groups for fragments it decided to
 * memoize or replay.
 *
 * Design points carried over from the paper:
 *  - No speculation (section 5.2): a candidate's tasks are buffered
 *    until the whole candidate has arrived, then issued as a trace;
 *    tasks that can no longer be part of any candidate are forwarded
 *    immediately so the runtime pipeline stays busy. Forwarding is
 *    zero-copy: a launch is materialized off its caller-owned arena
 *    into the pending buffer only when some still-growing match could
 *    actually hold it. The pending buffer and the held matches are
 *    rings of recycled slots, so neither the untraced forward path
 *    nor buffering and replaying allocates in steady state.
 *  - Matching runs a run at a time: a match pointer advances through
 *    a stretch of the trie with no branch and no candidate end (a
 *    run, see trie.h) in one bulk compare against the recent
 *    stream, at the token where the run ends. In between it lags, and
 *    is caught up only where a decision needs it: the front queries
 *    (is any match alive, may the oldest held match fire, how much of
 *    the pending prefix can go) and a change of the trie's shape.
 *    Per-token work follows run ends, not live pointers, and every
 *    decision equals that of a per-token sweep.
 *  - Exploration/exploitation (section 4.3): completed candidates are
 *    scored by length × capped, decayed appearance count, with a bias
 *    toward already-replayed traces.
 *  - Deterministic ingestion (section 5.1): analysis results are
 *    ingested at task-stream positions only, in launch order. A lone
 *    front end ingests each job at the task that launched it, running
 *    the job there if no executor worker has started it, so its
 *    decisions are the same under any executor. The cluster
 *    front-end (sim/cluster.h) takes ingestion over
 *    (LeaveIngestionToOwner) and ingests at positions it coordinates
 *    across nodes.
 */
#ifndef APOPHENIA_CORE_APOPHENIA_H
#define APOPHENIA_CORE_APOPHENIA_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "api/frontend.h"
#include "core/config.h"
#include "core/finder.h"
#include "core/mining_cache.h"
#include "core/trie.h"
#include "runtime/runtime.h"
#include "runtime/task.h"
#include "support/executor.h"
#include "support/slot_ring.h"

namespace apo::core {

/**
 * One broadcastable decision of the decision engine: the exact
 * runtime-bound call an Apophenia front-end made for its stream,
 * tagged with enough context to re-apply it to any runtime that
 * received the byte-identical input stream (see
 * core/decision_engine.h). The encoding mirrors the issue surface:
 *
 *  - kTask outside a Begin/End pair — the launch at input index
 *    `value` was forwarded untraced (analyze / passthrough);
 *  - kBegin(recording=true) … kTask* … kEnd — the enclosed launches
 *    were recorded as trace `value`;
 *  - kBegin(recording=false) … kTask* … kEnd — the enclosed launches
 *    replayed trace `value`.
 *
 * POD, 16 bytes, held in a recycled vector: recording and applying
 * decisions allocates nothing in steady state.
 */
struct Decision {
    enum class Kind : std::uint8_t {
        kTask,   ///< forward the input launch at absolute index `value`
        kBegin,  ///< BeginTrace(value)
        kEnd,    ///< EndTrace(value)
    };
    Kind kind = Kind::kTask;
    bool recording = false;  ///< kBegin only: record (vs replay)
    std::uint64_t value = 0;
};

/** Front-end statistics. */
struct ApopheniaStats {
    std::uint64_t tasks_observed = 0;
    std::uint64_t tasks_forwarded_traced = 0;
    std::uint64_t tasks_forwarded_untraced = 0;
    /** Tasks issued on the degraded (untraced, unmined) path — a
     * subset of tasks_forwarded_untraced. See SetDegraded(). */
    std::uint64_t tasks_degraded = 0;
    std::uint64_t traces_fired = 0;     ///< Begin/End pairs issued
    std::uint64_t trace_records = 0;    ///< fires that recorded
    std::uint64_t trace_replays = 0;    ///< fires that replayed
    std::uint64_t jobs_ingested = 0;
    std::uint64_t candidates_ingested = 0;
    std::uint64_t forced_flushes = 0;   ///< pending-bound overflows
    /** Launches copied off the caller's arena into the pending
     * buffer (zero while no candidate match is in progress). */
    std::uint64_t launches_buffered = 0;
    std::size_t pending_high_water = 0;
};

/** See file comment. */
class Apophenia final : public api::Frontend {
  public:
    /**
     * @param runtime the runtime to forward calls into.
     * @param config  front-end tuning; config.enabled == false makes
     *                this class a transparent pass-through.
     * @param executor runs mining jobs; defaults to an internal
     *                inline executor. Behaviour-invariant: a job no
     *                worker has started by its ingestion runs on the
     *                ingesting thread.
     * @param mining_cache optional shared memo of mining results,
     *                content-addressed by the mined slice (see
     *                mining_cache.h); the cluster front-end shares one
     *                across all nodes so identical windows are mined
     *                once. Without one the finder keeps a private
     *                memo. Behaviour-invariant: shared or private, the
     *                issued stream is bit-identical.
     */
    Apophenia(rt::Runtime& runtime, ApopheniaConfig config,
              support::Executor* executor = nullptr,
              MiningCache* mining_cache = nullptr);

    // -- api::Frontend: regions (pass-through) ------------------------------

    std::string_view Name() const override { return "apophenia"; }
    rt::RegionId CreateRegion() override { return runtime_->CreateRegion(); }
    void DestroyRegion(rt::RegionId r) override
    {
        runtime_->DestroyRegion(r);
    }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        return runtime_->PartitionRegion(parent, count);
    }

    // -- Analysis-ingestion control (replication support) -------------------

    /** Stop ingesting on issue: from now on only IngestOldestJob()
     * ingests, at the stream positions the owner settles (the cluster
     * front-end's agreed counts). Without it each job is ingested at
     * the task that launched it. */
    void LeaveIngestionToOwner() { owner_ingests_ = true; }

    /** Launched-but-not-ingested mining jobs. */
    std::size_t PendingJobCount() const
    {
        return finder_.PendingJobCount();
    }

    /** True iff a job is pending and the oldest one has completed. */
    bool OldestJobDone() const { return finder_.OldestJobDone(); }

    /** Visit pending jobs with id >= `first_id`, oldest first. */
    void VisitPendingJobs(
        std::uint64_t first_id,
        const std::function<void(const PendingJobInfo&)>& visit) const
    {
        finder_.VisitPendingJobs(first_id, visit);
    }

    /** Ingest the oldest pending job's candidates into the trie,
     * running it here if no worker has started it and waiting for the
     * worker otherwise. The job must exist. */
    void IngestOldestJob();

    // -- Overload control (serving support) ---------------------------------

    /**
     * Graceful degradation switch: while degraded, ExecuteTask issues
     * straight to the runtime — no mining, no matching, no replay.
     * Entering degrade first resolves every in-progress match exactly
     * as DoFlush would (fire profitable held matches, forward the
     * rest), so no launch is stranded in the pending buffer. Degraded
     * tokens are kept out of the finder's history ring, its memo and
     * the trie entirely: re-enabling later is bit-safe — the
     * finder state equals that of a stream that simply never
     * contained the degraded window. Counted in
     * ApopheniaStats::tasks_degraded. No-op when already in the
     * requested state.
     */
    void SetDegraded(bool degraded);
    bool Degraded() const { return degraded_; }

    /** The finder's private mining memo, or nullptr when it shares a
     * cache: the service's memory watermark counts its
     * ResidentBytes() and halves it under pressure. */
    MiningCache* PrivateMemo() const { return finder_.PrivateMemo(); }

    // -- Decision broadcast (shared decision engine support) ----------------

    /** Attach a decision sink: every runtime-bound call this front-end
     * makes is additionally recorded as a Decision event, in issue
     * order, so a decision engine can fan the stream's decisions out
     * to replicated runtimes (core/decision_engine.h). The sink must
     * outlive the front-end or be detached with nullptr; the caller
     * owns clearing it between broadcast rounds. */
    void SetDecisionSink(std::vector<Decision>* sink)
    {
        decisions_ = sink;
    }

    // -- Introspection -------------------------------------------------------

    const ApopheniaStats& Stats() const { return stats_; }
    const FinderStats& Finder() const { return finder_.Stats(); }
    const CandidateTrie& Trie() const { return trie_; }
    /** Rolling digest of every ingested candidate (tokens +
     * occurrences, ingestion order): equal digests ⇔ the two
     * front-ends ingested identical candidate sets at identical
     * stream positions. */
    std::uint64_t CandidateDigest() const { return candidate_digest_; }
    rt::Runtime& Target() { return *runtime_; }
    const ApopheniaConfig& Config() const { return config_; }
    std::size_t PendingTasks() const { return pending_.Size(); }

  protected:
    // -- api::Frontend: the intercepted issue path --------------------------

    /** Issue a task through the front-end (paper algorithm 1,
     * ExecuteTask). */
    void DoExecuteTask(const rt::TaskLaunchView& launch) override;

    /** Apophenia inserts its own trace markers; the application's are
     * dropped — counted in the uniform FrontendStats by the NVI
     * base (annotations_ignored). */
    bool DoBeginTrace(rt::TraceId) override { return false; }
    bool DoEndTrace(rt::TraceId) override { return false; }

    /**
     * End-of-stream: fire any profitable completed candidate, then
     * forward all still-buffered tasks untraced. Called once when the
     * application finishes (or at a synchronization point).
     */
    void DoFlush() override;

  private:
    /**
     * An in-progress match, advanced lazily: its path is the stream
     * slice [start, validated_through), which ends at trie node
     * `node`. The stream past validated_through has not been checked
     * yet; the pointer is alive iff that tail continues its trie walk.
     * It is caught up (see CatchUp) at its event — where its run ends —
     * and whenever a front query needs to know whether it is alive.
     */
    struct MatchPointer {
        /** kNoNode once the pointer is found dead. */
        CandidateTrie::NodeId node = CandidateTrie::kNoNode;
        std::uint64_t start = 0;
        std::uint64_t validated_through = 0;
    };

    /** A queued catch-up of pointer `seq` (see pointers_); `next`
     * links the rest of its wheel slot, or the pool's free list. */
    struct Event {
        std::uint64_t seq = 0;
        std::uint32_t next = 0;
    };
    static constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};

    /** A fully matched candidate awaiting the replay decision. */
    struct CompletedMatch {
        CandidateStats* stats = nullptr;
        std::uint64_t start = 0;
        std::uint64_t end = 0;  ///< exclusive absolute index
    };

    void EmitTask(std::uint64_t index)
    {
        if (decisions_ != nullptr) {
            decisions_->push_back(
                Decision{Decision::Kind::kTask, false, index});
        }
    }
    void EmitMarker(Decision::Kind kind, rt::TraceId trace,
                    bool recording)
    {
        if (decisions_ != nullptr) {
            decisions_->push_back(Decision{kind, recording, trace});
        }
    }

    void AdvancePointers(rt::TokenHash token);
    void PushToken(rt::TokenHash token);
    void Arrive(MatchPointer& p);
    void Schedule(std::uint64_t seq, const MatchPointer& p);
    bool CatchUp(MatchPointer& p, std::uint64_t to) const;
    bool Alive(MatchPointer& p);
    bool AnyPointerAlive();
    void CatchUpAll();
    void ScheduleAll();
    void ErasePointersBelow(std::uint64_t start);
    void ClearPointers();
    void ConsiderCompleted();
    void ForwardFront();
    void MaybeFire();
    void Fire(const CompletedMatch& match);
    void FlushPrefixBelow(std::uint64_t keep_from);

    rt::Runtime* runtime_;
    ApopheniaConfig config_;
    support::InlineExecutor default_executor_;
    support::Executor* executor_;
    TraceFinder finder_;
    CandidateTrie trie_;
    TraceScorer scorer_;

    bool owner_ingests_ = false;  ///< see LeaveIngestionToOwner
    std::uint64_t counter_ = 0;  ///< tasks observed (absolute index + 1)
    /** Buffered launches, from absolute index pending_base_ on. Its
     * slots keep their requirement vectors' capacity, so buffering is
     * allocation-free once the ring has reached its high-water size. */
    support::SlotRing<rt::LaunchSlot> pending_;
    std::uint64_t pending_base_ = 0;  ///< absolute index of pending_[0]
    /** Match pointers in start order. Pointer `seq` is
     * pointers_[seq - pointers_seq_base_]; the ones before
     * pointers_head_ were erased (a fire or flush consumed their
     * start) and are compacted away in bulk. Dead pointers stay until
     * they reach the front or the trie next changes shape. */
    std::vector<MatchPointer> pointers_;
    std::size_t pointers_head_ = 0;
    std::uint64_t pointers_seq_base_ = 0;
    /** The event queue, a timing wheel: wheel_[at % size] heads the
     * list of events due at stream position `at`. A run is shorter
     * than CandidateTrie::kChunkSize, so every event lies less than
     * one turn ahead. Events of erased, renumbered or dead pointers go
     * stale and are skipped when their slot comes up. The lists are
     * threaded through one recycled pool. */
    std::vector<std::uint32_t> wheel_;
    std::vector<Event> event_pool_;
    std::uint32_t free_events_ = kNoEvent;  ///< head of the pool's free list
    /** The newest mining tokens of the stream, [window_base_,
     * window_base_ + size): what a lagging pointer is caught up
     * against. Holds the last one to two trie chunks' worth (see
     * PushToken); cleared with the pointers. */
    std::vector<rt::TokenHash> window_;
    std::uint64_t window_base_ = 0;
    /** Candidates completed by the current token, in start order: all
     * their counts are refreshed before any of them is weighed. */
    std::vector<CompletedMatch> completed_;
    /** A namespaced front-end's staging buffer for one ingested
     * candidate re-keyed into its token namespace (the finder mines
     * namespace-relative tokens). */
    std::vector<rt::TokenHash> rekeyed_;
    /** Completed, pairwise-disjoint matches awaiting replay, in
     * stream order. The front is fired once no still-growing match
     * could supersede it. */
    support::SlotRing<CompletedMatch> held_;
    rt::TraceId next_trace_id_ = 1;
    bool degraded_ = false;
    ApopheniaStats stats_;
    std::uint64_t candidate_digest_ = 0x5eed;
    std::vector<Decision>* decisions_ = nullptr;
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_APOPHENIA_H
