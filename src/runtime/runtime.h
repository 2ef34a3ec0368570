/**
 * @file
 * The mini task runtime facade ("mini-Legion").
 *
 * Applications (or Apophenia, sitting in front) issue work through
 * four calls: ExecuteTask, BeginTrace, EndTrace, and ExecuteFragment,
 * which issues a whole fragment (BeginTrace, each launch, EndTrace) in
 * one call. The runtime performs dynamic dependence analysis on every
 * launch — unless the launch is inside a known trace, in which case
 * the memoized analysis is validated and replayed. ExecuteFragment
 * validates the whole fragment against its template in one pass
 * first: when the template's plan is current and every token matches,
 * it replays the fragment without a per-launch check, and a streaming
 * log's rows borrow the caller's requirements, because the fragment
 * retires before the call returns. Otherwise it makes the three-call
 * sequence, so recording, plan rebuilds and mismatches behave exactly
 * as there. A replay analyses only the requirements its
 * template's replay plan lists (those that can see coherence state
 * from before the fragment; runtime/trace.h), appends the memoized
 * internal edges, and writes the fragment's coherence summary once at
 * EndTrace. A replay without a valid plan — its stamp no longer
 * matches the analyzer's states or the region forest — analyses in
 * full and rebuilds the plan. A region operation or a fallback
 * mismatch mid-replay first applies the transitions the plan deferred,
 * then continues under full analysis. Every operation is appended to
 * the columnar OperationLog (runtime/oplog.h) carrying its dependence
 * edges, analysis mode and charged cost; the discrete-event simulator
 * (src/sim) executes that log on a cluster model — wholesale after
 * the run in retained mode, or incrementally through the log's
 * streaming-retire consumer for streams larger than memory — and the
 * tests check its invariants directly.
 */
#ifndef APOPHENIA_RUNTIME_RUNTIME_H
#define APOPHENIA_RUNTIME_RUNTIME_H

#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "runtime/cost_model.h"
#include "runtime/dependence.h"
#include "runtime/errors.h"
#include "runtime/oplog.h"
#include "runtime/region.h"
#include "runtime/region_tree.h"
#include "runtime/task.h"
#include "runtime/trace.h"

namespace apo::rt {

/** What to do when a trace replay sees an unexpected task. */
enum class MismatchPolicy : std::uint8_t {
    kThrow,     ///< raise TraceMismatchError (Legion's strict mode)
    kFallback,  ///< abandon the replay; analyze the rest normally
};

/** Aggregate counters over a runtime's lifetime. */
struct RuntimeStats {
    std::size_t tasks_analyzed = 0;
    std::size_t tasks_recorded = 0;
    std::size_t tasks_replayed = 0;
    std::size_t traces_recorded = 0;
    std::size_t trace_replays = 0;
    std::size_t trace_mismatches = 0;
    std::size_t traces_evicted = 0;
    /** Replayed operations rewound to analyzed accounting when a
     * fallback-policy mismatch abandoned their fragment mid-replay. */
    std::size_t tasks_rewound = 0;
    double total_analysis_us = 0.0;

    std::size_t TotalTasks() const
    {
        return tasks_analyzed + tasks_recorded + tasks_replayed;
    }
    /** Fraction of tasks whose analysis was replayed from a trace. */
    double ReplayedFraction() const
    {
        const std::size_t total = TotalTasks();
        return total == 0
                   ? 0.0
                   : static_cast<double>(tasks_replayed) /
                         static_cast<double>(total);
    }
};

/** Runtime construction options. */
struct RuntimeOptions {
    CostModel costs;
    MismatchPolicy mismatch_policy = MismatchPolicy::kThrow;
    /** Number of nodes of the simulated machine this runtime instance
     * represents; scales the per-task analysis cost. */
    std::size_t nodes = 1;
    /** Maximum trace templates kept memoized (0 = unlimited). When
     * exceeded, the least recently replayed template is evicted; a
     * later BeginTrace of its id re-records. Bounds the memory that
     * long-running applications with many traces consume. */
    std::size_t max_trace_templates = 0;
    /** Operation-log block granularity (see OperationLog::Config). */
    OperationLog::Config log_config;
};

/**
 * The runtime. See file comment. Not thread-safe: Legion's dependence
 * analysis stage is a sequential pipeline stage per node, which is the
 * very property that makes it a bottleneck worth tracing.
 */
class Runtime {
  public:
    explicit Runtime(RuntimeOptions options = {});

    // -- Region management ------------------------------------------------

    /** Allocate a region (fresh or reused id — see RegionAllocator). */
    RegionId CreateRegion()
    {
        ForestChanging();
        const RegionId r = allocator_.Allocate();
        forest_.AddRoot(r);
        return r;
    }

    /** Free a region; its id becomes eligible for reuse. Partitioned
     * regions must be destroyed bottom-up. */
    void DestroyRegion(RegionId r)
    {
        ForestChanging();
        forest_.Remove(r);
        allocator_.Free(r);
    }

    /** Partition a region into `count` disjoint subregions. Tasks on
     * a subregion run independently of its siblings but serialize
     * against conflicting accesses to any ancestor or descendant. */
    std::vector<RegionId> PartitionRegion(RegionId parent,
                                          std::size_t count)
    {
        ForestChanging();
        return forest_.Partition(parent, count, allocator_);
    }

    const RegionTreeForest& Forest() const { return forest_; }

    // -- Task and trace interface (what Apophenia intercepts) -------------

    /**
     * Issue one task launch. The view is the primary entry point: the
     * token was hashed once at the API boundary and the requirements
     * stay in caller-owned storage until the operation log records
     * them into its arena.
     */
    void ExecuteTask(const TaskLaunchView& launch);

    /** Convenience for owned launches; hashes here. */
    void ExecuteTask(const TaskLaunch& launch)
    {
        ExecuteTask(TaskLaunchView::Of(launch));
    }

    /**
     * Begin a trace. An unknown id starts recording; a known id starts
     * a replay of the memoized analysis.
     */
    void BeginTrace(TraceId id);

    /** End the current trace (id must match the open trace). */
    void EndTrace(TraceId id);

    /**
     * Issue a whole fragment as trace `id`: the calls BeginTrace(id),
     * ExecuteTask(launch_at(k)) for k in [0, count), EndTrace(id),
     * with the same log rows, stats and errors. `launch_at(k)` returns
     * the k-th launch's TaskLaunchView; its storage must stay unchanged
     * until the call returns.
     *
     * The fast path takes a fragment whose template is known, whose
     * plan is current, and whose launches are all traceable with the
     * template's tokens, checked in one pass before any state changes.
     * Each launch then takes ExecuteTask's replay step without its
     * per-launch check, and a streaming log's rows point at the
     * launches' requirements instead of copying them (see
     * runtime/oplog.h): EndTrace retires them all before this returns.
     * Any other fragment takes the three-call sequence.
     */
    template <typename LaunchAt>
    void ExecuteFragment(TraceId id, std::size_t count,
                         LaunchAt&& launch_at);

    /** True if a template for `id` has been recorded. */
    bool HasTrace(TraceId id) const { return cache_.Contains(id); }

    // -- Streaming-retire control ------------------------------------------

    /**
     * Switch the operation log to streaming-retire mode (must be
     * called before the first launch): `consumer` receives every
     * completed operation exactly once, in log order, and the log
     * recycles its blocks so resident memory stays bounded regardless
     * of stream length. Operations of an open trace fragment are held
     * back until the fragment completes (a fallback-policy mismatch
     * may still rewind them).
     */
    void EnableLogStreaming(OperationLog::Consumer consumer)
    {
        log_.EnableStreaming(std::move(consumer));
    }

    /** Drain every completed operation to the streaming consumer (end
     * of stream; no-op in retained mode). */
    void DrainLogStream() { log_.SetRetireBound(RetireBound()); }

    /** Pre-stock the retained log's block free lists so the next
     * `ops` launches (with the given total requirement/edge counts)
     * append without allocating (see OperationLog::Reserve; streaming
     * mode reaches the same state by recycling). */
    void ReserveLog(std::size_t ops, std::size_t requirement_slots,
                    std::size_t dependence_slots)
    {
        log_.Reserve(ops, requirement_slots, dependence_slots);
    }

    // -- Introspection -----------------------------------------------------

    const OperationLog& Log() const { return log_; }
    const RuntimeStats& Stats() const { return stats_; }
    const TraceCache& Traces() const { return cache_; }
    const CostModel& Costs() const { return options_.costs; }
    std::size_t Nodes() const { return options_.nodes; }

    /** α adjusted for machine size (see CostModel::analysis_scale_factor);
     * computed once at construction. */
    double ScaledAnalysisUs() const { return scaled_analysis_us_; }

    /** True when no trace is open — the precondition of SaveState.
     * Periodic checkpointers poll this to defer a snapshot that would
     * land mid-trace to the next quiescent point. */
    bool Quiescent() const { return mode_ == Mode::kIdle; }

    /** Memory-pressure hook: evict least-recently-used trace
     * templates until the cache's resident bytes are at most
     * `target_bytes`. Only acts at a quiescent point (an open
     * fragment may reference the template being replayed) — mid-trace
     * calls return 0 and the caller retries at the next opportunity.
     * Evicted ids simply re-record at their next BeginTrace; counted
     * in RuntimeStats::traces_evicted. Returns templates evicted. */
    std::size_t PressureEvictTraces(std::size_t target_bytes)
    {
        if (!Quiescent()) {
            return 0;
        }
        std::size_t evicted = 0;
        while (cache_.ResidentBytes() > target_bytes &&
               cache_.EvictLeastRecentlyUsed() != kNoTrace) {
            ++evicted;
        }
        stats_.traces_evicted += evicted;
        return evicted;
    }

    // -- Checkpoint/restore ------------------------------------------------

    /**
     * Serialize the runtime's complete analysis state: allocator,
     * region forest, dependence coherence, trace cache, stats, trace
     * bookkeeping, and the operation-log append cursor. Only legal at
     * a quiescent point (no open trace); a restored runtime continues
     * the stream with bit-identical edges, modes and costs.
     * @throws fault::CheckpointError mid-trace.
     */
    void SaveState(fault::CheckpointWriter& writer) const;

    /** Restore onto a freshly constructed runtime with identical
     * RuntimeOptions (and, for streaming logs, the consumer already
     * attached via EnableLogStreaming).
     * @throws fault::CheckpointError on a used runtime or a malformed
     *   image. */
    void LoadState(fault::CheckpointReader& reader);

  private:
    enum class Mode { kIdle, kRecording, kReplaying };

    void ExecuteUntraced(const TaskLaunchView& launch);
    void ExecuteRecording(const TaskLaunchView& launch);
    void ExecuteReplaying(const TaskLaunchView& launch);
    /** The replay step of a launch already matched against the open
     * template's next position: analyse its plan steps, append its row
     * with the boundary and rebased internal edges written straight
     * into the log's edge arena. */
    void ReplayOp(const TaskLaunchView& launch,
                  OperationLog::Requirements requirements);
    /** The template ExecuteFragment may replay without per-launch
     * checks: known, `count` long and with a current plan, while no
     * trace is open; else nullptr. */
    const TraceTemplate* PlannedTemplate(TraceId id,
                                         std::size_t count) const;
    void HandleMismatch(const std::string& reason,
                        const TaskLaunchView& launch);
    void HandleMismatchAtEnd();
    void RewindReplayedFragment();
    void CloseTrace();
    std::size_t RetireBound() const
    {
        return mode_ == Mode::kIdle ? log_.size() : trace_start_;
    }

    // Replay plans (runtime/trace.h).
    ReplayPlan::Stamp PlanStampNow() const
    {
        return {analyzer_.TrackedFields(), forest_.MutationCount()};
    }
    /** Store the plan this pass built (or none) into `plan`. */
    void FinishPlanBuild(ReplayPlan& plan);
    /** Leave a plan-driven replay: apply the transitions its plan
     * deferred over the resident prefix, so full analysis can go on. */
    void ApplyDeferredTransitions();
    /** A region operation is about to change the forest. */
    void ForestChanging();

    RuntimeOptions options_;
    double scaled_analysis_us_ = 0.0;  ///< see ScaledAnalysisUs()
    RegionAllocator allocator_;
    RegionTreeForest forest_;
    DependenceAnalyzer analyzer_;
    TraceCache cache_;
    OperationLog log_;
    RuntimeStats stats_;

    /** Per-launch edge scratch: AnalyzeInto fills it, the log append
     * copies it into the edge arena. Capacity persists, so the
     * steady-state issue path allocates nothing. */
    std::vector<Dependence> dep_scratch_;

    Mode mode_ = Mode::kIdle;
    TraceId open_trace_ = kNoTrace;
    TraceId abandoned_trace_ = kNoTrace;  ///< fallback-mode bookkeeping
    std::size_t trace_start_ = 0;      ///< log index of the fragment start
    TraceTemplate recording_;          ///< template under construction
    TraceTemplate* replaying_ = nullptr;  ///< template being replayed
    std::size_t replay_position_ = 0;  ///< next template offset to match
    /** The open replay follows its template's plan. */
    bool plan_driven_ = false;
    /** The open pass analyses in full and builds a plan stamped
     * build_stamp_. */
    bool building_ = false;
    ReplayPlan::Stamp build_stamp_;
    std::size_t step_cursor_ = 0;  ///< next plan step of the replay
};

template <typename LaunchAt>
void
Runtime::ExecuteFragment(TraceId id, std::size_t count, LaunchAt&& launch_at)
{
    const TraceTemplate* t = PlannedTemplate(id, count);
    for (std::size_t k = 0; t != nullptr && k < count; ++k) {
        const TaskLaunchView launch = launch_at(k);
        if (!launch.traceable || launch.token != t->tokens[k]) {
            t = nullptr;
        }
    }
    BeginTrace(id);
    if (t == nullptr) {
        for (std::size_t k = 0; k < count; ++k) {
            ExecuteTask(launch_at(k));
        }
        EndTrace(id);
        return;
    }
    const OperationLog::Requirements requirements =
        log_.Streaming() ? OperationLog::Requirements::kBorrow
                         : OperationLog::Requirements::kCopy;
    for (std::size_t k = 0; k < count; ++k) {
        ReplayOp(launch_at(k), requirements);
    }
    EndTrace(id);
    // Borrowed rows must not outlive the caller's launch storage.
    assert(!log_.Streaming() || log_.RetiredCount() == log_.size());
}

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_RUNTIME_H
