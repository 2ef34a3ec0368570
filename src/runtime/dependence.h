/**
 * @file
 * The dynamic dependence analysis engine of the mini task runtime.
 *
 * For every (region, field) pair the analyzer tracks the most recent
 * writer, the readers since that write, and the open reduction epoch.
 * Each incoming task launch is given dependence edges on the earlier
 * operations it conflicts with, which is exactly the work that tracing
 * memoizes (paper sections 1-2). The per-task cost of this analysis is
 * the α of the paper's cost model.
 *
 * Trace replay skips most of it. While a fragment is analysed in full
 * (its recording, or a replay without a usable plan), the analyzer
 * also classifies each coalesced requirement for the fragment's
 * replay plan (runtime/trace.h): only a requirement that can see a
 * state the fragment has not yet written (`kReadWrite`/`kWriteDiscard`
 * on exactly that region and field) can produce an edge into the
 * operations before the fragment, so only those become ReplayStep
 * entries. A plan-driven replay analyses just the steps and overwrites
 * each written state from the fragment's summary at its end.
 */
#ifndef APOPHENIA_RUNTIME_DEPENDENCE_H
#define APOPHENIA_RUNTIME_DEPENDENCE_H

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fault/checkpoint.h"
#include "runtime/region.h"
#include "runtime/region_tree.h"
#include "runtime/task.h"

namespace apo::rt {

/** Why one operation must wait for another. */
enum class DependenceKind : std::uint8_t {
    kTrue,    ///< read-after-write (data flows)
    kAnti,    ///< write-after-read
    kOutput,  ///< write-after-write (or reduce/write interactions)
};

/** A dependence edge: operation `to` must wait for operation `from`. */
struct Dependence {
    std::size_t from = 0;
    std::size_t to = 0;
    DependenceKind kind = DependenceKind::kTrue;

    friend bool operator==(const Dependence&, const Dependence&) = default;
    friend auto operator<=>(const Dependence&, const Dependence&) = default;
};

/** An edge span into a shared arena (the operation log's edge column,
 * a trace template's internal-edge table), element-comparable so
 * consumers that used to compare owned vectors keep working. */
struct DependenceSpan : std::span<const Dependence> {
    using std::span<const Dependence>::span;
    DependenceSpan(std::span<const Dependence> s)
        : std::span<const Dependence>(s)
    {
    }

    friend bool operator==(const DependenceSpan& a, const DependenceSpan& b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    friend bool operator==(const DependenceSpan& a,
                           const std::vector<Dependence>& b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    friend bool operator==(const std::vector<Dependence>& a,
                           const DependenceSpan& b)
    {
        return b == a;
    }
};

/**
 * Per-(region, field) coherence state.
 *
 * The model: a write serializes against everything and clears the
 * state; a read depends on the last writer and any open reducers;
 * reductions with the same operator commute with each other but
 * serialize against readers and writers; a reduction with a different
 * operator closes the previous reduction epoch.
 */
struct FieldState {
    std::optional<std::size_t> last_writer;
    std::vector<std::size_t> readers;   ///< reads since the last write
    std::vector<std::size_t> reducers;  ///< open reduction epoch
    ReductionOpId redop = 0;            ///< operator of the open epoch
    /** The previous (closed) reduction epoch. Every member of the open
     * epoch must serialize against these; one level suffices because
     * epoch members carry the ordering transitively. */
    std::vector<std::size_t> prev_reducers;
};

/**
 * One requirement a plan-driven trace replay still analyses: the
 * `requirement`-th coalesced requirement of the operation at fragment
 * position `offset`. It is analysed because some state it reads (its
 * own, or an aliasing one) has not been written earlier in the
 * fragment, so it may see operations from before the fragment. Its
 * own state's transition is applied live iff `apply`: a state the
 * fragment already wrote is left to the fragment's summary. One word
 * per step; a fragment whose steps do not fit gets no plan.
 */
struct ReplayStep {
    static constexpr std::size_t kMaxOffset = (std::size_t{1} << 22) - 1;
    static constexpr std::size_t kMaxRequirement = (std::size_t{1} << 9) - 1;

    std::uint32_t offset : 22;
    std::uint32_t requirement : 9;
    std::uint32_t apply : 1;
};

/**
 * The dependence analyzer. Feed it launches in program order via
 * Analyze(); it returns the dependence edges for each launch and
 * updates its coherence state.
 */
class DependenceAnalyzer {
  public:
    DependenceAnalyzer() = default;
    // by_ordinal_ points into states_: a copy would alias the source.
    DependenceAnalyzer(const DependenceAnalyzer&) = delete;
    DependenceAnalyzer& operator=(const DependenceAnalyzer&) = delete;
    DependenceAnalyzer(DependenceAnalyzer&&) = default;
    DependenceAnalyzer& operator=(DependenceAnalyzer&&) = default;

    /** Attach the region forest. When set, requirements on a region
     * also serialize against the coherence state of every *aliasing*
     * region (ancestors and descendants in the tree) — the parent/
     * child interference of Legion's region model. Null keeps the
     * flat, forest-free behaviour. */
    void SetForest(const RegionTreeForest* forest) { forest_ = forest; }

    /**
     * Analyze the launch as operation `index` (indices must be given
     * in strictly increasing order), appending the deduplicated edges
     * — sorted by source index — to `out`. The caller owns (and
     * typically reuses) `out`, so the steady-state analysis allocates
     * nothing.
     *
     * @param external_only_after if set, only edges whose source is
     *   *before* this operation index are emitted. A trace replay
     *   without a usable plan uses this to regenerate just the
     *   boundary (pre-trace) edges while taking intra-trace edges from
     *   the memoized template. A plan-driven replay calls
     *   AnalyzePlanned instead, which walks only the requirements that
     *   can produce such edges; neither the plan nor its
     *   classification touches this path.
     */
    void AnalyzeInto(
        std::size_t index, const TaskLaunchView& launch,
        std::vector<Dependence>& out,
        std::optional<std::size_t> external_only_after = std::nullopt);

    // -- Replay plans (see the file comment and runtime/trace.h) ----------

    /** Start classifying a fragment that begins at operation `start`
     * for its replay plan. */
    void BeginPlan(std::size_t start);

    /** AnalyzeInto (same edges, same transitions) that also classifies
     * the launch's coalesced requirements for the plan begun by
     * BeginPlan. */
    void AnalyzeForPlan(std::size_t index, const TaskLaunchView& launch,
                        std::vector<Dependence>& out,
                        std::optional<std::size_t> external_only_after);

    /**
     * Finish the plan: its steps, and the summary of every state the
     * fragment wrote — one flat run of words per state: its ordinal
     * shifted above four flags (which lists are non-empty, whether a
     * redop follows), its last writer, [its redop,] then each non-empty
     * list of readers, reducers and previous reducers as a count and
     * its indices. Operation indices are relative to the fragment
     * start. The redop is stored only when a reduction followed the
     * state's first write in the fragment; otherwise the live first
     * write already left it as full analysis would. Valid only if no
     * state was created since BeginPlan. @return false if the fragment
     * outgrew the compact encoding (no plan).
     */
    bool FinishPlan(std::vector<ReplayStep>& steps,
                    std::vector<std::uint32_t>& summary) const;

    /** Plan-driven replay of operation `index`: analyse only `steps`
     * (its steps, ascending), emitting just the edges into operations
     * before `fragment_start`, and apply the live transitions. */
    void AnalyzePlanned(std::size_t index, const TaskLaunchView& launch,
                        std::span<const ReplayStep> steps,
                        std::size_t fragment_start,
                        std::vector<Dependence>& out);

    /** Apply the transitions a plan-driven replay deferred for
     * operation `index` (every coalesced requirement without a live
     * step) — to resume full analysis mid-fragment. */
    void ApplyDeferred(std::size_t index, const TaskLaunchView& launch,
                       std::span<const ReplayStep> steps);

    /** Overwrite the states a fragment wrote with its summary
     * (FinishPlan's encoding), rebased at `fragment_start`. */
    void ApplySummary(std::span<const std::uint32_t> summary,
                      std::size_t fragment_start);

    /** Read-only view of a field's coherence state (testing). */
    const FieldState* StateOf(RegionId region, FieldId field) const;

    /** Number of distinct (region, field) pairs ever touched. States
     * are never erased, so an unchanged count means an unchanged set
     * (a replay plan's validity stamp relies on this). */
    std::size_t TrackedFields() const { return states_.size(); }

    /** Checkpoint hooks: the full coherence state (field states plus
     * the alias index), with the absolute operation indices it holds —
     * the restored analyzer must emit bit-identical edges for the
     * continued stream. The forest pointer is reattached by the owner
     * (SetForest), not serialized. */
    void SaveState(fault::CheckpointWriter& writer) const;
    void LoadState(fault::CheckpointReader& reader);

  private:
    /** A coherence state plus what replay plans need to name and
     * classify it. Only `state` is coherence content (and checkpointed);
     * ordinals are renumbered on LoadState, which no plan survives. */
    struct Tracked {
        FieldState state;
        std::uint32_t ordinal = 0;  ///< index into by_ordinal_
        /** Where plan_written_ lists this state, if the fragment being
         * classified wrote it (see WrittenInPlan). */
        std::uint32_t written_slot = 0;
    };

    /** A state the fragment being classified has written. */
    struct WrittenState {
        std::uint32_t ordinal = 0;
        /** A reduction followed the write: the summary stores redop. */
        bool reduced = false;
    };
    bool WrittenInPlan(const Tracked& t) const
    {
        return t.written_slot < plan_written_.size() &&
               plan_written_[t.written_slot].ordinal == t.ordinal;
    }

    /** The three walks over a launch's coalesced requirements: full
     * analysis, full analysis plus plan classification, and a
     * plan-driven replay of selected requirements. One body, so the
     * edges and transitions cannot drift apart. */
    enum class Pass { kAnalyze, kBuild, kPlanned };
    template <Pass kPass>
    void Walk(std::size_t index, const TaskLaunchView& launch,
              std::vector<Dependence>& out,
              std::optional<std::size_t> external_only_after,
              std::span<const ReplayStep> steps);

    Tracked& MutableState(RegionId region, FieldId field);

    /** Scratch for per-launch privilege coalescing; reused so the
     * steady-state analysis allocates nothing. */
    std::vector<RegionRequirement> coalesce_scratch_;

    const RegionTreeForest* forest_ = nullptr;
    std::map<std::pair<std::uint64_t, FieldId>, Tracked> states_;
    /** Ordinal -> state (map nodes never move; states never erased). */
    std::vector<Tracked*> by_ordinal_;

    // Plan build scratch (one fragment at a time; traces never nest).
    std::size_t plan_start_ = 0;
    bool plan_overflow_ = false;
    std::vector<ReplayStep> plan_steps_;
    std::vector<WrittenState> plan_written_;  ///< in first-write order
    /** Alias index: (tree root, field) -> regions with live state. */
    std::map<std::pair<std::uint64_t, FieldId>, std::vector<RegionId>>
        by_root_;
};

/**
 * Streaming (windowed) transitive reduction of a dependence graph.
 *
 * The retained `rt::TransitiveReduction(log, window)` (graph.h) walks
 * the whole operation log, pruning each operation's edges that are
 * implied by paths through *already reduced* earlier edges, with the
 * path search bounded to the last `window` operations. This class is
 * the same algorithm turned inside out: feed it every operation's
 * edge list, in log order, and it reduces each list in place against
 * a ring buffer holding the reduced edges of the previous `window`
 * operations — nothing older is needed, because a path step from a
 * below-window operation necessarily lands even further below the
 * window and is excluded by the bound. The result is *identical*,
 * edge for edge, to running the retained reduction with the same
 * window over the finished log (the differential fuzz corpus pins
 * this down), but the resident state is O(window), so the reduction
 * composes with the streaming-retire log for streams far larger than
 * memory (`-lg:inline_transitive_reduction` + `sim::LogMode::
 * kStreaming`).
 *
 * Steady state performs no allocations: ring slots, mark stamps and
 * scratch vectors are recycled across operations.
 */
class WindowedTransitiveReducer {
  public:
    /** @param window the path-search bound; must be nonzero (an
     *  unbounded reduction needs the retained log).
     *  @throws std::invalid_argument on window == 0. */
    explicit WindowedTransitiveReducer(std::size_t window);

    /**
     * Reduce the edges of operation `index` in place (the vector is
     * sorted, pruned and shrunk) and remember the reduced list for
     * later operations' path searches. Operations must be fed
     * consecutively from 0.
     * @return the number of edges removed from this operation.
     */
    std::size_t Reduce(std::size_t index, std::vector<Dependence>& edges);

    /** Total edges removed so far. */
    std::size_t RemovedEdges() const { return removed_; }

    /** The path-search bound this reducer was built with. */
    std::size_t Window() const { return window_; }

  private:
    /** Ring slot of an operation's reduced edges. The ring holds
     * `window_ + 1` slots: the `window_` predecessors a reduction may
     * consult plus the operation being written. */
    std::vector<Dependence>& SlotOf(std::size_t index)
    {
        return ring_[index % ring_.size()];
    }

    std::size_t window_;
    std::size_t next_index_ = 0;
    std::size_t removed_ = 0;
    /** Reduced edges of operations [next_index_ - window_,
     * next_index_), ring-addressed by operation index. */
    std::vector<std::vector<Dependence>> ring_;
    /** Version-stamped reachability marks, ring-addressed like
     * `ring_` (distinct in-window operations never collide). */
    std::vector<std::size_t> mark_;
    std::size_t version_ = 0;
    /** Direct predecessors below the window marked this operation
     * (they cannot use `mark_` — their slots alias in-window ops). */
    std::vector<std::size_t> below_window_marks_;
    std::vector<std::size_t> frontier_;  ///< DFS scratch
    std::vector<Dependence> kept_;       ///< per-op keep scratch
};

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_DEPENDENCE_H
