/**
 * @file
 * Trace templates and the trace cache — the memoization side of the
 * runtime's tracing engine (Lee et al., "Dynamic tracing", which the
 * paper builds on).
 *
 * A template captures everything needed to replay a recorded program
 * fragment: the validation token sequence and the dependence edges
 * *internal* to the fragment, stored as one shared edge table with a
 * per-operation (offset, count) span (CSR layout) — replaying
 * position p copies exactly EdgesOf(p) instead of scanning the whole
 * edge list, and recording never copies per-op edge vectors.
 *
 * **The boundary rule.** An edge from before the fragment can only come
 * from a coherence state the fragment has not yet written: a write
 * (`kReadWrite`/`kWriteDiscard` on exactly that region and field)
 * leaves only in-fragment indices behind. Each template therefore
 * carries a derived ReplayPlan, built while a pass analyses the
 * fragment in full (its recording, or a replay that finds no valid
 * plan):
 *  - its *steps*: by fragment offset, the coalesced requirements that
 *    read some unwritten state, which a replay still analyses against
 *    the current coherence state — so a replayed fragment composes
 *    with whatever preceded it; every other requirement is skipped;
 *  - its *summary*: for every state the fragment writes, that state's
 *    content at the fragment's end relative to its start, written over
 *    the state once at EndTrace in place of the skipped transitions.
 *
 * A plan depends on which coherence states exist and on the region
 * forest, never on their content. It is stamped with the analyzer's
 * state count and the forest's mutation count as they stood when the
 * pass that built it began, and left unstamped if that pass changed
 * either; a replay uses it only while both still match. Plans are not
 * checkpointed: a restored template rebuilds its plan on its first
 * replay.
 */
#ifndef APOPHENIA_RUNTIME_TRACE_H
#define APOPHENIA_RUNTIME_TRACE_H

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "fault/checkpoint.h"
#include "runtime/dependence.h"
#include "runtime/task.h"

namespace apo::rt {

/** Identifier the application (or Apophenia) assigns to a trace. */
using TraceId = std::uint64_t;

/** Sentinel for "not inside any trace". */
inline constexpr TraceId kNoTrace = 0;

/** A template's replay plan (see the file comment). */
struct ReplayPlan {
    /** What the plan was built against: analyzer state count and
     * forest mutation count. */
    struct Stamp {
        std::size_t states = 0;
        std::uint64_t forest = 0;
        friend bool operator==(const Stamp&, const Stamp&) = default;
    };

    /** Requirements a replay still analyses, ascending by (offset,
     * requirement). */
    std::vector<ReplayStep> steps;
    /** Written-state summary (DependenceAnalyzer::FinishPlan's flat
     * encoding). */
    std::vector<std::uint32_t> summary;
    /** Unset: no usable plan (never built, or its pass changed the
     * states or the forest). */
    std::optional<Stamp> stamp;
    /** Replays that began under this plan (since it was built). */
    std::size_t replays = 0;

    std::size_t Bytes() const
    {
        return steps.size() * sizeof(ReplayStep) +
               summary.size() * sizeof(std::uint32_t);
    }

    /** The steps of fragment position `offset`; `cursor` walks the
     * positions in order (start it at 0). */
    std::span<const ReplayStep> StepsAt(std::size_t offset,
                                        std::size_t& cursor) const
    {
        const std::size_t begin = cursor;
        while (cursor < steps.size() && steps[cursor].offset == offset) {
            ++cursor;
        }
        return {steps.data() + begin, cursor - begin};
    }
};

/** A memoized program fragment. */
struct TraceTemplate {
    TraceId id = kNoTrace;
    /** Per-launch validation tokens, in issue order. */
    std::vector<TokenHash> tokens;
    /** Dependence edges between operations of the fragment, expressed
     * as offsets from the fragment start, grouped by target op. */
    std::vector<Dependence> internal_edges;
    /** CSR offsets: op p's internal edges are
     * internal_edges[edge_begin[p] .. edge_begin[p + 1]). */
    std::vector<std::uint32_t> edge_begin = {0};
    /** How many times this template has been replayed. */
    std::size_t replay_count = 0;
    /** Monotonic stamp of the last recording or replay (LRU;
     * maintained by TraceCache). */
    std::uint64_t last_used = 0;
    /** Derived replay plan; not checkpointed. */
    ReplayPlan plan;

    std::size_t Length() const { return tokens.size(); }

    /** The recorded internal edges into fragment position `pos`. */
    std::span<const Dependence> EdgesOf(std::size_t pos) const
    {
        return {internal_edges.data() + edge_begin[pos],
                internal_edges.data() + edge_begin[pos + 1]};
    }

    /** Record one op: its token, then its internal edges (sources
     * rebased to fragment offsets, ascending). */
    void AddOp(TokenHash token) { tokens.push_back(token); }
    void AddInternalEdge(const Dependence& edge)
    {
        internal_edges.push_back(edge);
    }
    void SealOp()
    {
        edge_begin.push_back(
            static_cast<std::uint32_t>(internal_edges.size()));
    }
};

/**
 * The set of recorded templates, keyed by trace id, with an LRU index
 * so eviction is O(log n) instead of a full-map scan.
 */
class TraceCache {
  public:
    bool Contains(TraceId id) const { return templates_.count(id) != 0; }

    const TraceTemplate* Find(TraceId id) const
    {
        const auto it = templates_.find(id);
        return it == templates_.end() ? nullptr : &it->second;
    }

    TraceTemplate* FindMutable(TraceId id)
    {
        const auto it = templates_.find(id);
        return it == templates_.end() ? nullptr : &it->second;
    }

    /** Insert (or replace) a template; it becomes most recently used. */
    void Insert(TraceTemplate t)
    {
        const TraceId id = t.id;
        auto it = templates_.find(id);
        if (it != templates_.end()) {
            by_last_used_.erase(it->second.last_used);
            it->second = std::move(t);
        } else {
            it = templates_.emplace(id, std::move(t)).first;
        }
        it->second.last_used = ++clock_;
        by_last_used_.emplace(it->second.last_used, id);
    }

    /** Mark a template as just used (recorded against or replayed).
     * Re-keys its LRU index node in place, so a replay allocates
     * nothing. */
    void Touch(TraceId id)
    {
        const auto it = templates_.find(id);
        if (it == templates_.end()) {
            return;
        }
        auto node = by_last_used_.extract(it->second.last_used);
        it->second.last_used = ++clock_;
        node.key() = it->second.last_used;
        by_last_used_.insert(std::move(node));
    }

    /** Evict the least-recently-used template; returns its id, or
     * kNoTrace if the cache is empty. O(log n). */
    TraceId EvictLeastRecentlyUsed()
    {
        if (by_last_used_.empty()) {
            return kNoTrace;
        }
        const auto oldest = by_last_used_.begin();
        const TraceId victim = oldest->second;
        by_last_used_.erase(oldest);
        templates_.erase(victim);
        return victim;
    }

    std::size_t Size() const { return templates_.size(); }

    /** Total tasks across all templates (memory accounting). */
    std::size_t TotalTemplateTasks() const
    {
        std::size_t total = 0;
        for (const auto& [id, t] : templates_) {
            total += t.Length();
        }
        return total;
    }

    /** Resident bytes across all templates (token, edge, CSR offset
     * and replay-plan storage) — the service health monitor's
     * memory-pressure input. On-demand sum; the template count is
     * bounded by RuntimeOptions::max_trace_templates. */
    std::size_t ResidentBytes() const
    {
        std::size_t bytes = 0;
        for (const auto& [id, t] : templates_) {
            bytes += t.tokens.size() * sizeof(TokenHash) +
                     t.internal_edges.size() * sizeof(Dependence) +
                     t.edge_begin.size() * sizeof(std::uint32_t) +
                     t.plan.Bytes();
        }
        return bytes;
    }

    /** Checkpoint hooks: every template (tokens, CSR edges, replay
     * count) plus the LRU clock and per-template stamps, so eviction
     * order after a restore matches the uninterrupted run exactly.
     * Replay plans are derived and left out. */
    void SaveState(fault::CheckpointWriter& writer) const
    {
        writer.BeginSection(fault::SectionTag::kTraceCache);
        writer.U64(clock_);
        writer.U64(templates_.size());
        for (const auto& [id, t] : templates_) {
            writer.U64(id);
            writer.VecU64(t.tokens);
            writer.U64(t.internal_edges.size());
            for (const Dependence& d : t.internal_edges) {
                writer.U64(d.from);
                writer.U64(d.to);
                writer.U64(static_cast<std::uint64_t>(d.kind));
            }
            writer.U64(t.edge_begin.size());
            for (const std::uint32_t offset : t.edge_begin) {
                writer.U64(offset);
            }
            writer.U64(t.replay_count);
            writer.U64(t.last_used);
        }
        writer.EndSection();
    }

    void LoadState(fault::CheckpointReader& reader)
    {
        reader.BeginSection(fault::SectionTag::kTraceCache);
        templates_.clear();
        by_last_used_.clear();
        clock_ = reader.U64();
        const std::uint64_t count = reader.U64();
        for (std::uint64_t i = 0; i < count; ++i) {
            TraceTemplate t;
            t.id = reader.U64();
            t.tokens = reader.VecU64();
            const std::uint64_t edges = reader.Count();
            t.internal_edges.reserve(edges);
            for (std::uint64_t j = 0; j < edges; ++j) {
                Dependence d;
                d.from = reader.U64();
                d.to = reader.U64();
                d.kind = static_cast<DependenceKind>(reader.U64());
                t.internal_edges.push_back(d);
            }
            const std::uint64_t begins = reader.Count();
            t.edge_begin.clear();
            t.edge_begin.reserve(begins);
            for (std::uint64_t j = 0; j < begins; ++j) {
                t.edge_begin.push_back(
                    static_cast<std::uint32_t>(reader.U64()));
            }
            t.replay_count = reader.U64();
            t.last_used = reader.U64();
            by_last_used_.emplace(t.last_used, t.id);
            templates_.emplace(t.id, std::move(t));
        }
        reader.EndSection();
    }

  private:
    std::map<TraceId, TraceTemplate> templates_;
    /** last_used stamp (unique, monotonic) -> trace id. */
    std::map<std::uint64_t, TraceId> by_last_used_;
    std::uint64_t clock_ = 0;
};

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_TRACE_H
