/**
 * @file
 * The walk over a launch's coalesced requirements that full dependence
 * analysis (dependence.cc) and replay plans (replay_plan.cc) share: one
 * body, so the edges and transitions of an analysed launch, a plan
 * build and a plan-driven replay cannot drift apart. Internal to
 * src/runtime. Each pass of the walk is instantiated in one of the two
 * files only, so the analysed path's code is compiled as if the plan
 * passes did not exist.
 */
#ifndef APOPHENIA_RUNTIME_DEPENDENCE_WALK_H
#define APOPHENIA_RUNTIME_DEPENDENCE_WALK_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "runtime/dependence.h"

namespace apo::rt {
namespace detail {

/** Collects edges for one launch with on-the-fly deduplication by
 * (source, kind); a later-added true dependence on the same source
 * upgrades an anti/output edge (the stronger ordering subsumes). The
 * edges land in a caller-owned (reused) vector, appended after
 * whatever it already holds. */
class EdgeCollector {
  public:
    EdgeCollector(std::size_t to, std::optional<std::size_t> external_after,
                  std::vector<Dependence>& out)
        : to_(to), external_after_(external_after), out_(out),
          base_(out.size())
    {
    }

    void Add(std::size_t from, DependenceKind kind)
    {
        assert(from <= to_);
        if (from == to_) {
            // Multiple requirements of one launch on the same field:
            // an operation never depends on itself.
            return;
        }
        if (external_after_ && from >= *external_after_) {
            return;  // internal to a replayed trace: memoized already
        }
        for (std::size_t k = base_; k < out_.size(); ++k) {
            if (out_[k].from == from) {
                if (kind == DependenceKind::kTrue) {
                    out_[k].kind = kind;
                }
                return;
            }
        }
        out_.push_back(Dependence{from, to_, kind});
    }

    void Finish()
    {
        std::sort(out_.begin() + static_cast<std::ptrdiff_t>(base_),
                  out_.end());
    }

  private:
    std::size_t to_;
    std::optional<std::size_t> external_after_;
    std::vector<Dependence>& out_;
    std::size_t base_;
};

/**
 * Coalesce duplicate (region, field) requirements of one launch into
 * `merged` (cleared first; a reused scratch vector). A task holds one
 * effective privilege per field: identical privileges merge
 * trivially; any mixed combination (read+write, reduce+read,
 * reductions with different operators) escalates to read-write, which
 * serializes against everything — mirroring Legion's privilege
 * coalescing rules.
 */
[[gnu::always_inline]] inline void
CoalesceRequirements(std::span<const RegionRequirement> reqs,
                     std::vector<RegionRequirement>& merged)
{
    merged.clear();
    for (const RegionRequirement& req : reqs) {
        bool combined = false;
        for (RegionRequirement& m : merged) {
            if (m.region != req.region || m.field != req.field) {
                continue;
            }
            if (m.privilege != req.privilege || m.redop != req.redop) {
                m.privilege = Privilege::kReadWrite;
                m.redop = 0;
            }
            combined = true;
            break;
        }
        if (!combined) {
            merged.push_back(req);
        }
    }
}

/** Emit the ordering edges a requirement needs against one coherence
 * state (its own region's, or an aliasing region's). */
[[gnu::always_inline]] inline void
EmitEdges(EdgeCollector& edges, const FieldState& st,
          const RegionRequirement& req)
{
    switch (req.privilege) {
      case Privilege::kReadOnly:
        if (st.last_writer) {
            edges.Add(*st.last_writer, DependenceKind::kTrue);
        }
        for (std::size_t r : st.reducers) {
            edges.Add(r, DependenceKind::kTrue);
        }
        break;
      case Privilege::kReadWrite:
      case Privilege::kWriteDiscard:
        if (st.last_writer) {
            edges.Add(*st.last_writer,
                      req.privilege == Privilege::kReadWrite
                          ? DependenceKind::kTrue
                          : DependenceKind::kOutput);
        }
        for (std::size_t r : st.readers) {
            edges.Add(r, DependenceKind::kAnti);
        }
        for (std::size_t r : st.reducers) {
            edges.Add(r, DependenceKind::kOutput);
        }
        break;
      case Privilege::kReduce:
        if (st.last_writer) {
            edges.Add(*st.last_writer, DependenceKind::kTrue);
        }
        for (std::size_t r : st.readers) {
            edges.Add(r, DependenceKind::kAnti);
        }
        if (!st.reducers.empty() && st.redop != req.redop) {
            // Reductions with a different operator do not commute.
            for (std::size_t r : st.reducers) {
                edges.Add(r, DependenceKind::kOutput);
            }
        }
        for (std::size_t r : st.prev_reducers) {
            edges.Add(r, DependenceKind::kOutput);
        }
        break;
    }
}

/** The state transition of one requirement on its own region's state.
 * Aliasing states keep their (now conservatively stale) entries, which
 * later operations still order against. */
[[gnu::always_inline]] inline void
ApplyTransition(FieldState& st, std::size_t index,
                const RegionRequirement& req)
{
    switch (req.privilege) {
      case Privilege::kReadOnly:
        st.readers.push_back(index);
        break;
      case Privilege::kReadWrite:
      case Privilege::kWriteDiscard:
        st.last_writer = index;
        st.readers.clear();
        st.reducers.clear();
        st.prev_reducers.clear();
        break;
      case Privilege::kReduce:
        if (!st.reducers.empty() && st.redop != req.redop) {
            // A different operator closes the open epoch; the closed
            // epoch becomes the barrier every member of the new epoch
            // serializes against. Swap (not move) so both vectors keep
            // their capacity.
            std::swap(st.prev_reducers, st.reducers);
            st.reducers.clear();
        }
        st.redop = req.redop;
        st.reducers.push_back(index);
        break;
    }
}

}  // namespace detail

template <DependenceAnalyzer::Pass kPass>
void
DependenceAnalyzer::Walk(std::size_t index, const TaskLaunchView& launch,
                         std::vector<Dependence>& out,
                         std::optional<std::size_t> external_only_after,
                         std::span<const ReplayStep> steps)
{
    detail::EdgeCollector edges(index, external_only_after, out);
    detail::CoalesceRequirements(launch.Requirements(), coalesce_scratch_);
    const std::vector<RegionRequirement>& coalesced = coalesce_scratch_;

    const std::size_t count =
        kPass == Pass::kPlanned ? steps.size() : coalesced.size();
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t c =
            kPass == Pass::kPlanned ? steps[k].requirement : k;
        const RegionRequirement& req = coalesced[c];
        // Plan classification: does this requirement read a state the
        // fragment has not written yet?
        bool reads_unwritten = false;
        // Edges against every aliasing region's state: the region
        // itself plus, in a forest, its ancestors and descendants
        // (Legion's parent/child interference).
        if (forest_ != nullptr) {
            const auto group_key = std::make_pair(
                forest_->RootOf(req.region).value, req.field);
            const auto git = by_root_.find(group_key);
            if (git != by_root_.end()) {
                for (RegionId other : git->second) {
                    if (other == req.region ||
                        !forest_->Aliases(other, req.region)) {
                        continue;
                    }
                    const Tracked& alias =
                        states_.at({other.value, req.field});
                    detail::EmitEdges(edges, alias.state, req);
                    if constexpr (kPass == Pass::kBuild) {
                        reads_unwritten |= !WrittenInPlan(alias);
                    }
                }
            }
        }
        Tracked& own = MutableState(req.region, req.field);
        detail::EmitEdges(edges, own.state, req);

        if constexpr (kPass == Pass::kBuild) {
            const bool own_written = WrittenInPlan(own);
            if (!own_written || reads_unwritten) {
                if (index - plan_start_ > ReplayStep::kMaxOffset ||
                    c > ReplayStep::kMaxRequirement) {
                    plan_overflow_ = true;
                } else {
                    plan_steps_.push_back(ReplayStep{
                        static_cast<std::uint32_t>(index - plan_start_),
                        static_cast<std::uint32_t>(c), !own_written});
                }
            }
            if (own_written && req.privilege == Privilege::kReduce) {
                plan_written_[own.written_slot].reduced = true;
            } else if (!own_written && IsWrite(req.privilege)) {
                own.written_slot =
                    static_cast<std::uint32_t>(plan_written_.size());
                plan_written_.push_back(WrittenState{own.ordinal, false});
            }
        } else if constexpr (kPass == Pass::kPlanned) {
            if (!steps[k].apply) {
                continue;  // the fragment's summary carries it
            }
        }
        detail::ApplyTransition(own.state, index, req);
    }
    edges.Finish();
}

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_DEPENDENCE_WALK_H
