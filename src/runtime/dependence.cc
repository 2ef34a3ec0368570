#include "runtime/dependence.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace apo::rt {

namespace {

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

}  // namespace

FieldState&
DependenceAnalyzer::MutableState(RegionId region, FieldId field)
{
    const auto key = std::make_pair(region.value, field);
    auto it = states_.find(key);
    if (it == states_.end()) {
        it = states_.emplace(key, FieldState{}).first;
        if (forest_ != nullptr) {
            by_root_[{forest_->RootOf(region).value, field}].push_back(
                region);
        }
    }
    return it->second;
}

const FieldState*
DependenceAnalyzer::StateOf(RegionId region, FieldId field) const
{
    const auto it = states_.find({region.value, field});
    return it == states_.end() ? nullptr : &it->second;
}

namespace {

/**
 * Coalesce duplicate (region, field) requirements of one launch into
 * `merged` (cleared first; a reused scratch vector). A task holds one
 * effective privilege per field: identical privileges merge
 * trivially; any mixed combination (read+write, reduce+read,
 * reductions with different operators) escalates to read-write, which
 * serializes against everything — mirroring Legion's privilege
 * coalescing rules.
 */
void
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

}  // namespace

void
DependenceAnalyzer::AnalyzeInto(std::size_t index,
                                const TaskLaunchView& launch,
                                std::vector<Dependence>& out,
                                std::optional<std::size_t> external_only_after)
{
    EdgeCollector edges(index, external_only_after, out);
    CoalesceRequirements(launch.Requirements(), coalesce_scratch_);
    const std::vector<RegionRequirement>& coalesced = coalesce_scratch_;

    // Emit the ordering edges this requirement needs against one
    // coherence state (its own region's, or an aliasing region's).
    auto emit = [&edges](const FieldState& st,
                         const RegionRequirement& req) {
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
    };

    for (const RegionRequirement& req : coalesced) {
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
                    emit(states_.at({other.value, req.field}), req);
                }
            }
        }
        FieldState& st = MutableState(req.region, req.field);
        emit(st, req);

        // State transition on the requirement's own region only;
        // aliasing states keep their (now conservatively stale)
        // entries, which later operations still order against.
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
                // A different operator closes the open epoch; the
                // closed epoch becomes the barrier every member of
                // the new epoch serializes against. Swap (not move)
                // so both vectors keep their capacity.
                std::swap(st.prev_reducers, st.reducers);
                st.reducers.clear();
            }
            st.redop = req.redop;
            st.reducers.push_back(index);
            break;
        }
    }
    edges.Finish();
}

// ---------------------------------------------------------------------------
// WindowedTransitiveReducer

WindowedTransitiveReducer::WindowedTransitiveReducer(std::size_t window)
    : window_(window)
{
    if (window == 0) {
        throw std::invalid_argument(
            "WindowedTransitiveReducer: an unbounded (window == 0) "
            "reduction needs the whole log; use the retained "
            "TransitiveReduction");
    }
    ring_.resize(window_ + 1);
    mark_.assign(window_ + 1, 0);
}

std::size_t
WindowedTransitiveReducer::Reduce(std::size_t index,
                                  std::vector<Dependence>& edges)
{
    if (index != next_index_) {
        throw std::invalid_argument(
            "WindowedTransitiveReducer: operations must be fed "
            "consecutively from 0");
    }
    ++next_index_;

    // Mirror of rt::TransitiveReduction's per-operation step (graph.cc)
    // with the log reads redirected into the ring. A below-window
    // direct predecessor is kept as-is and never explored: every edge
    // out of it lands even further below the window, exactly as the
    // retained reduction's bound would skip them.
    std::size_t removed_here = 0;
    if (edges.size() >= 2) {
        std::sort(edges.begin(), edges.end());
        const std::size_t low_bound = index > window_ ? index - window_ : 0;
        ++version_;
        below_window_marks_.clear();
        kept_.clear();
        const std::size_t before = edges.size();
        for (std::size_t k = edges.size(); k-- > 0;) {
            const Dependence d = edges[k];
            const bool implied =
                d.from >= low_bound
                    ? mark_[d.from % ring_.size()] == version_
                    : std::find(below_window_marks_.begin(),
                                below_window_marks_.end(),
                                d.from) != below_window_marks_.end();
            if (implied) {
                continue;
            }
            kept_.push_back(d);
            if (d.from < low_bound) {
                below_window_marks_.push_back(d.from);
                continue;
            }
            frontier_.clear();
            frontier_.push_back(d.from);
            mark_[d.from % ring_.size()] = version_;
            while (!frontier_.empty()) {
                const std::size_t node = frontier_.back();
                frontier_.pop_back();
                for (const Dependence& e : SlotOf(node)) {
                    if (e.from < low_bound ||
                        mark_[e.from % ring_.size()] == version_) {
                        continue;
                    }
                    mark_[e.from % ring_.size()] = version_;
                    frontier_.push_back(e.from);
                }
            }
        }
        std::sort(kept_.begin(), kept_.end());
        edges.assign(kept_.begin(), kept_.end());
        removed_here = before - edges.size();
        removed_ += removed_here;
    }

    // Remember the reduced list for later operations' path searches
    // (the slot it displaces has fallen out of the window).
    std::vector<Dependence>& slot = SlotOf(index);
    slot.assign(edges.begin(), edges.end());
    return removed_here;
}

namespace {

void
SaveIndexVector(fault::CheckpointWriter& writer,
                const std::vector<std::size_t>& values)
{
    writer.U64(values.size());
    for (const std::size_t v : values) {
        writer.U64(v);
    }
}

void
LoadIndexVector(fault::CheckpointReader& reader,
                std::vector<std::size_t>& values)
{
    const std::uint64_t count = reader.Count();
    values.clear();
    values.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        values.push_back(reader.U64());
    }
}

}  // namespace

void
DependenceAnalyzer::SaveState(fault::CheckpointWriter& writer) const
{
    writer.BeginSection(fault::SectionTag::kDependenceAnalyzer);
    writer.U64(states_.size());
    for (const auto& [key, state] : states_) {
        writer.U64(key.first);
        writer.U64(key.second);
        writer.Bool(state.last_writer.has_value());
        writer.U64(state.last_writer.value_or(0));
        SaveIndexVector(writer, state.readers);
        SaveIndexVector(writer, state.reducers);
        writer.U64(state.redop);
        SaveIndexVector(writer, state.prev_reducers);
    }
    writer.U64(by_root_.size());
    for (const auto& [key, regions] : by_root_) {
        writer.U64(key.first);
        writer.U64(key.second);
        writer.U64(regions.size());
        for (const RegionId r : regions) {
            writer.U64(r.value);
        }
    }
    writer.EndSection();
}

void
DependenceAnalyzer::LoadState(fault::CheckpointReader& reader)
{
    reader.BeginSection(fault::SectionTag::kDependenceAnalyzer);
    states_.clear();
    const std::uint64_t state_count = reader.U64();
    for (std::uint64_t i = 0; i < state_count; ++i) {
        const std::uint64_t region = reader.U64();
        const FieldId field = static_cast<FieldId>(reader.U64());
        FieldState& state = states_[{region, field}];
        const bool has_writer = reader.Bool();
        const std::uint64_t writer_index = reader.U64();
        state.last_writer =
            has_writer ? std::optional<std::size_t>(writer_index)
                       : std::nullopt;
        LoadIndexVector(reader, state.readers);
        LoadIndexVector(reader, state.reducers);
        state.redop = static_cast<ReductionOpId>(reader.U64());
        LoadIndexVector(reader, state.prev_reducers);
    }
    by_root_.clear();
    const std::uint64_t root_count = reader.U64();
    for (std::uint64_t i = 0; i < root_count; ++i) {
        const std::uint64_t root = reader.U64();
        const FieldId field = static_cast<FieldId>(reader.U64());
        std::vector<RegionId>& regions = by_root_[{root, field}];
        const std::uint64_t region_count = reader.Count();
        regions.reserve(region_count);
        for (std::uint64_t j = 0; j < region_count; ++j) {
            regions.push_back(RegionId{reader.U64()});
        }
    }
    reader.EndSection();
}

}  // namespace apo::rt
