#include "runtime/dependence.h"

#include <algorithm>
#include <stdexcept>

#include "runtime/dependence_walk.h"

namespace apo::rt {

DependenceAnalyzer::Tracked&
DependenceAnalyzer::MutableState(RegionId region, FieldId field)
{
    const auto key = std::make_pair(region.value, field);
    auto it = states_.find(key);
    if (it == states_.end()) {
        it = states_.emplace(key, Tracked{}).first;
        it->second.ordinal = static_cast<std::uint32_t>(by_ordinal_.size());
        by_ordinal_.push_back(&it->second);
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
    return it == states_.end() ? nullptr : &it->second.state;
}

void
DependenceAnalyzer::AnalyzeInto(std::size_t index,
                                const TaskLaunchView& launch,
                                std::vector<Dependence>& out,
                                std::optional<std::size_t> external_only_after)
{
    Walk<Pass::kAnalyze>(index, launch, out, external_only_after, {});
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
    for (const auto& [key, tracked] : states_) {
        const FieldState& state = tracked.state;
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
        FieldState& state = states_[{region, field}].state;
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
    by_ordinal_.clear();
    for (auto& [key, tracked] : states_) {
        tracked.ordinal = static_cast<std::uint32_t>(by_ordinal_.size());
        by_ordinal_.push_back(&tracked);
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
