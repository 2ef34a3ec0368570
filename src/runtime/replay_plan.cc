/**
 * @file
 * The dependence analyzer's half of trace replay plans (see
 * runtime/trace.h): classifying a fragment's requirements while a pass
 * analyses it in full, the written-state summary, the plan-driven
 * replay walk and the transitions it defers.
 */
#include <cassert>
#include <limits>

#include "runtime/dependence.h"
#include "runtime/dependence_walk.h"

namespace apo::rt {

void
DependenceAnalyzer::BeginPlan(std::size_t start)
{
    plan_start_ = start;
    plan_overflow_ = false;
    plan_steps_.clear();
    plan_written_.clear();
}

void
DependenceAnalyzer::AnalyzeForPlan(
    std::size_t index, const TaskLaunchView& launch,
    std::vector<Dependence>& out,
    std::optional<std::size_t> external_only_after)
{
    Walk<Pass::kBuild>(index, launch, out, external_only_after, {});
}

namespace {

// A summary entry's head word: the state's ordinal above these flags.
constexpr std::uint32_t kHasReaders = 1;
constexpr std::uint32_t kHasReducers = 2;
constexpr std::uint32_t kHasPrevReducers = 4;
constexpr std::uint32_t kHasRedop = 8;
constexpr unsigned kFlagBits = 4;

}  // namespace

bool
DependenceAnalyzer::FinishPlan(std::vector<ReplayStep>& steps,
                               std::vector<std::uint32_t>& summary) const
{
    if (plan_overflow_ || (by_ordinal_.size() >> (32 - kFlagBits)) != 0) {
        return false;
    }
    // Exact-size copies: a plan lives as long as its template.
    steps = std::vector<ReplayStep>(plan_steps_.begin(), plan_steps_.end());
    std::size_t words = 0;
    for (const WrittenState& written : plan_written_) {
        const FieldState& st = by_ordinal_[written.ordinal]->state;
        words += 6 + st.readers.size() + st.reducers.size() +
                 st.prev_reducers.size();
    }
    std::vector<std::uint32_t> out;
    out.reserve(words);
    // A written state holds only in-fragment indices: the write cleared
    // everything older, and later transitions add the fragment's own.
    auto relative = [this](std::size_t index) {
        assert(index >= plan_start_ &&
               index - plan_start_ <=
                   std::numeric_limits<std::uint32_t>::max());
        return static_cast<std::uint32_t>(index - plan_start_);
    };
    for (const WrittenState& written : plan_written_) {
        const FieldState& st = by_ordinal_[written.ordinal]->state;
        const std::uint32_t flags =
            (st.readers.empty() ? 0 : kHasReaders) |
            (st.reducers.empty() ? 0 : kHasReducers) |
            (st.prev_reducers.empty() ? 0 : kHasPrevReducers) |
            (written.reduced ? kHasRedop : 0);
        out.push_back(written.ordinal << kFlagBits | flags);
        out.push_back(relative(*st.last_writer));
        if ((flags & kHasRedop) != 0) {
            out.push_back(st.redop);
        }
        for (const auto* list : {&st.readers, &st.reducers,
                                 &st.prev_reducers}) {
            if (list->empty()) {
                continue;
            }
            out.push_back(static_cast<std::uint32_t>(list->size()));
            for (const std::size_t i : *list) {
                out.push_back(relative(i));
            }
        }
    }
    out.shrink_to_fit();
    summary = std::move(out);
    return true;
}

void
DependenceAnalyzer::AnalyzePlanned(std::size_t index,
                                   const TaskLaunchView& launch,
                                   std::span<const ReplayStep> steps,
                                   std::size_t fragment_start,
                                   std::vector<Dependence>& out)
{
    Walk<Pass::kPlanned>(index, launch, out, fragment_start, steps);
}

void
DependenceAnalyzer::ApplyDeferred(std::size_t index,
                                  const TaskLaunchView& launch,
                                  std::span<const ReplayStep> steps)
{
    detail::CoalesceRequirements(launch.Requirements(), coalesce_scratch_);
    auto step = steps.begin();
    for (std::size_t c = 0; c < coalesce_scratch_.size(); ++c) {
        bool live = false;
        if (step != steps.end() && step->requirement == c) {
            live = step->apply;
            ++step;
        }
        if (!live) {
            const RegionRequirement& req = coalesce_scratch_[c];
            detail::ApplyTransition(MutableState(req.region, req.field).state,
                            index, req);
        }
    }
}

void
DependenceAnalyzer::ApplySummary(std::span<const std::uint32_t> summary,
                                 std::size_t fragment_start)
{
    const std::uint32_t* at = summary.data();
    const std::uint32_t* const end = at + summary.size();
    auto refill = [&at, fragment_start](std::vector<std::size_t>& list,
                                        bool present) {
        list.clear();
        const std::uint32_t count = present ? *at++ : 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            list.push_back(fragment_start + *at++);
        }
    };
    while (at != end) {
        const std::uint32_t head = *at++;
        FieldState& st = by_ordinal_[head >> kFlagBits]->state;
        st.last_writer = fragment_start + *at++;
        if ((head & kHasRedop) != 0) {
            st.redop = *at++;
        }
        refill(st.readers, (head & kHasReaders) != 0);
        refill(st.reducers, (head & kHasReducers) != 0);
        refill(st.prev_reducers, (head & kHasPrevReducers) != 0);
    }
}

}  // namespace apo::rt
