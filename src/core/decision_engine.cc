#include "core/decision_engine.h"

namespace apo::core {

DecisionEngine::DecisionEngine(const ApopheniaConfig& config,
                               const rt::RuntimeOptions& runtime_options,
                               MiningCache* mining_cache,
                               support::Executor* executor)
    : runtime_(runtime_options),
      decider_(runtime_, config, executor, mining_cache)
{
    // Barrier-driven by construction: the owner settles ingestion
    // positions (coordinated across nodes) before DecideStaged().
    decider_.LeaveIngestionToOwner();
    decider_.SetDecisionSink(&decisions_);
}

void
DecisionEngine::Buffer(const rt::TaskLaunchView& launch)
{
    if (next_ - base_ == ring_.size()) {
        Grow();
    }
    Slot& slot = ring_[next_ & (ring_.size() - 1)];
    launch.MaterializeInto(slot.launch);
    slot.token = launch.token;
    ++next_;
}

void
DecisionEngine::DecideStaged()
{
    for (; staged_ < next_; ++staged_) {
        const Slot& slot = ring_[staged_ & (ring_.size() - 1)];
        decider_.ExecuteTask(
            rt::TaskLaunchView::Of(slot.launch, slot.token));
    }
}

void
DecisionEngine::FlushDecider()
{
    decider_.Flush();
}

void
DecisionEngine::Retire()
{
    // Every kTask event forwarded exactly one staged launch, in
    // stream order, so the decided prefix advances by their count.
    for (const Decision& d : decisions_) {
        if (d.kind == Decision::Kind::kTask) {
            ++base_;
        }
    }
    decisions_.clear();
}

void
DecisionEngine::Grow()
{
    const std::size_t old_cap = ring_.size();
    const std::size_t new_cap = old_cap == 0 ? 64 : old_cap * 2;
    std::vector<Slot> grown(new_cap);
    for (std::uint64_t i = base_; i < next_; ++i) {
        grown[i & (new_cap - 1)] = std::move(ring_[i & (old_cap - 1)]);
    }
    ring_ = std::move(grown);
}

}  // namespace apo::core
