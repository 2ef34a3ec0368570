#include "core/decision_engine.h"

namespace apo::core {

DecisionEngine::DecisionEngine(const ApopheniaConfig& config,
                               const rt::RuntimeOptions& runtime_options,
                               support::Executor* executor)
    : runtime_(runtime_options), decider_(runtime_, config, executor)
{
    // Barrier-driven by construction: the owner settles ingestion
    // positions (coordinated across nodes) before DecideStaged().
    decider_.LeaveIngestionToOwner();
    decider_.SetDecisionSink(&decisions_);
}

void
DecisionEngine::Buffer(const rt::TaskLaunchView& launch)
{
    ring_.PushBack().Assign(launch);
}

void
DecisionEngine::DecideStaged()
{
    for (; staged_ < Staged(); ++staged_) {
        decider_.ExecuteTask(LaunchAt(staged_));
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
            ring_.PopFront();
            ++base_;
        }
    }
    decisions_.clear();
}

}  // namespace apo::core
