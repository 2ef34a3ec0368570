#include "runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace apo::rt {

Runtime::Runtime(RuntimeOptions options)
    : options_(options), log_(options.log_config)
{
    if (options_.nodes == 0) {
        options_.nodes = 1;
    }
    const double nodes = static_cast<double>(options_.nodes);
    scaled_analysis_us_ =
        options_.costs.analysis_us *
        (1.0 + options_.costs.analysis_scale_factor * std::log2(nodes));
    analyzer_.SetForest(&forest_);
}

void
Runtime::ExecuteTask(const TaskLaunchView& launch)
{
    switch (mode_) {
      case Mode::kIdle:
        ExecuteUntraced(launch);
        break;
      case Mode::kRecording:
        ExecuteRecording(launch);
        break;
      case Mode::kReplaying:
        ExecuteReplaying(launch);
        break;
    }
}

void
Runtime::ExecuteUntraced(const TaskLaunchView& launch)
{
    const std::size_t index = log_.size();
    dep_scratch_.clear();
    analyzer_.AnalyzeInto(index, launch, dep_scratch_);
    const double cost = ScaledAnalysisUs();
    stats_.tasks_analyzed += 1;
    stats_.total_analysis_us += cost;
    log_.Append(launch, AnalysisMode::kAnalyzed, kNoTrace, cost,
                /*replay_head=*/false, dep_scratch_);
    log_.SetRetireBound(RetireBound());
}

void
Runtime::ExecuteRecording(const TaskLaunchView& launch)
{
    if (!launch.traceable) {
        // An operation that cannot be memoized was issued inside a
        // trace — the composition failure mode of section 1.
        stats_.trace_mismatches += 1;
        if (options_.mismatch_policy == MismatchPolicy::kThrow) {
            throw TraceMismatchError(
                "untraceable operation issued inside a trace recording");
        }
        // Fallback: abandon the recording entirely.
        abandoned_trace_ = open_trace_;
        CloseTrace();
        recording_ = TraceTemplate{};
        ExecuteUntraced(launch);
        return;
    }
    const std::size_t index = log_.size();
    dep_scratch_.clear();
    if (building_) {
        analyzer_.AnalyzeForPlan(index, launch, dep_scratch_, std::nullopt);
    } else {
        analyzer_.AnalyzeInto(index, launch, dep_scratch_);
    }
    // Recording performs the full analysis plus memoization work.
    const double scale =
        options_.costs.memoize_us / options_.costs.analysis_us;
    const double cost = ScaledAnalysisUs() * scale;
    stats_.tasks_recorded += 1;
    stats_.total_analysis_us += cost;

    // Capture the launch token and its intra-fragment edges in the
    // template (CSR spans — no per-op edge vectors).
    recording_.AddOp(launch.token);
    for (const Dependence& d : dep_scratch_) {
        if (d.from >= trace_start_) {
            recording_.AddInternalEdge(Dependence{
                d.from - trace_start_, d.to - trace_start_, d.kind});
        }
    }
    recording_.SealOp();
    log_.Append(launch, AnalysisMode::kRecorded, open_trace_, cost,
                /*replay_head=*/false, dep_scratch_);
}

void
Runtime::ExecuteReplaying(const TaskLaunchView& launch)
{
    const TraceTemplate* t = replaying_;
    if (!launch.traceable || replay_position_ >= t->Length() ||
        t->tokens[replay_position_] != launch.token) {
        HandleMismatch(!launch.traceable
                           ? "untraceable operation issued inside a trace"
                           : replay_position_ >= t->Length()
                                 ? "trace replay saw more tasks than "
                                   "recorded"
                                 : "trace replay saw an unexpected task",
                       launch);
        return;
    }
    ReplayOp(launch, OperationLog::Requirements::kCopy);
}

void
Runtime::ReplayOp(const TaskLaunchView& launch,
                  OperationLog::Requirements requirements)
{
    const TraceTemplate* t = replaying_;
    const std::size_t index = log_.size();
    // Boundary edges come from the requirements that can see state
    // from before the fragment (the plan's steps here, or all of them
    // in a pass without a plan), analysed against the current
    // coherence state; intra-fragment edges come from the memoized
    // template's edge span for this position. The boundary edges all
    // point before trace_start_ and the rebased internal edges all
    // point at or after it, and both halves arrive sorted by source,
    // so the concatenation is already in canonical (sorted,
    // deduplicated) order. Both are written once, into the row's own
    // edge span.
    dep_scratch_.clear();
    if (plan_driven_) {
        const std::span<const ReplayStep> steps =
            t->plan.StepsAt(replay_position_, step_cursor_);
        if (!steps.empty()) {
            analyzer_.AnalyzePlanned(index, launch, steps, trace_start_,
                                     dep_scratch_);
        }
    } else if (building_) {
        analyzer_.AnalyzeForPlan(index, launch, dep_scratch_,
                                 /*external_only_after=*/trace_start_);
    } else {
        analyzer_.AnalyzeInto(index, launch, dep_scratch_,
                              /*external_only_after=*/trace_start_);
    }
    const std::span<const Dependence> internal =
        t->EdgesOf(replay_position_);
    double cost = options_.costs.replay_us;
    const bool replay_head = replay_position_ == 0;
    if (replay_head) {
        cost += options_.costs.replay_constant_us;
    }
    stats_.tasks_replayed += 1;
    stats_.total_analysis_us += cost;
    const std::span<Dependence> edges = log_.AppendRow(
        launch, AnalysisMode::kReplayed, open_trace_, cost, replay_head,
        dep_scratch_.size() + internal.size(), requirements);
    Dependence* out =
        std::copy(dep_scratch_.begin(), dep_scratch_.end(), edges.data());
    for (const Dependence& d : internal) {
        assert(d.to + trace_start_ == index);
        *out++ = Dependence{d.from + trace_start_, d.to + trace_start_,
                            d.kind};
    }
    assert(std::is_sorted(edges.begin(), edges.end()));
    ++replay_position_;
}

const TraceTemplate*
Runtime::PlannedTemplate(TraceId id, std::size_t count) const
{
    if (mode_ != Mode::kIdle) {
        return nullptr;  // BeginTrace reports the nesting
    }
    const TraceTemplate* t = cache_.Find(id);
    return t != nullptr && t->Length() == count &&
                   t->plan.stamp == PlanStampNow()
               ? t
               : nullptr;
}

void
Runtime::ApplyDeferredTransitions()
{
    // The fragment's rows stay resident until it completes (retire
    // bound = trace_start_), so their requirements are still readable.
    std::size_t cursor = 0;
    for (std::size_t i = trace_start_; i < log_.size(); ++i) {
        analyzer_.ApplyDeferred(
            i, log_[i].launch,
            replaying_->plan.StepsAt(i - trace_start_, cursor));
    }
    plan_driven_ = false;
}

void
Runtime::ForestChanging()
{
    // A plan holds for one forest: finish an open fragment under full
    // analysis, and build no plan in this pass.
    if (plan_driven_) {
        ApplyDeferredTransitions();
    }
    building_ = false;
}

void
Runtime::FinishPlanBuild(ReplayPlan& plan)
{
    plan = ReplayPlan{};
    if (building_ && PlanStampNow() == build_stamp_ &&
        analyzer_.FinishPlan(plan.steps, plan.summary)) {
        plan.stamp = build_stamp_;
    }
}

void
Runtime::CloseTrace()
{
    mode_ = Mode::kIdle;
    open_trace_ = kNoTrace;
    replaying_ = nullptr;
    plan_driven_ = false;
    building_ = false;
}

/**
 * Fallback-policy rewind: the fragment's already-replayed prefix
 * [trace_start_, log end) is converted to plain analyzed accounting —
 * the abandoned replay never completed, so a no-speculation runtime
 * would have analyzed those operations. Their edges are untouched: a
 * replayed operation's edges equal what fresh analysis produces for
 * the identical token stream (the differential tests pin this down),
 * so only mode, trace tag and charged cost change. The streaming log
 * keeps an open fragment resident (retire bound = trace_start_), so
 * the rows are still writable here.
 */
void
Runtime::RewindReplayedFragment()
{
    const double analyzed_cost = ScaledAnalysisUs();
    for (std::size_t i = trace_start_; i < log_.size(); ++i) {
        stats_.total_analysis_us +=
            analyzed_cost - log_[i].analysis_cost_us;
        stats_.tasks_replayed -= 1;
        stats_.tasks_analyzed += 1;
        stats_.tasks_rewound += 1;
        log_.RewriteAsAnalyzed(i, analyzed_cost);
    }
}

void
Runtime::HandleMismatch(const std::string& reason,
                        const TaskLaunchView& launch)
{
    stats_.trace_mismatches += 1;
    if (options_.mismatch_policy == MismatchPolicy::kThrow) {
        throw TraceMismatchError(reason + " (trace " +
                                 std::to_string(open_trace_) + ")");
    }
    // Fallback: abandon the replay — rewind the replayed prefix to
    // analyzed accounting; this and subsequent tasks in the fragment
    // run under full dependence analysis.
    if (plan_driven_) {
        ApplyDeferredTransitions();
    }
    RewindReplayedFragment();
    const TraceId failed = open_trace_;
    CloseTrace();
    ExecuteUntraced(launch);
    // Remain "idle" until the application's EndTrace; tolerate it.
    abandoned_trace_ = failed;
}

void
Runtime::BeginTrace(TraceId id)
{
    if (id == kNoTrace) {
        throw RuntimeUsageError("trace id 0 is reserved");
    }
    if (mode_ != Mode::kIdle) {
        throw RuntimeUsageError("traces cannot nest");
    }
    open_trace_ = id;
    trace_start_ = log_.size();
    const ReplayPlan::Stamp now = PlanStampNow();
    replaying_ = cache_.FindMutable(id);
    if (replaying_ != nullptr) {
        mode_ = Mode::kReplaying;
        replay_position_ = 0;
        step_cursor_ = 0;
        plan_driven_ = replaying_->plan.stamp == now;
        replaying_->plan.replays += plan_driven_ ? 1 : 0;
    } else {
        mode_ = Mode::kRecording;
        recording_ = TraceTemplate{};
        recording_.id = id;
        plan_driven_ = false;
    }
    building_ = !plan_driven_;
    if (building_) {
        build_stamp_ = now;
        analyzer_.BeginPlan(trace_start_);
    }
}

void
Runtime::EndTrace(TraceId id)
{
    if (mode_ == Mode::kIdle) {
        if (abandoned_trace_ == id && id != kNoTrace) {
            abandoned_trace_ = kNoTrace;  // fallback path: tolerated
            return;
        }
        throw RuntimeUsageError("EndTrace without an open trace");
    }
    if (open_trace_ != id) {
        throw RuntimeUsageError("EndTrace id does not match open trace");
    }
    if (mode_ == Mode::kRecording) {
        stats_.traces_recorded += 1;
        FinishPlanBuild(recording_.plan);
        cache_.Insert(std::move(recording_));
        recording_ = TraceTemplate{};
        // Bound the template cache: evict the least recently used
        // template (it will be re-recorded if it comes back).
        if (options_.max_trace_templates != 0 &&
            cache_.Size() > options_.max_trace_templates) {
            if (cache_.EvictLeastRecentlyUsed() != kNoTrace) {
                stats_.traces_evicted += 1;
            }
        }
    } else {
        TraceTemplate* t = replaying_;
        if (replay_position_ != t->Length()) {
            HandleMismatchAtEnd();
            return;
        }
        if (plan_driven_) {
            analyzer_.ApplySummary(t->plan.summary, trace_start_);
        } else {
            FinishPlanBuild(t->plan);
        }
        t->replay_count += 1;
        cache_.Touch(open_trace_);
        stats_.trace_replays += 1;
    }
    CloseTrace();
    log_.SetRetireBound(RetireBound());
}

void
Runtime::HandleMismatchAtEnd()
{
    stats_.trace_mismatches += 1;
    const TraceId failed = open_trace_;
    if (plan_driven_) {
        ApplyDeferredTransitions();
    }
    if (options_.mismatch_policy == MismatchPolicy::kThrow) {
        CloseTrace();
        throw TraceMismatchError(
            "trace replay ended before the recorded sequence completed "
            "(trace " +
            std::to_string(failed) + ")");
    }
    // Fallback: the short replay is abandoned; rewind its prefix to
    // analyzed accounting.
    RewindReplayedFragment();
    CloseTrace();
    log_.SetRetireBound(RetireBound());
}

void
Runtime::SaveState(fault::CheckpointWriter& writer) const
{
    if (mode_ != Mode::kIdle) {
        throw fault::CheckpointError(
            "Runtime::SaveState requires a quiescent runtime "
            "(no open trace)");
    }
    writer.BeginSection(fault::SectionTag::kRuntime);
    writer.U64(abandoned_trace_);
    writer.U64(trace_start_);
    writer.U64(stats_.tasks_analyzed);
    writer.U64(stats_.tasks_recorded);
    writer.U64(stats_.tasks_replayed);
    writer.U64(stats_.traces_recorded);
    writer.U64(stats_.trace_replays);
    writer.U64(stats_.trace_mismatches);
    writer.U64(stats_.traces_evicted);
    writer.U64(stats_.tasks_rewound);
    writer.F64(stats_.total_analysis_us);
    writer.EndSection();
    allocator_.SaveState(writer);
    forest_.SaveState(writer);
    analyzer_.SaveState(writer);
    cache_.SaveState(writer);
    log_.SaveState(writer);
}

void
Runtime::LoadState(fault::CheckpointReader& reader)
{
    if (!log_.empty() || mode_ != Mode::kIdle) {
        throw fault::CheckpointError(
            "Runtime::LoadState requires a fresh runtime");
    }
    reader.BeginSection(fault::SectionTag::kRuntime);
    abandoned_trace_ = reader.U64();
    trace_start_ = reader.U64();
    stats_.tasks_analyzed = reader.U64();
    stats_.tasks_recorded = reader.U64();
    stats_.tasks_replayed = reader.U64();
    stats_.traces_recorded = reader.U64();
    stats_.trace_replays = reader.U64();
    stats_.trace_mismatches = reader.U64();
    stats_.traces_evicted = reader.U64();
    stats_.tasks_rewound = reader.U64();
    stats_.total_analysis_us = reader.F64();
    reader.EndSection();
    allocator_.LoadState(reader);
    forest_.LoadState(reader);
    analyzer_.LoadState(reader);
    cache_.LoadState(reader);
    log_.LoadState(reader);
    CloseTrace();
    replay_position_ = 0;
}

}  // namespace apo::rt
