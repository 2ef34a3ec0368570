#include "probes.h"

#include <cstdio>
#include <stdexcept>

namespace apobench {

const char*
LayerName(Layer layer)
{
    switch (layer) {
      case Layer::kApps:
        return "apps";
      case Layer::kCore:
        return "core";
      case Layer::kFinder:
        return "core.finder";
      case Layer::kRuntime:
        return "runtime";
      case Layer::kSim:
        return "sim";
      case Layer::kCluster:
        return "sim.cluster";
      case Layer::kProbe:
        return "probe";
      case Layer::kCount:
        break;
    }
    return "?";
}

// -- SpanRecorder -------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity_);
    open_.reserve(64);
}

void
SpanRecorder::Open(Layer layer, const char* name)
{
    OpenSpan open;
    open.layer = layer;
    if (spans_.size() < capacity_) {
        Span span;
        span.name = name;
        span.layer = layer;
        span.iteration = iteration_;
        span.parent = open_.empty() ? -1 : open_.back().index;
        open.index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(span);
    } else {
        ++overflow_;
    }
    open.start_ns = NowNs();
    open_.push_back(open);
}

void
SpanRecorder::Close()
{
    const std::int64_t end = NowNs();
    const OpenSpan open = open_.back();
    open_.pop_back();
    const std::int64_t duration = end - open.start_ns;
    totals_.self_ns[static_cast<std::size_t>(open.layer)] +=
        duration - open.child_ns;
    if (open_.empty()) {
        totals_.root_ns += duration;
    } else {
        open_.back().child_ns += duration;
    }
    if (open.index >= 0) {
        Span& span = spans_[static_cast<std::size_t>(open.index)];
        span.start_ns = open.start_ns - origin_ns_;
        span.end_ns = end - origin_ns_;
    }
}

void
SpanRecorder::AddChildTime(Layer layer, std::int64_t ns)
{
    totals_.self_ns[static_cast<std::size_t>(layer)] += ns;
    if (open_.empty()) {
        totals_.root_ns += ns;
    } else {
        open_.back().child_ns += ns;
    }
}

bool
SpanRecorder::WriteChromeTrace(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"iteration\": %llu}}%s\n",
                     span.name, LayerName(span.layer),
                     static_cast<double>(span.start_ns) / 1000.0,
                     static_cast<double>(span.end_ns - span.start_ns) /
                         1000.0,
                     i, span.parent,
                     static_cast<unsigned long long>(span.iteration),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out,
                 "], \"otherData\": {\"spans_recorded\": %zu, "
                 "\"spans_dropped\": %llu}}\n",
                 spans_.size(), static_cast<unsigned long long>(overflow_));
    return std::fclose(out) == 0;
}

// -- ShadowRuntime ------------------------------------------------------------

ShadowRuntime::ShadowRuntime(const rt::RuntimeOptions& options,
                             bool decisions)
    : runtime_(options), decision_mode_(decisions)
{
    runtime_.EnableLogStreaming(
        [this](const rt::OpView& op) { digest_.Consume(op); });
}

void
ShadowRuntime::Charge(Path path, std::int64_t ns, std::uint64_t tasks)
{
    ns_[static_cast<std::size_t>(path)] += ns;
    tasks_[static_cast<std::size_t>(path)] += tasks;
}

void
ShadowRuntime::AfterExecute(const rt::TaskLaunchView& launch)
{
    const std::uint64_t index = seen_++;
    if (!decision_mode_) {
        const std::int64_t t0 = NowNs();
        runtime_.ExecuteTask(launch);
        Charge(Path::kAnalyze, NowNs() - t0, 1);
        applied_ = seen_;
        return;
    }
    Apply(&launch);
    if (applied_ <= index) {
        // The front end is still holding this launch: keep a copy
        // until its decision arrives.
        Staged staged;
        if (!pool_.empty()) {
            staged = std::move(pool_.back());
            pool_.pop_back();
        }
        launch.MaterializeInto(staged.launch);
        staged.token = launch.token;
        staged_.push_back(std::move(staged));
    }
}

void
ShadowRuntime::AfterFlush()
{
    if (decision_mode_) {
        Apply(nullptr);
    }
    if (applied_ != seen_) {
        throw std::runtime_error(
            "shadow runtime: the front end flushed with launches still "
            "undecided");
    }
    runtime_.DrainLogStream();
}

void
ShadowRuntime::Apply(const rt::TaskLaunchView* current)
{
    for (const core::Decision& d : decisions_) {
        const std::int64_t t0 = NowNs();
        switch (d.kind) {
          case core::Decision::Kind::kBegin:
            path_ = d.recording ? Path::kRecord : Path::kReplay;
            runtime_.BeginTrace(d.value);
            Charge(path_, NowNs() - t0, 0);
            break;
          case core::Decision::Kind::kEnd:
            runtime_.EndTrace(d.value);
            Charge(path_, NowNs() - t0, 0);
            path_ = Path::kAnalyze;
            break;
          case core::Decision::Kind::kTask: {
            if (d.value != applied_) {
                throw std::runtime_error(
                    "shadow runtime: decision out of stream order");
            }
            const bool live = current != nullptr && d.value + 1 == seen_;
            if (!live && staged_.empty()) {
                throw std::runtime_error(
                    "shadow runtime: decision for an unseen launch");
            }
            const rt::TaskLaunchView view =
                live ? *current
                     : rt::TaskLaunchView::Of(staged_.front().launch,
                                              staged_.front().token);
            runtime_.ExecuteTask(view);
            Charge(path_, NowNs() - t0, 1);
            if (!live) {
                pool_.push_back(std::move(staged_.front()));
                staged_.pop_front();
            }
            ++applied_;
            break;
          }
        }
    }
    decisions_.clear();
}

void
ShadowRuntime::CreateRegion(rt::RegionId expected)
{
    if (runtime_.CreateRegion() != expected) {
        throw std::runtime_error("shadow runtime: region ids diverged");
    }
}

void
ShadowRuntime::DestroyRegion(rt::RegionId region)
{
    runtime_.DestroyRegion(region);
}

void
ShadowRuntime::PartitionRegion(rt::RegionId parent, std::size_t count,
                               const std::vector<rt::RegionId>& expected)
{
    if (runtime_.PartitionRegion(parent, count) != expected) {
        throw std::runtime_error("shadow runtime: subregion ids diverged");
    }
}

// -- TimedFrontend ------------------------------------------------------------

void
TimedFrontend::ChargeCluster()
{
    if (tracer_->cluster == nullptr) {
        return;
    }
    const std::uint64_t ns = tracer_->cluster->DecisionCost().decision_ns;
    tracer_->spans.AddChildTime(
        Layer::kCore,
        static_cast<std::int64_t>(ns - tracer_->cluster_decision_ns));
    tracer_->cluster_decision_ns = ns;
}

rt::RegionId
TimedFrontend::CreateRegion()
{
    rt::RegionId region{};
    {
        ScopedSpan span(&tracer_->spans, tracer_->front_layer,
                        "CreateRegion");
        region = inner_->CreateRegion();
        ChargeCluster();
    }
    if (tracer_->shadow != nullptr) {
        ScopedSpan span(&tracer_->spans, Layer::kProbe, "shadow");
        tracer_->shadow->CreateRegion(region);
    }
    ++tracer_->region_ops;
    return region;
}

void
TimedFrontend::DestroyRegion(rt::RegionId r)
{
    {
        ScopedSpan span(&tracer_->spans, tracer_->front_layer,
                        "DestroyRegion");
        inner_->DestroyRegion(r);
        ChargeCluster();
    }
    if (tracer_->shadow != nullptr) {
        ScopedSpan span(&tracer_->spans, Layer::kProbe, "shadow");
        tracer_->shadow->DestroyRegion(r);
    }
    ++tracer_->region_ops;
}

std::vector<rt::RegionId>
TimedFrontend::PartitionRegion(rt::RegionId parent, std::size_t count)
{
    std::vector<rt::RegionId> subregions;
    {
        ScopedSpan span(&tracer_->spans, tracer_->front_layer,
                        "PartitionRegion");
        subregions = inner_->PartitionRegion(parent, count);
        ChargeCluster();
    }
    if (tracer_->shadow != nullptr) {
        ScopedSpan span(&tracer_->spans, Layer::kProbe, "shadow");
        tracer_->shadow->PartitionRegion(parent, count, subregions);
    }
    ++tracer_->region_ops;
    return subregions;
}

void
TimedFrontend::DoExecuteTask(const rt::TaskLaunchView& launch)
{
    {
        ScopedSpan span(&tracer_->spans, tracer_->front_layer,
                        "ExecuteTask");
        inner_->ExecuteTask(launch);
        ChargeCluster();
    }
    if (tracer_->shadow != nullptr) {
        ScopedSpan span(&tracer_->spans, Layer::kProbe, "shadow");
        tracer_->shadow->AfterExecute(launch);
    }
}

bool
TimedFrontend::DoBeginTrace(rt::TraceId id)
{
    const std::uint64_t honored = inner_->Stats().annotations_honored;
    inner_->BeginTrace(id);
    return inner_->Stats().annotations_honored != honored;
}

bool
TimedFrontend::DoEndTrace(rt::TraceId id)
{
    const std::uint64_t honored = inner_->Stats().annotations_honored;
    inner_->EndTrace(id);
    return inner_->Stats().annotations_honored != honored;
}

void
TimedFrontend::DoFlush()
{
    {
        ScopedSpan span(&tracer_->spans, tracer_->front_layer, "Flush");
        inner_->Flush();
        ChargeCluster();
    }
    if (tracer_->shadow != nullptr) {
        ScopedSpan span(&tracer_->spans, Layer::kProbe, "shadow");
        tracer_->shadow->AfterFlush();
    }
}

// -- TimedExecutor ------------------------------------------------------------

std::function<void()>
TimedExecutor::Timed(std::function<void()> job)
{
    return [this, job = std::move(job)]() {
        ScopedSpan span(&tracer_->spans, Layer::kFinder, "mining job");
        ++tracer_->jobs;
        job();
    };
}

void
TimedExecutor::Submit(std::function<void()> job)
{
    inner_->Submit(Timed(std::move(job)));
}

void
TimedExecutor::Submit(std::function<void()> job,
                      std::function<void()> on_complete)
{
    inner_->Submit(Timed(std::move(job)), std::move(on_complete));
}

// -- Timeline / TimedApp ------------------------------------------------------

Timeline::Timeline(std::size_t ignore_grants,
                   std::function<void()> at_boundary, Tracer* tracer)
    : ignore_grants_(ignore_grants),
      at_boundary_(std::move(at_boundary)),
      tracer_(tracer)
{
}

void
Timeline::Record(std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t tasks)
{
    ++grants_;
    if (grants_ == ignore_grants_) {
        boundary_ns_ = end_ns;
        at_boundary_();
    } else if (grants_ > ignore_grants_) {
        tasks_timed_ += tasks;
        timed_span_ns_ += end_ns - start_ns;
        samples_.push_back(IterationSample{end_ns - start_ns, tasks});
        if (tracer_ != nullptr) {
            core_curve_.emplace_back(tasks_timed_,
                                     tracer_->spans.Totals()[Layer::kCore]);
        }
    }
    if (tracer_ != nullptr) {
        tracer_->spans.SetIteration(grants_);
    }
}

api::Frontend&
TimedApp::Route(api::Frontend& fe)
{
    Tracer* tracer = timeline_->Tracing();
    if (tracer == nullptr) {
        return fe;
    }
    if (front_ == nullptr) {
        front_ = std::make_unique<TimedFrontend>(fe, *tracer);
    } else if (&front_->Inner() != &fe) {
        throw std::logic_error(
            "TimedApp: the application moved to another front end");
    }
    return *front_;
}

void
TimedApp::Setup(api::Frontend& fe)
{
    Tracer* tracer = timeline_->Tracing();
    ScopedSpan span(tracer != nullptr ? &tracer->spans : nullptr,
                    Layer::kApps, "Setup");
    inner_->Setup(Route(fe));
}

void
TimedApp::Iteration(api::Frontend& fe, std::size_t iter,
                    bool manual_tracing)
{
    Tracer* tracer = timeline_->Tracing();
    api::Frontend& routed = Route(fe);
    const std::uint64_t before = fe.Stats().tasks_executed;
    std::int64_t start = 0;
    std::int64_t end = 0;
    {
        ScopedSpan span(tracer != nullptr ? &tracer->spans : nullptr,
                        Layer::kApps, "Iteration");
        start = NowNs();
        inner_->Iteration(routed, iter, manual_tracing);
        end = NowNs();
    }
    timeline_->Record(start, end, fe.Stats().tasks_executed - before);
}

void
TimedApp::Flush(api::Frontend& fe, const std::function<void()>& drain)
{
    Tracer* tracer = timeline_->Tracing();
    ScopedSpan span(tracer != nullptr ? &tracer->spans : nullptr,
                    Layer::kApps, "Flush+drain");
    Route(fe).Flush();
    drain();
}

}  // namespace apobench
