/**
 * @file
 * apobench's measurement probes: decorators around the public
 * interfaces of the issue path, and the span recorder they report to.
 *
 * Nothing here reaches inside the library. Time is taken at the
 * boundaries an application or operator could wrap themselves:
 *
 *  - TimedApp wraps an apps::Application and times every Iteration
 *    call. It is the only probe of the measured (untraced) runs, so
 *    those pay two clock reads per iteration.
 *  - TimedFrontend wraps the api::Frontend the application issues
 *    into (traced runs only) and times each call into it.
 *  - TimedExecutor wraps the support::Executor that runs Apophenia's
 *    mining jobs (traced runs only).
 *  - ShadowRuntime re-applies the front end's decisions to a second
 *    rt::Runtime (traced single-node runs only). It times the
 *    runtime's analysis and replay work, which has no public seam on
 *    the real path, and its stream digest must equal the real one.
 *
 * A layer's self time is the duration of its spans minus the spans
 * nested inside them, so the self times of one run add up to the
 * root spans (the Iteration calls) exactly unless a probe fired
 * outside every root — which the traced run checks.
 */
#ifndef APOBENCH_PROBES_H
#define APOBENCH_PROBES_H

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "apps/app.h"
#include "core/apophenia.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "support/executor.h"

namespace apobench {

using namespace apo;

inline std::int64_t NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The repository layers the traced run attributes time to, plus the
 * shadow runtime's own cost (`probe`, measurement overhead). */
enum class Layer : std::uint8_t {
    kApps,
    kCore,
    kFinder,
    kRuntime,
    kSim,
    kCluster,
    kProbe,
    kCount,
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* LayerName(Layer layer);

/** Cumulative self time per layer plus the root spans' total. */
struct LayerTotals {
    std::array<std::int64_t, kLayers> self_ns{};
    std::int64_t root_ns = 0;

    std::int64_t operator[](Layer layer) const
    {
        return self_ns[static_cast<std::size_t>(layer)];
    }
};

/**
 * Records spans opened and closed in strict nesting on one thread.
 * Layer self times are kept for every span; the individual spans go
 * into a fixed-capacity buffer (later ones are counted as overflow)
 * and are written out as Chrome/Perfetto trace JSON.
 */
class SpanRecorder {
  public:
    explicit SpanRecorder(std::size_t capacity);

    void Open(Layer layer, const char* name);
    void Close();

    /** Charge `ns` that the program reports it spent inside the open
     * span to `layer`, as if a child span of that length had been
     * recorded (no span is written to the buffer). */
    void AddChildTime(Layer layer, std::int64_t ns);

    /** The iteration id stamped on spans opened from now on. */
    void SetIteration(std::uint64_t iteration) { iteration_ = iteration; }

    const LayerTotals& Totals() const { return totals_; }
    std::uint64_t Overflow() const { return overflow_; }
    bool Balanced() const { return open_.empty(); }

    /** Write the buffered spans as Chrome trace JSON. */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    struct Span {
        const char* name = nullptr;
        Layer layer = Layer::kApps;
        std::int32_t parent = -1;  ///< index in spans_, -1 = root/dropped
        std::uint64_t iteration = 0;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };
    struct OpenSpan {
        std::int64_t start_ns = 0;
        std::int64_t child_ns = 0;
        std::int32_t index = -1;  ///< -1 when the buffer was full
        Layer layer = Layer::kApps;
    };

    std::size_t capacity_;
    std::vector<Span> spans_;
    std::vector<OpenSpan> open_;
    LayerTotals totals_;
    std::uint64_t overflow_ = 0;
    std::uint64_t iteration_ = 0;
    std::int64_t origin_ns_ = NowNs();
};

/** RAII span on a recorder; a null recorder records nothing. */
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder* spans, Layer layer, const char* name)
        : spans_(spans)
    {
        if (spans_ != nullptr) {
            spans_->Open(layer, name);
        }
    }
    ~ScopedSpan()
    {
        if (spans_ != nullptr) {
            spans_->Close();
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* spans_;
};

/**
 * A second runtime fed the real front end's decisions. Decision mode
 * (behind core::Apophenia): attach Sink() with SetDecisionSink; after
 * every front-end call the recorded decisions are re-applied in order,
 * the way sim::Cluster applies a broadcast, with launches the front
 * end is still holding staged here. Pass-through mode (behind an
 * untraced front end): every launch is analysed as issued. Region
 * operations are mirrored in call order. Any disagreement throws.
 */
class ShadowRuntime {
  public:
    /** Task work by the runtime path it took. */
    enum class Path : std::uint8_t { kAnalyze, kRecord, kReplay };
    static constexpr std::size_t kPaths = 3;

    ShadowRuntime(const rt::RuntimeOptions& options, bool decisions);
    /** The runtime's log consumer holds this object's address. */
    ShadowRuntime(const ShadowRuntime&) = delete;
    ShadowRuntime& operator=(const ShadowRuntime&) = delete;

    std::vector<core::Decision>* Sink() { return &decisions_; }

    /** After the front end returned from ExecuteTask(launch). */
    void AfterExecute(const rt::TaskLaunchView& launch);
    /** After the front end returned from Flush. */
    void AfterFlush();

    void CreateRegion(rt::RegionId expected);
    void DestroyRegion(rt::RegionId region);
    void PartitionRegion(rt::RegionId parent, std::size_t count,
                         const std::vector<rt::RegionId>& expected);

    const sim::StreamDigest& Digest() const { return digest_; }
    std::int64_t PathNs(Path path) const
    {
        return ns_[static_cast<std::size_t>(path)];
    }
    std::uint64_t PathTasks(Path path) const
    {
        return tasks_[static_cast<std::size_t>(path)];
    }

  private:
    struct Staged {
        rt::TaskLaunch launch;
        rt::TokenHash token = 0;
    };

    /** Apply the recorded decisions; `current` is the launch of the
     * call that just returned (index seen_ - 1), or null. */
    void Apply(const rt::TaskLaunchView* current);
    void Charge(Path path, std::int64_t ns, std::uint64_t tasks);

    rt::Runtime runtime_;
    sim::StreamDigest digest_;
    bool decision_mode_;
    std::vector<core::Decision> decisions_;
    std::deque<Staged> staged_;   ///< launches [applied_, seen_) held
    std::vector<Staged> pool_;    ///< recycled Staged storage
    std::uint64_t seen_ = 0;      ///< launches the front end received
    std::uint64_t applied_ = 0;   ///< launches applied to runtime_
    Path path_ = Path::kAnalyze;  ///< path of the open fragment
    std::array<std::int64_t, kPaths> ns_{};
    std::array<std::uint64_t, kPaths> tasks_{};
};

/** What the traced run's probes share. */
struct Tracer {
    explicit Tracer(std::size_t span_capacity) : spans(span_capacity) {}

    SpanRecorder spans;
    /** Layer of a front-end span's self time: `core` behind Apophenia
     * or a service session, `runtime` behind the untraced front end,
     * `sim.cluster` behind a cluster. */
    Layer front_layer = Layer::kCore;
    ShadowRuntime* shadow = nullptr;
    /** Cluster whose program-reported decision time (DecisionCost) is
     * charged to `core` inside each front-end span. */
    const sim::Cluster* cluster = nullptr;
    std::uint64_t cluster_decision_ns = 0;
    std::uint64_t region_ops = 0;
    std::uint64_t jobs = 0;
};

/** api::Frontend decorator: times every call into the wrapped front
 * end and drives the shadow runtime after it. */
class TimedFrontend final : public api::Frontend {
  public:
    TimedFrontend(api::Frontend& inner, Tracer& tracer)
        : inner_(&inner), tracer_(&tracer)
    {
    }

    std::string_view Name() const override { return "timed"; }
    rt::RegionId CreateRegion() override;
    void DestroyRegion(rt::RegionId r) override;
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override;

    api::Frontend& Inner() { return *inner_; }

  protected:
    void DoExecuteTask(const rt::TaskLaunchView& launch) override;
    bool DoBeginTrace(rt::TraceId id) override;
    bool DoEndTrace(rt::TraceId id) override;
    void DoFlush() override;

  private:
    /** Charge the cluster's decision time spent in this call to
     * `core` (call with the front-end span still open). */
    void ChargeCluster();

    api::Frontend* inner_;
    Tracer* tracer_;
};

/** support::Executor decorator: each job is a `core.finder` span. */
class TimedExecutor final : public support::Executor {
  public:
    TimedExecutor(support::Executor& inner, Tracer& tracer)
        : inner_(&inner), tracer_(&tracer)
    {
    }
    /** Submitted jobs hold this object's address. */
    TimedExecutor(const TimedExecutor&) = delete;
    TimedExecutor& operator=(const TimedExecutor&) = delete;

    void Submit(std::function<void()> job) override;
    void Submit(std::function<void()> job,
                std::function<void()> on_complete) override;
    void Pump() override { inner_->Pump(); }
    void Drain() override { inner_->Drain(); }

  private:
    std::function<void()> Timed(std::function<void()> job);

    support::Executor* inner_;
    Tracer* tracer_;
};

/** One timed Iteration call: its wall time and the tasks it issued. */
struct IterationSample {
    std::int64_t ns = 0;
    std::uint64_t tasks = 0;
};

/**
 * The grant order of one repetition, shared by all its TimedApps
 * (one per tenant in a service run): the ignore window, the
 * per-iteration samples and, traced, the cumulative `core` self time
 * after every grant.
 */
class Timeline {
  public:
    /** @param at_boundary runs once, right after grant number
     *        `ignore_grants` completes (the end of the ignore window). */
    Timeline(std::size_t ignore_grants, std::function<void()> at_boundary,
             Tracer* tracer);

    void Record(std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t tasks);

    Tracer* Tracing() const { return tracer_; }
    std::int64_t BoundaryNs() const { return boundary_ns_; }
    /** Every Iteration call after the ignore window, in grant order. */
    const std::vector<IterationSample>& Samples() const { return samples_; }
    std::uint64_t TasksAfterBoundary() const { return tasks_timed_; }
    /** Σ wall time of the Iteration calls after the ignore window. */
    std::int64_t TimedSpanNs() const { return timed_span_ns_; }
    /** Cumulative (tasks, core self ns) after each timed grant. */
    const std::vector<std::pair<std::uint64_t, std::int64_t>>& CoreCurve()
        const
    {
        return core_curve_;
    }

  private:
    std::size_t ignore_grants_;
    std::function<void()> at_boundary_;
    Tracer* tracer_;
    std::uint64_t grants_ = 0;
    std::int64_t boundary_ns_ = 0;
    std::uint64_t tasks_timed_ = 0;
    std::int64_t timed_span_ns_ = 0;
    std::vector<IterationSample> samples_;
    std::vector<std::pair<std::uint64_t, std::int64_t>> core_curve_;
};

/** apps::Application decorator: times every Iteration into the
 * timeline. Traced, the application's calls are routed through a
 * TimedFrontend and each Iteration is a root `apps` span. */
class TimedApp final : public apps::Application {
  public:
    TimedApp(apps::Application& inner, Timeline& timeline)
        : inner_(&inner), timeline_(&timeline)
    {
    }

    std::string_view Name() const override { return inner_->Name(); }
    bool SupportsManualTracing() const override
    {
        return inner_->SupportsManualTracing();
    }
    void Setup(api::Frontend& fe) override;
    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override;

    /** End of stream for a stack driven directly (not by a service):
     * Flush through the probes, then `drain` the log consumers, as one
     * root span. */
    void Flush(api::Frontend& fe, const std::function<void()>& drain);

  private:
    api::Frontend& Route(api::Frontend& fe);

    apps::Application* inner_;
    Timeline* timeline_;
    std::unique_ptr<TimedFrontend> front_;
};

}  // namespace apobench

#endif  // APOBENCH_PROBES_H
