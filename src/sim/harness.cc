#include "sim/harness.h"

#include <memory>
#include <optional>

#include "runtime/errors.h"

namespace apo::sim {

std::string_view
ModeName(TracingMode mode)
{
    switch (mode) {
      case TracingMode::kUntraced:
        return "untraced";
      case TracingMode::kManual:
        return "manual";
      case TracingMode::kAuto:
        return "auto";
    }
    return "?";
}

namespace {

/** The harness-owned front end plus everything behind it. */
struct FrontendStack {
    std::unique_ptr<rt::Runtime> runtime;  ///< single-runtime modes
    std::unique_ptr<support::PooledExecutor> pool;
    std::unique_ptr<core::Apophenia> apophenia;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<api::Frontend> wrapper;  ///< direct/untraced
    api::Frontend* front = nullptr;

    /** The runtime whose operation log the simulator executes (node 0
     * under replication: the stream agreement makes it
     * representative). */
    const rt::Runtime& ObservedRuntime() const
    {
        return cluster != nullptr ? cluster->NodeRuntime(0) : *runtime;
    }
};

FrontendStack
BuildFrontend(const ExperimentOptions& options, bool streaming)
{
    FrontendStack stack;
    rt::RuntimeOptions runtime_options;
    runtime_options.costs = options.costs;
    runtime_options.nodes = options.machine.nodes;
    runtime_options.mismatch_policy = options.mismatch_policy;
    runtime_options.max_trace_templates = options.max_trace_templates;
    runtime_options.log_config = options.log_config;

    if (options.replicas > 1) {
        if (options.mode == TracingMode::kManual) {
            throw rt::RuntimeUsageError(
                "RunExperiment: TracingMode::kManual is incompatible "
                "with ExperimentOptions::replicas > 1 — the replicated "
                "cluster front end drops manual trace annotations; use "
                "TracingMode::kAuto or TracingMode::kUntraced");
        }
        ClusterOptions cluster_options;
        cluster_options.coordination = options.replication;
        cluster_options.coordination.nodes = options.replicas;
        cluster_options.skew = options.skew;
        cluster_options.config = options.auto_config;
        cluster_options.config.enabled =
            options.mode == TracingMode::kAuto;
        cluster_options.runtime_options = runtime_options;
        cluster_options.stream_logs = streaming;
        cluster_options.jobs = options.cluster_jobs;
        cluster_options.share_mining_cache = options.share_mining_cache;
        cluster_options.shared_decisions = options.shared_decisions;
        stack.cluster = std::make_unique<Cluster>(cluster_options);
        stack.front = stack.cluster.get();
        return stack;
    }

    stack.runtime = std::make_unique<rt::Runtime>(runtime_options);
    switch (options.mode) {
      case TracingMode::kUntraced:
        stack.wrapper =
            std::make_unique<api::UntracedFrontend>(*stack.runtime);
        stack.front = stack.wrapper.get();
        break;
      case TracingMode::kManual:
        stack.wrapper =
            std::make_unique<api::DirectFrontend>(*stack.runtime);
        stack.front = stack.wrapper.get();
        break;
      case TracingMode::kAuto:
        if (options.executor_mode == ExecutorMode::kPooled) {
            stack.pool = std::make_unique<support::PooledExecutor>(
                options.pool_threads);
        }
        stack.apophenia = std::make_unique<core::Apophenia>(
            *stack.runtime, options.auto_config, stack.pool.get());
        stack.front = stack.apophenia.get();
        break;
    }
    return stack;
}

PipelineOptions
BuildPipelineOptions(const ExperimentOptions& options)
{
    PipelineOptions pipeline_options;
    pipeline_options.machine = options.machine;
    pipeline_options.costs = options.costs;
    pipeline_options.apophenia_front_end =
        options.mode == TracingMode::kAuto;
    pipeline_options.window = options.auto_config.window;
    pipeline_options.inline_transitive_reduction =
        options.auto_config.inline_transitive_reduction;
    // The same skew that perturbs the cluster's coordination timing
    // stretches the simulated makespan (kNone = exactly 1.0 factors,
    // bit-identical to a skew-free simulation).
    pipeline_options.skew = options.skew;
    return pipeline_options;
}

}  // namespace

ExperimentResult
RunExperiment(apps::Application& app, const ExperimentOptions& options)
{
    const bool streaming = options.log_mode == LogMode::kStreaming;
    const bool reduce = options.auto_config.inline_transitive_reduction;
    if (streaming && reduce && options.auto_config.window == 0) {
        throw rt::RuntimeUsageError(
            "RunExperiment: the inline transitive reduction over a "
            "streaming log needs a bounded window (-lg:window > 0); an "
            "unbounded reduction is a whole-log transform");
    }

    FrontendStack stack = BuildFrontend(options, streaming);
    api::Frontend& front = *stack.front;
    const PipelineOptions pipeline_options = BuildPipelineOptions(options);

    // Streaming: the simulator and the traced-flags metric run as the
    // operation log's retire consumer (node 0's under replication);
    // the logs recycle their blocks behind them. The inline transitive
    // reduction, a retained-path log transform, streams through the
    // windowed reducer instead — same edges, O(window) resident state.
    std::optional<PipelineSimulator> streaming_sim;
    std::optional<rt::WindowedTransitiveReducer> streaming_reducer;
    std::vector<rt::Dependence> reduce_scratch;
    TracedFlags streaming_traced;
    StreamDigest streaming_digest;
    if (streaming) {
        PipelineOptions sim_options = pipeline_options;
        sim_options.inline_transitive_reduction = false;
        streaming_sim.emplace(sim_options);
        if (reduce) {
            streaming_reducer.emplace(options.auto_config.window);
        }
        auto consumer = [&](const rt::OpView& op) {
            streaming_traced.Consume(op);
            streaming_digest.Consume(op);
            if (streaming_reducer) {
                reduce_scratch.assign(op.dependences.begin(),
                                      op.dependences.end());
                streaming_reducer->Reduce(op.index, reduce_scratch);
                rt::OpView reduced = op;
                reduced.dependences = rt::DependenceSpan(
                    std::span<const rt::Dependence>(reduce_scratch));
                streaming_sim->Consume(reduced);
            } else {
                streaming_sim->Consume(op);
            }
        };
        if (stack.cluster != nullptr) {
            stack.cluster->AddLogConsumer(0, consumer);
        } else {
            stack.runtime->EnableLogStreaming(consumer);
        }
    }

    // Iteration boundaries are measured on the issued stream (the
    // uniform frontend counter), which Apophenia forwards verbatim.
    app.Setup(front);
    std::vector<std::size_t> boundaries;
    boundaries.reserve(options.iterations);
    const bool manual = options.mode == TracingMode::kManual;
    for (std::size_t iter = 0; iter < options.iterations; ++iter) {
        app.Iteration(front, iter, manual);
        boundaries.push_back(
            static_cast<std::size_t>(front.Stats().tasks_executed));
    }
    front.Flush();

    const rt::Runtime& runtime = stack.ObservedRuntime();
    ExperimentResult result;
    PipelineResult sim;
    if (streaming) {
        if (stack.cluster != nullptr) {
            stack.cluster->DrainLogStreams();
        } else {
            stack.runtime->DrainLogStream();
        }
        sim = streaming_sim->Finish();
        result.warmup_iterations =
            WarmupIterations(streaming_traced, boundaries);
        if (options.keep_coverage_series) {
            result.coverage_series = TracedCoverageSeries(
                streaming_traced, options.coverage_window,
                options.coverage_stride);
        }
    } else {
        sim = SimulatePipeline(runtime.Log(), pipeline_options);
        result.warmup_iterations =
            WarmupIterations(runtime.Log(), boundaries);
        if (options.keep_coverage_series) {
            result.coverage_series = TracedCoverageSeries(
                runtime.Log(), options.coverage_window,
                options.coverage_stride);
        }
    }

    const std::vector<double> ends = IterationEndTimes(sim, boundaries);
    result.iterations_per_second = SteadyThroughput(ends);
    result.makespan_us = sim.makespan_us;
    result.total_tasks = runtime.Log().size();
    result.runtime_stats = runtime.Stats();
    result.replayed_fraction = runtime.Stats().ReplayedFraction();
    result.trace_cache_evictions = runtime.Stats().traces_evicted;
    result.frontend_stats = front.Stats();
    result.log_peak_resident_bytes = runtime.Log().PeakResidentBytes();
    result.log_retired_ops = runtime.Log().RetiredCount();
    auto add_finder_stats = [&result](const core::FinderStats& finder) {
        result.mining_fast_path_hits += finder.mining_fast_path_hits;
        result.mining_full += finder.mining_full;
    };
    if (stack.cluster == nullptr) {
        // Single-runtime runs report the same stream identity the
        // cluster nodes do (and the svc::TraceService bit-identity
        // check diffs against).
        const StreamDigest digest = streaming
                                        ? streaming_digest
                                        : StreamDigest::Of(runtime.Log());
        result.stream_digest = digest.Value();
        result.stream_digest_ops = digest.Count();
    }
    if (stack.apophenia != nullptr) {
        result.apophenia_stats = stack.apophenia->Stats();
        add_finder_stats(stack.apophenia->Finder());
        result.mining_cache_hits = stack.apophenia->Finder().mining_cache_hits;
        result.candidate_digest = stack.apophenia->CandidateDigest();
    } else if (stack.cluster != nullptr) {
        // The decision-making engine whose stats/digests describe the
        // run: the shared decider (whose decisions every node
        // applied), or node 0's engine in per-node mode — identical
        // numbers by the bit-identity property.
        const bool shared = stack.cluster->SharedDecisions();
        if (options.mode == TracingMode::kAuto) {
            const core::Apophenia& decider =
                shared ? stack.cluster->Decider() : stack.cluster->Node(0);
            result.apophenia_stats = decider.Stats();
            result.candidate_digest = decider.CandidateDigest();
        }
        result.streams_identical = stack.cluster->StreamDigestsAgree();
        result.coordination = stack.cluster->Coordination();
        result.node_metrics = stack.cluster->PerNode();
        for (std::size_t n = 0; n < stack.cluster->Nodes(); ++n) {
            result.log_peak_resident_bytes = std::max(
                result.log_peak_resident_bytes,
                stack.cluster->NodeRuntime(n).Log().PeakResidentBytes());
            if (!shared) {
                add_finder_stats(stack.cluster->Node(n).Finder());
            }
        }
        if (shared) {
            add_finder_stats(stack.cluster->Decider().Finder());
        }
        const core::MiningCache::Stats cache =
            stack.cluster->MiningCacheStats();
        result.mining_cache_hits = cache.hits;
        result.mining_cache_misses = cache.misses;
        result.mining_cache_windows = cache.windows;
        result.mining_cache_evictions = cache.evictions;
        const DecisionStats decisions = stack.cluster->DecisionCost();
        result.shared_decisions = decisions.shared;
        result.decision_ns = decisions.decision_ns;
        result.decision_apply_ns = decisions.apply_ns;
        result.decision_batches = decisions.batches;
        result.decisions_broadcast = decisions.decisions;
        result.decision_fallbacks = decisions.fallbacks;
        const StreamDigest digest = stack.cluster->NodeDigest(0);
        result.stream_digest = digest.Value();
        result.stream_digest_ops = digest.Count();
    }
    return result;
}

}  // namespace apo::sim
