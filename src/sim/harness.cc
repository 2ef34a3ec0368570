#include "sim/harness.h"

#include <algorithm>
#include <span>

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

ExperimentStack::ExperimentStack(const ExperimentOptions& options,
                                 core::MiningCache* mining_cache)
    : options_(options)
{
    if (options.machine.nodes == 0 || options.machine.gpus_per_node == 0) {
        throw rt::RuntimeUsageError(
            "sim::ExperimentStack: the machine needs at least one node "
            "and one GPU per node (the pipeline model maps each shard "
            "to shard / gpus_per_node)");
    }
    const bool streaming = options.log_mode == LogMode::kStreaming;
    const bool reduce = options.auto_config.inline_transitive_reduction;
    if (streaming && reduce && options.auto_config.window == 0) {
        throw rt::RuntimeUsageError(
            "sim::ExperimentStack: the inline transitive reduction over "
            "a streaming log needs a bounded window (-lg:window > 0); an "
            "unbounded reduction is a whole-log transform");
    }
    rt::RuntimeOptions runtime_options;
    runtime_options.costs = options.costs;
    runtime_options.nodes = options.machine.nodes;
    runtime_options.mismatch_policy = options.mismatch_policy;
    runtime_options.max_trace_templates = options.max_trace_templates;
    runtime_options.log_config = options.log_config;

    if (options.replicas > 1) {
        if (options.mode == TracingMode::kManual) {
            throw rt::RuntimeUsageError(
                "sim::ExperimentStack: TracingMode::kManual is "
                "incompatible with ExperimentOptions::replicas > 1 — the "
                "replicated cluster front end drops manual trace "
                "annotations; use TracingMode::kAuto or "
                "TracingMode::kUntraced");
        }
        ClusterOptions cluster_options;
        cluster_options.coordination = options.replication;
        cluster_options.coordination.nodes = options.replicas;
        cluster_options.skew = options.skew;
        cluster_options.config = options.auto_config;
        cluster_options.config.enabled = options.mode == TracingMode::kAuto;
        cluster_options.runtime_options = runtime_options;
        cluster_options.stream_logs = streaming;
        cluster_options.jobs = options.cluster_jobs;
        cluster_options.share_mining_cache = options.share_mining_cache;
        cluster_options.shared_decisions = options.shared_decisions;
        cluster_options.external_mining_cache = mining_cache;
        cluster_ = std::make_unique<Cluster>(cluster_options);
        front_ = cluster_.get();
    } else {
        runtime_ = std::make_unique<rt::Runtime>(runtime_options);
        switch (options.mode) {
          case TracingMode::kUntraced:
            wrapper_ = std::make_unique<api::UntracedFrontend>(*runtime_);
            front_ = wrapper_.get();
            break;
          case TracingMode::kManual:
            wrapper_ = std::make_unique<api::DirectFrontend>(*runtime_);
            front_ = wrapper_.get();
            break;
          case TracingMode::kAuto:
            apophenia_ = std::make_unique<core::Apophenia>(
                *runtime_, options.auto_config, options.executor,
                mining_cache);
            front_ = apophenia_.get();
            break;
        }
    }
    if (!streaming) {
        return;
    }

    // Streaming: the simulator and the traced-flags metric run as the
    // operation log's retire consumer (node 0's under replication);
    // the logs recycle their blocks behind them. The inline transitive
    // reduction, a retained-path log transform, streams through the
    // windowed reducer instead — same edges, O(window) resident state.
    PipelineOptions sim_options = BuildPipelineOptions(options);
    sim_options.inline_transitive_reduction = false;
    streaming_sim_.emplace(sim_options);
    if (reduce) {
        streaming_reducer_.emplace(options.auto_config.window);
    }
    auto consumer = [this](const rt::OpView& op) {
        streaming_traced_.Consume(op);
        streaming_digest_.Consume(op);
        if (streaming_reducer_) {
            reduce_scratch_.assign(op.dependences.begin(),
                                   op.dependences.end());
            streaming_reducer_->Reduce(op.index, reduce_scratch_);
            rt::OpView reduced = op;
            reduced.dependences = rt::DependenceSpan(
                std::span<const rt::Dependence>(reduce_scratch_));
            streaming_sim_->Consume(reduced);
        } else {
            streaming_sim_->Consume(op);
        }
    };
    if (cluster_ != nullptr) {
        cluster_->AddLogConsumer(0, consumer);
    } else {
        runtime_->EnableLogStreaming(consumer);
    }
}

const core::Apophenia*
ExperimentStack::Engine() const
{
    if (cluster_ == nullptr) {
        return apophenia_.get();
    }
    if (options_.mode != TracingMode::kAuto) {
        return nullptr;
    }
    return cluster_->SharedDecisions() ? &cluster_->Decider()
                                       : &cluster_->Node(0);
}

core::MiningCache*
ExperimentStack::PrivateMemo() const
{
    if (apophenia_ != nullptr) {
        return apophenia_->PrivateMemo();
    }
    return cluster_ != nullptr && cluster_->SharedDecisions()
               ? cluster_->Decider().PrivateMemo()
               : nullptr;
}

std::size_t
ExperimentStack::ResidentBytes() const
{
    const core::MiningCache* memo = PrivateMemo();
    std::size_t resident = memo != nullptr ? memo->ResidentBytes() : 0;
    auto add = [&resident](const rt::Runtime& runtime) {
        resident +=
            runtime.Log().ResidentBytes() + runtime.Traces().ResidentBytes();
    };
    if (cluster_ == nullptr) {
        add(*runtime_);
        return resident;
    }
    for (std::size_t n = 0; n < cluster_->Nodes(); ++n) {
        if (!cluster_->NodeCrashed(n)) {  // an evicted node holds none
            add(cluster_->NodeRuntime(n));
        }
    }
    if (const rt::Runtime* decision = cluster_->DecisionRuntime()) {
        add(*decision);
    }
    return resident;
}

std::size_t
ExperimentStack::PressureEvictTraces()
{
    // A replicated stack evicts nothing: evicting on one node would
    // break the decider's TraceCache mirror, whose HasTrace decisions
    // every node applies.
    if (runtime_ == nullptr) {
        return 0;
    }
    return runtime_->PressureEvictTraces(
        runtime_->Traces().ResidentBytes() / 2);
}

ExperimentResult
ExperimentStack::Finish(const std::vector<std::size_t>& boundaries)
{
    const rt::Runtime& runtime = ObservedRuntime();
    ExperimentResult result;
    PipelineResult sim;
    if (streaming_sim_) {
        if (cluster_ != nullptr) {
            cluster_->DrainLogStreams();
        } else {
            runtime_->DrainLogStream();
        }
        sim = streaming_sim_->Finish();
        result.warmup_iterations =
            WarmupIterations(streaming_traced_, boundaries);
        if (options_.keep_coverage_series) {
            result.coverage_series = TracedCoverageSeries(
                streaming_traced_, options_.coverage_window,
                options_.coverage_stride);
        }
    } else {
        sim = SimulatePipeline(runtime.Log(), BuildPipelineOptions(options_));
        result.warmup_iterations =
            WarmupIterations(runtime.Log(), boundaries);
        if (options_.keep_coverage_series) {
            result.coverage_series = TracedCoverageSeries(
                runtime.Log(), options_.coverage_window,
                options_.coverage_stride);
        }
    }

    const std::vector<double> ends = IterationEndTimes(sim, boundaries);
    result.iterations_per_second = SteadyThroughput(ends);
    result.makespan_us = sim.makespan_us;
    result.total_tasks = runtime.Log().size();
    result.runtime_stats = runtime.Stats();
    result.replayed_fraction = runtime.Stats().ReplayedFraction();
    result.trace_cache_evictions = runtime.Stats().traces_evicted;
    result.frontend_stats = front_->Stats();
    result.log_peak_resident_bytes = runtime.Log().PeakResidentBytes();
    result.log_retired_ops = runtime.Log().RetiredCount();
    if (const core::Apophenia* engine = Engine()) {
        result.apophenia_stats = engine->Stats();
        result.candidate_digest = engine->CandidateDigest();
    }
    auto add_finder_stats = [&result](const core::FinderStats& finder) {
        result.mining_fast_path_hits += finder.mining_fast_path_hits;
        result.mining_full += finder.mining_full;
    };
    if (cluster_ == nullptr) {
        // Single-runtime runs report the same stream identity the
        // cluster nodes do (and the svc::TraceService bit-identity
        // check diffs against).
        const StreamDigest digest = streaming_sim_
                                        ? streaming_digest_
                                        : StreamDigest::Of(runtime.Log());
        result.stream_digest = digest.Value();
        result.stream_digest_ops = digest.Count();
        if (apophenia_ != nullptr) {
            add_finder_stats(apophenia_->Finder());
            result.mining_cache_hits = apophenia_->Finder().mining_cache_hits;
        }
        return result;
    }

    // The decision-making engine's finder describes the run: the
    // shared decider (whose decisions every node applied), or every
    // node's own in per-node mode.
    const bool shared = cluster_->SharedDecisions();
    result.streams_identical = cluster_->StreamDigestsAgree();
    result.coordination = cluster_->Coordination();
    result.node_metrics = cluster_->PerNode();
    for (std::size_t n = 0; n < cluster_->Nodes(); ++n) {
        if (!cluster_->NodeCrashed(n)) {
            result.log_peak_resident_bytes = std::max(
                result.log_peak_resident_bytes,
                cluster_->NodeRuntime(n).Log().PeakResidentBytes());
        }
        if (!shared) {
            add_finder_stats(cluster_->Node(n).Finder());
        }
    }
    if (shared) {
        add_finder_stats(cluster_->Decider().Finder());
    }
    const core::MiningCache::Stats cache = cluster_->MiningCacheStats();
    result.mining_cache_hits = cache.hits;
    result.mining_cache_misses = cache.misses;
    result.mining_cache_windows = cache.windows;
    result.mining_cache_evictions = cache.evictions;
    const DecisionStats decisions = cluster_->DecisionCost();
    result.shared_decisions = decisions.shared;
    result.decision_ns = decisions.decision_ns;
    result.decision_apply_ns = decisions.apply_ns;
    result.decision_batches = decisions.batches;
    result.decisions_broadcast = decisions.decisions;
    const StreamDigest digest = cluster_->NodeDigest(0);
    result.stream_digest = digest.Value();
    result.stream_digest_ops = digest.Count();
    return result;
}

ExperimentResult
RunExperiment(apps::Application& app, const ExperimentOptions& options)
{
    ExperimentStack stack(options);
    api::Frontend& front = stack.Front();
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
    return stack.Finish(boundaries);
}

}  // namespace apo::sim
