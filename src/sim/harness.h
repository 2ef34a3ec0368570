/**
 * @file
 * The experiment harness: run a workload skeleton in one of the
 * paper's three configurations (untraced, manually traced, Apophenia)
 * and measure simulated steady-state throughput — the quantity every
 * weak/strong-scaling figure reports.
 *
 * The application is always driven through the one api::Frontend
 * issue surface; ExperimentStack picks the implementation from the
 * options, builds the runtime (or runtimes) behind it and turns the
 * issued stream into one ExperimentResult. RunExperiment drives one
 * stack; every svc::TraceService tenant is one. Control replication
 * (paper section 5.1) is an orthogonal axis: any workload can run on
 * an N-node sim::Cluster under a pluggable per-node SkewModel, and the
 * result carries the incremental stream-digest safety check plus
 * per-node stall/agreement metrics. The log-mode axis (retained vs
 * streaming-retire) composes with both — a replicated streaming run
 * keeps every node's resident log bounded and verifies agreement
 * through the rolling digests.
 */
#ifndef APOPHENIA_SIM_HARNESS_H
#define APOPHENIA_SIM_HARNESS_H

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "api/frontend.h"
#include "apps/app.h"
#include "core/apophenia.h"
#include "core/config.h"
#include "core/mining_cache.h"
#include "runtime/dependence.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/pipeline.h"
#include "support/executor.h"

namespace apo::sim {

/** The three configurations of the paper's evaluation. */
enum class TracingMode {
    kUntraced,  ///< plain dynamic dependence analysis
    kManual,    ///< the application's own tbegin/tend annotations
    kAuto,      ///< Apophenia
};

std::string_view ModeName(TracingMode mode);

/** How the harness consumes the runtime's operation log. */
enum class LogMode {
    /** The log is kept whole and simulated after the run (the
     * configuration every figure is reported with). */
    kRetained,
    /** Streaming retire: the simulator and metrics run as the log's
     * streaming consumer, blocks recycle, and resident log memory
     * stays bounded no matter how long the stream is. Metrics and
     * decisions are bit-identical to kRetained. Composes with control
     * replication (every node streams; agreement is checked through
     * the incremental StreamDigest) and with the inline transitive
     * reduction (applied through the windowed streaming reducer; needs
     * a nonzero -lg:window). */
    kStreaming,
};

/** Experiment parameters. */
struct ExperimentOptions {
    TracingMode mode = TracingMode::kAuto;
    std::size_t iterations = 60;
    rt::CostModel costs;
    core::ApopheniaConfig auto_config;  ///< used when mode == kAuto
    /** Runs the unreplicated kAuto front end's mining jobs; borrowed,
     * must outlive the experiment. nullptr = inline (every figure).
     * Behaviour-invariant: the front end ingests each job at the task
     * that launched it, so any executor decides like inline. */
    support::Executor* executor = nullptr;
    /** What a trace replay does when the stream deviates from the
     * template: throw (Legion's strict mode) or degrade that fragment
     * to full dependence analysis (see rt::MismatchPolicy). */
    rt::MismatchPolicy mismatch_policy = rt::MismatchPolicy::kThrow;
    /** Trace-template retention bound of the runtime's TraceCache
     * (rt::RuntimeOptions::max_trace_templates; 0 = unlimited).
     * Evictions surface as ExperimentResult::trace_cache_evictions. */
    std::size_t max_trace_templates = 0;
    /** See LogMode; a replicated kStreaming run streams every node's
     * log and simulates node 0's. */
    LogMode log_mode = LogMode::kRetained;
    /** Operation-log block granularity; with kStreaming this is the
     * resident-memory ceiling knob. */
    rt::OperationLog::Config log_config;
    apps::MachineConfig machine;
    /** Control replication: number of simulated cluster nodes.
     * 1 runs a single front end. >1 drives the application through a
     * sim::Cluster (kAuto traces on every node; kUntraced runs the
     * nodes with tracing disabled; kManual is rejected with a typed
     * rt::RuntimeUsageError — the cluster front end drops
     * annotations). Per-node engines mine inline and a shared
     * decider on the cluster's own threads (`cluster_jobs`); both
     * ingest at the agreed positions, and completion *timing* is what
     * `replication` and `skew` simulate. */
    std::size_t replicas = 1;
    /** Coordination tuning when replicas > 1 (`nodes` is overridden
     * by `replicas`). */
    CoordinationOptions replication;
    /** Per-node timing perturbation: when replicas > 1 it skews the
     * cluster's coordination timing, and (any replica count) it
     * stretches the pipeline simulator's per-node analysis/execution
     * costs, so skew shows up in the simulated makespan. */
    SkewModel skew;
    /** Threads of the cluster's parallel per-node engine when
     * replicas > 1 (ClusterOptions::jobs: 0 = APO_JOBS env override,
     * else hardware_concurrency; every value is byte-identical). */
    std::size_t cluster_jobs = 0;
    /** Per-node replicated runs (shared_decisions == false): share one
     * content-addressed mining cache across the cluster's nodes
     * (behaviour-invariant dedup of the replicated mining work; see
     * core/mining_cache.h). Inert under shared decisions, whose one
     * decider mines each window once anyway. */
    bool share_mining_cache = true;
    /** Replicated kAuto runs: one shared decision engine drives every
     * node instead of per-node engines (ClusterOptions::
     * shared_decisions; bit-identical either way — see
     * core/decision_engine.h). */
    bool shared_decisions = true;
    /** Record the figure-10 coverage series (costs memory). */
    bool keep_coverage_series = false;
    std::size_t coverage_window = 5000;
    std::size_t coverage_stride = 250;
};

/** Everything a bench needs to print a figure row. */
struct ExperimentResult {
    double iterations_per_second = 0.0;
    double makespan_us = 0.0;
    std::size_t total_tasks = 0;
    double replayed_fraction = 0.0;
    std::size_t warmup_iterations = 0;
    rt::RuntimeStats runtime_stats;        ///< node 0 when replicated
    core::ApopheniaStats apophenia_stats;  ///< zeros unless kAuto
    /** Uniform issue-surface counters of the driven front end. */
    api::FrontendStats frontend_stats;
    /** Control-replication safety: all nodes issued bit-identical
     * streams, verified through the incremental per-node
     * StreamDigest (trivially true when replicas == 1). False when
     * a barrier evicted a diverged node (see sim::Cluster). */
    bool streams_identical = true;
    CoordinationStats coordination;  ///< zeros unless replicated
    /** Per-node virtual clocks, stalls and agreement misses (empty
     * unless replicated). */
    std::vector<NodeMetrics> node_metrics;
    std::vector<std::pair<std::size_t, double>> coverage_series;
    /** Operation-log memory high-water — the worst node's when
     * replicated — the number the streaming-retire mode bounds. */
    std::size_t log_peak_resident_bytes = 0;
    /** Operations drained through the streaming consumer on node 0
     * (0 when retained). */
    std::size_t log_retired_ops = 0;
    /** Shared-mining-cache counters (per-node replicated runs; zero
     * when the cache is off or under shared decisions). Every
     * mining-job probe is a hit (another node's result adopted) or a
     * miss (mined locally); `windows` counts published mining runs,
     * so misses == windows certifies each distinct window was mined
     * once cluster-wide. */
    std::uint64_t mining_cache_hits = 0;
    std::uint64_t mining_cache_misses = 0;
    std::size_t mining_cache_windows = 0;
    /** Finder memo outcomes over ingested jobs, summed across nodes
     * when replicated: jobs served by a finder's private memo (no
     * mining) and jobs mined (core::FinderStats). */
    std::uint64_t mining_fast_path_hits = 0;
    std::uint64_t mining_full = 0;
    /** The issued stream's rolling digest (node 0's when replicated)
     * — the strongest cheap cross-run identity check: two runs that
     * issued the same stream report the same digest. */
    std::uint64_t stream_digest = 0;
    std::uint64_t stream_digest_ops = 0;
    /** LRU evictions from the runtime's TraceCache (node 0 when
     * replicated); nonzero only under a finite
     * rt::RuntimeOptions::max_trace_templates. */
    std::uint64_t trace_cache_evictions = 0;
    /** Evictions from the shared mining cache (per-node replicated
     * runs; policy: core::MiningCache::kEvictionPolicy) — nonzero only
     * past the cache's window bound, the analogue of
     * trace_cache_evictions for mining memo retention. */
    std::uint64_t mining_cache_evictions = 0;
    /** Rolling digest of the ingested candidate sets (the decider's
     * under shared decisions, node 0's / the single front-end's
     * otherwise; 0 unless kAuto): equal digests certify two runs
     * ingested identical candidates at identical stream positions. */
    std::uint64_t candidate_digest = 0;
    /** Decision-path accounting of replicated runs (see
     * sim::DecisionStats): whether the shared decision engine drove
     * the nodes, the cluster-wide decision nanoseconds (the quantity
     * the decision_cost bench shows flat in N for the shared engine),
     * and broadcast/batch counts. */
    bool shared_decisions = false;
    std::uint64_t decision_ns = 0;
    std::uint64_t decision_apply_ns = 0;
    std::uint64_t decision_batches = 0;
    std::uint64_t decisions_broadcast = 0;
};

/**
 * The front end an experiment drives plus everything behind it: the
 * runtime (wrapped for kUntraced/kManual, under Apophenia for kAuto)
 * or the replicated sim::Cluster, and under kStreaming node 0's retire
 * consumer (simulator, traced flags, digest). Not copyable or movable:
 * the consumer points into the stack.
 */
class ExperimentStack {
  public:
    /** `mining_cache` (borrowed, may be null) is the kAuto engine's
     * memo: the single front end's, or the cluster's external cache.
     * Throws rt::RuntimeUsageError for kManual with replicas > 1, for
     * a streaming inline reduction without a window, and for a
     * machine with no nodes or no GPUs per node. */
    explicit ExperimentStack(const ExperimentOptions& options,
                             core::MiningCache* mining_cache = nullptr);
    ExperimentStack(const ExperimentStack&) = delete;
    ExperimentStack& operator=(const ExperimentStack&) = delete;

    api::Frontend& Front() { return *front_; }
    /** The engine whose decisions describe a kAuto run: the single
     * front end, the cluster's shared decider, or node 0's engine in
     * per-node mode; nullptr unless kAuto. */
    const core::Apophenia* Engine() const;
    /** The unreplicated kAuto front end (degrade acts on it); nullptr
     * when replicated or untraced. */
    core::Apophenia* SingleEngine() { return apophenia_.get(); }
    /** The runtime whose log the simulator executes (node 0's when
     * replicated: the stream agreement makes it representative; the
     * first live node's if a divergence evicted node 0). */
    const rt::Runtime& ObservedRuntime() const
    {
        if (cluster_ == nullptr) {
            return *runtime_;
        }
        std::size_t n = 0;
        while (n + 1 < cluster_->Nodes() && cluster_->NodeCrashed(n)) {
            ++n;
        }
        return cluster_->NodeRuntime(n);
    }
    const Cluster* ReplicaCluster() const { return cluster_.get(); }
    /** The single front end's or shared decider's private mining memo;
     * nullptr when it probes a shared cache or in per-node mode. */
    core::MiningCache* PrivateMemo() const;
    /** Bytes of every runtime's log and TraceCache (each node's and
     * the shared decider's decision runtime) plus the private memo. */
    std::size_t ResidentBytes() const;
    /** Evict LRU trace templates toward half the TraceCache's bytes;
     * returns the number evicted. */
    std::size_t PressureEvictTraces();

    /** After the front end's final Flush(): drain the logs, simulate
     * and report. `boundaries` holds the issued-task count at the end
     * of each iteration. Call once. */
    ExperimentResult Finish(const std::vector<std::size_t>& boundaries);

  private:
    ExperimentOptions options_;
    std::unique_ptr<rt::Runtime> runtime_;  ///< single-runtime modes
    std::unique_ptr<core::Apophenia> apophenia_;
    std::unique_ptr<Cluster> cluster_;
    std::unique_ptr<api::Frontend> wrapper_;  ///< direct/untraced
    api::Frontend* front_ = nullptr;

    // kStreaming: node 0's retire-consumer state.
    std::optional<PipelineSimulator> streaming_sim_;
    std::optional<rt::WindowedTransitiveReducer> streaming_reducer_;
    std::vector<rt::Dependence> reduce_scratch_;
    TracedFlags streaming_traced_;
    StreamDigest streaming_digest_;
};

/** Run `app` for `options.iterations` main-loop iterations and
 * simulate the resulting operation log on the machine model. */
ExperimentResult RunExperiment(apps::Application& app,
                               const ExperimentOptions& options);

}  // namespace apo::sim

#endif  // APOPHENIA_SIM_HARNESS_H
