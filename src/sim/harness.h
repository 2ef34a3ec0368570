/**
 * @file
 * The experiment harness: run a workload skeleton in one of the
 * paper's three configurations (untraced, manually traced, Apophenia)
 * and measure simulated steady-state throughput — the quantity every
 * weak/strong-scaling figure reports.
 *
 * The application is always driven through the one api::Frontend
 * issue surface; the harness picks the implementation from the
 * options. Control replication (paper section 5.1) is an orthogonal
 * axis: any workload can run on an N-node sim::Cluster under a
 * pluggable per-node SkewModel, and the result carries the incremental
 * stream-digest safety check plus per-node stall/agreement metrics.
 * The log-mode axis (retained vs streaming-retire) composes with both
 * — a replicated streaming run keeps every node's resident log
 * bounded and verifies agreement through the rolling digests.
 */
#ifndef APOPHENIA_SIM_HARNESS_H
#define APOPHENIA_SIM_HARNESS_H

#include <string_view>
#include <vector>

#include "api/frontend.h"
#include "apps/app.h"
#include "core/apophenia.h"
#include "core/config.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/pipeline.h"

namespace apo::sim {

/** The three configurations of the paper's evaluation. */
enum class TracingMode {
    kUntraced,  ///< plain dynamic dependence analysis
    kManual,    ///< the application's own tbegin/tend annotations
    kAuto,      ///< Apophenia
};

std::string_view ModeName(TracingMode mode);

/** Which executor runs Apophenia's mining jobs in a kAuto experiment. */
enum class ExecutorMode {
    /** Jobs run synchronously at launch: deterministic, the
     * configuration every figure is reported with. */
    kInline,
    /** Jobs run on a PooledExecutor (background threads, completions
     * delivered at deterministic pump points): the throughput
     * configuration. Replay decisions may differ from kInline when
     * auto_config.ingest_mode is kOnCompletion (completion timing
     * moves ingestion positions); with kEagerDrain they are identical
     * and the two configurations cross-check each other. */
    kPooled,
};

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
    ExecutorMode executor_mode = ExecutorMode::kInline;
    std::size_t pool_threads = 2;  ///< used when kPooled
    /** What a trace replay does when the stream deviates from the
     * template: throw (Legion's strict mode) or degrade that fragment
     * to full dependence analysis (see rt::MismatchPolicy). */
    rt::MismatchPolicy mismatch_policy = rt::MismatchPolicy::kThrow;
    /** Trace-template retention bound of the runtime's TraceCache
     * (rt::RuntimeOptions::max_trace_templates; 0 = unlimited).
     * Evictions surface as ExperimentResult::trace_cache_evictions. */
    std::size_t max_trace_templates = 0;
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
     * annotations). Replicated mining always uses the deterministic
     * inline executor; completion *timing* is what `replication` and
     * `skew` simulate. */
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
    /** Share one content-addressed mining cache across the cluster's
     * nodes (behaviour-invariant dedup of the replicated mining work;
     * see core/mining_cache.h). */
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
     * StreamDigest (trivially true when replicas == 1). */
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
    /** Shared-mining-cache counters (replicated runs; zero when the
     * cache is off). Every mining-job probe is a hit (another node's
     * result adopted) or a miss (mined locally); `windows` counts
     * published mining runs, so misses == windows certifies each
     * distinct window was mined once cluster-wide. */
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
    /** Evictions from the shared mining cache (replicated runs;
     * policy: core::MiningCache::kEvictionPolicy) — nonzero only
     * under a finite mining_cache_windows bound, the analogue of
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
     * broadcast/batch counts, and digest-divergence fallbacks. */
    bool shared_decisions = false;
    std::uint64_t decision_ns = 0;
    std::uint64_t decision_apply_ns = 0;
    std::uint64_t decision_batches = 0;
    std::uint64_t decisions_broadcast = 0;
    std::uint64_t decision_fallbacks = 0;
};

/** Run `app` for `options.iterations` main-loop iterations and
 * simulate the resulting operation log on the machine model. */
ExperimentResult RunExperiment(apps::Application& app,
                               const ExperimentOptions& options);

}  // namespace apo::sim

#endif  // APOPHENIA_SIM_HARNESS_H
