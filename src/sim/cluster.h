/**
 * @file
 * Skew-aware multi-node cluster simulation with incremental stream
 * agreement (paper section 5.1 at scale).
 *
 * Under dynamic control replication the application runs on every
 * node and each node hosts its own Apophenia instance over its own
 * runtime shard; all instances must forward bit-identical call
 * sequences. The only source of divergence is the completion timing
 * of the asynchronous mining jobs, so the nodes agree, per job, on a
 * task-stream *position* at which its results are ingested — and a
 * node whose job has not completed by the agreed position forces the
 * whole cluster to stall until it has (after which the agreed slack
 * is widened for subsequent jobs).
 *
 * `sim::Cluster` is that protocol made measurable at scale. It owns
 * one `core::Apophenia` + `rt::Runtime` per simulated node, drives
 * them in lockstep through the one `api::Frontend` issue surface, and
 * runs every node under a *virtual clock* perturbed by a pluggable
 * `SkewModel`:
 *
 *  - kNone:         ideal nodes (the paper's configuration);
 *  - kJitter:       seeded per-task rate noise (OS scheduling,
 *                   network variance);
 *  - kStraggler:    one persistently slow node (a failing DIMM, a
 *                   thermally throttled GPU);
 *  - kInterference: periodic whole-node slowdown bursts (interfering
 *                   checkpoints, co-tenant interference).
 *
 * Skew slows both a node's task-issue rate and its mining jobs, so
 * agreement misses, per-node stalls and the adaptive slack trajectory
 * become observable outputs (`CoordinationStats`, `NodeMetrics`)
 * instead of hidden constants.
 *
 * **Incremental stream agreement.** The control-replication safety
 * property — all nodes issued identical streams — was previously
 * checked by an all-pairs walk over fully retained operation logs,
 * which is exactly what the streaming-retire log (bounded resident
 * memory) throws away. `StreamDigest` replaces it: a per-node rolling
 * hash over every issued call (token, analysis mode, trace id,
 * dependence edges), fed incrementally from each node's streaming-
 * retire consumer in O(1) amortized time and zero allocations per
 * operation. Digests agree ⇔ streams identical (up to hash
 * collision), at constant memory per node — so control replication
 * now composes with `sim::LogMode::kStreaming`.
 *
 * **Parallel execution engine.** Nodes are independent between
 * coordination points (each owns its runtime shard, finder and trie;
 * they interact only through the agreed-count schedule, which this
 * class computes centrally), so the cluster batches the issued stream
 * up to the next point at which the serial schedule could act — the
 * front job's due position, bounded by the current slack and
 * `kMaxBatchTasks` — and fans the per-node advance loops over a
 * `support::TaskTeam` with a barrier at every batch end.
 * Scheduling and ingestion decisions stay on the driving thread, so
 * every observable (digests, CoordinationStats, NodeMetrics, the
 * per-node rng draws) is byte-identical to the serial schedule at any
 * thread count, including jobs = 1 (which runs inline). The thread
 * count comes from `ClusterOptions::jobs` (0 = the APO_JOBS
 * environment override, else hardware_concurrency), and the cluster
 * starts no other thread.
 *
 * **Shared mining cache.** In a control-replicated run every node
 * mines the same windows of the same stream; a cluster-wide
 * `core::MiningCache` (content-addressed by each slice's rolling
 * hash; hits detected, never assumed) lets node k adopt the first
 * finisher's candidate set, so each distinct window is mined once
 * cluster-wide instead of N times — the dominant cost of a no-skew
 * replicated run. Adoption is bit-identical to local mining (MineSlice
 * is pure), so the cache changes wall-clock only.
 *
 * **Shared decision engine.** The mining cache still left trie
 * matching, candidate ingestion and replay decisions paid N times on
 * byte-identical streams. With `ClusterOptions::shared_decisions`
 * (default on; per-node-mode tests and benches disable it), the
 * cluster hosts no per-node Apophenia at all:
 * one `core::DecisionEngine` consumes the issued stream exactly once
 * on the driving thread and broadcasts POD decision events — riding
 * the same safe-horizon batches — which the team fan-out merely
 * *applies* to each node's runtime. Total decision cost becomes O(1)
 * in N; the issued streams, digests, CoordinationStats and candidate
 * digests are bit-identical to per-node engines. The decider mines
 * asynchronously (paper section 4.3) on the same team: its jobs queue
 * there and idle workers run them between apply epochs, whose barrier
 * waits only for the workers that joined, so mining overlaps the
 * fan-out instead of running before it. Each job is still ingested at
 * its agreed position — the driving thread runs it there if no worker
 * has started it and waits if one is running it — so the decisions
 * are the same at every thread count. Soundness is not
 * assumed: each node's incremental StreamDigest is compared against
 * the decision runtime's at every barrier, and a diverged node is
 * healed or evicted (below) while the healthy nodes continue
 * bit-identically.
 *
 * **Elastic membership (fault::).** A `ClusterOptions::FaultPlan`
 * schedules node crashes and rejoins; `checkpoint_interval_tasks`
 * arms periodic cluster checkpoints (one healthy node's runtime image
 * plus stream digest, written with `fault::CheckpointWriter`). A
 * rejoining node resyncs from a healthy peer: it installs the newest
 * checkpoint and replays the decision tail retained since it, after
 * which its incremental digest — restored from the image and advanced
 * by the replay — re-enters the per-barrier soundness check. The same
 * path is the one recovery for a diverged node: the barrier whose
 * digest check detects it rebuilds it from the newest checkpoint plus
 * the retained tail, which already holds that barrier's decisions
 * (`FaultStats::heals`). A node that diverges again at the next
 * barrier after its heal is evicted, and so is any diverged node of a
 * cluster that retains no tail (no fault plan, injection or
 * checkpoint interval: only a bug can diverge a node there). Eviction
 * drops the runtime as a crash does, for good
 * (`FaultStats::evictions`); the evicted node's digest stays frozen,
 * so StreamDigestsAgree() reports the divergence. The coordination
 * schedule remains a function of the full fixed roster, so healthy
 * nodes run bit-identically to a churn-free run; checkpoint writes
 * and resync stalls are charged to the virtual clocks only (see the
 * cost model in Cluster and `FaultStats`).
 */
#ifndef APOPHENIA_SIM_CLUSTER_H
#define APOPHENIA_SIM_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "api/frontend.h"
#include "core/apophenia.h"
#include "core/config.h"
#include "core/decision_engine.h"
#include "core/mining_cache.h"
#include "fault/checkpoint.h"
#include "runtime/runtime.h"
#include "sim/skew.h"
#include "support/executor.h"
#include "support/hash.h"
#include "support/rng.h"

namespace apo::sim {

/** Tuning of the agreed-count coordination protocol. */
struct CoordinationOptions {
    std::size_t nodes = 2;
    std::uint64_t seed = 1;
    /** Mean simulated mining-job latency, measured in observed tasks
     * (before the skew factor). */
    double mean_latency_tasks = 200.0;
    /** Relative jitter: latency is uniform in mean*(1 ± jitter). */
    double jitter = 0.75;
    /** Initial agreed slack (operations between job launch and its
     * ingestion point). */
    std::uint64_t initial_slack = 64;
};

/** Aggregate statistics of the coordination protocol. */
struct CoordinationStats {
    std::uint64_t jobs_coordinated = 0;
    /** Jobs whose agreed point arrived before every node finished
     * (the agreement misses that force a slack increase). */
    std::uint64_t late_jobs = 0;
    std::uint64_t final_slack = 0;
    /** Largest slack the adaptation ever reached. */
    std::uint64_t peak_slack = 0;
};

/** Aggregate decision-path accounting of one cluster run. */
struct DecisionStats {
    /** True when the run used the shared decision engine. */
    bool shared = false;
    /** Cluster-wide nanoseconds spent *making* decisions: the shared
     * decider's feed + coordinated-ingest + flush time on the driving
     * thread, or (per-node mode) the summed per-node engine time —
     * the quantity that grows ~linearly in N with per-node engines
     * and stays ~flat with the shared engine. With jobs >= 2 the
     * shared decider's mining that overlaps the apply fan-out is not
     * in it; a job run or waited for at its ingestion is. */
    std::uint64_t decision_ns = 0;
    /** Shared mode only: summed nanoseconds the nodes spent applying
     * broadcast decisions (per-node mode folds the equivalent work
     * into decision_ns). */
    std::uint64_t apply_ns = 0;
    /** Safe-horizon batch barriers executed. */
    std::uint64_t batches = 0;
    /** Decision events broadcast (0 in per-node mode). */
    std::uint64_t decisions = 0;
};

/** Per-node observables of one cluster run. */
struct NodeMetrics {
    /** The node's virtual clock after the run: sum of per-task skew
     * factors (== tasks issued on an ideal node). */
    double virtual_time_tasks = 0.0;
    /** Jobs *this node* completed past the agreed point (it made the
     * others wait). */
    std::uint64_t late_jobs = 0;
    /** Stream positions this node spent stalled at *in-stream*
     * agreement points, waiting for slower nodes (the end-of-stream
     * drain ingests at positions that never elapse and is not
     * charged). */
    double stall_tasks = 0.0;
    double max_stall_tasks = 0.0;
};

/**
 * Incremental digest of one node's issued call stream: a rolling
 * hash over (token, analysis mode, trace id, dependence edges) of
 * every operation, in log order. Equal digests (value and count) on
 * every node certify the control-replication safety property without
 * retaining any log — feed it from the streaming-retire consumer.
 * Consume() is O(1 + edges) with zero allocations.
 *
 * Each operation is mixed in independent lanes — its token, its
 * (mode, trace) pair, and each edge's (from, to, kind) together with
 * the edge's position in the operation — so the rounds overlap
 * instead of each waiting on the last. An edge enters one SplitMix64
 * round through from·K1 + to·K2 + (position << 8 | kind); the odd
 * multipliers make any single-field change move that input. The edge
 * lane is a sum, and the position keeps it order-sensitive within
 * the operation. The lanes are combined with the edge count, and only
 * that one value is chained into the running state, which keeps the
 * digest order-sensitive across operations.
 */
class StreamDigest {
  public:
    void Consume(const rt::OpView& op)
    {
        const std::uint64_t token = support::SplitMix64(op.token);
        const std::uint64_t tag = support::HashCombine(
            static_cast<std::uint64_t>(op.mode), op.trace);
        std::uint64_t edges = op.dependences.size();
        std::uint64_t at = 0;
        for (const rt::Dependence& d : op.dependences) {
            edges += support::SplitMix64(
                d.from * kFromMultiplier + d.to * kToMultiplier +
                (at++ << 8 | static_cast<std::uint64_t>(d.kind)));
        }
        state_ = support::HashCombine(
            state_, support::HashCombine(token ^ tag, edges));
        ++count_;
    }

    std::uint64_t Value() const { return state_; }
    std::uint64_t Count() const { return count_; }

    /** Raw fold state, for checkpointing (Value() without the count;
     * Restore() round-trips it). */
    std::uint64_t RawState() const { return state_; }
    /** Reset to a checkpointed (state, count) pair: subsequent
     * Consume() calls continue the fold exactly where the saved
     * digest left off. */
    void Restore(std::uint64_t state, std::uint64_t count)
    {
        state_ = state;
        count_ = count;
    }

    friend bool operator==(const StreamDigest&,
                           const StreamDigest&) = default;

    /** Digest of a retained log (the same fold, run post-hoc). */
    static StreamDigest Of(const rt::OperationLog& log);

  private:
    static constexpr std::uint64_t kFromMultiplier = 0x9e3779b97f4a7c15ULL;
    static constexpr std::uint64_t kToMultiplier = 0xc2b2ae3d27d4eb4fULL;

    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
    std::uint64_t count_ = 0;
};

/** Cluster construction parameters. */
struct ClusterOptions {
    CoordinationOptions coordination;
    SkewModel skew;
    /** Per-node front-end tuning; config.enabled == false replicates
     * with tracing disabled (every node a pass-through). */
    core::ApopheniaConfig config;
    rt::RuntimeOptions runtime_options;
    /** Put every node's operation log in streaming-retire mode: the
     * per-node StreamDigest is fed incrementally and blocks recycle,
     * so resident log memory stays bounded on all N nodes regardless
     * of stream length. Extra consumers (the harness's simulator)
     * attach via AddLogConsumer before the first launch. */
    bool stream_logs = false;
    /** Threads of the cluster, the driving thread included: they run
     * the per-node advance loops (the parallel engine; see file
     * comment) and, under shared decisions, the decider's mining
     * jobs between those loops. 0 = the APO_JOBS environment
     * variable if ParseJobs accepts it, else
     * std::thread::hardware_concurrency();
     * always clamped to the node count. Every value yields
     * byte-identical results; 1 is the serial schedule run inline,
     * mining included. */
    std::size_t jobs = 0;
    /** Per-node mode: share one content-addressed mining cache (the
     * default core::MiningCache bound) across the nodes so identical
     * history windows are mined once cluster-wide (see
     * core/mining_cache.h); when false each node's finder keeps a
     * private memo. Inert under shared decisions, where the one
     * decider mines into its private memo. Behaviour-invariant;
     * wall-clock only. */
    bool share_mining_cache = true;
    /** Use the shared decision engine (see file comment): one decider
     * consumes the stream once and the nodes apply its broadcast
     * decisions, with per-barrier digest checks. Active only when
     * tracing is enabled and the cluster has more than one node;
     * otherwise (or when false) every node hosts its own Apophenia.
     * Bit-identical either way. */
    bool shared_decisions = true;
    /** Test-only fault injection: on absolute stream indices in
     * [from_task, until_task), node `node` applies launches with
     * their token XORed by `token_xor` — a corrupted replica. The
     * digest check must detect it (shared-decision mode) and heal it,
     * or evict it if the corruption outlasts its heal (see the file
     * comment). */
    struct FaultInjection {
        bool enabled = false;
        std::size_t node = 0;
        std::uint64_t from_task = 0;
        std::uint64_t until_task = UINT64_MAX;
        rt::TokenHash token_xor = 0;
    };
    FaultInjection fault;

    // -- Elastic membership (fault::) ---------------------------------------

    /** One scheduled crash/rejoin of the fault plan. The node crashes
     * (its runtime is destroyed) at the first barrier at or after
     * stream index `crash_at_task`: the one that starts the first
     * batch at or past it, or else the flush. If `rejoin_at_task` is
     * finite, the node rejoins at the first barrier at or after that
     * index, which may be the crash's own, by resyncing from a
     * healthy peer: it installs the newest cluster checkpoint and
     * replays the retained decision tail since it. A point past the
     * final flush never fires. Healthy nodes continue bit-identically
     * to a churn-free run — the coordination schedule keeps drawing
     * every roster member's latency, crashed or not. */
    struct FaultEvent {
        std::size_t node = 0;
        std::uint64_t crash_at_task = 0;
        std::uint64_t rejoin_at_task = UINT64_MAX;  ///< never
    };
    /** Scheduled membership churn. Requires the shared decision
     * engine (the decision tail is what a rejoiner replays). */
    struct FaultPlan {
        std::vector<FaultEvent> events;
    };
    FaultPlan fault_plan;

    /** Take a cluster checkpoint (the newest healthy node's runtime
     * image + stream digest, via fault::CheckpointWriter) every this
     * many issued tasks; 0 = never. Rejoining nodes install the
     * newest image and replay the decision tail retained since it;
     * with no image they replay the full tail from stream start.
     * Requires the shared decision engine. */
    std::uint64_t checkpoint_interval_tasks = 0;
};

/** The thread count an `APO_JOBS` value asks for: a whole decimal
 * number of at least 1, or 0 for anything else (unset, signed,
 * padded, followed by other text, or zero), which callers ignore.
 * ClusterOptions::jobs == 0 resolves through it, and the bench records
 * pin what it returns. */
std::size_t ParseJobs(const char* value);

/** Aggregate fault-tolerance accounting of one cluster run. */
struct FaultStats {
    std::uint64_t checkpoints_taken = 0;
    std::uint64_t last_checkpoint_bytes = 0;
    std::uint64_t total_checkpoint_bytes = 0;
    std::uint64_t crashes = 0;
    std::uint64_t rejoins = 0;  ///< scheduled rejoins (crash recovery)
    std::uint64_t heals = 0;    ///< rejoins at a diverging barrier
    /** Nodes dropped for good: diverged again right after a heal, or
     * diverged in a cluster that retains no decision tail. */
    std::uint64_t evictions = 0;
    std::uint64_t tail_events_replayed = 0;
    /** Virtual tasks charged to alive nodes for checkpoint writes and
     * for resync stalls (see the cost model in Cluster). */
    double checkpoint_pause_tasks = 0.0;
    double recovery_stall_tasks = 0.0;
};

/**
 * N Apophenia instances over N runtime shards, fed the same stream
 * through the one api::Frontend issue surface, with deterministic
 * skew-aware coordinated analysis ingestion. See file comment.
 */
class Cluster final : public api::Frontend {
  public:
    explicit Cluster(const ClusterOptions& options);

    // -- api::Frontend: broadcast region management -------------------------

    std::string_view Name() const override { return "cluster"; }

    /** Create the region on every node; the deterministic per-node
     * allocators must agree on the id (throws rt::RuntimeUsageError
     * if they have diverged — i.e., a node was driven outside this
     * front end). */
    rt::RegionId CreateRegion() override;
    void DestroyRegion(rt::RegionId r) override;
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override;

    // -- Introspection ------------------------------------------------------

    std::size_t Nodes() const { return nodes_.size(); }
    /** Node i's front-end engine. Per-node mode only — in shared-
     * decision mode the nodes host no engine (the decider makes every
     * decision; see Decider()). */
    core::Apophenia& Node(std::size_t i)
    {
        if (nodes_[i]->front_end == nullptr) {
            throw rt::RuntimeUsageError(
                "Cluster::Node: shared-decision mode hosts no per-node "
                "engine (see ClusterOptions::shared_decisions; use "
                "Decider())");
        }
        return *nodes_[i]->front_end;
    }
    const core::Apophenia& Node(std::size_t i) const
    {
        return const_cast<Cluster*>(this)->Node(i);
    }
    const rt::Runtime& NodeRuntime(std::size_t i) const
    {
        if (nodes_[i]->runtime == nullptr) {
            throw rt::RuntimeUsageError(
                nodes_[i]->evicted
                    ? "Cluster::NodeRuntime: node was evicted (its "
                      "stream digest diverged from the shared decisions)"
                    : "Cluster::NodeRuntime: node is down (crashed by "
                      "the fault plan)");
        }
        return *nodes_[i]->runtime;
    }

    // -- Shared decision engine ---------------------------------------------

    /** True when this run uses the shared decision engine. */
    bool SharedDecisions() const { return engine_ != nullptr; }
    /** The shared decider (shared-decision mode only): its stats,
     * finder and candidate digest are what Node(0)'s would have been
     * in per-node mode — bit-identical by construction. */
    const core::Apophenia& Decider() const
    {
        if (engine_ == nullptr) {
            throw rt::RuntimeUsageError(
                "Cluster::Decider: per-node mode has no shared decision "
                "engine (see ClusterOptions::shared_decisions)");
        }
        return engine_->Decider();
    }
    /** The shared decider's private decision runtime (its TraceCache
     * mirror, fed the same calls as every node); nullptr in per-node
     * mode. */
    const rt::Runtime* DecisionRuntime() const
    {
        return engine_ != nullptr ? &engine_->DecisionRuntime() : nullptr;
    }
    /** Decision-path cost accounting (both modes). */
    DecisionStats DecisionCost() const;

    // -- Fault tolerance (fault::) ------------------------------------------

    /** True iff node i is currently down: between its fault-plan
     * crash and rejoin points, or evicted. */
    bool NodeCrashed(std::size_t i) const { return nodes_[i]->crashed; }
    /** Checkpoint / membership accounting. */
    const FaultStats& FaultRecovery() const { return fault_stats_; }
    /** The newest cluster checkpoint image (empty if none taken). */
    const std::vector<std::uint8_t>& CheckpointImage() const
    {
        return checkpoint_image_;
    }
    const CoordinationStats& Coordination() const { return stats_; }
    const std::vector<NodeMetrics>& PerNode() const { return metrics_; }
    const ClusterOptions& Options() const { return options_; }
    /** Resolved thread count of the parallel engine (after the
     * APO_JOBS / hardware_concurrency defaulting). */
    std::size_t Jobs() const { return jobs_; }
    /** Shared-mining-cache counters (all zero when the cache is
     * disabled or the run mined nothing). */
    core::MiningCache::Stats MiningCacheStats() const
    {
        return mining_cache_.Snapshot();
    }

    // -- Stream agreement ---------------------------------------------------

    /** Node i's incremental stream digest. Streaming mode: the digest
     * of the retired prefix (call DrainLogStreams() at end of stream
     * first). Retained mode: computed from the log on each call. */
    StreamDigest NodeDigest(std::size_t i) const;

    /** The safety property, via digests: every node's digest equals
     * node 0's. Works in both log modes at O(1) resident memory per
     * node when streaming. */
    bool StreamDigestsAgree() const;

    // -- Streaming-retire plumbing ------------------------------------------

    /** Attach an extra streaming consumer (after the digest) to node
     * `node`'s log. Requires ClusterOptions::stream_logs and must be
     * called before the first launch. */
    void AddLogConsumer(std::size_t node, rt::OperationLog::Consumer c);

    /** Drain every node's completed operations to its consumers (end
     * of stream; no-op in retained mode). */
    void DrainLogStreams();

  protected:
    /** Issue one task on every node (control replication: the
     * application issues the same stream everywhere). */
    void DoExecuteTask(const rt::TaskLaunchView& launch) override;

    /** A control-replicated port runs without manual annotations;
     * any that remain are dropped (and counted) on every node. */
    bool DoBeginTrace(rt::TraceId) override { return false; }
    bool DoEndTrace(rt::TraceId) override { return false; }

    /** End-of-stream on every node. */
    void DoFlush() override;

  private:
    struct NodeState {
        /** Null while the node is crashed (its process is gone);
         * rebuilt from a peer checkpoint on rejoin. */
        std::unique_ptr<rt::Runtime> runtime;
        /** Per-node mode: the node's Apophenia. Null in
         * shared-decision mode. */
        std::unique_ptr<core::Apophenia> front_end;
        support::Rng latency_rng;
        StreamDigest digest;  ///< fed by the streaming consumer
        /** Retained mode: next log index the barrier digest check
         * folds (shared-decision mode keeps the digest incremental
         * without streaming). */
        std::size_t digest_cursor = 0;
        bool crashed = false;
        bool evicted = false;  ///< crashed for good (never rejoins)
        /** Healed at the last digest check: set when a divergence
         * rejoins it, cleared by the next matching check. */
        bool healed = false;
        rt::OperationLog::Consumer extra;  ///< harness attachment

        NodeState(const rt::RuntimeOptions& rt_options, std::uint64_t seed)
            : runtime(std::make_unique<rt::Runtime>(rt_options)),
              latency_rng(seed)
        {
        }
    };

    /** Per-job coordination record. */
    struct JobSchedule {
        std::uint64_t job_id = 0;
        std::uint64_t agreed_at = 0;  ///< task count for ingestion
        std::uint64_t ready_at = 0;   ///< max simulated completion
        /** Per-node completion positions (stall accounting). */
        std::vector<std::uint64_t> completion;
    };

    /** What RunNodePhase does for one node of the current barrier. */
    enum class NodePhase {
        kStep,           ///< advance through the buffered batch
        kIngest,         ///< ingest the first ingest_count_ due jobs
        kDrainAndFlush,  ///< end-of-stream: drain schedule + Flush
    };

    /** Run the buffered batch on every node (one TaskTeam barrier),
     * then schedule/ingest at the caught-up stream position and pick
     * the next horizon. Serial-schedule equivalent at any point. */
    void ProcessBatch();
    void RunNodePhase(std::size_t n);  ///< the TaskTeam body
    void UpdateHorizon();

    void ScheduleNewJobs();
    void IngestDueJobs();

    // -- Shared-decision-mode helpers ---------------------------------------

    /** The engine whose pending-job queue drives coordination: the
     * decider in shared mode, node 0 otherwise. */
    const core::Apophenia& CoordinationSource() const
    {
        return engine_ != nullptr ? engine_->Decider()
                                  : *nodes_[0]->front_end;
    }
    /** Node n's view of the retained launch at absolute index
     * `index`, with the fault injection applied if armed. */
    rt::TaskLaunchView NodeLaunchView(std::size_t n,
                                      std::uint64_t index) const;
    /** Replay the decider's broadcast decisions into node n's
     * runtime (team body, shared mode). */
    void ApplyDecisions(std::size_t n);
    /** Barrier soundness check: every live node's incremental
     * digest must equal the decision runtime's; a diverged node is
     * healed or evicted (see the file comment). Call after
     * RetainDecisionTail(), so a heal replays this barrier too. */
    void CheckDigests();

    // -- Fault-tolerance helpers (fault::) ----------------------------------

    /** One event of the retained decision tail: a runtime-bound call
     * every node received since the newest checkpoint, materialized
     * so a rejoiner can replay it into a restored runtime. Only the
     * fields of its kind are current: a recycled slot keeps the rest,
     * its launch's requirement capacity included. */
    struct ReplayEvent {
        enum class Kind : std::uint8_t {
            kTask,
            kBegin,
            kEnd,
            kCreateRegion,
            kDestroyRegion,
            kPartitionRegion,
        };
        Kind kind = Kind::kTask;
        bool recording = false;   ///< kBegin
        std::uint64_t value = 0;  ///< trace id / region id / parent
        std::uint64_t count = 0;  ///< kPartitionRegion
        rt::LaunchSlot launch{};  ///< kTask
    };

    /** Attach the streaming digest consumer to the node's (fresh or
     * restored) runtime. */
    void AttachStreamConsumer(NodeState& node);
    /** Fire the fault-plan crashes and rejoins due by the barrier at
     * stream position `at` (an evicted node never rejoins). */
    void ApplyMembershipEvents(std::uint64_t at);
    /** Materialize the current decision round into the retained tail
     * (call before Retire()). */
    void RetainDecisionTail();
    void RecordRegionEvent(ReplayEvent::Kind kind, std::uint64_t value = 0,
                           std::uint64_t count = 0);
    /** Append a `kind` event to the tail in a recycled slot. */
    ReplayEvent& NextTailEvent(ReplayEvent::Kind kind);
    /** Snapshot the first healthy node into checkpoint_image_ and
     * clear the tail. */
    void TakeCheckpoint();
    /** Rebuild node n from the newest checkpoint + retained tail and
     * return it to the shared-decision broadcast. */
    void RejoinNode(std::size_t n);

    /** Cap on buffered launches between barriers when the agreed
     * slack grows large. Any positive value is result-identical; it
     * trades barrier frequency against buffer memory. */
    static constexpr std::uint64_t kMaxBatchTasks = 256;
    /** Virtual-time model of checkpoint/recovery cost. Writing a
     * checkpoint pauses every alive node for this many virtual tasks
     * per KiB of image; a rejoin stalls the whole cluster for the
     * install (same per-KiB rate) plus kResyncTasksPerEvent per
     * replayed decision-tail event. Purely an output model: digests
     * and decisions are unaffected. */
    static constexpr double kCheckpointPauseTasksPerKb = 0.25;
    static constexpr double kResyncTasksPerEvent = 0.05;

    ClusterOptions options_;
    core::MiningCache mining_cache_;
    std::size_t jobs_ = 1;    ///< resolved ClusterOptions::jobs
    /** Per-node fan-out (jobs_ threads) and the shared decider's
     * mining executor. Declared before engine_, so the decider's
     * finder drains it before it is destroyed. */
    support::TaskTeam team_;
    /** Non-null iff the run uses the shared decision engine. */
    std::unique_ptr<core::DecisionEngine> engine_;
    /** Incremental digest of the decision runtime's stream — the
     * reference the per-node digests are checked against at every
     * barrier. Streaming mode feeds it from the decision runtime's
     * retire consumer; retained mode folds via engine_cursor_. */
    StreamDigest engine_digest_;
    std::size_t engine_cursor_ = 0;
    std::vector<std::unique_ptr<NodeState>> nodes_;
    std::deque<JobSchedule> schedule_;  ///< FIFO of uningested jobs
    std::uint64_t tasks_issued_ = 0;
    std::uint64_t slack_ = 0;
    std::uint64_t jobs_seen_ = 0;
    CoordinationStats stats_;
    std::vector<NodeMetrics> metrics_;

    // -- Decision-path accounting (see DecisionStats) -----------------------
    std::uint64_t decision_ns_ = 0;  ///< shared decider, driving thread
    /** Per-node engine time (per-node mode) or apply time (shared
     * mode); workers write their own slot, barriers publish. */
    std::vector<std::uint64_t> node_ns_;
    std::uint64_t decisions_broadcast_ = 0;
    std::uint64_t batches_ = 0;

    // -- Fault-tolerance state (see ClusterOptions) -------------------------
    /** True when the run retains the decision tail (a fault plan,
     * fault injection, or checkpointing is configured). */
    bool resync_enabled_ = false;
    /** The decisions since the checkpoint: the live prefix
     * [0, tail_count_) of recycled slots, so retaining them allocates
     * nothing once the slots have held a window's worth. */
    std::vector<ReplayEvent> tail_;
    std::size_t tail_count_ = 0;
    std::vector<std::uint8_t> checkpoint_image_;
    std::uint64_t checkpoint_task_ = 0;  ///< stream position of the image
    /** The first stream index whose fault-plan points are still to
     * fire: the previous barrier's position plus one. */
    std::uint64_t events_from_ = 0;
    FaultStats fault_stats_;

    // -- Parallel-engine batch state (see file comment) ---------------------
    NodePhase phase_ = NodePhase::kStep;
    /** Per-node mode's buffered batch: recycled launch slots, so
     * buffering is allocation-free in steady state. */
    std::vector<rt::LaunchSlot> batch_;
    std::size_t batch_count_ = 0;  ///< live prefix of batch_
    std::uint64_t batch_base_ = 0;  ///< absolute index of batch_[0]
    std::uint64_t horizon_ = 0;     ///< process when issued reaches this
    std::size_t ingest_count_ = 0;  ///< due jobs per node this barrier
};

}  // namespace apo::sim

#endif  // APOPHENIA_SIM_CLUSTER_H
