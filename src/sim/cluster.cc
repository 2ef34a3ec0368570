#include "sim/cluster.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace apo::sim {

namespace {

std::uint64_t
NowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** ClusterOptions::jobs defaulting: explicit value, else the APO_JOBS
 * environment override, else the hardware. */
std::size_t
ResolveJobs(std::size_t jobs)
{
    if (jobs != 0) {
        return jobs;
    }
    if (const std::size_t env = ParseJobs(std::getenv("APO_JOBS"))) {
        return env;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** Retained mode: fold `log`'s rows from `cursor` on into `digest`
 * (a streaming consumer folds each row as it retires instead). */
void
FoldLog(const rt::OperationLog& log, std::size_t& cursor,
        StreamDigest& digest)
{
    for (; cursor < log.size(); ++cursor) {
        digest.Consume(log[cursor]);
    }
}

}  // namespace

std::size_t
ParseJobs(const char* value)
{
    if (value == nullptr) {
        return 0;
    }
    // std::from_chars takes no sign or whitespace, where std::strtoul
    // would read "-1" as 2^64-1 and skip leading blanks.
    const char* end = value + std::strlen(value);
    std::size_t parsed = 0;
    const auto [stop, ec] = std::from_chars(value, end, parsed);
    return ec == std::errc() && stop == end ? parsed : 0;
}

std::string_view
SkewName(SkewKind kind)
{
    switch (kind) {
      case SkewKind::kNone:
        return "none";
      case SkewKind::kJitter:
        return "jitter";
      case SkewKind::kStraggler:
        return "straggler";
      case SkewKind::kInterference:
        return "interference";
    }
    return "?";
}

StreamDigest
StreamDigest::Of(const rt::OperationLog& log)
{
    StreamDigest digest;
    for (const auto& op : log) {
        digest.Consume(op);
    }
    return digest;
}

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      // Never more threads than nodes: the fan-out unit is one node,
      // so extra workers could only park at every barrier.
      jobs_(std::min(ResolveJobs(options.jobs),
                     std::max<std::size_t>(1,
                                           options.coordination.nodes))),
      team_(jobs_)
{
    if (options_.coordination.nodes == 0) {
        options_.coordination.nodes = 1;
    }
    slack_ = options_.coordination.initial_slack;
    const std::size_t n_nodes = options_.coordination.nodes;
    // The shared decision engine replaces the per-node engines when
    // there is more than one node to share across and tracing is on
    // (a disabled front-end is a pass-through either way).
    const bool shared = options_.shared_decisions &&
                        options_.config.enabled && n_nodes > 1;
    // Fault tolerance rides on the shared engine: the decision tail a
    // rejoiner replays IS the broadcast log.
    if ((!options_.fault_plan.events.empty() ||
         options_.checkpoint_interval_tasks > 0) &&
        !shared) {
        throw rt::RuntimeUsageError(
            "cluster fault tolerance (fault plans, checkpoints) "
            "requires the shared decision engine");
    }
    for (const ClusterOptions::FaultEvent& event :
         options_.fault_plan.events) {
        if (event.node >= n_nodes) {
            throw rt::RuntimeUsageError(
                "fault plan names a node outside the roster");
        }
        if (event.rejoin_at_task <= event.crash_at_task) {
            throw rt::RuntimeUsageError(
                "fault plan rejoin must follow the crash");
        }
    }
    resync_enabled_ = shared && (!options_.fault_plan.events.empty() ||
                                 options_.fault.enabled ||
                                 options_.checkpoint_interval_tasks > 0);
    if (shared) {
        // The decider mines on the team: its workers run the queued
        // jobs between apply epochs, and IngestDueJobs ingests each at
        // its agreed position (running it there if no worker has). A
        // caller-only team (jobs_ == 1) runs every job inline.
        engine_ = std::make_unique<core::DecisionEngine>(
            options_.config, options_.runtime_options, &team_);
        if (options_.stream_logs) {
            engine_->DecisionRuntime().EnableLogStreaming(
                [this](const rt::OpView& op) {
                    engine_digest_.Consume(op);
                });
        }
    }
    // Sharing pays only when several per-node finders mine the same
    // stream.
    core::MiningCache* cache =
        options_.share_mining_cache && n_nodes > 1 ? &mining_cache_
                                                   : nullptr;
    nodes_.reserve(n_nodes);
    metrics_.resize(n_nodes);
    node_ns_.resize(n_nodes, 0);
    for (std::size_t n = 0; n < n_nodes; ++n) {
        auto node = std::make_unique<NodeState>(
            options_.runtime_options,
            options_.coordination.seed * 7919 + n);
        // Per-node engines mine inline; completion *timing* is
        // simulated by the coordinator either way. In shared-decision
        // mode the node hosts no engine at all — it applies the
        // decider's broadcast.
        if (!shared) {
            node->front_end = std::make_unique<core::Apophenia>(
                *node->runtime, options_.config, nullptr, cache);
            node->front_end->LeaveIngestionToOwner();
        }
        if (options_.stream_logs) {
            AttachStreamConsumer(*node);
        }
        nodes_.push_back(std::move(node));
    }
    team_.SetBody([this](std::size_t n) { RunNodePhase(n); });
    UpdateHorizon();
}

void
Cluster::AddLogConsumer(std::size_t node, rt::OperationLog::Consumer c)
{
    if (node >= nodes_.size()) {
        throw rt::RuntimeUsageError(
            "Cluster::AddLogConsumer: node index out of range");
    }
    if (!options_.stream_logs) {
        throw rt::RuntimeUsageError(
            "Cluster::AddLogConsumer requires stream_logs");
    }
    if (tasks_issued_ != 0) {
        throw rt::RuntimeUsageError(
            "Cluster::AddLogConsumer must precede the first launch");
    }
    nodes_[node]->extra = std::move(c);
}

void
Cluster::AttachStreamConsumer(NodeState& node)
{
    NodeState* state = &node;
    node.runtime->EnableLogStreaming([state](const rt::OpView& op) {
        state->digest.Consume(op);
        if (state->extra) {
            state->extra(op);
        }
    });
}

void
Cluster::DrainLogStreams()
{
    for (auto& node : nodes_) {
        if (node->runtime != nullptr) {
            node->runtime->DrainLogStream();
        }
    }
    if (engine_ != nullptr) {
        engine_->DecisionRuntime().DrainLogStream();
    }
}

void
Cluster::DoExecuteTask(const rt::TaskLaunchView& launch)
{
    // Buffer the launch into a recycled slot. The nodes advance in
    // batches: between coordination points they are independent, so
    // the serial per-task loop is deferred to the next barrier (see
    // ProcessBatch) where it fans out across the team — with results
    // byte-identical to stepping every node at every task. In
    // shared-decision mode the engine's retention ring IS the batch
    // buffer (the decider needs the launches past the barrier for
    // trace firing).
    if (engine_ != nullptr) {
        engine_->Buffer(launch);
    } else {
        if (batch_count_ == batch_.size()) {
            batch_.emplace_back();
        }
        batch_[batch_count_].Assign(launch);
    }
    ++batch_count_;
    ++tasks_issued_;
    if (tasks_issued_ >= horizon_) {
        ProcessBatch();
    }
}

void
Cluster::ProcessBatch()
{
    if (batch_count_ > 0) {
        batch_base_ = tasks_issued_ - batch_count_;
        ApplyMembershipEvents(batch_base_);
        ++batches_;
        if (engine_ != nullptr) {
            // Decide once on the driving thread (the timed quantity
            // that stays flat in N; the mining jobs it launches only
            // queue on the team), then fan the broadcast out.
            const std::uint64_t t0 = NowNs();
            engine_->DecideStaged();
            decision_ns_ += NowNs() - t0;
            decisions_broadcast_ += engine_->Decisions().size();
        }
        phase_ = NodePhase::kStep;
        team_.Run(nodes_.size());
        if (engine_ != nullptr) {
            RetainDecisionTail();
            CheckDigests();
            engine_->Retire();
        }
        batch_count_ = 0;
        if (options_.checkpoint_interval_tasks > 0 &&
            tasks_issued_ - checkpoint_task_ >=
                options_.checkpoint_interval_tasks) {
            TakeCheckpoint();
        }
    }
    // The nodes have caught up with the issued stream: make the
    // coordination decisions the serial schedule would have made at
    // (or before) this position. No job's ingestion point can fall
    // strictly inside a batch — UpdateHorizon bounds each batch by
    // the front job's due position and by the current slack, and a
    // job launched mid-batch is due no earlier than its launch
    // position plus the (monotonically non-decreasing) slack.
    ScheduleNewJobs();
    IngestDueJobs();
    UpdateHorizon();
}

void
Cluster::RunNodePhase(std::size_t n)
{
    NodeState& node = *nodes_[n];
    if (node.crashed) {
        return;  // a crashed node neither executes nor accrues time
    }
    switch (phase_) {
      case NodePhase::kStep: {
        NodeMetrics& metrics = metrics_[n];
        for (std::size_t i = 0; i < batch_count_; ++i) {
            // The node's virtual clock: a skewed node pays more time
            // per issued task (input tasks — identical in both
            // decision modes).
            metrics.virtual_time_tasks +=
                options_.skew.Factor(n, batch_base_ + i);
        }
        const std::uint64_t t0 = NowNs();
        if (engine_ != nullptr) {
            ApplyDecisions(n);
        } else {
            for (std::size_t i = 0; i < batch_count_; ++i) {
                node.front_end->ExecuteTask(batch_[i].View());
            }
        }
        node_ns_[n] += NowNs() - t0;
        break;
      }
      case NodePhase::kIngest: {
        const std::uint64_t t0 = NowNs();
        for (std::size_t k = 0; k < ingest_count_; ++k) {
            node.front_end->IngestOldestJob();
        }
        node_ns_[n] += NowNs() - t0;
        break;
      }
      case NodePhase::kDrainAndFlush: {
        const std::uint64_t t0 = NowNs();
        if (engine_ != nullptr) {
            ApplyDecisions(n);
        } else {
            for (std::size_t k = 0; k < ingest_count_; ++k) {
                node.front_end->IngestOldestJob();
            }
            node.front_end->Flush();
        }
        node_ns_[n] += NowNs() - t0;
        break;
      }
    }
}

rt::TaskLaunchView
Cluster::NodeLaunchView(std::size_t n, std::uint64_t index) const
{
    rt::TaskLaunchView view = engine_->LaunchAt(index);
    const ClusterOptions::FaultInjection& fault = options_.fault;
    if (fault.enabled && n == fault.node && index >= fault.from_task &&
        index < fault.until_task) {
        view.token ^= fault.token_xor;
    }
    return view;
}

void
Cluster::ApplyDecisions(std::size_t n)
{
    rt::Runtime& runtime = *nodes_[n]->runtime;
    for (const core::Decision& d : engine_->Decisions()) {
        switch (d.kind) {
          case core::Decision::Kind::kTask:
            runtime.ExecuteTask(NodeLaunchView(n, d.value));
            break;
          case core::Decision::Kind::kBegin:
            runtime.BeginTrace(d.value);
            break;
          case core::Decision::Kind::kEnd:
            runtime.EndTrace(d.value);
            break;
        }
    }
}

void
Cluster::CheckDigests()
{
    // Advance the incremental digests to the current barrier (the
    // streaming consumers already did; retained mode folds the new
    // log suffix here, each op exactly once) and compare every live
    // node against the decision runtime's reference.
    if (!options_.stream_logs) {
        FoldLog(engine_->DecisionRuntime().Log(), engine_cursor_,
                engine_digest_);
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        NodeState& node = *nodes_[n];
        if (node.crashed) {
            continue;
        }
        if (!options_.stream_logs) {
            FoldLog(node.runtime->Log(), node.digest_cursor, node.digest);
        }
        if (node.digest == engine_digest_) {
            node.healed = false;
        } else if (resync_enabled_ && !node.healed) {
            // Heal through the rejoin path: the retained tail already
            // holds this barrier's decisions.
            RejoinNode(n);
            node.healed = true;
            ++fault_stats_.heals;
        } else {
            // Diverged again right after its heal, or no tail to heal
            // from: evict. The runtime goes as in a crash, for good;
            // the digest stays frozen, so the divergence stays visible.
            node.runtime.reset();
            node.crashed = true;
            node.evicted = true;
            ++fault_stats_.evictions;
        }
    }
}

void
Cluster::UpdateHorizon()
{
    // The next position at which the serial schedule could act: the
    // front job's due point, else nothing before one slack's worth of
    // tasks (new jobs are agreed at launch + slack and slack never
    // shrinks), capped so the batch buffer stays small.
    std::uint64_t step = std::max<std::uint64_t>(1, slack_);
    step = std::min(step, kMaxBatchTasks);
    horizon_ = tasks_issued_ + step;
    if (!schedule_.empty()) {
        const JobSchedule& next = schedule_.front();
        horizon_ = std::min(horizon_,
                            std::max(next.agreed_at, next.ready_at));
    }
}

rt::RegionId
Cluster::CreateRegion()
{
    // Region calls broadcast immediately, so the buffered launches
    // must reach the nodes first to preserve per-node call order.
    // Cutting a batch early is always serial-equivalent. An Apophenia
    // region call is a pure runtime pass-through, so in shared mode
    // the nodes' runtimes take it directly (the decision runtime must
    // see it too, to stay a mirror).
    ProcessBatch();
    rt::RegionId region{};
    std::size_t first = 0;
    if (engine_ != nullptr) {
        region = engine_->DecisionRuntime().CreateRegion();
        RecordRegionEvent(
            ReplayEvent{.kind = ReplayEvent::Kind::kCreateRegion});
    } else {
        region = nodes_[0]->front_end->CreateRegion();
        first = 1;
    }
    for (std::size_t n = first; n < nodes_.size(); ++n) {
        if (nodes_[n]->crashed) {
            continue;
        }
        if (nodes_[n]->runtime->CreateRegion() != region) {
            throw rt::RuntimeUsageError(
                "cluster region allocators diverged on CreateRegion "
                "(a node was driven outside the cluster front end)");
        }
    }
    return region;
}

void
Cluster::DestroyRegion(rt::RegionId r)
{
    ProcessBatch();
    if (engine_ != nullptr) {
        engine_->DecisionRuntime().DestroyRegion(r);
        RecordRegionEvent(
            ReplayEvent{.kind = ReplayEvent::Kind::kDestroyRegion,
                        .value = r.value});
        for (auto& node : nodes_) {
            if (!node->crashed) {
                node->runtime->DestroyRegion(r);
            }
        }
        return;
    }
    for (auto& node : nodes_) {
        node->front_end->DestroyRegion(r);
    }
}

std::vector<rt::RegionId>
Cluster::PartitionRegion(rt::RegionId parent, std::size_t count)
{
    ProcessBatch();
    std::vector<rt::RegionId> subregions;
    std::size_t first = 0;
    if (engine_ != nullptr) {
        subregions =
            engine_->DecisionRuntime().PartitionRegion(parent, count);
        RecordRegionEvent(
            ReplayEvent{.kind = ReplayEvent::Kind::kPartitionRegion,
                        .value = parent.value,
                        .count = count});
    } else {
        subregions = nodes_[0]->front_end->PartitionRegion(parent, count);
        first = 1;
    }
    for (std::size_t n = first; n < nodes_.size(); ++n) {
        if (nodes_[n]->crashed) {
            continue;
        }
        if (nodes_[n]->runtime->PartitionRegion(parent, count) !=
            subregions) {
            throw rt::RuntimeUsageError(
                "cluster region allocators diverged on PartitionRegion "
                "(a node was driven outside the cluster front end)");
        }
    }
    return subregions;
}

void
Cluster::ScheduleNewJobs()
{
    // All nodes launch identical jobs at identical stream positions
    // (the mining schedule is a deterministic function of the
    // stream), so node 0's queue is representative. New jobs are
    // those beyond `jobs_seen_`.
    const CoordinationOptions& coord = options_.coordination;
    CoordinationSource().VisitPendingJobs(
        jobs_seen_, [&](const core::PendingJobInfo& job) {
            jobs_seen_ = job.id + 1;
            JobSchedule sched;
            sched.job_id = job.id;
            sched.agreed_at = job.issued_at + slack_;
            sched.completion.resize(nodes_.size());
            // Each node's asynchronous analysis completes after a
            // simulated, jittered number of further tasks — stretched
            // by the node's skew factor at launch — and the job is
            // globally ready only when the slowest node finishes.
            sched.ready_at = 0;
            for (std::size_t n = 0; n < nodes_.size(); ++n) {
                const double lo =
                    coord.mean_latency_tasks * (1.0 - coord.jitter);
                const double hi =
                    coord.mean_latency_tasks * (1.0 + coord.jitter);
                const double latency =
                    nodes_[n]->latency_rng.UniformReal(
                        std::max(0.0, lo), std::max(1.0, hi)) *
                    options_.skew.Factor(n, job.issued_at);
                sched.completion[n] =
                    job.issued_at + static_cast<std::uint64_t>(latency);
                sched.ready_at =
                    std::max(sched.ready_at, sched.completion[n]);
                if (sched.completion[n] > sched.agreed_at &&
                    !nodes_[n]->crashed) {
                    metrics_[n].late_jobs += 1;
                }
            }
            stats_.jobs_coordinated += 1;
            if (sched.ready_at > sched.agreed_at) {
                // Some node would stall at the agreed point: ingest
                // when actually ready, and widen the slack for future
                // jobs (the paper's adaptive count increase).
                stats_.late_jobs += 1;
                slack_ = std::max(
                    slack_ * 2,
                    sched.ready_at - sched.agreed_at + slack_);
            }
            schedule_.push_back(std::move(sched));
        });
    stats_.final_slack = slack_;
    stats_.peak_slack = std::max(stats_.peak_slack, slack_);
}

void
Cluster::IngestDueJobs()
{
    // Ingest in launch order once both the agreed point and global
    // readiness have passed — the same decision on every node. The
    // stall accounting happens here on the driving thread; the
    // per-node trie ingestion fans out through the team (per-node
    // order is launch order either way).
    ingest_count_ = 0;
    while (ingest_count_ < schedule_.size()) {
        const JobSchedule& next = schedule_[ingest_count_];
        const std::uint64_t due =
            std::max(next.agreed_at, next.ready_at);
        if (tasks_issued_ < due) {
            break;
        }
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
            if (nodes_[n]->crashed) {
                continue;
            }
            // A node is ready to ingest once both the agreed point
            // and its own completion have passed; it then idles until
            // the cluster-wide ingestion point (the slowest node
            // stalls no one, every other node stalls the difference).
            const std::uint64_t own =
                std::max(next.agreed_at, next.completion[n]);
            const double stall =
                due > own ? static_cast<double>(due - own) : 0.0;
            metrics_[n].stall_tasks += stall;
            metrics_[n].max_stall_tasks =
                std::max(metrics_[n].max_stall_tasks, stall);
        }
        ++ingest_count_;
    }
    if (ingest_count_ > 0) {
        if (engine_ != nullptr) {
            // One coordinated ingestion, on the decider (timed: part
            // of the shared decision path, including the run of a job
            // no worker has started, or the wait for one still
            // running).
            const std::uint64_t t0 = NowNs();
            for (std::size_t k = 0; k < ingest_count_; ++k) {
                engine_->Decider().IngestOldestJob();
            }
            decision_ns_ += NowNs() - t0;
        } else {
            phase_ = NodePhase::kIngest;
            team_.Run(nodes_.size());
        }
        schedule_.erase(schedule_.begin(),
                        schedule_.begin() +
                            static_cast<std::ptrdiff_t>(ingest_count_));
        ingest_count_ = 0;
    }
}

void
Cluster::DoFlush()
{
    // Catch the nodes up with the issued stream, then drain every
    // coordinated job and flush the front-ends (one barrier for the
    // whole per-node drain). The drain ingests jobs whose agreed
    // point lies beyond the end of the stream, so the stream-position
    // stall accounting does not apply — those positions never elapse.
    // The stall metrics describe in-stream agreement points only.
    ProcessBatch();
    if (engine_ != nullptr) {
        // The flush is a barrier too: fire the fault-plan points that
        // fell inside the last batch. Then drain the remaining
        // coordinated jobs into the decider and flush it — the final
        // decisions land in the broadcast log — and fan the last apply
        // out to the nodes.
        ApplyMembershipEvents(tasks_issued_);
        const std::uint64_t t0 = NowNs();
        const std::size_t remaining = schedule_.size();
        for (std::size_t k = 0; k < remaining; ++k) {
            engine_->Decider().IngestOldestJob();
        }
        engine_->FlushDecider();
        decision_ns_ += NowNs() - t0;
        decisions_broadcast_ += engine_->Decisions().size();
        phase_ = NodePhase::kDrainAndFlush;
        team_.Run(nodes_.size());
        RetainDecisionTail();
        CheckDigests();
        engine_->Retire();
    } else {
        ingest_count_ = schedule_.size();
        phase_ = NodePhase::kDrainAndFlush;
        team_.Run(nodes_.size());
    }
    schedule_.clear();
    ingest_count_ = 0;
    UpdateHorizon();
}

DecisionStats
Cluster::DecisionCost() const
{
    DecisionStats stats;
    stats.shared = engine_ != nullptr;
    stats.batches = batches_;
    stats.decisions = decisions_broadcast_;
    std::uint64_t node_total = 0;
    for (const std::uint64_t ns : node_ns_) {
        node_total += ns;
    }
    if (engine_ != nullptr) {
        stats.decision_ns = decision_ns_;
        stats.apply_ns = node_total;
    } else {
        stats.decision_ns = node_total;
    }
    return stats;
}

StreamDigest
Cluster::NodeDigest(std::size_t i) const
{
    const NodeState& node = *nodes_[i];
    if (options_.stream_logs || node.runtime == nullptr) {
        return node.digest;  // crashed: frozen at the crash point
    }
    // Retained mode: continue the node's incremental digest (which a
    // restore may have seeded mid-stream) over the rows it has not
    // folded yet. On a never-restored node the cursor starts at zero,
    // so this equals StreamDigest::Of(log).
    StreamDigest digest = node.digest;
    std::size_t at = node.digest_cursor;
    FoldLog(node.runtime->Log(), at, digest);
    return digest;
}

bool
Cluster::StreamDigestsAgree() const
{
    const StreamDigest reference = NodeDigest(0);
    for (std::size_t n = 1; n < nodes_.size(); ++n) {
        if (!(NodeDigest(n) == reference)) {
            return false;
        }
    }
    return true;
}

// -- Fault tolerance (fault::) ----------------------------------------------

void
Cluster::ApplyMembershipEvents(std::uint64_t at)
{
    // This barrier takes the points that fell due since the previous
    // one, so each fires exactly once: a point inside a batch fires at
    // the next barrier, and one inside the last batch at the flush.
    const auto due = [&](std::uint64_t point) {
        return events_from_ <= point && point <= at;
    };
    for (const ClusterOptions::FaultEvent& event :
         options_.fault_plan.events) {
        NodeState& node = *nodes_[event.node];
        if (!node.crashed && due(event.crash_at_task)) {
            // The node's process dies. Its latency rng keeps drawing
            // in ScheduleNewJobs so the roster-wide schedule — and
            // with it every healthy node's behaviour — stays
            // bit-identical to a churn-free run.
            node.runtime.reset();
            node.crashed = true;
            node.healed = false;
            ++fault_stats_.crashes;
        }
        if (node.crashed && !node.evicted && due(event.rejoin_at_task)) {
            RejoinNode(event.node);
            ++fault_stats_.rejoins;
        }
    }
    events_from_ = at + 1;
}

void
Cluster::RetainDecisionTail()
{
    if (!resync_enabled_) {
        return;
    }
    for (const core::Decision& d : engine_->Decisions()) {
        switch (d.kind) {
          case core::Decision::Kind::kTask: {
            ReplayEvent event;
            event.launch.Assign(engine_->LaunchAt(d.value));
            tail_.push_back(std::move(event));
            break;
          }
          case core::Decision::Kind::kBegin:
            tail_.push_back(ReplayEvent{
                .kind = ReplayEvent::Kind::kBegin,
                .recording = d.recording,
                .value = d.value,
            });
            break;
          case core::Decision::Kind::kEnd:
            tail_.push_back(ReplayEvent{
                .kind = ReplayEvent::Kind::kEnd,
                .value = d.value,
            });
            break;
        }
    }
}

void
Cluster::RecordRegionEvent(ReplayEvent event)
{
    if (resync_enabled_) {
        tail_.push_back(std::move(event));
    }
}

void
Cluster::TakeCheckpoint()
{
    // Any live node's state serves every future rejoiner: live nodes
    // are bit-identical by the barrier digest check that just ran
    // (their digests equal the decision runtime's, or they were healed
    // to it), and every live digest covers its node's whole log.
    const NodeState* source = nullptr;
    for (const auto& node : nodes_) {
        if (!node->crashed) {
            source = node.get();
            break;
        }
    }
    if (source == nullptr) {
        return;  // no healthy peer to snapshot; keep the old image
    }
    if (!source->runtime->Quiescent()) {
        // The barrier landed mid-trace; a snapshot here would be
        // illegal (Runtime::SaveState). Defer to the next barrier —
        // the tail simply keeps growing until a quiescent point.
        return;
    }
    fault::CheckpointWriter writer;
    writer.BeginSection(fault::SectionTag::kClusterNode);
    writer.U64(source->digest.RawState());
    writer.U64(source->digest.Count());
    writer.U64(tasks_issued_);
    writer.EndSection();
    source->runtime->SaveState(writer);
    checkpoint_image_ = writer.TakeImage();
    checkpoint_task_ = tasks_issued_;
    tail_.clear();
    ++fault_stats_.checkpoints_taken;
    fault_stats_.last_checkpoint_bytes = checkpoint_image_.size();
    fault_stats_.total_checkpoint_bytes += checkpoint_image_.size();
    // The virtual-time cost model: writing the image pauses every
    // alive node. Digests and decisions are unaffected.
    const double pause = kCheckpointPauseTasksPerKb *
                         static_cast<double>(checkpoint_image_.size()) /
                         1024.0;
    fault_stats_.checkpoint_pause_tasks += pause;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (!nodes_[n]->crashed) {
            metrics_[n].virtual_time_tasks += pause;
        }
    }
}

void
Cluster::RejoinNode(std::size_t n)
{
    NodeState& node = *nodes_[n];
    // Fresh process: new runtime, streaming consumer re-attached
    // before the restore (the restored log must already be in
    // streaming mode when LoadState checks it).
    node.runtime =
        std::make_unique<rt::Runtime>(options_.runtime_options);
    if (options_.stream_logs) {
        AttachStreamConsumer(node);
    }
    node.digest = StreamDigest{};
    node.digest_cursor = 0;
    if (!checkpoint_image_.empty()) {
        // Install the newest peer checkpoint: digest state first,
        // then the runtime image.
        fault::CheckpointReader reader(checkpoint_image_);
        reader.BeginSection(fault::SectionTag::kClusterNode);
        const std::uint64_t digest_state = reader.U64();
        const std::uint64_t digest_count = reader.U64();
        reader.U64();  // checkpoint stream position (informational)
        reader.EndSection();
        node.runtime->LoadState(reader);
        node.digest.Restore(digest_state, digest_count);
        node.digest_cursor = node.runtime->Log().size();
    }
    // Replay the decision tail since the checkpoint: the broadcast
    // every node applied while this one was away. After this the
    // node's runtime — and its digest — match the healthy peers
    // exactly, and the next barrier's digest check re-verifies it.
    for (const ReplayEvent& event : tail_) {
        switch (event.kind) {
          case ReplayEvent::Kind::kTask:
            node.runtime->ExecuteTask(event.launch.View());
            break;
          case ReplayEvent::Kind::kBegin:
            node.runtime->BeginTrace(event.value);
            break;
          case ReplayEvent::Kind::kEnd:
            node.runtime->EndTrace(event.value);
            break;
          case ReplayEvent::Kind::kCreateRegion:
            node.runtime->CreateRegion();
            break;
          case ReplayEvent::Kind::kDestroyRegion:
            node.runtime->DestroyRegion(rt::RegionId{event.value});
            break;
          case ReplayEvent::Kind::kPartitionRegion:
            node.runtime->PartitionRegion(rt::RegionId{event.value},
                                          event.count);
            break;
        }
    }
    fault_stats_.tail_events_replayed += tail_.size();
    if (!options_.stream_logs) {
        // Fold the replayed rows now, as a streaming consumer does: a
        // node healed at a barrier may be that barrier's checkpoint
        // source, whose image must pair its digest with its runtime.
        FoldLog(node.runtime->Log(), node.digest_cursor, node.digest);
    }
    node.crashed = false;
    // Cost model: the cluster stalls while the rejoiner installs the
    // image and catches up through the tail.
    const double stall =
        kCheckpointPauseTasksPerKb *
            static_cast<double>(checkpoint_image_.size()) / 1024.0 +
        kResyncTasksPerEvent * static_cast<double>(tail_.size());
    fault_stats_.recovery_stall_tasks += stall;
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
        if (!nodes_[k]->crashed) {
            metrics_[k].virtual_time_tasks += stall;
        }
    }
}

}  // namespace apo::sim
