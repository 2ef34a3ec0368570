/**
 * @file
 * Tests for the shared decision engine (core/decision_engine.h) and
 * its cluster wiring (sim/cluster.h):
 *
 *  - the engine's decider, fed the same stream at the same ingestion
 *    positions, is bit-identical to a directly driven Apophenia, and
 *    a runtime applying the broadcast Decision events reproduces the
 *    reference runtime's operation stream exactly;
 *  - the steady-state Buffer/DecideStaged/Retire loop is
 *    allocation-free (this TU owns the binary's counting global
 *    operator new): the retention ring, decision log and streaming
 *    decision runtime all recycle;
 *  - shared-decision replicated runs are bit-identical to per-node
 *    runs across every application skeleton, every skew model and
 *    parallel-engine thread count;
 *  - the decider's mining on the cluster's worker team changes
 *    nothing at jobs {2, 8} against inline mining at jobs 1, also
 *    when every job falls due at the next barrier; a mining job that
 *    fails surfaces as its exception where it is ingested, and the
 *    decider drains its queued jobs before its executor goes;
 *  - a 64-node streaming run broadcasts from one decider while every
 *    node stays under the resident-log ceiling.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/apophenia.h"
#include "core/config.h"
#include "core/decision_engine.h"
#include "sim/cluster.h"
#include "sim/harness.h"
#include "support/counting_allocator.h"
#include "support/executor.h"
#include "streams_identical.h"

namespace apo::sim {
namespace {

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 400;
    config.multi_scale_factor = 50;
    return config;
}

ClusterOptions SmallClusterOptions(std::size_t nodes)
{
    ClusterOptions options;
    options.coordination.nodes = nodes;
    options.config = SmallConfig();
    return options;
}

void DriveLoop(Cluster& fe, int iterations, int body)
{
    std::vector<rt::RegionId> regions;
    for (int i = 0; i < body; ++i) {
        regions.push_back(fe.CreateRegion());
    }
    for (int iter = 0; iter < iterations; ++iter) {
        for (int i = 0; i < body; ++i) {
            fe.ExecuteTask(rt::TaskLaunch{
                static_cast<rt::TaskId>(100 + i),
                {{regions[i], 0, rt::Privilege::kReadOnly, 0},
                 {regions[(i + 1) % body], 0, rt::Privilege::kReadWrite,
                  0}}});
        }
    }
    fe.Flush();
}

void ExpectSameApopheniaStats(const core::ApopheniaStats& a,
                              const core::ApopheniaStats& b)
{
    EXPECT_EQ(a.tasks_observed, b.tasks_observed);
    EXPECT_EQ(a.tasks_forwarded_traced, b.tasks_forwarded_traced);
    EXPECT_EQ(a.tasks_forwarded_untraced, b.tasks_forwarded_untraced);
    EXPECT_EQ(a.traces_fired, b.traces_fired);
    EXPECT_EQ(a.trace_records, b.trace_records);
    EXPECT_EQ(a.trace_replays, b.trace_replays);
    EXPECT_EQ(a.jobs_ingested, b.jobs_ingested);
    EXPECT_EQ(a.candidates_ingested, b.candidates_ingested);
    EXPECT_EQ(a.forced_flushes, b.forced_flushes);
    EXPECT_EQ(a.launches_buffered, b.launches_buffered);
    EXPECT_EQ(a.pending_high_water, b.pending_high_water);
}

// ---------------------------------------------------------------------------
// The engine in isolation: decider parity and broadcast round-trip.

/** Apply the engine's current decision log to `runtime` exactly as
 * Cluster::ApplyDecisions does, then retire the round. */
void ApplyAndRetire(core::DecisionEngine& engine, rt::Runtime& runtime)
{
    for (const core::Decision& d : engine.Decisions()) {
        switch (d.kind) {
          case core::Decision::Kind::kTask:
            runtime.ExecuteTask(engine.LaunchAt(d.value));
            break;
          case core::Decision::Kind::kBegin:
            runtime.BeginTrace(d.value);
            break;
          case core::Decision::Kind::kEnd:
            runtime.EndTrace(d.value);
            break;
        }
    }
    engine.Retire();
}

TEST(DecisionEngine, MirrorsADirectApopheniaBitForBit)
{
    // Reference: one Apophenia driven directly, manual ingestion at
    // batch boundaries. Engine: the same stream staged through
    // Buffer/DecideStaged with ingestion at the same positions, plus
    // one "node" runtime that applies the broadcast decisions.
    const core::ApopheniaConfig config = SmallConfig();
    const rt::RuntimeOptions rt_options;

    rt::Runtime ref_rt(rt_options);
    core::Apophenia ref(ref_rt, config);
    ref.LeaveIngestionToOwner();

    core::DecisionEngine engine(config, rt_options);
    rt::Runtime node_rt(rt_options);

    constexpr int kBody = 10;
    std::vector<rt::RegionId> regions;
    for (int i = 0; i < kBody; ++i) {
        const rt::RegionId r = ref.CreateRegion();
        ASSERT_EQ(engine.DecisionRuntime().CreateRegion(), r);
        ASSERT_EQ(node_rt.CreateRegion(), r);
        regions.push_back(r);
    }

    const auto ingest_ready = [&] {
        while (ref.OldestJobDone()) {
            ref.IngestOldestJob();
        }
        while (engine.Decider().OldestJobDone()) {
            engine.Decider().IngestOldestJob();
        }
    };

    constexpr std::size_t kBatch = 50;
    constexpr int kIterations = 80;
    std::size_t in_batch = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        for (int i = 0; i < kBody; ++i) {
            const rt::TaskLaunch launch{
                static_cast<rt::TaskId>(100 + i),
                {{regions[i], 0, rt::Privilege::kReadOnly, 0},
                 {regions[(i + 1) % kBody], 0,
                  rt::Privilege::kReadWrite, 0}}};
            ref.ExecuteTask(launch);
            engine.Buffer(rt::TaskLaunchView::Of(launch));
            if (++in_batch == kBatch) {
                engine.DecideStaged();
                ApplyAndRetire(engine, node_rt);
                ingest_ready();
                in_batch = 0;
            }
        }
    }
    if (in_batch > 0) {
        engine.DecideStaged();
        ApplyAndRetire(engine, node_rt);
    }
    ingest_ready();
    ref.Flush();
    engine.FlushDecider();
    ApplyAndRetire(engine, node_rt);

    // The stream actually exercised record and replay decisions.
    EXPECT_GT(ref.Stats().trace_records, 0u);
    EXPECT_GT(ref.Stats().trace_replays, 0u);

    // Decider state is bit-identical to the directly driven engine.
    ExpectSameApopheniaStats(engine.Decider().Stats(), ref.Stats());
    EXPECT_EQ(engine.Decider().CandidateDigest(), ref.CandidateDigest());

    // ... and so is every runtime-bound call it made, both on its own
    // decision runtime and — through the Decision encoding + LaunchAt
    // round-trip — on the runtime that applied the broadcast.
    const StreamDigest want = StreamDigest::Of(ref_rt.Log());
    EXPECT_GT(want.Count(), 0u);
    const StreamDigest decider = StreamDigest::Of(
        engine.DecisionRuntime().Log());
    EXPECT_EQ(decider.Value(), want.Value());
    EXPECT_EQ(decider.Count(), want.Count());
    const StreamDigest node = StreamDigest::Of(node_rt.Log());
    EXPECT_EQ(node.Value(), want.Value());
    EXPECT_EQ(node.Count(), want.Count());

    // Fully retired: the ring holds nothing past the decided prefix.
    EXPECT_EQ(engine.Staged(),
              static_cast<std::uint64_t>(kIterations * kBody));
    EXPECT_EQ(engine.DecidedThrough(), engine.Staged());
}

TEST(DecisionEngine, SteadyStateDecideLoopIsAllocationFree)
{
    // The engine's staging machinery — the retention ring, the
    // decision log, the untraced forward path and the streaming
    // decision runtime — must all recycle: past warmup, a
    // Buffer/DecideStaged/Retire round allocates nothing. The stream
    // never repeats (distinct tokens) and the scale factor is pushed
    // past the probe length, so the decider's mining/firing machinery
    // (whose allocation behaviour is the finder's own contract, see
    // core_incremental_test) stays out of the measurement.
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 512;
    config.multi_scale_factor = 1u << 30;  // no jobs inside the probe
    // The decider's history ring allocates one block per
    // history_block_size tokens — the finder's amortized O(1/block)
    // cost, not the staging path's. One block outlasts the probe.
    config.history_block_size = 1u << 15;
    rt::RuntimeOptions rt_options;
    rt_options.log_config.ops_per_block = 256;
    rt_options.log_config.payload_block_elems = 1024;

    core::DecisionEngine engine(config, rt_options);
    StreamDigest digest;
    engine.DecisionRuntime().EnableLogStreaming(
        [&digest](const rt::OpView& op) { digest.Consume(op); });

    const rt::RegionId r0 = engine.DecisionRuntime().CreateRegion();
    const rt::RegionId out = engine.DecisionRuntime().CreateRegion();
    rt::TaskLaunch launch;
    launch.requirements = {{r0, 0, rt::Privilege::kReadWrite, 0},
                           {out, 0, rt::Privilege::kWriteDiscard, 0}};
    const auto issue = [&](std::size_t i) {
        // A never-repeating token stream: no candidate can ever
        // match, so every decision is an untraced forward.
        launch.task = static_cast<rt::TaskId>(1000 + i);
        launch.requirements[0].field = static_cast<rt::FieldId>(i % 4);
        engine.Buffer(rt::TaskLaunchView::Of(launch));
    };

    // Warm through several ring-wrap and log-block cycles.
    constexpr std::size_t kBatch = 64;
    std::size_t issued = 0;
    const auto drive = [&](std::size_t count) {
        for (std::size_t b = 0; b < count / kBatch; ++b) {
            for (std::size_t i = 0; i < kBatch; ++i) {
                issue(issued++);
            }
            engine.DecideStaged();
            engine.Retire();
        }
    };
    drive(4096);
    const std::uint64_t before = support::AllocationCount();
    drive(8192);
    EXPECT_EQ(support::AllocationCount() - before, 0u)
        << "steady-state decide loop allocated per launch";
    EXPECT_EQ(engine.DecidedThrough(), engine.Staged());
    EXPECT_EQ(engine.Staged(), 4096u + 8192u);
    // The streaming consumer really drained the decision runtime's
    // log (blocks recycled instead of accumulating).
    engine.DecisionRuntime().DrainLogStream();
    EXPECT_EQ(digest.Count(), 4096u + 8192u);
}

// ---------------------------------------------------------------------------
// Cluster wiring: mode gates and accessor contracts.

TEST(SharedDecisions, AccessorsEnforceTheMode)
{
    Cluster shared(SmallClusterOptions(2));  // shared is the default
    EXPECT_TRUE(shared.SharedDecisions());
    EXPECT_THROW(shared.Node(0), rt::RuntimeUsageError);
    EXPECT_NO_THROW(shared.Decider());

    ClusterOptions per_node_options = SmallClusterOptions(2);
    per_node_options.shared_decisions = false;
    Cluster per_node(per_node_options);
    EXPECT_FALSE(per_node.SharedDecisions());
    EXPECT_THROW(per_node.Decider(), rt::RuntimeUsageError);
    EXPECT_NO_THROW(per_node.Node(0));

    // Nothing to share across: one node, or tracing disabled.
    Cluster single(SmallClusterOptions(1));
    EXPECT_FALSE(single.SharedDecisions());
    ClusterOptions untraced_options = SmallClusterOptions(2);
    untraced_options.config.enabled = false;
    Cluster untraced(untraced_options);
    EXPECT_FALSE(untraced.SharedDecisions());
}

TEST(SharedDecisions, BroadcastMatchesPerNodeOnADrivenCluster)
{
    // The same driven stream through both modes: every node's digest,
    // the coordination stats, and the decider-vs-node-0 front-end
    // stats must match bit for bit.
    const auto run = [](bool shared) {
        ClusterOptions options = SmallClusterOptions(3);
        options.shared_decisions = shared;
        options.coordination.seed = 11;
        options.coordination.mean_latency_tasks = 120.0;
        options.coordination.jitter = 0.9;
        auto fe = std::make_unique<Cluster>(options);
        DriveLoop(*fe, /*iterations=*/80, /*body=*/10);
        return fe;
    };
    const auto baseline = run(false);
    const auto shared = run(true);
    EXPECT_FALSE(baseline->SharedDecisions());
    EXPECT_TRUE(shared->SharedDecisions());
    EXPECT_TRUE(shared->StreamDigestsAgree());
    EXPECT_TRUE(test::StreamsIdentical(*shared));
    for (std::size_t n = 0; n < 3; ++n) {
        EXPECT_EQ(shared->NodeDigest(n).Value(),
                  baseline->NodeDigest(n).Value())
            << "node " << n;
        EXPECT_EQ(shared->NodeDigest(n).Count(),
                  baseline->NodeDigest(n).Count());
        EXPECT_FALSE(shared->NodeCrashed(n));
    }
    const CoordinationStats& a = shared->Coordination();
    const CoordinationStats& b = baseline->Coordination();
    EXPECT_EQ(a.jobs_coordinated, b.jobs_coordinated);
    EXPECT_EQ(a.late_jobs, b.late_jobs);
    EXPECT_EQ(a.final_slack, b.final_slack);
    EXPECT_EQ(a.peak_slack, b.peak_slack);
    ExpectSameApopheniaStats(shared->Decider().Stats(),
                             baseline->Node(0).Stats());
    EXPECT_EQ(shared->Decider().CandidateDigest(),
              baseline->Node(0).CandidateDigest());

    const DecisionStats cost = shared->DecisionCost();
    EXPECT_TRUE(cost.shared);
    EXPECT_GT(cost.batches, 0u);
    EXPECT_GT(cost.decisions, 0u);
    EXPECT_EQ(shared->FaultRecovery().evictions, 0u);
    EXPECT_FALSE(baseline->DecisionCost().shared);
    EXPECT_EQ(baseline->DecisionCost().decisions, 0u);
}

// ---------------------------------------------------------------------------
// The harness axis: every app x every skew x jobs {1, 8}, shared vs
// per-node, bit-identical.

ExperimentOptions ClusterExperiment(std::size_t replicas,
                                    std::size_t iterations)
{
    ExperimentOptions options;
    options.mode = TracingMode::kAuto;
    options.iterations = iterations;
    options.machine.nodes = 2;
    options.machine.gpus_per_node = 2;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 1500;
    options.auto_config.multi_scale_factor = 100;
    options.replicas = replicas;
    options.replication.seed = 7;
    options.replication.mean_latency_tasks = 120.0;
    options.replication.jitter = 0.6;
    return options;
}

SkewModel SkewOf(SkewKind kind)
{
    SkewModel skew;
    skew.kind = kind;
    skew.jitter_amplitude = 0.5;
    skew.straggler_node = 1;
    skew.straggler_factor = 4.0;
    skew.burst_period_tasks = 512;
    skew.burst_duration_tasks = 128;
    skew.burst_factor = 8.0;
    skew.burst_stagger_tasks = 171;
    return skew;
}

void ExpectSameResult(const ExperimentResult& shared,
                      const ExperimentResult& baseline)
{
    EXPECT_TRUE(shared.streams_identical);
    EXPECT_EQ(shared.total_tasks, baseline.total_tasks);
    EXPECT_EQ(shared.iterations_per_second,
              baseline.iterations_per_second);
    EXPECT_EQ(shared.makespan_us, baseline.makespan_us);
    EXPECT_EQ(shared.replayed_fraction, baseline.replayed_fraction);
    EXPECT_EQ(shared.stream_digest, baseline.stream_digest);
    EXPECT_EQ(shared.stream_digest_ops, baseline.stream_digest_ops);
    EXPECT_EQ(shared.candidate_digest, baseline.candidate_digest);
    EXPECT_EQ(shared.coordination.jobs_coordinated,
              baseline.coordination.jobs_coordinated);
    EXPECT_EQ(shared.coordination.late_jobs,
              baseline.coordination.late_jobs);
    EXPECT_EQ(shared.coordination.final_slack,
              baseline.coordination.final_slack);
    EXPECT_EQ(shared.coordination.peak_slack,
              baseline.coordination.peak_slack);
    ExpectSameApopheniaStats(shared.apophenia_stats,
                             baseline.apophenia_stats);
    ASSERT_EQ(shared.node_metrics.size(), baseline.node_metrics.size());
    for (std::size_t n = 0; n < shared.node_metrics.size(); ++n) {
        EXPECT_EQ(shared.node_metrics[n].virtual_time_tasks,
                  baseline.node_metrics[n].virtual_time_tasks)
            << "node " << n;
        EXPECT_EQ(shared.node_metrics[n].late_jobs,
                  baseline.node_metrics[n].late_jobs);
        EXPECT_EQ(shared.node_metrics[n].stall_tasks,
                  baseline.node_metrics[n].stall_tasks);
    }
}

template <typename App, typename Options>
void ExpectSharedMatchesPerNode(Options app_options,
                                std::size_t iterations,
                                std::string_view label)
{
    for (const SkewKind kind :
         {SkewKind::kNone, SkewKind::kJitter, SkewKind::kStraggler,
          SkewKind::kInterference}) {
        SCOPED_TRACE(std::string(label) + "/" +
                     std::string(SkewName(kind)));
        ExperimentOptions options = ClusterExperiment(3, iterations);
        options.machine = app_options.machine;
        options.skew = SkewOf(kind);

        // Per-node baseline once (thread-count invariance of each
        // mode on its own is pinned by sim_cluster_test).
        options.shared_decisions = false;
        options.cluster_jobs = 1;
        App baseline_app(app_options);
        const ExperimentResult baseline =
            RunExperiment(baseline_app, options);
        EXPECT_TRUE(baseline.streams_identical);
        EXPECT_FALSE(baseline.shared_decisions);
        EXPECT_GT(baseline.replayed_fraction, 0.0);

        for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
            SCOPED_TRACE(jobs);
            options.shared_decisions = true;
            options.cluster_jobs = jobs;
            App app(app_options);
            const ExperimentResult shared = RunExperiment(app, options);
            EXPECT_TRUE(shared.shared_decisions);
            EXPECT_GT(shared.decision_batches, 0u);
            EXPECT_GT(shared.decisions_broadcast, 0u);
            ExpectSameResult(shared, baseline);
        }
    }
}

TEST(SharedDecisionMatrix, S3d)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectSharedMatchesPerNode<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 60, "s3d");
}

TEST(SharedDecisionMatrix, Htr)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectSharedMatchesPerNode<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 50, "htr");
}

TEST(SharedDecisionMatrix, Cfd)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectSharedMatchesPerNode<apps::CfdApplication>(
        apps::CfdOptions{.machine = machine}, 120, "cfd");
}

TEST(SharedDecisionMatrix, TorchSwe)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    apps::TorchSweOptions options{.machine = machine};
    options.allocation_pool_budget = 150;
    ExpectSharedMatchesPerNode<apps::TorchSweApplication>(
        options, 80, "torchswe");
}

TEST(SharedDecisionMatrix, FlexFlow)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectSharedMatchesPerNode<apps::FlexFlowApplication>(
        apps::FlexFlowOptions{.machine = machine}, 40, "flexflow");
}

// ---------------------------------------------------------------------------
// The decider's mining on the cluster's worker team: explicit thread
// counts, so a one-core host still runs the workers.

template <typename App, typename Options>
void ExpectSameAtEveryJobCount(Options app_options, std::size_t iterations,
                               std::string_view label)
{
    // Default slack leaves most jobs to the worker; a slack of one
    // task with one-task, jitter-free latencies makes every job fall
    // due at the very next barrier, so the driving thread runs the
    // job itself or waits for the worker running it.
    for (const bool tight : {false, true}) {
        SCOPED_TRACE(std::string(label) + (tight ? "/tight" : "/default"));
        ExperimentOptions options = ClusterExperiment(8, iterations);
        options.machine = app_options.machine;
        options.log_mode = LogMode::kStreaming;
        if (tight) {
            options.replication.initial_slack = 1;
            options.replication.mean_latency_tasks = 1.0;
            options.replication.jitter = 0.0;
        } else {
            options.skew = SkewOf(SkewKind::kJitter);
        }
        options.cluster_jobs = 1;
        App reference_app(app_options);
        const ExperimentResult reference =
            RunExperiment(reference_app, options);
        EXPECT_TRUE(reference.shared_decisions);
        EXPECT_GT(reference.replayed_fraction, 0.0);
        EXPECT_GT(reference.apophenia_stats.jobs_ingested, 0u);
        if (tight) {
            EXPECT_EQ(reference.coordination.late_jobs, 0u);
            EXPECT_EQ(reference.coordination.final_slack, 1u);
        }
        for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE(jobs);
            options.cluster_jobs = jobs;
            App app(app_options);
            const ExperimentResult result = RunExperiment(app, options);
            ExpectSameResult(result, reference);
            EXPECT_EQ(result.decision_batches, reference.decision_batches);
            EXPECT_EQ(result.decisions_broadcast,
                      reference.decisions_broadcast);
            for (std::size_t n = 0; n < result.node_metrics.size(); ++n) {
                EXPECT_EQ(result.node_metrics[n].max_stall_tasks,
                          reference.node_metrics[n].max_stall_tasks);
            }
        }
    }
}

TEST(SharedDecisionThreads, S3dMatchesInlineMining)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectSameAtEveryJobCount<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 40, "s3d");
}

TEST(SharedDecisionThreads, HtrMatchesInlineMining)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectSameAtEveryJobCount<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 40, "htr");
}

/** Holds a TaskTeam's only worker inside a job until released or
 * destroyed, so the jobs submitted meanwhile stay queued. Declare it
 * after the engine that borrows the team: the engine's teardown drain
 * waits for the held job. */
class HeldWorker {
  public:
    explicit HeldWorker(support::TaskTeam& team)
    {
        team.Submit([this] {
            busy_.store(true);
            while (!released_.load()) {
                std::this_thread::yield();
            }
        });
        while (!busy_.load()) {
            std::this_thread::yield();
        }
    }
    ~HeldWorker() { Release(); }
    HeldWorker(const HeldWorker&) = delete;
    HeldWorker& operator=(const HeldWorker&) = delete;

    void Release() { released_.store(true); }

  private:
    std::atomic<bool> busy_{false};
    std::atomic<bool> released_{false};
};

/** Stage 200 launches into `engine` and decide them: the decider
 * launches its first mining jobs. */
void DecideTwoHundredLaunches(core::DecisionEngine& engine)
{
    const rt::RegionId a = engine.DecisionRuntime().CreateRegion();
    const rt::RegionId b = engine.DecisionRuntime().CreateRegion();
    for (int i = 0; i < 200; ++i) {
        const rt::TaskLaunch launch{
            static_cast<rt::TaskId>(100 + i % 10),
            {{i % 2 == 0 ? a : b, 0, rt::Privilege::kReadWrite, 0}}};
        engine.Buffer(rt::TaskLaunchView::Of(launch));
    }
    engine.DecideStaged();
}

TEST(DecisionEngine, AFailedMiningJobSurfacesAtItsIngestion)
{
    // Job 1's body fails at its first allocation (a miss in the
    // memo). The failure is kept on the job and rethrown on the
    // thread that ingests it, whether a worker ran the job or that
    // thread did: never std::terminate, never a hang.
    for (const bool on_worker : {false, true}) {
        SCOPED_TRACE(on_worker ? "run by a worker" : "run at ingestion");
        support::TaskTeam team(2);
        const rt::RuntimeOptions rt_options;
        core::DecisionEngine engine(SmallConfig(), rt_options, nullptr,
                                    &team);
        HeldWorker held(team);
        DecideTwoHundredLaunches(engine);
        core::Apophenia& decider = engine.Decider();
        ASSERT_GE(decider.PendingJobCount(), 2u);
        // Job 0 is mined normally, on this thread.
        EXPECT_NO_THROW(decider.IngestOldestJob());
        support::FailNextAllocation();
        if (on_worker) {
            // The worker skips job 0's stale closure and runs job 1.
            held.Release();
            while (!decider.OldestJobDone()) {
                std::this_thread::yield();
            }
        }
        EXPECT_THROW(decider.IngestOldestJob(), std::bad_alloc);
        // The failure belongs to the job, not to one ingestion.
        EXPECT_THROW(decider.IngestOldestJob(), std::bad_alloc);
    }
}

TEST(DecisionEngine, DrainsItsQueuedJobsBeforeTheTeamGoes)
{
    // The team's only worker is held inside a job while the decider
    // launches its mining jobs, so they are still queued when the
    // engine is destroyed. Its finder must run or wait out every one
    // of them first: a job left behind would run on freed state once
    // the worker is released (the sanitizer legs flag it).
    support::TaskTeam team(2);
    const rt::RuntimeOptions rt_options;
    auto engine = std::make_unique<core::DecisionEngine>(
        SmallConfig(), rt_options, nullptr, &team);
    HeldWorker held(team);
    DecideTwoHundredLaunches(*engine);
    ASSERT_GE(engine->Decider().PendingJobCount(), 2u);
    EXPECT_FALSE(engine->Decider().OldestJobDone());
    held.Release();
    engine.reset();
    team.Drain();
}

// ---------------------------------------------------------------------------
// Scale: one decider broadcasting to 64 streaming nodes.

TEST(SharedDecisions, SixtyFourNodeBroadcastStaysUnderTheLogCeiling)
{
    constexpr std::size_t kCeilingBytes = 2u << 20;  // 2 MiB per node
    ExperimentOptions options = ClusterExperiment(64, 40);
    options.log_mode = LogMode::kStreaming;
    options.skew.kind = SkewKind::kJitter;
    options.skew.jitter_amplitude = 0.3;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const ExperimentResult result = RunExperiment(app, options);
    EXPECT_TRUE(result.shared_decisions);
    EXPECT_TRUE(result.streams_identical);
    EXPECT_GT(result.replayed_fraction, 0.0);
    EXPECT_GT(result.decision_batches, 0u);
    EXPECT_GT(result.decisions_broadcast, 0u);
    ASSERT_EQ(result.node_metrics.size(), 64u);
    EXPECT_EQ(result.log_retired_ops, result.total_tasks);
    EXPECT_LT(result.log_peak_resident_bytes, kCeilingBytes)
        << "worst-node resident log exceeded the streaming ceiling";
}

}  // namespace
}  // namespace apo::sim
