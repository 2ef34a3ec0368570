/**
 * @file
 * The replication axis of the experiment harness: every workload
 * skeleton must run, unmodified, on an N-node sim::Cluster through
 * RunExperiment — the paper's section 5.1 configuration over the
 * full application set — with the control-replication safety
 * property (bit-identical per-node streams) checked, and with tracing
 * actually engaging (nonzero replayed fraction).
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "sim/harness.h"
#include "support/executor.h"

namespace apo {
namespace {

apps::MachineConfig SmallMachine()
{
    apps::MachineConfig m;
    m.nodes = 2;
    m.gpus_per_node = 2;
    return m;
}

sim::ExperimentOptions ReplicatedOptions(std::size_t iterations)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = iterations;
    options.machine = SmallMachine();
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 1500;
    options.auto_config.multi_scale_factor = 100;
    options.replicas = 2;
    options.replication.seed = 7;
    options.replication.mean_latency_tasks = 120.0;
    options.replication.jitter = 0.6;
    return options;
}

template <typename App, typename Options>
void ExpectReplicatedRun(Options app_options, std::size_t iterations)
{
    App app(app_options);
    const sim::ExperimentResult result =
        sim::RunExperiment(app, ReplicatedOptions(iterations));
    EXPECT_TRUE(result.streams_identical)
        << app.Name() << ": replicated nodes diverged";
    EXPECT_GT(result.replayed_fraction, 0.0)
        << app.Name() << ": tracing never engaged under replication";
    EXPECT_GT(result.coordination.jobs_coordinated, 0u);
    EXPECT_GT(result.iterations_per_second, 0.0);
    EXPECT_EQ(result.frontend_stats.tasks_executed, result.total_tasks);
}

TEST(ReplicatedHarness, S3d)
{
    ExpectReplicatedRun<apps::S3dApplication>(
        apps::S3dOptions{.machine = SmallMachine()}, 60);
}

TEST(ReplicatedHarness, Htr)
{
    ExpectReplicatedRun<apps::HtrApplication>(
        apps::HtrOptions{.machine = SmallMachine()}, 50);
}

TEST(ReplicatedHarness, Cfd)
{
    ExpectReplicatedRun<apps::CfdApplication>(
        apps::CfdOptions{.machine = SmallMachine()}, 120);
}

TEST(ReplicatedHarness, TorchSwe)
{
    apps::TorchSweOptions options{.machine = SmallMachine()};
    options.allocation_pool_budget = 150;
    ExpectReplicatedRun<apps::TorchSweApplication>(options, 80);
}

TEST(ReplicatedHarness, FlexFlow)
{
    ExpectReplicatedRun<apps::FlexFlowApplication>(
        apps::FlexFlowOptions{.machine = SmallMachine()}, 40);
}

TEST(ReplicatedHarness, ThreeNodesStayIdentical)
{
    sim::ExperimentOptions options = ReplicatedOptions(50);
    options.replicas = 3;
    apps::S3dApplication app(apps::S3dOptions{.machine = SmallMachine()});
    const auto result = sim::RunExperiment(app, options);
    EXPECT_TRUE(result.streams_identical);
    EXPECT_GT(result.replayed_fraction, 0.0);
}

TEST(ReplicatedHarness, DivergedReplicaIsEvictedAndReported)
{
    // A harness cluster keeps no decision tail, so only a bug can
    // diverge a replica, and the first barrier after it evicts the
    // node. The run must still be reported (streams_identical false),
    // whichever node diverged, node 0 included.
    sim::ExperimentOptions options = ReplicatedOptions(30);
    options.replicas = 3;
    apps::S3dApplication clean_app(
        apps::S3dOptions{.machine = SmallMachine()});
    const auto clean = sim::RunExperiment(clean_app, options);
    for (const std::size_t rogue : {0u, 1u}) {
        SCOPED_TRACE(rogue);
        sim::ExperimentStack stack(options);
        api::Frontend& front = stack.Front();
        apps::S3dApplication app(apps::S3dOptions{.machine = SmallMachine()});
        app.Setup(front);
        // Drive one node outside the cluster front end: the bug the
        // barrier digest check exists to catch.
        const sim::Cluster& cluster = *stack.ReplicaCluster();
        const_cast<rt::Runtime&>(cluster.NodeRuntime(rogue))
            .ExecuteTask(rt::TaskLaunch{999, {}});
        std::vector<std::size_t> boundaries;
        for (std::size_t iter = 0; iter < options.iterations; ++iter) {
            app.Iteration(front, iter, /*manual_tracing=*/false);
            boundaries.push_back(
                static_cast<std::size_t>(front.Stats().tasks_executed));
        }
        front.Flush();
        const sim::ExperimentResult result = stack.Finish(boundaries);

        EXPECT_FALSE(result.streams_identical);
        EXPECT_TRUE(cluster.NodeCrashed(rogue));
        EXPECT_EQ(cluster.FaultRecovery().evictions, 1u);
        EXPECT_EQ(cluster.FaultRecovery().heals, 0u);
        EXPECT_THROW(cluster.NodeRuntime(rogue), rt::RuntimeUsageError);
        // The report describes a live node, which ran the clean stream.
        EXPECT_EQ(result.total_tasks, clean.total_tasks);
        EXPECT_EQ(result.frontend_stats.tasks_executed, result.total_tasks);
    }
}

TEST(ReplicatedHarness, UntracedReplicationRunsWithTracingDisabled)
{
    sim::ExperimentOptions options = ReplicatedOptions(30);
    options.mode = sim::TracingMode::kUntraced;
    apps::HtrApplication app(apps::HtrOptions{.machine = SmallMachine()});
    const auto result = sim::RunExperiment(app, options);
    EXPECT_TRUE(result.streams_identical);
    EXPECT_EQ(result.replayed_fraction, 0.0);
    EXPECT_EQ(result.runtime_stats.tasks_analyzed, result.total_tasks);
}

TEST(ReplicatedHarness, ManualModeIsRejectedWithTypedError)
{
    sim::ExperimentOptions options = ReplicatedOptions(10);
    options.mode = sim::TracingMode::kManual;
    apps::S3dApplication app(apps::S3dOptions{.machine = SmallMachine()});
    // The rejection is a typed usage error whose message names both
    // offending options, not a generic invalid_argument.
    try {
        sim::RunExperiment(app, options);
        FAIL() << "kManual replication was not rejected";
    } catch (const rt::RuntimeUsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("kManual"), std::string::npos) << what;
        EXPECT_NE(what.find("replicas"), std::string::npos) << what;
    }
}

/** Run one app through every issue-surface implementation the
 * harness offers and check the acceptance properties of each. */
template <typename App, typename Options>
void ExpectAllModes(Options app_options, std::size_t iterations)
{
    sim::ExperimentOptions base;
    base.iterations = iterations;
    base.machine = SmallMachine();
    base.auto_config.min_trace_length = 10;
    base.auto_config.batchsize = 1500;
    base.auto_config.multi_scale_factor = 100;

    // Direct runtime (manual annotations where the app has them).
    {
        App app(app_options);
        sim::ExperimentOptions options = base;
        options.mode = sim::TracingMode::kManual;
        const auto result = sim::RunExperiment(app, options);
        EXPECT_GT(result.total_tasks, 0u);
        if (app.SupportsManualTracing()) {
            EXPECT_GT(result.replayed_fraction, 0.0);
            EXPECT_GT(result.frontend_stats.annotations_honored, 0u);
        }
    }
    // Untraced.
    {
        App app(app_options);
        sim::ExperimentOptions options = base;
        options.mode = sim::TracingMode::kUntraced;
        const auto result = sim::RunExperiment(app, options);
        EXPECT_EQ(result.replayed_fraction, 0.0);
        EXPECT_EQ(result.runtime_stats.tasks_analyzed, result.total_tasks);
    }
    // Apophenia, inline and mining on background threads: each job is
    // ingested at the task that launched it, so the decisions must be
    // bit-identical to inline.
    sim::ExperimentResult inline_result;
    {
        App app(app_options);
        sim::ExperimentOptions options = base;
        options.mode = sim::TracingMode::kAuto;
        inline_result = sim::RunExperiment(app, options);
        EXPECT_GT(inline_result.replayed_fraction, 0.0);
    }
    support::TaskTeam team(2);
    App app(app_options);
    sim::ExperimentOptions options = base;
    options.mode = sim::TracingMode::kAuto;
    options.executor = &team;
    const auto pooled = sim::RunExperiment(app, options);
    EXPECT_EQ(pooled.stream_digest, inline_result.stream_digest);
    EXPECT_EQ(pooled.stream_digest_ops, inline_result.stream_digest_ops);
    EXPECT_EQ(pooled.candidate_digest, inline_result.candidate_digest);
    EXPECT_DOUBLE_EQ(pooled.iterations_per_second,
                     inline_result.iterations_per_second);
    EXPECT_DOUBLE_EQ(pooled.makespan_us, inline_result.makespan_us);
    EXPECT_EQ(pooled.runtime_stats.tasks_replayed,
              inline_result.runtime_stats.tasks_replayed);
    EXPECT_EQ(pooled.runtime_stats.trace_replays,
              inline_result.runtime_stats.trace_replays);
}

TEST(FrontendMatrix, S3d)
{
    ExpectAllModes<apps::S3dApplication>(
        apps::S3dOptions{.machine = SmallMachine()}, 60);
}

TEST(FrontendMatrix, Htr)
{
    ExpectAllModes<apps::HtrApplication>(
        apps::HtrOptions{.machine = SmallMachine()}, 50);
}

TEST(FrontendMatrix, Cfd)
{
    ExpectAllModes<apps::CfdApplication>(
        apps::CfdOptions{.machine = SmallMachine()}, 120);
}

TEST(FrontendMatrix, TorchSwe)
{
    apps::TorchSweOptions options{.machine = SmallMachine()};
    options.allocation_pool_budget = 150;
    ExpectAllModes<apps::TorchSweApplication>(options, 80);
}

TEST(FrontendMatrix, FlexFlow)
{
    ExpectAllModes<apps::FlexFlowApplication>(
        apps::FlexFlowOptions{.machine = SmallMachine()}, 40);
}

TEST(ReplicatedHarness, SingleReplicaMatchesPlainAuto)
{
    // replicas == 1 must be exactly the non-replicated harness path.
    sim::ExperimentOptions replicated = ReplicatedOptions(40);
    replicated.replicas = 1;
    sim::ExperimentOptions plain = replicated;
    apps::S3dApplication a(apps::S3dOptions{.machine = SmallMachine()});
    apps::S3dApplication b(apps::S3dOptions{.machine = SmallMachine()});
    const auto ra = sim::RunExperiment(a, replicated);
    const auto rb = sim::RunExperiment(b, plain);
    EXPECT_DOUBLE_EQ(ra.iterations_per_second, rb.iterations_per_second);
    EXPECT_DOUBLE_EQ(ra.makespan_us, rb.makespan_us);
    EXPECT_EQ(ra.total_tasks, rb.total_tasks);
    EXPECT_TRUE(ra.streams_identical);
}

}  // namespace
}  // namespace apo
