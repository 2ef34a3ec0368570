/**
 * @file
 * Tests for the skew-aware cluster simulation (sim/cluster.h): the
 * agreement protocol must make every node issue a bit-identical call
 * sequence regardless of per-node analysis completion jitter *and*
 * per-node skew; the incremental StreamDigest must agree with the
 * exact retained-log comparison on identical and deliberately
 * diverged streams; straggler skew must degrade the agreed slack
 * monotonically; and a 64-node streaming run must stay under a fixed
 * resident-log ceiling while certifying agreement through the rolling
 * digests.
 *
 * The parallel execution engine's contracts are pinned here too: any
 * thread count (jobs ∈ {1, 2, 8}) yields byte-identical digests,
 * coordination stats and per-node metrics, also when the shared
 * decider mines on the team and every job falls due at the next
 * barrier; a no-skew replicated run
 * mines each history window exactly once cluster-wide (every other
 * node adopts from the shared mining cache); and the replicated
 * streaming issue path allocates nothing per launch in steady state
 * (this TU owns the binary's counting global operator new).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/launch.h"
#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/history.h"
#include "sim/cluster.h"
#include "sim/harness.h"
#include "support/counting_allocator.h"
#include "history_window.h"
#include "stream_digest_properties.h"
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
    // Region management broadcasts to every node; the deterministic
    // per-node allocators must agree on the id.
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

// ---------------------------------------------------------------------------
// The agreement protocol (ported from the core::ReplicatedFrontEnd
// tests — sim::Cluster is now the one replication implementation).

class ClusterProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ClusterProperty, NodesIssueIdenticalStreams)
{
    const auto [nodes, seed] = GetParam();
    ClusterOptions options =
        SmallClusterOptions(static_cast<std::size_t>(nodes));
    options.coordination.seed = seed;
    options.coordination.mean_latency_tasks = 120.0;
    options.coordination.jitter = 0.9;  // adversarial completion skew
    Cluster fe(options);
    DriveLoop(fe, /*iterations=*/80, /*body=*/10);
    EXPECT_TRUE(test::StreamsIdentical(fe));
    EXPECT_TRUE(fe.StreamDigestsAgree());
    // Tracing actually happened on every node.
    for (std::size_t n = 0; n < fe.Nodes(); ++n) {
        EXPECT_GT(fe.NodeRuntime(n).Stats().tasks_replayed, 0u)
            << "node " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterProperty,
    ::testing::Combine(::testing::Values(2, 3, 8),
                       ::testing::Values<std::uint64_t>(1, 7, 42)));

TEST(Cluster, SlackAdaptsToSlowAnalyses)
{
    ClusterOptions options = SmallClusterOptions(2);
    options.coordination.seed = 5;
    options.coordination.initial_slack = 1;         // far too tight
    options.coordination.mean_latency_tasks = 300;  // analyses are slow
    Cluster fe(options);
    DriveLoop(fe, 100, 10);
    const CoordinationStats& stats = fe.Coordination();
    EXPECT_GT(stats.jobs_coordinated, 0u);
    EXPECT_GT(stats.late_jobs, 0u);
    EXPECT_GT(stats.final_slack, options.coordination.initial_slack);
    EXPECT_GE(stats.peak_slack, stats.final_slack);
    EXPECT_TRUE(test::StreamsIdentical(fe));
}

TEST(Cluster, GenerousSlackAvoidsLateJobs)
{
    ClusterOptions options = SmallClusterOptions(2);
    options.coordination.seed = 5;
    options.coordination.initial_slack = 10000;  // above any latency
    options.coordination.mean_latency_tasks = 50;
    options.coordination.jitter = 0.5;
    Cluster fe(options);
    DriveLoop(fe, 100, 10);
    EXPECT_EQ(fe.Coordination().late_jobs, 0u);
    EXPECT_TRUE(test::StreamsIdentical(fe));
    // Stall-free steady state: ingestion at the agreed points.
    for (const NodeMetrics& node : fe.PerNode()) {
        EXPECT_EQ(node.stall_tasks, 0.0);
        EXPECT_EQ(node.late_jobs, 0u);
    }
}

TEST(Cluster, SingleNodeDegeneratesGracefully)
{
    Cluster fe(SmallClusterOptions(1));
    DriveLoop(fe, 50, 10);
    EXPECT_TRUE(test::StreamsIdentical(fe));
    EXPECT_TRUE(fe.StreamDigestsAgree());
    EXPECT_GT(fe.NodeRuntime(0).Stats().tasks_replayed, 0u);
}

TEST(Cluster, VirtualClocksMatchTaskCountWithoutSkew)
{
    Cluster fe(SmallClusterOptions(3));
    DriveLoop(fe, 40, 10);
    const double issued =
        static_cast<double>(fe.Stats().tasks_executed);
    for (const NodeMetrics& node : fe.PerNode()) {
        EXPECT_DOUBLE_EQ(node.virtual_time_tasks, issued);
    }
}

// ---------------------------------------------------------------------------
// Incremental digest vs. exact retained comparison.

TEST(StreamDigest, AgreesWithExactComparisonOnIdenticalStreams)
{
    Cluster fe(SmallClusterOptions(3));
    DriveLoop(fe, 60, 8);
    EXPECT_TRUE(test::StreamsIdentical(fe));
    EXPECT_TRUE(fe.StreamDigestsAgree());
    EXPECT_EQ(fe.NodeDigest(0).Count(),
              fe.NodeRuntime(0).Log().size());
}

TEST(StreamDigest, DetectsDeliberateDivergence)
{
    // Per-node engines: the divergence is injected through Node(1)'s
    // own front end, which shared-decision mode doesn't host. (The
    // shared-mode divergence path is fault_membership_test's
    // OneCorruptedTaskHealsAtTheDetectingBarrier and
    // PersistentCorruptionHealsOnceThenEvicts.)
    ClusterOptions options = SmallClusterOptions(2);
    options.shared_decisions = false;
    Cluster fe(options);
    DriveLoop(fe, 30, 6);
    ASSERT_TRUE(test::StreamsIdentical(fe));
    ASSERT_TRUE(fe.StreamDigestsAgree());
    // Drive one node outside the cluster front end: its stream (and
    // digest) must now differ, and both checks must agree on that.
    const rt::RegionId r = fe.Node(1).CreateRegion();
    fe.Node(1).ExecuteTask(rt::TaskLaunch{
        999, {{r, 0, rt::Privilege::kReadWrite, 0}}});
    fe.Node(1).Flush();
    EXPECT_FALSE(test::StreamsIdentical(fe));
    EXPECT_FALSE(fe.StreamDigestsAgree());
}

TEST(StreamDigest, SensitiveToEveryComparedField)
{
    // Two logs whose operations differ only in one compared field
    // must produce different digests.
    rt::TaskLaunch launch;
    launch.task = 7;
    launch.requirements = {{rt::RegionId{1}, 0,
                            rt::Privilege::kReadWrite, 0}};
    const rt::Dependence edge{0, 1, rt::DependenceKind::kTrue};

    const auto digest_of = [&](rt::TaskId task, rt::TraceId trace,
                               std::span<const rt::Dependence> deps) {
        rt::OperationLog log;
        rt::TaskLaunch first = launch;
        log.Append(rt::TaskLaunchView::Of(first),
                   rt::AnalysisMode::kAnalyzed, rt::kNoTrace, 1.0,
                   false, {});
        rt::TaskLaunch second = launch;
        second.task = task;
        log.Append(rt::TaskLaunchView::Of(second),
                   rt::AnalysisMode::kAnalyzed, trace, 1.0, false,
                   deps);
        return StreamDigest::Of(log);
    };

    const StreamDigest base = digest_of(7, rt::kNoTrace, {&edge, 1});
    const StreamDigest same = digest_of(7, rt::kNoTrace, {&edge, 1});
    EXPECT_EQ(base.Value(), same.Value());
    EXPECT_NE(base.Value(),
              digest_of(8, rt::kNoTrace, {&edge, 1}).Value())
        << "token not digested";
    EXPECT_NE(base.Value(), digest_of(7, 3, {&edge, 1}).Value())
        << "trace id not digested";
    EXPECT_NE(base.Value(), digest_of(7, rt::kNoTrace, {}).Value())
        << "edges not digested";
}

TEST(StreamDigest, StreamingDigestEqualsRetainedDigest)
{
    // The incremental (streaming-retire-fed) digest and the post-hoc
    // retained-log digest are the same fold over the same stream.
    ClusterOptions retained_options = SmallClusterOptions(2);
    Cluster retained(retained_options);
    DriveLoop(retained, 50, 8);

    ClusterOptions streaming_options = SmallClusterOptions(2);
    streaming_options.stream_logs = true;
    Cluster streaming(streaming_options);
    DriveLoop(streaming, 50, 8);
    streaming.DrainLogStreams();

    for (std::size_t n = 0; n < 2; ++n) {
        EXPECT_EQ(streaming.NodeDigest(n).Value(),
                  retained.NodeDigest(n).Value())
            << "node " << n;
        EXPECT_EQ(streaming.NodeDigest(n).Count(),
                  retained.NodeDigest(n).Count());
    }
}

/** The retained runtime of `iterations` auto-traced iterations of
 * App, so its log holds analysed, recorded and replayed operations. */
template <typename App, typename Options>
std::unique_ptr<rt::Runtime> TracedAppRuntime(const Options& options,
                                              std::size_t iterations)
{
    auto runtime = std::make_unique<rt::Runtime>();
    core::ApopheniaConfig config;
    config.min_trace_length = 10;
    config.batchsize = 1500;
    config.multi_scale_factor = 100;
    core::Apophenia fe(*runtime, config);
    App app(options);
    app.Setup(fe);
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        app.Iteration(fe, iter, false);
    }
    fe.Flush();
    return runtime;
}

TEST(StreamDigest, SeesEverySingleChangeOnAppLogs)
{
    // Over retained S3D, HTR and CFD logs: every single change to a
    // folded field moves the digest, the streaming and restored folds
    // equal Of(log), and Consume() allocates nothing.
    const apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    std::vector<std::pair<std::string, std::unique_ptr<rt::Runtime>>> runs;
    runs.emplace_back("s3d", TracedAppRuntime<apps::S3dApplication>(
                                 apps::S3dOptions{.machine = machine}, 60));
    runs.emplace_back("htr", TracedAppRuntime<apps::HtrApplication>(
                                 apps::HtrOptions{.machine = machine}, 40));
    runs.emplace_back("cfd", TracedAppRuntime<apps::CfdApplication>(
                                 apps::CfdOptions{.machine = machine}, 80));
    std::uint64_t seed = 1;
    for (const auto& [app, runtime] : runs) {
        SCOPED_TRACE(app);
        const rt::OperationLog& log = runtime->Log();
        ASSERT_GT(runtime->Stats().tasks_replayed, 0u);
        const std::vector<std::size_t> ran =
            test::ExpectDigestProperties(log, seed++);
        for (std::size_t e = 0; e < ran.size(); ++e) {
            EXPECT_GT(ran[e], 0u) << "edit " << e << " never applied";
        }

        StreamDigest digest;
        const std::uint64_t before = support::AllocationCount();
        for (std::size_t i = 0; i < log.size(); ++i) {
            digest.Consume(log[i]);
        }
        EXPECT_EQ(support::AllocationCount(), before)
            << "Consume() allocated";
        EXPECT_EQ(digest, StreamDigest::Of(log));
    }
}

// ---------------------------------------------------------------------------
// Skew models.

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

std::uint64_t FinalSlackWithStraggler(double factor)
{
    ExperimentOptions options = ClusterExperiment(4, 60);
    if (factor > 1.0) {
        options.skew.kind = SkewKind::kStraggler;
        options.skew.straggler_node = 1;
        options.skew.straggler_factor = factor;
    }
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const ExperimentResult result = RunExperiment(app, options);
    EXPECT_TRUE(result.streams_identical) << "factor " << factor;
    return result.coordination.final_slack;
}

TEST(Skew, StragglerDegradesAgreedSlackMonotonically)
{
    const std::vector<double> factors = {1.0, 2.0, 4.0, 8.0};
    std::vector<std::uint64_t> slack;
    for (const double f : factors) {
        slack.push_back(FinalSlackWithStraggler(f));
    }
    for (std::size_t i = 1; i < slack.size(); ++i) {
        EXPECT_GE(slack[i], slack[i - 1])
            << "slack not monotone at factor " << factors[i];
    }
    EXPECT_GT(slack.back(), slack.front())
        << "an 8x straggler should visibly widen the agreed slack";
}

TEST(Skew, StragglerMakesTheOtherNodesStall)
{
    ExperimentOptions options = ClusterExperiment(4, 60);
    options.skew.kind = SkewKind::kStraggler;
    options.skew.straggler_node = 1;
    options.skew.straggler_factor = 8.0;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const ExperimentResult result = RunExperiment(app, options);
    ASSERT_EQ(result.node_metrics.size(), 4u);
    // The straggler misses agreements; the healthy nodes pay stalls.
    EXPECT_GT(result.node_metrics[1].late_jobs, 0u);
    double healthy_stall = 0.0;
    for (std::size_t n = 0; n < 4; ++n) {
        if (n != 1) {
            healthy_stall += result.node_metrics[n].stall_tasks;
        }
    }
    EXPECT_GT(healthy_stall, 0.0);
    // The straggler's virtual clock ran 8x the others'.
    EXPECT_GT(result.node_metrics[1].virtual_time_tasks,
              4.0 * result.node_metrics[0].virtual_time_tasks);
    EXPECT_TRUE(result.streams_identical);
}

TEST(Skew, JitterAndInterferenceKeepStreamsIdentical)
{
    for (const SkewKind kind :
         {SkewKind::kJitter, SkewKind::kInterference}) {
        ExperimentOptions options = ClusterExperiment(3, 50);
        options.skew.kind = kind;
        options.skew.jitter_amplitude = 0.5;
        options.skew.burst_period_tasks = 512;
        options.skew.burst_duration_tasks = 128;
        options.skew.burst_factor = 8.0;
        options.skew.burst_stagger_tasks = 171;
        apps::S3dApplication app(
            apps::S3dOptions{.machine = options.machine});
        const ExperimentResult result = RunExperiment(app, options);
        EXPECT_TRUE(result.streams_identical)
            << SkewName(kind) << ": skew must perturb timing only";
        EXPECT_GT(result.replayed_fraction, 0.0) << SkewName(kind);
        // Skewed clocks ran ahead of the ideal task count.
        EXPECT_GT(result.node_metrics[0].virtual_time_tasks,
                  static_cast<double>(
                      result.frontend_stats.tasks_executed))
            << SkewName(kind);
    }
}

TEST(Skew, InterferenceBurstsForceAgreementMisses)
{
    ExperimentOptions baseline = ClusterExperiment(3, 60);
    apps::S3dApplication base_app(
        apps::S3dOptions{.machine = baseline.machine});
    const ExperimentResult none = RunExperiment(base_app, baseline);

    ExperimentOptions bursty = ClusterExperiment(3, 60);
    bursty.skew.kind = SkewKind::kInterference;
    bursty.skew.burst_period_tasks = 1024;
    bursty.skew.burst_duration_tasks = 256;
    bursty.skew.burst_factor = 16.0;
    apps::S3dApplication bursty_app(
        apps::S3dOptions{.machine = bursty.machine});
    const ExperimentResult result = RunExperiment(bursty_app, bursty);

    EXPECT_TRUE(result.streams_identical);
    EXPECT_GE(result.coordination.late_jobs,
              none.coordination.late_jobs);
    EXPECT_GE(result.coordination.peak_slack,
              none.coordination.peak_slack);
}

// ---------------------------------------------------------------------------
// The replication x skew x log-mode x app axis.

template <typename App, typename Options>
void ExpectStreamingMatchesRetained(Options app_options,
                                    std::size_t iterations,
                                    std::string_view label)
{
    SCOPED_TRACE(std::string(label));
    // Retained / no-skew baseline.
    ExperimentOptions options = ClusterExperiment(2, iterations);
    options.machine = app_options.machine;
    App retained_app(app_options);
    const ExperimentResult retained =
        RunExperiment(retained_app, options);
    EXPECT_TRUE(retained.streams_identical);
    EXPECT_GT(retained.replayed_fraction, 0.0);

    // Streaming, skew none: bit-identical to the baseline.
    options.log_mode = LogMode::kStreaming;
    App streaming_app(app_options);
    const ExperimentResult streaming =
        RunExperiment(streaming_app, options);
    EXPECT_TRUE(streaming.streams_identical);
    EXPECT_EQ(streaming.iterations_per_second,
              retained.iterations_per_second);
    EXPECT_EQ(streaming.makespan_us, retained.makespan_us);
    EXPECT_EQ(streaming.total_tasks, retained.total_tasks);
    EXPECT_EQ(streaming.replayed_fraction, retained.replayed_fraction);
    EXPECT_EQ(streaming.coordination.final_slack,
              retained.coordination.final_slack);
    EXPECT_EQ(streaming.log_retired_ops, streaming.total_tasks);

    // Streaming under a straggler: still safe, still streams.
    options.skew.kind = SkewKind::kStraggler;
    options.skew.straggler_node = 1;
    options.skew.straggler_factor = 4.0;
    App skewed_app(app_options);
    const ExperimentResult skewed = RunExperiment(skewed_app, options);
    EXPECT_TRUE(skewed.streams_identical);
    EXPECT_EQ(skewed.total_tasks, retained.total_tasks);
    EXPECT_EQ(skewed.log_retired_ops, skewed.total_tasks);
}

TEST(ClusterHarness, S3dStreamingReplicated)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectStreamingMatchesRetained<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 60, "s3d");
}

TEST(ClusterHarness, HtrStreamingReplicated)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectStreamingMatchesRetained<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 50, "htr");
}

TEST(ClusterHarness, CfdStreamingReplicated)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectStreamingMatchesRetained<apps::CfdApplication>(
        apps::CfdOptions{.machine = machine}, 120, "cfd");
}

TEST(ClusterHarness, TorchSweStreamingReplicated)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    apps::TorchSweOptions options{.machine = machine};
    options.allocation_pool_budget = 150;
    ExpectStreamingMatchesRetained<apps::TorchSweApplication>(
        options, 80, "torchswe");
}

TEST(ClusterHarness, FlexFlowStreamingReplicated)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectStreamingMatchesRetained<apps::FlexFlowApplication>(
        apps::FlexFlowOptions{.machine = machine}, 40, "flexflow");
}

TEST(ClusterHarness, EightNodesStreamingWithSkew)
{
    ExperimentOptions options = ClusterExperiment(8, 50);
    options.log_mode = LogMode::kStreaming;
    options.skew.kind = SkewKind::kInterference;
    options.skew.burst_period_tasks = 768;
    options.skew.burst_duration_tasks = 128;
    options.skew.burst_factor = 8.0;
    options.skew.burst_stagger_tasks = 96;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const ExperimentResult result = RunExperiment(app, options);
    EXPECT_TRUE(result.streams_identical);
    EXPECT_GT(result.replayed_fraction, 0.0);
    ASSERT_EQ(result.node_metrics.size(), 8u);
    EXPECT_EQ(result.log_retired_ops, result.total_tasks);
}

// ---------------------------------------------------------------------------
// The parallel execution engine: thread-count invariance, the shared
// mining cache's mine-once invariant, and the zero-allocation issue
// path.

TEST(ParallelEngine, ParseJobsTakesOnlyAWholePositiveNumber)
{
    // APO_JOBS values, parsed as the cluster and the bench records
    // read them: anything but a whole decimal number of at least 1
    // reads 0, which they ignore.
    EXPECT_EQ(ParseJobs("8"), 8u);
    EXPECT_EQ(ParseJobs("-1"), 0u);
    EXPECT_EQ(ParseJobs(" 8"), 0u);
    EXPECT_EQ(ParseJobs("+8"), 0u);
    EXPECT_EQ(ParseJobs("8x"), 0u);
    EXPECT_EQ(ParseJobs("0"), 0u);
    EXPECT_EQ(ParseJobs(""), 0u);
    EXPECT_EQ(ParseJobs(nullptr), 0u);
}

TEST(ParallelEngine, ClusterByteIdenticalAcrossJobCounts)
{
    // Identical clusters driven identically at jobs {1, 2, 8} must
    // produce the very same digests, coordination stats and per-node
    // metrics — jobs=1 is the serial schedule, so this pins the
    // parallel engine to it bit-for-bit.
    auto run = [](std::size_t jobs) {
        ClusterOptions options = SmallClusterOptions(4);
        options.jobs = jobs;
        options.coordination.seed = 11;
        options.coordination.jitter = 0.9;
        options.skew.kind = SkewKind::kJitter;
        options.skew.jitter_amplitude = 0.4;
        auto fe = std::make_unique<Cluster>(options);
        DriveLoop(*fe, /*iterations=*/60, /*body=*/10);
        return fe;
    };
    const auto reference = run(1);
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE(jobs);
        const auto parallel = run(jobs);
        // The team is clamped to the node count (4 here).
        EXPECT_EQ(parallel->Jobs(),
                  std::min(jobs, parallel->Nodes()));
        for (std::size_t n = 0; n < reference->Nodes(); ++n) {
            EXPECT_EQ(parallel->NodeDigest(n).Value(),
                      reference->NodeDigest(n).Value())
                << "node " << n;
            EXPECT_EQ(parallel->NodeDigest(n).Count(),
                      reference->NodeDigest(n).Count());
        }
        const CoordinationStats& a = parallel->Coordination();
        const CoordinationStats& b = reference->Coordination();
        EXPECT_EQ(a.jobs_coordinated, b.jobs_coordinated);
        EXPECT_EQ(a.late_jobs, b.late_jobs);
        EXPECT_EQ(a.final_slack, b.final_slack);
        EXPECT_EQ(a.peak_slack, b.peak_slack);
        for (std::size_t n = 0; n < reference->Nodes(); ++n) {
            const NodeMetrics& pm = parallel->PerNode()[n];
            const NodeMetrics& rm = reference->PerNode()[n];
            EXPECT_DOUBLE_EQ(pm.virtual_time_tasks,
                             rm.virtual_time_tasks);
            EXPECT_EQ(pm.late_jobs, rm.late_jobs);
            EXPECT_DOUBLE_EQ(pm.stall_tasks, rm.stall_tasks);
            EXPECT_DOUBLE_EQ(pm.max_stall_tasks, rm.max_stall_tasks);
        }
    }
}

TEST(ParallelEngine, SharedDeciderMiningOnTheTeamMatchesInline)
{
    // Under shared decisions the decider's mining jobs queue on the
    // team. Default slack leaves them to the workers; a slack of one
    // task with one-task, jitter-free latencies makes every job fall
    // due at the very next barrier, so the driving thread must run a
    // job no worker has started or wait for the one a worker runs.
    // Either way jobs {2, 8} must equal inline mining at jobs 1.
    for (const bool tight : {false, true}) {
        SCOPED_TRACE(tight ? "tight slack" : "default slack");
        auto run = [tight](std::size_t jobs) {
            ClusterOptions options = SmallClusterOptions(8);
            options.jobs = jobs;
            options.coordination.seed = 3;
            if (tight) {
                options.coordination.initial_slack = 1;
                options.coordination.mean_latency_tasks = 1.0;
                options.coordination.jitter = 0.0;
            }
            auto fe = std::make_unique<Cluster>(options);
            DriveLoop(*fe, /*iterations=*/60, /*body=*/10);
            return fe;
        };
        const auto reference = run(1);
        ASSERT_TRUE(reference->SharedDecisions());
        EXPECT_TRUE(reference->StreamDigestsAgree());
        EXPECT_GT(reference->Decider().Stats().jobs_ingested, 0u);
        EXPECT_GT(reference->Decider().Stats().trace_replays, 0u);
        if (tight) {
            EXPECT_EQ(reference->Coordination().late_jobs, 0u);
            EXPECT_EQ(reference->Coordination().final_slack, 1u);
        }
        for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
            SCOPED_TRACE(jobs);
            const auto parallel = run(jobs);
            EXPECT_EQ(parallel->Jobs(), jobs);
            for (std::size_t n = 0; n < reference->Nodes(); ++n) {
                EXPECT_EQ(parallel->NodeDigest(n).Value(),
                          reference->NodeDigest(n).Value())
                    << "node " << n;
                EXPECT_EQ(parallel->NodeDigest(n).Count(),
                          reference->NodeDigest(n).Count());
            }
            EXPECT_EQ(parallel->Decider().CandidateDigest(),
                      reference->Decider().CandidateDigest());
            EXPECT_EQ(parallel->Decider().Stats().jobs_ingested,
                      reference->Decider().Stats().jobs_ingested);
            EXPECT_EQ(parallel->Decider().Stats().trace_replays,
                      reference->Decider().Stats().trace_replays);
            const CoordinationStats& a = parallel->Coordination();
            const CoordinationStats& b = reference->Coordination();
            EXPECT_EQ(a.jobs_coordinated, b.jobs_coordinated);
            EXPECT_EQ(a.late_jobs, b.late_jobs);
            EXPECT_EQ(a.final_slack, b.final_slack);
            EXPECT_EQ(a.peak_slack, b.peak_slack);
            for (std::size_t n = 0; n < reference->Nodes(); ++n) {
                const NodeMetrics& pm = parallel->PerNode()[n];
                const NodeMetrics& rm = reference->PerNode()[n];
                EXPECT_DOUBLE_EQ(pm.virtual_time_tasks,
                                 rm.virtual_time_tasks);
                EXPECT_EQ(pm.late_jobs, rm.late_jobs);
                EXPECT_DOUBLE_EQ(pm.stall_tasks, rm.stall_tasks);
                EXPECT_DOUBLE_EQ(pm.max_stall_tasks, rm.max_stall_tasks);
            }
            const DecisionStats pc = parallel->DecisionCost();
            const DecisionStats rc = reference->DecisionCost();
            EXPECT_EQ(pc.batches, rc.batches);
            EXPECT_EQ(pc.decisions, rc.decisions);
        }
    }
}

TEST(ParallelEngine, HarnessResultsIdenticalAcrossJobCounts)
{
    // The full replicated streaming harness (skewed, 8 nodes) through
    // every figure surface: simulated throughput, makespan, slack
    // trajectory and per-node metrics must not depend on jobs.
    auto run = [](std::size_t jobs) {
        ExperimentOptions options = ClusterExperiment(8, 40);
        options.log_mode = LogMode::kStreaming;
        options.skew.kind = SkewKind::kStraggler;
        options.skew.straggler_node = 2;
        options.skew.straggler_factor = 4.0;
        options.cluster_jobs = jobs;
        apps::S3dApplication app(
            apps::S3dOptions{.machine = options.machine});
        return RunExperiment(app, options);
    };
    const ExperimentResult reference = run(1);
    EXPECT_TRUE(reference.streams_identical);
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE(jobs);
        const ExperimentResult parallel = run(jobs);
        EXPECT_TRUE(parallel.streams_identical);
        // The issued streams themselves, not just derived figures.
        EXPECT_EQ(parallel.stream_digest, reference.stream_digest);
        EXPECT_EQ(parallel.stream_digest_ops,
                  reference.stream_digest_ops);
        EXPECT_DOUBLE_EQ(parallel.iterations_per_second,
                         reference.iterations_per_second);
        EXPECT_DOUBLE_EQ(parallel.makespan_us, reference.makespan_us);
        EXPECT_EQ(parallel.total_tasks, reference.total_tasks);
        EXPECT_EQ(parallel.replayed_fraction,
                  reference.replayed_fraction);
        EXPECT_EQ(parallel.log_retired_ops, reference.log_retired_ops);
        EXPECT_EQ(parallel.coordination.final_slack,
                  reference.coordination.final_slack);
        EXPECT_EQ(parallel.coordination.late_jobs,
                  reference.coordination.late_jobs);
        EXPECT_EQ(parallel.coordination.peak_slack,
                  reference.coordination.peak_slack);
        ASSERT_EQ(parallel.node_metrics.size(),
                  reference.node_metrics.size());
        for (std::size_t n = 0; n < reference.node_metrics.size(); ++n) {
            EXPECT_DOUBLE_EQ(parallel.node_metrics[n].virtual_time_tasks,
                             reference.node_metrics[n].virtual_time_tasks);
            EXPECT_DOUBLE_EQ(parallel.node_metrics[n].stall_tasks,
                             reference.node_metrics[n].stall_tasks);
        }
        // The cache serves every node beyond the first miner at any
        // thread count (a racing prober blocks for the miner rather
        // than mining twice).
        EXPECT_EQ(parallel.mining_cache_misses,
                  reference.mining_cache_misses);
        EXPECT_EQ(parallel.mining_cache_hits,
                  reference.mining_cache_hits);
    }
}

TEST(MiningCache, NoSkewReplicatedRunsMineEachWindowOnce)
{
    constexpr std::size_t kNodes = 4;
    ExperimentOptions options = ClusterExperiment(kNodes, 50);
    options.log_mode = LogMode::kStreaming;
    // The per-window accounting below counts every node's own probes
    // — per-node engines (under shared decisions only the one decider
    // mines, which is the stronger dedup, tested elsewhere).
    options.shared_decisions = false;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const ExperimentResult result = RunExperiment(app, options);
    EXPECT_TRUE(result.streams_identical);

    const std::uint64_t jobs_per_node =
        result.apophenia_stats.jobs_ingested;
    ASSERT_GT(jobs_per_node, 0u);
    // Every job probes the shared cache (the nodes keep no private
    // memo) and is served exactly once: by a cache hit, or by a miss
    // (its one mining run). Each distinct window costs exactly one
    // miss, and every other job — all of nodes 1..N-1's, plus repeated
    // windows on node 0 — is a cache hit.
    EXPECT_EQ(result.mining_fast_path_hits, 0u);
    EXPECT_EQ(result.mining_cache_hits + result.mining_cache_misses,
              kNodes * jobs_per_node);
    EXPECT_EQ(result.mining_cache_misses, result.mining_cache_windows)
        << "a window was mined more than once";
    EXPECT_LE(result.mining_cache_misses, jobs_per_node)
        << "a node other than the first finisher re-mined a window";
    EXPECT_GE(result.mining_cache_hits, (kNodes - 1) * jobs_per_node);
}

TEST(MiningCache, BoundedRetentionEvictsOldestAndStaysCorrect)
{
    core::MiningCache cache(/*max_windows=*/2);
    const std::vector<rt::TokenHash> a{1, 2, 3};
    const std::vector<rt::TokenHash> b{4, 5, 6};
    const std::vector<rt::TokenHash> c{7, 8, 9};
    auto key_of = [](const std::vector<rt::TokenHash>& w) {
        return core::MiningCache::KeyOf(test::SnapshotOf(w));
    };
    auto probe = [&](const std::vector<rt::TokenHash>& w) {
        return cache.AcquireOrBegin(key_of(w), test::SnapshotOf(w, 2));
    };
    auto mine = [&](const std::vector<rt::TokenHash>& w) {
        EXPECT_TRUE(probe(w).miner);
        return cache.Publish(key_of(w), w, {core::CandidateTrace{w, 2.0}});
    };
    const auto a_results = mine(a);
    mine(b);
    mine(c);  // evicts a (FIFO, cap 2)
    EXPECT_EQ(cache.Size(), 2u);
    // An adopter's shared ownership survives the eviction.
    ASSERT_EQ(a_results->size(), 1u);
    EXPECT_EQ(a_results->front().tokens, a);
    // A retained window still hits; the evicted one is re-mined.
    const core::MiningCache::Claim hit = probe(c);
    ASSERT_NE(hit.results, nullptr);
    EXPECT_FALSE(hit.miner);
    const core::MiningCache::Claim remine = probe(a);
    EXPECT_EQ(remine.results, nullptr);
    EXPECT_TRUE(remine.miner);
    cache.Abandon(key_of(a));
    const core::MiningCache::Stats stats = cache.Snapshot();
    EXPECT_EQ(stats.misses, 4u);  // a, b, c mined + a re-begun
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.windows, 3u);  // published runs
}

TEST(MiningCache, HashCollisionIsDetectedNotAdopted)
{
    // Probe an existing key with *different* window content (a forged
    // 64-bit collision): the cache must refuse to adopt and must not
    // let the prober clobber the entry — it mines locally instead.
    core::MiningCache cache;
    const std::vector<rt::TokenHash> original{10, 20, 30, 40, 50, 60};
    const std::vector<rt::TokenHash> impostor{10, 20, 30, 40, 50, 61};
    const core::HistorySnapshot original_snapshot =
        test::SnapshotOf(original);
    ASSERT_GT(original_snapshot.NumSpans(), 1u);
    const core::MiningCache::Key key =
        core::MiningCache::KeyOf(original_snapshot);
    core::MiningCache::Claim claim =
        cache.AcquireOrBegin(key, original_snapshot);
    ASSERT_TRUE(claim.miner);
    cache.Publish(key, original, {core::CandidateTrace{original, 2.0}});

    // The impostor differs only in its last block.
    const core::MiningCache::Claim collided =
        cache.AcquireOrBegin(key, test::SnapshotOf(impostor));
    EXPECT_EQ(collided.results, nullptr) << "adopted a colliding window";
    EXPECT_FALSE(collided.miner) << "collision must not own the entry";
    // The original entry is untouched and still serves hits.
    const core::MiningCache::Claim hit =
        cache.AcquireOrBegin(key, original_snapshot);
    ASSERT_NE(hit.results, nullptr);
    EXPECT_EQ(hit.results->front().tokens, original);
}

TEST(MiningCache, SharedCacheIsBehaviourInvariant)
{
    // On or off, the cache may change wall-clock only: every figure
    // surface of a skewed replicated run must be identical.
    auto run = [](bool share) {
        ExperimentOptions options = ClusterExperiment(3, 40);
        options.skew.kind = SkewKind::kJitter;
        options.skew.jitter_amplitude = 0.5;
        options.share_mining_cache = share;
        // Per-node engines: the cross-node adoption this test pins
        // (hits > 0 with the cache on) only exists when every node
        // mines for itself.
        options.shared_decisions = false;
        apps::S3dApplication app(
            apps::S3dOptions{.machine = options.machine});
        return RunExperiment(app, options);
    };
    const ExperimentResult with = run(true);
    const ExperimentResult without = run(false);
    EXPECT_TRUE(with.streams_identical);
    EXPECT_TRUE(without.streams_identical);
    EXPECT_EQ(with.stream_digest, without.stream_digest);
    EXPECT_EQ(with.stream_digest_ops, without.stream_digest_ops);
    EXPECT_DOUBLE_EQ(with.iterations_per_second,
                     without.iterations_per_second);
    EXPECT_DOUBLE_EQ(with.makespan_us, without.makespan_us);
    EXPECT_EQ(with.total_tasks, without.total_tasks);
    EXPECT_EQ(with.replayed_fraction, without.replayed_fraction);
    EXPECT_EQ(with.coordination.final_slack,
              without.coordination.final_slack);
    EXPECT_GT(with.mining_cache_hits, 0u);
    EXPECT_EQ(without.mining_cache_hits, 0u);
    EXPECT_EQ(without.mining_cache_misses, 0u);
}

namespace {

void DriveStreamingIssuePath(std::size_t jobs)
{
    ClusterOptions options;
    options.coordination.nodes = 3;
    options.config.enabled = false;  // untraced control replication
    options.stream_logs = true;
    options.jobs = jobs;
    options.runtime_options.log_config.ops_per_block = 256;
    options.runtime_options.log_config.payload_block_elems = 1024;
    Cluster fe(options);
    api::LaunchBuilder builder;
    const rt::RegionId r0 = fe.CreateRegion();
    const rt::RegionId out = fe.CreateRegion();
    auto issue_one = [&](std::size_t i) {
        const rt::FieldId f = static_cast<rt::FieldId>(i % 4);
        builder.Start(static_cast<rt::TaskId>(100 + i % 8), 0, 50.0)
            .Add(rt::RegionRequirement{r0, f, rt::Privilege::kReadWrite,
                                       0})
            .Add(rt::RegionRequirement{out, f,
                                       rt::Privilege::kWriteDiscard, 0})
            .LaunchOn(fe);
    };
    // Warm through several batch and log-block cycles on every node:
    // batch slots, pending pools and recycled blocks reach capacity.
    for (std::size_t i = 0; i < 4096; ++i) {
        issue_one(i);
    }
    const std::uint64_t before = support::AllocationCount();
    for (std::size_t i = 0; i < 8192; ++i) {
        issue_one(4096 + i);
    }
    EXPECT_EQ(support::AllocationCount() - before, 0u)
        << "replicated streaming issue path allocated per launch "
           "(jobs=" << jobs << ")";
    fe.Flush();
    EXPECT_TRUE(fe.StreamDigestsAgree());
    EXPECT_EQ(fe.NodeDigest(0).Count(), 4096u + 8192u);
}

}  // namespace

TEST(ZeroAlloc, ReplicatedStreamingIssuePathIsAllocationFree)
{
    DriveStreamingIssuePath(/*jobs=*/1);
}

TEST(ZeroAlloc, ParallelEngineKeepsTheIssuePathAllocationFree)
{
    // The TaskTeam fan-out must not reintroduce per-launch (or
    // per-batch) allocations: the body is installed once and each
    // barrier only republishes an index range.
    DriveStreamingIssuePath(/*jobs=*/2);
}

TEST(ClusterHarness, SixtyFourNodeStreamingStaysUnderLogCeiling)
{
    // The "millions of users" shape: 64 simulated nodes, every node's
    // log in streaming-retire mode. The worst node's resident log
    // memory must stay under a fixed ceiling no matter the stream
    // length, and agreement is certified by the rolling digests alone
    // (no retained logs exist to compare).
    constexpr std::size_t kCeilingBytes = 2u << 20;  // 2 MiB per node
    ExperimentOptions options = ClusterExperiment(64, 40);
    options.log_mode = LogMode::kStreaming;
    options.skew.kind = SkewKind::kJitter;
    options.skew.jitter_amplitude = 0.3;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const ExperimentResult result = RunExperiment(app, options);
    EXPECT_TRUE(result.streams_identical);
    EXPECT_GT(result.replayed_fraction, 0.0);
    ASSERT_EQ(result.node_metrics.size(), 64u);
    EXPECT_EQ(result.log_retired_ops, result.total_tasks);
    EXPECT_LT(result.log_peak_resident_bytes, kCeilingBytes)
        << "worst-node resident log exceeded the streaming ceiling";
}

}  // namespace
}  // namespace apo::sim
