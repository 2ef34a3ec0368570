/**
 * @file
 * Tests for the pipeline discrete-event simulator, the metrics, and
 * the experiment harness. Verifies the cost-model mechanics that
 * produce every figure: analysis bottlenecks, replay blocks, cross-
 * node latency, and the traced-vs-untraced throughput relationships.
 */
#include <gtest/gtest.h>

#include "apps/cfd.h"
#include "apps/s3d.h"
#include "sim/harness.h"
#include "sim/metrics.h"
#include "sim/pipeline.h"
#include "support/executor.h"

namespace apo::sim {
namespace {

rt::TaskLaunch SimpleTask(std::uint32_t shard, double exec_us,
                          rt::RegionId region, rt::Privilege priv)
{
    return rt::TaskLaunch{1, {{region, 0, priv, 0}}, exec_us, shard};
}

PipelineOptions OneNode()
{
    PipelineOptions o;
    o.machine.nodes = 1;
    o.machine.gpus_per_node = 2;
    return o;
}

TEST(Pipeline, SingleTaskTiming)
{
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    runtime.ExecuteTask(SimpleTask(0, 500.0, r, rt::Privilege::kReadWrite));
    const PipelineOptions o = OneNode();
    const PipelineResult result = SimulatePipeline(runtime.Log(), o);
    // launch + analysis + execution, nothing overlaps for one task.
    EXPECT_DOUBLE_EQ(result.makespan_us,
                     o.costs.launch_us + o.costs.analysis_us + 500.0);
}

TEST(Pipeline, ApopheniaFrontEndAddsLaunchOverhead)
{
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    runtime.ExecuteTask(SimpleTask(0, 500.0, r, rt::Privilege::kReadWrite));
    PipelineOptions o = OneNode();
    const double base = SimulatePipeline(runtime.Log(), o).makespan_us;
    o.apophenia_front_end = true;
    const double with_fe = SimulatePipeline(runtime.Log(), o).makespan_us;
    EXPECT_DOUBLE_EQ(with_fe - base, o.costs.apophenia_launch_us);
}

TEST(Pipeline, IndependentTasksOverlapAcrossGpus)
{
    rt::Runtime runtime;
    const rt::RegionId a = runtime.CreateRegion();
    const rt::RegionId b = runtime.CreateRegion();
    runtime.ExecuteTask(SimpleTask(0, 5000.0, a, rt::Privilege::kReadWrite));
    runtime.ExecuteTask(SimpleTask(1, 5000.0, b, rt::Privilege::kReadWrite));
    const PipelineOptions o = OneNode();
    const PipelineResult result = SimulatePipeline(runtime.Log(), o);
    // Execution overlaps; the second task is delayed only by the
    // serial analysis stage (which starts after the first launch).
    const double second_ready =
        o.costs.launch_us + 2 * o.costs.analysis_us;
    EXPECT_DOUBLE_EQ(result.makespan_us, second_ready + 5000.0);
}

TEST(Pipeline, DependentTasksSerializeOnExecution)
{
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    runtime.ExecuteTask(SimpleTask(0, 5000.0, r, rt::Privilege::kReadWrite));
    runtime.ExecuteTask(SimpleTask(1, 5000.0, r, rt::Privilege::kReadOnly));
    const PipelineResult result =
        SimulatePipeline(runtime.Log(), OneNode());
    // Same node, so no communication charge; executions serialize:
    // the reader starts when the writer finishes.
    const PipelineOptions o = OneNode();
    EXPECT_DOUBLE_EQ(result.finish_us[1],
                     o.costs.launch_us + o.costs.analysis_us + 5000.0 +
                         5000.0);
}

TEST(Pipeline, CrossNodeDependencePaysLatency)
{
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    runtime.ExecuteTask(SimpleTask(0, 5000.0, r, rt::Privilege::kReadWrite));
    runtime.ExecuteTask(SimpleTask(1, 5000.0, r, rt::Privilege::kReadOnly));
    PipelineOptions o = OneNode();
    o.machine.nodes = 2;
    o.machine.gpus_per_node = 1;  // shard 1 now lives on node 1
    const PipelineResult result = SimulatePipeline(runtime.Log(), o);
    // The reader waits an extra cross-node latency...
    const double expected_extra = o.machine.CrossNodeLatencyUs();
    // ...but analysis now also runs on separate per-node resources.
    rt::RuntimeOptions ro;
    ro.nodes = 2;
    rt::Runtime scaled(ro);
    const rt::RegionId r2 = scaled.CreateRegion();
    scaled.ExecuteTask(SimpleTask(0, 5000.0, r2, rt::Privilege::kReadWrite));
    scaled.ExecuteTask(SimpleTask(1, 5000.0, r2, rt::Privilege::kReadOnly));
    const PipelineResult split = SimulatePipeline(scaled.Log(), o);
    EXPECT_GT(result.finish_us[1],
              result.finish_us[0] + 5000.0 + expected_extra - 1e-9);
    (void)split;
}

TEST(Pipeline, ReplayBlockReleasesTasksTogether)
{
    // Record a 3-task trace, replay it once; the replayed tasks all
    // become ready when the whole block's replay completes.
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    auto issue_body = [&] {
        runtime.ExecuteTask(
            SimpleTask(0, 100.0, r, rt::Privilege::kReadWrite));
        runtime.ExecuteTask(
            SimpleTask(0, 100.0, r, rt::Privilege::kReadOnly));
        runtime.ExecuteTask(
            SimpleTask(1, 100.0, r, rt::Privilege::kReadOnly));
    };
    runtime.BeginTrace(1);
    issue_body();
    runtime.EndTrace(1);
    runtime.BeginTrace(1);
    issue_body();
    runtime.EndTrace(1);
    const PipelineOptions o = OneNode();
    const PipelineResult result = SimulatePipeline(runtime.Log(), o);
    // Ops 3..5 are the replay. The block completes after all three
    // launches plus c + 3 * alpha_r of analysis; no replayed task can
    // start executing before that.
    const double app_done = 6 * o.costs.launch_us;
    const double block_cost =
        o.costs.replay_constant_us + 3 * o.costs.replay_us;
    for (std::size_t k = 3; k < 6; ++k) {
        EXPECT_GE(result.finish_us[k] - runtime.Log()[k].launch.execution_us,
                  app_done + block_cost - 1e-9);
    }
}

TEST(Pipeline, LongReplayBlocksExposeLatencyOnSmallTasks)
{
    // Figure 8's mechanism. Each round updates 64 independent region
    // groups; chunked traces over disjoint groups have preconditions
    // that resolve early (the previous round's *same* chunk), so the
    // replay of chunk c+1 overlaps the execution of chunk c. One
    // monolithic trace's precondition set includes the final tasks of
    // the previous round, so its whole replay sits on the critical
    // path once per-task execution time shrinks below the per-task
    // replay cost.
    auto build = [](std::size_t chunk) {
        auto runtime = std::make_unique<rt::Runtime>();
        std::vector<rt::RegionId> regions;
        for (int i = 0; i < 64; ++i) {
            regions.push_back(runtime->CreateRegion());
        }
        auto issue = [&](std::size_t begin, std::size_t len,
                         rt::TraceId id) {
            runtime->BeginTrace(id);
            for (std::size_t i = begin; i < begin + len; ++i) {
                runtime->ExecuteTask(SimpleTask(
                    0, 80.0, regions[i], rt::Privilege::kReadWrite));
            }
            runtime->EndTrace(id);
        };
        for (int round = 0; round < 6; ++round) {
            for (std::size_t c = 0; c < 64; c += chunk) {
                issue(c, chunk, 100 + c);
            }
        }
        return runtime;
    };
    const auto big = build(64);
    const auto small = build(16);
    const PipelineOptions o = OneNode();
    const double t_big = SimulatePipeline(big->Log(), o).makespan_us;
    const double t_small = SimulatePipeline(small->Log(), o).makespan_us;
    EXPECT_LT(t_small, t_big);
}

TEST(Metrics, IterationEndTimesAreMonotone)
{
    PipelineResult sim;
    sim.finish_us = {10, 5, 30, 20, 50};
    const std::vector<std::size_t> boundaries{2, 4, 5};
    const auto ends = IterationEndTimes(sim, boundaries);
    const std::vector<double> expected{10, 30, 50};
    EXPECT_EQ(ends, expected);
}

TEST(Metrics, SteadyThroughputUsesTail)
{
    // 10 iterations: first five take 100µs, last five take 50µs.
    std::vector<double> ends;
    double t = 0;
    for (int i = 0; i < 5; ++i) {
        ends.push_back(t += 100);
    }
    for (int i = 0; i < 5; ++i) {
        ends.push_back(t += 50);
    }
    // Tail of 4 iterations at 50µs each -> 20k iters/sec.
    EXPECT_NEAR(SteadyThroughput(ends, 4), 1e6 / 50.0, 1e-6);
}

/** A synthetic log whose op `i` is traced iff `i >= analyzed_prefix`. */
rt::OperationLog ModeLog(std::size_t n, std::size_t analyzed_prefix)
{
    rt::OperationLog log;
    const rt::TaskLaunch launch;
    const rt::TaskLaunchView view = rt::TaskLaunchView::Of(launch);
    for (std::size_t i = 0; i < n; ++i) {
        log.Append(view,
                   i < analyzed_prefix ? rt::AnalysisMode::kAnalyzed
                                       : rt::AnalysisMode::kReplayed,
                   rt::kNoTrace, 0.0, /*replay_head=*/false, {});
    }
    return log;
}

TEST(Metrics, WarmupIterationsFindsSteadyPoint)
{
    std::vector<std::size_t> boundaries;
    for (std::size_t b = 10; b <= 100; b += 10) {
        boundaries.push_back(b);
    }
    EXPECT_EQ(WarmupIterations(ModeLog(100, 30), boundaries, 0.9), 3u);
    // All analyzed: never steady (the final two iterations are
    // excluded from the scan as flush-polluted).
    EXPECT_EQ(WarmupIterations(ModeLog(100, 100), boundaries, 0.9), 8u);
}

TEST(Metrics, TracedCoverageSeries)
{
    const rt::OperationLog log = ModeLog(100, 50);
    const auto series = TracedCoverageSeries(log, 50, 25);
    ASSERT_EQ(series.size(), 4u);
    EXPECT_DOUBLE_EQ(series[0].second, 0.0);    // ops 0-25
    EXPECT_DOUBLE_EQ(series[3].second, 100.0);  // ops 50-100
}

TEST(Harness, TracingBeatsUntracedWhenAnalysisBound)
{
    apps::S3dOptions app_options;
    app_options.machine.nodes = 2;
    app_options.machine.gpus_per_node = 2;
    app_options.size = apps::ProblemSize::kSmall;
    // Force the analysis-bound regime: tiny kernels cannot hide the
    // per-task dependence analysis, so tracing must win.
    app_options.exec_small_us = 500.0;

    ExperimentOptions options;
    options.machine = app_options.machine;
    options.iterations = 100;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 2000;
    options.auto_config.multi_scale_factor = 100;

    apps::S3dApplication app_auto(app_options);
    options.mode = TracingMode::kAuto;
    const ExperimentResult auto_result = RunExperiment(app_auto, options);

    apps::S3dApplication app_untraced(app_options);
    options.mode = TracingMode::kUntraced;
    const ExperimentResult untraced = RunExperiment(app_untraced, options);

    apps::S3dApplication app_manual(app_options);
    options.mode = TracingMode::kManual;
    const ExperimentResult manual = RunExperiment(app_manual, options);

    EXPECT_GT(auto_result.replayed_fraction, 0.5);
    EXPECT_GT(auto_result.iterations_per_second,
              untraced.iterations_per_second);
    // Auto is in the same ballpark as the expert manual annotation
    // (paper: 0.92x-1.03x).
    EXPECT_GT(auto_result.iterations_per_second,
              0.8 * manual.iterations_per_second);
    EXPECT_LT(auto_result.iterations_per_second,
              1.2 * manual.iterations_per_second);
}

TEST(Harness, PooledMiningMatchesInlineExperiment)
{
    // A front end ingests each mining job at the task that launched
    // it, so an experiment that mines on background threads, a
    // WorkerPool's or a TaskTeam's, must reproduce the inline figures
    // exactly: same decisions, same simulated timeline.
    apps::S3dOptions app_options;
    app_options.machine.nodes = 1;
    app_options.machine.gpus_per_node = 4;

    ExperimentOptions options;
    options.machine = app_options.machine;
    options.iterations = 80;
    options.mode = TracingMode::kAuto;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 2000;
    options.auto_config.multi_scale_factor = 100;

    apps::S3dApplication app_inline(app_options);
    const ExperimentResult inline_result =
        RunExperiment(app_inline, options);
    EXPECT_GT(inline_result.replayed_fraction, 0.0);

    support::WorkerPool pool(3);
    support::TaskTeam team(3);
    for (support::Executor* executor :
         {static_cast<support::Executor*>(&pool),
          static_cast<support::Executor*>(&team)}) {
        SCOPED_TRACE(executor == &pool ? "WorkerPool" : "TaskTeam");
        apps::S3dApplication app_pooled(app_options);
        options.executor = executor;
        const ExperimentResult pooled_result =
            RunExperiment(app_pooled, options);

        EXPECT_EQ(pooled_result.stream_digest, inline_result.stream_digest);
        EXPECT_EQ(pooled_result.stream_digest_ops,
                  inline_result.stream_digest_ops);
        EXPECT_EQ(pooled_result.candidate_digest,
                  inline_result.candidate_digest);
        EXPECT_DOUBLE_EQ(pooled_result.makespan_us,
                         inline_result.makespan_us);
        EXPECT_DOUBLE_EQ(pooled_result.iterations_per_second,
                         inline_result.iterations_per_second);
        EXPECT_DOUBLE_EQ(pooled_result.replayed_fraction,
                         inline_result.replayed_fraction);
        EXPECT_EQ(pooled_result.apophenia_stats.traces_fired,
                  inline_result.apophenia_stats.traces_fired);
        EXPECT_EQ(pooled_result.apophenia_stats.jobs_ingested,
                  inline_result.apophenia_stats.jobs_ingested);
        // The issued stream stays a valid program.
        EXPECT_EQ(pooled_result.total_tasks,
                  pooled_result.runtime_stats.tasks_analyzed +
                      pooled_result.runtime_stats.tasks_recorded +
                      pooled_result.runtime_stats.tasks_replayed);
    }
}

TEST(Harness, WarmupIsReportedForAutoMode)
{
    apps::CfdOptions app_options;
    app_options.machine.nodes = 1;
    app_options.machine.gpus_per_node = 4;
    apps::CfdApplication app(app_options);

    ExperimentOptions options;
    options.machine = app_options.machine;
    options.iterations = 120;
    options.mode = TracingMode::kAuto;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 2000;
    options.auto_config.multi_scale_factor = 100;
    const ExperimentResult result = RunExperiment(app, options);
    EXPECT_GT(result.warmup_iterations, 0u);
    EXPECT_LT(result.warmup_iterations, 120u);
}

TEST(Harness, CoverageSeriesClimbsToPlateau)
{
    apps::S3dOptions app_options;
    app_options.machine.nodes = 1;
    app_options.machine.gpus_per_node = 4;
    apps::S3dApplication app(app_options);

    ExperimentOptions options;
    options.machine = app_options.machine;
    options.iterations = 70;
    options.mode = TracingMode::kAuto;
    options.auto_config.min_trace_length = 10;
    options.auto_config.batchsize = 2000;
    options.auto_config.multi_scale_factor = 100;
    options.keep_coverage_series = true;
    options.coverage_window = 1000;
    options.coverage_stride = 100;
    const ExperimentResult result = RunExperiment(app, options);
    ASSERT_GT(result.coverage_series.size(), 10u);
    EXPECT_LT(result.coverage_series.front().second, 50.0);
    EXPECT_GT(result.coverage_series.back().second, 80.0);
}

TEST(Harness, ExperimentStackRejectsAMachineWithoutNodesOrGpus)
{
    // The pipeline model places shard s on node s / gpus_per_node, so
    // an empty machine is a usage error, not a division by zero.
    for (const bool replicated : {false, true}) {
        SCOPED_TRACE(replicated);
        ExperimentOptions options;
        options.replicas = replicated ? 2 : 1;
        options.machine.nodes = 0;
        options.machine.gpus_per_node = 4;
        EXPECT_THROW(ExperimentStack{options}, rt::RuntimeUsageError);
        options.machine.nodes = 2;
        options.machine.gpus_per_node = 0;
        EXPECT_THROW(ExperimentStack{options}, rt::RuntimeUsageError);
        options.machine.gpus_per_node = 1;
        EXPECT_NO_THROW(ExperimentStack{options});
    }
}

}  // namespace
}  // namespace apo::sim
