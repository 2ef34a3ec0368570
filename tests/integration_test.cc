/**
 * @file
 * Cross-module integration properties over the whole stack
 * (applications → Apophenia → runtime → simulator):
 *
 *  - end-to-end determinism: identical runs produce bit-identical
 *    operation logs and simulated timings;
 *  - semantic transparency: for every workload and tracing mode, the
 *    dependence graph equals the untraced graph;
 *  - replication over real applications;
 *  - configuration robustness: every identifier/repeats-algorithm
 *    combination produces a correct (if not always fast) stream.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "api/frontend.h"
#include "apps/torchswe.h"
#include "sim/cluster.h"
#include "sim/harness.h"
#include "bundled_apps.h"
#include "log_rows.h"
#include "streams_identical.h"

namespace apo {
namespace {

apps::MachineConfig SmallMachine()
{
    apps::MachineConfig m;
    m.nodes = 2;
    m.gpus_per_node = 2;
    return m;
}

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 10;
    config.batchsize = 1500;
    config.multi_scale_factor = 100;
    return config;
}

template <typename App, typename Options>
std::unique_ptr<rt::Runtime> RunAuto(Options options, std::size_t iters)
{
    auto runtime = std::make_unique<rt::Runtime>();
    core::Apophenia fe(*runtime, SmallConfig());
    api::Frontend& sink = fe;
    App app(options);
    app.Setup(sink);
    for (std::size_t i = 0; i < iters; ++i) {
        app.Iteration(sink, i, false);
    }
    sink.Flush();
    return runtime;
}

template <typename App, typename Options>
std::unique_ptr<rt::Runtime> RunUntraced(Options options,
                                         std::size_t iters)
{
    auto runtime = std::make_unique<rt::Runtime>();
    api::UntracedFrontend sink(*runtime);
    App app(options);
    app.Setup(sink);
    for (std::size_t i = 0; i < iters; ++i) {
        app.Iteration(sink, i, false);
    }
    return runtime;
}

template <typename App, typename Options>
void ExpectGraphTransparency(Options options, std::size_t iters)
{
    const auto traced = RunAuto<App>(options, iters);
    const auto untraced = RunUntraced<App>(options, iters);
    ASSERT_EQ(traced->Log().size(), untraced->Log().size());
    for (std::size_t i = 0; i < traced->Log().size(); ++i) {
        ASSERT_EQ(traced->Log()[i].token, untraced->Log()[i].token)
            << "op " << i;
        ASSERT_EQ(traced->Log()[i].dependences,
                  untraced->Log()[i].dependences)
            << "op " << i;
    }
    EXPECT_GT(traced->Stats().tasks_replayed, 0u);
}

TEST(Integration, GraphTransparencyS3d)
{
    ExpectGraphTransparency<apps::S3dApplication>(
        apps::S3dOptions{.machine = SmallMachine()}, 60);
}

TEST(Integration, GraphTransparencyHtr)
{
    ExpectGraphTransparency<apps::HtrApplication>(
        apps::HtrOptions{.machine = SmallMachine()}, 50);
}

TEST(Integration, GraphTransparencyCfd)
{
    ExpectGraphTransparency<apps::CfdApplication>(
        apps::CfdOptions{.machine = SmallMachine()}, 120);
}

TEST(Integration, GraphTransparencyTorchSwe)
{
    apps::TorchSweOptions options{.machine = SmallMachine()};
    options.allocation_pool_budget = 150;
    ExpectGraphTransparency<apps::TorchSweApplication>(options, 80);
}

TEST(Integration, GraphTransparencyFlexFlow)
{
    ExpectGraphTransparency<apps::FlexFlowApplication>(
        apps::FlexFlowOptions{.machine = SmallMachine()}, 40);
}

TEST(Integration, EndToEndRunsAreDeterministic)
{
    auto a = RunAuto<apps::CfdApplication>(
        apps::CfdOptions{.machine = SmallMachine()}, 100);
    auto b = RunAuto<apps::CfdApplication>(
        apps::CfdOptions{.machine = SmallMachine()}, 100);
    ASSERT_EQ(a->Log().size(), b->Log().size());
    for (std::size_t i = 0; i < a->Log().size(); ++i) {
        ASSERT_EQ(a->Log()[i].token, b->Log()[i].token);
        ASSERT_EQ(a->Log()[i].mode, b->Log()[i].mode);
        ASSERT_EQ(a->Log()[i].trace, b->Log()[i].trace);
    }
    EXPECT_EQ(a->Stats().trace_replays, b->Stats().trace_replays);
}

TEST(Integration, SimulatedTimingIsDeterministic)
{
    auto run = [] {
        apps::S3dOptions options;
        options.machine = SmallMachine();
        apps::S3dApplication app(options);
        sim::ExperimentOptions experiment;
        experiment.machine = options.machine;
        experiment.iterations = 40;
        experiment.mode = sim::TracingMode::kAuto;
        experiment.auto_config = SmallConfig();
        return sim::RunExperiment(app, experiment);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.iterations_per_second, b.iterations_per_second);
    EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
}

TEST(Integration, ReplicationOverRealApplication)
{
    // Control replication over the S3D skeleton, hand-offs included.
    sim::ClusterOptions options;
    options.coordination.nodes = 3;
    options.coordination.seed = 11;
    options.coordination.mean_latency_tasks = 150.0;
    options.coordination.jitter = 0.8;
    options.config = SmallConfig();
    apps::S3dOptions app_options;
    app_options.machine = SmallMachine();
    // Control replication: the same program runs on every node, so
    // capture its canonical launch stream once...
    rt::Runtime staging;
    api::DirectFrontend staging_sink(staging);
    apps::S3dApplication staging_app(app_options);
    staging_app.Setup(staging_sink);
    for (std::size_t i = 0; i < 50; ++i) {
        staging_app.Iteration(staging_sink, i, false);
    }
    // ...then feed it through every replica in lockstep.
    sim::Cluster group(options);
    for (const auto& op : staging.Log()) {
        group.ExecuteTask(op.launch);
    }
    group.Flush();
    EXPECT_TRUE(test::StreamsIdentical(group));
    EXPECT_TRUE(group.StreamDigestsAgree());
    EXPECT_GT(group.NodeRuntime(0).Stats().tasks_replayed, 0u);
}

/**
 * An Apophenia over `fragments` that also drives a second runtime,
 * `per_task`, from its decision sink: one runtime call per decision,
 * and every region call at the point where Apophenia passes it to
 * its own runtime. Apophenia issues each fragment in one
 * Runtime::ExecuteFragment call; `per_task` gets BeginTrace, one
 * ExecuteTask per launch and EndTrace.
 */
class DecisionTee final : public api::Frontend {
  public:
    DecisionTee(rt::Runtime& fragments, rt::Runtime& per_task,
                const core::ApopheniaConfig& config)
        : apophenia_(fragments, config), per_task_(&per_task)
    {
        apophenia_.SetDecisionSink(&decisions_);
    }

    std::string_view Name() const override { return "decision-tee"; }
    rt::RegionId CreateRegion() override
    {
        const rt::RegionId region = apophenia_.CreateRegion();
        EXPECT_EQ(per_task_->CreateRegion(), region);
        return region;
    }
    void DestroyRegion(rt::RegionId r) override
    {
        apophenia_.DestroyRegion(r);
        per_task_->DestroyRegion(r);
    }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        std::vector<rt::RegionId> parts =
            apophenia_.PartitionRegion(parent, count);
        EXPECT_EQ(per_task_->PartitionRegion(parent, count), parts);
        return parts;
    }

  protected:
    void DoExecuteTask(const rt::TaskLaunchView& launch) override
    {
        launches_.emplace_back().Assign(launch);
        apophenia_.ExecuteTask(launch);
        Apply();
    }
    bool DoBeginTrace(rt::TraceId) override { return false; }
    bool DoEndTrace(rt::TraceId) override { return false; }
    void DoFlush() override
    {
        apophenia_.Flush();
        Apply();
    }

  private:
    void Apply()
    {
        for (const core::Decision& d : decisions_) {
            switch (d.kind) {
              case core::Decision::Kind::kTask:
                per_task_->ExecuteTask(launches_[d.value].View());
                break;
              case core::Decision::Kind::kBegin:
                per_task_->BeginTrace(d.value);
                break;
              case core::Decision::Kind::kEnd:
                per_task_->EndTrace(d.value);
                break;
            }
        }
        decisions_.clear();
    }

    core::Apophenia apophenia_;
    rt::Runtime* per_task_;
    std::vector<core::Decision> decisions_;
    std::vector<rt::LaunchSlot> launches_;  ///< by stream index
};

TEST(Integration, FragmentCallsEqualPerTaskDecisions)
{
    for (const test::BundledApp& app : test::BundledApps(SmallMachine())) {
        for (const bool streaming : {false, true}) {
            SCOPED_TRACE(app.name + (streaming ? " streaming" : " retained"));
            rt::Runtime fragments;
            rt::Runtime per_task;
            std::vector<test::LogRow> fragment_rows;
            std::vector<test::LogRow> per_task_rows;
            if (streaming) {
                fragments.EnableLogStreaming([&](const rt::OpView& op) {
                    fragment_rows.push_back(test::RowOf(op));
                });
                per_task.EnableLogStreaming([&](const rt::OpView& op) {
                    per_task_rows.push_back(test::RowOf(op));
                });
            }
            DecisionTee tee(fragments, per_task, SmallConfig());
            const std::unique_ptr<apps::Application> instance = app.make();
            instance->Setup(tee);
            for (std::size_t i = 0; i < app.iterations; ++i) {
                instance->Iteration(tee, i, false);
            }
            tee.Flush();
            fragments.DrainLogStream();
            per_task.DrainLogStream();
            if (!streaming) {
                fragment_rows = test::RowsOf(fragments.Log());
                per_task_rows = test::RowsOf(per_task.Log());
            }
            EXPECT_EQ(fragment_rows.size(), tee.Stats().tasks_executed);
            EXPECT_TRUE(test::SameRows(fragment_rows, per_task_rows));
            const rt::RuntimeStats& a = fragments.Stats();
            const rt::RuntimeStats& b = per_task.Stats();
            EXPECT_EQ(a.tasks_replayed, b.tasks_replayed);
            EXPECT_EQ(a.trace_replays, b.trace_replays);
            EXPECT_EQ(a.total_analysis_us, b.total_analysis_us);
            EXPECT_GT(a.tasks_replayed, 0u);
            // Some replays ran under a current plan: the fast path.
            std::size_t planned = 0;
            for (rt::TraceId id = 1; fragments.HasTrace(id); ++id) {
                planned += fragments.Traces().Find(id)->plan.replays;
            }
            EXPECT_GT(planned, 0u);
        }
    }
}

struct ConfigCase {
    core::IdentifierAlgorithm identifier;
    core::RepeatsAlgorithm repeats;
};

class ConfigMatrix : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigMatrix, EveryAlgorithmCombinationIsCorrect)
{
    // Alternative identifiers/algorithms may trace less, but the
    // stream and graph must always be correct.
    const auto [identifier, repeats] = GetParam();
    core::ApopheniaConfig config = SmallConfig();
    config.identifier_algorithm = identifier;
    config.repeats_algorithm = repeats;

    auto runtime = std::make_unique<rt::Runtime>();
    core::Apophenia fe(*runtime, config);
    api::Frontend& sink = fe;
    apps::S3dOptions options;
    options.machine = SmallMachine();
    apps::S3dApplication app(options);
    app.Setup(sink);
    for (std::size_t i = 0; i < 40; ++i) {
        app.Iteration(sink, i, false);
    }
    sink.Flush();

    const auto untraced = RunUntraced<apps::S3dApplication>(options, 40);
    ASSERT_EQ(runtime->Log().size(), untraced->Log().size());
    for (std::size_t i = 0; i < runtime->Log().size(); ++i) {
        ASSERT_EQ(runtime->Log()[i].token, untraced->Log()[i].token);
        ASSERT_EQ(runtime->Log()[i].dependences,
                  untraced->Log()[i].dependences);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ConfigMatrix,
    ::testing::Values(
        ConfigCase{core::IdentifierAlgorithm::kMultiScale,
                   core::RepeatsAlgorithm::kQuickMatchingOfSubstrings},
        ConfigCase{core::IdentifierAlgorithm::kBatched,
                   core::RepeatsAlgorithm::kQuickMatchingOfSubstrings},
        ConfigCase{core::IdentifierAlgorithm::kMultiScale,
                   core::RepeatsAlgorithm::kTandem},
        ConfigCase{core::IdentifierAlgorithm::kMultiScale,
                   core::RepeatsAlgorithm::kLzw},
        ConfigCase{core::IdentifierAlgorithm::kMultiScale,
                   core::RepeatsAlgorithm::kQuadratic}));

}  // namespace
}  // namespace apo
