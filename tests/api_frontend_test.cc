/**
 * @file
 * Tests for the api layer: the one Frontend issue surface and the
 * zero-allocation LaunchBuilder.
 *
 *  - token-hash and equality parity between TaskLaunch and the
 *    span-based TaskLaunchView the builder produces;
 *  - zero steady-state allocations on the builder issue path
 *    (verified with a counting global operator new);
 *  - uniform FrontendStats across all four implementations,
 *    including the annotations each one *drops* — the silent
 *    annotation discard of the old adapter sinks, now counted;
 *  - Apophenia's untraced forward path: launches are materialized
 *    into the pending buffer only when a candidate match could hold
 *    them.
 */
#include <gtest/gtest.h>

#include <vector>

#include "api/frontend.h"
#include "api/launch.h"
#include "core/apophenia.h"
#include "sim/cluster.h"
#include "runtime/runtime.h"
#include "streams_identical.h"

#include "support/counting_allocator.h"

namespace apo {
namespace {

rt::TaskLaunch SampleLaunch()
{
    rt::TaskLaunch launch;
    launch.task = rt::TaskIdOf("sample");
    launch.requirements = {
        {rt::RegionId{7}, 0, rt::Privilege::kReadOnly, 0},
        {rt::RegionId{8}, 1, rt::Privilege::kReadWrite, 0},
        {rt::RegionId{9}, 2, rt::Privilege::kReduce, 3}};
    launch.execution_us = 55.0;
    launch.shard = 2;
    return launch;
}

TEST(LaunchView, TokenHashParityWithTaskLaunch)
{
    const rt::TaskLaunch launch = SampleLaunch();
    api::LaunchBuilder builder;
    builder.Start(launch.task, launch.shard, launch.execution_us);
    for (const rt::RegionRequirement& req : launch.requirements) {
        builder.Add(req);
    }
    const rt::TaskLaunchView& view = builder.View();
    // The incrementally folded builder token equals the one-shot hash
    // of the materialized launch...
    EXPECT_EQ(view.token, rt::HashLaunch(launch));
    // ...and of the view's own materialization round trip.
    EXPECT_EQ(view.token, rt::HashLaunch(view.Materialize()));
    // The convenience wrapper computes the same token.
    EXPECT_EQ(rt::TaskLaunchView::Of(launch).token, view.token);
}

TEST(LaunchView, EqualityParityWithTaskLaunch)
{
    const rt::TaskLaunch a = SampleLaunch();
    rt::TaskLaunch b = SampleLaunch();
    b.execution_us = 999.0;  // excluded from identity, like TaskLaunch
    rt::TaskLaunch c = SampleLaunch();
    c.requirements[1].privilege = rt::Privilege::kWriteDiscard;

    EXPECT_EQ(rt::TaskLaunchView::Of(a), rt::TaskLaunchView::Of(b));
    EXPECT_FALSE(rt::TaskLaunchView::Of(a) == rt::TaskLaunchView::Of(c));
    EXPECT_EQ(a == c, rt::TaskLaunchView::Of(a) == rt::TaskLaunchView::Of(c));

    // Materialization round trip preserves the full launch.
    const rt::TaskLaunch round = rt::TaskLaunchView::Of(a).Materialize();
    EXPECT_EQ(round, a);
    EXPECT_EQ(round.execution_us, a.execution_us);
    EXPECT_EQ(round.shard, a.shard);
    EXPECT_EQ(round.blocking, a.blocking);
    EXPECT_EQ(round.traceable, a.traceable);
}

TEST(LaunchBuilder, SteadyStateAllocatesNothing)
{
    api::LaunchBuilder builder;
    const rt::RegionRequirement reqs[4] = {
        {rt::RegionId{1}, 0, rt::Privilege::kReadOnly, 0},
        {rt::RegionId{2}, 1, rt::Privilege::kReadOnly, 0},
        {rt::RegionId{3}, 0, rt::Privilege::kWriteDiscard, 0},
        {rt::RegionId{4}, 2, rt::Privilege::kReduce, 1}};
    rt::TokenHash sum = 0;
    // Warm the arena once.
    builder.Start("warmup", 0, 1.0);
    for (const auto& req : reqs) {
        builder.Add(req);
    }
    sum ^= builder.View().token;

    const std::size_t before =
        support::AllocationCount();
    for (int i = 0; i < 10000; ++i) {
        builder.Start(static_cast<rt::TaskId>(i % 7), i % 3, 10.0);
        for (const auto& req : reqs) {
            builder.Add(req);
        }
        sum ^= builder.View().token;
    }
    const std::size_t after =
        support::AllocationCount();
    EXPECT_EQ(after - before, 0u)
        << "builder issue path allocated in steady state";
    EXPECT_NE(sum, 0u);  // keep the loop observable
}

// -- Uniform frontend stats and annotation accounting -----------------------

void DriveAnnotatedStream(api::Frontend& frontend)
{
    const rt::RegionId r = frontend.CreateRegion();
    api::LaunchBuilder builder;
    for (int iter = 0; iter < 5; ++iter) {
        frontend.BeginTrace(42);
        for (int i = 0; i < 4; ++i) {
            builder.Start(static_cast<rt::TaskId>(100 + i))
                .Add({r, static_cast<rt::FieldId>(i),
                      rt::Privilege::kReadWrite, 0})
                .LaunchOn(frontend);
        }
        frontend.EndTrace(42);
    }
    frontend.Flush();
}

TEST(Frontend, DirectHonorsAnnotations)
{
    rt::Runtime runtime;
    api::DirectFrontend frontend(runtime);
    DriveAnnotatedStream(frontend);
    EXPECT_EQ(frontend.Stats().tasks_executed, 20u);
    EXPECT_EQ(frontend.Stats().annotations_honored, 10u);
    EXPECT_EQ(frontend.Stats().annotations_ignored, 0u);
    EXPECT_EQ(frontend.Stats().flushes, 1u);
    EXPECT_EQ(runtime.Stats().traces_recorded, 1u);
    EXPECT_EQ(runtime.Stats().trace_replays, 4u);
}

TEST(Frontend, UntracedCountsDroppedAnnotations)
{
    rt::Runtime runtime;
    api::UntracedFrontend frontend(runtime);
    DriveAnnotatedStream(frontend);
    EXPECT_EQ(frontend.Stats().tasks_executed, 20u);
    EXPECT_EQ(frontend.Stats().annotations_honored, 0u);
    EXPECT_EQ(frontend.Stats().annotations_ignored, 10u);
    EXPECT_EQ(runtime.Stats().traces_recorded, 0u);
    EXPECT_EQ(runtime.Stats().tasks_analyzed, 20u);
}

TEST(Frontend, ApopheniaCountsDroppedAnnotations)
{
    rt::Runtime runtime;
    core::ApopheniaConfig config;
    core::Apophenia frontend(runtime, config);
    DriveAnnotatedStream(frontend);
    // Apophenia::Stats() is its own (ApopheniaStats) block; the
    // uniform issue-surface counters live on the api::Frontend base.
    EXPECT_EQ(frontend.Stats().tasks_observed, 20u);
    const api::Frontend& as_frontend = frontend;
    EXPECT_EQ(as_frontend.Stats().annotations_ignored, 10u);
    EXPECT_EQ(as_frontend.Stats().annotations_honored, 0u);
    EXPECT_EQ(as_frontend.Stats().tasks_executed, 20u);
}

TEST(Frontend, ClusterCountsDroppedAnnotations)
{
    sim::ClusterOptions options;
    options.coordination.nodes = 2;
    sim::Cluster frontend(options);
    DriveAnnotatedStream(frontend);
    EXPECT_EQ(frontend.Stats().annotations_ignored, 10u);
    EXPECT_EQ(frontend.Stats().tasks_executed, 20u);
    EXPECT_TRUE(test::StreamsIdentical(frontend));
    EXPECT_TRUE(frontend.StreamDigestsAgree());
}

// -- The untraced forward path ----------------------------------------------

TEST(Apophenia, UnmatchedLaunchesAreNeverMaterialized)
{
    // A never-repeating stream: no candidate is ever found, so no
    // active match exists and every launch takes the direct-forward
    // fast path — zero copies off the caller's arena.
    rt::Runtime runtime;
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 512;
    config.multi_scale_factor = 64;
    core::Apophenia frontend(runtime, config);
    const rt::RegionId r = frontend.CreateRegion();
    api::LaunchBuilder builder;
    for (int i = 0; i < 2000; ++i) {
        builder.Start(static_cast<rt::TaskId>(1000 + i))  // unique ids
            .Add({r, 0, rt::Privilege::kReadWrite, 0})
            .LaunchOn(frontend);
    }
    frontend.Flush();
    EXPECT_EQ(frontend.Stats().launches_buffered, 0u);
    EXPECT_EQ(frontend.Stats().pending_high_water, 0u);
    EXPECT_EQ(frontend.Stats().tasks_forwarded_untraced, 2000u);
    EXPECT_EQ(runtime.Log().size(), 2000u);
}

TEST(Apophenia, MatchedLaunchesAreBufferedAndReplayed)
{
    // A repeating stream: once candidates exist, launches covered by
    // an active match are buffered (materialized) until the match
    // completes or dies — and traces fire.
    rt::Runtime runtime;
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 400;
    config.multi_scale_factor = 50;
    core::Apophenia frontend(runtime, config);
    const rt::RegionId r = frontend.CreateRegion();
    api::LaunchBuilder builder;
    for (int iter = 0; iter < 100; ++iter) {
        for (int i = 0; i < 8; ++i) {
            builder.Start(static_cast<rt::TaskId>(100 + i))
                .Add({r, static_cast<rt::FieldId>(i),
                      rt::Privilege::kReadWrite, 0})
                .LaunchOn(frontend);
        }
    }
    frontend.Flush();
    EXPECT_GT(frontend.Stats().launches_buffered, 0u);
    EXPECT_GT(frontend.Stats().traces_fired, 0u);
    EXPECT_GT(runtime.Stats().tasks_replayed, 0u);
    EXPECT_EQ(frontend.PendingTasks(), 0u);
}

}  // namespace
}  // namespace apo
