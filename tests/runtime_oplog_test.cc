/**
 * @file
 * Tests for the columnar operation log (runtime/oplog.h): append/view
 * round-trips across block boundaries, streaming retire with block
 * recycling and bounded resident memory, the fallback-policy rewind of
 * abandoned replay fragments, and the end-to-end zero-allocation
 * contract of the untraced issue path (api::LaunchBuilder -> Runtime ->
 * log append), verified with the counting allocator.
 */
#include <gtest/gtest.h>

#include <vector>

#include "api/frontend.h"
#include "api/launch.h"
#include "runtime/graph.h"
#include "runtime/report.h"
#include "runtime/runtime.h"

#include "support/counting_allocator.h"

namespace apo::rt {
namespace {

TaskLaunch MakeLaunch(TaskId task, std::size_t requirements,
                      std::uint32_t shard = 0)
{
    TaskLaunch launch;
    launch.task = task;
    launch.shard = shard;
    launch.execution_us = 10.0 * static_cast<double>(task);
    for (std::size_t q = 0; q < requirements; ++q) {
        launch.requirements.push_back(RegionRequirement{
            RegionId{1 + q}, static_cast<FieldId>(q),
            Privilege::kReadOnly, 0});
    }
    return launch;
}

/** Tiny blocks so a handful of appends crosses many boundaries. */
OperationLog::Config TinyBlocks()
{
    OperationLog::Config config;
    config.ops_per_block = 4;
    config.payload_block_elems = 8;
    return config;
}

TEST(OperationLog, AppendViewRoundTripAcrossBlockBoundaries)
{
    OperationLog log(TinyBlocks());
    std::vector<TaskLaunch> launches;
    std::vector<std::vector<Dependence>> edges;
    for (std::size_t i = 0; i < 41; ++i) {
        // Requirement counts 0..6 force mid-block seals; count 17
        // exceeds the payload block size entirely (oversize block).
        const std::size_t reqs = i == 20 ? 17 : i % 7;
        launches.push_back(MakeLaunch(100 + i, reqs,
                                      static_cast<std::uint32_t>(i % 3)));
        std::vector<Dependence> deps;
        for (std::size_t d = 0; d < i % 4; ++d) {
            deps.push_back(Dependence{i > d ? i - d - 1 : 0, i,
                                      DependenceKind::kTrue});
        }
        edges.push_back(deps);
        log.Append(TaskLaunchView::Of(launches.back()),
                   i % 2 ? AnalysisMode::kRecorded
                         : AnalysisMode::kAnalyzed,
                   TraceId{i % 5}, 1.5 * static_cast<double>(i),
                   i % 8 == 0, edges.back());
    }
    ASSERT_EQ(log.size(), 41u);
    for (std::size_t i = 0; i < log.size(); ++i) {
        const OpView op = log[i];
        EXPECT_EQ(op.index, i);
        EXPECT_EQ(op.launch.task, launches[i].task);
        EXPECT_EQ(op.token, HashLaunch(launches[i]));
        EXPECT_EQ(op.launch.requirement_count,
                  launches[i].requirements.size());
        EXPECT_TRUE(std::equal(op.launch.Requirements().begin(),
                               op.launch.Requirements().end(),
                               launches[i].requirements.begin(),
                               launches[i].requirements.end()));
        EXPECT_EQ(op.dependences, edges[i]);
        EXPECT_EQ(op.analysis_cost_us, 1.5 * static_cast<double>(i));
        EXPECT_EQ(op.replay_head, i % 8 == 0);
        EXPECT_EQ(op.trace, TraceId{i % 5});
    }
    // Iteration agrees with indexing.
    std::size_t seen = 0;
    for (const auto& op : log) {
        EXPECT_EQ(op.index, seen);
        ++seen;
    }
    EXPECT_EQ(seen, log.size());
    EXPECT_EQ(log.back().launch.task, launches.back().task);
}

TEST(OperationLog, StreamingRetireEmitsEachOpOnceInOrder)
{
    OperationLog log(TinyBlocks());
    std::vector<std::size_t> emitted;
    log.EnableStreaming([&](const OpView& op) {
        emitted.push_back(op.index);
        // Spans are valid during the callback.
        EXPECT_EQ(op.launch.requirement_count, 2u);
    });
    const TaskLaunch launch = MakeLaunch(7, 2);
    const TaskLaunchView view = TaskLaunchView::Of(launch);
    for (std::size_t i = 0; i < 100; ++i) {
        log.Append(view, AnalysisMode::kAnalyzed, kNoTrace, 1.0, false,
                   {});
        log.SetRetireBound(log.size());
    }
    ASSERT_EQ(emitted.size(), 100u);
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        EXPECT_EQ(emitted[i], i);
    }
    EXPECT_EQ(log.RetiredCount(), 100u);
}

TEST(OperationLog, StreamingRetireBoundHoldsBackOpenSuffix)
{
    OperationLog log(TinyBlocks());
    std::size_t emitted = 0;
    log.EnableStreaming([&](const OpView&) { ++emitted; });
    const TaskLaunch launch = MakeLaunch(7, 1);
    const TaskLaunchView view = TaskLaunchView::Of(launch);
    for (std::size_t i = 0; i < 30; ++i) {
        log.Append(view, AnalysisMode::kReplayed, TraceId{1}, 1.0,
                   i == 10, {});
        log.SetRetireBound(10);  // ops >= 10 form an open fragment
    }
    EXPECT_EQ(emitted, 10u);
    // The held-back suffix is still addressable and mutable (rewind).
    EXPECT_EQ(log[10].mode, AnalysisMode::kReplayed);
    log.RewriteAsAnalyzed(10, 9.0);
    EXPECT_EQ(log[10].mode, AnalysisMode::kAnalyzed);
    EXPECT_EQ(log[10].trace, kNoTrace);
    EXPECT_FALSE(log[10].replay_head);
    EXPECT_EQ(log[10].analysis_cost_us, 9.0);
    log.SetRetireBound(log.size());
    EXPECT_EQ(emitted, 30u);
}

TEST(OperationLog, StreamingRecyclesBlocksResidentStaysBounded)
{
    OperationLog::Config config;
    config.ops_per_block = 64;
    config.payload_block_elems = 256;
    OperationLog log(config);
    log.EnableStreaming([](const OpView&) {});
    const TaskLaunch launch = MakeLaunch(3, 3);
    const TaskLaunchView view = TaskLaunchView::Of(launch);
    const Dependence dep{0, 1, DependenceKind::kTrue};
    std::size_t steady_resident = 0;
    for (std::size_t i = 0; i < 100000; ++i) {
        log.Append(view, AnalysisMode::kAnalyzed, kNoTrace, 1.0, false,
                   {&dep, 1});
        log.SetRetireBound(log.size());
        if (i == 1000) {
            steady_resident = log.ResidentBytes();
        }
    }
    ASSERT_GT(steady_resident, 0u);
    // 100k ops later, resident memory has not grown past the warm
    // steady state — blocks recycle instead of accumulating.
    EXPECT_LE(log.ResidentBytes(), steady_resident);
    EXPECT_LE(log.PeakResidentBytes(), steady_resident);
    EXPECT_LE(log.ResidentBlocks(), 8u);
    EXPECT_EQ(log.RetiredCount(), 100000u);
    // The report formatter reflects the retire state.
    const std::string report = FormatOperationLog(log);
    EXPECT_NE(report.find("100000 op(s) logged, 100000 retired"),
              std::string::npos);
}

TEST(OperationLog, CloneIsDeepAndIndependent)
{
    OperationLog log(TinyBlocks());
    const TaskLaunch a = MakeLaunch(1, 2);
    const TaskLaunch b = MakeLaunch(2, 3);
    const Dependence dep{0, 1, DependenceKind::kAnti};
    log.Append(TaskLaunchView::Of(a), AnalysisMode::kAnalyzed, kNoTrace,
               1.0, false, {});
    log.Append(TaskLaunchView::Of(b), AnalysisMode::kRecorded, TraceId{4},
               2.0, false, {&dep, 1});
    OperationLog copy = log.Clone();
    ASSERT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy[1].token, log[1].token);
    EXPECT_EQ(copy[1].dependences, log[1].dependences);
    // Mutating the copy leaves the original untouched.
    copy.ShrinkDependences(1, 0);
    EXPECT_EQ(copy[1].dependences.size(), 0u);
    EXPECT_EQ(log[1].dependences.size(), 1u);
}

TEST(OperationLog, TransitiveReductionPrunesInPlace)
{
    // 0 -> 1 -> 2 plus the implied 0 -> 2, built through the real
    // analyzer (write/read-write chain).
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(TaskLaunch{1, {{r, 0, Privilege::kReadWrite, 0}}});
    rt.ExecuteTask(TaskLaunch{2, {{r, 0, Privilege::kReadOnly, 0}}});
    rt.ExecuteTask(TaskLaunch{3, {{r, 0, Privilege::kReadWrite, 0}}});
    OperationLog reduced = rt.Log().Clone();
    const std::size_t before = CountEdges(reduced);
    const std::size_t removed = TransitiveReduction(reduced);
    EXPECT_EQ(CountEdges(reduced), before - removed);
    for (std::size_t i = 0; i < reduced.size(); ++i) {
        for (std::size_t j = i; j < reduced.size(); ++j) {
            EXPECT_EQ(Reaches(rt.Log(), i, j), Reaches(reduced, i, j));
        }
    }
}

// ---------------------------------------------------------------------------
// Fallback rewind.

TEST(FallbackRewind, MidReplayMismatchRewindsThePrefix)
{
    auto write = [](RegionId r) {
        return TaskLaunch{1, {{r, 0, Privilege::kReadWrite, 0}}};
    };
    auto read = [](RegionId r) {
        return TaskLaunch{2, {{r, 0, Privilege::kReadOnly, 0}}};
    };
    // The traced fragment carries real internal edges (read-after-
    // write), so the rewind path is exercised on ops whose edges came
    // partly from the template.
    auto drive = [&](Runtime& rt, RegionId a, RegionId b, bool traced) {
        if (traced) {
            rt.BeginTrace(1);
        }
        rt.ExecuteTask(write(a));
        rt.ExecuteTask(read(a));
        rt.ExecuteTask(read(a));
        if (traced) {
            rt.EndTrace(1);
            rt.BeginTrace(1);
        }
        rt.ExecuteTask(write(a));  // replays (position 0)
        rt.ExecuteTask(read(a));   // replays (position 1)
        if (traced) {
            EXPECT_EQ(rt.Stats().tasks_replayed, 2u);
        }
        rt.ExecuteTask(read(b));  // deviates -> fallback + rewind
        if (traced) {
            rt.EndTrace(1);
        }
    };

    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    Runtime rt(options);
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    drive(rt, a, b, /*traced=*/true);
    EXPECT_EQ(rt.Stats().trace_mismatches, 1u);
    // The two already-replayed ops were rewound to analyzed
    // accounting; nothing in the log claims a replay happened.
    EXPECT_EQ(rt.Stats().tasks_replayed, 0u);
    EXPECT_EQ(rt.Stats().tasks_rewound, 2u);
    EXPECT_EQ(rt.Stats().tasks_analyzed, 3u);
    EXPECT_EQ(rt.Stats().tasks_recorded, 3u);
    for (std::size_t i = 3; i < rt.Log().size(); ++i) {
        EXPECT_EQ(rt.Log()[i].mode, AnalysisMode::kAnalyzed);
        EXPECT_EQ(rt.Log()[i].trace, kNoTrace);
        EXPECT_FALSE(rt.Log()[i].replay_head);
        EXPECT_EQ(rt.Log()[i].analysis_cost_us, rt.ScaledAnalysisUs());
    }
    // The dependence graph equals what a fresh runtime analyzing the
    // same stream produces (the rewind touches accounting only).
    Runtime fresh;
    const RegionId fa = fresh.CreateRegion();
    const RegionId fb = fresh.CreateRegion();
    drive(fresh, fa, fb, /*traced=*/false);
    ASSERT_EQ(rt.Log().size(), fresh.Log().size());
    for (std::size_t i = 0; i < rt.Log().size(); ++i) {
        EXPECT_EQ(rt.Log()[i].dependences, fresh.Log()[i].dependences)
            << "op " << i;
    }
}

TEST(FallbackRewind, ShortReplayAtEndRewinds)
{
    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    Runtime rt(options);
    const RegionId a = rt.CreateRegion();
    const TaskLaunch read{1, {{a, 0, Privilege::kReadOnly, 0}}};
    rt.BeginTrace(1);
    rt.ExecuteTask(read);
    rt.ExecuteTask(read);
    rt.EndTrace(1);
    rt.BeginTrace(1);
    rt.ExecuteTask(read);
    rt.EndTrace(1);  // one task short: fallback rewinds, no throw
    EXPECT_EQ(rt.Stats().trace_mismatches, 1u);
    EXPECT_EQ(rt.Stats().tasks_replayed, 0u);
    EXPECT_EQ(rt.Stats().tasks_rewound, 1u);
    EXPECT_EQ(rt.Log().back().mode, AnalysisMode::kAnalyzed);
    EXPECT_EQ(rt.Stats().trace_replays, 0u);
}

TEST(FallbackRewind, WorksUnderStreamingBecauseFragmentsStayResident)
{
    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    options.log_config.ops_per_block = 2;  // aggressive retirement
    Runtime rt(options);
    std::vector<AnalysisMode> emitted;
    rt.EnableLogStreaming(
        [&](const OpView& op) { emitted.push_back(op.mode); });
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    auto read = [&](RegionId r) {
        return TaskLaunch{1, {{r, 0, Privilege::kReadOnly, 0}}};
    };
    rt.BeginTrace(1);
    rt.ExecuteTask(read(a));
    rt.ExecuteTask(read(a));
    rt.ExecuteTask(read(a));
    rt.EndTrace(1);
    rt.BeginTrace(1);
    rt.ExecuteTask(read(a));
    rt.ExecuteTask(read(a));
    rt.ExecuteTask(read(b));  // mismatch -> rewind, then retire
    rt.EndTrace(1);
    rt.DrainLogStream();
    ASSERT_EQ(emitted.size(), 6u);
    // The consumer observed the rewound modes, never kReplayed.
    EXPECT_EQ(emitted[3], AnalysisMode::kAnalyzed);
    EXPECT_EQ(emitted[4], AnalysisMode::kAnalyzed);
    EXPECT_EQ(emitted[5], AnalysisMode::kAnalyzed);
}

// ---------------------------------------------------------------------------
// The end-to-end zero-allocation contract (acceptance criterion):
// api::LaunchBuilder -> api::Frontend -> Runtime -> arena log append.

TEST(ZeroAlloc, UntracedSteadyStateIssuesWithoutAllocating)
{
    Runtime rt;
    api::UntracedFrontend frontend(rt);
    api::LaunchBuilder builder;
    const RegionId r0 = rt.CreateRegion();
    const RegionId r1 = rt.CreateRegion();
    const RegionId out = rt.CreateRegion();

    // Write-carrying privileges keep the analyzer's reader lists from
    // growing without bound, the way real iterative workloads do.
    auto issue_one = [&](std::size_t i) {
        const FieldId f = static_cast<FieldId>(i % 4);
        builder
            .Start(static_cast<TaskId>(100 + i % 8),
                   static_cast<std::uint32_t>(i % 4), 50.0)
            .Add(RegionRequirement{r0, f, Privilege::kReadWrite, 0})
            .Add(RegionRequirement{r1, f, Privilege::kReadWrite, 0})
            .Add(RegionRequirement{out, f, Privilege::kWriteDiscard, 0})
            .LaunchOn(frontend);
    };
    // Warm up: field states materialize, scratch vectors reach steady
    // capacity.
    for (std::size_t i = 0; i < 64; ++i) {
        issue_one(i);
    }
    // Pre-stock the log's block free lists for the measured window —
    // what a long-running retained-mode service does; streaming mode
    // reaches the same state perpetually by recycling.
    constexpr std::size_t kMeasured = 3000;
    rt.ReserveLog(kMeasured, kMeasured * 3, kMeasured * 4);

    const std::uint64_t before = support::AllocationCount();
    for (std::size_t i = 0; i < kMeasured; ++i) {
        issue_one(64 + i);
    }
    EXPECT_EQ(support::AllocationCount() - before, 0u)
        << "untraced issue path allocated per launch";
    EXPECT_EQ(rt.Log().size(), 64 + kMeasured);
}

TEST(ZeroAlloc, StreamingSteadyStateIsStrictlyAllocationFree)
{
    RuntimeOptions options;
    options.log_config.ops_per_block = 256;
    options.log_config.payload_block_elems = 1024;
    Runtime rt(options);
    rt.EnableLogStreaming([](const OpView&) {});
    api::UntracedFrontend frontend(rt);
    api::LaunchBuilder builder;
    const RegionId r0 = rt.CreateRegion();
    const RegionId out = rt.CreateRegion();
    auto issue_one = [&](std::size_t i) {
        const FieldId f = static_cast<FieldId>(i % 4);
        builder.Start(static_cast<TaskId>(100 + i % 8), 0, 50.0)
            .Add(RegionRequirement{r0, f, Privilege::kReadWrite, 0})
            .Add(RegionRequirement{out, f, Privilege::kWriteDiscard, 0})
            .LaunchOn(frontend);
    };
    // Warm through several full block cycles so every column recycles.
    for (std::size_t i = 0; i < 4096; ++i) {
        issue_one(i);
    }
    const std::uint64_t before = support::AllocationCount();
    for (std::size_t i = 0; i < 10000; ++i) {
        issue_one(4096 + i);
    }
    EXPECT_EQ(support::AllocationCount() - before, 0u)
        << "streaming steady state must be allocation-free per launch";
    EXPECT_EQ(rt.Log().RetiredCount(), 14096u);
}

TEST(ZeroAlloc, WarmPlanDrivenReplayIsAllocationFree)
{
    // A replay that follows its template's plan analyses a few
    // requirements, copies the memoized edges, appends to the log and
    // writes the fragment's coherence summary at EndTrace: once warm,
    // none of it allocates.
    RuntimeOptions options;
    options.log_config.ops_per_block = 256;
    options.log_config.payload_block_elems = 1024;
    Runtime rt(options);
    rt.EnableLogStreaming([](const OpView&) {});
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    const RegionId c = rt.CreateRegion();
    // Every state the body reads it also writes, so no reader list
    // grows across iterations.
    const std::vector<TaskLaunch> body = {
        {1, {{a, 0, Privilege::kReadWrite, 0}, {b, 0, Privilege::kReadOnly, 0}}},
        {2, {{b, 0, Privilege::kReadWrite, 0}}},
        {3, {{c, 0, Privilege::kReduce, 1}}},
        {4, {{c, 0, Privilege::kReduce, 1}, {a, 0, Privilege::kReadOnly, 0}}},
        {5, {{c, 0, Privilege::kWriteDiscard, 0}}},
        {6, {{a, 0, Privilege::kReadOnly, 0}, {c, 0, Privilege::kReadOnly, 0}}},
    };
    std::vector<TaskLaunchView> views;
    for (const TaskLaunch& launch : body) {
        views.push_back(TaskLaunchView::Of(launch));
    }
    auto iterate = [&] {
        rt.BeginTrace(1);
        for (const TaskLaunchView& view : views) {
            rt.ExecuteTask(view);
        }
        rt.EndTrace(1);
    };
    // Record, build the plan, and cycle the log's blocks.
    for (int i = 0; i < 256; ++i) {
        iterate();
    }
    const ReplayPlan& plan = rt.Traces().Find(1)->plan;
    ASSERT_TRUE(plan.stamp.has_value());
    ASSERT_FALSE(plan.summary.empty());
    const std::size_t planned_before = plan.replays;

    constexpr int kMeasured = 1000;
    const std::uint64_t before = support::AllocationCount();
    for (int i = 0; i < kMeasured; ++i) {
        iterate();
    }
    EXPECT_EQ(support::AllocationCount() - before, 0u)
        << "a warm plan-driven replay allocated";
    EXPECT_EQ(plan.replays - planned_before,
              static_cast<std::size_t>(kMeasured));
}

}  // namespace
}  // namespace apo::rt
