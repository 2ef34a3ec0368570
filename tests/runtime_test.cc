/**
 * @file
 * Tests for the mini task runtime: the dependence analyzer's coherence
 * model, the region allocator's reuse policy, and the tracing engine's
 * record/validate/replay contract.
 *
 * The central integration property: a stream executed with trace
 * replays must produce exactly the same dependence graph as the same
 * stream executed under full dynamic analysis.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coherence_image.h"
#include "log_rows.h"
#include "runtime/runtime.h"
#include "support/rng.h"

namespace apo::rt {
namespace {

TaskLaunch Read(RegionId r, TaskId id = 1)
{
    return TaskLaunch{id, {{r, 0, Privilege::kReadOnly, 0}}};
}

TaskLaunch Write(RegionId r, TaskId id = 2)
{
    return TaskLaunch{id, {{r, 0, Privilege::kReadWrite, 0}}};
}

TaskLaunch Reduce(RegionId r, ReductionOpId op, TaskId id = 3)
{
    return TaskLaunch{id, {{r, 0, Privilege::kReduce, op}}};
}

std::set<std::size_t> Sources(const OpView& op)
{
    std::set<std::size_t> out;
    for (const Dependence& d : op.dependences) {
        out.insert(d.from);
    }
    return out;
}

/** True iff a dependence path from op `from` to op `to` exists. */
bool Reaches(const OperationLog& log, std::size_t from,
             std::size_t to)
{
    std::vector<bool> reached(log.size(), false);
    reached[from] = true;
    for (std::size_t i = from + 1; i <= to; ++i) {
        for (const Dependence& d : log[i].dependences) {
            if (reached[d.from]) {
                reached[i] = true;
                break;
            }
        }
    }
    return reached[to];
}

TEST(DependenceAnalyzer, ReadAfterWrite)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(Write(r));
    rt.ExecuteTask(Read(r));
    ASSERT_EQ(rt.Log().size(), 2u);
    EXPECT_TRUE(rt.Log()[0].dependences.empty());
    ASSERT_EQ(rt.Log()[1].dependences.size(), 1u);
    EXPECT_EQ(rt.Log()[1].dependences[0].from, 0u);
    EXPECT_EQ(rt.Log()[1].dependences[0].kind, DependenceKind::kTrue);
}

TEST(DependenceAnalyzer, ParallelReadsDoNotDepend)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(Write(r));
    rt.ExecuteTask(Read(r));
    rt.ExecuteTask(Read(r));
    // Both reads depend only on the write, not on each other.
    EXPECT_EQ(Sources(rt.Log()[1]), (std::set<std::size_t>{0}));
    EXPECT_EQ(Sources(rt.Log()[2]), (std::set<std::size_t>{0}));
}

TEST(DependenceAnalyzer, WriteAfterReadsIsAnti)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(Write(r));
    rt.ExecuteTask(Read(r));
    rt.ExecuteTask(Read(r));
    rt.ExecuteTask(Write(r));
    const OpView w2 = rt.Log()[3];
    EXPECT_EQ(Sources(w2), (std::set<std::size_t>{0, 1, 2}));
    for (const Dependence& d : w2.dependences) {
        if (d.from != 0) {
            EXPECT_EQ(d.kind, DependenceKind::kAnti);
        }
    }
}

TEST(DependenceAnalyzer, WriteDiscardStillOrdersButIsOutput)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(Write(r));
    TaskLaunch discard{5, {{r, 0, Privilege::kWriteDiscard, 0}}};
    rt.ExecuteTask(discard);
    ASSERT_EQ(rt.Log()[1].dependences.size(), 1u);
    EXPECT_EQ(rt.Log()[1].dependences[0].kind, DependenceKind::kOutput);
}

TEST(DependenceAnalyzer, SameOpReductionsCommute)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(Write(r));
    rt.ExecuteTask(Reduce(r, /*op=*/7));
    rt.ExecuteTask(Reduce(r, /*op=*/7));
    // Second reduction depends on the writer but not the first
    // reduction (they commute).
    EXPECT_EQ(Sources(rt.Log()[2]), (std::set<std::size_t>{0}));
    // A subsequent read waits for both reductions.
    rt.ExecuteTask(Read(r));
    EXPECT_EQ(Sources(rt.Log()[3]), (std::set<std::size_t>{0, 1, 2}));
}

TEST(DependenceAnalyzer, DifferentOpReductionsSerialize)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    rt.ExecuteTask(Reduce(r, 7));
    rt.ExecuteTask(Reduce(r, 8));
    EXPECT_EQ(Sources(rt.Log()[1]), (std::set<std::size_t>{0}));
}

TEST(DependenceAnalyzer, MultiRequirementEdgesAreDeduplicated)
{
    Runtime rt;
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    TaskLaunch w{9,
                 {{a, 0, Privilege::kReadWrite, 0},
                  {b, 0, Privilege::kReadWrite, 0}}};
    rt.ExecuteTask(w);
    TaskLaunch rw{10,
                  {{a, 0, Privilege::kReadOnly, 0},
                   {b, 0, Privilege::kReadWrite, 0}}};
    rt.ExecuteTask(rw);
    // One edge to op 0, not two; true dependence wins the upgrade.
    ASSERT_EQ(rt.Log()[1].dependences.size(), 1u);
    EXPECT_EQ(rt.Log()[1].dependences[0].kind, DependenceKind::kTrue);
}

TEST(DependenceAnalyzer, DistinctFieldsAreIndependent)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    TaskLaunch w0{1, {{r, 0, Privilege::kReadWrite, 0}}};
    TaskLaunch w1{2, {{r, 1, Privilege::kReadWrite, 0}}};
    rt.ExecuteTask(w0);
    rt.ExecuteTask(w1);
    EXPECT_TRUE(rt.Log()[1].dependences.empty());
}

TEST(DependenceAnalyzer, SerializabilityOnRandomStreams)
{
    // Property: any two operations that conflict on some field must be
    // connected by a dependence path.
    support::Rng rng(2024);
    Runtime rt;
    std::vector<RegionId> regions;
    for (int i = 0; i < 4; ++i) {
        regions.push_back(rt.CreateRegion());
    }
    for (int i = 0; i < 120; ++i) {
        TaskLaunch t;
        t.task = rng.UniformInt(1, 5);
        const int nreqs = static_cast<int>(rng.UniformInt(1, 2));
        for (int q = 0; q < nreqs; ++q) {
            RegionRequirement req;
            req.region = regions[rng.UniformInt(0, regions.size() - 1)];
            const auto p = rng.UniformInt(0, 3);
            req.privilege = static_cast<Privilege>(p);
            req.redop = req.privilege == Privilege::kReduce
                            ? static_cast<ReductionOpId>(
                                  rng.UniformInt(1, 2))
                            : 0;
            t.requirements.push_back(req);
        }
        rt.ExecuteTask(t);
    }
    const auto& log = rt.Log();
    auto conflicts = [](const OpView& a, const OpView& b) {
        for (const auto& x : a.launch.Requirements()) {
            for (const auto& y : b.launch.Requirements()) {
                if (x.region != y.region || x.field != y.field) {
                    continue;
                }
                if (!IsMutating(x.privilege) && !IsMutating(y.privilege)) {
                    continue;  // two reads never conflict
                }
                if (x.privilege == Privilege::kReduce &&
                    y.privilege == Privilege::kReduce &&
                    x.redop == y.redop) {
                    continue;  // commuting reductions
                }
                return true;
            }
        }
        return false;
    };
    for (std::size_t i = 0; i < log.size(); ++i) {
        for (std::size_t j = i + 1; j < log.size(); ++j) {
            if (conflicts(log[i], log[j])) {
                ASSERT_TRUE(Reaches(log, i, j))
                    << "ops " << i << " and " << j
                    << " conflict but are unordered";
            }
        }
    }
}

TEST(RegionAllocator, ReusesMostRecentlyFreedId)
{
    Runtime rt;
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    rt.DestroyRegion(b);
    rt.DestroyRegion(a);
    EXPECT_EQ(rt.CreateRegion(), a);
    EXPECT_EQ(rt.CreateRegion(), b);
    EXPECT_NE(rt.CreateRegion(), a);
}

TEST(Tracing, RecordThenReplayCountsAndCosts)
{
    Runtime rt;
    const RegionId r = rt.CreateRegion();
    for (int iter = 0; iter < 3; ++iter) {
        rt.BeginTrace(1);
        rt.ExecuteTask(Write(r));
        rt.ExecuteTask(Read(r));
        rt.EndTrace(1);
    }
    EXPECT_EQ(rt.Stats().traces_recorded, 1u);
    EXPECT_EQ(rt.Stats().trace_replays, 2u);
    EXPECT_EQ(rt.Stats().tasks_recorded, 2u);
    EXPECT_EQ(rt.Stats().tasks_replayed, 4u);
    // Replayed tasks are charged α_r (plus c on the head), far less
    // than the full analysis α.
    const OpView head = rt.Log()[2];
    EXPECT_TRUE(head.replay_head);
    EXPECT_DOUBLE_EQ(head.analysis_cost_us,
                     rt.Costs().replay_us + rt.Costs().replay_constant_us);
    const OpView body = rt.Log()[3];
    EXPECT_DOUBLE_EQ(body.analysis_cost_us, rt.Costs().replay_us);
    EXPECT_LT(body.analysis_cost_us, rt.Costs().analysis_us);
}

/** Drive `issue` against a traced and an untraced runtime and compare
 * the dependence graphs operation by operation. */
template <typename IssueFn>
void ExpectReplayMatchesFreshAnalysis(IssueFn issue)
{
    Runtime traced, fresh;
    issue(traced, /*use_traces=*/true);
    issue(fresh, /*use_traces=*/false);
    ASSERT_EQ(traced.Log().size(), fresh.Log().size());
    for (std::size_t i = 0; i < traced.Log().size(); ++i) {
        EXPECT_EQ(traced.Log()[i].token, fresh.Log()[i].token) << "op " << i;
        EXPECT_EQ(traced.Log()[i].dependences, fresh.Log()[i].dependences)
            << "dependence divergence at op " << i;
    }
    EXPECT_GT(traced.Stats().tasks_replayed, 0u);
}

TEST(Tracing, ReplayedGraphEqualsFreshAnalysisSimpleLoop)
{
    ExpectReplayMatchesFreshAnalysis([](Runtime& rt, bool use_traces) {
        const RegionId a = rt.CreateRegion();
        const RegionId b = rt.CreateRegion();
        for (int iter = 0; iter < 5; ++iter) {
            if (use_traces) {
                rt.BeginTrace(1);
            }
            rt.ExecuteTask(TaskLaunch{
                1,
                {{a, 0, Privilege::kReadOnly, 0},
                 {b, 0, Privilege::kReadWrite, 0}}});
            rt.ExecuteTask(TaskLaunch{
                2,
                {{b, 0, Privilege::kReadOnly, 0},
                 {a, 0, Privilege::kReadWrite, 0}}});
            if (use_traces) {
                rt.EndTrace(1);
            }
        }
    });
}

TEST(Tracing, ReplayedGraphEqualsFreshAnalysisWithBoundaryWork)
{
    // Untraced operations interleave with trace replays, so boundary
    // (cross-fragment) edges must be regenerated correctly each time.
    ExpectReplayMatchesFreshAnalysis([](Runtime& rt, bool use_traces) {
        const RegionId a = rt.CreateRegion();
        const RegionId b = rt.CreateRegion();
        const RegionId c = rt.CreateRegion();
        for (int iter = 0; iter < 6; ++iter) {
            // Irregular untraced op touching the traced data.
            if (iter % 2 == 0) {
                rt.ExecuteTask(TaskLaunch{
                    9,
                    {{a, 0, Privilege::kReadWrite, 0},
                     {c, 0, Privilege::kReadWrite, 0}}});
            }
            if (use_traces) {
                rt.BeginTrace(2);
            }
            rt.ExecuteTask(TaskLaunch{
                1,
                {{a, 0, Privilege::kReadOnly, 0},
                 {b, 0, Privilege::kReduce, 3}}});
            rt.ExecuteTask(TaskLaunch{
                2,
                {{a, 0, Privilege::kReadOnly, 0},
                 {b, 0, Privilege::kReduce, 3}}});
            rt.ExecuteTask(TaskLaunch{
                3,
                {{b, 0, Privilege::kReadOnly, 0},
                 {a, 0, Privilege::kReadWrite, 0}}});
            if (use_traces) {
                rt.EndTrace(2);
            }
        }
    });
}

TEST(Tracing, ReplayedGraphEqualsFreshAnalysisRandomized)
{
    // Randomized fragment bodies (fixed per trace id) replayed in
    // random interleavings with untraced noise.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        ExpectReplayMatchesFreshAnalysis(
            [seed](Runtime& rt, bool use_traces) {
                support::Rng rng(seed);
                std::vector<RegionId> regions;
                for (int i = 0; i < 3; ++i) {
                    regions.push_back(rt.CreateRegion());
                }
                auto random_task = [&](support::Rng& gen) {
                    TaskLaunch t;
                    t.task = gen.UniformInt(1, 4);
                    RegionRequirement req;
                    req.region =
                        regions[gen.UniformInt(0, regions.size() - 1)];
                    req.privilege =
                        static_cast<Privilege>(gen.UniformInt(0, 2));
                    t.requirements.push_back(req);
                    return t;
                };
                // A fixed body for the trace, derived from the seed.
                support::Rng body_rng(seed * 977);
                std::vector<TaskLaunch> body;
                for (int i = 0; i < 4; ++i) {
                    body.push_back(random_task(body_rng));
                }
                for (int iter = 0; iter < 10; ++iter) {
                    if (rng.Bernoulli(0.4)) {
                        rt.ExecuteTask(random_task(rng));
                    }
                    if (use_traces) {
                        rt.BeginTrace(7);
                    }
                    for (const TaskLaunch& t : body) {
                        rt.ExecuteTask(t);
                    }
                    if (use_traces) {
                        rt.EndTrace(7);
                    }
                }
            });
    }
}

// ---------------------------------------------------------------------------
// Replay plans: a replay analyses only the requirements that can see
// state from before its fragment and writes the fragment's coherence
// summary at EndTrace. Each case compares every op's edges and the
// final coherence state with a runtime that analysed every launch.

/** ExpectReplayMatchesFreshAnalysis, plus the coherence state (analyzer
 * and forest checkpoint sections) at the end of the stream. */
template <typename IssueFn>
void ExpectPlannedReplayMatchesFreshAnalysis(IssueFn issue,
                                             RuntimeOptions options = {})
{
    Runtime traced(options), fresh(options);
    issue(traced, /*use_traces=*/true);
    issue(fresh, /*use_traces=*/false);
    ASSERT_EQ(traced.Log().size(), fresh.Log().size());
    for (std::size_t i = 0; i < traced.Log().size(); ++i) {
        EXPECT_EQ(traced.Log()[i].token, fresh.Log()[i].token) << "op " << i;
        EXPECT_EQ(traced.Log()[i].dependences, fresh.Log()[i].dependences)
            << "dependence divergence at op " << i;
    }
    EXPECT_GT(traced.Stats().tasks_replayed, 0u);
    EXPECT_TRUE(test::CoherenceImage(traced) == test::CoherenceImage(fresh))
        << "coherence state diverged";
}

/** The plan of trace `id` (the template must exist). */
const ReplayPlan& PlanOf(const Runtime& rt, TraceId id)
{
    return rt.Traces().Find(id)->plan;
}

/** Begin trace `id`; true iff this replay follows the template's plan. */
bool BeginTracePlanned(Runtime& rt, TraceId id)
{
    const TraceTemplate* t = rt.Traces().Find(id);
    const std::size_t before = t == nullptr ? 0 : t->plan.replays;
    rt.BeginTrace(id);
    return t != nullptr && t->plan.replays == before + 1;
}

TEST(ReplayPlan, ReductionWithNewOperatorOnUnwrittenField)
{
    // The fragment never writes `a`, so its reductions apply live: the
    // first one swaps the pre-fragment operator-1 reducers into
    // prev_reducers, which the second one (and the next iteration's
    // untraced reductions) must order against. `b` is written first,
    // so its reduction is deferred and the summary must carry its
    // operator over the pre-fragment one.
    ExpectPlannedReplayMatchesFreshAnalysis([](Runtime& rt, bool use_traces) {
        const RegionId a = rt.CreateRegion();
        const RegionId b = rt.CreateRegion();
        std::size_t planned = 0;
        for (int iter = 0; iter < 6; ++iter) {
            rt.ExecuteTask(Reduce(a, 1, 10));
            rt.ExecuteTask(Reduce(a, 1, 10));
            rt.ExecuteTask(Reduce(b, 1, 15));
            if (use_traces) {
                planned += BeginTracePlanned(rt, 1) ? 1 : 0;
            }
            rt.ExecuteTask(Reduce(a, 2, 11));
            rt.ExecuteTask(Reduce(a, 2, 11));
            rt.ExecuteTask(Read(a, 12));
            rt.ExecuteTask(Write(b, 13));
            rt.ExecuteTask(Reduce(b, 5, 14));
            if (use_traces) {
                rt.EndTrace(1);
            }
        }
        if (use_traces) {
            // The states predate the recording, so its plan holds
            // from the first replay on.
            EXPECT_EQ(planned, 5u);
        }
    });
}

TEST(ReplayPlan, ChildWrittenInsideParentTouchedOnlyOutside)
{
    // Inside the fragment the children are written, then read: the
    // reads still see the parent's pre-fragment state (an aliasing,
    // unwritten state), so they stay analysed with their own
    // transitions deferred to the summary, which the parent-level
    // operations between replays then read.
    ExpectPlannedReplayMatchesFreshAnalysis([](Runtime& rt, bool use_traces) {
        const RegionId parent = rt.CreateRegion();
        const std::vector<RegionId> kids = rt.PartitionRegion(parent, 2);
        std::size_t planned = 0;
        for (int iter = 0; iter < 8; ++iter) {
            rt.ExecuteTask(Read(parent, 20));
            if (iter % 3 == 0) {
                rt.ExecuteTask(Write(parent, 21));
            }
            if (use_traces) {
                planned += BeginTracePlanned(rt, 2) ? 1 : 0;
            }
            rt.ExecuteTask(Write(kids[0], 22));
            rt.ExecuteTask(Read(kids[0], 23));
            rt.ExecuteTask(Reduce(kids[1], 4, 24));
            rt.ExecuteTask(Write(kids[1], 25));
            rt.ExecuteTask(Read(kids[1], 26));
            rt.ExecuteTask(Reduce(kids[1], 4, 27));
            if (use_traces) {
                rt.EndTrace(2);
            }
        }
        if (use_traces) {
            EXPECT_EQ(planned, 6u);
        }
    });
}

/** The body the fallback cases replay: a write then a read (deferred),
 * a reduction, a write-discard and a read. */
std::vector<TaskLaunch> FallbackBody(RegionId a, RegionId b, RegionId c)
{
    return {Write(a, 30), Read(a, 31), Reduce(b, 2, 32),
            TaskLaunch{33, {{c, 0, Privilege::kWriteDiscard, 0}}},
            TaskLaunch{34, {{c, 0, Privilege::kReadOnly, 0},
                            {a, 0, Privilege::kReadOnly, 0}}}};
}

TEST(ReplayPlan, FallbackMismatchAfterPlannedPrefix)
{
    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    ExpectPlannedReplayMatchesFreshAnalysis(
        [](Runtime& rt, bool use_traces) {
            const RegionId a = rt.CreateRegion();
            const RegionId b = rt.CreateRegion();
            const RegionId c = rt.CreateRegion();
            const std::vector<TaskLaunch> body = FallbackBody(a, b, c);
            for (int iter = 0; iter < 8; ++iter) {
                rt.ExecuteTask(Read(c, 35));
                if (use_traces) {
                    const bool planned = BeginTracePlanned(rt, 3);
                    EXPECT_EQ(planned, iter >= 2) << "iteration " << iter;
                }
                for (std::size_t k = 0; k < body.size(); ++k) {
                    if (iter == 4 && k == 3) {
                        // Deviates after a planned prefix of three.
                        rt.ExecuteTask(Write(b, 36));
                    }
                    rt.ExecuteTask(body[k]);
                }
                if (use_traces) {
                    rt.EndTrace(3);
                }
            }
            if (use_traces) {
                EXPECT_EQ(rt.Stats().trace_mismatches, 1u);
                EXPECT_EQ(rt.Stats().tasks_rewound, 3u);
            }
        },
        options);
}

TEST(ReplayPlan, FallbackShortReplayAfterPlannedPrefix)
{
    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    ExpectPlannedReplayMatchesFreshAnalysis(
        [](Runtime& rt, bool use_traces) {
            const RegionId a = rt.CreateRegion();
            const RegionId b = rt.CreateRegion();
            const RegionId c = rt.CreateRegion();
            const std::vector<TaskLaunch> body = FallbackBody(a, b, c);
            for (int iter = 0; iter < 8; ++iter) {
                rt.ExecuteTask(Read(c, 35));
                if (use_traces) {
                    EXPECT_EQ(BeginTracePlanned(rt, 3), iter >= 2)
                        << "iteration " << iter;
                }
                // Iteration 4 ends after a planned prefix of four.
                const std::size_t length = iter == 4 ? 4 : body.size();
                for (std::size_t k = 0; k < length; ++k) {
                    rt.ExecuteTask(body[k]);
                }
                if (use_traces) {
                    rt.EndTrace(3);
                }
            }
            if (use_traces) {
                EXPECT_EQ(rt.Stats().trace_mismatches, 1u);
                EXPECT_EQ(rt.Stats().tasks_rewound, 4u);
            }
        },
        options);
}

TEST(ReplayPlan, RegionOperationsInsideAnOpenReplay)
{
    // A create, a partition and a destroy, each issued in the middle of
    // a replay that began under its plan: the deferred transitions of
    // the prefix are applied and the fragment finishes under full
    // analysis; the changed forest forces the next replay to rebuild.
    ExpectPlannedReplayMatchesFreshAnalysis([](Runtime& rt, bool use_traces) {
        const RegionId a = rt.CreateRegion();
        const RegionId b = rt.CreateRegion();
        RegionId extra{0};
        std::vector<RegionId> parts;
        for (int iter = 0; iter < 12; ++iter) {
            const bool region_op = iter == 4 || iter == 7 || iter == 10;
            if (use_traces) {
                const bool planned = BeginTracePlanned(rt, 4);
                if (region_op) {
                    EXPECT_TRUE(planned) << "iteration " << iter;
                }
            }
            rt.ExecuteTask(Write(a, 40));
            rt.ExecuteTask(Read(a, 41));
            if (iter == 4) {
                extra = rt.CreateRegion();
            } else if (iter == 7) {
                parts = rt.PartitionRegion(a, 2);
            } else if (iter == 10) {
                rt.DestroyRegion(extra);
            }
            rt.ExecuteTask(TaskLaunch{
                42,
                {{a, 0, Privilege::kReadOnly, 0},
                 {b, 0, Privilege::kReadWrite, 0}}});
            rt.ExecuteTask(Read(b, 43));
            if (use_traces) {
                rt.EndTrace(4);
            }
            if (!parts.empty()) {
                rt.ExecuteTask(Write(parts[iter % 2], 44));
            }
        }
    });
}

TEST(ReplayPlan, ForestChangeBetweenReplaysRebuildsThePlan)
{
    // No state is created, yet the forest changes what a requirement
    // reads: x's id is freed and reused as a child of p, so the read
    // of x, which the plan skipped (x is written first), now also sees
    // p's pre-fragment writer. The forest stamp forces a rebuild.
    ExpectPlannedReplayMatchesFreshAnalysis([](Runtime& rt, bool use_traces) {
        const RegionId p = rt.CreateRegion();
        const RegionId x = rt.CreateRegion();
        rt.ExecuteTask(Write(p, 60));
        rt.ExecuteTask(Write(x, 61));
        auto fragment = [&] {
            if (use_traces) {
                rt.BeginTrace(5);
            }
            rt.ExecuteTask(Write(x, 62));
            rt.ExecuteTask(Read(x, 63));
            if (use_traces) {
                rt.EndTrace(5);
            }
        };
        for (int iter = 0; iter < 3; ++iter) {
            fragment();
        }
        if (use_traces) {
            EXPECT_EQ(PlanOf(rt, 5).replays, 2u);
        }
        rt.DestroyRegion(x);
        ASSERT_EQ(rt.PartitionRegion(p, 1).front(), x);
        rt.ExecuteTask(Write(p, 64));
        for (int iter = 0; iter < 3; ++iter) {
            fragment();
        }
    });
}

TEST(ReplayPlan, RecordingThatCreatesStatesRebuildsThenRuns)
{
    Runtime rt;
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    auto body = [&] {
        rt.ExecuteTask(Write(a));
        rt.ExecuteTask(Read(a));
        rt.ExecuteTask(TaskLaunch{5,
                                  {{a, 0, Privilege::kReadOnly, 0},
                                   {b, 0, Privilege::kReadWrite, 0}}});
    };
    // The recording creates the states of a and b: no plan.
    rt.BeginTrace(1);
    body();
    rt.EndTrace(1);
    EXPECT_FALSE(PlanOf(rt, 1).stamp.has_value());
    // The first replay analyses in full and builds the plan ...
    EXPECT_FALSE(BeginTracePlanned(rt, 1));
    body();
    rt.EndTrace(1);
    ASSERT_TRUE(PlanOf(rt, 1).stamp.has_value());
    EXPECT_EQ(PlanOf(rt, 1).replays, 0u);
    // ... the second runs it: only the write of a (it reads a's
    // pre-fragment state) and b's read-write (b's) are analysed.
    EXPECT_TRUE(BeginTracePlanned(rt, 1));
    body();
    rt.EndTrace(1);
    EXPECT_EQ(PlanOf(rt, 1).replays, 1u);
    ASSERT_EQ(PlanOf(rt, 1).steps.size(), 2u);
    EXPECT_EQ(PlanOf(rt, 1).steps[0].offset, 0u);
    EXPECT_EQ(PlanOf(rt, 1).steps[1].offset, 2u);
    EXPECT_EQ(PlanOf(rt, 1).steps[1].requirement, 1u);
    EXPECT_GT(rt.Traces().ResidentBytes(), 0u);

    // A recording over existing states is planned from its first
    // replay on.
    rt.BeginTrace(2);
    body();
    rt.EndTrace(2);
    EXPECT_TRUE(PlanOf(rt, 2).stamp.has_value());
    EXPECT_TRUE(BeginTracePlanned(rt, 2));
    body();
    rt.EndTrace(2);
}

TEST(ReplayPlan, CheckpointAfterPlannedReplaysRebuildsOnRestore)
{
    auto iterate = [](Runtime& rt, int iter) {
        const RegionId a{1}, b{2}, c{3};
        rt.ExecuteTask(Read(c, 50 + iter % 2));
        rt.BeginTrace(9);
        for (const TaskLaunch& t : FallbackBody(a, b, c)) {
            rt.ExecuteTask(t);
        }
        rt.EndTrace(9);
    };
    auto regions = [](Runtime& rt) {
        for (int i = 0; i < 3; ++i) {
            rt.CreateRegion();
        }
    };
    constexpr int kCut = 5;
    constexpr int kIterations = 10;
    Runtime reference;
    regions(reference);
    for (int iter = 0; iter < kIterations; ++iter) {
        iterate(reference, iter);
    }

    Runtime crashed;
    regions(crashed);
    for (int iter = 0; iter < kCut; ++iter) {
        iterate(crashed, iter);
    }
    EXPECT_GT(PlanOf(crashed, 9).replays, 0u);
    fault::CheckpointWriter writer;
    crashed.SaveState(writer);
    const std::size_t cut_ops = crashed.Log().size();

    Runtime restored;
    fault::CheckpointReader reader(writer.Image());
    restored.LoadState(reader);
    // Plans are derived state: the restored template has none, so its
    // first replay rebuilds and the second runs the plan.
    EXPECT_FALSE(PlanOf(restored, 9).stamp.has_value());
    for (int iter = kCut; iter < kIterations; ++iter) {
        iterate(restored, iter);
    }
    EXPECT_EQ(PlanOf(restored, 9).replays,
              static_cast<std::size_t>(kIterations - kCut - 1));
    ASSERT_EQ(restored.Log().size(), reference.Log().size());
    for (std::size_t i = cut_ops; i < reference.Log().size(); ++i) {
        EXPECT_EQ(restored.Log()[i].dependences, reference.Log()[i].dependences)
            << "op " << i;
        EXPECT_EQ(restored.Log()[i].mode, reference.Log()[i].mode);
        EXPECT_EQ(restored.Log()[i].analysis_cost_us,
                  reference.Log()[i].analysis_cost_us);
    }
    EXPECT_TRUE(test::CoherenceImage(restored) ==
                test::CoherenceImage(reference));
}

TEST(Tracing, MismatchThrowsUnderStrictPolicy)
{
    Runtime rt;
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    rt.BeginTrace(1);
    rt.ExecuteTask(Read(a));
    rt.EndTrace(1);
    rt.BeginTrace(1);
    EXPECT_THROW(rt.ExecuteTask(Read(b)), TraceMismatchError);
}

TEST(Tracing, ShortReplayThrowsAtEnd)
{
    Runtime rt;
    const RegionId a = rt.CreateRegion();
    rt.BeginTrace(1);
    rt.ExecuteTask(Read(a));
    rt.ExecuteTask(Read(a));
    rt.EndTrace(1);
    rt.BeginTrace(1);
    rt.ExecuteTask(Read(a));
    EXPECT_THROW(rt.EndTrace(1), TraceMismatchError);
}

TEST(Tracing, FallbackPolicyAnalyzesInsteadOfThrowing)
{
    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    Runtime rt(options);
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    rt.BeginTrace(1);
    rt.ExecuteTask(Write(a));
    rt.EndTrace(1);
    rt.BeginTrace(1);
    rt.ExecuteTask(Write(b));  // deviates: falls back to analysis
    rt.ExecuteTask(Read(b));
    rt.EndTrace(1);
    EXPECT_EQ(rt.Stats().trace_mismatches, 1u);
    EXPECT_EQ(rt.Stats().tasks_analyzed, 2u);
    // The dependence graph is still correct.
    ASSERT_EQ(rt.Log().back().dependences.size(), 1u);
    EXPECT_EQ(rt.Log().back().dependences[0].from, 1u);
}

TEST(Tracing, UsageErrors)
{
    Runtime rt;
    EXPECT_THROW(rt.BeginTrace(kNoTrace), RuntimeUsageError);
    EXPECT_THROW(rt.EndTrace(1), RuntimeUsageError);
    rt.BeginTrace(1);
    EXPECT_THROW(rt.BeginTrace(2), RuntimeUsageError);
    EXPECT_THROW(rt.EndTrace(2), RuntimeUsageError);
}

TEST(Tracing, AnalysisCostScalesWithNodeCount)
{
    RuntimeOptions one_node;
    one_node.nodes = 1;
    RuntimeOptions many_nodes;
    many_nodes.nodes = 16;
    Runtime one(one_node);
    Runtime many(many_nodes);
    EXPECT_GT(many.ScaledAnalysisUs(), one.ScaledAnalysisUs());
    EXPECT_DOUBLE_EQ(one.ScaledAnalysisUs(), one.Costs().analysis_us);
}

// ---------------------------------------------------------------------------
// ExecuteFragment: one call per fragment must leave the log, the stats
// and the errors of BeginTrace + ExecuteTask per launch + EndTrace.

/** A six-launch fragment over three regions: writes, reads, a
 * reduction, and multi-requirement launches. */
std::vector<TaskLaunch> FragmentBody(RegionId a, RegionId b, RegionId c)
{
    return {
        Write(a, 10),
        TaskLaunch{11,
                   {{a, 0, Privilege::kReadOnly, 0},
                    {b, 0, Privilege::kReadWrite, 0}}},
        Reduce(c, 1, 12),
        Read(b, 13),
        Write(c, 14),
        TaskLaunch{15,
                   {{a, 0, Privilege::kReadOnly, 0},
                    {c, 0, Privilege::kReadOnly, 0}}},
    };
}

void IssuePerTask(Runtime& rt, TraceId id,
                  const std::vector<TaskLaunch>& launches)
{
    rt.BeginTrace(id);
    for (const TaskLaunch& launch : launches) {
        rt.ExecuteTask(launch);
    }
    rt.EndTrace(id);
}

void IssueFragment(Runtime& rt, TraceId id,
                   const std::vector<TaskLaunch>& launches)
{
    rt.ExecuteFragment(id, launches.size(), [&](std::size_t k) {
        return TaskLaunchView::Of(launches[k]);
    });
}

/** How a fragment departs from its template. */
enum class Deviation { kToken, kShort, kLong };

/** The body with launch `k` changed (kToken), cut before it (kShort),
 * or with one launch too many (kLong). */
std::vector<TaskLaunch> Deviant(std::vector<TaskLaunch> body,
                                Deviation deviation, std::size_t k,
                                RegionId other)
{
    switch (deviation) {
      case Deviation::kToken:
        body[k] = Write(other, 20);
        break;
      case Deviation::kShort:
        body.resize(k);
        break;
      case Deviation::kLong:
        body.push_back(Read(other, 21));
        break;
    }
    return body;
}

/** Record trace 1 and replay it once, so its plan is current, then
 * issue `fragment` as trace 1 one launch at a time (`per_task`) or in
 * one call. Returns the TraceMismatchError text, or "" if none. */
std::string IssueAfterWarmReplay(Runtime& rt, bool per_task,
                                 Deviation deviation, std::size_t k)
{
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    const RegionId c = rt.CreateRegion();
    const RegionId other = rt.CreateRegion();
    const std::vector<TaskLaunch> body = FragmentBody(a, b, c);
    auto issue = per_task ? IssuePerTask : IssueFragment;
    rt.ExecuteTask(Write(other));
    issue(rt, 1, body);
    issue(rt, 1, body);
    EXPECT_TRUE(rt.Traces().Find(1)->plan.stamp.has_value());
    try {
        issue(rt, 1, Deviant(body, deviation, k, other));
    } catch (const TraceMismatchError& error) {
        return error.what();
    }
    // The fallback policy goes on: one more fragment, and a launch.
    issue(rt, 1, body);
    rt.ExecuteTask(Read(other));
    return "";
}

void ExpectSameStats(const RuntimeStats& a, const RuntimeStats& b)
{
    EXPECT_EQ(a.tasks_analyzed, b.tasks_analyzed);
    EXPECT_EQ(a.tasks_recorded, b.tasks_recorded);
    EXPECT_EQ(a.tasks_replayed, b.tasks_replayed);
    EXPECT_EQ(a.traces_recorded, b.traces_recorded);
    EXPECT_EQ(a.trace_replays, b.trace_replays);
    EXPECT_EQ(a.trace_mismatches, b.trace_mismatches);
    EXPECT_EQ(a.tasks_rewound, b.tasks_rewound);
    EXPECT_EQ(a.total_analysis_us, b.total_analysis_us);
}

struct DeviationCase {
    Deviation deviation;
    std::size_t k;
};

const DeviationCase kDeviations[] = {
    {Deviation::kToken, 0}, {Deviation::kToken, 2},
    {Deviation::kToken, 5}, {Deviation::kShort, 4},
    {Deviation::kLong, 0},
};

TEST(ExecuteFragment, MismatchThrowsAsThePerTaskPathDoes)
{
    for (const DeviationCase& c : kDeviations) {
        SCOPED_TRACE(testing::Message()
                     << "deviation " << static_cast<int>(c.deviation)
                     << " at " << c.k);
        Runtime per_task;
        Runtime fragment;
        const std::string expected =
            IssueAfterWarmReplay(per_task, true, c.deviation, c.k);
        const std::string actual =
            IssueAfterWarmReplay(fragment, false, c.deviation, c.k);
        EXPECT_FALSE(expected.empty());
        EXPECT_EQ(actual, expected);
        // The same replayed rows before the throw: k of them for a
        // changed token, the whole short or long prefix otherwise.
        EXPECT_TRUE(
            test::SameRows(test::RowsOf(fragment.Log()),
                           test::RowsOf(per_task.Log())));
        ExpectSameStats(fragment.Stats(), per_task.Stats());
        if (c.deviation == Deviation::kToken) {
            EXPECT_EQ(fragment.Log().size(), 1 + 2 * 6 + c.k);
        }
    }
}

TEST(ExecuteFragment, FallbackRewindsAsThePerTaskPathDoes)
{
    RuntimeOptions options;
    options.mismatch_policy = MismatchPolicy::kFallback;
    for (const bool streaming : {false, true}) {
        for (const DeviationCase& c : kDeviations) {
            SCOPED_TRACE(testing::Message()
                         << "deviation " << static_cast<int>(c.deviation)
                         << " at " << c.k << ", streaming " << streaming);
            Runtime per_task(options);
            Runtime fragment(options);
            std::vector<test::LogRow> per_task_rows;
            std::vector<test::LogRow> fragment_rows;
            if (streaming) {
                per_task.EnableLogStreaming([&](const OpView& op) {
                    per_task_rows.push_back(test::RowOf(op));
                });
                fragment.EnableLogStreaming([&](const OpView& op) {
                    fragment_rows.push_back(test::RowOf(op));
                });
            }
            EXPECT_EQ(IssueAfterWarmReplay(per_task, true, c.deviation, c.k),
                      "");
            EXPECT_EQ(IssueAfterWarmReplay(fragment, false, c.deviation, c.k),
                      "");
            per_task.DrainLogStream();
            fragment.DrainLogStream();
            if (!streaming) {
                per_task_rows = test::RowsOf(per_task.Log());
                fragment_rows = test::RowsOf(fragment.Log());
            }
            EXPECT_TRUE(test::SameRows(fragment_rows, per_task_rows));
            ExpectSameStats(fragment.Stats(), per_task.Stats());
            EXPECT_EQ(fragment.Stats().trace_mismatches, 1u);
            EXPECT_EQ(fragment.Stats().tasks_rewound,
                      c.deviation == Deviation::kLong ? std::size_t{6} : c.k);
        }
    }
}

TEST(ExecuteFragment, StreamingConsumerReadsTheLaunchesOwnRequirements)
{
    Runtime rt;
    const std::vector<TaskLaunch>* launches = nullptr;
    std::size_t start = 0;
    std::size_t replayed = 0;
    std::size_t borrowed = 0;
    rt.EnableLogStreaming([&](const OpView& op) {
        if (op.mode != AnalysisMode::kReplayed) {
            return;
        }
        ++replayed;
        const TaskLaunch& own = (*launches)[op.index - start];
        const std::span<const RegionRequirement> reqs =
            op.launch.Requirements();
        EXPECT_EQ(std::vector<RegionRequirement>(reqs.begin(), reqs.end()),
                  own.requirements)
            << "op " << op.index;
        borrowed += reqs.data() == own.requirements.data() ? 1 : 0;
    });
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    const RegionId c = rt.CreateRegion();
    constexpr std::size_t kCalls = 5;
    for (std::size_t call = 0; call < kCalls; ++call) {
        // Fresh storage per call: a row must not read an earlier one.
        const std::vector<TaskLaunch> body = FragmentBody(a, b, c);
        launches = &body;
        start = rt.Log().size();
        IssueFragment(rt, 1, body);
        EXPECT_EQ(rt.Log().RetiredCount(), rt.Log().size());
    }
    // The recording and the first replay, which builds the plan, copy;
    // every replay under a current plan borrows.
    EXPECT_EQ(replayed, (kCalls - 1) * 6);
    EXPECT_EQ(rt.Traces().Find(1)->plan.replays, kCalls - 2);
    EXPECT_EQ(borrowed, (kCalls - 2) * 6);
}

TEST(ExecuteFragment, RetainedRowsOwnTheirRequirements)
{
    Runtime rt;
    const RegionId a = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    const RegionId c = rt.CreateRegion();
    const std::vector<TaskLaunch> body = FragmentBody(a, b, c);
    IssueFragment(rt, 1, body);
    IssueFragment(rt, 1, body);
    auto launches = std::make_unique<std::vector<TaskLaunch>>(body);
    const std::size_t start = rt.Log().size();
    IssueFragment(rt, 1, *launches);
    ASSERT_EQ(rt.Traces().Find(1)->plan.replays, 1u);
    // Overwrite the caller's storage, then free it: a row that still
    // pointed there would read the overwrite, or (under ASan) a freed
    // block.
    for (TaskLaunch& launch : *launches) {
        launch.requirements.assign(
            4, RegionRequirement{RegionId{99}, 7, Privilege::kReduce, 5});
    }
    launches.reset();
    for (std::size_t k = 0; k < body.size(); ++k) {
        const OpView op = rt.Log()[start + k];
        EXPECT_EQ(op.mode, AnalysisMode::kReplayed);
        const std::span<const RegionRequirement> reqs =
            op.launch.Requirements();
        EXPECT_EQ(std::vector<RegionRequirement>(reqs.begin(), reqs.end()),
                  body[k].requirements)
            << "position " << k;
    }
}

TEST(Tokens, HashCapturesAnalysisRelevantStateOnly)
{
    const RegionId a{1}, b{2};
    TaskLaunch t1{1, {{a, 0, Privilege::kReadOnly, 0}}};
    TaskLaunch t2 = t1;
    t2.execution_us = 999.0;  // execution hints don't affect analysis
    t2.shard = 3;
    EXPECT_EQ(HashLaunch(t1), HashLaunch(t2));
    TaskLaunch t3 = t1;
    t3.requirements[0].region = b;
    EXPECT_NE(HashLaunch(t1), HashLaunch(t3));
    TaskLaunch t4 = t1;
    t4.requirements[0].privilege = Privilege::kReadWrite;
    EXPECT_NE(HashLaunch(t1), HashLaunch(t4));
    TaskLaunch t5 = t1;
    t5.task = 2;
    EXPECT_NE(HashLaunch(t1), HashLaunch(t5));
}

/** The paper's section 2 example: a cuPyNumeric-style Jacobi loop
 * whose loop-carried variable rebinds to a fresh region each
 * iteration, making the task stream 2-periodic rather than
 * 1-periodic. */
void IssueJacobiIteration(Runtime& rt, RegionId R, RegionId b, RegionId d,
                          RegionId& x)
{
    // t1 = DOT(R, x); allocate result region.
    const RegionId t1 = rt.CreateRegion();
    rt.ExecuteTask(TaskLaunch{TaskIdOf("DOT"),
                              {{R, 0, Privilege::kReadOnly, 0},
                               {x, 0, Privilege::kReadOnly, 0},
                               {t1, 0, Privilege::kWriteDiscard, 0}}});
    // t2 = SUB(b, t1).
    const RegionId t2 = rt.CreateRegion();
    rt.ExecuteTask(TaskLaunch{TaskIdOf("SUB"),
                              {{b, 0, Privilege::kReadOnly, 0},
                               {t1, 0, Privilege::kReadOnly, 0},
                               {t2, 0, Privilege::kWriteDiscard, 0}}});
    // t1 dies after SUB; cuPyNumeric-style eager collection frees it
    // immediately, making its id available for the next allocation.
    rt.DestroyRegion(t1);
    // x' = DIV(t2, d); the old x dies and is immediately reusable.
    const RegionId x_new = rt.CreateRegion();
    rt.ExecuteTask(TaskLaunch{TaskIdOf("DIV"),
                              {{t2, 0, Privilege::kReadOnly, 0},
                               {d, 0, Privilege::kReadOnly, 0},
                               {x_new, 0, Privilege::kWriteDiscard, 0}}});
    rt.DestroyRegion(t2);
    rt.DestroyRegion(x);
    x = x_new;
}

TEST(JacobiExample, NaiveOneIterationTraceIsInvalid)
{
    Runtime rt;
    const RegionId R = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    const RegionId d = rt.CreateRegion();
    RegionId x = rt.CreateRegion();
    // Warm up one iteration so the allocator reaches its steady state.
    IssueJacobiIteration(rt, R, b, d, x);
    // Annotating one loop iteration records iteration i...
    rt.BeginTrace(1);
    IssueJacobiIteration(rt, R, b, d, x);
    rt.EndTrace(1);
    // ...but iteration i+1 issues different region arguments.
    rt.BeginTrace(1);
    EXPECT_THROW(IssueJacobiIteration(rt, R, b, d, x), TraceMismatchError);
}

TEST(JacobiExample, TwoIterationTraceIsValid)
{
    Runtime rt;
    const RegionId R = rt.CreateRegion();
    const RegionId b = rt.CreateRegion();
    const RegionId d = rt.CreateRegion();
    RegionId x = rt.CreateRegion();
    IssueJacobiIteration(rt, R, b, d, x);  // warm up
    for (int pair = 0; pair < 4; ++pair) {
        rt.BeginTrace(1);
        IssueJacobiIteration(rt, R, b, d, x);
        IssueJacobiIteration(rt, R, b, d, x);
        rt.EndTrace(1);
    }
    EXPECT_EQ(rt.Stats().traces_recorded, 1u);
    EXPECT_EQ(rt.Stats().trace_replays, 3u);
}

}  // namespace
}  // namespace apo::rt
