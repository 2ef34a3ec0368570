/**
 * @file
 * End-to-end tests of the Apophenia front-end against the mini
 * runtime: stream preservation, automatic trace discovery and replay,
 * the section 2 Jacobi pathology, configuration effects, and the
 * steady-state behaviour the paper's evaluation relies on.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/apophenia.h"
#include "sim/cluster.h"
#include "streams_identical.h"
#include "support/rng.h"

namespace apo::core {
namespace {

/** A small test application: a k-task loop over rotating regions with
 * optional noise tasks interleaved. */
class LoopApp {
  public:
    LoopApp(Apophenia& front_end, std::size_t body_tasks)
        : fe_(&front_end), body_tasks_(body_tasks)
    {
        for (std::size_t i = 0; i < body_tasks; ++i) {
            regions_.push_back(fe_->CreateRegion());
        }
    }

    void Iteration()
    {
        for (std::size_t i = 0; i < body_tasks_; ++i) {
            const rt::RegionId in = regions_[i];
            const rt::RegionId out = regions_[(i + 1) % body_tasks_];
            fe_->ExecuteTask(rt::TaskLaunch{
                100 + i,
                {{in, 0, rt::Privilege::kReadOnly, 0},
                 {out, 0, rt::Privilege::kReadWrite, 0}}});
        }
    }

    void Noise(std::uint64_t salt)
    {
        fe_->ExecuteTask(rt::TaskLaunch{
            999 + salt, {{regions_[0], 0, rt::Privilege::kReadOnly, 0}}});
    }

  private:
    Apophenia* fe_;
    std::size_t body_tasks_;
    std::vector<rt::RegionId> regions_;
};

ApopheniaConfig SmallConfig()
{
    ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 500;
    config.multi_scale_factor = 50;
    return config;
}

TEST(Apophenia, ForwardsExactStreamInOrder)
{
    // The front-end may regroup tasks into traces but must forward
    // exactly the same launches in exactly the same order.
    rt::Runtime runtime;
    Apophenia fe(runtime, SmallConfig());
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 60; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    ASSERT_EQ(runtime.Log().size(), 600u);
    // Recompute the expected token stream with an identical app run
    // against a bare runtime.
    rt::Runtime bare;
    ApopheniaConfig off;
    off.enabled = false;
    Apophenia passthrough(bare, off);
    LoopApp app2(passthrough, 10);
    for (int iter = 0; iter < 60; ++iter) {
        app2.Iteration();
    }
    for (std::size_t i = 0; i < 600; ++i) {
        ASSERT_EQ(runtime.Log()[i].token, bare.Log()[i].token)
            << "stream reordered at op " << i;
    }
}

TEST(Apophenia, DiscoversAndReplaysSimpleLoop)
{
    rt::Runtime runtime;
    Apophenia fe(runtime, SmallConfig());
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 100; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    EXPECT_GT(fe.Stats().traces_fired, 5u);
    EXPECT_GT(runtime.Stats().tasks_replayed, 500u);
    // Steady state: the tail of the run should be almost entirely
    // replayed (paper figure 10's plateau).
    std::size_t tail_replayed = 0;
    const auto& log = runtime.Log();
    for (std::size_t i = log.size() - 200; i < log.size(); ++i) {
        tail_replayed += log[i].mode == rt::AnalysisMode::kReplayed;
    }
    EXPECT_GE(tail_replayed, 160u);
}

TEST(Apophenia, ReplayedAnalysisEqualsFreshAnalysis)
{
    // The dependence graph under automatic tracing must be identical
    // to the untraced graph — tracing is an optimization, not a
    // semantic change.
    auto run = [](bool enabled) {
        auto runtime = std::make_unique<rt::Runtime>();
        ApopheniaConfig config = SmallConfig();
        config.enabled = enabled;
        Apophenia fe(*runtime, config);
        LoopApp app(fe, 8);
        for (int iter = 0; iter < 80; ++iter) {
            app.Iteration();
            if (iter % 7 == 0) {
                app.Noise(0);
            }
        }
        fe.Flush();
        return runtime;
    };
    const auto traced = run(true);
    const auto untraced = run(false);
    ASSERT_EQ(traced->Log().size(), untraced->Log().size());
    for (std::size_t i = 0; i < traced->Log().size(); ++i) {
        ASSERT_EQ(traced->Log()[i].token, untraced->Log()[i].token);
        ASSERT_EQ(traced->Log()[i].dependences,
                  untraced->Log()[i].dependences)
            << "dependence divergence at op " << i;
    }
    EXPECT_GT(traced->Stats().tasks_replayed, 0u);
}

TEST(Apophenia, NoTraceShorterThanMinLengthIsFired)
{
    rt::Runtime runtime;
    ApopheniaConfig config = SmallConfig();
    config.min_trace_length = 12;
    Apophenia fe(runtime, config);
    LoopApp app(fe, 4);  // 4-task loop: body shorter than the minimum
    for (int iter = 0; iter < 100; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    // Traces may still fire (e.g. three bodies = 12 tasks), but every
    // fired trace must respect the minimum length.
    for (const auto& op : runtime.Log()) {
        if (op.replay_head) {
            const auto* tmpl = runtime.Traces().Find(op.trace);
            ASSERT_NE(tmpl, nullptr);
            EXPECT_GE(tmpl->Length(), 12u);
        }
    }
}

TEST(Apophenia, MaxTraceLengthChunksReplays)
{
    rt::Runtime runtime;
    ApopheniaConfig config = SmallConfig();
    config.min_trace_length = 5;
    config.max_trace_length = 15;
    Apophenia fe(runtime, config);
    LoopApp app(fe, 40);  // body much longer than max trace length
    for (int iter = 0; iter < 60; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    EXPECT_GT(runtime.Stats().trace_replays, 0u);
    for (const auto& op : runtime.Log()) {
        if (op.replay_head) {
            const auto* tmpl = runtime.Traces().Find(op.trace);
            ASSERT_NE(tmpl, nullptr);
            EXPECT_LE(tmpl->Length(), 15u);
        }
    }
}

TEST(Apophenia, SurvivesIrregularNoiseBetweenIterations)
{
    // The paper's motivation for non-tandem repeats: convergence
    // checks interrupt the loop, yet tracing still succeeds.
    rt::Runtime runtime;
    Apophenia fe(runtime, SmallConfig());
    LoopApp app(fe, 10);
    support::Rng rng(3);
    for (int iter = 0; iter < 150; ++iter) {
        app.Iteration();
        if (iter % 9 == 0) {
            app.Noise(rng.UniformInt(0, 3));
        }
    }
    fe.Flush();
    EXPECT_GT(runtime.Stats().ReplayedFraction(), 0.5);
}

TEST(Apophenia, DisabledConfigIsTransparent)
{
    rt::Runtime runtime;
    ApopheniaConfig config;
    config.enabled = false;
    Apophenia fe(runtime, config);
    LoopApp app(fe, 6);
    for (int iter = 0; iter < 50; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    EXPECT_EQ(runtime.Stats().tasks_analyzed, 300u);
    EXPECT_EQ(runtime.Stats().tasks_replayed, 0u);
    EXPECT_EQ(fe.Stats().traces_fired, 0u);
}

TEST(Apophenia, PendingBufferIsBounded)
{
    rt::Runtime runtime;
    ApopheniaConfig config = SmallConfig();
    config.max_pending = 100;
    Apophenia fe(runtime, config);
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 200; ++iter) {
        app.Iteration();
        ASSERT_LE(fe.PendingTasks(), 2 * config.max_pending);
    }
    fe.Flush();
    EXPECT_LE(fe.Stats().pending_high_water, 2 * config.max_pending);
}

TEST(Apophenia, FlushForwardsEverything)
{
    rt::Runtime runtime;
    Apophenia fe(runtime, SmallConfig());
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 30; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    EXPECT_EQ(runtime.Log().size(), 300u);
    EXPECT_EQ(fe.PendingTasks(), 0u);
}

/** The section 2 cuPyNumeric Jacobi example, issued through Apophenia:
 * the stream is 2-periodic because of region reuse, and Apophenia must
 * discover the 2-iteration trace no human annotated. */
class JacobiApp {
  public:
    explicit JacobiApp(Apophenia& fe) : fe_(&fe)
    {
        R_ = fe_->CreateRegion();
        b_ = fe_->CreateRegion();
        d_ = fe_->CreateRegion();
        x_ = fe_->CreateRegion();
    }

    void Iteration()
    {
        const rt::RegionId t1 = fe_->CreateRegion();
        fe_->ExecuteTask(rt::TaskLaunch{
            rt::TaskIdOf("DOT"),
            {{R_, 0, rt::Privilege::kReadOnly, 0},
             {x_, 0, rt::Privilege::kReadOnly, 0},
             {t1, 0, rt::Privilege::kWriteDiscard, 0}}});
        const rt::RegionId t2 = fe_->CreateRegion();
        fe_->ExecuteTask(rt::TaskLaunch{
            rt::TaskIdOf("SUB"),
            {{b_, 0, rt::Privilege::kReadOnly, 0},
             {t1, 0, rt::Privilege::kReadOnly, 0},
             {t2, 0, rt::Privilege::kWriteDiscard, 0}}});
        fe_->DestroyRegion(t1);
        const rt::RegionId x_new = fe_->CreateRegion();
        fe_->ExecuteTask(rt::TaskLaunch{
            rt::TaskIdOf("DIV"),
            {{t2, 0, rt::Privilege::kReadOnly, 0},
             {d_, 0, rt::Privilege::kReadOnly, 0},
             {x_new, 0, rt::Privilege::kWriteDiscard, 0}}});
        fe_->DestroyRegion(t2);
        fe_->DestroyRegion(x_);
        x_ = x_new;
    }

  private:
    Apophenia* fe_;
    rt::RegionId R_, b_, d_, x_;
};

TEST(Apophenia, TracesTheJacobiPathologyAutomatically)
{
    rt::Runtime runtime;
    ApopheniaConfig config = SmallConfig();
    config.min_trace_length = 5;  // > one iteration (3 tasks)
    Apophenia fe(runtime, config);
    JacobiApp app(fe);
    for (int iter = 0; iter < 400; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    // Apophenia found and replayed traces despite the region renaming
    // that defeats one-iteration manual annotations.
    EXPECT_GT(runtime.Stats().trace_replays, 10u);
    EXPECT_GT(runtime.Stats().ReplayedFraction(), 0.5);
    // Every fired trace spans an even number of iterations: the true
    // period is two iterations = 6 tasks.
    for (const auto& op : runtime.Log()) {
        if (op.replay_head) {
            const auto* tmpl = runtime.Traces().Find(op.trace);
            ASSERT_NE(tmpl, nullptr);
            EXPECT_EQ(tmpl->Length() % 6, 0u)
                << "trace length " << tmpl->Length()
                << " is not a multiple of the 2-iteration period";
        }
    }
}

TEST(Apophenia, StatsAreConsistent)
{
    rt::Runtime runtime;
    Apophenia fe(runtime, SmallConfig());
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 100; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    const auto& s = fe.Stats();
    EXPECT_EQ(s.tasks_observed, 1000u);
    EXPECT_EQ(s.tasks_forwarded_traced + s.tasks_forwarded_untraced, 1000u);
    EXPECT_EQ(s.traces_fired, s.trace_records + s.trace_replays);
    EXPECT_EQ(runtime.Stats().TotalTasks(), 1000u);
    EXPECT_EQ(runtime.Stats().tasks_replayed + runtime.Stats().tasks_recorded,
              s.tasks_forwarded_traced);
}

TEST(Apophenia, TaskTeamExecutorProducesValidStream)
{
    // With real background workers the timing of job completion is
    // nondeterministic, but the forwarded stream must always be the
    // application's stream and the graph must match fresh analysis.
    rt::Runtime runtime;
    support::TaskTeam team(3);
    Apophenia fe(runtime, SmallConfig(), &team);
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 100; ++iter) {
        app.Iteration();
    }
    team.Drain();
    fe.Flush();
    EXPECT_EQ(runtime.Log().size(), 1000u);
    rt::Runtime bare;
    ApopheniaConfig off;
    off.enabled = false;
    Apophenia passthrough(bare, off);
    LoopApp app2(passthrough, 10);
    for (int iter = 0; iter < 100; ++iter) {
        app2.Iteration();
    }
    for (std::size_t i = 0; i < 1000; ++i) {
        ASSERT_EQ(runtime.Log()[i].token, bare.Log()[i].token);
        ASSERT_EQ(runtime.Log()[i].dependences, bare.Log()[i].dependences);
    }
}

TEST(Apophenia, SurvivesRuntimeTemplateEviction)
{
    // A tightly bounded template cache keeps evicting what Apophenia
    // records; every fire must still be valid (re-recording when the
    // runtime forgot the template) and the stream must stay correct.
    rt::RuntimeOptions options;
    options.max_trace_templates = 1;
    rt::Runtime runtime(options);
    Apophenia fe(runtime, SmallConfig());
    LoopApp app(fe, 10);
    for (int iter = 0; iter < 120; ++iter) {
        app.Iteration();
    }
    fe.Flush();
    EXPECT_EQ(runtime.Stats().trace_mismatches, 0u);
    EXPECT_LE(runtime.Traces().Size(), 1u);
    // Tasks were still forwarded completely and in order.
    EXPECT_EQ(runtime.Stats().TotalTasks(), 1200u);
}

/** A 12-task loop over `regions` with a unique noise task after about
 * one task in thirty, so mined candidates vary in length and overlap. */
std::vector<rt::TaskLaunch> NoisyLoop(const std::vector<rt::RegionId>& regions,
                                      int iterations)
{
    support::Rng rng(7);
    std::vector<rt::TaskLaunch> launches;
    const std::size_t body = regions.size();
    for (int iter = 0; iter < iterations; ++iter) {
        for (std::size_t i = 0; i < body; ++i) {
            launches.push_back(rt::TaskLaunch{
                100 + i,
                {{regions[i], 0, rt::Privilege::kReadOnly, 0},
                 {regions[(i + 1) % body], 0, rt::Privilege::kReadWrite,
                  0}}});
            if (rng.Bernoulli(0.03)) {
                launches.push_back(rt::TaskLaunch{
                    5000 + launches.size(),
                    {{regions[0], 0, rt::Privilege::kReadOnly, 0}}});
            }
        }
    }
    return launches;
}

TEST(Apophenia, MatchStateSurvivesForcedFlushesAndFires)
{
    // The matcher keeps its active pointers sorted by start and its
    // fire and flush decisions read only the front of that order. Run
    // it through the paths that erase pointers — forced flushes of an
    // overfull pending buffer and fires of overlapping matches — and
    // pin the issued stream to the digest the full-scan matcher
    // produced for the same input (by the earlier digest fold, which
    // the legacy oracle reproduces).
    ApopheniaConfig config = SmallConfig();
    config.max_pending = 24;
    rt::Runtime runtime;
    Apophenia fe(runtime, config);
    std::vector<rt::RegionId> regions;
    for (int i = 0; i < 12; ++i) {
        regions.push_back(fe.CreateRegion());
    }
    for (const rt::TaskLaunch& launch : NoisyLoop(regions, 150)) {
        fe.ExecuteTask(launch);
    }
    fe.Flush();
    EXPECT_GT(fe.Stats().forced_flushes, 0u);
    EXPECT_GT(fe.Stats().trace_replays, 0u);
    EXPECT_EQ(sim::StreamDigest::Of(runtime.Log()).Value(),
              6360632517214131569ULL);
    EXPECT_EQ(test::LegacyStreamDigest::Of(runtime.Log()).Value(),
              11318005712491931143ULL);
}

/** A stream over four motifs: A, B, C, and A2 — A with its fourth task
 * changed, so candidates through A and A2 branch mid-way. Three draws
 * in four continue the phrase A B A B …, the rest pick a motif at
 * random, and about one task in fifty is unique noise. Mined
 * candidates therefore share prefixes, branch, and extend one another
 * as longer repeats of the phrase are found. */
std::vector<rt::TaskLaunch> MotifStream(
    const std::vector<rt::RegionId>& regions, std::uint64_t seed)
{
    const std::vector<std::vector<std::uint64_t>> motifs = {
        {1, 2, 3, 4, 5, 6, 7},
        {11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21},
        {31, 32, 33, 34, 35},
        {1, 2, 3, 44, 5, 6, 7},
    };
    support::Rng rng(seed);
    std::vector<rt::TaskLaunch> launches;
    std::size_t phrase = 0;
    while (launches.size() < 3000) {
        const std::size_t pick =
            rng.Bernoulli(0.75) ? phrase++ % 2 : rng.UniformInt(0, 3);
        for (const std::uint64_t task : motifs[pick]) {
            const std::size_t r = task % regions.size();
            launches.push_back(rt::TaskLaunch{
                100 + task,
                {{regions[r], 0, rt::Privilege::kReadOnly, 0},
                 {regions[(r + 1) % regions.size()], 0,
                  rt::Privilege::kReadWrite, 0}}});
            if (rng.Bernoulli(0.02)) {
                launches.push_back(rt::TaskLaunch{
                    5000 + launches.size(),
                    {{regions[0], 0, rt::Privilege::kReadOnly, 0}}});
            }
        }
    }
    return launches;
}

/** Issue `launches` into a front-end that leaves ingestion to its
 * owner, ingesting one to three of the oldest pending jobs at about
 * one position in eight. The draw is a pure function of the seed and
 * the position. */
void IssueWithManualIngest(Apophenia& fe,
                           const std::vector<rt::TaskLaunch>& launches,
                           std::uint64_t seed)
{
    fe.LeaveIngestionToOwner();
    for (std::size_t i = 0; i < launches.size(); ++i) {
        fe.ExecuteTask(launches[i]);
        const std::uint64_t roll =
            support::SplitMix64(seed ^ (i * 0x9e3779b97f4a7c15ULL));
        if (roll % 8 != 0) {
            continue;
        }
        for (std::uint64_t n = 1 + roll / 8 % 3;
             n > 0 && fe.PendingJobCount() > 0; --n) {
            fe.IngestOldestJob();
        }
    }
}

TEST(Apophenia, MatcherSurvivesManualIngestAndFlushes)
{
    // Adversarial schedules for the run-at-a-time matcher. Jobs are
    // ingested at random stream positions, so candidates land while
    // pointers lag inside their runs: new branches and candidates
    // appear ahead of (and behind) lagging pointers, and leaves are
    // extended under live ones. A pending bound of 16 forces flushes;
    // one of 32 is never hit and leaves matches to run long. The pins
    // were captured from the per-token matcher this one replaced; its
    // stream digests by the earlier fold, which the legacy oracle
    // reproduces over the same run's log.
    struct Pin {
        std::uint64_t seed;
        std::size_t max_pending;
        std::uint64_t stream_digest;
        std::uint64_t legacy_stream_digest;
        std::uint64_t candidate_digest;
        std::uint64_t traces_fired;
        std::uint64_t launches_buffered;
        std::size_t pending_high_water;
        std::uint64_t forced_flushes;
    };
    const Pin pins[] = {
        {1, 16, 2612460823853205921ULL,
         17779227227783649770ULL, 3702235778062888063ULL, 282,
         2889, 17, 174},
        {2, 16, 10112172684922409114ULL,
         3275217861606977857ULL, 8795504900725735342ULL, 306,
         2899, 17, 156},
        {3, 16, 2998284325551151307ULL,
         14460145854286799012ULL, 12333807757399270096ULL, 320,
         2890, 17, 158},
        {1, 32, 1510550256503808939ULL,
         11031146025261611068ULL, 16503865283775365085ULL, 221,
         2895, 25, 0},
        {2, 32, 6029181699492645795ULL,
         9426462342510857523ULL, 13567856476882457969ULL, 235,
         2899, 25, 0},
        {3, 32, 8913520775748159312ULL,
         929960393791281738ULL, 7044398830970914277ULL, 245,
         2893, 25, 0},
    };
    ApopheniaConfig config = SmallConfig();
    config.min_trace_length = 3;
    config.max_trace_length = 24;  // long repeats split into several
    config.multi_scale_factor = 25;
    for (const Pin& pin : pins) {
        SCOPED_TRACE(testing::Message() << "seed " << pin.seed
                                        << ", max_pending "
                                        << pin.max_pending);
        config.max_pending = pin.max_pending;
        rt::Runtime runtime;
        Apophenia fe(runtime, config);
        std::vector<rt::RegionId> regions;
        for (int i = 0; i < 16; ++i) {
            regions.push_back(fe.CreateRegion());
        }
        IssueWithManualIngest(fe, MotifStream(regions, pin.seed),
                              pin.seed);
        fe.Flush();
        EXPECT_EQ(sim::StreamDigest::Of(runtime.Log()).Value(),
                  pin.stream_digest);
        EXPECT_EQ(test::LegacyStreamDigest::Of(runtime.Log()).Value(),
                  pin.legacy_stream_digest);
        EXPECT_EQ(fe.CandidateDigest(), pin.candidate_digest);
        EXPECT_EQ(fe.Stats().traces_fired, pin.traces_fired);
        EXPECT_EQ(fe.Stats().launches_buffered, pin.launches_buffered);
        EXPECT_EQ(fe.Stats().pending_high_water, pin.pending_high_water);
        EXPECT_EQ(fe.Stats().forced_flushes, pin.forced_flushes);
        EXPECT_GT(fe.Stats().trace_replays, 0u);
    }
}

}  // namespace
}  // namespace apo::core
