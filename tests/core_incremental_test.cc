/**
 * @file
 * Tests of the core steady-state mining engine (core::SteadyStateMiner
 * and its TraceFinder wiring):
 *
 *  - the rolling fast path's zero-allocation contract (this TU owns
 *    the counting allocator — see support/counting_allocator.h), and
 *    strings::IncrementalMiner's: a warm mined window allocates only
 *    the repeats it emits;
 *  - verified adoption: Probe only ever returns results for a window
 *    that compares token-for-token equal;
 *  - bit-identity of the whole pipeline with incremental mining on vs
 *    off, over every bundled application, single-node and replicated
 *    (stream digests);
 *  - the per-tier counters threaded through AnalysisJob → FinderStats
 *    → ExperimentResult.
 */
#include "support/counting_allocator.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "api/frontend.h"
#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/apophenia.h"
#include "core/config.h"
#include "core/finder.h"
#include "core/history.h"
#include "core/steady_miner.h"
#include "sim/harness.h"
#include "strings/incremental.h"
#include "support/ruler.h"

namespace apo {
namespace {

core::ApopheniaConfig MinerConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 4096;
    config.multi_scale_factor = 64;
    return config;
}

std::vector<rt::TokenHash> PeriodicSlice(std::size_t n,
                                         std::uint64_t period,
                                         std::uint64_t base = 0)
{
    std::vector<rt::TokenHash> s(n);
    for (std::size_t i = 0; i < n; ++i) {
        s[i] = base + (i % period);
    }
    return s;
}

TEST(SteadyStateMiner, MineMatchesMineSliceAndMemoizes)
{
    const core::ApopheniaConfig config = MinerConfig();
    core::SteadyStateMiner miner(config);
    const std::vector<rt::TokenHash> slice = PeriodicSlice(512, 16);

    core::MiningPath path = core::MiningPath::kNone;
    const auto mined = miner.Mine(slice, &path);
    ASSERT_NE(mined, nullptr);
    EXPECT_EQ(path, core::MiningPath::kFull);  // nothing to reuse yet

    const std::vector<core::CandidateTrace> want =
        core::MineSlice(slice, config);
    ASSERT_EQ(mined->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*mined)[i].tokens, want[i].tokens);
        EXPECT_EQ((*mined)[i].occurrences, want[i].occurrences);
    }

    // The result was memoized: an identical window now probes hot, and
    // adoption shares the very same candidate set (no copy).
    const auto hit = miner.Probe(std::span<const rt::TokenHash>(slice));
    EXPECT_EQ(hit.get(), mined.get());
    // The ring learned the window's dominant period — the winning
    // (longest) repeat's occurrence spacing, a multiple of the
    // stream's base period.
    const std::vector<std::size_t> periods = miner.RingPeriods();
    ASSERT_EQ(periods.size(), 1u);
    EXPECT_GT(periods.front(), 0u);
    EXPECT_EQ(periods.front() % 16, 0u);

    const core::SteadyStateMiner::Stats stats = miner.Snapshot();
    EXPECT_EQ(stats.full_rebuilds, 1u);
    EXPECT_EQ(stats.memoized, 1u);
    EXPECT_EQ(stats.fast_path_hits, 1u);
}

TEST(SteadyStateMiner, ProbeOnlyAdoptsVerifiedEqualWindows)
{
    const core::ApopheniaConfig config = MinerConfig();
    core::SteadyStateMiner miner(config);
    const std::vector<rt::TokenHash> slice = PeriodicSlice(256, 8);
    core::MiningPath path = core::MiningPath::kNone;
    miner.Mine(slice, &path);

    std::vector<rt::TokenHash> other = slice;
    other.back() ^= 1;  // same length, different content
    EXPECT_EQ(miner.Probe(std::span<const rt::TokenHash>(other)), nullptr);
    std::vector<rt::TokenHash> shorter(slice.begin(), slice.end() - 1);
    EXPECT_EQ(miner.Probe(std::span<const rt::TokenHash>(shorter)),
              nullptr);
    EXPECT_NE(miner.Probe(std::span<const rt::TokenHash>(slice)), nullptr);
}

TEST(SteadyStateMiner, FastPathProbePerformsZeroAllocations)
{
    const core::ApopheniaConfig config = MinerConfig();
    core::SteadyStateMiner miner(config);
    const std::vector<rt::TokenHash> slice = PeriodicSlice(4096, 64);
    const std::vector<rt::TokenHash> cold = PeriodicSlice(4096, 64, 900);
    core::MiningPath path = core::MiningPath::kNone;
    miner.Mine(slice, &path);

    // The steady state: thousands of windows served by the fast path.
    // The contract is zero heap allocations per probed window — hits
    // AND misses (a miss must not allocate either; it falls through to
    // the mining tiers which own their scratch).
    const std::span<const rt::TokenHash> hot(slice);
    const std::span<const rt::TokenHash> miss(cold);
    std::shared_ptr<const std::vector<core::CandidateTrace>> last;
    bool all_hit = true;
    bool any_miss_hit = false;
    const std::uint64_t before = support::AllocationCount();
    for (int i = 0; i < 1000; ++i) {
        last = miner.Probe(hot);
        all_hit = all_hit && last != nullptr;
        any_miss_hit = any_miss_hit || miner.Probe(miss) != nullptr;
    }
    const std::uint64_t allocations =
        support::AllocationCount() - before;
    EXPECT_EQ(allocations, 0u) << "fast-path probe allocated";
    EXPECT_TRUE(all_hit);
    EXPECT_FALSE(any_miss_hit);
}

TEST(SteadyStateMiner, SnapshotProbeHitsWithoutMaterializing)
{
    const core::ApopheniaConfig config = MinerConfig();
    core::SteadyStateMiner miner(config);

    // A window split across history blocks: the snapshot probe walks
    // the block spans in place.
    core::HistoryRing ring(512, 64);
    const std::vector<rt::TokenHash> slice = PeriodicSlice(500, 10);
    for (const rt::TokenHash token : slice) {
        ring.Append(token);
    }
    core::HistorySnapshot snapshot;
    ring.SnapshotLastN(500, snapshot);
    ASSERT_GT(snapshot.NumSpans(), 1u);

    core::MiningPath path = core::MiningPath::kNone;
    const auto mined = miner.Mine(slice, &path);
    const std::uint64_t before = support::AllocationCount();
    const auto hit = miner.Probe(snapshot);
    const std::uint64_t allocations =
        support::AllocationCount() - before;
    EXPECT_EQ(hit.get(), mined.get());
    EXPECT_EQ(allocations, 0u) << "snapshot probe allocated";

    // And a snapshot that differs in its last block misses.
    ring.Append(999);
    core::HistorySnapshot moved;
    ring.SnapshotLastN(500, moved);
    EXPECT_EQ(miner.Probe(moved), nullptr);
}

TEST(SteadyStateMiner, MemoizeSeedsTheFastPathFromExternalResults)
{
    const core::ApopheniaConfig config = MinerConfig();
    core::SteadyStateMiner miner(config);
    const std::vector<rt::TokenHash> slice = PeriodicSlice(256, 8);
    const auto external =
        std::make_shared<const std::vector<core::CandidateTrace>>(
            core::MineSlice(slice, config));

    // A shared-cache adoption memoizes without mining locally; the
    // next identical window fast-paths straight to the adopted set.
    miner.Memoize(std::span<const rt::TokenHash>(slice), external);
    const auto hit = miner.Probe(std::span<const rt::TokenHash>(slice));
    EXPECT_EQ(hit.get(), external.get());
    const core::SteadyStateMiner::Stats stats = miner.Snapshot();
    EXPECT_EQ(stats.memoized, 1u);
    EXPECT_EQ(stats.full_rebuilds, 0u);
}

TEST(SteadyStateMiner, RingHoldsOneSlotPerWindowShapeAndEvictsFifo)
{
    core::ApopheniaConfig config = MinerConfig();
    config.incremental_ring_windows = 2;
    core::SteadyStateMiner miner(config);
    core::MiningPath path = core::MiningPath::kNone;

    const std::vector<rt::TokenHash> a = PeriodicSlice(128, 8);
    const std::vector<rt::TokenHash> b = PeriodicSlice(256, 8);
    const std::vector<rt::TokenHash> c = PeriodicSlice(384, 8);
    miner.Mine(a, &path);
    miner.Mine(b, &path);
    // Same shape as `a`: replaces a's slot rather than evicting.
    const std::vector<rt::TokenHash> a2 = PeriodicSlice(128, 4);
    miner.Mine(a2, &path);
    EXPECT_EQ(miner.Probe(std::span<const rt::TokenHash>(b)) != nullptr,
              true);
    EXPECT_NE(miner.Probe(std::span<const rt::TokenHash>(a2)), nullptr);
    EXPECT_EQ(miner.Probe(std::span<const rt::TokenHash>(a)), nullptr);
    // A third shape evicts the oldest slot (FIFO) at capacity 2.
    miner.Mine(c, &path);
    EXPECT_NE(miner.Probe(std::span<const rt::TokenHash>(c)), nullptr);
    EXPECT_EQ(miner.RingPeriods().size(), 2u);
}

TEST(IncrementalMiner, WarmMinedWindowAllocatesOnlyItsRepeats)
{
    // A period-16 stream with a noise token every 211 positions, drawn
    // from three symbols so the alphabet stays bounded, mined on the
    // ruler schedule: window k is the last 64 * 2^ruler(k) tokens
    // (capped at 1024) at position 64 * k. Window lengths jump between
    // 64 and up to 1024, so the miner's scratch sees a short window
    // right after a long one over and over.
    constexpr std::size_t kScale = 64;
    constexpr std::size_t kCap = 1024;
    constexpr std::uint64_t kWindows = 63;
    std::vector<strings::Symbol> stream(kScale * kWindows);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i] = i % 211 == 100 ? 1000 + (i / 211) % 3 : i % 16;
    }
    strings::IncrementalMiner miner(
        strings::RepeatOptions{.min_length = 8, .min_occurrences = 2});
    auto window = [&](std::uint64_t k) {
        const std::size_t n = support::RulerSampleLength(k, kScale, kCap);
        return std::span<const strings::Symbol>(stream).subspan(
            k * kScale - n, n);
    };
    for (std::uint64_t k = 1; k <= kWindows; ++k) {
        miner.Mine(window(k));
    }

    // Second pass over the same schedule. Window 1 repeats window 63
    // (noise-free, and the period divides the stride), so it is served
    // by the fast path; every other window is mined.
    struct Observed {
        std::uint64_t allocations = 0;
        std::size_t repeats = 0;
        strings::MiningTier tier = strings::MiningTier::kFull;
    };
    std::vector<Observed> observed(kWindows);
    for (std::uint64_t k = 1; k <= kWindows; ++k) {
        const std::uint64_t before = support::AllocationCount();
        const std::size_t repeats = miner.Mine(window(k)).size();
        observed[k - 1] = {support::AllocationCount() - before, repeats,
                           miner.LastTier()};
    }
    std::size_t fast_path = 0, mined = 0, repeats = 0;
    for (std::uint64_t k = 1; k <= kWindows; ++k) {
        const Observed& o = observed[k - 1];
        if (o.tier == strings::MiningTier::kFastPath) {
            ++fast_path;
            EXPECT_EQ(o.allocations, 0u) << "fast-path window " << k;
        } else {
            ++mined;
            repeats += o.repeats;
            // Exactly each emitted repeat's `tokens` and `starts`.
            EXPECT_EQ(o.allocations, 2 * o.repeats) << "mined window " << k;
        }
    }
    EXPECT_EQ(fast_path, 1u);
    EXPECT_EQ(mined, kWindows - 1);
    EXPECT_GE(repeats, mined);
}

// ---------------------------------------------------------------------------
// Pipeline bit-identity: incremental mining on vs off.

apps::MachineConfig SmallMachine()
{
    apps::MachineConfig m;
    m.nodes = 2;
    m.gpus_per_node = 2;
    return m;
}

core::ApopheniaConfig SmallConfig(bool incremental)
{
    core::ApopheniaConfig config;
    config.min_trace_length = 10;
    config.batchsize = 1500;
    config.multi_scale_factor = 100;
    config.incremental_mining = incremental;
    return config;
}

template <typename App, typename Options>
std::unique_ptr<rt::Runtime> RunApp(Options options, std::size_t iters,
                                    bool incremental)
{
    auto runtime = std::make_unique<rt::Runtime>();
    core::Apophenia fe(*runtime, SmallConfig(incremental));
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
void ExpectOnOffIdentical(Options options, std::size_t iters)
{
    const auto on = RunApp<App>(options, iters, true);
    const auto off = RunApp<App>(options, iters, false);
    ASSERT_EQ(on->Log().size(), off->Log().size());
    for (std::size_t i = 0; i < on->Log().size(); ++i) {
        ASSERT_EQ(on->Log()[i].token, off->Log()[i].token) << "op " << i;
        ASSERT_EQ(on->Log()[i].mode, off->Log()[i].mode) << "op " << i;
        ASSERT_EQ(on->Log()[i].trace, off->Log()[i].trace) << "op " << i;
        ASSERT_EQ(on->Log()[i].dependences, off->Log()[i].dependences)
            << "op " << i;
    }
    EXPECT_EQ(on->Stats().trace_replays, off->Stats().trace_replays);
    EXPECT_EQ(on->Stats().trace_mismatches, 0u);
}

TEST(IncrementalOnOff, S3dDecisionsAreByteIdentical)
{
    ExpectOnOffIdentical<apps::S3dApplication>(
        apps::S3dOptions{.machine = SmallMachine()}, 60);
}

TEST(IncrementalOnOff, HtrDecisionsAreByteIdentical)
{
    ExpectOnOffIdentical<apps::HtrApplication>(
        apps::HtrOptions{.machine = SmallMachine()}, 50);
}

TEST(IncrementalOnOff, CfdDecisionsAreByteIdentical)
{
    ExpectOnOffIdentical<apps::CfdApplication>(
        apps::CfdOptions{.machine = SmallMachine()}, 120);
}

TEST(IncrementalOnOff, TorchSweDecisionsAreByteIdentical)
{
    apps::TorchSweOptions options{.machine = SmallMachine()};
    options.allocation_pool_budget = 150;
    ExpectOnOffIdentical<apps::TorchSweApplication>(options, 80);
}

TEST(IncrementalOnOff, FlexFlowDecisionsAreByteIdentical)
{
    ExpectOnOffIdentical<apps::FlexFlowApplication>(
        apps::FlexFlowOptions{.machine = SmallMachine()}, 40);
}

sim::ExperimentResult RunReplicated(bool incremental)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = 50;
    options.machine = SmallMachine();
    options.auto_config = SmallConfig(incremental);
    options.replicas = 3;
    options.replication.seed = 7;
    options.log_mode = sim::LogMode::kStreaming;
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    return sim::RunExperiment(app, options);
}

TEST(IncrementalOnOff, ReplicatedStreamDigestsAreUnchanged)
{
    const sim::ExperimentResult on = RunReplicated(true);
    const sim::ExperimentResult off = RunReplicated(false);
    EXPECT_TRUE(on.streams_identical);
    EXPECT_TRUE(off.streams_identical);
    EXPECT_EQ(on.stream_digest, off.stream_digest);
    EXPECT_EQ(on.stream_digest_ops, off.stream_digest_ops);
    EXPECT_EQ(on.total_tasks, off.total_tasks);
    EXPECT_EQ(on.warmup_iterations, off.warmup_iterations);
    EXPECT_DOUBLE_EQ(on.makespan_us, off.makespan_us);
    EXPECT_EQ(on.replayed_fraction, off.replayed_fraction);
    // The engine actually engaged (and is off when disabled).
    EXPECT_GT(on.mining_fast_path_hits + on.mining_repairs +
                  on.mining_full,
              0u);
    EXPECT_EQ(off.mining_fast_path_hits, 0u);
    EXPECT_EQ(off.mining_repairs, 0u);
    EXPECT_EQ(off.mining_full, 0u);
}

TEST(IncrementalOnOff, TierCountersAccountForEveryIngestedJob)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = 60;
    options.machine = SmallMachine();
    options.auto_config = SmallConfig(true);
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const sim::ExperimentResult result = sim::RunExperiment(app, options);

    // Single node, no shared cache: every ingested job was served by
    // exactly one tier.
    EXPECT_EQ(result.mining_fast_path_hits + result.mining_repairs +
                  result.mining_full,
              result.apophenia_stats.jobs_ingested);
    ASSERT_GT(result.apophenia_stats.jobs_ingested, 0u);
}

TEST(IncrementalOnOff, SteadyStreamIsServedByTheFastPath)
{
    // The tentpole scenario: a periodic stream whose period divides
    // the analysis stride, so every batched window after the first is
    // content-identical. All but the first job must ride the rolling
    // fast path — no suffix work, no hashing, no materialization.
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 256;
    config.identifier_algorithm = core::IdentifierAlgorithm::kBatched;
    support::InlineExecutor executor;
    core::TraceFinder finder(config, executor);
    for (std::uint64_t i = 0; i < 256 * 20; ++i) {
        finder.Observe(i % 8, i);
        while (finder.OldestJobDone()) {
            finder.WaitOldestJob();
            finder.ReleaseOldestJob();
        }
    }
    while (finder.PendingJobCount() > 0) {
        finder.WaitOldestJob();
        finder.ReleaseOldestJob();
    }
    const core::FinderStats& stats = finder.Stats();
    ASSERT_EQ(stats.jobs_launched, 20u);
    EXPECT_EQ(stats.mining_fast_path_hits + stats.mining_repairs +
                  stats.mining_full,
              stats.jobs_launched);
    EXPECT_EQ(stats.mining_fast_path_hits, stats.jobs_launched - 1);
    ASSERT_NE(finder.Steady(), nullptr);
    EXPECT_EQ(finder.Steady()->Snapshot().fast_path_hits,
              stats.jobs_launched - 1);
}

}  // namespace
}  // namespace apo
