/**
 * @file
 * Tests of the finder's mining memo and its rank-table miner:
 *
 *  - the zero-allocation contracts (this TU owns the counting
 *    allocator — see support/counting_allocator.h): a warm
 *    private-memo hit, from its launch through its ingestion,
 *    allocates nothing, and a warm mined window allocates only the
 *    repeats it emits;
 *  - the reference miner as the spec: over every bundled
 *    application's token stream, at namespace 0 and a salted one,
 *    with a private memo and a shared one, every ingested job's
 *    candidates equal MineSlice over its window;
 *  - jobs racing on one private memo's in-progress entries on a
 *    TaskTeam's workers (this suite runs in ci.sh's TSan leg);
 *  - the memo counters threaded through AnalysisJob → FinderStats →
 *    ExperimentResult.
 */
#include "support/counting_allocator.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "app_streams.h"
#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/config.h"
#include "core/finder.h"
#include "core/mining_cache.h"
#include "reference_miner.h"
#include "runtime/runtime.h"
#include "sim/harness.h"
#include "strings/incremental.h"
#include "support/executor.h"
#include "support/ruler.h"

namespace apo {
namespace {

TEST(FinderMemo, WarmPrivateMemoHitAllocatesNothing)
{
    // A period-8 stream mined every 256 tokens over the whole 256-token
    // buffer: every window after the first is content-identical, so
    // each is a private-memo hit.
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 256;
    config.identifier_algorithm = core::IdentifierAlgorithm::kBatched;
    support::InlineExecutor executor;
    core::TraceFinder finder(config, executor);
    std::uint64_t now = 0;
    std::vector<std::uint64_t> allocations;
    for (int window = 0; window < 12; ++window) {
        for (int i = 0; i < 255; ++i, ++now) {
            finder.Observe(now % 8, now + 1);
        }
        // The window's last token launches the job, whose closure and
        // body (probe, adopt, complete) run inline; then its
        // ingestion.
        const std::uint64_t before = support::AllocationCount();
        finder.Observe(now % 8, now + 1);
        ++now;
        ASSERT_EQ(finder.PendingJobCount(), 1u);
        finder.WaitOldestJob();
        finder.ReleaseOldestJob();
        allocations.push_back(support::AllocationCount() - before);
    }
    const core::FinderStats& stats = finder.Stats();
    EXPECT_EQ(stats.mining_full, 1u);
    EXPECT_EQ(stats.mining_fast_path_hits, 11u);
    ASSERT_NE(finder.PrivateMemo(), nullptr);
    EXPECT_EQ(finder.PrivateMemo()->Snapshot().hits, 11u);
    // The first window mined; every hit after it allocates nothing.
    EXPECT_GT(allocations[0], 0u);
    for (std::size_t w = 1; w < allocations.size(); ++w) {
        EXPECT_EQ(allocations[w], 0u) << "memo hit " << w << " allocated";
    }
}

TEST(FinderMemo, PrivateMemoStaysWithinItsByteBudget)
{
    // Every window distinct: the memo would grow without bound.
    core::ApopheniaConfig config;
    config.min_trace_length = 4;
    config.batchsize = 128;
    config.multi_scale_factor = 32;
    support::InlineExecutor executor;
    core::TraceFinder finder(config, executor);
    const std::size_t budget = core::TraceFinder::kPrivateMemoWindows *
                               config.batchsize * sizeof(rt::TokenHash);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        finder.Observe((i / 3) % 5 + 10 * (i / 512), i + 1);
        while (finder.OldestJobDone()) {
            finder.WaitOldestJob();
            finder.ReleaseOldestJob();
        }
        ASSERT_LE(finder.PrivateMemo()->ResidentBytes(), budget);
    }
    EXPECT_GT(finder.PrivateMemo()->Snapshot().evictions, 0u);
}

TEST(FinderMemo, TaskTeamJobsRaceOnOnePrivateMemo)
{
    // A period-16 stream sampled every 64 tokens: same-length windows
    // are identical, and with no ingestion until the end many jobs for
    // one window are in flight at once on four workers — the first
    // mines, the rest wait on its in-progress entry.
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 1024;
    config.multi_scale_factor = 64;
    std::vector<rt::TokenHash> stream(64 * 96);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i] = i % 16;
    }
    support::TaskTeam team(5);
    core::TraceFinder finder(config, team);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        finder.Observe(stream[i], i + 1);
    }
    std::vector<rt::TokenHash> window;
    while (finder.PendingJobCount() > 0) {
        const core::AnalysisJob& job = finder.WaitOldestJob();
        window.assign(stream.begin() + (job.issued_at - job.slice_length),
                      stream.begin() + job.issued_at);
        const std::vector<core::CandidateTrace> want =
            core::MineSlice(window, config);
        ASSERT_EQ(job.Results().size(), want.size()) << "job " << job.id;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(job.Results()[i].tokens, want[i].tokens);
            EXPECT_EQ(job.Results()[i].occurrences, want[i].occurrences);
        }
        finder.ReleaseOldestJob();
    }
    const core::FinderStats& stats = finder.Stats();
    EXPECT_EQ(stats.mining_fast_path_hits + stats.mining_full,
              stats.jobs_launched);
    // One mining run per distinct window length, however the jobs
    // raced.
    EXPECT_EQ(finder.PrivateMemo()->Snapshot().windows, stats.mining_full);
    EXPECT_GT(stats.mining_fast_path_hits, stats.mining_full);
}

TEST(IncrementalMiner, WarmMinedWindowAllocatesOnlyItsRepeats)
{
    // A period-16 stream with a noise token every 211 positions, drawn
    // from three symbols so the alphabet stays bounded, mined on the
    // ruler schedule: window k is the last 64 * 2^ruler(k) tokens
    // (capped at 1024) at position 64 * k. Window lengths jump between
    // 64 and up to 1024, so the thread's scratch sees a short window
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
    std::vector<strings::Repeat> repeats;
    for (std::uint64_t k = 1; k <= kWindows; ++k) {
        miner.Mine(window(k), repeats);
    }

    // Second pass over the same schedule: every window is mined.
    std::size_t total = 0;
    for (std::uint64_t k = 1; k <= kWindows; ++k) {
        const std::uint64_t before = support::AllocationCount();
        miner.Mine(window(k), repeats);
        const std::uint64_t allocations =
            support::AllocationCount() - before;
        // Exactly each emitted repeat's `tokens` and `starts`.
        EXPECT_EQ(allocations, 2 * repeats.size()) << "window " << k;
        total += repeats.size();
    }
    EXPECT_GE(total, kWindows);
}

// ---------------------------------------------------------------------------
// The reference miner over every bundled application's token stream.

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

using test::AppStream;

TEST(ReferenceMiner, S3dJobsMatch)
{
    EXPECT_GT(test::ExpectEveryMemoMatchesReferenceMiner(
                  AppStream<apps::S3dApplication>(
                      apps::S3dOptions{.machine = SmallMachine()}, 60),
                  SmallConfig(), "s3d"),
              0u);
}

TEST(ReferenceMiner, HtrJobsMatch)
{
    EXPECT_GT(test::ExpectEveryMemoMatchesReferenceMiner(
                  AppStream<apps::HtrApplication>(
                      apps::HtrOptions{.machine = SmallMachine()}, 50),
                  SmallConfig(), "htr"),
              0u);
}

TEST(ReferenceMiner, CfdJobsMatch)
{
    EXPECT_GT(test::ExpectEveryMemoMatchesReferenceMiner(
                  AppStream<apps::CfdApplication>(
                      apps::CfdOptions{.machine = SmallMachine()}, 120),
                  SmallConfig(), "cfd"),
              0u);
}

TEST(ReferenceMiner, TorchSweJobsMatch)
{
    apps::TorchSweOptions options{.machine = SmallMachine()};
    options.allocation_pool_budget = 150;
    EXPECT_GT(test::ExpectEveryMemoMatchesReferenceMiner(
                  AppStream<apps::TorchSweApplication>(options, 80),
                  SmallConfig(), "torchswe"),
              0u);
}

TEST(ReferenceMiner, FlexFlowJobsMatch)
{
    EXPECT_GT(test::ExpectEveryMemoMatchesReferenceMiner(
                  AppStream<apps::FlexFlowApplication>(
                      apps::FlexFlowOptions{.machine = SmallMachine()}, 40),
                  SmallConfig(), "flexflow"),
              0u);
}

TEST(FinderMemo, CountersAccountForEveryIngestedJob)
{
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = 60;
    options.machine = SmallMachine();
    options.auto_config = SmallConfig();
    apps::S3dApplication app(
        apps::S3dOptions{.machine = options.machine});
    const sim::ExperimentResult result = sim::RunExperiment(app, options);

    // Single node, private memo: every ingested job was a memo hit or
    // mined.
    EXPECT_EQ(result.mining_fast_path_hits + result.mining_full,
              result.apophenia_stats.jobs_ingested);
    EXPECT_EQ(result.mining_cache_hits, 0u);
    ASSERT_GT(result.apophenia_stats.jobs_ingested, 0u);
}

}  // namespace
}  // namespace apo
