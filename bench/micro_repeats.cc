/**
 * @file
 * Section 4.2 microbenchmarks: the repeat-mining algorithm's
 * O(n log n) scaling, the suffix-array constructions, the quadratic
 * baseline for contrast — and the finder's application-thread launch
 * path, where the zero-copy history snapshots earn their keep.
 *
 * The paper requires the finder to scale to buffers of several
 * thousand tokens (real traces exceed 2000 tasks) *and* to never
 * stall the application (section 4.3). The launch-path measurement
 * drives TraceFinder::Observe on a mining-heavy configuration with
 * the per-job work discarded, isolating what the application thread
 * pays per token: with zero-copy snapshots that is O(slice/block)
 * reference bumps per job. The result is recorded to
 * BENCH_micro_repeats.json so successive PRs keep a perf trajectory.
 *
 * Usage:
 *   micro_repeats                      # launch-path record + JSON
 *   micro_repeats --benchmark_filter=. # also run the google benches
 *   micro_repeats --json=PATH          # JSON output path
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "api/launch.h"
#include "bench_util.h"
#include "core/finder.h"
#include "runtime/oplog.h"
#include "sim/cluster.h"
#include "strings/identifiers.h"
#include "strings/repeats.h"
#include "strings/suffix_array.h"
#include "support/executor.h"
#include "support/rng.h"

#include "support/counting_allocator.h"

namespace {

using namespace apo;

/** A periodic token stream with occasional noise — the task-history
 * shape the finder actually sees. */
strings::Sequence AppLikeStream(std::size_t n)
{
    strings::Sequence s;
    s.reserve(n);
    std::uint64_t noise = 1u << 20;
    for (std::size_t i = 0; s.size() < n; ++i) {
        if (i % 97 == 96) {
            s.push_back(noise++);
        }
        s.push_back(i % 64);
    }
    s.resize(n);
    return s;
}

void BM_FindRepeats(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strings::FindRepeats(s, {.min_length = 25}));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindRepeats)->RangeMultiplier(2)->Range(512, 16384)->Complexity(
    benchmark::oNLogN);

void BM_SuffixArraySais(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strings::BuildSuffixArray(s, strings::SuffixAlgorithm::kSais));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SuffixArraySais)->RangeMultiplier(4)->Range(512, 32768);

void BM_SuffixArrayDoubling(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(strings::BuildSuffixArray(
            s, strings::SuffixAlgorithm::kPrefixDoubling));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SuffixArrayDoubling)->RangeMultiplier(4)->Range(512, 32768);

void BM_QuadraticBaseline(benchmark::State& state)
{
    const auto s = AppLikeStream(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strings::FindRepeatsQuadratic(s, 25));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_QuadraticBaseline)->RangeMultiplier(2)->Range(512, 4096);

// ---------------------------------------------------------------------------
// Finder launch-path throughput (the zero-copy claim).

/** Drops every job: the measurement sees only the application-thread
 * half of a launch (history append, snapshot or slice copy). */
class DiscardExecutor final : public support::Executor {
  public:
    using Executor::Submit;
    void Submit(std::function<void()>) override {}
    void Drain() override {}
};

/** The mining-heavy configuration: a job every 32 tokens against a
 * 4096-token window. */
core::ApopheniaConfig MiningHeavyConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = 4096;
    config.multi_scale_factor = 32;
    return config;
}

struct LaunchPathResult {
    double tokens_per_sec = 0.0;
    std::uint64_t jobs_launched = 0;
    std::uint64_t tokens_analyzed = 0;
};

LaunchPathResult MeasureLaunchPath(std::size_t tokens, int reps)
{
    const strings::Sequence stream = AppLikeStream(tokens);
    LaunchPathResult best;
    for (int rep = 0; rep < reps; ++rep) {
        const core::ApopheniaConfig config = MiningHeavyConfig();
        DiscardExecutor executor;
        core::TraceFinder finder(config, executor);
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t now = 0;
        for (const auto token : stream) {
            finder.Observe(token, ++now);
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > best.tokens_per_sec) {
            best.tokens_per_sec = rate;
            best.jobs_launched = finder.Stats().jobs_launched;
            best.tokens_analyzed = finder.Stats().tokens_analyzed;
        }
    }
    return best;
}

// ---------------------------------------------------------------------------
// Frontend issue-path throughput (the launch-view claim).
//
// Isolates what the application thread pays per launch at the API
// boundary, with the consumer discarded (the DiscardExecutor pattern
// above): the builder path reuses a caller-owned arena and carries
// the once-computed token on a view, allocating nothing.

/** Consumes views without copying: the post-redesign contract. */
class DiscardFrontend final : public apo::api::Frontend {
  public:
    std::string_view Name() const override { return "discard"; }
    apo::rt::RegionId CreateRegion() override
    {
        return apo::rt::RegionId{++regions_};
    }
    void DestroyRegion(apo::rt::RegionId) override {}
    std::vector<apo::rt::RegionId> PartitionRegion(apo::rt::RegionId,
                                                   std::size_t) override
    {
        return {};
    }
    apo::rt::TokenHash Checksum() const { return checksum_; }

  protected:
    void DoExecuteTask(const apo::rt::TaskLaunchView& launch) override
    {
        checksum_ ^= launch.token;
    }
    bool DoBeginTrace(apo::rt::TraceId) override { return false; }
    bool DoEndTrace(apo::rt::TraceId) override { return false; }
    void DoFlush() override {}

  private:
    std::uint64_t regions_ = 0;
    apo::rt::TokenHash checksum_ = 0;
};

struct IssuePathResult {
    double launches_per_sec = 0.0;
    double allocs_per_launch = 0.0;
};

/** The measured stream: 8 task ids cycling over 3-requirement
 * stencil-shaped launches — the shape of the app skeletons' loops. */
template <typename IssueFn>
IssuePathResult MeasureIssuePath(std::size_t launches, int reps,
                                 IssueFn&& issue_one)
{
    IssuePathResult best;
    for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t allocs_before =
            apo::support::AllocationCount();
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < launches; ++i) {
            issue_one(i);
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const std::uint64_t allocs =
            apo::support::AllocationCount() - allocs_before;
        const double rate =
            static_cast<double>(launches) / elapsed.count();
        if (rate > best.launches_per_sec) {
            best.launches_per_sec = rate;
            best.allocs_per_launch = static_cast<double>(allocs) /
                                     static_cast<double>(launches);
        }
    }
    return best;
}

IssuePathResult RunIssuePathRecord()
{
    constexpr std::size_t kLaunches = 1u << 20;
    constexpr int kReps = 5;
    constexpr std::uint32_t kShards = 4;

    apo::rt::RegionRequirement reqs[3];
    auto requirement_of = [&](std::size_t i, std::uint32_t g) {
        reqs[0] = {apo::rt::RegionId{1 + (i % 5)},
                   g, apo::rt::Privilege::kReadOnly, 0};
        reqs[1] = {apo::rt::RegionId{1 + ((i + 1) % 5)},
                   g, apo::rt::Privilege::kReadOnly, 0};
        reqs[2] = {apo::rt::RegionId{1 + ((i + 2) % 5)},
                   g, apo::rt::Privilege::kWriteDiscard, 0};
    };

    DiscardFrontend frontend;
    apo::api::LaunchBuilder builder;
    const IssuePathResult result = MeasureIssuePath(
        kLaunches, kReps, [&](std::size_t i) {
            const std::uint32_t g = static_cast<std::uint32_t>(i % kShards);
            requirement_of(i, g);
            builder.Start(static_cast<apo::rt::TaskId>(100 + i % 8), g,
                          50.0);
            for (const auto& req : reqs) {
                builder.Add(req);
            }
            builder.LaunchOn(frontend);
        });
    benchmark::DoNotOptimize(frontend.Checksum());

    std::printf("\n# frontend issue path (3-requirement launches, "
                "discard consumer, %zu launches)\n",
                kLaunches);
    std::printf("%-22s %14.0f launches/sec  (%.2f allocs/launch)\n",
                "launch-view builder", result.launches_per_sec,
                result.allocs_per_launch);
    return result;
}

// ---------------------------------------------------------------------------
// Runtime-log append throughput (the columnar-arena claim).
//
// Isolates what the runtime pays to *record* an already-analyzed
// launch: rt::OperationLog in streaming-retire mode with a null
// consumer. Blocks recycle, so the steady state allocates nothing and
// resident memory stays constant.

IssuePathResult RunLogAppendRecord()
{
    constexpr std::size_t kLaunches = 1u << 20;
    constexpr int kReps = 5;

    // A steady 3-requirement, 2-edge launch: the app skeletons' shape.
    apo::rt::TaskLaunch launch;
    launch.task = 42;
    launch.execution_us = 50.0;
    launch.requirements = {
        {apo::rt::RegionId{1}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{2}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{3}, 0, apo::rt::Privilege::kWriteDiscard, 0}};
    const apo::rt::TaskLaunchView view =
        apo::rt::TaskLaunchView::Of(launch);
    const apo::rt::Dependence edges[2] = {
        {5, 7, apo::rt::DependenceKind::kTrue},
        {6, 7, apo::rt::DependenceKind::kAnti}};

    apo::rt::OperationLog log;
    log.EnableStreaming([](const apo::rt::OpView&) {});
    const IssuePathResult result =
        MeasureIssuePath(kLaunches, kReps, [&](std::size_t) {
            log.Append(view, apo::rt::AnalysisMode::kAnalyzed, 0, 1.0,
                       false, edges);
            log.SetRetireBound(log.size());
        });
    benchmark::DoNotOptimize(log.RetiredCount());

    std::printf("\n# runtime-log append (3-requirement, 2-edge ops, "
                "%zu appends)\n",
                kLaunches);
    std::printf("%-22s %14.0f appends/sec   (%.2f allocs/launch)\n",
                "columnar arena log", result.launches_per_sec,
                result.allocs_per_launch);
    return result;
}

// ---------------------------------------------------------------------------
// Stream-digest consume throughput (the incremental-agreement claim).
//
// The control-replication safety check used to be an all-pairs walk
// over retained logs; sim::StreamDigest replaces it with a rolling
// hash fed per issued call from the streaming-retire consumer. For
// that to ride the issue path of every node it must be O(1) amortized
// and allocation-free per operation — measured here over a log of the
// app skeletons' 3-requirement, 2-edge shape.

struct DigestRecord {
    IssuePathResult digest;  ///< consumes/sec, allocs/consume
    std::uint64_t checksum = 0;
};

DigestRecord RunDigestRecord()
{
    constexpr std::size_t kOps = 4096;
    constexpr std::size_t kConsumes = 1u << 20;
    constexpr int kReps = 5;

    apo::rt::OperationLog log;
    apo::rt::TaskLaunch launch;
    launch.execution_us = 50.0;
    launch.requirements = {
        {apo::rt::RegionId{1}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{2}, 0, apo::rt::Privilege::kReadOnly, 0},
        {apo::rt::RegionId{3}, 0, apo::rt::Privilege::kWriteDiscard, 0}};
    for (std::size_t i = 0; i < kOps; ++i) {
        launch.task = static_cast<apo::rt::TaskId>(100 + i % 8);
        const apo::rt::Dependence edges[2] = {
            {i, i + 2, apo::rt::DependenceKind::kTrue},
            {i + 1, i + 2, apo::rt::DependenceKind::kAnti}};
        log.Append(apo::rt::TaskLaunchView::Of(launch),
                   apo::rt::AnalysisMode::kAnalyzed, 0, 1.0, false,
                   edges);
    }

    DigestRecord record;
    apo::sim::StreamDigest digest;
    record.digest = MeasureIssuePath(
        kConsumes, kReps,
        [&](std::size_t i) { digest.Consume(log[i % kOps]); });
    record.checksum = digest.Value();
    benchmark::DoNotOptimize(record.checksum);

    std::printf("\n# stream digest (3-requirement, 2-edge ops, %zu "
                "consumes)\n",
                kConsumes);
    std::printf("%-22s %14.0f consumes/sec  (%.2f allocs/consume)\n",
                "incremental digest", record.digest.launches_per_sec,
                record.digest.allocs_per_launch);
    return record;
}

// ---------------------------------------------------------------------------
// Steady-state mining throughput (the mining-memo claim).
//
// Steady-state iteration loops hand the finder window after window of
// byte-identical content whenever the stream's period divides the
// analysis stride. The finder's private memo must serve those windows
// — one content hash plus one verify compare, no suffix-array work, no
// allocation — and its candidate sets must be byte-identical to
// MineSlice's. The memo run goes end to end through TraceFinder with
// an inline executor, so its tokens/sec include everything the finder
// pays per window: history append, job launch, probe or mining,
// ingestion. The baseline calls MineSlice on each of the same windows
// outside any finder.

constexpr std::size_t kSteadyWindow = 4096;

/** The period-64 stream (64 divides the 4096-token batched stride, so
 * every window is identical). */
std::vector<rt::TokenHash> SteadyStream(std::size_t tokens)
{
    std::vector<rt::TokenHash> stream(tokens);
    for (std::size_t i = 0; i < tokens; ++i) {
        stream[i] = i % 64;
    }
    return stream;
}

core::ApopheniaConfig SteadyConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 8;
    config.batchsize = kSteadyWindow;
    config.multi_scale_factor = 64;
    config.identifier_algorithm = core::IdentifierAlgorithm::kBatched;
    return config;
}

struct SteadyMiningRun {
    double tokens_per_sec = 0.0;
    double memo_hit_rate = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t digest = 0;  ///< fold of every window's candidate set
};

/** FNV-style fold of one window's candidate set into `digest`. */
void MixCandidates(const std::vector<core::CandidateTrace>& candidates,
                   std::uint64_t& digest)
{
    const auto mix = [&digest](std::uint64_t v) {
        digest = (digest ^ v) * 1099511628211ull;
    };
    for (const core::CandidateTrace& trace : candidates) {
        mix(trace.tokens.size());
        for (const auto token : trace.tokens) {
            mix(token);
        }
        mix(static_cast<std::uint64_t>(trace.occurrences * 1024.0));
    }
}

constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

/** One full finder run (private memo) over the steady stream. */
SteadyMiningRun MeasureMemoMining(std::size_t tokens, int reps)
{
    const std::vector<rt::TokenHash> stream = SteadyStream(tokens);
    SteadyMiningRun best;
    for (int rep = 0; rep < reps; ++rep) {
        const core::ApopheniaConfig config = SteadyConfig();
        support::InlineExecutor executor;
        core::TraceFinder finder(config, executor);
        std::uint64_t digest = kDigestSeed;
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t now = 0;
        for (const auto token : stream) {
            finder.Observe(token, ++now);
        }
        while (finder.PendingJobCount() > 0) {
            MixCandidates(finder.WaitOldestJob().Results(), digest);
            finder.ReleaseOldestJob();
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        const core::FinderStats& stats = finder.Stats();
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > best.tokens_per_sec) {
            best.tokens_per_sec = rate;
            best.windows = stats.jobs_launched;
            best.memo_hit_rate =
                stats.jobs_launched > 0
                    ? static_cast<double>(stats.mining_fast_path_hits) /
                          static_cast<double>(stats.jobs_launched)
                    : 0.0;
            best.digest = digest;
        }
    }
    return best;
}

/** MineSlice over the same windows, outside any finder. */
SteadyMiningRun MeasureMineSlice(std::size_t tokens, int reps)
{
    const std::vector<rt::TokenHash> stream = SteadyStream(tokens);
    const core::ApopheniaConfig config = SteadyConfig();
    SteadyMiningRun best;
    std::vector<rt::TokenHash> window;
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t digest = kDigestSeed;
        std::uint64_t windows = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t end = kSteadyWindow; end <= tokens;
             end += kSteadyWindow) {
            window.assign(stream.begin() + (end - kSteadyWindow),
                          stream.begin() + end);
            MixCandidates(core::MineSlice(window, config), digest);
            ++windows;
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const double rate = static_cast<double>(tokens) / elapsed.count();
        if (rate > best.tokens_per_sec) {
            best.tokens_per_sec = rate;
            best.windows = windows;
            best.digest = digest;
        }
    }
    return best;
}

/** Holds submitted jobs until drained, so the finder runs each job
 * body when it is ingested and the body's allocations can be counted
 * apart from its launch. The held closures run, as no-ops, at the
 * finder's teardown drain. */
class DeferredExecutor final : public support::Executor {
  public:
    using Executor::Submit;
    void Submit(std::function<void()> job) override
    {
        queue_.push_back(std::move(job));
    }
    void Drain() override
    {
        for (std::function<void()>& job : queue_) {
            job();
        }
        queue_.clear();
    }

  private:
    std::vector<std::function<void()>> queue_;
};

/** Allocations per warm private-memo hit (the job body and its
 * ingestion): the contract is zero. */
double MeasureMemoHitAllocs()
{
    constexpr std::uint64_t kWarm = 2;
    constexpr std::uint64_t kWindows = 64;
    const core::ApopheniaConfig config = SteadyConfig();
    DeferredExecutor executor;
    core::TraceFinder finder(config, executor);
    std::uint64_t now = 0;
    std::uint64_t allocs = 0;
    for (std::uint64_t w = 0; w < kWarm + kWindows; ++w) {
        for (std::size_t i = 0; i < kSteadyWindow; ++i, ++now) {
            finder.Observe(now % 64, now + 1);
        }
        const std::uint64_t before = apo::support::AllocationCount();
        finder.WaitOldestJob();
        finder.ReleaseOldestJob();
        if (w >= kWarm) {
            allocs += apo::support::AllocationCount() - before;
        }
    }
    if (finder.Stats().mining_fast_path_hits != kWarm + kWindows - 1) {
        std::fprintf(stderr,
                     "steady_state_mining: a warm window missed the memo\n");
        return -1.0;
    }
    return static_cast<double>(allocs) / static_cast<double>(kWindows);
}

struct SteadyMiningRecord {
    SteadyMiningRun memo;
    SteadyMiningRun mine_slice;
    double speedup = 0.0;
    double allocs_per_window = 0.0;
    bool identical = false;
};

SteadyMiningRecord RunSteadyMiningRecord()
{
    constexpr std::size_t kTokens = 1u << 19;
    constexpr int kReps = 5;

    SteadyMiningRecord record;
    record.memo = MeasureMemoMining(kTokens, kReps);
    record.mine_slice = MeasureMineSlice(kTokens, kReps);
    record.speedup = record.mine_slice.tokens_per_sec > 0.0
                         ? record.memo.tokens_per_sec /
                               record.mine_slice.tokens_per_sec
                         : 0.0;
    record.allocs_per_window = MeasureMemoHitAllocs();
    record.identical = record.memo.digest == record.mine_slice.digest &&
                       record.memo.windows == record.mine_slice.windows;

    std::printf("\n# steady-state mining (period-64 stream, batched "
                "4096-token windows, %zu tokens)\n",
                kTokens);
    std::printf("%-22s %14.0f tokens/sec    (memo hit rate %.3f)\n",
                "finder, private memo", record.memo.tokens_per_sec,
                record.memo.memo_hit_rate);
    std::printf("%-22s %14.0f tokens/sec\n", "MineSlice per window",
                record.mine_slice.tokens_per_sec);
    std::printf("%-22s %14.2fx\n", "speedup", record.speedup);
    std::printf("%-22s %14.3f allocs/window (warm hit)\n", "memo hit",
                record.allocs_per_window);
    if (!record.identical) {
        std::fprintf(stderr,
                     "steady_state_mining: candidate sets DIFFER between "
                     "the memo and MineSlice "
                     "(windows %llu vs %llu, digest %llx vs %llx)\n",
                     static_cast<unsigned long long>(record.memo.windows),
                     static_cast<unsigned long long>(
                         record.mine_slice.windows),
                     static_cast<unsigned long long>(record.memo.digest),
                     static_cast<unsigned long long>(
                         record.mine_slice.digest));
    }
    return record;
}

/** std::printf into a std::string. */
[[gnu::format(printf, 1, 2)]] std::string Printf(const char* format, ...)
{
    std::va_list args;
    va_start(args, format);
    std::va_list sizing;
    va_copy(sizing, args);
    std::string text(
        static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, sizing)),
        '\0');
    va_end(sizing);
    std::vsnprintf(text.data(), text.size() + 1, format, args);
    va_end(args);
    return text;
}

int RunLaunchPathRecord(const std::string& json_path)
{
    constexpr std::size_t kTokens = 1u << 19;
    constexpr int kReps = 5;
    const LaunchPathResult snapshot = MeasureLaunchPath(kTokens, kReps);

    std::printf("# finder launch path (mining-heavy: batchsize 4096, "
                "scale 32, %zu tokens)\n",
                kTokens);
    std::printf("%-22s %14.0f tokens/sec\n", "zero-copy snapshots",
                snapshot.tokens_per_sec);
    std::printf("%-22s %14llu jobs, %llu tokens analyzed\n", "workload",
                static_cast<unsigned long long>(snapshot.jobs_launched),
                static_cast<unsigned long long>(snapshot.tokens_analyzed));

    const IssuePathResult issue = RunIssuePathRecord();
    const IssuePathResult oplog = RunLogAppendRecord();
    const DigestRecord stream_digest = RunDigestRecord();
    const SteadyMiningRecord steady = RunSteadyMiningRecord();

    const std::string fresh = Printf(
        "{\n"
        "  \"bench\": \"micro_repeats/finder_launch_path\",\n"
        "  \"config\": {\"batchsize\": 4096, \"multi_scale_factor\": 32,"
        " \"min_trace_length\": 8, \"tokens\": %zu},\n"
        "  %s,\n"
        "  \"snapshot_tokens_per_sec\": %.0f,\n"
        "  \"jobs_launched\": %llu,\n"
        "  \"tokens_analyzed\": %llu,\n"
        "  \"issue_path\": {\n"
        "    \"builder_launches_per_sec\": %.0f,\n"
        "    \"builder_allocs_per_launch\": %.3f\n"
        "  },\n"
        "  \"oplog_append\": {\n"
        "    \"arena_appends_per_sec\": %.0f,\n"
        "    \"arena_allocs_per_launch\": %.3f\n"
        "  },\n"
        "  \"stream_digest\": {\n"
        "    \"consumes_per_sec\": %.0f,\n"
        "    \"allocs_per_consume\": %.3f\n"
        "  },\n"
        "  \"steady_state_mining\": {\n"
        "    %s,\n"
        "    \"memo_tokens_per_sec\": %.0f,\n"
        "    \"mine_slice_tokens_per_sec\": %.0f,\n"
        "    \"memo_hit_rate\": %.3f,\n"
        "    \"allocs_per_window\": %.3f,\n"
        "    \"windows\": %llu,\n"
        "    \"candidate_sets_identical\": %s\n"
        "  }\n"
        "}\n",
        kTokens, apo::bench::ConcurrencyJson().c_str(),
        snapshot.tokens_per_sec,
        static_cast<unsigned long long>(snapshot.jobs_launched),
        static_cast<unsigned long long>(snapshot.tokens_analyzed),
        issue.launches_per_sec, issue.allocs_per_launch,
        oplog.launches_per_sec, oplog.allocs_per_launch,
        stream_digest.digest.launches_per_sec,
        stream_digest.digest.allocs_per_launch,
        apo::bench::ConcurrencyJson().c_str(), steady.memo.tokens_per_sec,
        steady.mine_slice.tokens_per_sec, steady.memo.memo_hit_rate,
        steady.allocs_per_window,
        static_cast<unsigned long long>(steady.memo.windows),
        steady.identical ? "true" : "false");
    // This bench rewrites its own records wholesale and carries every
    // other bench's records across.
    const std::string record = apo::bench::KeepOtherJsonMembers(
        apo::bench::ReadFileOrEmpty(json_path), fresh);
    if (apo::bench::WriteFileOrComplain(json_path, record) != 0) {
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
    // The equality assert: the record is only acceptable when the
    // memo's candidate sets match MineSlice bit for bit and a warm
    // memo hit allocates nothing.
    if (!steady.identical || steady.allocs_per_window != 0.0) {
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_micro_repeats.json";
    bool run_google_benches = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
            for (int j = i; j + 1 < argc; ++j) {
                argv[j] = argv[j + 1];
            }
            --argc;
            argv[argc] = nullptr;
            --i;
        } else if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
            run_google_benches = true;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (run_google_benches) {
        benchmark::RunSpecifiedBenchmarks();
    }
    return RunLaunchPathRecord(json_path);
}
