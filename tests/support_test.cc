/**
 * @file
 * Unit tests for the support library: hashing, interval sets, the
 * ruler-function sampling schedule, and the background worker pool.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "support/executor.h"
#include "support/hash.h"
#include "support/intervals.h"
#include "support/rng.h"
#include "support/ruler.h"

namespace apo::support {
namespace {

TEST(Hash, SplitMixIsDeterministicAndDispersive)
{
    EXPECT_EQ(SplitMix64(42), SplitMix64(42));
    std::set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        outputs.insert(SplitMix64(i));
    }
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Hash, CombineIsOrderSensitive)
{
    const auto ab = HashCombine(HashCombine(0, 1), 2);
    const auto ba = HashCombine(HashCombine(0, 2), 1);
    EXPECT_NE(ab, ba);
}

TEST(Hash, FnvDistinguishesStrings)
{
    EXPECT_NE(Fnv1a("DOT"), Fnv1a("SUB"));
    EXPECT_EQ(Fnv1a("DOT"), Fnv1a("DOT"));
    EXPECT_NE(Fnv1a(""), Fnv1a("a"));
}

TEST(Intervals, OverlapPredicate)
{
    EXPECT_TRUE(Overlaps({0, 5}, {4, 6}));
    EXPECT_TRUE(Overlaps({4, 6}, {0, 5}));
    EXPECT_FALSE(Overlaps({0, 5}, {5, 6}));  // half-open: touching is ok
    EXPECT_FALSE(Overlaps({0, 0}, {0, 1}));  // empty never overlaps
}

TEST(Intervals, InsertIfDisjointRejectsOverlaps)
{
    IntervalSet set;
    EXPECT_TRUE(set.InsertIfDisjoint(10, 20));
    EXPECT_TRUE(set.InsertIfDisjoint(0, 10));
    EXPECT_TRUE(set.InsertIfDisjoint(20, 25));
    EXPECT_FALSE(set.InsertIfDisjoint(19, 21));
    EXPECT_FALSE(set.InsertIfDisjoint(5, 6));
    EXPECT_FALSE(set.InsertIfDisjoint(0, 30));
    EXPECT_EQ(set.Size(), 3u);
    EXPECT_EQ(set.CoveredPositions(), 25u);
}

TEST(Intervals, EmptyIntervalNeverInserts)
{
    IntervalSet set;
    EXPECT_FALSE(set.InsertIfDisjoint(5, 5));
    EXPECT_TRUE(set.Empty());
}

TEST(Intervals, MatchesBruteForceOnRandomInput)
{
    Rng rng(7);
    IntervalSet set;
    std::vector<Interval> accepted;
    for (int step = 0; step < 2000; ++step) {
        const std::size_t b = rng.UniformInt(0, 500);
        const std::size_t e = b + rng.UniformInt(0, 20);
        bool brute_ok = e > b;
        for (const Interval& i : accepted) {
            if (Overlaps(i, {b, e})) {
                brute_ok = false;
                break;
            }
        }
        EXPECT_EQ(set.InsertIfDisjoint(b, e), brute_ok);
        if (brute_ok) {
            accepted.push_back({b, e});
        }
    }
    std::size_t covered = 0;
    for (const Interval& i : accepted) {
        covered += i.Length();
    }
    EXPECT_EQ(set.CoveredPositions(), covered);
    EXPECT_EQ(set.Size(), accepted.size());
}

TEST(Ruler, MatchesDefinition)
{
    // ruler(1..8) = 0 1 0 2 0 1 0 3
    const unsigned expected[] = {0, 1, 0, 2, 0, 1, 0, 3};
    for (std::uint64_t k = 1; k <= 8; ++k) {
        EXPECT_EQ(Ruler(k), expected[k - 1]) << "k=" << k;
    }
    EXPECT_EQ(Ruler(0), 0u);
    EXPECT_EQ(Ruler(1024), 10u);
}

TEST(Ruler, SampleLengthsMatchFigure5)
{
    // Buffer of size 8, scale 1: slices of length 1 2 1 4 1 2 1 8.
    const std::size_t expected[] = {1, 2, 1, 4, 1, 2, 1, 8};
    for (std::uint64_t k = 1; k <= 8; ++k) {
        EXPECT_EQ(RulerSampleLength(k, 1, 8), expected[k - 1]) << "k=" << k;
    }
}

TEST(Ruler, SampleLengthIsCapped)
{
    EXPECT_EQ(RulerSampleLength(1 << 20, 250, 5000), 5000u);
    EXPECT_EQ(RulerSampleLength(2, 250, 5000), 500u);
    EXPECT_EQ(RulerSampleLength(3, 250, 5000), 250u);
}

TEST(Ruler, TotalSampledWorkIsNLogN)
{
    // Over one full buffer of n = scale * 2^k sampling points, the
    // total sampled length is n * (log2(n/scale)/2 + 1): each level of
    // the ruler contributes ~n/2 positions. Verify the bound.
    const std::size_t scale = 1, cap = 1024;
    std::size_t total = 0;
    for (std::uint64_t k = 1; k <= cap; ++k) {
        total += RulerSampleLength(k, scale, cap);
    }
    // Exact: sum = n/2 * 1 + n/4 * 2 + ... = n * (log2(n)/2 + 1).
    EXPECT_EQ(total, cap * (10 / 2 + 1));
}

TEST(Executor, InlineExecutorRunsSynchronously)
{
    InlineExecutor exec;
    int value = 0;
    exec.Submit([&] { value = 42; });
    EXPECT_EQ(value, 42);
}

TEST(Executor, InlineExecutorRunsCompletionAfterJob)
{
    InlineExecutor exec;
    std::vector<int> order;
    exec.Submit([&] { order.push_back(1); }, [&] { order.push_back(2); });
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Executor, WorkerPoolRunsCompletionCallbacks)
{
    WorkerPool pool(2);
    std::atomic<int> jobs{0};
    std::atomic<int> completions{0};
    for (int i = 0; i < 50; ++i) {
        pool.Submit([&] { jobs.fetch_add(1); },
                    [&] { completions.fetch_add(1); });
    }
    pool.Drain();
    EXPECT_EQ(jobs.load(), 50);
    EXPECT_EQ(completions.load(), 50);
}

TEST(Executor, WorkerPoolRunsAllJobs)
{
    WorkerPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.Submit([&] { count.fetch_add(1); });
    }
    pool.Drain();
    EXPECT_EQ(count.load(), 100);
}

TEST(Executor, DrainWaitsForInFlightJobs)
{
    WorkerPool pool(2);
    std::atomic<bool> done{false};
    pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        done = true;
    });
    pool.Drain();
    EXPECT_TRUE(done.load());
}

TEST(Rng, IsDeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    const auto x = a.UniformInt(0, 1'000'000);
    EXPECT_EQ(x, b.UniformInt(0, 1'000'000));
    // Overwhelmingly likely to differ.
    EXPECT_NE(x, c.UniformInt(0, 1'000'000));
}

}  // namespace
}  // namespace apo::support
