/**
 * @file
 * Concurrency stress tests for WorkerPool and PooledExecutor,
 * TSan-friendly by construction: every assertion is on state that is
 * synchronized through the executors' own primitives (configure with
 * -DAPO_TSAN=ON to run the suite under ThreadSanitizer). Covers
 * concurrent Submit/Drain, shutdown with jobs still in flight, and
 * the PooledExecutor's submission-order completion delivery under
 * adversarial completion timing.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/executor.h"

namespace apo::support {
namespace {

TEST(WorkerPoolStress, ConcurrentSubmittersAndDrainers)
{
    WorkerPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> submitters;
    constexpr int kThreads = 4;
    constexpr int kJobsPerThread = 500;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&pool, &sum] {
            for (int i = 0; i < kJobsPerThread; ++i) {
                pool.Submit([&sum] { sum.fetch_add(1); });
                if (i % 64 == 0) {
                    pool.Drain();  // drain concurrently with submitters
                }
            }
        });
    }
    for (auto& t : submitters) {
        t.join();
    }
    pool.Drain();
    EXPECT_EQ(sum.load(), kThreads * kJobsPerThread);
}

TEST(WorkerPoolStress, ShutdownWithJobsInFlightRunsEverything)
{
    std::atomic<int> ran{0};
    constexpr int kJobs = 64;
    {
        WorkerPool pool(2);
        for (int i = 0; i < kJobs; ++i) {
            pool.Submit([&ran] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                ran.fetch_add(1);
            });
        }
        // Destructor runs with most jobs still queued or in flight.
    }
    EXPECT_EQ(ran.load(), kJobs);
}

TEST(PooledExecutorStress, CompletionsDeliverInSubmissionOrder)
{
    PooledExecutor exec(4);
    // Jobs finish in scrambled order (tail jobs sleep least), but the
    // callbacks must still be observed front to back.
    constexpr int kJobs = 200;
    std::vector<int> delivered;
    for (int i = 0; i < kJobs; ++i) {
        exec.Submit(
            [i] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds((kJobs - i) % 7));
            },
            [i, &delivered] { delivered.push_back(i); });
        if (i % 10 == 0) {
            exec.Pump();  // interleave partial deliveries
        }
    }
    exec.Drain();
    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(delivered[i], i);
    }
}

TEST(PooledExecutorStress, DrainIsACompletionBarrier)
{
    PooledExecutor exec(3);
    for (int round = 0; round < 50; ++round) {
        int completions = 0;
        for (int i = 0; i < 8; ++i) {
            exec.Submit([] {}, [&completions] { ++completions; });
        }
        exec.Drain();
        // After Drain, every submitted callback has run on this
        // thread: `completions` needs no synchronization.
        EXPECT_EQ(completions, 8);
    }
}

TEST(PooledExecutorStress, DestructorDeliversOutstandingCompletions)
{
    std::atomic<int> jobs_ran{0};
    int completions = 0;  // callbacks run on this thread only
    {
        PooledExecutor exec(2);
        for (int i = 0; i < 32; ++i) {
            exec.Submit(
                [&jobs_ran] {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                    jobs_ran.fetch_add(1);
                },
                [&completions] { ++completions; });
        }
        // Destructor drains with work still in flight.
    }
    EXPECT_EQ(jobs_ran.load(), 32);
    EXPECT_EQ(completions, 32);
}

}  // namespace
}  // namespace apo::support
