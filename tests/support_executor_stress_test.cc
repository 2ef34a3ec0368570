/**
 * @file
 * Concurrency stress tests for TaskTeam, TSan-friendly by
 * construction: every assertion is on state that is synchronized
 * through the team's own primitives or atomics (configure with
 * -DAPO_TSAN=ON to run the suite under ThreadSanitizer). Covers the
 * team's background jobs: drained in full, all run by a team
 * destroyed with jobs still in flight, never holding up a Run()
 * barrier, never letting a late worker into a closed epoch, inline on
 * a caller-only team, and rethrown on the owner's thread.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/executor.h"

namespace apo::support {
namespace {

// ---------------------------------------------------------------------------
// TaskTeam background jobs.

/** Spin (yielding) until `flag` is set or about five seconds pass;
 * returns whether it was set. A broken team then fails an assertion
 * instead of hanging the suite. */
bool AwaitFlag(const std::atomic<bool>& flag)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!flag.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

TEST(TaskTeamJobs, QueuedJobsAllFinishByDrain)
{
    TaskTeam team(4);
    team.SetBody([](std::size_t) {});
    std::atomic<int> ran{0};
    constexpr int kJobs = 400;
    for (int i = 0; i < kJobs; ++i) {
        team.Submit([&ran, i] {
            if (i % 16 == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            ran.fetch_add(1);
        });
        if (i % 50 == 0) {
            team.Run(8);  // epochs interleave with the queue
        }
        if (i % 97 == 0) {
            team.Drain();  // the owner helps now and then
        }
    }
    team.Drain();
    EXPECT_EQ(ran.load(), kJobs);
    team.Drain();  // idempotent on an empty queue
    EXPECT_EQ(ran.load(), kJobs);
}

TEST(TaskTeamJobs, ShutdownWithJobsInFlightRunsEverything)
{
    std::atomic<int> ran{0};
    constexpr int kJobs = 64;
    {
        TaskTeam team(3);  // two workers
        for (int i = 0; i < kJobs; ++i) {
            team.Submit([&ran] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                ran.fetch_add(1);
            });
        }
        // Destructor runs with most jobs still queued or in flight.
    }
    EXPECT_EQ(ran.load(), kJobs);
}

TEST(TaskTeamJobs, RunDoesNotWaitForAWorkerInsideAJob)
{
    TaskTeam team(2);  // one worker
    const std::thread::id owner = std::this_thread::get_id();
    std::atomic<int> on_owner{0};
    std::atomic<int> elsewhere{0};
    team.SetBody([&](std::size_t) {
        (std::this_thread::get_id() == owner ? on_owner : elsewhere)
            .fetch_add(1);
    });
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<bool> released_in_time{false};
    team.Submit([&] {
        started.store(true);
        released_in_time.store(AwaitFlag(release));
    });
    ASSERT_TRUE(AwaitFlag(started));
    // The only worker is inside the job until `release`, which is set
    // only after Run returns: a barrier that waited for it would
    // stall until the job gave up.
    team.Run(16);
    release.store(true);
    team.Drain();
    EXPECT_TRUE(released_in_time.load());
    EXPECT_EQ(on_owner.load(), 16);
    EXPECT_EQ(elsewhere.load(), 0);
}

TEST(TaskTeamJobs, LateWorkersNeverClaimAClosedEpoch)
{
    // Many short epochs of varying size, with short jobs queued in
    // between so workers wake late. Every index of every epoch must be
    // claimed exactly once, inside its own Run().
    TaskTeam team(4);
    constexpr std::size_t kMaxCount = 9;
    std::atomic<bool> in_run{false};
    std::atomic<std::size_t> count{0};
    std::atomic<int> violations{0};
    std::vector<std::atomic<int>> hits(kMaxCount);
    team.SetBody([&](std::size_t i) {
        if (!in_run.load() || i >= count.load()) {
            violations.fetch_add(1);
            return;
        }
        hits[i].fetch_add(1);
    });
    std::atomic<int> jobs_ran{0};
    int jobs = 0;
    for (int round = 0; round < 2000; ++round) {
        if (round % 3 == 0) {
            ++jobs;
            team.Submit([&jobs_ran, round] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(round % 5));
                jobs_ran.fetch_add(1);
            });
        }
        const std::size_t n = 2 + static_cast<std::size_t>(round) % 8;
        count.store(n);
        in_run.store(true);
        team.Run(n);
        in_run.store(false);
        for (std::size_t i = 0; i < kMaxCount; ++i) {
            const int want = i < n ? 1 : 0;
            if (hits[i].exchange(0) != want) {
                violations.fetch_add(1);
            }
        }
    }
    team.Drain();
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(jobs_ran.load(), jobs);
}

TEST(TaskTeamJobs, CallerOnlyTeamRunsSubmitInline)
{
    TaskTeam team(1);
    EXPECT_EQ(team.Threads(), 1u);
    const std::thread::id owner = std::this_thread::get_id();
    bool ran = false;
    std::thread::id ran_on;
    team.Submit([&] {
        ran = true;
        ran_on = std::this_thread::get_id();
    });
    // Done before Submit returned: no Drain.
    EXPECT_TRUE(ran);
    EXPECT_EQ(ran_on, owner);
    EXPECT_THROW(team.Submit([] { throw std::runtime_error("inline"); }),
                 std::runtime_error);
    EXPECT_NO_THROW(team.Drain());
}

TEST(TaskTeamJobs, AThrowingJobIsRethrownOnTheDrainingThread)
{
    auto message_of = [](auto&& call) {
        try {
            call();
        } catch (const std::runtime_error& e) {
            return std::string(e.what());
        }
        return std::string("no exception");
    };
    TaskTeam team(2);  // one worker

    // Run on the worker: captured there, rethrown by the owner's next
    // Drain, and only once.
    std::atomic<bool> threw{false};
    team.Submit([&threw] {
        threw.store(true);
        throw std::runtime_error("worker job");
    });
    ASSERT_TRUE(AwaitFlag(threw));
    EXPECT_EQ(message_of([&] { team.Drain(); }), "worker job");
    EXPECT_NO_THROW(team.Drain());

    // Still queued while the worker is busy: Drain runs it on the
    // owner and it propagates from there, once the worker's job (which
    // it releases) has finished.
    const std::thread::id owner = std::this_thread::get_id();
    std::atomic<bool> busy{false};
    std::atomic<bool> release{false};
    std::atomic<bool> released_in_time{false};
    team.Submit([&] {
        busy.store(true);
        released_in_time.store(AwaitFlag(release));
    });
    ASSERT_TRUE(AwaitFlag(busy));
    std::thread::id ran_on;
    team.Submit([&] {
        ran_on = std::this_thread::get_id();
        release.store(true);
        throw std::runtime_error("owner job");
    });
    EXPECT_EQ(message_of([&] { team.Drain(); }), "owner job");
    EXPECT_EQ(ran_on, owner);
    EXPECT_TRUE(released_in_time.load());

    // Drain rethrows the first failure after every job has finished.
    std::atomic<int> ran{0};
    team.Submit([] { throw std::runtime_error("drained job"); });
    for (int i = 0; i < 8; ++i) {
        team.Submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(message_of([&] { team.Drain(); }), "drained job");
    EXPECT_EQ(ran.load(), 8);
    EXPECT_NO_THROW(team.Drain());
}

}  // namespace
}  // namespace apo::support
