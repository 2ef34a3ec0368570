/**
 * @file
 * The reference miner as the spec of every mining job: drive a
 * core::TraceFinder over a token stream and require each ingested
 * job's candidate set to equal core::MineSlice over the job's
 * namespace-relative window, whichever memo served the job.
 */
#ifndef APOPHENIA_TESTS_REFERENCE_MINER_H
#define APOPHENIA_TESTS_REFERENCE_MINER_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/finder.h"
#include "core/mining_cache.h"
#include "runtime/task.h"
#include "support/executor.h"

namespace apo::test {

/**
 * Feed `stream`, folded into `name_space`, to a finder with `config`
 * and that namespace, and ingest every job in launch order. A job's
 * Results() are namespace-relative (a namespaced front-end re-keys
 * them into its trie), so each must equal MineSlice over the unsalted
 * window. `shared` is the finder's memo, or nullptr for a private one.
 * Returns the finder's stats.
 */
inline core::FinderStats
ExpectJobsMatchReferenceMiner(const std::vector<rt::TokenHash>& stream,
                              core::ApopheniaConfig config,
                              rt::TokenHash name_space,
                              core::MiningCache* shared,
                              const std::string& where)
{
    config.cache_namespace = name_space;
    support::InlineExecutor executor;
    core::TraceFinder finder(config, executor, shared);
    std::vector<rt::TokenHash> window;
    auto ingest = [&] {
        const core::AnalysisJob& job = finder.WaitOldestJob();
        window.assign(stream.begin() + static_cast<std::ptrdiff_t>(
                                           job.issued_at - job.slice_length),
                      stream.begin() +
                          static_cast<std::ptrdiff_t>(job.issued_at));
        const std::vector<core::CandidateTrace> want =
            core::MineSlice(window, config);
        const std::vector<core::CandidateTrace>& got = job.Results();
        EXPECT_EQ(got.size(), want.size()) << where << " job " << job.id;
        for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
            EXPECT_EQ(got[i].tokens, want[i].tokens)
                << where << " job " << job.id << " candidate " << i;
            EXPECT_EQ(got[i].occurrences, want[i].occurrences)
                << where << " job " << job.id << " candidate " << i;
        }
        finder.ReleaseOldestJob();
    };
    for (std::size_t i = 0; i < stream.size(); ++i) {
        finder.Observe(rt::FoldNamespace(name_space, stream[i]), i + 1);
        while (finder.OldestJobDone()) {
            ingest();
        }
    }
    while (finder.PendingJobCount() > 0) {
        ingest();
    }
    return finder.Stats();
}

/**
 * Every memo configuration against the reference miner: namespace 0
 * and a salted namespace, each with a private memo and with a shared
 * one. The salted tenant shares the namespace-0 tenant's cache, so it
 * must adopt every window across namespaces. Returns the number of
 * jobs each run launched.
 */
inline std::uint64_t
ExpectEveryMemoMatchesReferenceMiner(const std::vector<rt::TokenHash>& stream,
                                     const core::ApopheniaConfig& config,
                                     const std::string& where)
{
    constexpr rt::TokenHash kSalt = 0x5a17edc0ffee0001ull;
    for (const rt::TokenHash ns : {rt::TokenHash{0}, kSalt}) {
        const core::FinderStats stats = ExpectJobsMatchReferenceMiner(
            stream, config, ns, nullptr, where + " private ns " +
                                             std::to_string(ns));
        EXPECT_EQ(stats.mining_fast_path_hits + stats.mining_full,
                  stats.jobs_launched)
            << where;
        EXPECT_EQ(stats.mining_cache_hits, 0u) << where;
    }
    core::MiningCache cache;
    const core::FinderStats first = ExpectJobsMatchReferenceMiner(
        stream, config, 0, &cache, where + " shared ns 0");
    EXPECT_EQ(first.mining_cache_hits + first.mining_full,
              first.jobs_launched)
        << where;
    EXPECT_EQ(first.mining_fast_path_hits, 0u) << where;
    const core::FinderStats salted = ExpectJobsMatchReferenceMiner(
        stream, config, kSalt, &cache, where + " shared salted");
    EXPECT_EQ(salted.mining_full, 0u) << where;
    EXPECT_EQ(salted.mining_cache_hits, salted.jobs_launched) << where;
    EXPECT_EQ(salted.mining_cache_cross_hits, salted.jobs_launched)
        << where;
    return first.jobs_launched;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_REFERENCE_MINER_H
