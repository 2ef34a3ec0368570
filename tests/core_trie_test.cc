/**
 * @file
 * Tests for the candidate trie (against a map oracle), trace scoring,
 * and the trace finder's sampling schedule and mining jobs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/finder.h"
#include "core/trie.h"
#include "support/executor.h"
#include "support/rng.h"

namespace apo::core {
namespace {

constexpr CandidateTrie::NodeId kRoot = CandidateTrie::kRoot;
constexpr CandidateTrie::NodeId kNoNode = CandidateTrie::kNoNode;

std::vector<rt::TokenHash> Tokens(std::initializer_list<int> list)
{
    std::vector<rt::TokenHash> out;
    for (int v : list) {
        out.push_back(static_cast<rt::TokenHash>(v));
    }
    return out;
}

TEST(Trie, InsertAndStep)
{
    CandidateTrie trie;
    trie.Insert(Tokens({1, 2, 3}), 2.0, 0, 1e9);
    EXPECT_EQ(trie.NumCandidates(), 1u);
    const auto n1 = trie.Step(kRoot, 1);
    ASSERT_NE(n1, kNoNode);
    EXPECT_EQ(trie.CandidateAt(n1), nullptr);
    const auto n2 = trie.Step(n1, 2);
    const auto n3 = trie.Step(n2, 3);
    ASSERT_NE(n3, kNoNode);
    const CandidateStats* stats = trie.CandidateAt(n3);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->length, 3u);
    EXPECT_DOUBLE_EQ(stats->count, 2.0);
    EXPECT_EQ(trie.Step(n3, 4), kNoNode);
    EXPECT_EQ(trie.Step(kRoot, 9), kNoNode);
}

TEST(Trie, SharedPrefixesShareNodes)
{
    CandidateTrie trie;
    trie.Insert(Tokens({1, 2, 3}), 1.0, 0, 1e9);
    trie.Insert(Tokens({1, 2, 4}), 1.0, 0, 1e9);
    trie.Insert(Tokens({1, 2}), 1.0, 0, 1e9);
    EXPECT_EQ(trie.NumCandidates(), 3u);
    // Root + nodes 1, 2, 3, 4 = 5 total.
    EXPECT_EQ(trie.NumNodes(), 5u);
    // {1,2} is a candidate at an interior node.
    const auto n = trie.Step(trie.Step(kRoot, 1), 2);
    ASSERT_NE(trie.CandidateAt(n), nullptr);
    EXPECT_EQ(trie.CandidateAt(n)->length, 2u);
}

TEST(Trie, ReinsertionAccumulatesCount)
{
    CandidateTrie trie;
    auto& first = trie.Insert(Tokens({5, 6}), 2.0, 100, 1e9);
    auto& second = trie.Insert(Tokens({5, 6}), 3.0, 200, 1e9);
    EXPECT_EQ(&first, &second);
    // Huge half-life: decay over 100 tasks is negligible.
    EXPECT_NEAR(second.count, 5.0, 1e-6);
    EXPECT_EQ(second.last_seen, 200u);
    EXPECT_EQ(trie.NumCandidates(), 1u);
}

TEST(Trie, ReinsertionDecaysOldCount)
{
    CandidateTrie trie;
    trie.Insert(Tokens({5, 6}), 8.0, 0, /*half_life=*/100);
    // 100 tasks later the old count has halved.
    auto& stats = trie.Insert(Tokens({5, 6}), 1.0, 100, 100);
    EXPECT_DOUBLE_EQ(stats.count, 5.0);
}

using Path = std::vector<rt::TokenHash>;

/** Candidate path -> occurrence count: what the trie must expose. */
using Oracle = std::map<Path, double>;

/** Tokens 0..kAlphabet-1 are inserted; kAlphabet never is. Token 0 is
 * in the alphabet on purpose: it equals a leaf's unset inline edge. */
constexpr rt::TokenHash kAlphabet = 4;

CandidateTrie::NodeId Walk(const CandidateTrie& trie, const Path& path)
{
    CandidateTrie::NodeId node = kRoot;
    for (const rt::TokenHash t : path) {
        node = trie.Step(node, t);
        if (node == kNoNode) {
            return kNoNode;
        }
    }
    return node;
}

/** The run a forward scan finds from `node`: steps along consecutive
 * ids, inside one pool chunk, while the node has exactly one child, the
 * next id, stopping on (after) the first candidate. */
std::uint32_t ScanRun(const CandidateTrie& trie, CandidateTrie::NodeId node)
{
    std::uint32_t run = 0;
    for (CandidateTrie::NodeId id = node;
         trie.At(id).num_children == 1 && trie.At(id).first_child == id + 1 &&
         (id + 1) % CandidateTrie::kChunkSize != 0;
         ++id) {
        ++run;
        if (trie.CandidateAt(id + 1) != nullptr) {
            break;
        }
    }
    return run;
}

/** Every observable of `trie` against `oracle`: the node count, and at
 * every prefix of every candidate path the child count, each token's
 * step, the candidate (or its absence) and the run, checked against a
 * forward scan and against walking its tokens. */
void ExpectMatchesOracle(const CandidateTrie& trie, const Oracle& oracle)
{
    std::map<Path, std::set<rt::TokenHash>> children;  // the trie's nodes
    for (const auto& [path, count] : oracle) {
        for (std::size_t k = 0; k <= path.size(); ++k) {
            std::set<rt::TokenHash>& kids =
                children[Path(path.begin(), path.begin() + k)];
            if (k < path.size()) {
                kids.insert(path[k]);
            }
        }
    }
    ASSERT_EQ(trie.NumNodes(), children.size());
    ASSERT_EQ(trie.NumCandidates(), oracle.size());
    for (const auto& [prefix, kids] : children) {
        const CandidateTrie::NodeId node = Walk(trie, prefix);
        ASSERT_NE(node, kNoNode);
        EXPECT_EQ(trie.At(node).num_children, kids.size());
        EXPECT_EQ(trie.At(node).run, ScanRun(trie, node));
        CandidateTrie::NodeId along = node;
        for (const rt::TokenHash t : trie.RunTokens(node)) {
            along = trie.Step(along, t);
        }
        EXPECT_EQ(along, node + trie.At(node).run);
        const CandidateStats* stats = trie.CandidateAt(node);
        const auto want = oracle.find(prefix);
        if (want == oracle.end()) {
            EXPECT_EQ(stats, nullptr);
        } else {
            ASSERT_NE(stats, nullptr);
            EXPECT_EQ(stats->length, prefix.size());
            EXPECT_DOUBLE_EQ(stats->count, want->second);
        }
        for (rt::TokenHash t = 0; t <= kAlphabet; ++t) {
            const CandidateTrie::NodeId child = trie.Step(node, t);
            EXPECT_EQ(child != kNoNode, kids.contains(t));
        }
        EXPECT_EQ(trie.Step(node, ~rt::TokenHash{0}), kNoNode);
    }
}

TEST(Trie, RandomInsertsMatchAMapOracle)
{
    support::Rng rng(42);
    CandidateTrie trie;
    Oracle oracle;
    for (int i = 0; i < 150; ++i) {
        Path path(rng.UniformInt(1, 7));
        for (rt::TokenHash& t : path) {
            t = rng.UniformInt(0, kAlphabet - 1);
        }
        const double occurrences = static_cast<double>(rng.UniformInt(1, 3));
        // now = 0: no decay, so counts simply add up.
        trie.Insert(path, occurrences, 0, 1e9);
        oracle[path] += occurrences;
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(trie, oracle))
            << "after insert " << i;
    }
    // The draw covers what the inline edges and runs must get right:
    // branching below the root, candidates on interior nodes, runs of
    // several steps.
    std::size_t interior_candidates = 0;
    std::size_t branch_points = 0;
    std::size_t long_runs = 0;
    for (const auto& [path, count] : oracle) {
        interior_candidates += trie.At(Walk(trie, path)).HasChildren();
        for (std::size_t k = 1; k < path.size(); ++k) {
            const auto node = Walk(trie, Path(path.begin(), path.begin() + k));
            branch_points += trie.At(node).num_children > 1;
            long_runs += trie.At(node).run > 1;
        }
    }
    EXPECT_GT(interior_candidates, 0u);
    EXPECT_GT(branch_points, 0u);
    EXPECT_GT(long_runs, 0u);
    EXPECT_GT(trie.At(kRoot).num_children, 1u);
}

TEST(Trie, NewBranchOnAUnaryNodeKeepsItsFirstChild)
{
    CandidateTrie trie;
    trie.Insert(Tokens({1, 0, 2}), 1.0, 0, 1e9);
    const auto n1 = trie.Step(kRoot, 1);
    const auto first = trie.Step(n1, 0);
    ASSERT_EQ(trie.At(n1).num_children, 1u);
    EXPECT_EQ(trie.At(n1).run, 2u);
    trie.Insert(Tokens({1, 3}), 1.0, 0, 1e9);
    EXPECT_EQ(trie.At(n1).num_children, 2u);
    EXPECT_EQ(trie.At(n1).run, 0u);  // now a branch point
    EXPECT_EQ(trie.Step(n1, 0), first);
    EXPECT_NE(trie.Step(n1, 3), kNoNode);
    // A leaf's unset inline edge must not match token 0.
    EXPECT_EQ(trie.Step(trie.Step(n1, 3), 0), kNoNode);
}

TEST(Trie, RunsStopAtCandidatesBranchesAndChunkEnds)
{
    // One long candidate spans three pool chunks; a prefix of it is a
    // candidate too, and a branch leaves it later on. Every run must
    // equal the forward scan, and Find (which jumps whole runs) must
    // see exactly the inserted candidates.
    const std::size_t chunk = CandidateTrie::kChunkSize;
    Path path(2 * chunk + chunk / 2);
    for (std::size_t i = 0; i < path.size(); ++i) {
        path[i] = 100 + i;
    }
    CandidateTrie trie;
    trie.Insert(path, 1.0, 0, 1e9);
    const Path prefix(path.begin(), path.begin() + chunk + 7);
    trie.Insert(prefix, 1.0, 0, 1e9);
    Path branch(path.begin(), path.begin() + chunk + 300);
    branch.push_back(7);
    trie.Insert(branch, 1.0, 0, 1e9);

    CandidateTrie::NodeId node = kRoot;
    std::size_t longest = 0;
    for (const rt::TokenHash t : path) {
        node = trie.Step(node, t);
        ASSERT_NE(node, kNoNode);
        EXPECT_EQ(trie.At(node).run, ScanRun(trie, node)) << node;
        EXPECT_LT(trie.At(node).run, chunk);
        longest = std::max<std::size_t>(longest, trie.At(node).run);
    }
    EXPECT_EQ(longest, chunk - 2);  // node 1's run ends at the chunk
    EXPECT_EQ(trie.At(Walk(trie, prefix)).run, 300u - 7u);
    EXPECT_EQ(trie.Find(path), trie.CandidateAt(node));
    EXPECT_NE(trie.Find(prefix), nullptr);
    EXPECT_NE(trie.Find(branch), nullptr);
    EXPECT_EQ(trie.Find(Path(path.begin(), path.end() - 1)), nullptr);
    Path off_run = prefix;
    off_run[chunk / 2] = 1;
    EXPECT_EQ(trie.Find(off_run), nullptr);
}

TEST(Scorer, PrefersLongTraces)
{
    ApopheniaConfig config;
    TraceScorer scorer(config);
    CandidateStats short_trace{.length = 10, .count = 4, .last_seen = 0};
    CandidateStats long_trace{.length = 100, .count = 4, .last_seen = 0};
    EXPECT_GT(scorer.Score(long_trace, 0), scorer.Score(short_trace, 0));
}

TEST(Scorer, CountIsCapped)
{
    ApopheniaConfig config;
    config.score_count_cap = 16.0;
    TraceScorer scorer(config);
    CandidateStats a{.length = 10, .count = 16, .last_seen = 0};
    CandidateStats b{.length = 10, .count = 1000, .last_seen = 0};
    EXPECT_DOUBLE_EQ(scorer.Score(a, 0), scorer.Score(b, 0));
}

TEST(Scorer, CountDecaysWithInactivity)
{
    ApopheniaConfig config;
    config.score_decay_half_life = 1000.0;
    TraceScorer scorer(config);
    CandidateStats c{.length = 10, .count = 8, .last_seen = 0};
    const double fresh = scorer.Score(c, 0);
    const double stale = scorer.Score(c, 2000);  // two half-lives
    EXPECT_DOUBLE_EQ(stale, fresh / 4.0);
}

TEST(Scorer, ReplayedTraceGetsBonus)
{
    ApopheniaConfig config;
    TraceScorer scorer(config);
    CandidateStats a{.length = 10, .count = 4, .last_seen = 0};
    CandidateStats b = a;
    b.replays = 1;
    EXPECT_GT(scorer.Score(b, 0), scorer.Score(a, 0));
    EXPECT_NEAR(scorer.Score(b, 0),
                scorer.Score(a, 0) * config.score_replayed_bonus, 1e-9);
}

TEST(Finder, LaunchesJobsOnRulerSchedule)
{
    ApopheniaConfig config;
    config.min_trace_length = 2;
    config.multi_scale_factor = 10;
    config.batchsize = 80;
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    // 80 tokens of a 4-periodic stream.
    for (std::uint64_t i = 1; i <= 80; ++i) {
        finder.Observe(i % 4, i);
    }
    // Sampling points at 10,20,...,80 with slice lengths
    // 10,20,10,40,10,20,10,80.
    EXPECT_EQ(finder.Stats().jobs_launched, 8u);
    const std::vector<std::size_t> expected{10, 20, 10, 40, 10, 20, 10, 80};
    ASSERT_EQ(finder.PendingJobCount(), 8u);
    std::vector<PendingJobInfo> jobs;
    finder.VisitPendingJobs(
        0, [&](const PendingJobInfo& info) { jobs.push_back(info); });
    ASSERT_EQ(jobs.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(jobs[i].id, i);
        EXPECT_EQ(jobs[i].slice_length, expected[i]) << i;
        EXPECT_TRUE(jobs[i].done);
    }
    EXPECT_EQ(finder.Stats().tokens_analyzed, 10u + 20 + 10 + 40 + 10 + 20 +
                                                  10 + 80);
}

TEST(Finder, SliceIsCappedByBatchsize)
{
    ApopheniaConfig config;
    config.min_trace_length = 2;
    config.multi_scale_factor = 10;
    config.batchsize = 40;  // window smaller than the stream
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    for (std::uint64_t i = 1; i <= 400; ++i) {
        finder.Observe(i % 4, i);
    }
    finder.VisitPendingJobs(0, [](const PendingJobInfo& job) {
        EXPECT_LE(job.slice_length, 40u);
    });
}

TEST(Finder, BatchedModeAnalyzesOnlyFullBuffers)
{
    ApopheniaConfig config;
    config.min_trace_length = 2;
    config.identifier_algorithm = IdentifierAlgorithm::kBatched;
    config.batchsize = 50;
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    for (std::uint64_t i = 1; i <= 149; ++i) {
        finder.Observe(i % 4, i);
    }
    EXPECT_EQ(finder.Stats().jobs_launched, 2u);  // at 50 and 100
    finder.VisitPendingJobs(0, [](const PendingJobInfo& job) {
        EXPECT_EQ(job.slice_length, 50u);
    });
}

TEST(Finder, TinySlicesAreSkipped)
{
    ApopheniaConfig config;
    config.min_trace_length = 20;  // a 10-token slice can't repeat it
    config.multi_scale_factor = 10;
    config.batchsize = 80;
    support::InlineExecutor exec;
    TraceFinder finder(config, exec);
    for (std::uint64_t i = 1; i <= 30; ++i) {
        finder.Observe(i % 4, i);
    }
    // Slices of 10 and 20 are below 2*min_trace_length = 40: skipped.
    EXPECT_EQ(finder.Stats().jobs_launched, 0u);
}

TEST(MineSlice, FindsLoopAndFiltersSingletons)
{
    ApopheniaConfig config;
    config.min_trace_length = 3;
    std::vector<rt::TokenHash> slice;
    for (int i = 0; i < 60; ++i) {
        slice.push_back(i % 6);
    }
    const auto candidates = MineSlice(slice, config);
    ASSERT_FALSE(candidates.empty());
    for (const auto& c : candidates) {
        EXPECT_GE(c.tokens.size(), config.min_trace_length);
        EXPECT_GE(c.occurrences, 2.0);
    }
}

TEST(MineSlice, ChunksLongCandidatesToMaxLength)
{
    ApopheniaConfig config;
    config.min_trace_length = 3;
    config.max_trace_length = 10;
    std::vector<rt::TokenHash> slice;
    for (int rep = 0; rep < 2; ++rep) {
        for (int i = 0; i < 25; ++i) {
            slice.push_back(100 + i);  // 25-token body, twice
        }
    }
    const auto candidates = MineSlice(slice, config);
    ASSERT_FALSE(candidates.empty());
    std::size_t total = 0;
    for (const auto& c : candidates) {
        EXPECT_LE(c.tokens.size(), 10u);
        total += c.tokens.size();
    }
    // 25 = 10 + 10 + 5: all three chunks are viable (5 >= min 3).
    EXPECT_EQ(total, 25u);
}

TEST(MineSlice, DropsChunkTailBelowMinLength)
{
    ApopheniaConfig config;
    config.min_trace_length = 4;
    config.max_trace_length = 8;
    std::vector<rt::TokenHash> slice;
    for (int rep = 0; rep < 2; ++rep) {
        for (int i = 0; i < 11; ++i) {  // 11 = 8 + 3; tail 3 < min 4
            slice.push_back(100 + i);
        }
    }
    const auto candidates = MineSlice(slice, config);
    std::size_t total = 0;
    for (const auto& c : candidates) {
        total += c.tokens.size();
    }
    EXPECT_EQ(total, 8u);
}

}  // namespace
}  // namespace apo::core
