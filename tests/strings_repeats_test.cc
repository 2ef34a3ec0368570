/**
 * @file
 * Tests for the non-overlapping repeated substring miner (paper
 * Algorithm 2). Includes the paper's worked example (figure 4),
 * structural invariants, randomized property sweeps against the
 * exact DP coverage oracle, and a differential oracle for the exact
 * repeat set and order (a comparison-sort reference implementation).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "app_streams.h"
#include "strings/identifiers.h"
#include "strings/repeats.h"
#include "support/intervals.h"
#include "support/rng.h"
#include "test_util.h"

namespace apo::strings {
namespace {

using apo::test::FibonacciWord;
using apo::test::PeriodicSeq;
using apo::test::RandomSeq;
using apo::test::Seq;
using apo::test::Str;
using apo::test::ThueMorse;

/** Check the structural invariants every FindRepeats result must obey:
 * every reported occurrence really matches, lengths respect the
 * minimum, all selected intervals are pairwise disjoint, and contents
 * are deduplicated. */
void CheckInvariants(const Sequence& s, const std::vector<Repeat>& repeats,
                     std::size_t min_length)
{
    support::IntervalSet all;
    std::set<Sequence> contents;
    for (const Repeat& r : repeats) {
        EXPECT_GE(r.Length(), min_length);
        EXPECT_FALSE(r.starts.empty());
        EXPECT_TRUE(contents.insert(r.tokens).second)
            << "duplicate repeat content";
        EXPECT_TRUE(std::is_sorted(r.starts.begin(), r.starts.end()));
        for (std::size_t start : r.starts) {
            ASSERT_LE(start + r.Length(), s.size());
            EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(),
                                   s.begin() + start))
                << "occurrence does not match content";
            EXPECT_TRUE(all.InsertIfDisjoint(start, start + r.Length()))
                << "overlapping selected occurrences";
        }
    }
}

TEST(FindRepeats, PaperFigure4Example)
{
    // Figure 4: FindRepeats("aabcbcbaa") with min length 2 yields
    // {aa, bc} with two occurrences each.
    const Sequence s = Seq("aabcbcbaa");
    const auto repeats = FindRepeats(s, {.min_length = 2});
    CheckInvariants(s, repeats, 2);
    ASSERT_EQ(repeats.size(), 2u);
    std::set<std::string> found;
    for (const auto& r : repeats) {
        found.insert(Str(r.tokens));
        EXPECT_EQ(r.starts.size(), 2u);
    }
    EXPECT_TRUE(found.count("aa"));
    EXPECT_TRUE(found.count("bc"));
}

TEST(FindRepeats, EmptyAndTinyInputs)
{
    EXPECT_TRUE(FindRepeats({}, {.min_length = 2}).empty());
    EXPECT_TRUE(FindRepeats(Seq("a"), {.min_length = 2}).empty());
    EXPECT_TRUE(FindRepeats(Seq("ab"), {.min_length = 2}).empty());
    EXPECT_TRUE(FindRepeats(Seq("abc"), {.min_length = 2}).empty());
}

TEST(FindRepeats, NoRepeatsInAllDistinctStream)
{
    Sequence s(100);
    for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = i;
    }
    EXPECT_TRUE(FindRepeats(s, {.min_length = 2}).empty());
}

TEST(FindRepeats, PureTandemLoopIsFullyCovered)
{
    // A perfectly iterative program: loop body of 5 tasks, 20 times.
    const Sequence s = PeriodicSeq(100, 5);
    const auto repeats = FindRepeats(s, {.min_length = 2});
    CheckInvariants(s, repeats, 2);
    EXPECT_EQ(TotalCoverage(repeats), 100u);
    // All coverage should come from a small trace set (the loop body
    // or a small multiple of it), not from many fragments.
    EXPECT_LE(repeats.size(), 3u);
}

TEST(FindRepeats, FindsLoopDespiteConvergenceChecks)
{
    // The paper's motivation for relaxing tandem repeats: a repetitive
    // main loop interrupted by irregular one-off operations.
    const Sequence s = PeriodicSeq(400, 10, 35);
    const auto repeats = FindRepeats(s, {.min_length = 5});
    CheckInvariants(s, repeats, 5);
    // The loop body must still be discovered with high coverage.
    EXPECT_GE(TotalCoverage(repeats), s.size() * 3 / 4);
}

TEST(FindRepeats, MinLengthFiltersShortRepeats)
{
    const Sequence s = Seq("abab" "xy" "abab");
    const auto repeats = FindRepeats(s, {.min_length = 4});
    CheckInvariants(s, repeats, 4);
    for (const auto& r : repeats) {
        EXPECT_GE(r.Length(), 4u);
    }
    // "abab" repeats disjointly (positions 0 and 6).
    ASSERT_FALSE(repeats.empty());
    EXPECT_EQ(Str(repeats.front().tokens), "abab");
}

TEST(FindRepeats, MinOccurrencesFilter)
{
    const Sequence s = Seq("aabbaabb");
    const auto all = FindRepeats(s, {.min_length = 2, .min_occurrences = 2});
    CheckInvariants(s, all, 2);
    for (const auto& r : all) {
        EXPECT_GE(r.starts.size(), 2u);
    }
}

TEST(FindRepeats, OverlappingPeriodicRepeatIsSplit)
{
    // "ababab": "abab" overlaps itself; algorithm should emit "ab"-
    // periodic pieces that tile the string (paper's overlap case).
    const Sequence s = Seq("ababab");
    const auto repeats = FindRepeats(s, {.min_length = 2});
    CheckInvariants(s, repeats, 2);
    ASSERT_FALSE(repeats.empty());
    EXPECT_EQ(TotalCoverage(repeats), 6u);
}

struct RepeatCase {
    std::size_t n;
    std::uint64_t sigma;
    std::size_t min_length;
    std::uint64_t seed;
};

class FindRepeatsProperty : public ::testing::TestWithParam<RepeatCase> {};

TEST_P(FindRepeatsProperty, InvariantsHoldOnRandomInput)
{
    const auto [n, sigma, min_length, seed] = GetParam();
    support::Rng rng(seed);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto repeats = FindRepeats(s, {.min_length = min_length});
    CheckInvariants(s, repeats, min_length);
}

TEST_P(FindRepeatsProperty, CoverageIsBoundedByExactOptimum)
{
    const auto [n, sigma, min_length, seed] = GetParam();
    if (n > 160) {
        GTEST_SKIP() << "DP oracle is cubic; small inputs only";
    }
    support::Rng rng(seed ^ 0xabcdef);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto repeats = FindRepeats(s, {.min_length = min_length});
    CheckInvariants(s, repeats, min_length);
    EXPECT_LE(TotalCoverage(repeats), OptimalCoverage(s, min_length));
}

TEST_P(FindRepeatsProperty, CoverageIsCompetitiveWithOptimum)
{
    const auto [n, sigma, min_length, seed] = GetParam();
    if (n > 160) {
        GTEST_SKIP() << "DP oracle is cubic; small inputs only";
    }
    support::Rng rng(seed ^ 0x123456);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto repeats = FindRepeats(s, {.min_length = min_length});
    const std::size_t optimal = OptimalCoverage(s, min_length);
    // The algorithm trades optimality for O(n log n); the paper claims
    // "good" solutions. Empirically it stays well above half of the
    // exact optimum on random inputs; enforce that as a regression
    // floor.
    EXPECT_GE(2 * TotalCoverage(repeats) + 1, optimal);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FindRepeatsProperty,
    ::testing::Values(RepeatCase{32, 2, 2, 1}, RepeatCase{64, 2, 2, 2},
                      RepeatCase{64, 2, 4, 3}, RepeatCase{100, 3, 2, 4},
                      RepeatCase{100, 3, 5, 5}, RepeatCase{150, 4, 3, 6},
                      RepeatCase{150, 2, 6, 7}, RepeatCase{500, 2, 4, 8},
                      RepeatCase{1000, 3, 5, 9},
                      RepeatCase{2000, 8, 10, 10}));

TEST(FindRepeats, SaisAndDoublingBackendsAgree)
{
    support::Rng rng(31337);
    for (int round = 0; round < 10; ++round) {
        const Sequence s = RandomSeq(rng, 300, 3);
        const auto a = FindRepeats(
            s, {.min_length = 3,
                .suffix_algorithm = SuffixAlgorithm::kSais});
        const auto b = FindRepeats(
            s, {.min_length = 3,
                .suffix_algorithm = SuffixAlgorithm::kPrefixDoubling});
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].tokens, b[i].tokens);
            EXPECT_EQ(a[i].starts, b[i].starts);
        }
    }
}

TEST(FindRepeats, LongTraceInLargeBufferIsFound)
{
    // The paper notes real traces exceed 2000 tasks, requiring buffers
    // of at least twice that size. Simulate: one 2048-token body
    // repeated twice plus noise tail.
    support::Rng rng(5);
    Sequence body = RandomSeq(rng, 2048, 1 << 30);
    Sequence s;
    s.insert(s.end(), body.begin(), body.end());
    s.insert(s.end(), body.begin(), body.end());
    for (int i = 0; i < 100; ++i) {
        s.push_back(rng.UniformInt(1u << 31, (1ull << 32)));
    }
    const auto repeats = FindRepeats(s, {.min_length = 100});
    CheckInvariants(s, repeats, 100);
    ASSERT_FALSE(repeats.empty());
    EXPECT_GE(repeats.front().Length(), 2048u);
}

// ---------------------------------------------------------------------------
// Differential oracle: FindRepeats against a reference that orders the
// candidates with a comparison sort (length desc, content, start) and
// selects them with an IntervalSet. Any change to the repeat set or to
// its order shows up here, which the invariant and coverage tests above
// cannot see.

/** Sparse-table range minimum over the LCP array (reference copy). */
class ReferenceLcpRmq {
  public:
    explicit ReferenceLcpRmq(const std::vector<std::size_t>& lcp)
    {
        const std::size_t n = lcp.size();
        if (n == 0) {
            return;
        }
        const unsigned num_levels = std::bit_width(n);
        table_.resize(num_levels);
        table_[0] = lcp;
        for (unsigned j = 1; j < num_levels; ++j) {
            const std::size_t span = std::size_t{1} << j;
            table_[j].resize(n - span + 1);
            for (std::size_t i = 0; i + span <= n; ++i) {
                table_[j][i] = std::min(table_[j - 1][i],
                                        table_[j - 1][i + span / 2]);
            }
        }
    }

    /** Minimum of lcp[lo..hi] inclusive; requires lo <= hi. */
    std::size_t Min(std::size_t lo, std::size_t hi) const
    {
        const unsigned j = std::bit_width(hi - lo + 1) - 1;
        return std::min(table_[j][lo],
                        table_[j][hi + 1 - (std::size_t{1} << j)]);
    }

  private:
    std::vector<std::vector<std::size_t>> table_;
};

/** The reference's candidate occurrence, in full-width indices. */
struct ReferenceCandidate {
    std::size_t length = 0;
    std::size_t start = 0;
};

/** Algorithm 2 with a comparison-sorted candidate order and
 * IntervalSet selection: the reference FindRepeats must match. */
std::vector<Repeat> ReferenceFindRepeats(const Sequence& s,
                                         const RepeatOptions& options)
{
    std::vector<Repeat> out;
    const std::size_t n = s.size();
    if (!RepeatsViable(n, options)) {
        return out;
    }
    const std::vector<std::size_t> sa = BuildSuffixArray(s);
    const std::vector<std::size_t> lcp = ComputeLcp(s, sa);
    const std::size_t min_len = std::max<std::size_t>(options.min_length, 1);

    std::vector<std::size_t> rank(n);
    for (std::size_t i = 0; i < n; ++i) {
        rank[sa[i]] = i;
    }
    const ReferenceLcpRmq rmq(lcp);

    // Length of the common prefix of the suffixes at positions a and b.
    auto common_prefix = [&](std::size_t a, std::size_t b) -> std::size_t {
        if (a == b) {
            return n - a;
        }
        const auto [lo, hi] = std::minmax(rank[a], rank[b]);
        return rmq.Min(lo, hi - 1);
    };

    std::vector<ReferenceCandidate> candidates;
    candidates.reserve(2 * n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::size_t p = lcp[i];
        if (p < min_len) {
            continue;
        }
        std::size_t s1 = sa[i], s2 = sa[i + 1];
        if (s1 > s2) {
            std::swap(s1, s2);  // the overlap case assumes s1 < s2
        }
        if (s1 + p <= s2) {
            // The two occurrences of the shared prefix do not overlap.
            candidates.push_back({p, s1});
            candidates.push_back({p, s2});
        } else {
            // Overlapping occurrences: the shared prefix is periodic
            // with period d = s2 - s1. Emit two adjacent, disjoint
            // copies of the longest usable multiple of the period.
            const std::size_t d = s2 - s1;
            std::size_t l = (p + d) / 2;
            l -= l % d;
            if (l >= min_len) {
                candidates.push_back({l, s1});
                candidates.push_back({l, s1 + l});
            }
        }
    }

    // Sort by decreasing length, then by substring content, then by
    // increasing start position. Content comparison is O(1) via the
    // LCP range-minimum structure.
    std::sort(candidates.begin(), candidates.end(),
              [&](const ReferenceCandidate& a, const ReferenceCandidate& b) {
                  if (a.length != b.length) {
                      return a.length > b.length;
                  }
                  if (a.start != b.start) {
                      const std::size_t cp =
                          common_prefix(a.start, b.start);
                      if (cp < a.length) {
                          // Distinct content: order lexicographically,
                          // which equals suffix-rank order here.
                          return rank[a.start] < rank[b.start];
                      }
                  }
                  return a.start < b.start;
              });

    // Greedy selection of non-overlapping occurrences (lines 16-20),
    // grouping consecutive equal-content candidates so that each
    // distinct substring is emitted once (the deduplication step).
    support::IntervalSet chosen;
    auto same_group = [&](const ReferenceCandidate& a,
                          const ReferenceCandidate& b) {
        return a.length == b.length &&
               (a.start == b.start ||
                common_prefix(a.start, b.start) >= a.length);
    };
    std::vector<std::size_t> group_starts;
    const ReferenceCandidate* group_head = nullptr;
    auto flush_group = [&] {
        if (group_head == nullptr ||
            group_starts.size() < options.min_occurrences) {
            group_starts.clear();
            return;
        }
        std::sort(group_starts.begin(), group_starts.end());
        group_starts.erase(
            std::unique(group_starts.begin(), group_starts.end()),
            group_starts.end());
        Repeat r;
        r.tokens.assign(s.begin() + group_head->start,
                        s.begin() + group_head->start + group_head->length);
        r.starts.assign(group_starts.begin(), group_starts.end());
        out.push_back(std::move(r));
        group_starts.clear();
    };
    for (const ReferenceCandidate& c : candidates) {
        if (group_head != nullptr && !same_group(*group_head, c)) {
            flush_group();
            group_head = nullptr;
        }
        if (chosen.InsertIfDisjoint(c.start, c.start + c.length)) {
            if (group_head == nullptr) {
                group_head = &c;
            }
            group_starts.push_back(c.start);
        } else if (group_head == nullptr) {
            // Track the group even if its first occurrence was blocked,
            // so later occurrences of the same content group together.
            group_head = &c;
        }
    }
    flush_group();
    return out;
}

/** FindRepeats equals the reference in tokens, starts and order at
 * `options`. */
void ExpectMatchesReferenceAt(const Sequence& s, const RepeatOptions& options,
                              const std::string& label)
{
    const std::size_t min_length = options.min_length;
    const std::size_t min_occurrences = options.min_occurrences;
    const std::vector<Repeat> got = FindRepeats(s, options);
    const std::vector<Repeat> want = ReferenceFindRepeats(s, options);
    ASSERT_EQ(got.size(), want.size())
        << label << " min_length " << min_length << " min_occurrences "
        << min_occurrences;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].tokens, want[i].tokens)
            << label << " repeat " << i << " min_length " << min_length
            << " min_occurrences " << min_occurrences;
        ASSERT_EQ(got[i].starts, want[i].starts)
            << label << " repeat " << i << " min_length " << min_length
            << " min_occurrences " << min_occurrences;
    }
}

/** FindRepeats equals the reference in tokens, starts and order, at
 * every (min_length, min_occurrences) the oracle sweeps. */
void ExpectMatchesReference(const Sequence& s, const std::string& label)
{
    for (const std::size_t min_length : {2, 3, 5, 25}) {
        for (const std::size_t min_occurrences : {1, 2}) {
            ExpectMatchesReferenceAt(s,
                                     {.min_length = min_length,
                                      .min_occurrences = min_occurrences},
                                     label);
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(FindRepeatsOracle, PeriodicWithNoiseMatchesReference)
{
    // Periodic streams with sparse noise are the shape real task
    // streams have, and they produce long runs of equal-content
    // candidates of every length.
    support::Rng rng(20261017);
    for (int round = 0; round < 2000; ++round) {
        const std::size_t n = rng.UniformInt(2, 600);
        const std::uint64_t sigma = rng.UniformInt(1, 6);
        const std::size_t period = rng.UniformInt(1, 40);
        const double noise = rng.UniformReal(0.0, 0.2);
        const Sequence body = RandomSeq(rng, period, sigma);
        Sequence s(n);
        for (std::size_t i = 0; i < n; ++i) {
            s[i] = rng.Bernoulli(noise) ? rng.UniformInt(0, sigma - 1)
                                        : body[i % period];
        }
        ExpectMatchesReference(s, "round " + std::to_string(round));
        if (HasFatalFailure()) {
            return;
        }
    }
}

TEST(FindRepeatsOracle, AdversarialWordsMatchReference)
{
    Sequence opposite_ends = Seq("abcdefghij");
    for (int i = 0; i < 500; ++i) {
        opposite_ends.push_back(1000 + i);
    }
    const Sequence motif = Seq("abcdefghij");
    opposite_ends.insert(opposite_ends.end(), motif.begin(), motif.end());
    Sequence alternating;
    for (int i = 0; i < 400; ++i) {
        alternating.push_back(i % 2);
    }
    Sequence split_run(300, 1);
    split_run[150] = 2;

    ExpectMatchesReference(FibonacciWord(600), "fibonacci 600");
    ExpectMatchesReference(FibonacciWord(800), "fibonacci 800");
    ExpectMatchesReference(ThueMorse(512), "thue-morse 512");
    ExpectMatchesReference(ThueMorse(1024), "thue-morse 1024");
    ExpectMatchesReference(Sequence(500, 7), "all equal");
    ExpectMatchesReference(alternating, "alternating");
    ExpectMatchesReference(opposite_ends, "opposite ends");
    ExpectMatchesReference(split_run, "split run");
}

TEST(FindRepeatsOracle, AppRulerWindowsMatchReference)
{
    // The windows the analysis loop mines: ruler windows of 250-5 000
    // tokens over each bundled application's stream on the artifact's
    // 4x4 machine, at the artifact's minimum trace length.
    const RepeatOptions options{.min_length = 25, .min_occurrences = 2};
    for (const test::NamedStream& stream : test::FourByFourAppStreams()) {
        ASSERT_GE(stream.tokens.size(), 8000u) << stream.app;
        std::size_t w = 0, repeats = 0, longest = 0;
        for (const std::span<const Symbol> window :
             test::RulerWindows(stream.tokens, 250, 5000)) {
            const Sequence s(window.begin(), window.end());
            ExpectMatchesReferenceAt(
                s, options, stream.app + " window " + std::to_string(w++));
            if (HasFatalFailure()) {
                return;
            }
            repeats += FindRepeats(s, options).size();
            longest = std::max(longest, s.size());
        }
        EXPECT_EQ(longest, 5000u) << stream.app;
        EXPECT_GT(repeats, 0u) << stream.app;
    }
}

TEST(FindRepeatsOracle, SurvivingCandidatesMatchReference)
{
    // Motifs of the minimum length that share a prefix, each occurring
    // tens to hundreds of times between filler tokens that never
    // repeat. No longer repeat covers a motif occurrence, so at
    // min_length 25 every candidate survives the coverage filter, and
    // a motif's run spans as many suffix ranks as it has occurrences:
    // its content tests reach across several 64-entry LCP blocks, and
    // the LCP between two motifs' runs (the shared prefix) ends them.
    support::Rng rng(20261018);
    Symbol filler = 1'000'000;
    for (int round = 0; round < 24; ++round) {
        const std::size_t motif_length = rng.UniformInt(25, 27);
        const std::size_t shared = rng.UniformInt(0, motif_length - 1);
        const Sequence prefix = RandomSeq(rng, shared, 3);
        std::vector<Sequence> motifs(rng.UniformInt(1, 4));
        for (Sequence& motif : motifs) {
            motif = prefix;
            const Sequence tail = RandomSeq(rng, motif_length - shared, 3);
            motif.insert(motif.end(), tail.begin(), tail.end());
        }
        const std::size_t n = rng.UniformInt(3000, 5000);
        Sequence s;
        while (s.size() < n) {
            // Skewed weights: the first motif dominates.
            const std::size_t pick =
                rng.Bernoulli(0.6) ? 0 : rng.UniformInt(0, motifs.size() - 1);
            const Sequence& motif = motifs[pick];
            s.insert(s.end(), motif.begin(), motif.end());
            for (std::size_t k = rng.UniformInt(1, 3); k > 0; --k) {
                s.push_back(filler++);
            }
        }
        ExpectMatchesReference(s, "round " + std::to_string(round));
        if (HasFatalFailure()) {
            return;
        }
        // The dominant motif's run alone spans 30+ ranks.
        std::size_t widest = 0;
        for (const Repeat& r :
             FindRepeats(s, {.min_length = 25, .min_occurrences = 2})) {
            widest = std::max(widest, r.starts.size());
        }
        EXPECT_GE(widest, 30u);
    }
}

}  // namespace
}  // namespace apo::strings
