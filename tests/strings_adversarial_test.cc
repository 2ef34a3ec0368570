/**
 * @file
 * Adversarial inputs for the string substrate: highly periodic and
 * self-similar sequences are the classic suffix-array stress cases
 * (maximal LCP values, deep SA-IS recursion) and also the worst cases
 * for repeat mining (everything overlaps everything).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "strings/identifiers.h"
#include "strings/repeats.h"
#include "strings/suffix_array.h"
#include "support/intervals.h"
#include "test_util.h"

namespace apo::strings {
namespace {

using apo::test::FibonacciWord;
using apo::test::Seq;
using apo::test::ThueMorse;

std::vector<std::size_t> NaiveSuffixArray(const Sequence& s)
{
    std::vector<std::size_t> sa(s.size());
    std::iota(sa.begin(), sa.end(), 0);
    std::sort(sa.begin(), sa.end(), [&](std::size_t a, std::size_t b) {
        return std::lexicographical_compare(s.begin() + a, s.end(),
                                            s.begin() + b, s.end());
    });
    return sa;
}

TEST(Adversarial, FibonacciWordSuffixArray)
{
    const Sequence s = FibonacciWord(800);
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kSais),
              NaiveSuffixArray(s));
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kPrefixDoubling),
              NaiveSuffixArray(s));
}

TEST(Adversarial, ThueMorseSuffixArray)
{
    const Sequence s = ThueMorse(1024);
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kSais),
              NaiveSuffixArray(s));
}

TEST(Adversarial, AllEqualSequence)
{
    const Sequence s(500, 7);
    const auto sa = BuildSuffixArray(s);
    // Suffixes of an all-equal string sort by decreasing start.
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i], s.size() - 1 - i);
    }
    const auto lcp = ComputeLcp(s, sa);
    for (std::size_t i = 0; i < lcp.size(); ++i) {
        EXPECT_EQ(lcp[i], i + 1);
    }
    // Repeats must tile the run without overlapping.
    const auto repeats = FindRepeats(s, {.min_length = 10});
    support::IntervalSet all;
    std::size_t covered = 0;
    for (const auto& r : repeats) {
        for (std::size_t start : r.starts) {
            ASSERT_TRUE(all.InsertIfDisjoint(start, start + r.Length()));
            covered += r.Length();
        }
    }
    EXPECT_GE(covered, s.size() * 9 / 10);
}

TEST(Adversarial, FibonacciWordRepeatsAreValid)
{
    const Sequence s = FibonacciWord(600);
    const auto repeats = FindRepeats(s, {.min_length = 5});
    support::IntervalSet all;
    for (const auto& r : repeats) {
        for (std::size_t start : r.starts) {
            ASSERT_LE(start + r.Length(), s.size());
            EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(),
                                   s.begin() + start));
            EXPECT_TRUE(all.InsertIfDisjoint(start, start + r.Length()));
        }
    }
    // Fibonacci words are extremely repetitive: coverage must be high.
    EXPECT_GE(TotalCoverage(repeats), s.size() / 2);
}

TEST(Adversarial, ThueMorseHasNoTripleRepeats)
{
    // Overlap-freeness: no factor occurs three times in a row, so the
    // tandem detector must only ever report runs of exactly 2 copies.
    const Sequence s = ThueMorse(512);
    for (const auto& r : FindTandemRepeats(s, 2)) {
        // Consecutive selected copies: count the longest contiguous
        // chain of starts spaced exactly r.Length() apart.
        std::size_t chain = 1, best = 1;
        for (std::size_t k = 1; k < r.starts.size(); ++k) {
            chain = r.starts[k] == r.starts[k - 1] + r.Length()
                        ? chain + 1
                        : 1;
            best = std::max(best, chain);
        }
        EXPECT_LE(best, 2u) << "cube found in the Thue-Morse word?!";
    }
}

TEST(Adversarial, SingleRepeatAtOppositeEnds)
{
    // The repeated content sits at the extreme ends of the buffer —
    // the hardest placement for windowed detection, easy for a full
    // suffix array.
    Sequence s;
    const Sequence motif = Seq("abcdefghij");
    s.insert(s.end(), motif.begin(), motif.end());
    for (int i = 0; i < 500; ++i) {
        s.push_back(1000 + i);  // unique middle
    }
    s.insert(s.end(), motif.begin(), motif.end());
    const auto repeats = FindRepeats(s, {.min_length = 10});
    ASSERT_EQ(repeats.size(), 1u);
    EXPECT_EQ(repeats[0].tokens, motif);
    EXPECT_EQ(repeats[0].starts,
              (std::vector<std::size_t>{0, motif.size() + 500}));
}

TEST(Adversarial, AlternatingTwoSymbols)
{
    // "ababab...": everything overlaps; the overlap case of Algorithm
    // 2 must still tile the string with period-2 pieces.
    Sequence s;
    for (int i = 0; i < 400; ++i) {
        s.push_back(i % 2);
    }
    const auto repeats = FindRepeats(s, {.min_length = 2});
    EXPECT_EQ(TotalCoverage(repeats), s.size());
    for (const auto& r : repeats) {
        EXPECT_EQ(r.Length() % 2, 0u) << "non-period-aligned repeat";
    }
}

TEST(Adversarial, MaxLcpDoesNotOverflowRmq)
{
    // Long shared prefixes stress the LCP range-minimum structure.
    Sequence s(300, 1);
    s[150] = 2;  // one mismatch splits the run
    const auto repeats = FindRepeats(s, {.min_length = 20});
    EXPECT_FALSE(repeats.empty());
    EXPECT_GE(TotalCoverage(repeats), 200u);
}

}  // namespace
}  // namespace apo::strings
