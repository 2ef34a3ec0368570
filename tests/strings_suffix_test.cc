/**
 * @file
 * Unit and property tests for suffix array and LCP construction.
 *
 * The SA-IS (linear) and prefix-doubling (O(n log n)) constructions are
 * validated against a naive sort-the-suffixes oracle and against each
 * other on randomized inputs, including the low-entropy periodic
 * streams that task histories actually look like.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "app_streams.h"
#include "strings/suffix_array.h"
#include "support/rng.h"
#include "test_util.h"

namespace apo::strings {
namespace {

using apo::test::PeriodicSeq;
using apo::test::RandomSeq;
using apo::test::Seq;

/** Oracle: sort suffix indices by direct suffix comparison. */
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

/** Oracle: directly measure the common prefix of adjacent suffixes. */
std::vector<std::size_t> NaiveLcp(const Sequence& s,
                                  const std::vector<std::size_t>& sa)
{
    std::vector<std::size_t> lcp;
    for (std::size_t i = 0; i + 1 < sa.size(); ++i) {
        std::size_t a = sa[i], b = sa[i + 1], l = 0;
        while (a + l < s.size() && b + l < s.size() &&
               s[a + l] == s[b + l]) {
            ++l;
        }
        lcp.push_back(l);
    }
    return lcp;
}

TEST(SuffixArray, EmptyAndSingleton)
{
    EXPECT_TRUE(BuildSuffixArray({}).empty());
    const Sequence one{42};
    const auto sa = BuildSuffixArray(one);
    ASSERT_EQ(sa.size(), 1u);
    EXPECT_EQ(sa[0], 0u);
    EXPECT_TRUE(ComputeLcp(one, sa).empty());
}

TEST(SuffixArray, KnownExampleBanana)
{
    // "banana": suffix array is 5 3 1 0 4 2.
    const auto sa = BuildSuffixArray(Seq("banana"));
    const std::vector<std::size_t> expected{5, 3, 1, 0, 4, 2};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, KnownExamplePaperFigure4)
{
    // "aabcbcbaa" (figure 4): 8 7 0 1 6 4 2 5 3.
    const auto sa = BuildSuffixArray(Seq("aabcbcbaa"));
    const std::vector<std::size_t> expected{8, 7, 0, 1, 6, 4, 2, 5, 3};
    EXPECT_EQ(sa, expected);
    const auto lcp = ComputeLcp(Seq("aabcbcbaa"), sa);
    // LCPs between adjacent figure-4 suffixes: 1 2 1 0 1 3 0 2.
    const std::vector<std::size_t> expected_lcp{1, 2, 1, 0, 1, 3, 0, 2};
    EXPECT_EQ(lcp, expected_lcp);
}

TEST(SuffixArray, RankCompressPreservesOrderAndReservesZero)
{
    const Sequence s{900, 5, 900, 7};
    const auto ranks = RankCompress(s);
    const std::vector<std::uint32_t> expected{3, 1, 3, 2};
    EXPECT_EQ(ranks, expected);
}

struct SuffixCase {
    std::size_t n;
    std::uint64_t sigma;
    std::uint64_t seed;
};

class SuffixArrayProperty
    : public ::testing::TestWithParam<SuffixCase> {};

TEST_P(SuffixArrayProperty, BothAlgorithmsMatchNaiveOracle)
{
    const auto [n, sigma, seed] = GetParam();
    support::Rng rng(seed);
    const Sequence s = RandomSeq(rng, n, sigma);
    const auto expected = NaiveSuffixArray(s);
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kSais), expected);
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kPrefixDoubling),
              expected);
    EXPECT_EQ(ComputeLcp(s, expected), NaiveLcp(s, expected));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SuffixArrayProperty,
    ::testing::Values(SuffixCase{1, 1, 1}, SuffixCase{2, 1, 2},
                      SuffixCase{16, 2, 3}, SuffixCase{64, 2, 4},
                      SuffixCase{64, 4, 5}, SuffixCase{200, 3, 6},
                      SuffixCase{200, 26, 7}, SuffixCase{333, 2, 8},
                      SuffixCase{512, 8, 9}, SuffixCase{1000, 2, 10},
                      SuffixCase{1000, 64, 11}));

class PeriodicSuffixProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PeriodicSuffixProperty, AgreesOnPeriodicTaskStreams)
{
    const auto [period, noise] = GetParam();
    const Sequence s = PeriodicSeq(600, period, noise);
    const auto expected = NaiveSuffixArray(s);
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kSais), expected);
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kPrefixDoubling),
              expected);
    EXPECT_EQ(ComputeLcp(s, expected), NaiveLcp(s, expected));
}

INSTANTIATE_TEST_SUITE_P(
    PeriodicInputs, PeriodicSuffixProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 7, 24, 100),
                       ::testing::Values(0, 13, 50)));

TEST(SuffixArray, AlgorithmsAgreeOnLargeLowEntropyInput)
{
    // A long all-equal run is the classic suffix-array stress case.
    Sequence s(20000, 5);
    for (std::size_t i = 0; i < s.size(); i += 997) {
        s[i] = 6;
    }
    EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kSais),
              BuildSuffixArray(s, SuffixAlgorithm::kPrefixDoubling));
}

TEST(SuffixArray, SuffixArrayIsAPermutation)
{
    support::Rng rng(99);
    const Sequence s = RandomSeq(rng, 5000, 3);
    auto sa = BuildSuffixArray(s);
    std::sort(sa.begin(), sa.end());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i], i);
    }
}

TEST(SuffixArray, AppWindowsMatchNaiveOracle)
{
    // Windows the analysis loop mines, of 250 to 2 000 tokens: periodic
    // task streams drive SA-IS through its deepest recursion, over
    // each application's own alphabet.
    for (const test::NamedStream& stream : test::FourByFourAppStreams()) {
        const std::vector<std::span<const Symbol>> windows =
            test::RulerWindows(stream.tokens, 250, 2000);
        for (const std::size_t k : {1, 2, 4, 8}) {
            ASSERT_LE(k, windows.size()) << stream.app;
            const Sequence s(windows[k - 1].begin(), windows[k - 1].end());
            const auto expected = NaiveSuffixArray(s);
            EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kSais), expected)
                << stream.app << " window " << k;
            EXPECT_EQ(BuildSuffixArray(s, SuffixAlgorithm::kPrefixDoubling),
                      expected)
                << stream.app << " window " << k;
            EXPECT_EQ(ComputeLcp(s, expected), NaiveLcp(s, expected))
                << stream.app << " window " << k;
        }
    }
}

}  // namespace
}  // namespace apo::strings
