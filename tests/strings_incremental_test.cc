/**
 * @file
 * Differential tests of the rank-table repeat miner.
 *
 * The contract under test is bit-identity: IncrementalMiner::Mine must
 * return exactly what a from-scratch FindRepeats returns for every
 * window, however the persistent rank table got to its state. The
 * window sequences here stress that table — identical windows, grown
 * windows, period changes mid-stream, all-distinct token floods
 * (table resets), single-token runs, and shrink/grow patterns like
 * the ruler schedule's wrap — plus the scratch-reusing `*Into`
 * overloads against their allocating convenience twins, and the
 * RankTable's order-preservation invariant that makes the miner
 * sound.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "strings/identifiers.h"
#include "strings/incremental.h"
#include "strings/repeats.h"
#include "strings/suffix_array.h"
#include "support/rng.h"
#include "test_util.h"

namespace apo::strings {
namespace {

using test::PeriodicSeq;
using test::RandomSeq;

Sequence FibonacciWord(std::size_t min_length)
{
    Sequence a{0}, b{1};
    while (a.size() < min_length) {
        Sequence next = a;
        next.insert(next.end(), b.begin(), b.end());
        b = a;
        a = std::move(next);
    }
    a.resize(min_length);
    return a;
}

Sequence ThueMorse(std::size_t n)
{
    Sequence s(n);
    for (std::size_t i = 0; i < n; ++i) {
        s[i] = static_cast<Symbol>(__builtin_popcountll(i) & 1);
    }
    return s;
}

void ExpectRepeatsEqual(const std::vector<Repeat>& got,
                        const std::vector<Repeat>& want,
                        const std::string& where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].tokens, want[i].tokens)
            << where << " repeat " << i;
        EXPECT_EQ(got[i].starts, want[i].starts)
            << where << " repeat " << i;
    }
}

/** Run every window through one persistent miner and a from-scratch
 * FindRepeats, demanding bit-identical repeat sets. */
void DifferentialRun(const std::vector<Sequence>& windows,
                     const RepeatOptions& options,
                     IncrementalMiner& miner)
{
    std::vector<Repeat> got;
    for (std::size_t w = 0; w < windows.size(); ++w) {
        miner.Mine(windows[w], got);
        const std::vector<Repeat> want = FindRepeats(windows[w], options);
        ExpectRepeatsEqual(got, want, "window " + std::to_string(w));
    }
}

/** One Mine call's result. */
std::vector<Repeat> MineOnce(IncrementalMiner& miner,
                             const Sequence& window)
{
    std::vector<Repeat> out;
    miner.Mine(window, out);
    return out;
}

TEST(IncrementalMiner, PeriodChangeMidStreamStaysIdentical)
{
    const RepeatOptions options{.min_length = 4, .min_occurrences = 2};
    IncrementalMiner miner(options);

    // Phase one: period 8 (divides the 512 stride, so phase-one
    // windows are content-identical — the steady state). Phase two:
    // period 13 over a disjoint symbol range (novel alphabet, stride
    // not a multiple — every phase-two window is novel content).
    Sequence stream = PeriodicSeq(2048, 8);
    for (std::size_t i = 0; stream.size() < 4096; ++i) {
        stream.push_back(100 + (i % 13));
    }
    std::vector<Sequence> windows;
    for (std::size_t end = 512; end <= stream.size(); end += 512) {
        windows.emplace_back(stream.begin() + (end - 512),
                             stream.begin() + end);
    }
    DifferentialRun(windows, options, miner);
}

TEST(IncrementalMiner, AllDistinctTokensResetTheTableAndStayCorrect)
{
    const RepeatOptions options{.min_length = 2, .min_occurrences = 2};
    IncrementalMiner miner(options);

    // Every window is a fresh run of never-seen symbols: no repeats,
    // monotone alphabet growth, and eventually an alphabet-hygiene
    // reset of the persistent table.
    Symbol next = 1'000'000;
    std::vector<Sequence> windows;
    for (int w = 0; w < 40; ++w) {
        Sequence s(128);
        for (auto& v : s) {
            v = next++;
        }
        windows.push_back(std::move(s));
    }
    DifferentialRun(windows, options, miner);
    for (const Sequence& w : windows) {
        EXPECT_TRUE(FindRepeats(w, options).empty());
    }
    EXPECT_GT(miner.TableResets(), 0u);
}

TEST(IncrementalMiner, SingleTokenRuns)
{
    const RepeatOptions options{.min_length = 4, .min_occurrences = 2};
    IncrementalMiner miner(options);
    std::vector<Sequence> windows;
    for (const std::size_t len : {64u, 64u, 96u, 32u, 7u, 200u}) {
        windows.push_back(Sequence(len, 42));
    }
    windows.push_back(Sequence(100, 43));  // different single symbol
    DifferentialRun(windows, options, miner);
}

TEST(IncrementalMiner, WindowShrinkAndGrowAtRingWrap)
{
    const RepeatOptions options{.min_length = 4, .min_occurrences = 2};
    IncrementalMiner miner(options);
    const Sequence stream = PeriodicSeq(8192, 64, /*noise_every=*/97);

    // The ruler schedule's wrap: lengths cycle small-large-small, each
    // window ending at a moving stream position (so shrink and grow
    // both happen against a shifted predecessor).
    std::vector<Sequence> windows;
    std::size_t at = 0;
    for (int cycle = 0; cycle < 12; ++cycle) {
        for (const std::size_t len : {256u, 512u, 2048u, 128u}) {
            const std::size_t end =
                std::min(stream.size(), at + len);
            windows.emplace_back(stream.begin() + (end - len),
                                 stream.begin() + end);
            at = (at + 64) % (stream.size() - 2048);
        }
    }
    DifferentialRun(windows, options, miner);
}

TEST(IncrementalMiner, AdversarialWordsAndRandomWindows)
{
    const RepeatOptions options{.min_length = 3, .min_occurrences = 2};
    IncrementalMiner miner(options);
    support::Rng rng(7);

    std::vector<Sequence> windows;
    windows.push_back(FibonacciWord(512));
    windows.push_back(FibonacciWord(800));  // grown: shared prefix
    windows.push_back(ThueMorse(777));
    for (int i = 0; i < 10; ++i) {
        windows.push_back(RandomSeq(rng, 300 + 37 * i, 5));
    }
    windows.push_back(ThueMorse(777));  // stale now, not the previous
    DifferentialRun(windows, options, miner);
}

TEST(IncrementalMiner, PrefixDoublingFallsBackAndStaysIdentical)
{
    const RepeatOptions options{.min_length = 4,
                                .min_occurrences = 2,
                                .suffix_algorithm =
                                    SuffixAlgorithm::kPrefixDoubling};
    IncrementalMiner miner(options);
    const Sequence stream = PeriodicSeq(2048, 24);
    std::vector<Sequence> windows;
    for (std::size_t len = 128; len <= 2048; len *= 2) {
        windows.emplace_back(stream.begin(), stream.begin() + len);
    }
    windows.push_back(windows.back());
    DifferentialRun(windows, options, miner);
}

TEST(IncrementalMiner, BelowViabilityWindowsYieldEmptySets)
{
    const RepeatOptions options{.min_length = 8, .min_occurrences = 2};
    IncrementalMiner miner(options);
    const Sequence tiny = PeriodicSeq(15, 4);  // < 2 * min_length
    EXPECT_TRUE(MineOnce(miner, tiny).empty());
    EXPECT_TRUE(FindRepeats(tiny, options).empty());
    // And a viable window right after is unaffected.
    const Sequence ok = PeriodicSeq(256, 4);
    ExpectRepeatsEqual(MineOnce(miner, ok), FindRepeats(ok, options), "ok");
}

TEST(RankTable, OrderPreservationMakesSuffixArraysIdentical)
{
    // The miner's soundness argument: a suffix array built over
    // persistent-table ranks equals the from-scratch one, even though
    // the table's alphabet is a superset of the window's.
    RankTable table;
    SuffixWorkspace workspace;
    std::vector<std::uint32_t> ranks;
    std::vector<std::size_t> sa;
    support::Rng rng(11);

    std::vector<Sequence> windows;
    windows.push_back(RandomSeq(rng, 400, 20));
    windows.push_back(RandomSeq(rng, 300, 50));   // new symbols
    windows.push_back(windows.front());           // old symbols again
    windows.push_back(PeriodicSeq(512, 8));
    for (const Sequence& w : windows) {
        ranks.resize(w.size() + 1);
        table.CompressInto(w, ranks.data());
        ranks[w.size()] = 0;
        SaisInto(ranks, table.AlphabetSize(), sa, workspace);
        EXPECT_EQ(sa, BuildSuffixArray(w, SuffixAlgorithm::kSais));
    }
}

TEST(RankTable, SecondCompressionOfKnownSymbolsAdmitsNothing)
{
    RankTable table;
    const Sequence w = PeriodicSeq(128, 16);
    std::vector<std::uint32_t> first(w.size()), second(w.size());
    EXPECT_EQ(table.CompressInto(w, first.data()), 16u);
    EXPECT_EQ(table.CompressInto(w, second.data()), 0u);
    EXPECT_EQ(first, second);  // rank stability across calls
    EXPECT_EQ(table.DistinctSymbols(), 16u);
    table.Clear();
    EXPECT_EQ(table.DistinctSymbols(), 0u);
    EXPECT_EQ(table.CompressInto(w, second.data()), 16u);
}

TEST(ScratchOverloads, MatchTheConvenienceLayerBitForBit)
{
    support::Rng rng(3);
    SuffixWorkspace workspace;
    RepeatsScratch repeats_scratch;
    TandemScratch tandem_scratch;
    std::vector<std::size_t> sa, lcp, inverse;
    std::vector<std::uint32_t> ranks;
    std::vector<Symbol> sorted;
    std::vector<Repeat> repeats, tandems;
    const RepeatOptions options{.min_length = 3, .min_occurrences = 2};

    std::vector<Sequence> inputs;
    inputs.push_back(FibonacciWord(600));
    inputs.push_back(ThueMorse(512));
    inputs.push_back(Sequence(300, 9));
    inputs.push_back(PeriodicSeq(1000, 12, /*noise_every=*/31));
    for (int i = 0; i < 8; ++i) {
        inputs.push_back(RandomSeq(rng, 50 + 113 * i, 7));
    }
    inputs.push_back(Sequence{});       // empty
    inputs.push_back(Sequence{5});      // single symbol
    // One workspace and scratch across all inputs, interleaved sizes:
    // the reuse path must not leak state between calls.
    for (const Sequence& s : inputs) {
        EXPECT_EQ(RankCompressInto(s, sorted, ranks),
                  static_cast<std::size_t>(
                      std::set<Symbol>(s.begin(), s.end()).size()));
        EXPECT_EQ(ranks, RankCompress(s));
        for (const SuffixAlgorithm algorithm :
             {SuffixAlgorithm::kSais, SuffixAlgorithm::kPrefixDoubling}) {
            BuildSuffixArrayInto(s, sa, workspace, algorithm);
            EXPECT_EQ(sa, BuildSuffixArray(s, algorithm));
        }
        ComputeLcpInto(s, sa, lcp, inverse);
        EXPECT_EQ(lcp, ComputeLcp(s, sa));
        FindRepeatsInto(s, options, repeats_scratch, repeats);
        ExpectRepeatsEqual(repeats, FindRepeats(s, options), "repeats");
        FindTandemRepeatsInto(s, 3, tandem_scratch, tandems);
        ExpectRepeatsEqual(tandems, FindTandemRepeats(s, 3), "tandems");
    }
}

TEST(ScratchOverloads, CommonPrefixLengthAgreesWithStdMismatch)
{
    support::Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const Sequence a = RandomSeq(rng, 1 + rng.UniformInt(0, 40), 3);
        Sequence b = a;
        if (rng.Bernoulli(0.7) && !b.empty()) {
            b[rng.UniformInt(0, b.size() - 1)] ^= 1;
        }
        const std::size_t limit = std::min(a.size(), b.size());
        const std::size_t want = static_cast<std::size_t>(
            std::mismatch(a.begin(), a.begin() + limit, b.begin()).first -
            a.begin());
        EXPECT_EQ(CommonPrefixLength(a.data(), b.data(), limit), want);
    }
}

}  // namespace
}  // namespace apo::strings
