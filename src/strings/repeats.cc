#include "strings/repeats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace apo::strings {

namespace {

/**
 * Range minima over the LCP array with an O(n) build: the minimum of
 * every kBlock-entry block, and a sparse table over those block minima
 * (level j holds the minimum of 2^j blocks from each start). A query
 * scans the partial blocks at its two ends, at most 2 * kBlock
 * entries, and reads two table entries for the whole blocks between
 * them. The table lives in caller-owned storage that keeps its
 * capacity, so windows of varying size reuse it.
 */
class LcpBlockMin {
  public:
    static constexpr std::size_t kBlock = 64;

    LcpBlockMin(std::span<const SuffixIndex> lcp,
                std::vector<SuffixIndex>& table)
        : lcp_(lcp), blocks_((lcp.size() + kBlock - 1) / kBlock)
    {
        const unsigned levels = std::bit_width(blocks_);
        table.resize(levels * blocks_);
        for (std::size_t b = 0; b < blocks_; ++b) {
            table[b] = ScanMin(b * kBlock,
                               std::min(lcp.size(), (b + 1) * kBlock));
        }
        for (unsigned j = 1; j < levels; ++j) {
            const std::size_t half = std::size_t{1} << (j - 1);
            SuffixIndex* const level = table.data() + j * blocks_;
            const SuffixIndex* const below = level - blocks_;
            for (std::size_t i = 0; i + 2 * half <= blocks_; ++i) {
                level[i] = std::min(below[i], below[i + half]);
            }
        }
        table_ = table.data();
    }

    /** Minimum of lcp[lo..hi] inclusive; requires lo <= hi. */
    SuffixIndex Min(std::size_t lo, std::size_t hi) const
    {
        const std::size_t first = lo / kBlock, last = hi / kBlock;
        if (first == last) {
            return ScanMin(lo, hi + 1);
        }
        SuffixIndex min = std::min(ScanMin(lo, (first + 1) * kBlock),
                                   ScanMin(last * kBlock, hi + 1));
        if (first + 1 < last) {
            // Whole blocks first + 1 .. last - 1: two overlapping
            // power-of-two spans of the table.
            const std::size_t span = last - first - 1;
            const unsigned j = std::bit_width(span) - 1;
            const SuffixIndex* const level = table_ + j * blocks_;
            min = std::min({min, level[first + 1],
                            level[last - (std::size_t{1} << j)]});
        }
        return min;
    }

  private:
    SuffixIndex ScanMin(std::size_t begin, std::size_t end) const
    {
        return *std::min_element(lcp_.begin() + begin, lcp_.begin() + end);
    }

    std::span<const SuffixIndex> lcp_;
    std::size_t blocks_;
    const SuffixIndex* table_ = nullptr;
};

#ifndef NDEBUG
/**
 * Whether selection may consume `b` right after `a` in the order of a
 * comparison sort by (length desc, content, start), with content
 * compared token by token rather than through the LCP structure.
 * `same_run` says that `b` continues `a`'s run, which needs equal
 * content; a new run of the same length needs greater content.
 */
bool
ConsumedInOrder(std::span<const Symbol> s, const RepeatCandidate& a,
                const RepeatCandidate& b, bool same_run)
{
    if (a.length != b.length) {
        return !same_run && a.length > b.length;
    }
    const std::span<const Symbol> x = s.subspan(a.start, a.length);
    const std::span<const Symbol> y = s.subspan(b.start, b.length);
    if (same_run) {
        return std::equal(x.begin(), x.end(), y.begin()) && a.start <= b.start;
    }
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
}
#endif

}  // namespace

void
FindRepeatsFromSa(std::span<const Symbol> s, std::span<const SuffixIndex> sa,
                  std::span<const SuffixIndex> lcp,
                  const RepeatOptions& options, RepeatsScratch& scratch,
                  std::vector<Repeat>& out)
{
    out.clear();
    const std::size_t n = s.size();
    const std::size_t min_len = std::max<std::size_t>(options.min_length, 1);
    const std::size_t min_occurrences =
        std::max<std::size_t>(options.min_occurrences, 1);
    assert(RepeatsViable(n, options));

    // Candidate generation (paper Algorithm 2, lines 4-14): adjacent
    // suffix-array pair i yields two disjoint occurrences of one
    // length, pair_length[i] (0: none). Two disjoint occurrences fit
    // in the window, so no length exceeds n / 2; pairs are counted
    // under the key max_len - length.
    const std::size_t max_len = n / 2;
    std::vector<SuffixIndex>& pair_length = scratch.pair_length;
    std::vector<SuffixIndex>& length_counts = scratch.length_counts;
    pair_length.resize(n - 1);
    length_counts.assign(max_len - min_len + 2, 0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::size_t p = lcp[i];
        std::size_t length = 0;
        if (p >= min_len) {
            const auto [s1, s2] = std::minmax(sa[i], sa[i + 1]);
            if (s1 + p <= s2) {
                // The two occurrences of the shared prefix are
                // disjoint: (p, s1) and (p, s2).
                length = p;
            } else {
                // Overlapping occurrences: the shared prefix is
                // periodic with period d = s2 - s1. Take two adjacent,
                // disjoint copies of the longest usable multiple of the
                // period: (l, s1) and (l, s1 + l).
                const std::size_t d = s2 - s1;
                std::size_t l = (p + d) / 2;
                l -= l % d;
                length = l >= min_len ? l : 0;
            }
        }
        assert(length <= max_len);
        pair_length[i] = static_cast<SuffixIndex>(length);
        if (length != 0) {
            ++length_counts[max_len - length + 1];
        }
    }

    // Order the pairs by decreasing length in one stable counting
    // pass: length_counts[k] becomes the first slot of key k.
    std::partial_sum(length_counts.begin(), length_counts.end(),
                     length_counts.begin());
    std::vector<SuffixIndex>& pairs = scratch.pairs;
    pairs.resize(length_counts.back());
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (pair_length[i] != 0) {
            pairs[length_counts[max_len - pair_length[i]]++] =
                static_cast<SuffixIndex>(i);
        }
    }

    // Greedy selection of non-overlapping occurrences (lines 16-20),
    // one content run at a time so that each distinct substring is
    // emitted once (the deduplication step). Candidates arrive by
    // decreasing length, so every chosen occurrence is at least as
    // long as the current one: [b, b + len) overlaps a chosen
    // occurrence iff position b or b + len - 1 is already covered.
    std::vector<std::uint64_t>& taken = scratch.taken;
    taken.assign((n + 63) / 64, 0);
    auto covered = [&](std::size_t i) {
        return (taken[i / 64] >> (i % 64)) & 1;
    };
    auto cover = [&](std::size_t begin, std::size_t end) {
        const std::size_t last = (end - 1) / 64;
        std::uint64_t mask = ~std::uint64_t{0} << (begin % 64);
        for (std::size_t w = begin / 64; w < last; ++w) {
            taken[w] |= mask;
            mask = ~std::uint64_t{0};
        }
        taken[last] |= mask & (~std::uint64_t{0} >> (63 - (end - 1) % 64));
    };
#ifndef NDEBUG
    RepeatCandidate last_consumed;
    bool consumed_any = false;
#endif
    // Choose a run's survivors in start order, each re-tested: an
    // earlier one may cover a later one.
    std::vector<RepeatCandidate>& run = scratch.run;
    std::vector<SuffixIndex>& chosen = scratch.chosen;
    auto select_run = [&] {
        std::sort(run.begin(), run.end(),
                  [](const RepeatCandidate& a, const RepeatCandidate& b) {
                      return a.start < b.start;
                  });
        chosen.clear();
        for (std::size_t k = 0; k < run.size(); ++k) {
            const RepeatCandidate& c = run[k];
#ifndef NDEBUG
            assert(!consumed_any ||
                   ConsumedInOrder(s, last_consumed, c, k > 0));
            last_consumed = c;
            consumed_any = true;
#endif
            if (!covered(c.start) && !covered(c.start + c.length - 1)) {
                cover(c.start, c.start + c.length);
                chosen.push_back(c.start);
            }
        }
        if (chosen.size() >= min_occurrences) {
            Repeat r;
            const std::span<const Symbol> tokens =
                s.subspan(run.front().start, run.front().length);
            r.tokens.assign(tokens.begin(), tokens.end());
            r.starts.assign(chosen.begin(), chosen.end());
            out.push_back(std::move(r));
        }
        run.clear();
    };

    // Both candidates of pair i hold a prefix shared by the suffixes
    // of ranks i and i + 1, so a content run is the pairs of one length
    // whose ranks lie in one LCP interval: contiguous in pair order.
    // The run's head pair h and a later pair i (h < i) of the same
    // length share content iff no LCP between them falls below it.
    const LcpBlockMin lcp_min(lcp, scratch.lcp_blocks);
    std::size_t head = 0;
    run.clear();
    for (const SuffixIndex i : pairs) {
        const SuffixIndex length = pair_length[i];
        const auto [s1, s2] = std::minmax(sa[i], sa[i + 1]);
        for (const SuffixIndex start :
             {s1, s1 + lcp[i] <= s2 ? s2 : s1 + length}) {
            // Coverage-first: coverage only grows, so a candidate with
            // a covered end can never be chosen; drop it before any
            // content test or sort.
            if (covered(start) || covered(start + length - 1)) {
                continue;
            }
            if (!run.empty() &&
                (run.front().length != length ||
                 (head != i && lcp_min.Min(head, i - 1) < length))) {
                select_run();
            }
            if (run.empty()) {
                head = i;
            }
            run.push_back({length, start});
        }
    }
    if (!run.empty()) {
        select_run();
    }
}

void
FindRepeatsInto(std::span<const Symbol> s, const RepeatOptions& options,
                RepeatsScratch& scratch, std::vector<Repeat>& out)
{
    out.clear();
    if (!RepeatsViable(s.size(), options)) {
        return;
    }
    BuildSuffixArrayInto(s, scratch.sa, scratch.suffix,
                         options.suffix_algorithm);
    const std::span<const SuffixIndex> sa =
        std::span<const SuffixIndex>(scratch.sa).subspan(1);
    ComputeLcpInto(s, sa, scratch.lcp, scratch.inverse);
    FindRepeatsFromSa(s, sa, scratch.lcp, options, scratch, out);
}

RepeatsScratch&
ThreadRepeatsScratch()
{
    thread_local RepeatsScratch scratch;
    return scratch;
}

std::vector<Repeat>
FindRepeats(const Sequence& s, const RepeatOptions& options)
{
    std::vector<Repeat> result;
    FindRepeatsInto(s, options, ThreadRepeatsScratch(), result);
    return result;
}

std::size_t
TotalCoverage(const std::vector<Repeat>& repeats)
{
    std::size_t total = 0;
    for (const Repeat& r : repeats) {
        total += r.Coverage();
    }
    return total;
}

}  // namespace apo::strings
