#include "strings/repeats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace apo::strings {

namespace {

/**
 * O(1) range-minimum queries over the LCP array after O(n log n)
 * sparse-table preprocessing. Used to tell in constant time whether two
 * candidates of one length share their content. The table is built
 * into caller-owned level storage, which only ever grows, so repeated
 * constructions over windows of varying size reuse the buffers.
 */
class LcpRmq {
  public:
    LcpRmq(const std::vector<std::size_t>& lcp,
           std::vector<std::vector<std::size_t>>& levels)
        : table_(levels)
    {
        const std::size_t n = lcp.size();
        if (n == 0) {
            return;
        }
        const unsigned num_levels = std::bit_width(n);
        // Level j only answers queries of span 2^j, so it needs just
        // n - 2^j + 1 entries — sizing each level (instead of a full
        // copy of the LCP array per level) halves the preprocessing
        // memory overall. Levels past num_levels are left in place for
        // the next, longer window.
        if (table_.size() < num_levels) {
            table_.resize(num_levels);
        }
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
    std::vector<std::vector<std::size_t>>& table_;
};

/** Stable counting sort of `in` into `out` by `key(c)` in [0, num_keys). */
template <typename Key>
void
CountingSort(const std::vector<RepeatCandidate>& in, std::size_t num_keys,
             Key key, std::vector<std::size_t>& counts,
             std::vector<RepeatCandidate>& out)
{
    counts.assign(num_keys + 1, 0);
    for (const RepeatCandidate& c : in) {
        ++counts[key(c) + 1];
    }
    for (std::size_t k = 1; k <= num_keys; ++k) {
        counts[k] += counts[k - 1];  // counts[k]: first slot of key k
    }
    out.resize(in.size());
    for (const RepeatCandidate& c : in) {
        out[counts[key(c)]++] = c;
    }
}

}  // namespace

void
FindRepeatsFromSa(std::span<const Symbol> s, const std::vector<std::size_t>& sa,
                  const std::vector<std::size_t>& lcp,
                  const RepeatOptions& options, RepeatsScratch& scratch,
                  std::vector<Repeat>& out)
{
    out.clear();
    const std::size_t n = s.size();
    const std::size_t min_len = std::max<std::size_t>(options.min_length, 1);
    assert(RepeatsViable(n, options));

    scratch.rank.resize(n);
    std::vector<std::size_t>& rank = scratch.rank;
    for (std::size_t i = 0; i < n; ++i) {
        rank[sa[i]] = i;
    }
    const LcpRmq rmq(lcp, scratch.rmq_levels);

    // Length of the common prefix of the suffixes at positions a and b.
    auto common_prefix = [&](std::size_t a, std::size_t b) -> std::size_t {
        if (a == b) {
            return n - a;
        }
        const auto [lo, hi] = std::minmax(rank[a], rank[b]);
        return rmq.Min(lo, hi - 1);
    };

    // Candidate generation: one pass over adjacent suffix-array pairs
    // (paper Algorithm 2, lines 4-14).
    std::vector<RepeatCandidate>& candidates = scratch.candidates;
    candidates.clear();
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

    // Order by decreasing length, then by substring content, then by
    // increasing start position. Two stable counting passes (suffix
    // rank, then decreasing length) give length-then-rank order; the
    // candidates of one length that share content lie in one SA
    // interval, so they now form a contiguous run, which is sorted by
    // start when the selection below reaches it.
    CountingSort(
        candidates, n, [&](const RepeatCandidate& c) { return rank[c.start]; },
        scratch.counts, scratch.staged);
    CountingSort(
        scratch.staged, n,
        [&](const RepeatCandidate& c) { return n - c.length; },
        scratch.counts, candidates);
    auto same_content = [&](const RepeatCandidate& a,
                            const RepeatCandidate& b) {
        return a.length == b.length &&
               (a.start == b.start ||
                common_prefix(a.start, b.start) >= a.length);
    };

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
        for (std::size_t i = begin; i < end; ++i) {
            taken[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    };
    std::vector<std::size_t>& group_starts = scratch.group_starts;
    for (std::size_t lo = 0; lo < candidates.size();) {
        std::size_t hi = lo + 1;
        while (hi < candidates.size() &&
               same_content(candidates[hi - 1], candidates[hi])) {
            ++hi;
        }
        std::sort(candidates.begin() + lo, candidates.begin() + hi,
                  [](const RepeatCandidate& a, const RepeatCandidate& b) {
                      return a.start < b.start;
                  });
        group_starts.clear();
        for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t b = candidates[k].start;
            const std::size_t e = b + candidates[k].length;
            if (!covered(b) && !covered(e - 1)) {
                cover(b, e);
                group_starts.push_back(b);
            }
        }
        if (group_starts.size() >= options.min_occurrences) {
            const RepeatCandidate& head = candidates[lo];
            Repeat r;
            r.tokens.assign(s.begin() + head.start,
                            s.begin() + head.start + head.length);
            r.starts.assign(group_starts.begin(), group_starts.end());
            out.push_back(std::move(r));
        }
        lo = hi;
    }

#ifndef NDEBUG
    // The selection consumed candidates in the order of a comparison
    // sort by (length desc, content, start): content order is suffix
    // rank order, and equal content falls back to the start.
    for (std::size_t k = 1; k < candidates.size(); ++k) {
        const RepeatCandidate& a = candidates[k - 1];
        const RepeatCandidate& b = candidates[k];
        assert(a.length >= b.length);
        if (a.length == b.length) {
            assert(same_content(a, b) ? a.start <= b.start
                                      : rank[a.start] < rank[b.start]);
        }
    }
#endif
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
    ComputeLcpInto(s, scratch.sa, scratch.lcp, scratch.inverse);
    FindRepeatsFromSa(s, scratch.sa, scratch.lcp, options, scratch, out);
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
