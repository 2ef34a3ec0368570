#include "strings/suffix_array.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace apo::strings {

namespace {

constexpr SuffixIndex kNone = std::numeric_limits<SuffixIndex>::max();

/** Throws unless `n` suffixes (the sentinel's included) index below
 * kNone, which the induce passes use as their empty-slot marker. */
void
CheckSuffixIndexRange(std::size_t n)
{
    if (n >= kNone) {
        throw std::length_error("suffix array input exceeds 32-bit indices");
    }
}

/** Per-recursion-level SA-IS scratch (one per depth, reused forever). */
struct SaisLevel {
    std::vector<std::uint8_t> is_s;
    std::vector<SuffixIndex> counts;
    std::vector<SuffixIndex> buckets;
    std::vector<SuffixIndex> lms_positions;
    std::vector<SuffixIndex> reduced;
    std::vector<SuffixIndex> reduced_sa;
};

/**
 * SA-IS induced-sorting suffix array construction.
 *
 * `s[0..n)` holds values in [0, alphabet), with s[n - 1] == 0 the
 * unique, smallest sentinel. Fills sa[0..n) with the suffix array of
 * `s` (including the sentinel suffix at sa[0]). All temporaries come
 * from `levels[depth]`, created on first use and reused afterwards,
 * and from the unused part of `sa` itself.
 */
void
SaIs(const SuffixIndex* s, SuffixIndex n, SuffixIndex alphabet,
     SuffixIndex* sa, std::vector<std::unique_ptr<SaisLevel>>& levels,
     std::size_t depth)
{
    if (n == 1) {
        sa[0] = 0;
        return;
    }
    if (levels.size() <= depth) {
        levels.resize(depth + 1);
    }
    if (levels[depth] == nullptr) {
        levels[depth] = std::make_unique<SaisLevel>();
    }
    SaisLevel& lvl = *levels[depth];

    // One backward pass classifies suffixes as S-type (1) or L-type
    // (0), counts each symbol's bucket and collects the LMS positions
    // (S-type after L-type). Byte array + bitwise fold keeps the type
    // DP branch-free (vector<bool> proxies cost a shift/mask per access
    // in this loop).
    lvl.is_s.resize(n);
    std::uint8_t* const is_s = lvl.is_s.data();
    auto is_lms = [is_s](SuffixIndex i) {
        return i > 0 && is_s[i] && !is_s[i - 1];
    };
    lvl.counts.assign(alphabet, 0);
    SuffixIndex* const counts = lvl.counts.data();
    lvl.lms_positions.clear();
    is_s[n - 1] = 1;
    ++counts[s[n - 1]];
    for (SuffixIndex i = n - 1; i-- > 0;) {
        is_s[i] = static_cast<std::uint8_t>(
            (s[i] < s[i + 1]) |
            (static_cast<std::uint8_t>(s[i] == s[i + 1]) & is_s[i + 1]));
        ++counts[s[i]];
        if (is_s[i + 1] > is_s[i]) {
            lvl.lms_positions.push_back(i + 1);
        }
    }
    std::reverse(lvl.lms_positions.begin(), lvl.lms_positions.end());

    // Bucket boundaries per symbol.
    lvl.buckets.resize(alphabet);
    SuffixIndex* const buckets = lvl.buckets.data();
    auto bucket_heads = [&] {
        SuffixIndex sum = 0;
        for (SuffixIndex c = 0; c < alphabet; ++c) {
            buckets[c] = sum;
            sum += counts[c];
        }
    };
    auto bucket_tails = [&] {
        SuffixIndex sum = 0;
        for (SuffixIndex c = 0; c < alphabet; ++c) {
            sum += counts[c];
            buckets[c] = sum;
        }
    };

    // Induce the full order from the (partially or fully) sorted LMS
    // suffixes currently placed in `sa`. The empty/sentinel test folds
    // into one compare: j - 1 < n rejects both kNone and 0 (both wrap
    // above n), replacing the three-way check of the textbook loop.
    auto induce = [&] {
        // Left-to-right pass places L-type suffixes at bucket heads.
        bucket_heads();
        for (SuffixIndex i = 0; i < n; ++i) {
            const SuffixIndex j = sa[i] - 1;
            if (j < n && !is_s[j]) {
                sa[buckets[s[j]]++] = j;
            }
        }
        // Right-to-left pass places S-type suffixes at bucket tails.
        bucket_tails();
        for (SuffixIndex i = n; i-- > 0;) {
            const SuffixIndex j = sa[i] - 1;
            if (j < n && is_s[j]) {
                sa[--buckets[s[j]]] = j;
            }
        }
    };

    // Step 1: place LMS suffixes in position order at bucket tails and
    // induce to sort the LMS *substrings*.
    const SuffixIndex m = static_cast<SuffixIndex>(lvl.lms_positions.size());
    std::fill_n(sa, n, kNone);
    bucket_tails();
    for (SuffixIndex i = m; i-- > 0;) {
        const SuffixIndex p = lvl.lms_positions[i];
        sa[--buckets[s[p]]] = p;
    }
    induce();

    // Step 2: name the LMS substrings in their sorted order. Compact
    // the sorted LMS positions into sa[0..m); LMS positions are at
    // least two apart, so sa[m + p / 2] is a private slot per position
    // p in the free tail (m <= n / 2). Each slot first holds the
    // length of p's LMS substring, through the next LMS position. Two
    // LMS substrings are equal iff their lengths and symbols are: both
    // end in an S-type position, and the types before it follow from
    // the symbols.
    SuffixIndex sorted = 0;
    for (SuffixIndex i = 0; i < n; ++i) {
        if (sa[i] != kNone && is_lms(sa[i])) {
            sa[sorted++] = sa[i];
        }
    }
    assert(sorted == m);
    std::fill_n(sa + m, n - m, kNone);
    for (SuffixIndex k = 0; k + 1 < m; ++k) {
        const SuffixIndex p = lvl.lms_positions[k];
        sa[m + p / 2] = lvl.lms_positions[k + 1] - p + 1;
    }
    sa[m + (n - 1) / 2] = 1;  // the sentinel, the last LMS position
    SuffixIndex num_names = 0;
    SuffixIndex prev = 0, prev_length = 0;
    for (SuffixIndex i = 0; i < m; ++i) {
        const SuffixIndex p = sa[i];
        const SuffixIndex length = sa[m + p / 2];
        if (i == 0 || length != prev_length ||
            !std::equal(s + p, s + p + length, s + prev)) {
            ++num_names;
        }
        sa[m + p / 2] = num_names - 1;
        prev = p;
        prev_length = length;
    }

    // Step 3: sort the LMS suffixes into sa[0..m). Distinct names mean
    // the substring order already is the suffix order; otherwise
    // recurse on the names in text order.
    if (num_names < m) {
        lvl.reduced.resize(m);
        SuffixIndex k = 0;
        for (SuffixIndex i = m; i < n; ++i) {
            if (sa[i] != kNone) {
                lvl.reduced[k++] = sa[i];
            }
        }
        lvl.reduced_sa.resize(m);
        // `lvl` stays valid across the recursion: resizing `levels`
        // moves the unique_ptrs, not the SaisLevel objects.
        SaIs(lvl.reduced.data(), m, num_names, lvl.reduced_sa.data(),
             levels, depth + 1);
        for (SuffixIndex i = 0; i < m; ++i) {
            sa[i] = lvl.lms_positions[lvl.reduced_sa[i]];
        }
    }

    // Step 4: final induce from the sorted LMS suffixes, moved to their
    // bucket tails last to first (a suffix never moves left, so the
    // entries still to move are never overwritten).
    std::fill_n(sa + m, n - m, kNone);
    bucket_tails();
    for (SuffixIndex i = m; i-- > 0;) {
        const SuffixIndex p = sa[i];
        sa[i] = kNone;
        sa[--buckets[s[p]]] = p;
    }
    induce();
}

}  // namespace

/** Workspace backing store (incomplete in the header on purpose). */
struct SuffixWorkspace::Rep {
    std::vector<std::unique_ptr<SaisLevel>> levels;
    std::vector<std::uint32_t> compressed;
    std::vector<Symbol> sorted;
    // Prefix-doubling radix buffers.
    std::vector<SuffixIndex> rank;
    std::vector<SuffixIndex> tmp;
    std::vector<SuffixIndex> counts;
    std::vector<SuffixIndex> by_second;
};

SuffixWorkspace::SuffixWorkspace() : rep_(std::make_unique<Rep>()) {}
SuffixWorkspace::~SuffixWorkspace() = default;

namespace {

/** O(n log n) prefix-doubling construction with radix sorting into
 * sa[0..n). */
void
BuildDoubling(const std::uint32_t* s, SuffixIndex n, SuffixIndex* sa,
              std::vector<SuffixIndex>& rank, std::vector<SuffixIndex>& tmp,
              std::vector<SuffixIndex>& counts,
              std::vector<SuffixIndex>& by_second)
{
    if (n == 0) {
        return;
    }
    rank.resize(n);
    tmp.resize(n);
    std::iota(sa, sa + n, 0);
    for (SuffixIndex i = 0; i < n; ++i) {
        rank[i] = s[i];
    }
    // Radix sort `sa` by (rank[i], rank[i + k]) for doubling k.
    for (SuffixIndex k = 1;; k <<= 1) {
        auto key2 = [&](SuffixIndex i) {
            return i + k < n ? rank[i + k] + 1 : 0;
        };
        // Stable counting sort by second key, then by first key.
        const SuffixIndex buckets =
            *std::max_element(rank.begin(), rank.end()) + 2;
        counts.assign(buckets + 1, 0);
        for (SuffixIndex i = 0; i < n; ++i) {
            ++counts[key2(i) + 1];
        }
        std::partial_sum(counts.begin(), counts.end(), counts.begin());
        by_second.resize(n);
        for (SuffixIndex i = 0; i < n; ++i) {
            by_second[counts[key2(i)]++] = i;
        }
        counts.assign(buckets + 1, 0);
        for (SuffixIndex i = 0; i < n; ++i) {
            ++counts[rank[i] + 1];
        }
        std::partial_sum(counts.begin(), counts.end(), counts.begin());
        for (SuffixIndex idx = 0; idx < n; ++idx) {
            const SuffixIndex i = by_second[idx];
            sa[counts[rank[i]]++] = i;
        }
        // Re-rank.
        tmp[sa[0]] = 0;
        SuffixIndex r = 0;
        for (SuffixIndex i = 1; i < n; ++i) {
            const SuffixIndex a = sa[i - 1], b = sa[i];
            if (rank[a] != rank[b] || key2(a) != key2(b)) {
                ++r;
            }
            tmp[b] = r;
        }
        rank.swap(tmp);
        if (r + 1 == n) {
            break;
        }
    }
}

}  // namespace

std::size_t
RankCompressInto(std::span<const Symbol> s,
                 std::vector<Symbol>& sorted_scratch,
                 std::vector<std::uint32_t>& out)
{
    sorted_scratch.assign(s.begin(), s.end());
    std::sort(sorted_scratch.begin(), sorted_scratch.end());
    sorted_scratch.erase(
        std::unique(sorted_scratch.begin(), sorted_scratch.end()),
        sorted_scratch.end());
    out.resize(s.size());
    const Symbol* const base = sorted_scratch.data();
    const Symbol* const end = base + sorted_scratch.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
        const Symbol* it = std::lower_bound(base, end, s[i]);
        // +1 reserves rank 0 for the SA-IS sentinel.
        out[i] = static_cast<std::uint32_t>(it - base) + 1;
    }
    return sorted_scratch.size();
}

std::vector<std::uint32_t>
RankCompress(const Sequence& s)
{
    std::vector<Symbol> sorted;
    std::vector<std::uint32_t> out;
    RankCompressInto(s, sorted, out);
    return out;
}

std::size_t
RankTable::Home(Symbol symbol) const
{
    return static_cast<std::size_t>((symbol * 0x9e3779b97f4a7c15ull) >>
                                    index_shift_);
}

std::uint32_t
RankTable::Find(Symbol symbol) const
{
    if (index_.empty()) {
        return 0;
    }
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Home(symbol);; i = (i + 1) & mask) {
        const Slot& slot = index_[i];
        if (slot.rank == 0 || slot.symbol == symbol) {
            return slot.rank;
        }
    }
}

std::size_t
RankTable::CompressInto(std::span<const Symbol> s, std::uint32_t* out)
{
    fresh_.clear();
    for (std::size_t i = 0; i < s.size(); ++i) {
        out[i] = Find(s[i]);
        if (out[i] == 0) {
            fresh_.push_back(s[i]);
        }
    }
    if (fresh_.empty()) {
        return 0;
    }
    std::sort(fresh_.begin(), fresh_.end());
    fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
    merged_.resize(sorted_.size() + fresh_.size());
    std::merge(sorted_.begin(), sorted_.end(), fresh_.begin(), fresh_.end(),
               merged_.begin());
    sorted_.swap(merged_);
    // Admitting symbols shifted ranks above them: recompress every
    // position against the settled table.
    RebuildIndex();
    for (std::size_t i = 0; i < s.size(); ++i) {
        out[i] = Find(s[i]);
    }
    return fresh_.size();
}

void
RankTable::Clear()
{
    sorted_.clear();
    std::fill(index_.begin(), index_.end(), Slot{});
}

void
RankTable::RebuildIndex()
{
    // At most half full, so every probe sequence ends at an empty slot.
    const std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(2 * sorted_.size(), 16));
    index_.assign(slots, Slot{});
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    const std::size_t mask = slots - 1;
    for (std::size_t r = 0; r < sorted_.size(); ++r) {
        std::size_t i = Home(sorted_[r]);
        while (index_[i].rank != 0) {
            i = (i + 1) & mask;
        }
        index_[i] = Slot{sorted_[r], static_cast<std::uint32_t>(r + 1)};
    }
}

void
SaisInto(std::span<const std::uint32_t> ranks_with_sentinel,
         std::size_t alphabet, std::vector<SuffixIndex>& sa,
         SuffixWorkspace& workspace)
{
    const std::size_t n = ranks_with_sentinel.size();
    CheckSuffixIndexRange(n);
    CheckSuffixIndexRange(alphabet);
    assert(n > 0 && ranks_with_sentinel.back() == 0);
    sa.resize(n);
    SaIs(ranks_with_sentinel.data(), static_cast<SuffixIndex>(n),
         static_cast<SuffixIndex>(alphabet), sa.data(),
         workspace.rep_->levels, 0);
    assert(sa[0] == n - 1);
}

void
BuildSuffixArrayInto(std::span<const Symbol> s, std::vector<SuffixIndex>& sa,
                     SuffixWorkspace& workspace, SuffixAlgorithm algorithm)
{
    const std::size_t n = s.size();
    CheckSuffixIndexRange(n + 1);
    SuffixWorkspace::Rep& rep = *workspace.rep_;
    const std::size_t distinct =
        RankCompressInto(s, rep.sorted, rep.compressed);
    if (algorithm == SuffixAlgorithm::kPrefixDoubling) {
        sa.resize(n + 1);
        sa[0] = static_cast<SuffixIndex>(n);
        BuildDoubling(rep.compressed.data(), static_cast<SuffixIndex>(n),
                      sa.data() + 1, rep.rank, rep.tmp, rep.counts,
                      rep.by_second);
        return;
    }
    // SA-IS needs a unique smallest sentinel at the end.
    rep.compressed.push_back(0);
    SaisInto(rep.compressed, distinct + 1, sa, workspace);
}

std::vector<std::size_t>
BuildSuffixArray(const Sequence& s, SuffixAlgorithm algorithm)
{
    std::vector<SuffixIndex> sa;
    SuffixWorkspace workspace;
    BuildSuffixArrayInto(s, sa, workspace, algorithm);
    return std::vector<std::size_t>(sa.begin() + 1, sa.end());
}

void
ComputeLcpInto(std::span<const Symbol> seq, std::span<const SuffixIndex> sa,
               std::vector<SuffixIndex>& lcp,
               std::vector<SuffixIndex>& inverse_scratch)
{
    const std::size_t n = seq.size();
    assert(sa.size() == n);
    lcp.clear();
    if (n <= 1) {
        return;
    }
    // Every rank but the last gets exactly one entry below.
    lcp.resize(n - 1);
    inverse_scratch.resize(n);
    std::vector<SuffixIndex>& inverse = inverse_scratch;
    for (std::size_t i = 0; i < n; ++i) {
        inverse[sa[i]] = static_cast<SuffixIndex>(i);
    }
    const Symbol* const s = seq.data();
    std::size_t h = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (inverse[i] + 1 == n) {
            h = 0;
            continue;
        }
        const std::size_t j = sa[inverse[i] + 1];
        const std::size_t limit = n - std::max(i, j);
        if (h < limit) {
            h += CommonPrefixLength(s + i + h, s + j + h, limit - h);
        }
        lcp[inverse[i]] = static_cast<SuffixIndex>(h);
        if (h > 0) {
            --h;
        }
    }
}

std::vector<std::size_t>
ComputeLcp(const Sequence& s, const std::vector<std::size_t>& sa)
{
    CheckSuffixIndexRange(s.size() + 1);
    const std::vector<SuffixIndex> sa32(sa.begin(), sa.end());
    std::vector<SuffixIndex> lcp, inverse;
    ComputeLcpInto(s, sa32, lcp, inverse);
    return std::vector<std::size_t>(lcp.begin(), lcp.end());
}

}  // namespace apo::strings
