/**
 * @file
 * Non-overlapping repeated substring mining (paper Algorithm 2,
 * "quick_matching_of_substrings" in the artifact).
 *
 * Given the tokenized task history, find a set of repeated substrings
 * together with non-overlapping occurrence positions that achieve high
 * coverage of the buffer (paper section 3's optimization problem). The
 * algorithm makes one pass over the suffix array to generate at most
 * two candidate occurrences per adjacent suffix pair, orders candidates
 * by decreasing length (then by substring and start position), and
 * greedily selects occurrences that do not overlap previously selected
 * ones.
 *
 * Ordering takes two stable counting passes over the candidates, first
 * by suffix rank and then by decreasing length, O(n) each. Candidates
 * of one length that share content lie in one SA interval, so they end
 * up in one contiguous run, and only that run is sorted by start:
 * O(r log r) for a run of r candidates. Selection marks chosen
 * positions in a bitmap; because candidates arrive longest first, an
 * occurrence overlaps a chosen one iff its first or last position is
 * already marked, so each test is O(1) and the marking is O(n) in
 * total. The remaining superlinear term is the O(n log n) sparse table
 * that answers the content-equality queries.
 *
 * FindRepeats is the convenience entry point; FindRepeatsInto /
 * FindRepeatsFromSa are the scratch-reusing layers (see
 * suffix_array.h's note on the two API layers). FindRepeatsFromSa
 * additionally lets a caller that builds its own suffix array + LCP —
 * the incremental miner, over its persistent rank table — run just
 * the candidate-selection stage.
 */
#ifndef APOPHENIA_STRINGS_REPEATS_H
#define APOPHENIA_STRINGS_REPEATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "strings/suffix_array.h"

namespace apo::strings {

/** A repeated substring and its selected non-overlapping occurrences. */
struct Repeat {
    /** The repeated token subsequence itself. */
    Sequence tokens;
    /** Start positions of the selected pairwise-disjoint occurrences,
     * in increasing order. */
    std::vector<std::size_t> starts;

    std::size_t Length() const { return tokens.size(); }
    /** Positions of the input covered by this repeat's occurrences. */
    std::size_t Coverage() const { return tokens.size() * starts.size(); }
};

/** Options for FindRepeats. */
struct RepeatOptions {
    /** Minimum repeat length to emit (paper constraint 1: traces must
     * be longer than a minimum length so the constant replay cost can
     * be amortized). */
    std::size_t min_length = 2;
    /** Drop repeats whose selected occurrence count is below this
     * (1 keeps everything; tracing candidates typically want >= 2). */
    std::size_t min_occurrences = 1;
    /** Suffix-array construction to use. */
    SuffixAlgorithm suffix_algorithm = SuffixAlgorithm::kSais;
};

/** FindRepeats' viability guard: inputs shorter than two minimum-length
 * occurrences cannot contain a selectable repeat and yield the empty
 * set without building any suffix structures. Shared with the
 * incremental miner so both paths agree on the degenerate case. */
inline bool
RepeatsViable(std::size_t n, const RepeatOptions& options)
{
    return n >= 2 * std::max<std::size_t>(options.min_length, 1);
}

/** A candidate occurrence: `length` tokens starting at `start`. */
struct RepeatCandidate {
    std::size_t length = 0;
    std::size_t start = 0;
};

/**
 * Reusable buffers for FindRepeatsInto / FindRepeatsFromSa. Contents
 * are internal staging only — nothing outlives the call that filled
 * it. One scratch per thread.
 */
struct RepeatsScratch {
    SuffixWorkspace suffix;
    /** IncrementalMiner's rank-table compression of the window, plus
     * the SA-IS sentinel. */
    std::vector<std::uint32_t> compressed;
    std::vector<std::size_t> sa;
    std::vector<std::size_t> lcp;
    std::vector<std::size_t> inverse;
    std::vector<std::size_t> rank;
    std::vector<std::size_t> group_starts;
    std::vector<RepeatCandidate> candidates;
    std::vector<std::vector<std::size_t>> rmq_levels;
    /** Counting-sort buckets and the candidates between the passes. */
    std::vector<std::size_t> counts;
    std::vector<RepeatCandidate> staged;
    /** One bit per window position: covered by a chosen occurrence. */
    std::vector<std::uint64_t> taken;
};

/** The calling thread's scratch. FindRepeats and every
 * IncrementalMiner draw their buffers from it, so a thread holds one
 * set however many miners it serves. */
RepeatsScratch& ThreadRepeatsScratch();

/**
 * Find repeated substrings of `s` with high non-overlapping coverage.
 *
 * The returned repeats are deduplicated (each distinct substring
 * appears once) and their selected occurrence sets are disjoint across
 * *all* returned repeats, satisfying constraint 2 of the paper's
 * optimization problem. Ordered by decreasing length, then by content.
 */
std::vector<Repeat> FindRepeats(const Sequence& s,
                                const RepeatOptions& options = {});

/** Scratch-reusing FindRepeats: bit-identical output into `out`. */
void FindRepeatsInto(std::span<const Symbol> s, const RepeatOptions& options,
                     RepeatsScratch& scratch, std::vector<Repeat>& out);

/**
 * Candidate generation + greedy selection over a caller-provided
 * suffix array and LCP array for `s` (which must satisfy
 * RepeatsViable(|s|, options)). This is everything FindRepeats does
 * after suffix construction, so callers that build sa/lcp their own
 * way still produce bit-identical repeat sets.
 */
void FindRepeatsFromSa(std::span<const Symbol> s,
                       const std::vector<std::size_t>& sa,
                       const std::vector<std::size_t>& lcp,
                       const RepeatOptions& options, RepeatsScratch& scratch,
                       std::vector<Repeat>& out);

/** Sum of Coverage() over a repeat set (the paper's coverage(T, f)). */
std::size_t TotalCoverage(const std::vector<Repeat>& repeats);

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_REPEATS_H
