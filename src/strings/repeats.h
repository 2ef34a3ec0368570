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
 * Both occurrences a suffix-array pair yields have one length and one
 * content, a prefix the pair's two suffixes share (an overlapping
 * pair's second copy starts a multiple of the period later, inside
 * that periodic prefix). So ordering sorts pairs, not candidates: one
 * stable counting pass by decreasing length, O(n),
 * which keeps the pairs of one length in suffix-rank order. The
 * candidates of one length that share content then come from one LCP
 * interval of ranks, a contiguous run of pairs. Selection marks chosen
 * positions in a bitmap; because candidates arrive longest first, an
 * occurrence overlaps a chosen one iff its first or last position is
 * already marked, so each test is O(1) and the marking is O(n) in
 * total.
 *
 * Selection is coverage-first: a candidate whose first or last
 * position is already covered can never be chosen, since coverage only
 * grows, so it is dropped before any content test or sort. Content
 * equality is an equivalence whose classes are contiguous in (length,
 * rank) order, so the survivors of one run are still contiguous, and
 * each survivor is compared only with the head of its run; a run's r
 * survivors are sorted by start, O(r log r), and re-tested as they are
 * chosen. Dropping candidates therefore changes neither the runs nor
 * what is selected. On mined task windows almost every candidate is
 * dropped: over the 1 038 S3D windows of the README's stage table,
 * 1.40M candidates leave 2 592 content tests.
 *
 * A content test asks whether the LCP minimum between the head's pair
 * and a later pair reaches their length. It is answered from the
 * minimum of every 64-entry LCP block plus a sparse table over those
 * n / 64 minima, built in O(n) per window; whatever the distance, a
 * query reads at most 128 LCP entries and two table entries.
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
     * (1 keeps everything; tracing candidates typically want >= 2).
     * A repeat always has a selected occurrence, so 0 acts as 1. */
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
    SuffixIndex length = 0;
    SuffixIndex start = 0;
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
    /** The sentinel suffix, then the window's suffix array. */
    std::vector<SuffixIndex> sa;
    std::vector<SuffixIndex> lcp;
    std::vector<SuffixIndex> inverse;
    /** Per-block LCP minima and their sparse table. */
    std::vector<SuffixIndex> lcp_blocks;
    /** Candidate length of each adjacent suffix-array pair (0: none),
     * the counting-sort buckets by length, and the pairs in order. */
    std::vector<SuffixIndex> pair_length;
    std::vector<SuffixIndex> length_counts;
    std::vector<SuffixIndex> pairs;
    /** The uncovered candidates of the content run being collected,
     * and the starts chosen from them. */
    std::vector<RepeatCandidate> run;
    std::vector<SuffixIndex> chosen;
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
                       std::span<const SuffixIndex> sa,
                       std::span<const SuffixIndex> lcp,
                       const RepeatOptions& options, RepeatsScratch& scratch,
                       std::vector<Repeat>& out);

/** Sum of Coverage() over a repeat set (the paper's coverage(T, f)). */
std::size_t TotalCoverage(const std::vector<Repeat>& repeats);

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_REPEATS_H
