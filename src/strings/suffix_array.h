/**
 * @file
 * Suffix array and LCP array construction over token sequences.
 *
 * Apophenia reduces trace identification to string analysis over the
 * stream of task hash tokens (paper section 4.1). The repeat-mining
 * algorithm (paper Algorithm 2) is built on a suffix array plus a
 * longest-common-prefix array. Two constructions are provided:
 *
 *  - prefix doubling, O(n log n), simple and dependable;
 *  - SA-IS (induced sorting), O(n), matching the linear-time
 *    construction the paper cites [Kasai et al. for LCP; linear SA
 *    construction for the array itself].
 *
 * Both operate on sequences of 64-bit symbols (task hash tokens); the
 * alphabet is rank-compressed internally.
 *
 * Two API layers exist side by side:
 *
 *  - value-returning convenience functions (BuildSuffixArray,
 *    ComputeLcp, RankCompress) that allocate their results — fine for
 *    tests and one-shot callers;
 *  - `*Into` overloads that write into caller-owned buffers and draw
 *    all internal scratch from a SuffixWorkspace, so a steady-state
 *    caller (the analysis loop mines one window every
 *    `multi_scale_factor` tokens, forever) reaches a fixed point where
 *    construction performs zero heap allocations per window.
 *
 * Both layers produce bit-identical outputs for the same input.
 */
#ifndef APOPHENIA_STRINGS_SUFFIX_ARRAY_H
#define APOPHENIA_STRINGS_SUFFIX_ARRAY_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace apo::strings {

/** A symbol in a token sequence (a task hash token). */
using Symbol = std::uint64_t;

/** A sequence of symbols: the tokenized task stream. */
using Sequence = std::vector<Symbol>;

/** Which suffix-array construction to use. */
enum class SuffixAlgorithm {
    kPrefixDoubling,  ///< O(n log n) doubling with sorting.
    kSais,            ///< O(n) induced sorting (SA-IS).
};

/**
 * Length of the longest common prefix of a[0..limit) and b[0..limit).
 *
 * Four-wide XOR-fold main loop: one branch per four symbols until the
 * mismatch neighbourhood, then a scalar tail pins the exact index.
 * This is the hot comparison of Kasai's algorithm.
 */
inline std::size_t
CommonPrefixLength(const Symbol* a, const Symbol* b, std::size_t limit)
{
    std::size_t k = 0;
    while (k + 4 <= limit) {
        const Symbol diff = (a[k] ^ b[k]) | (a[k + 1] ^ b[k + 1]) |
                            (a[k + 2] ^ b[k + 2]) | (a[k + 3] ^ b[k + 3]);
        if (diff != 0) {
            break;
        }
        k += 4;
    }
    while (k < limit && a[k] == b[k]) {
        ++k;
    }
    return k;
}

/**
 * Reusable scratch for the `*Into` suffix constructions: per-recursion-
 * level SA-IS buffers, doubling radix buffers, and the rank-compression
 * staging area. One workspace serves any number of sequential calls;
 * buffers grow to the high-water mark and are then reused, so repeated
 * same-sized constructions allocate nothing. Not thread-safe: use one
 * workspace per thread.
 */
class SuffixWorkspace {
  public:
    SuffixWorkspace();
    ~SuffixWorkspace();
    SuffixWorkspace(const SuffixWorkspace&) = delete;
    SuffixWorkspace& operator=(const SuffixWorkspace&) = delete;

  private:
    struct Rep;
    std::unique_ptr<Rep> rep_;

    friend void BuildSuffixArrayInto(std::span<const Symbol>,
                                     std::vector<std::size_t>&,
                                     SuffixWorkspace&, SuffixAlgorithm);
    friend void SaisInto(std::span<const std::uint32_t>, std::size_t,
                         std::vector<std::size_t>&, SuffixWorkspace&);
};

/**
 * Build the suffix array of `s`: a permutation sa of [0, |s|) such that
 * the suffixes s[sa[0]..], s[sa[1]..], ... are in increasing
 * lexicographic order. Empty input yields an empty array.
 */
std::vector<std::size_t> BuildSuffixArray(
    const Sequence& s,
    SuffixAlgorithm algorithm = SuffixAlgorithm::kSais);

/**
 * Scratch-reusing BuildSuffixArray: writes the suffix array of `s` into
 * `sa` (resized to |s|), drawing all temporaries from `workspace`.
 * Output is bit-identical to BuildSuffixArray(s, algorithm).
 */
void BuildSuffixArrayInto(std::span<const Symbol> s,
                          std::vector<std::size_t>& sa,
                          SuffixWorkspace& workspace,
                          SuffixAlgorithm algorithm = SuffixAlgorithm::kSais);

/**
 * SA-IS over a caller-compressed sequence. `ranks_with_sentinel` holds
 * values in [1, alphabet) followed by a single trailing 0 sentinel (the
 * unique smallest symbol). Writes the suffix array of the real (non-
 * sentinel) suffixes into `sa`, exactly as BuildSuffixArray would for
 * the uncompressed sequence — callers that maintain their own
 * order-preserving rank compression (the incremental miner's persistent
 * rank table) use this to skip the per-call compression sort.
 */
void SaisInto(std::span<const std::uint32_t> ranks_with_sentinel,
              std::size_t alphabet, std::vector<std::size_t>& sa,
              SuffixWorkspace& workspace);

/**
 * Kasai's linear-time LCP construction.
 *
 * @return lcp with lcp[i] = length of the longest common prefix of the
 * suffixes starting at sa[i] and sa[i + 1], for i in [0, |s| - 1); the
 * returned array has size max(|s|, 1) - 1... (empty input yields an
 * empty array; size-1 input yields an empty array).
 */
std::vector<std::size_t> ComputeLcp(const Sequence& s,
                                    const std::vector<std::size_t>& sa);

/**
 * Scratch-reusing ComputeLcp: writes the LCP array into `lcp` using
 * `inverse_scratch` for the rank-inverse table. Bit-identical output.
 */
void ComputeLcpInto(std::span<const Symbol> s,
                    const std::vector<std::size_t>& sa,
                    std::vector<std::size_t>& lcp,
                    std::vector<std::size_t>& inverse_scratch);

/**
 * Rank-compress a 64-bit symbol sequence to a dense alphabet
 * [1, distinct] (0 is reserved for the SA-IS sentinel). Exposed for
 * testing.
 */
std::vector<std::uint32_t> RankCompress(const Sequence& s);

/**
 * Scratch-reusing RankCompress: writes ranks into `out` (resized to
 * |s|), staging the distinct-symbol sort in `sorted_scratch`.
 *
 * @return the number of distinct symbols in `s` (so the SA-IS alphabet
 * including the sentinel is the return value + 1).
 */
std::size_t RankCompressInto(std::span<const Symbol> s,
                             std::vector<Symbol>& sorted_scratch,
                             std::vector<std::uint32_t>& out);

/**
 * Persistent order-preserving rank table for incremental mining.
 *
 * Maps 64-bit symbols to dense ranks in [1, DistinctSymbols()], where
 * the rank order equals the symbol order over *every symbol the table
 * has ever admitted* (a superset of any one window). Because suffix
 * order depends only on the relative order of symbols — never on rank
 * density — a suffix array built over table ranks is bit-identical to
 * one built over per-window RankCompress output.
 *
 * The payoff: once a finder's alphabet has been admitted, compressing
 * a window is a lookup per token; the sort runs only over symbols the
 * table has not seen before.
 */
class RankTable {
  public:
    /**
     * Compress `s` positionwise into out[0..|s|). Previously-unseen
     * symbols are admitted first (shifting ranks above them), so the
     * result is always consistent with the post-call table.
     *
     * @return the number of new symbols admitted; 0 means every rank
     * is stable with respect to all earlier calls.
     */
    std::size_t CompressInto(std::span<const Symbol> s, std::uint32_t* out);

    std::size_t DistinctSymbols() const { return sorted_.size(); }

    /** SA-IS bucket bound for CompressInto output plus the 0 sentinel. */
    std::size_t AlphabetSize() const { return sorted_.size() + 1; }

    /** Forget all admitted symbols (alphabet-hygiene reset). */
    void Clear() { sorted_.clear(); }

  private:
    std::vector<Symbol> sorted_;  ///< admitted symbols, ascending
    std::vector<Symbol> fresh_;   ///< scratch: this call's new symbols
    std::vector<Symbol> merged_;  ///< scratch: merge staging
};

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_SUFFIX_ARRAY_H
