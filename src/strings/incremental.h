/**
 * @file
 * Repeat mining over a persistent rank table.
 *
 * The analysis loop (core::TraceFinder) mines a window every
 * `multi_scale_factor` tokens, and a finder's windows draw on one
 * slowly drifting alphabet. A from-scratch FindRepeats pays a
 * rank-compression sort of every window's symbols before SA-IS.
 * IncrementalMiner keeps an order-preserving RankTable alive across
 * windows instead, so compressing a window is a lookup per token and
 * the sort runs only over symbols the table has not seen yet.
 *
 * The miner owns nothing else: the suffix array, LCP array, compressed
 * ranks and candidate-selection buffers come from the calling thread's
 * RepeatsScratch (the buffers FindRepeats uses), so a thread holds one
 * set of them however many miners it serves. Once those buffers have
 * grown to the largest window, a mined window allocates only the
 * repeats it emits: each Repeat's `tokens` and `starts`.
 *
 * Alphabet hygiene: a drifting token population (TorchSWE's pool
 * allocations) would grow the table, and with it the SA-IS bucket
 * arrays, without bound. Mine clears the table when it holds more than
 * 2L + 64 symbols, where L is the longest window this miner has mined
 * so far, so the table stays within a small multiple of `batchsize`.
 * The yardstick is L, not the current window: the ruler schedule and
 * the replay-anchored windows interleave 50-token windows with
 * 5 000-token ones, and a rule keyed on the current window would clear
 * the alphabet of any app with more than 164 symbols at every short
 * window, only for the next long window to admit it all again.
 *
 * Bit-identity guarantee: Mine produces exactly the repeat set
 * FindRepeats would. Suffix order depends only on the relative order
 * of symbols, which the RankTable preserves (see suffix_array.h),
 * whatever symbols it holds or has forgotten, and candidate selection
 * is the same FindRepeatsFromSa.
 */
#ifndef APOPHENIA_STRINGS_INCREMENTAL_H
#define APOPHENIA_STRINGS_INCREMENTAL_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "strings/repeats.h"
#include "strings/suffix_array.h"

namespace apo::strings {

/**
 * Repeat miner for a stream of windows over one alphabet. Equivalent
 * to calling FindRepeats(window, options) per window. Not thread-safe
 * (the rank table is shared state); the core layer serializes access
 * per finder.
 */
class IncrementalMiner {
  public:
    explicit IncrementalMiner(const RepeatOptions& options = {});

    /** Mine `window` into `out` (cleared first). Output is
     * bit-identical to FindRepeats(window, options). */
    void Mine(std::span<const Symbol> window, std::vector<Repeat>& out);

    /** Alphabet-hygiene resets of the persistent rank table. */
    std::uint64_t TableResets() const { return table_resets_; }

  private:
    RepeatOptions options_;
    RankTable table_;
    /** The longest window mined so far: the reset rule's yardstick. */
    std::size_t largest_window_ = 0;
    std::uint64_t table_resets_ = 0;
};

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_INCREMENTAL_H
