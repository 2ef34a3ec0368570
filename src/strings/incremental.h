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
 * Bit-identity guarantee: Mine produces exactly the repeat set
 * FindRepeats would. Suffix order depends only on the relative order
 * of symbols, which the RankTable preserves (see suffix_array.h), and
 * candidate selection is the same FindRepeatsFromSa.
 */
#ifndef APOPHENIA_STRINGS_INCREMENTAL_H
#define APOPHENIA_STRINGS_INCREMENTAL_H

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
    std::uint64_t table_resets_ = 0;
};

}  // namespace apo::strings

#endif  // APOPHENIA_STRINGS_INCREMENTAL_H
