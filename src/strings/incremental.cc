#include "strings/incremental.h"

#include <algorithm>

namespace apo::strings {

IncrementalMiner::IncrementalMiner(const RepeatOptions& options)
    : options_(options)
{
}

void
IncrementalMiner::Mine(std::span<const Symbol> window,
                       std::vector<Repeat>& out)
{
    const std::size_t n = window.size();
    RepeatsScratch& scratch = ThreadRepeatsScratch();
    if (options_.suffix_algorithm != SuffixAlgorithm::kSais) {
        FindRepeatsInto(window, options_, scratch, out);
        return;
    }
    if (!RepeatsViable(n, options_)) {
        out.clear();
        return;
    }
    // Alphabet hygiene: a drifting token population would grow the
    // persistent table (and with it the SA-IS bucket arrays) without
    // bound. Reset once it far exceeds what the largest window mined
    // so far can reference; a short window after a long one must not
    // throw away the alphabet the next long window needs again.
    largest_window_ = std::max(largest_window_, n);
    if (table_.DistinctSymbols() > 2 * largest_window_ + 64) {
        table_.Clear();
        ++table_resets_;
    }
    scratch.compressed.resize(n + 1);
    table_.CompressInto(window, scratch.compressed.data());
    scratch.compressed[n] = 0;  // SA-IS sentinel
    SaisInto(scratch.compressed, table_.AlphabetSize(), scratch.sa,
             scratch.suffix);
    // scratch.sa[0] is the sentinel suffix.
    const std::span<const SuffixIndex> sa =
        std::span<const SuffixIndex>(scratch.sa).subspan(1);
    ComputeLcpInto(window, sa, scratch.lcp, scratch.inverse);
    FindRepeatsFromSa(window, sa, scratch.lcp, options_, scratch, out);
}

}  // namespace apo::strings
