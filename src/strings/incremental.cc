#include "strings/incremental.h"

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
    // bound. Reset once it far exceeds what one window can reference.
    if (table_.DistinctSymbols() > 2 * n + 64) {
        table_.Clear();
        ++table_resets_;
    }
    scratch.compressed.resize(n + 1);
    table_.CompressInto(window, scratch.compressed.data());
    scratch.compressed[n] = 0;  // SA-IS sentinel
    SaisInto(scratch.compressed, table_.AlphabetSize(), scratch.sa,
             scratch.suffix);
    ComputeLcpInto(window, scratch.sa, scratch.lcp, scratch.inverse);
    FindRepeatsFromSa(window, scratch.sa, scratch.lcp, options_, scratch,
                      out);
}

}  // namespace apo::strings
