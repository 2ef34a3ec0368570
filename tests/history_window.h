/**
 * @file
 * Build a core::HistorySnapshot of a literal window the way a finder
 * builds one: the tokens go through a core::HistoryRing, so a window
 * longer than one block spans several. Lets the mining-cache tests
 * probe through the same snapshot path the finder uses.
 */
#ifndef APOPHENIA_TESTS_HISTORY_WINDOW_H
#define APOPHENIA_TESTS_HISTORY_WINDOW_H

#include <cstddef>
#include <vector>

#include "core/history.h"
#include "runtime/task.h"

namespace apo::test {

/** The snapshot keeps its blocks alive after the ring is gone. */
inline core::HistorySnapshot
SnapshotOf(const std::vector<rt::TokenHash>& window,
           std::size_t block_size = 4)
{
    core::HistoryRing ring(window.size(), block_size);
    for (const rt::TokenHash token : window) {
        ring.Append(token);
    }
    core::HistorySnapshot snapshot;
    ring.SnapshotLastN(window.size(), snapshot);
    return snapshot;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_HISTORY_WINDOW_H
