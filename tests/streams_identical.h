/**
 * @file
 * The exact control-replication oracle the incremental StreamDigest
 * replaces: an all-pairs walk over every node's retained operation
 * log. Tests use it to validate the digest; it needs retained logs.
 */
#ifndef APOPHENIA_TESTS_STREAMS_IDENTICAL_H
#define APOPHENIA_TESTS_STREAMS_IDENTICAL_H

#include "sim/cluster.h"

namespace apo::test {

/** True iff every node issued the same tokens, analysis modes, trace
 * ids and dependence edges at the same positions as node 0. */
inline bool StreamsIdentical(const sim::Cluster& cluster)
{
    const rt::OperationLog& reference = cluster.NodeRuntime(0).Log();
    for (std::size_t n = 1; n < cluster.Nodes(); ++n) {
        const rt::OperationLog& log = cluster.NodeRuntime(n).Log();
        if (log.size() != reference.size()) {
            return false;
        }
        for (std::size_t i = 0; i < log.size(); ++i) {
            const rt::OpView a = log[i];
            const rt::OpView b = reference[i];
            if (a.token != b.token || a.mode != b.mode ||
                a.trace != b.trace ||
                !(a.dependences == b.dependences)) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_STREAMS_IDENTICAL_H
