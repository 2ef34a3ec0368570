/**
 * @file
 * Oracles for the incremental StreamDigest.
 *
 * StreamsIdentical is the exact control-replication check the digest
 * replaces: an all-pairs walk over every node's retained operation
 * log. It needs retained logs.
 *
 * LegacyStreamDigest is the digest's earlier per-operation fold, kept
 * verbatim: one serial HashCombine chain over each operation's token,
 * mode, trace id and edges. The stream-digest constants pinned before
 * the lane-parallel fold were captured with it, so folding a run's
 * log with it and reproducing those constants shows the run issued
 * the very stream it issued then.
 */
#ifndef APOPHENIA_TESTS_STREAMS_IDENTICAL_H
#define APOPHENIA_TESTS_STREAMS_IDENTICAL_H

#include <cstdint>

#include "runtime/oplog.h"
#include "sim/cluster.h"
#include "support/hash.h"

namespace apo::test {

/** See file comment. */
class LegacyStreamDigest {
  public:
    void Consume(const rt::OpView& op)
    {
        std::uint64_t h = support::HashCombine(state_, op.token);
        h = support::HashCombine(h, static_cast<std::uint64_t>(op.mode));
        h = support::HashCombine(h, op.trace);
        for (const rt::Dependence& d : op.dependences) {
            h = support::HashCombine(h, d.from);
            h = support::HashCombine(h, d.to);
            h = support::HashCombine(
                h, static_cast<std::uint64_t>(d.kind));
        }
        state_ = h;
        ++count_;
    }

    std::uint64_t Value() const { return state_; }
    std::uint64_t Count() const { return count_; }

    /** The legacy digest of a retained log's resident operations. */
    static LegacyStreamDigest Of(const rt::OperationLog& log)
    {
        LegacyStreamDigest digest;
        for (const rt::OpView& op : log) {
            digest.Consume(op);
        }
        return digest;
    }

  private:
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
    std::uint64_t count_ = 0;
};

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
