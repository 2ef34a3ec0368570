/**
 * @file
 * Properties of sim::StreamDigest over a real operation log.
 *
 * The digest is the only cross-node and cross-run identity check that
 * needs no retained log, so it must see every change to a field it
 * folds. ExpectDigestProperties(log, seed) checks, at seeded random
 * operations of `log`, that each of these single changes alters
 * StreamDigest::Of: a different token, mode or trace id on one
 * operation; a different from, to or kind on one edge; two edges of
 * an operation swapped; two adjacent operations swapped; one edge
 * dropped. It also checks that a streaming-retire consumer folds the
 * value Of() does, and that Restore(RawState(), Count()) at a seeded
 * cut continues to the same value.
 */
#ifndef APOPHENIA_TESTS_STREAM_DIGEST_PROPERTIES_H
#define APOPHENIA_TESTS_STREAM_DIGEST_PROPERTIES_H

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/oplog.h"
#include "sim/cluster.h"
#include "support/rng.h"

namespace apo::test {

/** One single change to one operation of a log. */
enum class LogEdit {
    kToken,      ///< the operation's token
    kMode,       ///< its analysis mode
    kTrace,      ///< its trace id
    kEdgeFrom,   ///< `from` of its first edge
    kEdgeTo,     ///< `to` of its first edge
    kEdgeKind,   ///< `kind` of its first edge
    kSwapEdges,  ///< its first two edges swapped
    kDropEdge,   ///< its last edge dropped
    kSwapOps,    ///< it and the next operation swapped
};

inline constexpr LogEdit kLogEdits[] = {
    LogEdit::kToken,     LogEdit::kMode,     LogEdit::kTrace,
    LogEdit::kEdgeFrom,  LogEdit::kEdgeTo,   LogEdit::kEdgeKind,
    LogEdit::kSwapEdges, LogEdit::kDropEdge, LogEdit::kSwapOps,
};

/** True if `edit` can apply at operation `at` of `log` and changes a
 * folded field (swapping two identical operations changes nothing). */
inline bool EditApplies(const rt::OperationLog& log, LogEdit edit,
                        std::size_t at)
{
    const rt::OpView op = log[at];
    switch (edit) {
      case LogEdit::kToken:
      case LogEdit::kMode:
      case LogEdit::kTrace:
        return true;
      case LogEdit::kEdgeFrom:
      case LogEdit::kEdgeTo:
      case LogEdit::kEdgeKind:
      case LogEdit::kDropEdge:
        return !op.dependences.empty();
      case LogEdit::kSwapEdges:
        return op.dependences.size() >= 2;
      case LogEdit::kSwapOps: {
        if (at + 1 >= log.size()) {
            return false;
        }
        const rt::OpView next = log[at + 1];
        return op.token != next.token || op.mode != next.mode ||
               op.trace != next.trace ||
               !(op.dependences == next.dependences);
      }
    }
    return false;
}

/** StreamDigest::Of a copy of `log` with `edit` applied at `at`. */
inline sim::StreamDigest DigestOfEdited(const rt::OperationLog& log,
                                        LogEdit edit, std::size_t at)
{
    rt::OperationLog copy;
    std::vector<rt::Dependence> edges;
    const auto append = [&](const rt::OpView& op, bool edited) {
        rt::TaskLaunchView launch = op.launch;
        rt::AnalysisMode mode = op.mode;
        rt::TraceId trace = op.trace;
        edges.assign(op.dependences.begin(), op.dependences.end());
        if (edited) {
            switch (edit) {
              case LogEdit::kToken:
                launch.token ^= 1;
                break;
              case LogEdit::kMode:
                mode = static_cast<rt::AnalysisMode>(
                    (static_cast<int>(mode) + 1) % 3);
                break;
              case LogEdit::kTrace:
                trace += 1;
                break;
              case LogEdit::kEdgeFrom:
                edges.front().from ^= 1;
                break;
              case LogEdit::kEdgeTo:
                edges.front().to += 1;
                break;
              case LogEdit::kEdgeKind:
                edges.front().kind = static_cast<rt::DependenceKind>(
                    (static_cast<int>(edges.front().kind) + 1) % 3);
                break;
              case LogEdit::kSwapEdges:
                std::swap(edges[0], edges[1]);
                break;
              case LogEdit::kDropEdge:
                edges.pop_back();
                break;
              case LogEdit::kSwapOps:
                break;
            }
        }
        copy.Append(launch, mode, trace, op.analysis_cost_us,
                    op.replay_head, edges);
    };
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (edit == LogEdit::kSwapOps && i == at) {
            append(log[i + 1], false);
            append(log[i], false);
            ++i;
        } else {
            append(log[i], i == at);
        }
    }
    return sim::StreamDigest::Of(copy);
}

/** See file comment. Every edit runs at up to `per_edit` seeded
 * operations where it applies; returns how many edits of each kind
 * ran (in kLogEdits order), so a caller can require coverage. */
inline std::vector<std::size_t> ExpectDigestProperties(
    const rt::OperationLog& log, std::uint64_t seed,
    std::size_t per_edit = 3)
{
    const sim::StreamDigest want = sim::StreamDigest::Of(log);
    EXPECT_EQ(want.Count(), log.size());
    // The copy the edits are made on is faithful (no operation sits at
    // log.size(), so nothing is edited).
    EXPECT_EQ(want.Value(),
              DigestOfEdited(log, LogEdit::kToken, log.size()).Value());

    support::Rng rng(seed);
    std::vector<std::size_t> ran;
    for (const LogEdit edit : kLogEdits) {
        std::size_t done = 0;
        for (std::size_t attempt = 0;
             attempt < 64 * per_edit && done < per_edit && !log.empty();
             ++attempt) {
            const std::size_t at = rng.UniformInt(0, log.size() - 1);
            if (!EditApplies(log, edit, at)) {
                continue;
            }
            EXPECT_NE(DigestOfEdited(log, edit, at).Value(), want.Value())
                << "edit " << static_cast<int>(edit) << " at op " << at
                << " left the digest unchanged";
            ++done;
        }
        ran.push_back(done);
    }

    // The streaming-retire fold equals the post-hoc one.
    sim::StreamDigest streamed;
    rt::OperationLog streaming;
    streaming.EnableStreaming(
        [&streamed](const rt::OpView& op) { streamed.Consume(op); });
    for (std::size_t i = 0; i < log.size(); ++i) {
        const rt::OpView op = log[i];
        streaming.Append(op.launch, op.mode, op.trace, op.analysis_cost_us,
                         op.replay_head, op.dependences);
        if (rng.Bernoulli(0.1)) {
            streaming.SetRetireBound(i + 1);
        }
    }
    streaming.SetRetireBound(log.size());
    EXPECT_EQ(streamed.Value(), want.Value());
    EXPECT_EQ(streamed.Count(), want.Count());

    // A digest restored from a cut's raw state continues to the same
    // value.
    const std::size_t cut =
        log.empty() ? 0 : rng.UniformInt(0, log.size() - 1);
    sim::StreamDigest prefix;
    for (std::size_t i = 0; i < cut; ++i) {
        prefix.Consume(log[i]);
    }
    sim::StreamDigest restored;
    restored.Restore(prefix.RawState(), prefix.Count());
    for (std::size_t i = cut; i < log.size(); ++i) {
        restored.Consume(log[i]);
    }
    EXPECT_EQ(restored.Value(), want.Value());
    EXPECT_EQ(restored.Count(), want.Count());
    return ran;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_STREAM_DIGEST_PROPERTIES_H
