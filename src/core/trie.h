/**
 * @file
 * The candidate trie and trace scoring (paper section 4.3).
 *
 * Candidate traces produced by the asynchronous history mining are
 * ingested into a trie keyed by token hash. As the application issues
 * tasks, the replayer maintains a set of pointers into the trie — one
 * per potential in-progress match — advancing each pointer by the new
 * token or discarding it. A pointer reaching a node marked as a
 * candidate has matched that candidate's full token sequence.
 *
 * The trie is stored flat: nodes live in a pooled deque (stable
 * addresses, no per-node allocation beyond candidate stats). Each
 * node's first child edge is inlined in the node as a (token, child
 * pointer) pair; only second-and-later children — the root's fan-out
 * and real branch points — live in a flat (parent id, token) -> child
 * index hash map. Mined candidates are long and share few prefixes,
 * so nearly every node a match pointer sits on has exactly one child:
 * advancing it is one token compare, and the map is probed only at
 * nodes with more than one child. There is no per-node child
 * container to allocate or chase, which keeps the per-token replayer
 * step allocation-free.
 *
 * Each candidate carries the statistics the scoring function uses:
 * score = length × min(count, cap) with the count exponentially
 * decayed by the number of tasks since the candidate last appeared,
 * and a small multiplicative bonus once a candidate has been replayed.
 */
#ifndef APOPHENIA_CORE_TRIE_H
#define APOPHENIA_CORE_TRIE_H

#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "fault/checkpoint.h"
#include "runtime/task.h"
#include "runtime/trace.h"
#include "support/hash.h"

namespace apo::core {

/** Statistics and identity of one candidate trace. */
struct CandidateStats {
    /** Stable identifier, assigned at first insertion. */
    std::uint64_t id = 0;
    /** Number of tokens in the candidate. */
    std::size_t length = 0;
    /** Occurrence count (decayed lazily; see Appearances()). */
    double count = 0.0;
    /** Task counter at the last appearance. */
    std::uint64_t last_seen = 0;
    /** Runtime trace id once recorded, kNoTrace before. */
    rt::TraceId trace_id = rt::kNoTrace;
    /** Number of times the replayer fired this candidate. */
    std::size_t replays = 0;

    /** The decayed appearance count as of task counter `now`. */
    double Appearances(std::uint64_t now, double half_life) const
    {
        const double elapsed =
            static_cast<double>(now - std::min(now, last_seen));
        return count * std::exp2(-elapsed / half_life);
    }
};

/** Prefix-tree of candidate traces keyed by token hash. */
class CandidateTrie {
  public:
    struct Node {
        /** Set when a candidate ends at this node. */
        std::unique_ptr<CandidateStats> candidate;
        /** The first child edge, inline: set once num_children != 0.
         * Later children live in the trie's branch map. */
        Node* first_child = nullptr;
        rt::TokenHash first_token = 0;
        /** Index of this node in the pool (key of the branch map). */
        std::uint32_t id = 0;
        /** Outgoing-edge count; a leaf cannot extend any match. */
        std::uint32_t num_children = 0;

        bool HasChildren() const { return num_children != 0; }
    };

    CandidateTrie();

    /**
     * Insert (or refresh) a candidate. An existing candidate's count
     * is first decayed to `now` (with the given half life) and then
     * increased by `occurrences`; a new candidate starts there.
     * @return the candidate's stats node.
     */
    CandidateStats& Insert(const std::vector<rt::TokenHash>& tokens,
                           double occurrences, std::uint64_t now,
                           double half_life);

    /** Child of `node` (or of the root if null) along `token`;
     * nullptr if no candidate continues this way. */
    const Node* Step(const Node* node, rt::TokenHash token) const
    {
        if (node == nullptr) {
            node = Root();
        }
        if (node->first_child != nullptr && node->first_token == token) {
            return node->first_child;
        }
        return node->num_children > 1 ? StepBranch(*node, token) : nullptr;
    }

    /** Stats of the candidate ending at `node`, or nullptr. */
    static CandidateStats* CandidateAt(const Node* node)
    {
        return node == nullptr ? nullptr : node->candidate.get();
    }

    std::size_t NumCandidates() const { return num_candidates_; }

    /** Total trie nodes (memory accounting). */
    std::size_t NumNodes() const { return nodes_.size(); }

    const Node* Root() const { return &nodes_.front(); }

    /** Checkpoint hooks: every candidate's token path plus its full
     * statistics (id, decayed count, last-seen stamp, trace id,
     * replay count) and the id counter. Restore re-inserts the paths
     * into an empty trie — node ids may come out in a different pool
     * order, but every observable (Step walks, num_children,
     * candidate stats) is identical, so a restored replayer makes
     * bit-identical decisions. */
    void SaveState(fault::CheckpointWriter& writer) const;
    void LoadState(fault::CheckpointReader& reader);

  private:
    /** Walk `tokens` from the root, creating missing nodes (the
     * shared path step of Insert and LoadState). */
    Node* WalkOrCreate(std::span<const rt::TokenHash> tokens);

    /** Step's branch-map probe for a node with several children. */
    const Node* StepBranch(const Node& node, rt::TokenHash token) const;

    /** One edge of the branch map. */
    struct EdgeKey {
        std::uint32_t parent = 0;
        rt::TokenHash token = 0;

        bool operator==(const EdgeKey&) const = default;
    };
    struct EdgeKeyHash {
        std::size_t operator()(const EdgeKey& k) const
        {
            return static_cast<std::size_t>(
                support::HashCombine(support::SplitMix64(k.parent),
                                     k.token));
        }
    };

    /** Node pool; deque keeps addresses stable across growth. */
    std::deque<Node> nodes_;
    /** The branch map: (parent id, token) -> child id for every child
     * edge except each node's inline first one. */
    std::unordered_map<EdgeKey, std::uint32_t, EdgeKeyHash> edges_;
    std::size_t num_candidates_ = 0;
    std::uint64_t next_id_ = 1;
};

/** The paper's trace-selection scoring function. */
class TraceScorer {
  public:
    explicit TraceScorer(const ApopheniaConfig& config) : config_(&config) {}

    /** Score candidate `c` as of task counter `now`; higher is better. */
    double Score(const CandidateStats& c, std::uint64_t now) const
    {
        const double appearances =
            c.Appearances(now, config_->score_decay_half_life);
        const double capped =
            std::min(appearances, config_->score_count_cap);
        double score = static_cast<double>(c.length) * capped;
        if (c.replays > 0) {
            score *= config_->score_replayed_bonus;
        }
        return score;
    }

  private:
    const ApopheniaConfig* config_;
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_TRIE_H
