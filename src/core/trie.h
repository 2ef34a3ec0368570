/**
 * @file
 * The candidate trie and trace scoring (paper section 4.3).
 *
 * Candidate traces produced by the asynchronous history mining are
 * ingested into a trie keyed by token hash. As the application issues
 * tasks, the replayer maintains a set of pointers into the trie — one
 * per potential in-progress match — each standing for the trie walk
 * over the stream from its start. A pointer reaching a node marked as
 * a candidate has matched that candidate's full token sequence.
 *
 * The trie is stored flat and addressed by node id: nodes live in
 * fixed-size chunks, each holding its nodes and, side by side, the
 * token on the edge into each of them. Each node's first child edge is
 * inlined in the node as a child id; only second-and-later children —
 * the root's fan-out and real branch points — live in a flat
 * (parent id, token) -> child id hash map. A node is 16 B plus its
 * 8 B incoming token; candidate statistics live in a side table.
 *
 * Nodes are created in insertion order, so a mined candidate's fresh
 * suffix occupies consecutive ids. Each node records its *run*: the
 * number of steps along ids id+1, id+2, … that need no lookup
 * because every node passed has exactly one child, the next id, and
 * no candidate ends strictly inside the run. A run stays inside its
 * chunk, so its tokens are one contiguous slice (RunTokens), and the
 * replayer advances a match pointer through a whole run with one bulk
 * compare against the stream instead of one step per token. Runs are
 * maintained on every insert, so they always equal a forward scan.
 *
 * Each candidate carries the statistics the scoring function uses:
 * score = length × min(count, cap) with the count exponentially
 * decayed by the number of tasks since the candidate last appeared,
 * and a small multiplicative bonus once a candidate has been replayed.
 */
#ifndef APOPHENIA_CORE_TRIE_H
#define APOPHENIA_CORE_TRIE_H

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "runtime/task.h"
#include "runtime/trace.h"
#include "support/hash.h"

namespace apo::core {

/** Statistics of one candidate trace. */
struct CandidateStats {
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
    /** A node's index in the pool; the root is kRoot. */
    using NodeId = std::uint32_t;
    static constexpr NodeId kRoot = 0;
    /** "No such node": Step's miss and a leaf's first_child. */
    static constexpr NodeId kNoNode = ~NodeId{0};

    /** Node::candidate where no candidate ends. */
    static constexpr std::uint32_t kNoCandidate = ~std::uint32_t{0};

    struct Node {
        /** The first child edge, inline (its token is the child's
         * incoming token). Later children live in the branch map. */
        NodeId first_child = kNoNode;
        /** Outgoing-edge count; a leaf cannot extend any match. */
        std::uint32_t num_children = 0;
        /** Lookup-free steps from here along consecutive ids; see the
         * file comment and RunTokens(). */
        std::uint32_t run = 0;
        /** The candidate ending here (an index into the trie's stats
         * table), or kNoCandidate. */
        std::uint32_t candidate = kNoCandidate;

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

    /** Stats of the candidate `tokens`, or nullptr if there is none.
     * Walks whole runs at a time. */
    CandidateStats* Find(std::span<const rt::TokenHash> tokens) const;

    /** Child of `node` along `token`; kNoNode if no candidate
     * continues this way. */
    NodeId Step(NodeId node, rt::TokenHash token) const
    {
        const Node& n = At(node);
        if (n.first_child != kNoNode && TokenInto(n.first_child) == token) {
            return n.first_child;
        }
        return n.num_children > 1 ? StepBranch(node, token) : kNoNode;
    }

    const Node& At(NodeId node) const
    {
        return chunks_[node >> kChunkBits]->nodes[node & kChunkMask];
    }

    /** Stats of the candidate ending at `node`, or nullptr. */
    CandidateStats* CandidateAt(NodeId node) const
    {
        const std::uint32_t candidate = At(node).candidate;
        return candidate == kNoCandidate ? nullptr
                                         : candidates_[candidate].get();
    }

    /** The tokens along `node`'s run: the incoming tokens of nodes
     * node+1 … node+run, one contiguous slice. Walking k ≤ run of
     * them from `node` lands on node+k. */
    std::span<const rt::TokenHash> RunTokens(NodeId node) const
    {
        const Chunk& chunk = *chunks_[node >> kChunkBits];
        const NodeId slot = node & kChunkMask;
        return std::span(chunk.tokens).subspan(slot + 1, chunk.nodes[slot].run);
    }

    std::size_t NumCandidates() const { return candidates_.size(); }

    /** Total trie nodes (memory accounting). */
    std::size_t NumNodes() const { return num_nodes_; }

    /** Nodes per pool chunk. A run never crosses a multiple of it, so
     * every run is shorter than this. */
    static constexpr std::size_t kChunkSize = 1024;

  private:
    static constexpr unsigned kChunkBits = std::countr_zero(kChunkSize);
    static constexpr NodeId kChunkMask = kChunkSize - 1;

    /** kChunkSize consecutive nodes and, side by side, their incoming
     * tokens. */
    struct Chunk {
        std::array<Node, kChunkSize> nodes;
        std::array<rt::TokenHash, kChunkSize> tokens;
    };

    Node& NodeAt(NodeId node)
    {
        return chunks_[node >> kChunkBits]->nodes[node & kChunkMask];
    }

    /** The token on the edge into `node` (unused for the root). */
    rt::TokenHash TokenInto(NodeId node) const
    {
        return chunks_[node >> kChunkBits]->tokens[node & kChunkMask];
    }

    /** Append a node whose incoming edge carries `token`. */
    NodeId NewNode(rt::TokenHash token);

    /** Walk `tokens` from the root, creating missing nodes. Records
     * the walked ids, root first, in path_. */
    Node& WalkOrCreate(std::span<const rt::TokenHash> tokens);

    /** Recompute the runs along path_ after a candidate was added
     * there. Only path_'s nodes changed (new nodes, a new edge, the
     * new candidate), and a run only covers descendants, so every run
     * that can differ belongs to an ancestor of the new candidate. */
    void RefreshRuns();

    /** Step's branch-map probe for a node with several children. */
    NodeId StepBranch(NodeId node, rt::TokenHash token) const;

    /** One edge of the branch map. */
    struct EdgeKey {
        NodeId parent = 0;
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

    /** Node pool, indexed by NodeId, in fixed chunks: growing the
     * trie never moves or copies a node, and memory tracks the node
     * count closely. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t num_nodes_ = 0;
    /** The branch map: (parent id, token) -> child id for every child
     * edge except each node's inline first one. */
    std::unordered_map<EdgeKey, NodeId, EdgeKeyHash> edges_;
    /** WalkOrCreate's last path (recycled). */
    std::vector<NodeId> path_;
    /** Every candidate's statistics, in creation order; the stats
     * never move, so callers may hold them. */
    std::vector<std::unique_ptr<CandidateStats>> candidates_;
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
