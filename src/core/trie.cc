#include "core/trie.h"

#include <algorithm>

namespace apo::core {

CandidateTrie::CandidateTrie()
{
    NewNode(0);  // the root
}

CandidateTrie::NodeId
CandidateTrie::NewNode(rt::TokenHash token)
{
    const auto id = static_cast<NodeId>(num_nodes_++);
    if ((id & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Chunk>());
    }
    chunks_.back()->tokens[id & kChunkMask] = token;
    return id;
}

CandidateTrie::Node&
CandidateTrie::WalkOrCreate(std::span<const rt::TokenHash> tokens)
{
    NodeId node = kRoot;
    path_.assign(1, kRoot);
    for (rt::TokenHash t : tokens) {
        NodeId child = Step(node, t);
        if (child == kNoNode) {
            child = NewNode(t);
            Node& parent = NodeAt(node);
            if (parent.first_child == kNoNode) {
                parent.first_child = child;
            } else {
                edges_.emplace(EdgeKey{node, t}, child);
            }
            parent.num_children += 1;
        }
        node = child;
        path_.push_back(node);
    }
    return NodeAt(node);
}

void
CandidateTrie::RefreshRuns()
{
    for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
        Node& node = NodeAt(*it);
        const NodeId next = *it + 1;
        if (node.num_children != 1 || node.first_child != next ||
            (next & kChunkMask) == 0) {
            node.run = 0;
        } else if (At(next).candidate != kNoCandidate) {
            node.run = 1;  // the run stops where a candidate ends
        } else {
            node.run = 1 + At(next).run;
        }
    }
}

CandidateTrie::NodeId
CandidateTrie::StepBranch(NodeId node, rt::TokenHash token) const
{
    const auto it = edges_.find(EdgeKey{node, token});
    return it == edges_.end() ? kNoNode : it->second;
}

CandidateStats*
CandidateTrie::Find(std::span<const rt::TokenHash> tokens) const
{
    NodeId node = kRoot;
    while (!tokens.empty()) {
        const std::span<const rt::TokenHash> run = RunTokens(node);
        if (run.empty()) {
            node = Step(node, tokens.front());
            if (node == kNoNode) {
                return nullptr;
            }
            tokens = tokens.subspan(1);
            continue;
        }
        const std::size_t k = std::min(run.size(), tokens.size());
        if (!std::ranges::equal(run.first(k), tokens.first(k))) {
            return nullptr;
        }
        node += static_cast<NodeId>(k);
        tokens = tokens.subspan(k);
    }
    return CandidateAt(node);
}

CandidateStats&
CandidateTrie::Insert(const std::vector<rt::TokenHash>& tokens,
                      double occurrences, std::uint64_t now,
                      double half_life)
{
    CandidateStats* stats = Find(tokens);
    if (stats == nullptr) {
        WalkOrCreate(tokens).candidate =
            static_cast<std::uint32_t>(candidates_.size());
        candidates_.push_back(std::make_unique<CandidateStats>(
            CandidateStats{.length = tokens.size()}));
        stats = candidates_.back().get();
        // Any new node or edge ends in a new candidate, so refreshing
        // runs here covers every change of the trie's shape.
        RefreshRuns();
    }
    // Refresh: decay the old count to `now`, then add the sightings.
    stats->count = stats->Appearances(now, half_life) + occurrences;
    stats->last_seen = now;
    return *stats;
}

}  // namespace apo::core
