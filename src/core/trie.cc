#include "core/trie.h"

#include <algorithm>
#include <string>
#include <utility>

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

CandidateStats&
CandidateTrie::AddCandidate(Node& node)
{
    // Any new node or edge ends in a new candidate, so refreshing runs
    // here covers every change of the trie's shape.
    node.candidate = static_cast<std::uint32_t>(candidates_.size());
    candidates_.push_back(std::make_unique<CandidateStats>());
    RefreshRuns();
    return *candidates_.back();
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
        stats = &AddCandidate(WalkOrCreate(tokens));
        stats->id = next_id_++;
        stats->length = tokens.size();
    }
    // Refresh: decay the old count to `now`, then add the sightings.
    stats->count = stats->Appearances(now, half_life) + occurrences;
    stats->last_seen = now;
    return *stats;
}

void
CandidateTrie::SaveState(fault::CheckpointWriter& writer) const
{
    // Nodes carry no parent back-pointers; invert both edge sources
    // (inline first children, then the branch map) once so each
    // candidate's token path reads off by walking up.
    std::vector<NodeId> parent(NumNodes());
    for (NodeId id = 0; id < NumNodes(); ++id) {
        if (At(id).first_child != kNoNode) {
            parent[At(id).first_child] = id;
        }
    }
    for (const auto& [key, child] : edges_) {
        parent[child] = key.parent;
    }
    writer.BeginSection(fault::SectionTag::kCandidateTrie);
    writer.U64(next_id_);
    writer.U64(NumCandidates());
    std::vector<rt::TokenHash> path;
    for (NodeId id = 0; id < NumNodes(); ++id) {
        const CandidateStats* stats = CandidateAt(id);
        if (stats == nullptr) {
            continue;
        }
        path.clear();
        for (NodeId up = id; up != kRoot; up = parent[up]) {
            path.push_back(TokenInto(up));
        }
        std::reverse(path.begin(), path.end());
        writer.VecU64(path);
        writer.U64(stats->id);
        writer.U64(stats->length);
        writer.F64(stats->count);
        writer.U64(stats->last_seen);
        writer.U64(stats->trace_id);
        writer.U64(stats->replays);
    }
    writer.EndSection();
}

void
CandidateTrie::LoadState(fault::CheckpointReader& reader)
{
    if (NumNodes() != 1 || NumCandidates() != 0) {
        throw fault::CheckpointError(
            "CandidateTrie::LoadState requires an empty trie");
    }
    reader.BeginSection(fault::SectionTag::kCandidateTrie);
    next_id_ = reader.U64();
    const std::uint64_t candidates = reader.U64();
    for (std::uint64_t i = 0; i < candidates; ++i) {
        const std::vector<rt::TokenHash> path = reader.VecU64();
        // The root is no candidate: Step never returns it, so an empty
        // path would be unreachable and still count in NumCandidates.
        if (path.empty()) {
            throw fault::CheckpointError(
                "checkpoint trie has an empty candidate path");
        }
        Node& node = WalkOrCreate(path);
        if (node.candidate != kNoCandidate) {
            throw fault::CheckpointError(
                "checkpoint trie repeats a candidate path");
        }
        CandidateStats& stats = AddCandidate(node);
        stats.id = reader.U64();
        stats.length = reader.U64();
        // TraceScorer weighs a candidate by its length.
        if (stats.length != path.size()) {
            throw fault::CheckpointError(
                "checkpoint candidate length " +
                std::to_string(stats.length) + " differs from its " +
                std::to_string(path.size()) + "-token path");
        }
        stats.count = reader.F64();
        stats.last_seen = reader.U64();
        stats.trace_id = reader.U64();
        stats.replays = reader.U64();
    }
    reader.EndSection();
}

}  // namespace apo::core
