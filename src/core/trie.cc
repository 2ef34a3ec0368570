#include "core/trie.h"

#include <algorithm>
#include <string>
#include <utility>

namespace apo::core {

CandidateTrie::CandidateTrie()
{
    nodes_.emplace_back();  // the root, id 0
}

CandidateTrie::Node*
CandidateTrie::WalkOrCreate(std::span<const rt::TokenHash> tokens)
{
    Node* node = &nodes_.front();
    for (rt::TokenHash t : tokens) {
        const auto new_id = static_cast<std::uint32_t>(nodes_.size());
        if (node->first_child == nullptr) {
            node->first_token = t;
            node->first_child = &nodes_.emplace_back();
            node->first_child->id = new_id;
            node->num_children = 1;
            node = node->first_child;
        } else if (node->first_token == t) {
            node = node->first_child;
        } else {
            const auto [it, inserted] =
                edges_.try_emplace(EdgeKey{node->id, t}, new_id);
            if (inserted) {
                nodes_.emplace_back().id = new_id;
                node->num_children += 1;
            }
            node = &nodes_[it->second];
        }
    }
    return node;
}

const CandidateTrie::Node*
CandidateTrie::StepBranch(const Node& node, rt::TokenHash token) const
{
    const auto it = edges_.find(EdgeKey{node.id, token});
    return it == edges_.end() ? nullptr : &nodes_[it->second];
}

CandidateStats&
CandidateTrie::Insert(const std::vector<rt::TokenHash>& tokens,
                      double occurrences, std::uint64_t now,
                      double half_life)
{
    Node* node = WalkOrCreate(tokens);
    if (!node->candidate) {
        node->candidate = std::make_unique<CandidateStats>();
        node->candidate->id = next_id_++;
        node->candidate->length = tokens.size();
        ++num_candidates_;
    }
    // Refresh: decay the old count to `now`, then add the sightings.
    CandidateStats& stats = *node->candidate;
    stats.count = stats.Appearances(now, half_life) + occurrences;
    stats.last_seen = now;
    return stats;
}

void
CandidateTrie::SaveState(fault::CheckpointWriter& writer) const
{
    // Nodes carry no parent back-pointers; invert both edge sources
    // (inline first children, then the branch map) once so each
    // candidate's token path reads off by walking up.
    std::vector<std::pair<std::uint32_t, rt::TokenHash>> up(nodes_.size());
    for (const Node& node : nodes_) {
        if (node.first_child != nullptr) {
            up[node.first_child->id] = {node.id, node.first_token};
        }
    }
    for (const auto& [key, child] : edges_) {
        up[child] = {key.parent, key.token};
    }
    writer.BeginSection(fault::SectionTag::kCandidateTrie);
    writer.U64(next_id_);
    writer.U64(num_candidates_);
    std::vector<rt::TokenHash> path;
    for (const Node& node : nodes_) {
        if (!node.candidate) {
            continue;
        }
        path.clear();
        for (std::uint32_t id = node.id; id != 0; id = up[id].first) {
            path.push_back(up[id].second);
        }
        std::reverse(path.begin(), path.end());
        writer.VecU64(path);
        const CandidateStats& stats = *node.candidate;
        writer.U64(stats.id);
        writer.U64(stats.length);
        writer.F64(stats.count);
        writer.U64(stats.last_seen);
        writer.U64(stats.trace_id);
        writer.U64(stats.replays);
    }
    writer.EndSection();
}

void
CandidateTrie::LoadState(fault::CheckpointReader& reader)
{
    if (nodes_.size() != 1 || num_candidates_ != 0) {
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
        Node* node = WalkOrCreate(path);
        if (node->candidate != nullptr) {
            throw fault::CheckpointError(
                "checkpoint trie repeats a candidate path");
        }
        node->candidate = std::make_unique<CandidateStats>();
        CandidateStats& stats = *node->candidate;
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
        ++num_candidates_;
    }
    reader.EndSection();
}

}  // namespace apo::core
