#include "runtime/region_tree.h"

#include <algorithm>
#include <string>

namespace apo::rt {

void
RegionTreeForest::AddRoot(RegionId region)
{
    Node node;
    node.parent = RegionId{0};
    node.depth = 0;
    node.root = region.value;
    nodes_[region.value] = node;
    ++mutations_;
}

std::vector<RegionId>
RegionTreeForest::Partition(RegionId parent, std::size_t count,
                            RegionAllocator& allocator)
{
    if (count == 0) {
        throw RuntimeUsageError("cannot partition into zero subregions");
    }
    auto it = nodes_.find(parent.value);
    if (it == nodes_.end()) {
        // Tolerate partitioning a region created before the forest
        // tracked it: adopt it as a root.
        AddRoot(parent);
        it = nodes_.find(parent.value);
    }
    std::vector<RegionId> subregions;
    subregions.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const RegionId sub = allocator.Allocate();
        Node node;
        node.parent = parent;
        node.depth = it->second.depth + 1;
        node.root = it->second.root;
        nodes_[sub.value] = node;
        subregions.push_back(sub);
    }
    it->second.children += count;
    ++mutations_;
    return subregions;
}

void
RegionTreeForest::Remove(RegionId region)
{
    const auto it = nodes_.find(region.value);
    if (it == nodes_.end()) {
        return;
    }
    if (it->second.children != 0) {
        throw RuntimeUsageError(
            "cannot remove region " + std::to_string(region.value) +
            ": it still has subregions");
    }
    const RegionId parent = it->second.parent;
    nodes_.erase(it);
    ++mutations_;
    if (parent.value != 0) {
        const auto pit = nodes_.find(parent.value);
        if (pit != nodes_.end()) {
            pit->second.children -= 1;
        }
    }
}

RegionId
RegionTreeForest::ParentOf(RegionId region) const
{
    const auto it = nodes_.find(region.value);
    return it == nodes_.end() ? RegionId{0} : it->second.parent;
}

RegionId
RegionTreeForest::RootOf(RegionId region) const
{
    const auto it = nodes_.find(region.value);
    return it == nodes_.end() ? region : RegionId{it->second.root};
}

std::size_t
RegionTreeForest::DepthOf(RegionId region) const
{
    const auto it = nodes_.find(region.value);
    return it == nodes_.end() ? 0 : it->second.depth;
}

bool
RegionTreeForest::Aliases(RegionId a, RegionId b) const
{
    if (a == b) {
        return true;
    }
    const auto ia = nodes_.find(a.value);
    const auto ib = nodes_.find(b.value);
    if (ia == nodes_.end() || ib == nodes_.end()) {
        return false;  // unknown regions are independent
    }
    if (ia->second.root != ib->second.root) {
        return false;  // different trees never alias
    }
    // Same tree: walk the deeper node up to the other's depth; they
    // alias iff the walk lands exactly on the other (ancestry). With
    // disjoint partitions, any divergence means disjoint data.
    const Node* deep = &ia->second;
    RegionId deep_id = a;
    const Node* shallow = &ib->second;
    RegionId shallow_id = b;
    if (deep->depth < shallow->depth) {
        std::swap(deep, shallow);
        std::swap(deep_id, shallow_id);
    }
    while (deep->depth > shallow->depth) {
        deep_id = deep->parent;
        deep = &nodes_.at(deep_id.value);
    }
    return deep_id == shallow_id;
}

void
RegionTreeForest::SaveState(fault::CheckpointWriter& writer) const
{
    writer.BeginSection(fault::SectionTag::kRegionForest);
    std::vector<std::uint64_t> ids;
    ids.reserve(nodes_.size());
    for (const auto& [id, node] : nodes_) {
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    writer.U64(ids.size());
    for (const std::uint64_t id : ids) {
        const Node& node = nodes_.at(id);
        writer.U64(id);
        writer.U64(node.parent.value);
        writer.U64(node.depth);
        writer.U64(node.root);
        writer.U64(node.children);
    }
    writer.EndSection();
}

void
RegionTreeForest::LoadState(fault::CheckpointReader& reader)
{
    reader.BeginSection(fault::SectionTag::kRegionForest);
    const std::uint64_t count = reader.Count();
    nodes_.clear();
    nodes_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t id = reader.U64();
        Node node;
        node.parent = RegionId{reader.U64()};
        node.depth = reader.U64();
        node.root = reader.U64();
        node.children = reader.U64();
        nodes_[id] = node;
    }
    reader.EndSection();
}

}  // namespace apo::rt
