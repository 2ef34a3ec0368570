/**
 * @file
 * The region tree: partitions and aliasing.
 *
 * Legion regions form a forest: a region can be partitioned into
 * subregions, tasks can request privileges on any node of the tree,
 * and the dependence analysis must order operations whose regions
 * *alias* — one is an ancestor of the other (a disjoint partition's
 * siblings never alias). The paper's section 2 notes that trace
 * validity depends on "the usages of the regions and how they are
 * partitioned"; this module supplies that structure, and the
 * dependence analyzer consults it so that parent-level operations
 * (boundary conditions, I/O over the whole array) serialize correctly
 * against per-subregion tasks.
 */
#ifndef APOPHENIA_RUNTIME_REGION_TREE_H
#define APOPHENIA_RUNTIME_REGION_TREE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/checkpoint.h"
#include "runtime/errors.h"
#include "runtime/region.h"

namespace apo::rt {

/** The forest of region trees. Owned by the runtime. */
class RegionTreeForest {
  public:
    /** Register a root region (the allocator supplies the id). */
    void AddRoot(RegionId region);

    /**
     * Partition `parent` into `count` disjoint subregions, allocated
     * by `allocator`. Subregions are first-class regions: they can be
     * partitioned further and used in requirements.
     */
    std::vector<RegionId> Partition(RegionId parent, std::size_t count,
                                    RegionAllocator& allocator);

    /** Remove a leaf region (roots with no children included) from
     * the forest. Partitioned regions must be deleted bottom-up. */
    void Remove(RegionId region);

    /** True if the forest knows this region. */
    bool Contains(RegionId region) const
    {
        return nodes_.count(region.value) != 0;
    }

    /** Parent region, or RegionId{0} for roots/unknown regions. */
    RegionId ParentOf(RegionId region) const;

    /** Root of the tree containing `region` (itself if a root or
     * unknown — unknown regions are treated as independent roots). */
    RegionId RootOf(RegionId region) const;

    /** Depth from the root (root = 0; unknown regions = 0). */
    std::size_t DepthOf(RegionId region) const;

    /**
     * True iff accesses to `a` and `b` can touch the same data: equal
     * regions, or one an ancestor of the other. Distinct subtrees and
     * disjoint siblings never alias.
     */
    bool Aliases(RegionId a, RegionId b) const;

    std::size_t Size() const { return nodes_.size(); }

    /** Number of changes (roots added, partitions, removals) since
     * construction — a replay plan's validity stamp. Derived, not
     * checkpointed. */
    std::uint64_t MutationCount() const { return mutations_; }

    /** Checkpoint hooks: the forest nodes, serialized in region-id
     * order so two identical forests produce identical images. */
    void SaveState(fault::CheckpointWriter& writer) const;
    void LoadState(fault::CheckpointReader& reader);

  private:
    struct Node {
        RegionId parent;  // 0 = root
        std::size_t depth = 0;
        std::uint64_t root = 0;
        std::size_t children = 0;
    };

    std::unordered_map<std::uint64_t, Node> nodes_;
    std::uint64_t mutations_ = 0;
};

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_REGION_TREE_H
