/**
 * @file
 * Logical regions, fields, and privileges — the data model of the mini
 * task runtime ("mini-Legion").
 *
 * A region is a named multi-dimensional array tracked by the runtime;
 * tasks declare which (region, field) pairs they touch and with what
 * privilege, and the runtime's dynamic dependence analysis derives the
 * execution order from those declarations (paper section 2).
 */
#ifndef APOPHENIA_RUNTIME_REGION_H
#define APOPHENIA_RUNTIME_REGION_H

#include <cstdint>
#include <vector>

#include "fault/checkpoint.h"

namespace apo::rt {

/** Opaque handle to a logical region. */
struct RegionId {
    std::uint64_t value = 0;

    friend bool operator==(const RegionId&, const RegionId&) = default;
    friend auto operator<=>(const RegionId&, const RegionId&) = default;
};

/** A field within a region (cuPyNumeric arrays are single-field;
 * simulation codes like TorchSWE keep many fields per region). */
using FieldId = std::uint32_t;

/** Identifier of a reduction operator (sum, max, ...). */
using ReductionOpId = std::uint32_t;

/** Access privilege a task requests on a (region, field) pair. */
enum class Privilege : std::uint8_t {
    kReadOnly,      ///< reads the current value
    kReadWrite,     ///< reads and writes
    kWriteDiscard,  ///< overwrites without reading
    kReduce,        ///< applies a commutative reduction
};

/** True if the privilege mutates the field's contents. */
constexpr bool IsMutating(Privilege p)
{
    return p != Privilege::kReadOnly;
}

/** True if the privilege is a plain write (closes reduction epochs and
 * clears the reader set). */
constexpr bool IsWrite(Privilege p)
{
    return p == Privilege::kReadWrite || p == Privilege::kWriteDiscard;
}

/**
 * One region argument of a task launch: which region/field is touched
 * and how. The dependence analysis (and therefore trace validity) is a
 * function of exactly these values plus the task id (paper section 2:
 * "the same region arguments must be used across trace invocations").
 */
struct RegionRequirement {
    RegionId region;
    FieldId field = 0;
    Privilege privilege = Privilege::kReadOnly;
    ReductionOpId redop = 0;  ///< meaningful only for kReduce

    friend bool operator==(const RegionRequirement&,
                           const RegionRequirement&) = default;
};

/**
 * Region allocator with LIFO id reuse.
 *
 * cuPyNumeric-style libraries allocate a fresh region for every
 * operation result and free dead ones immediately; freed regions are
 * reused right away. This reuse is what eventually makes the issued
 * task stream periodic (with a period that need not match the source
 * program's loop structure — the paper's section 2 pathology), so the
 * allocator's policy is behaviour we must model, not an implementation
 * detail.
 */
class RegionAllocator {
  public:
    /** Allocate a region id, preferring the most recently freed one. */
    RegionId Allocate()
    {
        if (!free_list_.empty()) {
            const RegionId r = free_list_.back();
            free_list_.pop_back();
            return r;
        }
        return RegionId{next_++};
    }

    /** Return a region id to the allocator for reuse. */
    void Free(RegionId r) { free_list_.push_back(r); }

    /** Number of ids ever created (high-water mark). */
    std::uint64_t HighWater() const { return next_; }

    /** Checkpoint hook: id reuse order drives stream periodicity, so
     * both the counter and the exact LIFO free list are saved. */
    void SaveState(fault::CheckpointWriter& writer) const
    {
        writer.BeginSection(fault::SectionTag::kRegionAllocator);
        writer.U64(next_);
        writer.U64(free_list_.size());
        for (const RegionId r : free_list_) {
            writer.U64(r.value);
        }
        writer.EndSection();
    }

    void LoadState(fault::CheckpointReader& reader)
    {
        reader.BeginSection(fault::SectionTag::kRegionAllocator);
        next_ = reader.U64();
        const std::uint64_t count = reader.Count();
        free_list_.clear();
        free_list_.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            free_list_.push_back(RegionId{reader.U64()});
        }
        reader.EndSection();
    }

  private:
    std::uint64_t next_ = 1;  // id 0 reserved as "no region"
    std::vector<RegionId> free_list_;
};

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_REGION_H
