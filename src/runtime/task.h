/**
 * @file
 * Task launches and their hash tokens.
 *
 * Tasks are designated functions registered with the runtime; a launch
 * names the task and lists its region requirements. Apophenia converts
 * each launch into a 64-bit token capturing every aspect that affects
 * the dependence analysis (paper section 4.1), turning the task stream
 * into a string for the repeat-mining algorithms.
 */
#ifndef APOPHENIA_RUNTIME_TASK_H
#define APOPHENIA_RUNTIME_TASK_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/region.h"
#include "support/hash.h"

namespace apo::rt {

/** Identifier of a registered task function. */
using TaskId = std::uint64_t;

/** Make a task id from a human-readable name. Constant-evaluable, so
 * a fixed name can be hashed once at compile time. */
constexpr TaskId TaskIdOf(std::string_view name)
{
    return support::Fnv1a(name);
}

/**
 * A single task launch: the unit of work issued to the runtime.
 *
 * `execution_us` and `shard` do not affect the dependence analysis
 * (and therefore are excluded from the token hash): they parameterize
 * the discrete-event execution model only — which processor runs the
 * task and for how long.
 */
struct TaskLaunch {
    TaskId task = 0;
    std::vector<RegionRequirement> requirements;

    /** Simulated kernel duration in microseconds. */
    double execution_us = 100.0;
    /** Which processor (GPU) executes this task. */
    std::uint32_t shard = 0;
    /** The application blocks on this task's result (a future read,
     * e.g. a training loop inspecting the loss): launches after it
     * stall until it finishes. Does not affect the dependence
     * analysis, so it is excluded from the token hash. */
    bool blocking = false;
    /** False for operations a practical tracing implementation cannot
     * memoize (external hand-offs, I/O, attach/detach). Issuing one
     * inside a trace is a runtime error — the paper's section 1
     * reason composed programs defeat manual annotations. Apophenia
     * assigns such operations unique tokens so they can never become
     * part of a candidate trace. */
    bool traceable = true;

    friend bool operator==(const TaskLaunch& a, const TaskLaunch& b)
    {
        return a.task == b.task && a.requirements == b.requirements;
    }
};

// Reserved task ids for non-task operations that still flow through
// the dependence analysis (and are traceable like tasks, paper
// section 4.1 "straightforward handling of traceable operations that
// are not tasks").
inline constexpr TaskId kFillTaskId = TaskIdOf("__fill__");
inline constexpr TaskId kCopyTaskId = TaskIdOf("__copy__");

/** A fill: overwrite one (region, field) with a constant. */
inline TaskLaunch FillLaunch(RegionId region, FieldId field,
                             std::uint32_t shard = 0,
                             double execution_us = 10.0)
{
    TaskLaunch launch;
    launch.task = kFillTaskId;
    launch.requirements = {
        {region, field, Privilege::kWriteDiscard, 0}};
    launch.shard = shard;
    launch.execution_us = execution_us;
    return launch;
}

/** An explicit region-to-region copy. */
inline TaskLaunch CopyLaunch(RegionId src, FieldId src_field,
                             RegionId dst, FieldId dst_field,
                             std::uint32_t shard = 0,
                             double execution_us = 20.0)
{
    TaskLaunch launch;
    launch.task = kCopyTaskId;
    launch.requirements = {{src, src_field, Privilege::kReadOnly, 0},
                           {dst, dst_field, Privilege::kWriteDiscard, 0}};
    launch.shard = shard;
    launch.execution_us = execution_us;
    return launch;
}

/** The 64-bit token type trace identification operates on. */
using TokenHash = std::uint64_t;

/**
 * Fold a tenant token namespace into a boundary-computed launch token.
 *
 * The multi-tenant service gives every tenant a distinct namespace
 * salt so no two tenants' streams ever share a token value — one
 * tenant's candidates can never match (or pollute decisions about)
 * another tenant's stream, even inside shared structures. The fold is
 * an XOR so that it is (a) free, (b) the identity for namespace 0
 * (classic single-tenant tokens are untouched, bit-for-bit), and
 * (c) invertible: the shared content-addressed mining cache recovers
 * the namespace-relative window (token ^ salt) to deduplicate
 * identical kernels *across* namespaces without ever mixing them up.
 */
inline TokenHash FoldNamespace(TokenHash name_space, TokenHash token)
{
    return token ^ name_space;
}

/** Seed of a launch token: the task id folded into the hash chain.
 * The launch token is built incrementally — seed, then one
 * HashRequirement step per region requirement in order — so the API
 * boundary (api::LaunchBuilder) can compute it while the launch is
 * being assembled instead of re-walking the requirements. */
inline TokenHash HashTaskId(TaskId task)
{
    return support::HashCombine(0x5eed, task);
}

/** Fold one region requirement into a launch token. */
inline TokenHash HashRequirement(TokenHash h, const RegionRequirement& req)
{
    using support::HashCombine;
    h = HashCombine(h, req.region.value);
    h = HashCombine(h, req.field);
    h = HashCombine(h, static_cast<std::uint64_t>(req.privilege));
    return HashCombine(h, req.redop);
}

/**
 * Hash a launch into its trace-identification token. Two launches get
 * equal tokens iff the dependence analysis treats them identically:
 * same task id and same ordered region requirements (region, field,
 * privilege, reduction op).
 */
inline TokenHash HashLaunch(const TaskLaunch& launch)
{
    TokenHash h = HashTaskId(launch.task);
    for (const RegionRequirement& req : launch.requirements) {
        h = HashRequirement(h, req);
    }
    return h;
}

/**
 * A non-owning view of a task launch: the unit the issue path passes
 * around. The requirements live in caller-owned storage (typically an
 * api::LaunchBuilder arena, or a materialized TaskLaunch), and the
 * token hash is computed once — at the API boundary — and carried
 * with the view, so neither the front-end nor the runtime re-hashes
 * or copies the requirement vector per launch. A view is valid only
 * as long as the storage behind it; consumers that buffer a launch
 * must Materialize() it.
 */
struct TaskLaunchView {
    TaskId task = 0;
    const RegionRequirement* requirements = nullptr;
    std::size_t requirement_count = 0;
    /** Simulated kernel duration in microseconds. */
    double execution_us = 100.0;
    /** Which processor (GPU) executes this launch. */
    std::uint32_t shard = 0;
    /** See TaskLaunch::blocking. */
    bool blocking = false;
    /** See TaskLaunch::traceable. */
    bool traceable = true;
    /** HashLaunch of the viewed launch, precomputed at the boundary. */
    TokenHash token = 0;

    std::span<const RegionRequirement> Requirements() const
    {
        return {requirements, requirement_count};
    }

    /** Copy the viewed launch into owned storage, reusing `out`'s
     * requirement capacity (the buffering pools rely on this). */
    void MaterializeInto(TaskLaunch& out) const
    {
        out.task = task;
        out.requirements.assign(requirements,
                                requirements + requirement_count);
        out.execution_us = execution_us;
        out.shard = shard;
        out.blocking = blocking;
        out.traceable = traceable;
    }

    /** Copy the viewed launch into a fresh TaskLaunch. */
    TaskLaunch Materialize() const
    {
        TaskLaunch out;
        MaterializeInto(out);
        return out;
    }

    /** View an owned launch whose token is already known. */
    static TaskLaunchView Of(const TaskLaunch& launch, TokenHash token)
    {
        TaskLaunchView view;
        view.task = launch.task;
        view.requirements = launch.requirements.data();
        view.requirement_count = launch.requirements.size();
        view.execution_us = launch.execution_us;
        view.shard = launch.shard;
        view.blocking = launch.blocking;
        view.traceable = launch.traceable;
        view.token = token;
        return view;
    }

    /** View an owned launch, hashing it here (the one place the old
     * vector-carrying API pays its hash). */
    static TaskLaunchView Of(const TaskLaunch& launch)
    {
        return Of(launch, HashLaunch(launch));
    }

    /** Dependence-analysis identity, mirroring TaskLaunch::operator==:
     * same task and same ordered requirements. */
    friend bool operator==(const TaskLaunchView& a, const TaskLaunchView& b)
    {
        return a.task == b.task &&
               std::equal(a.requirements,
                          a.requirements + a.requirement_count,
                          b.requirements,
                          b.requirements + b.requirement_count);
    }
};

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_TASK_H
