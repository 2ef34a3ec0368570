/**
 * @file
 * apobench's five workloads: how each stack is built, how one
 * repetition drives it and what it measures, and the reference
 * configuration whose stream every repetition must reproduce.
 */
#ifndef APOBENCH_WORKLOADS_H
#define APOBENCH_WORKLOADS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"

namespace apobench {

/** A workload and its fixed size. Cost per task depends on the
 * position in the stream, so runs are sized in iterations, never in
 * time. */
struct WorkloadSpec {
    const char* name;
    /** Iterations per repetition (per tenant for svc_fleet8). */
    std::size_t iterations;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/** One issued stream's identity and modelled metrics: one per
 * repetition, or one per tenant of svc_fleet8. */
struct Identity {
    std::uint64_t stream_digest = 0;
    std::uint64_t stream_ops = 0;
    std::uint64_t candidate_digest = 0;
    double sim_iters_per_s = 0.0;
    double replayed_frac = 0.0;
    std::uint64_t warmup_iters = 0;

    friend bool operator==(const Identity&, const Identity&) = default;
};

/** What to run in one repetition process. */
struct RepSpec {
    std::string workload;
    std::uint64_t seed = 1;
    /** Fraction of the workload's iteration count (--quick: 1/20). */
    double scale = 1.0;
    bool traced = false;
    /** Traced runs: where to write the Chrome trace ("" = nowhere). */
    std::string trace_path;
};

/** What one repetition measured. */
struct RepResult {
    std::uint64_t tasks_total = 0;
    /** Tasks issued after the ignore window. */
    std::uint64_t tasks_timed = 0;
    /** RuntimeStats::tasks_rewound summed over the stack. */
    std::uint64_t tasks_rewound = 0;
    /** Wall time of the timed window: the iterations after the ignore
     * window plus the final Flush. */
    std::int64_t timed_ns = 0;
    /** Stack construction + Setup + the ignore window. */
    std::int64_t setup_ns = 0;
    double peak_rss_kb = 0.0;
    /** Replicated stacks: every replica's stream digest agreed. */
    bool replicas_agree = true;
    std::vector<Identity> identities;
    /** Each Iteration call of the timed window, in grant order. Every
     * repetition of a workload at one seed issues the same sequence,
     * so the orchestrator can take each iteration's fastest time. */
    std::vector<IterationSample> samples;
    /** Traced runs: the per-layer metrics by name. */
    std::vector<std::pair<std::string, double>> layers;
};

std::size_t IterationsOf(const WorkloadSpec& spec, double scale);

/** Run one repetition in this process. Throws on any failure,
 * including a traced run whose probes do not add up or whose shadow
 * runtime diverged. */
RepResult RunRep(const RepSpec& spec);

/** Run the workload's reference configuration: one node (or, for
 * htr_replicated8, the same cluster at jobs=1), retained logs, inline
 * mining, no mining cache; svc_fleet8 runs each tenant alone. */
std::vector<Identity> RunReference(const RepSpec& spec);

/** Line-oriented text form of a RepResult (the repetition process
 * writes it to stdout; the orchestrator parses it back). */
void WriteRep(std::FILE* out, const RepResult& rep);
bool ParseRep(const std::string& text, RepResult* rep);
void WriteIdentities(std::FILE* out, const std::vector<Identity>& ids);
bool ParseIdentities(const std::string& text, std::vector<Identity>* ids);

}  // namespace apobench

#endif  // APOBENCH_WORKLOADS_H
