/**
 * @file
 * Apophenia configuration, mirroring the runtime flags of the paper's
 * artifact (appendix A.7):
 *
 *   -lg:enable_automatic_tracing
 *   -lg:auto_trace:min_trace_length <N>
 *   -lg:auto_trace:max_trace_length <N>
 *   -lg:auto_trace:batchsize <N>
 *   -lg:auto_trace:multi_scale_factor <N>
 *   -lg:auto_trace:identifier_algorithm <multi-scale|batched>
 *   -lg:auto_trace:repeats_algorithm <quick_matching_of_substrings|...>
 *
 * plus one flag of this reproduction's asynchronous pipeline:
 *
 *   -lg:auto_trace:history_block_size <N>
 *
 * and the runtime flags the performance model reads:
 *
 *   -lg:window <N>
 *   -lg:inline_transitive_reduction
 *
 * Every <N> is a plain decimal count: no sign, no padding.
 *
 * The paper's experiments all run with one configuration (batchsize
 * 5000, multi-scale factor 250/500, min length 25); only FlexFlow
 * sweeps max_trace_length (figure 8).
 */
#ifndef APOPHENIA_CORE_CONFIG_H
#define APOPHENIA_CORE_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace apo::core {

/** How the history buffer is sampled for analysis (paper section 4.4). */
enum class IdentifierAlgorithm {
    /** Ruler-function multi-scale sampling: analyze progressively
     * larger recent slices at multiples of the scale factor. */
    kMultiScale,
    /** Analyze the whole buffer only when it fills (the non-adaptive
     * strawman the paper argues against). */
    kBatched,
};

/** Which repeat-mining algorithm the finder runs (section 4.2). */
enum class RepeatsAlgorithm {
    kQuickMatchingOfSubstrings,  ///< paper Algorithm 2 (the default)
    kTandem,                     ///< tandem-repeat baseline
    kLzw,                        ///< LZW-style baseline
    kQuadratic,                  ///< quadratic greedy baseline
};

/** Tunable parameters of the Apophenia front-end. */
struct ApopheniaConfig {
    /** Master switch (-lg:enable_automatic_tracing). */
    bool enabled = true;

    /** Minimum trace length to consider; shorter repeats cannot
     * amortize the per-replay constant c. Artifact default 25; the
     * tests and examples often use smaller loops, so this library
     * defaults lower and the benches set 25 explicitly. */
    std::size_t min_trace_length = 5;

    /** Maximum trace length to replay; longer candidates are broken
     * into chunks of this size (figure 8's auto-200 vs auto-5000). */
    std::size_t max_trace_length = 5000;

    /** Capacity of the task-history buffer mined for repeats
     * (-lg:auto_trace:batchsize). */
    std::size_t batchsize = 5000;

    /** Minimum slice size of the multi-scale analysis
     * (-lg:auto_trace:multi_scale_factor). */
    std::size_t multi_scale_factor = 250;

    IdentifierAlgorithm identifier_algorithm =
        IdentifierAlgorithm::kMultiScale;
    RepeatsAlgorithm repeats_algorithm =
        RepeatsAlgorithm::kQuickMatchingOfSubstrings;

    /** Block size of the shared history ring: mining jobs reference
     * whole blocks instead of copying tokens, so launching a job costs
     * O(slice / block size) on the application thread. */
    std::size_t history_block_size = 512;

    /** Token namespace of the stream this finder observes (see
     * rt::FoldNamespace). The finder folds it out of every token it
     * records, so its mining memo keys, verifies and mines
     * namespace-relative windows (token ^ namespace): two tenants
     * running the same kernel under different namespaces deduplicate
     * to one mining run in a shared memo while their token streams
     * stay disjoint. 0 (the default) is the classic un-namespaced
     * stream. */
    std::uint64_t cache_namespace = 0;

    // -- Trace selection scoring (paper section 4.3) ----------------------

    /** Cap on the occurrence count used in scores, so an early trace
     * cannot permanently outscore a better trace found later. */
    double score_count_cap = 16.0;
    /** Occurrence counts halve every this-many observed tasks since
     * the candidate last appeared, so stale candidates fade. */
    double score_decay_half_life = 10000.0;
    /** Multiplicative bias toward traces that have already been
     * replayed (recording new traces costs α_m per task). */
    double score_replayed_bonus = 1.05;

    /** Launch additional mining windows anchored at replay
     * boundaries, so candidates aligned with the uncovered remainder
     * of the stream are discovered (see TraceFinder::
     * NoteReplayBoundary). Without this, a sub-period trace can lock
     * the replayer at partial coverage for a very long time. */
    bool replay_anchored_analysis = true;

    /** When the finder sees a repeat whose two occurrences sit a
     * fixed distance d apart with d greater than the repeat length,
     * also emit the presumed full period (the d-token window) as a
     * speculative candidate. A wrong guess never matches and is
     * harmless; a right guess turns a sub-period trace into a
     * full-period one. */
    bool speculative_period_completion = true;

    // -- Replayer behaviour ------------------------------------------------

    /** Upper bound on buffered (pending) tasks before Apophenia forces
     * progress by firing or flushing. */
    std::size_t max_pending = 20000;

    // -- Runtime flags carried for convenience (-lg:window etc.) ----------

    /** The runtime's operation window (-lg:window): how far the
     * analysis pipeline may run ahead of execution. Consumed by the
     * performance model. */
    std::size_t window = 30000;
    /** -lg:inline_transitive_reduction: prune transitively implied
     * dependence edges. Consumed by the performance model. */
    bool inline_transitive_reduction = false;
};

/**
 * Parse Apophenia flags out of a command line. Recognized flags (and
 * their values) are removed from `args`; unrecognized arguments are
 * left in place for the application. Throws std::invalid_argument on
 * malformed values.
 */
ApopheniaConfig ParseApopheniaFlags(std::vector<std::string>& args);

}  // namespace apo::core

#endif  // APOPHENIA_CORE_CONFIG_H
