/**
 * @file
 * The trace finder (paper sections 4.2 and 4.4).
 *
 * The finder accumulates the hash-token stream into a sliding history
 * window of `batchsize` tokens and launches asynchronous mining jobs
 * over slices of it. Slice sizes follow the ruler-function schedule:
 * at the k'th sampling point (every `multi_scale_factor` tasks) the
 * last multi_scale_factor * 2^ruler(k) tokens are analyzed, so short
 * traces are discovered quickly while the full buffer is still mined
 * periodically for long traces. Each job runs the configured repeat
 * mining algorithm (Algorithm 2 by default) and emits candidate
 * traces, chunked to the configured maximum trace length.
 *
 * Every job first probes the finder's one mining memo, a
 * content-addressed MiningCache (mining_cache.h): the cache a cluster
 * or service passes in, or else a private one the finder owns. A
 * verified hit adopts the stored candidate set; a miss mines the
 * window with the finder's rank-table miner (strings/incremental.h)
 * and publishes the result. The finder folds its token namespace out
 * of every token it records, so snapshots, memo keys and mined
 * candidates are all namespace-relative; a namespaced front-end
 * re-keys candidates on their way into its trie.
 *
 * Launching a job is zero-copy: the history lives in shared
 * append-only blocks (history.h) and a job holds a refcounted
 * HistorySnapshot of its slice, materializing it on the thread that
 * runs it. Jobs are recycled through a free pool. A job belongs to
 * whichever thread starts it first: an executor worker, or the thread
 * that ingests it, which runs a job no worker has started rather than
 * wait for one. The claim is keyed on the launch id, so the executor's
 * closure of a job already claimed, or recycled and launched again,
 * does nothing; no executor can strand an ingestion. A failure is kept
 * on the job and rethrown when the job is ingested. Ingestion is
 * strictly in launch order — the deterministic stream-position
 * ingestion contract the control-replicated cluster front-end
 * (sim/cluster.h) depends on.
 */
#ifndef APOPHENIA_CORE_FINDER_H
#define APOPHENIA_CORE_FINDER_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/history.h"
#include "runtime/task.h"
#include "strings/incremental.h"
#include "support/executor.h"
#include "support/slot_ring.h"

namespace apo::core {

class MiningCache;
class TraceFinder;

/** A candidate trace produced by a mining job. */
struct CandidateTrace {
    std::vector<rt::TokenHash> tokens;
    /** Non-overlapping occurrences observed in the analyzed slice. */
    double occurrences = 0.0;
};

/** One asynchronous history-mining job. Owned and recycled by the
 * finder; executor closures hold a raw pointer to it, valid for the
 * finder's lifetime (the finder drains its executor before
 * destruction). */
struct AnalysisJob {
    explicit AnalysisJob(TraceFinder& owner) : finder(&owner) {}

    /** The owning finder. Closures reach it through the job, so a
     * closure (job, launch id) fits std::function's inline buffer and
     * launching allocates no closure. */
    TraceFinder* const finder;
    /** Stable id (launch order). */
    std::uint64_t id = 0;
    /** Task counter at which the job was launched. */
    std::uint64_t issued_at = 0;
    /** Number of tokens analyzed. */
    std::size_t slice_length = 0;
    /** Zero-copy view of the analyzed slice (namespace-relative
     * tokens), taken at launch. */
    HistorySnapshot snapshot;
    /** Worker-side materialization buffer, reused across jobs; filled
     * only when the job actually mines. */
    std::vector<rt::TokenHash> slice;
    /** The namespace-relative candidate set: the memo's stored set on
     * a hit (read in place; shared ownership keeps it alive past
     * eviction), else the set this job mined. */
    std::shared_ptr<const std::vector<CandidateTrace>> results;
    /** Set by the worker when the memo served this job (folded into
     * FinderStats at release, off the worker thread); `memo_cross`
     * additionally marks a hit published under a different token
     * namespace (another tenant's mining). */
    bool memo_hit = false;
    bool memo_cross = false;
    /** The launch id + 1 while no thread has started this launch's
     * body, 0 once one has (TraceFinder::RunUnclaimed). */
    std::atomic<std::uint64_t> unclaimed{0};
    /** Completion flag, set (release) as the job body's last access,
     * once `results` or `error` is set. */
    std::atomic<bool> done{false};
    /** What the job body threw, if anything; rethrown on the thread
     * that ingests the job (WaitOldestJob). */
    std::exception_ptr error;

    const std::vector<CandidateTrace>& Results() const { return *results; }
};

/** Introspection record for one launched-but-not-ingested job. */
struct PendingJobInfo {
    std::uint64_t id = 0;
    std::uint64_t issued_at = 0;
    std::size_t slice_length = 0;
    bool done = false;
};

/** Finder statistics. */
struct FinderStats {
    std::uint64_t tokens_observed = 0;
    std::uint64_t jobs_launched = 0;
    std::uint64_t tokens_analyzed = 0;
    std::uint64_t candidates_produced = 0;
    /** Jobs recycled from the free pool (vs freshly allocated). */
    std::uint64_t jobs_recycled = 0;
    /** Memo outcomes over ingested jobs. Every job is a hit or was
     * mined: `mining_fast_path_hits` counts private-memo hits,
     * `mining_cache_hits` shared-memo hits (and
     * `mining_cache_cross_hits` the subset another tenant published),
     * `mining_full` windows this finder mined. A hit did no suffix
     * work and no slice materialization. */
    std::uint64_t mining_fast_path_hits = 0;
    std::uint64_t mining_full = 0;
    std::uint64_t mining_cache_hits = 0;
    std::uint64_t mining_cache_cross_hits = 0;
    /** Always 0. Kept only because the end-to-end benchmark's
     * `core.finder.repair_frac` reads it. */
    std::uint64_t mining_repairs = 0;
};

/** See file comment. */
class TraceFinder {
  public:
    /** `mining_cache` (optional, shared, thread-safe) becomes the
     * finder's memo — the cluster front-end passes one cache to all of
     * its nodes' finders so an identical window is mined once
     * cluster-wide (mining_cache.h). Without one the finder owns a
     * private memo of at most kPrivateMemoWindows * batchsize
     * tokens' resident bytes. */
    TraceFinder(const ApopheniaConfig& config, support::Executor& executor,
                MiningCache* mining_cache = nullptr);

    /** The private memo's byte budget, in windows of up to
     * `batchsize` tokens. */
    static constexpr std::size_t kPrivateMemoWindows = 8;

    /** Drains the executor: no closure may outlive the jobs it points
     * to. A failure the drain rethrows is dropped here. */
    ~TraceFinder();

    TraceFinder(const TraceFinder&) = delete;
    TraceFinder& operator=(const TraceFinder&) = delete;

    /** Record one token; launches mining jobs per the sampling
     * schedule. `now` is the global task counter. */
    void Observe(rt::TokenHash token, std::uint64_t now);

    /**
     * Note that a trace replay ended at stream position `pos` (tasks
     * before `pos` have been issued). Subsequent analyses include
     * windows *anchored* at this boundary, so candidates aligned with
     * the not-yet-covered remainder of the stream (the "gap" between
     * replays) are discovered. Without this, a sub-period trace can
     * lock the replayer out of ever seeing candidates at the phases
     * it leaves uncovered — the long cuPyNumeric warmups of the
     * paper's figure 9 are this effect.
     */
    void NoteReplayBoundary(std::uint64_t pos);

    // -- Job introspection and ingestion (launch order) ---------------------

    /** Launched-but-not-ingested jobs. */
    std::size_t PendingJobCount() const { return inflight_.Size(); }

    /** True iff a job is pending and the oldest one has completed. */
    bool OldestJobDone() const
    {
        return !inflight_.Empty() &&
               inflight_.Front()->done.load(std::memory_order_acquire);
    }

    /** Visit pending jobs with id >= `first_id`, oldest first. */
    void VisitPendingJobs(
        std::uint64_t first_id,
        const std::function<void(const PendingJobInfo&)>& visit) const;

    /** Complete the oldest pending job (which must exist) and return
     * it: run it on this thread if no worker has started it, else
     * wait for the worker to finish it. A job whose body threw
     * rethrows that exception here. The reference stays valid until
     * ReleaseOldestJob(). */
    const AnalysisJob& WaitOldestJob();

    /** Recycle the oldest pending job after its results have been
     * consumed. Must follow WaitOldestJob(). */
    void ReleaseOldestJob();

    const FinderStats& Stats() const { return stats_; }

    /** The memo this finder owns (nullptr when a shared one was
     * passed in): the service's memory watermark counts, halves and
     * unblocks it. */
    MiningCache* PrivateMemo() const { return private_memo_.get(); }

  private:
    void LaunchAnalysis(std::size_t slice_length, std::uint64_t now);
    AnalysisJob* AcquireJob();
    /** Run launch `id` of `job` on this thread, keeping what it
     * throws, and mark it done; false, running nothing, if another
     * thread started it first or the job has since been relaunched. */
    bool RunUnclaimed(AnalysisJob& job, std::uint64_t id);
    /** Probe the memo, else mine and publish. */
    void RunJob(AnalysisJob& job);
    /** Mine job.slice with the configured algorithm. */
    std::vector<CandidateTrace> Mine(const AnalysisJob& job);

    const ApopheniaConfig* config_;
    support::Executor* executor_;
    std::unique_ptr<MiningCache> private_memo_;
    MiningCache* memo_;  ///< the shared cache, or private_memo_
    /** The rank-table miner; its table is shared by this finder's
     * workers, so miner_mutex_ guards every Mine call. */
    strings::IncrementalMiner miner_;
    std::mutex miner_mutex_;
    HistoryRing history_;  ///< sliding window, <= batchsize tokens
    std::uint64_t sample_counter_ = 0;  ///< k of the ruler schedule
    /** Launch-order FIFO of jobs awaiting ingestion. */
    support::SlotRing<std::unique_ptr<AnalysisJob>> inflight_;
    /** Recycled job storage (snapshot spans, slice and result
     * buffers keep their capacity). */
    std::vector<std::unique_ptr<AnalysisJob>> free_jobs_;
    FinderStats stats_;
    /** Latest replay boundary, and the anchored-window length that
     * triggers the next anchored analysis (doubles each launch to
     * preserve the O(n log n) total analysis budget). */
    std::uint64_t anchor_ = 0;
    std::uint64_t anchor_next_len_ = 0;
};

/**
 * Run the configured repeat-mining algorithm over `slice` and convert
 * the repeats into candidate traces: filter to >= 2 occurrences and
 * min_trace_length, and chunk anything longer than max_trace_length.
 * Exposed for testing and for the ablation benches.
 */
std::vector<CandidateTrace> MineSlice(
    const std::vector<rt::TokenHash>& slice, const ApopheniaConfig& config);

/**
 * The post-mining half of MineSlice: filter repeats to >= 2
 * occurrences, chunk to max_trace_length, and apply speculative
 * period completion. Factored out so the finder's rank-table miner's
 * repeat sets convert through exactly the code path MineSlice uses.
 */
std::vector<CandidateTrace> RepeatsToCandidates(
    const std::vector<strings::Repeat>& repeats,
    std::span<const rt::TokenHash> slice, const ApopheniaConfig& config);

}  // namespace apo::core

#endif  // APOPHENIA_CORE_FINDER_H
