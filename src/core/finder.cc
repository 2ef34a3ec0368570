#include "core/finder.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/mining_cache.h"
#include "strings/identifiers.h"
#include "strings/repeats.h"
#include "support/ruler.h"

namespace apo::core {

namespace {

/** Chunk a repeat's token sequence to the configured maximum length,
 * keeping a remainder only if it is itself a viable trace. */
void
EmitChunked(const strings::Repeat& repeat, const ApopheniaConfig& config,
            std::vector<CandidateTrace>& out)
{
    const auto& tokens = repeat.tokens;
    const double occurrences =
        static_cast<double>(repeat.starts.size());
    if (tokens.size() <= config.max_trace_length) {
        out.push_back(CandidateTrace{tokens, occurrences});
        return;
    }
    for (std::size_t begin = 0; begin < tokens.size();
         begin += config.max_trace_length) {
        const std::size_t len =
            std::min(config.max_trace_length, tokens.size() - begin);
        if (len < config.min_trace_length) {
            break;  // tail too short to amortize a replay
        }
        out.push_back(CandidateTrace{
            {tokens.begin() + begin, tokens.begin() + begin + len},
            occurrences});
    }
}

}  // namespace

std::vector<CandidateTrace>
RepeatsToCandidates(const std::vector<strings::Repeat>& repeats,
                    std::span<const rt::TokenHash> slice,
                    const ApopheniaConfig& config)
{
    std::vector<CandidateTrace> out;
    out.reserve(repeats.size());
    for (const strings::Repeat& r : repeats) {
        if (r.starts.size() < 2) {
            continue;  // a trace must repeat to be worth memoizing
        }
        EmitChunked(r, config, out);
        // Speculative period completion: when two occurrences sit a
        // fixed distance d apart with d greater than the repeat
        // length, the stream is likely periodic with period d and the
        // repeat is a fragment of a longer loop body. Emit the full
        // presumed period as a low-confidence candidate; if the guess
        // is wrong it simply never matches in the trie.
        if (config.speculative_period_completion && r.starts.size() >= 2) {
            const std::size_t d = r.starts[1] - r.starts[0];
            if (d > r.Length() && d >= config.min_trace_length &&
                r.starts[0] + d <= slice.size()) {
                strings::Repeat period;
                period.tokens.assign(
                    slice.begin() + r.starts[0],
                    slice.begin() + r.starts[0] + d);
                period.starts = {r.starts[0]};
                EmitChunked(period, config, out);
            }
        }
    }
    return out;
}

std::vector<CandidateTrace>
MineSlice(const std::vector<rt::TokenHash>& slice,
          const ApopheniaConfig& config)
{
    std::vector<strings::Repeat> repeats;
    switch (config.repeats_algorithm) {
      case RepeatsAlgorithm::kQuickMatchingOfSubstrings:
        repeats = strings::FindRepeats(
            slice, {.min_length = config.min_trace_length,
                    .min_occurrences = 2});
        break;
      case RepeatsAlgorithm::kTandem:
        repeats =
            strings::FindTandemRepeats(slice, config.min_trace_length);
        break;
      case RepeatsAlgorithm::kLzw:
        repeats = strings::FindRepeatsLzw(slice, config.min_trace_length);
        break;
      case RepeatsAlgorithm::kQuadratic:
        repeats =
            strings::FindRepeatsQuadratic(slice, config.min_trace_length);
        break;
    }
    return RepeatsToCandidates(repeats, slice, config);
}

TraceFinder::TraceFinder(const ApopheniaConfig& config,
                         support::Executor& executor,
                         MiningCache* mining_cache)
    : config_(&config),
      executor_(&executor),
      private_memo_(mining_cache == nullptr
                        ? std::make_unique<MiningCache>(/*max_windows=*/0)
                        : nullptr),
      memo_(mining_cache != nullptr ? mining_cache : private_memo_.get()),
      miner_(strings::RepeatOptions{.min_length = config.min_trace_length,
                                    .min_occurrences = 2}),
      history_(config.batchsize, config.history_block_size)
{
}

TraceFinder::~TraceFinder()
{
    // Queued closures hold raw pointers to our jobs, claimed or not;
    // none may survive us. Every job body keeps its own failure, so a
    // drain can only rethrow another submitter's, which is not ours to
    // report.
    try {
        executor_->Drain();
    } catch (...) {
    }
}

void
TraceFinder::Observe(rt::TokenHash token, std::uint64_t now)
{
    // Record namespace-relative tokens. Repeat mining is not
    // XOR-equivariant (suffix order depends on token values), so
    // mining the canonical window is what makes local mining and
    // cross-tenant adoption agree, and keeps a tenant's decisions
    // independent of its salt.
    history_.Append(rt::FoldNamespace(config_->cache_namespace, token));
    stats_.tokens_observed += 1;

    if (config_->identifier_algorithm == IdentifierAlgorithm::kBatched) {
        if (stats_.tokens_observed % config_->batchsize == 0) {
            LaunchAnalysis(history_.Size(), now);
        }
        return;
    }
    // Multi-scale: at every multiple of the scale factor, analyze the
    // last factor * 2^ruler(k) tokens (figure 5).
    if (stats_.tokens_observed % config_->multi_scale_factor == 0) {
        ++sample_counter_;
        const std::size_t len = support::RulerSampleLength(
            sample_counter_, config_->multi_scale_factor,
            config_->batchsize);
        LaunchAnalysis(std::min(len, history_.Size()), now);
        // Replay-anchored window: align a slice with the end of the
        // last replay so gap-phase candidates are found (see
        // NoteReplayBoundary). Lengths double per launch.
        if (anchor_ != 0 && stats_.tokens_observed > anchor_ &&
            stats_.tokens_observed - anchor_ >= anchor_next_len_) {
            const std::size_t anchored_len =
                std::min<std::uint64_t>(stats_.tokens_observed - anchor_,
                                        config_->batchsize);
            LaunchAnalysis(std::min<std::size_t>(anchored_len,
                                                 history_.Size()),
                           now);
            anchor_next_len_ = anchored_len * 2;
        }
    }
}

void
TraceFinder::NoteReplayBoundary(std::uint64_t pos)
{
    if (!config_->replay_anchored_analysis) {
        return;
    }
    anchor_ = pos;
    anchor_next_len_ = 2 * config_->min_trace_length;
}

AnalysisJob*
TraceFinder::AcquireJob()
{
    if (!free_jobs_.empty()) {
        std::unique_ptr<AnalysisJob> job = std::move(free_jobs_.back());
        free_jobs_.pop_back();
        stats_.jobs_recycled += 1;
        inflight_.push_back(std::move(job));
    } else {
        inflight_.push_back(std::make_unique<AnalysisJob>(*this));
    }
    return inflight_.back().get();
}

void
TraceFinder::LaunchAnalysis(std::size_t slice_length, std::uint64_t now)
{
    if (slice_length < 2 * config_->min_trace_length) {
        return;  // cannot contain two occurrences of any viable trace
    }
    AnalysisJob* job = AcquireJob();
    job->id = stats_.jobs_launched++;
    job->issued_at = now;
    job->slice_length = slice_length;
    job->done.store(false, std::memory_order_relaxed);
    job->error = nullptr;
    stats_.tokens_analyzed += slice_length;

    // Zero-copy hand-off: the job references the history blocks; the
    // thread that runs it materializes them off the application's
    // critical path.
    history_.SnapshotLastN(slice_length, job->snapshot);
    job->unclaimed.store(job->id + 1);
    executor_->Submit(
        [job, id = job->id] { job->finder->RunUnclaimed(*job, id); });
}

bool
TraceFinder::RunUnclaimed(AnalysisJob& job, std::uint64_t id)
{
    std::uint64_t expected = id + 1;
    if (!job.unclaimed.compare_exchange_strong(expected, 0)) {
        return false;
    }
    try {
        RunJob(job);
    } catch (...) {
        job.error = std::current_exception();
    }
    job.done.store(true, std::memory_order_release);
    return true;
}

void
TraceFinder::RunJob(AnalysisJob& job)
{
    // Probe the memo: a verified hit adopts the stored set in place
    // and never materializes the slice. The candidate set is a pure
    // function of the (namespace-relative) window, so adopting and
    // mining agree bit for bit.
    const rt::TokenHash owner = config_->cache_namespace;
    const MiningCache::Key key = MiningCache::KeyOf(job.snapshot);
    MiningCache::Claim claim =
        memo_->AcquireOrBegin(key, job.snapshot, owner);
    if (claim.results != nullptr) {
        job.results = std::move(claim.results);
        job.memo_hit = true;
        job.memo_cross = claim.owner != owner;
        return;
    }
    job.snapshot.CopyTo(job.slice);
    if (!claim.miner) {
        // Verified key collision: a different window owns the entry.
        // Mine locally; publish nothing.
        job.results =
            std::make_shared<const std::vector<CandidateTrace>>(Mine(job));
        return;
    }
    std::vector<CandidateTrace> mined;
    try {
        mined = Mine(job);
    } catch (...) {
        memo_->Abandon(key);
        throw;
    }
    job.results = memo_->Publish(key, job.slice, std::move(mined), owner);
    if (private_memo_ != nullptr) {
        private_memo_->EvictToResidentBytes(kPrivateMemoWindows *
                                            config_->batchsize *
                                            sizeof(rt::TokenHash));
    }
}

std::vector<CandidateTrace>
TraceFinder::Mine(const AnalysisJob& job)
{
    if (config_->repeats_algorithm !=
        RepeatsAlgorithm::kQuickMatchingOfSubstrings) {
        return MineSlice(job.slice, *config_);
    }
    std::vector<strings::Repeat> repeats;
    {
        std::lock_guard lock(miner_mutex_);
        miner_.Mine(job.slice, repeats);
    }
    return RepeatsToCandidates(repeats, job.slice, *config_);
}

void
TraceFinder::VisitPendingJobs(
    std::uint64_t first_id,
    const std::function<void(const PendingJobInfo&)>& visit) const
{
    for (const auto& job : inflight_) {
        if (job->id < first_id) {
            continue;
        }
        visit(PendingJobInfo{
            job->id, job->issued_at, job->slice_length,
            job->done.load(std::memory_order_acquire)});
    }
}

const AnalysisJob&
TraceFinder::WaitOldestJob()
{
    AnalysisJob& job = *inflight_.front();
    // Run the job here unless a worker started it first; its queued
    // closure then finds it claimed and does nothing. A worker's run
    // is waited out by yielding: a blocking atomic wait on `done`
    // measured no better on apobench's htr_replicated8 (4 vCPUs).
    if (!RunUnclaimed(job, job.id)) {
        while (!job.done.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
    }
    if (job.error) {
        std::rethrow_exception(job.error);
    }
    return job;
}

void
TraceFinder::ReleaseOldestJob()
{
    std::unique_ptr<AnalysisJob> job = std::move(inflight_.front());
    inflight_.pop_front();
    stats_.candidates_produced += job->Results().size();
    if (!job->memo_hit) {
        ++stats_.mining_full;
    } else if (private_memo_ != nullptr) {
        ++stats_.mining_fast_path_hits;
    } else {
        ++stats_.mining_cache_hits;
        if (job->memo_cross) {
            ++stats_.mining_cache_cross_hits;
        }
    }
    job->memo_hit = false;
    job->memo_cross = false;
    job->snapshot.Clear();
    job->results = nullptr;
    free_jobs_.push_back(std::move(job));
}

}  // namespace apo::core
