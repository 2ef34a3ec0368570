#include "core/apophenia.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace apo::core {

Apophenia::Apophenia(rt::Runtime& runtime, ApopheniaConfig config,
                     support::Executor* executor,
                     MiningCache* mining_cache)
    : runtime_(&runtime),
      config_(config),
      executor_(executor != nullptr ? executor : &default_executor_),
      finder_(config_, *executor_, mining_cache),
      scorer_(config_),
      wheel_(CandidateTrie::kChunkSize, kNoEvent)
{
}

void
Apophenia::DoExecuteTask(const rt::TaskLaunchView& launch)
{
    if (!config_.enabled) {
        runtime_->ExecuteTask(launch);
        return;
    }
    if (degraded_) {
        // Overload posture: issue straight through. The token is NOT
        // shown to the finder — the degraded window never enters the
        // history ring, the mining memo or (via mining) the trie, so
        // leaving degrade later is bit-safe. SetDegraded(true) already
        // drained the pending buffer and match state.
        ++counter_;
        stats_.tasks_observed += 1;
        stats_.tasks_degraded += 1;
        stats_.tasks_forwarded_untraced += 1;
        runtime_->ExecuteTask(launch);
        EmitTask(counter_ - 1);
        pending_base_ = counter_;
        return;
    }
    // The launch's dependence-analysis token was hashed at the API
    // boundary and rides on the view. Untraceable operations get a
    // unique *mining* token per occurrence, so they can never appear
    // inside a repeated fragment: no candidate will contain them,
    // matches break across them, and the pending prefix flushing
    // forwards them promptly. The unique token is a finder-side
    // fiction only — the runtime still logs the real one.
    const rt::TokenHash mining_token =
        launch.traceable
            ? launch.token
            : support::SplitMix64(~counter_ ^ 0xfeedface12345678ULL);
    ++counter_;
    stats_.tasks_observed += 1;
    finder_.Observe(mining_token, counter_);
    if (!owner_ingests_) {
        // Ingest every job at the task that launched it: the positions
        // inline mining gives, under any executor.
        while (finder_.PendingJobCount() > 0) {
            IngestOldestJob();
        }
    }
    AdvancePointers(mining_token);
    if (!AnyPointerAlive() && held_.Empty()) {
        // Fast path: no still-growing match and no queued replay can
        // cover this launch, so it is forwarded straight off the
        // caller's arena — no materialization, no allocation. Any
        // leftover pending tasks (matches that just died) go first to
        // preserve stream order.
        FlushPrefixBelow(counter_ - 1);
        runtime_->ExecuteTask(launch);
        EmitTask(counter_ - 1);
        pending_base_ = counter_;
        stats_.tasks_forwarded_untraced += 1;
        return;
    }
    pending_.PushBack().Assign(launch);
    stats_.launches_buffered += 1;
    stats_.pending_high_water =
        std::max(stats_.pending_high_water, pending_.Size());
    MaybeFire();
}

/** Forward the oldest buffered launch untraced; its slot is reused. */
void
Apophenia::ForwardFront()
{
    runtime_->ExecuteTask(pending_.Front().View());
    pending_.PopFront();
}

/**
 * Feed this task's mining token to the matcher. Only the pointers
 * whose event falls on this token do any work: each is caught up over
 * its run with one bulk compare (or one branch step), completes the
 * candidate it reached, and is rescheduled. Every other pointer lags
 * until a front query or its own event needs it. A new pointer starts
 * at the root last, so completions arrive in start order.
 */
void
Apophenia::AdvancePointers(rt::TokenHash token)
{
    PushToken(token);
    completed_.clear();
    // Events are queued less than a wheel turn ahead, so this slot
    // holds exactly the events due now. Rescheduling lands elsewhere.
    std::uint32_t next = std::exchange(wheel_[counter_ % wheel_.size()],
                                       kNoEvent);
    while (next != kNoEvent) {
        const Event event = event_pool_[next];
        event_pool_[next].next = free_events_;  // recycle the entry
        free_events_ = next;
        next = event.next;
        if (event.seq < pointers_seq_base_ + pointers_head_) {
            continue;  // erased or renumbered since it was queued
        }
        MatchPointer& p = pointers_[event.seq - pointers_seq_base_];
        if (p.node != CandidateTrie::kNoNode && CatchUp(p, counter_)) {
            Arrive(p);
            Schedule(event.seq, p);
        }
    }
    // Every token may start a match.
    const CandidateTrie::NodeId child =
        trie_.Step(CandidateTrie::kRoot, token);
    if (child != CandidateTrie::kNoNode) {
        const std::uint64_t seq = pointers_seq_base_ + pointers_.size();
        pointers_.push_back(MatchPointer{child, counter_ - 1, counter_});
        Arrive(pointers_.back());
        Schedule(seq, pointers_.back());
    }
    // A slot is in no particular order; weigh completions in start
    // order, as they would arrive from a start-ordered sweep.
    std::ranges::sort(completed_, {}, &CompletedMatch::start);
    ConsiderCompleted();
}

/** Append this task's mining token to the window, first retiring
 * erased pointers. A live pointer lags its newest token by less than
 * one run, and a run is shorter than a trie chunk, so only the last
 * kChunkSize tokens can still be read: the window drops a chunk's
 * worth whenever it holds two. Both trims are amortized O(1) and keep
 * their vector's capacity. */
void
Apophenia::PushToken(rt::TokenHash token)
{
    if (pointers_head_ > 0 && 2 * pointers_head_ >= pointers_.size()) {
        pointers_.erase(pointers_.begin(),
                        pointers_.begin() +
                            static_cast<std::ptrdiff_t>(pointers_head_));
        pointers_seq_base_ += pointers_head_;
        pointers_head_ = 0;
    }
    constexpr std::size_t kKeep = CandidateTrie::kChunkSize;
    if (window_.empty()) {
        window_base_ = counter_ - 1;
    } else if (window_.size() == 2 * kKeep) {
        window_.erase(window_.begin(),
                      window_.begin() + static_cast<std::ptrdiff_t>(kKeep));
        window_base_ += kKeep;
    }
    assert(window_base_ + window_.size() == counter_ - 1);
    window_.push_back(token);
}

/** `p` just reached its node with this token: if a candidate ends
 * there, refresh its decayed count and queue the completed match. */
void
Apophenia::Arrive(MatchPointer& p)
{
    if (CandidateStats* c = trie_.CandidateAt(p.node)) {
        c->count =
            c->Appearances(counter_, config_.score_decay_half_life) + 1.0;
        c->last_seen = counter_;
        completed_.push_back(CompletedMatch{c, p.start, counter_});
    }
}

/** Queue `p`'s next event: the end of its node's run, or — at a
 * branch, a leaf or a non-consecutive child — the next token, which
 * needs a real trie step. */
void
Apophenia::Schedule(std::uint64_t seq, const MatchPointer& p)
{
    const std::uint64_t at =
        p.validated_through + std::max(trie_.At(p.node).run, 1u);
    assert(at > counter_ - 1 && at - counter_ < wheel_.size());
    std::uint32_t entry = free_events_;
    if (entry == kNoEvent) {
        entry = static_cast<std::uint32_t>(event_pool_.size());
        event_pool_.emplace_back();
    } else {
        free_events_ = event_pool_[entry].next;
    }
    std::uint32_t& slot = wheel_[at % wheel_.size()];
    event_pool_[entry] = Event{seq, slot};
    slot = entry;
}

/**
 * Advance a live pointer to stream position `to`, which must not lie
 * past its event: what lies between is part of one run (a bulk compare
 * of the window against the run's tokens) or a single branch step.
 * Marks the pointer dead and returns false on a mismatch.
 */
bool
Apophenia::CatchUp(MatchPointer& p, std::uint64_t to) const
{
    if (p.validated_through == to) {
        return true;
    }
    assert(p.validated_through >= window_base_);
    const std::span<const rt::TokenHash> stream(
        window_.data() + (p.validated_through - window_base_),
        to - p.validated_through);
    const std::uint32_t run = trie_.At(p.node).run;
    if (run == 0) {
        assert(stream.size() == 1);
        p.node = trie_.Step(p.node, stream[0]);
    } else {
        assert(stream.size() <= run);
        p.node = std::ranges::equal(stream,
                                    trie_.RunTokens(p.node).first(
                                        stream.size()))
                     ? p.node + static_cast<std::uint32_t>(stream.size())
                     : CandidateTrie::kNoNode;
    }
    p.validated_through = to;
    return p.node != CandidateTrie::kNoNode;
}

/** Whether `p` is still a match as of the newest token (catching it
 * up); the front queries' test. */
bool
Apophenia::Alive(MatchPointer& p)
{
    return p.node != CandidateTrie::kNoNode && CatchUp(p, counter_);
}

/** Drop dead pointers off the front; true iff a live one remains,
 * which is then the oldest match in progress. */
bool
Apophenia::AnyPointerAlive()
{
    while (pointers_head_ < pointers_.size() &&
           !Alive(pointers_[pointers_head_])) {
        ++pointers_head_;
    }
    return pointers_head_ < pointers_.size();
}

/** Before the trie changes shape, catch every live pointer up to the
 * newest token: a candidate or branch inserted on a stretch a pointer
 * has already passed must not count as an arrival it never had, and
 * runs may shrink or grow under it. The live pointers are compacted
 * under fresh sequence numbers, so every queued event goes stale;
 * ScheduleAll() requeues them against the new trie. */
void
Apophenia::CatchUpAll()
{
    const std::uint64_t now = window_base_ + window_.size();
    std::size_t live = 0;
    for (std::size_t i = pointers_head_; i < pointers_.size(); ++i) {
        MatchPointer p = pointers_[i];
        if (p.node != CandidateTrie::kNoNode && CatchUp(p, now)) {
            pointers_[live++] = p;
        }
    }
    pointers_seq_base_ += pointers_.size();
    pointers_.resize(live);
    pointers_head_ = 0;
}

void
Apophenia::ScheduleAll()
{
    for (std::size_t i = pointers_head_; i < pointers_.size(); ++i) {
        Schedule(pointers_seq_base_ + i, pointers_[i]);
    }
}

/** Erase every pointer that starts before `start`: a prefix, since
 * pointers_ is in start order. */
void
Apophenia::ErasePointersBelow(std::uint64_t start)
{
    while (pointers_head_ < pointers_.size() &&
           pointers_[pointers_head_].start < start) {
        ++pointers_head_;
    }
}

/** Erase every pointer; their queued events go stale. */
void
Apophenia::ClearPointers()
{
    pointers_seq_base_ += pointers_.size();
    pointers_.clear();
    pointers_head_ = 0;
    window_.clear();
}

void
Apophenia::ConsiderCompleted()
{
    for (const CompletedMatch& m : completed_) {
        if (held_.Empty() || m.start >= held_.Back().end) {
            held_.PushBack() = m;  // disjoint successor: queue it
            continue;
        }
        // Overlapping: `m` ends at the newest token, so it overlaps a
        // suffix of the held queue. Replace that suffix only if `m`
        // outscores the whole of it (SelectReplayTrace's heuristic).
        std::size_t first_overlap = held_.Size();
        double displaced_score = 0.0;
        while (first_overlap > 0 &&
               held_[first_overlap - 1].end > m.start) {
            --first_overlap;
            displaced_score += scorer_.Score(
                *held_[first_overlap].stats, counter_);
        }
        if (scorer_.Score(*m.stats, counter_) > displaced_score) {
            while (held_.Size() > first_overlap) {
                held_.PopBack();
            }
            held_.PushBack() = m;
        }
    }
}

void
Apophenia::MaybeFire()
{
    // Fire queued matches from the front, stopping at the first one a
    // still-growing match (a live pointer that started at or before it
    // and can still advance) might supersede. pointers_ is in start
    // order, so only its prefix up to the match can block; the scan
    // catches up only the pointers it has to look at.
    while (!held_.Empty()) {
        const CompletedMatch front = held_.Front();
        bool blocked = false;
        for (std::size_t i = pointers_head_; i < pointers_.size(); ++i) {
            MatchPointer& p = pointers_[i];
            if (p.start > front.start) {
                break;
            }
            if (Alive(p) && trie_.At(p.node).HasChildren()) {
                blocked = true;
                break;
            }
        }
        if (blocked) {
            break;
        }
        held_.PopFront();
        Fire(front);
    }

    // Forward every task no in-progress match could still cover.
    std::uint64_t keep_from =
        AnyPointerAlive() ? pointers_[pointers_head_].start
                          : counter_;  // nothing matches before next token
    if (!held_.Empty()) {
        keep_from = std::min(keep_from, held_.Front().start);
    }
    FlushPrefixBelow(keep_from);

    // Bound the pending buffer (exploration must not hoard memory).
    if (pending_.Size() > config_.max_pending) {
        stats_.forced_flushes += 1;
        if (!held_.Empty()) {
            const CompletedMatch front = held_.Front();
            held_.PopFront();
            Fire(front);
        } else {
            const std::uint64_t target =
                pending_base_ + pending_.Size() / 2;
            ErasePointersBelow(target);
            FlushPrefixBelow(target);
        }
    }
}

void
Apophenia::Fire(const CompletedMatch& match)
{
    FlushPrefixBelow(match.start);
    CandidateStats* stats = match.stats;
    if (stats->trace_id == rt::kNoTrace) {
        stats->trace_id = next_trace_id_++;
    }
    const bool recording = !runtime_->HasTrace(stats->trace_id);
    // The fragment is pending_'s prefix; the runtime issues it in one
    // call, reading the launches from their slots.
    assert(pending_base_ == match.start);
    const std::size_t length = match.end - match.start;
    runtime_->ExecuteFragment(
        stats->trace_id, length,
        [this](std::size_t k) { return pending_[k].View(); });
    if (decisions_ != nullptr) {
        EmitMarker(Decision::Kind::kBegin, stats->trace_id, recording);
        for (std::uint64_t i = match.start; i < match.end; ++i) {
            EmitTask(i);
        }
        EmitMarker(Decision::Kind::kEnd, stats->trace_id, recording);
    }
    pending_.PopFront(length);
    pending_base_ = match.end;
    stats->replays += 1;
    stats_.traces_fired += 1;
    stats_.tasks_forwarded_traced += match.end - match.start;
    if (recording) {
        stats_.trace_records += 1;
    } else {
        stats_.trace_replays += 1;
    }
    // Matches overlapping the consumed range can no longer happen.
    ErasePointersBelow(match.end);
    // Future analyses include windows anchored here, so candidates
    // covering whatever follows this replay get discovered.
    finder_.NoteReplayBoundary(match.end);
}

void
Apophenia::FlushPrefixBelow(std::uint64_t keep_from)
{
    while (pending_base_ < keep_from && !pending_.Empty()) {
        ForwardFront();
        EmitTask(pending_base_);
        pending_base_ += 1;
        stats_.tasks_forwarded_untraced += 1;
    }
}

void
Apophenia::DoFlush()
{
    if (!config_.enabled) {
        return;
    }
    while (!held_.Empty()) {
        const CompletedMatch front = held_.Front();
        held_.PopFront();
        Fire(front);
    }
    FlushPrefixBelow(pending_base_ + pending_.Size());
    ClearPointers();
}

void
Apophenia::SetDegraded(bool degraded)
{
    if (degraded == degraded_ || !config_.enabled) {
        return;
    }
    if (degraded) {
        // Resolve every in-progress match before going dark, exactly
        // as DoFlush does at end-of-stream: profitable held matches
        // still fire (their tasks were already admitted), everything
        // else forwards untraced, and no active pointer survives into
        // the degraded window.
        while (!held_.Empty()) {
            const CompletedMatch front = held_.Front();
            held_.PopFront();
            Fire(front);
        }
        FlushPrefixBelow(pending_base_ + pending_.Size());
        ClearPointers();
    }
    degraded_ = degraded;
}

void
Apophenia::IngestOldestJob()
{
    const AnalysisJob& job = finder_.WaitOldestJob();
    const std::vector<CandidateTrace>& results = job.Results();
    const rt::TokenHash name_space = config_.cache_namespace;
    // Refreshing a known candidate's count leaves the trie's shape —
    // and so every pointer's run — alone; only a new one needs the
    // pointers caught up first.
    bool reshaped = false;
    for (const CandidateTrace& c : results) {
        // The finder mines namespace-relative tokens; the trie matches
        // the stream's own.
        const std::vector<rt::TokenHash>* tokens = &c.tokens;
        if (name_space != 0) {
            rekeyed_.resize(c.tokens.size());
            for (std::size_t i = 0; i < c.tokens.size(); ++i) {
                rekeyed_[i] = rt::FoldNamespace(name_space, c.tokens[i]);
            }
            tokens = &rekeyed_;
        }
        if (!reshaped && trie_.Find(*tokens) == nullptr) {
            CatchUpAll();
            reshaped = true;
        }
        trie_.Insert(*tokens, c.occurrences, counter_,
                     config_.score_decay_half_life);
        // Rolling identity of the full ingested candidate sequence
        // (tokens and occurrence counts, in ingestion order): two
        // front-ends that mined and ingested the same candidates at
        // the same stream positions report equal digests. The cheap
        // cross-run "candidate sets identical" check, like the
        // stream digest is for issued streams.
        candidate_digest_ =
            support::HashCombine(candidate_digest_, tokens->size());
        for (const rt::TokenHash token : *tokens) {
            candidate_digest_ =
                support::HashCombine(candidate_digest_, token);
        }
        candidate_digest_ = support::HashCombine(
            candidate_digest_,
            static_cast<std::uint64_t>(c.occurrences * 4096.0));
    }
    if (reshaped) {
        ScheduleAll();
    }
    stats_.jobs_ingested += 1;
    stats_.candidates_ingested += results.size();
    finder_.ReleaseOldestJob();
}

}  // namespace apo::core
