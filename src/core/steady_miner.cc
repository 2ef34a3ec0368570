#include "core/steady_miner.h"

#include <utility>

#include "core/mining_cache.h"

namespace apo::core {

SteadyStateMiner::SteadyStateMiner(const ApopheniaConfig& config)
    : config_(&config),
      miner_(strings::RepeatOptions{
          .min_length = config.min_trace_length,
          .min_occurrences = 2,
      })
{
    ring_.reserve(config.incremental_ring_windows);
}

template <typename VerifyEquals>
std::shared_ptr<const std::vector<CandidateTrace>>
SteadyStateMiner::ProbeLocked(std::uint64_t fingerprint, std::size_t length,
                              const VerifyEquals& equals)
{
    for (Entry& entry : ring_) {
        if (!entry.valid || entry.fingerprint != fingerprint ||
            entry.window.size() != length) {
            continue;
        }
        if (!equals(entry)) {
            continue;  // fingerprint collision: degrade to mining
        }
        ++stats_.fast_path_hits;
        return entry.results;
    }
    return nullptr;
}

std::shared_ptr<const std::vector<CandidateTrace>>
SteadyStateMiner::Probe(const HistorySnapshot& snapshot)
{
    // Same fold as the shared cache's content address, walked over the
    // zero-copy block spans.
    const MiningCache::Key key = MiningCache::KeyOf(snapshot);
    std::lock_guard lock(mutex_);
    ++stats_.probes;
    return ProbeLocked(key.hash, key.length, [&](const Entry& entry) {
        std::size_t offset = 0;
        for (const HistorySnapshot::Span& span : snapshot.Spans()) {
            if (strings::CommonPrefixLength(span.data,
                                            entry.window.data() + offset,
                                            span.length) != span.length) {
                return false;
            }
            offset += span.length;
        }
        return true;
    });
}

std::shared_ptr<const std::vector<CandidateTrace>>
SteadyStateMiner::Probe(std::span<const rt::TokenHash> slice)
{
    const MiningCache::Key key = MiningCache::KeyOf(slice);
    std::lock_guard lock(mutex_);
    ++stats_.probes;
    return ProbeLocked(key.hash, key.length, [&](const Entry& entry) {
        return strings::CommonPrefixLength(slice.data(), entry.window.data(),
                                           slice.size()) == slice.size();
    });
}

SteadyStateMiner::Entry&
SteadyStateMiner::SlotFor(std::size_t length)
{
    // One slot per window shape: the ruler schedule cycles through a
    // handful of lengths, and only a same-length window can ever
    // fast-path against an entry.
    for (Entry& entry : ring_) {
        if (entry.valid && entry.window.size() == length) {
            return entry;
        }
    }
    if (ring_.size() < config_->incremental_ring_windows) {
        ring_.emplace_back();
        return ring_.back();
    }
    Entry& victim = ring_[next_slot_];
    next_slot_ = (next_slot_ + 1) % ring_.size();
    return victim;
}

std::shared_ptr<const std::vector<CandidateTrace>>
SteadyStateMiner::Mine(const std::vector<rt::TokenHash>& slice,
                       MiningPath* path)
{
    const MiningCache::Key key =
        MiningCache::KeyOf(std::span<const rt::TokenHash>(slice));
    std::lock_guard lock(mutex_);
    std::shared_ptr<const std::vector<CandidateTrace>> results;
    std::size_t period = 0;
    if (config_->repeats_algorithm ==
        RepeatsAlgorithm::kQuickMatchingOfSubstrings) {
        const std::vector<strings::Repeat>& repeats = miner_.Mine(slice);
        if (!repeats.empty() && repeats.front().starts.size() >= 2) {
            period =
                repeats.front().starts[1] - repeats.front().starts[0];
        }
        results = std::make_shared<const std::vector<CandidateTrace>>(
            RepeatsToCandidates(repeats, slice, *config_));
        const bool reused =
            miner_.LastTier() != strings::MiningTier::kFull;
        *path = reused ? MiningPath::kRepair : MiningPath::kFull;
        if (reused) {
            ++stats_.repairs;
        } else {
            ++stats_.full_rebuilds;
        }
    } else {
        // Baseline algorithms mine classically; the ring still
        // memoizes their results — verified adoption is sound for any
        // deterministic mining function.
        results = std::make_shared<const std::vector<CandidateTrace>>(
            MineSlice(slice, *config_));
        *path = MiningPath::kFull;
        ++stats_.full_rebuilds;
    }
    Entry& entry = SlotFor(slice.size());
    entry.valid = true;
    entry.fingerprint = key.hash;
    entry.window.assign(slice.begin(), slice.end());
    entry.results = results;
    entry.period = period;
    ++stats_.memoized;
    return results;
}

void
SteadyStateMiner::Memoize(
    const HistorySnapshot& snapshot,
    std::shared_ptr<const std::vector<CandidateTrace>> results)
{
    const MiningCache::Key key = MiningCache::KeyOf(snapshot);
    std::lock_guard lock(mutex_);
    Entry& entry = SlotFor(key.length);
    entry.valid = true;
    entry.fingerprint = key.hash;
    snapshot.CopyTo(entry.window);
    entry.results = std::move(results);
    entry.period = 0;
    ++stats_.memoized;
}

void
SteadyStateMiner::Memoize(
    std::span<const rt::TokenHash> slice,
    std::shared_ptr<const std::vector<CandidateTrace>> results)
{
    const MiningCache::Key key = MiningCache::KeyOf(slice);
    std::lock_guard lock(mutex_);
    Entry& entry = SlotFor(key.length);
    entry.valid = true;
    entry.fingerprint = key.hash;
    entry.window.assign(slice.begin(), slice.end());
    entry.results = std::move(results);
    entry.period = 0;
    ++stats_.memoized;
}

SteadyStateMiner::Stats
SteadyStateMiner::Snapshot() const
{
    std::lock_guard lock(mutex_);
    return stats_;
}

void
SteadyStateMiner::SaveState(fault::CheckpointWriter& writer) const
{
    std::lock_guard lock(mutex_);
    writer.BeginSection(fault::SectionTag::kSteadyMiner);
    writer.U64(next_slot_);
    writer.U64(stats_.probes);
    writer.U64(stats_.fast_path_hits);
    writer.U64(stats_.repairs);
    writer.U64(stats_.full_rebuilds);
    writer.U64(stats_.memoized);
    writer.U64(ring_.size());
    for (const Entry& entry : ring_) {
        writer.Bool(entry.valid);
        if (!entry.valid) {
            continue;
        }
        writer.U64(entry.fingerprint);
        writer.VecU64(entry.window);
        writer.U64(entry.period);
        SaveCandidates(writer, entry.results != nullptr
                                   ? *entry.results
                                   : std::vector<CandidateTrace>{});
    }
    writer.EndSection();
}

void
SteadyStateMiner::LoadState(fault::CheckpointReader& reader)
{
    std::lock_guard lock(mutex_);
    if (!ring_.empty()) {
        throw fault::CheckpointError(
            "SteadyStateMiner::LoadState requires a fresh engine");
    }
    reader.BeginSection(fault::SectionTag::kSteadyMiner);
    next_slot_ = reader.U64();
    stats_.probes = reader.U64();
    stats_.fast_path_hits = reader.U64();
    stats_.repairs = reader.U64();
    stats_.full_rebuilds = reader.U64();
    stats_.memoized = reader.U64();
    ring_.resize(reader.Count());
    for (Entry& entry : ring_) {
        entry.valid = reader.Bool();
        if (!entry.valid) {
            continue;
        }
        entry.fingerprint = reader.U64();
        entry.window = reader.VecU64();
        entry.period = reader.U64();
        entry.results = std::make_shared<const std::vector<CandidateTrace>>(
            LoadCandidates(reader));
    }
    reader.EndSection();
}

std::vector<std::size_t>
SteadyStateMiner::RingPeriods() const
{
    std::lock_guard lock(mutex_);
    std::vector<std::size_t> periods;
    for (const Entry& entry : ring_) {
        if (entry.valid) {
            periods.push_back(entry.period);
        }
    }
    return periods;
}

}  // namespace apo::core
