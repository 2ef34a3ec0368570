#include "runtime/oplog.h"

#include <algorithm>

namespace apo::rt {

OperationLog::OperationLog(const Config& config) : config_(config)
{
    if (config_.ops_per_block == 0) {
        config_.ops_per_block = 1;
    }
    if (config_.payload_block_elems == 0) {
        config_.payload_block_elems = 1;
    }
}

void
OperationLog::NoteAllocated(std::size_t bytes)
{
    resident_bytes_ += bytes;
    peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
}

OperationLog::OpRow&
OperationLog::Row(std::size_t index)
{
    assert(index < appended_);
    const std::size_t cap = config_.ops_per_block;
    // Every block holds exactly `cap` rows starting at its `begin`,
    // and retirement removes whole blocks from the front, so relative
    // addressing from the front block is O(1) — even when a checkpoint
    // restore re-based the log at an arbitrary absolute index (the
    // front `begin` then need not be a multiple of the block size).
    const std::size_t front_begin = row_blocks_.front().begin;
    assert(index >= front_begin);
    const std::size_t block = (index - front_begin) / cap;
    return row_blocks_[block].rows[(index - front_begin) % cap];
}

const OperationLog::OpRow&
OperationLog::Row(std::size_t index) const
{
    return const_cast<OperationLog*>(this)->Row(index);
}

OpView
OperationLog::ViewOf(const OpRow& row, std::size_t index) const
{
    OpView view;
    view.index = index;
    view.launch.task = row.task;
    view.launch.requirements = row.requirements;
    view.launch.requirement_count = row.requirement_count;
    view.launch.execution_us = row.execution_us;
    view.launch.shard = row.shard;
    view.launch.blocking = row.blocking;
    view.launch.traceable = row.traceable;
    view.launch.token = row.token;
    view.token = row.token;
    view.dependences =
        DependenceSpan{{row.dependences, row.dependence_count}};
    view.mode = row.mode;
    view.trace = row.trace;
    view.analysis_cost_us = row.analysis_cost_us;
    view.replay_head = row.replay_head;
    return view;
}

OpView
OperationLog::operator[](std::size_t index) const
{
    return ViewOf(Row(index), index);
}

void
OperationLog::PushRowBlock()
{
    RowBlock block;
    if (!row_free_list_.empty()) {
        block.rows = std::move(row_free_list_.back());
        row_free_list_.pop_back();
    } else {
        block.rows = std::make_unique<OpRow[]>(config_.ops_per_block);
        NoteAllocated(config_.ops_per_block * sizeof(OpRow));
    }
    block.begin = appended_;
    block.count = 0;
    row_blocks_.push_back(std::move(block));
}

template <typename T>
T*
OperationLog::AllocSpan(PayloadColumn<T>& column, std::size_t count,
                        std::size_t op_index)
{
    if (count == 0) {
        return nullptr;
    }
    const std::size_t standard = config_.payload_block_elems;
    if (column.blocks.empty() ||
        column.blocks.back().used + count >
            column.blocks.back().capacity) {
        typename PayloadColumn<T>::Block block;
        if (count <= standard && !column.free_list.empty()) {
            block = std::move(column.free_list.back());
            column.free_list.pop_back();
            block.used = 0;
        } else {
            block.capacity = std::max(standard, count);
            block.data = std::make_unique<T[]>(block.capacity);
            NoteAllocated(block.capacity * sizeof(T));
        }
        column.blocks.push_back(std::move(block));
    }
    auto& back = column.blocks.back();
    T* span = back.data.get() + back.used;
    back.used += count;
    back.last_op = op_index;
    return span;
}

template <typename T>
void
OperationLog::StockColumn(PayloadColumn<T>& column, std::size_t blocks)
{
    while (column.free_list.size() < blocks) {
        typename PayloadColumn<T>::Block block;
        block.capacity = config_.payload_block_elems;
        block.data = std::make_unique<T[]>(block.capacity);
        NoteAllocated(block.capacity * sizeof(T));
        column.free_list.push_back(std::move(block));
    }
    // The handle vector must not reallocate mid-append either.
    column.blocks.reserve(column.blocks.size() +
                          column.free_list.size());
}

template <typename T>
void
OperationLog::RecycleColumnBefore(PayloadColumn<T>& column,
                                  std::size_t first_live_op)
{
    while (column.blocks.size() > 1 &&
           column.blocks.front().last_op < first_live_op) {
        typename PayloadColumn<T>::Block block =
            std::move(column.blocks.front());
        column.blocks.erase(column.blocks.begin());
        if (block.capacity == config_.payload_block_elems) {
            block.used = 0;
            column.free_list.push_back(std::move(block));
        } else {
            // Oversized one-off block: actually release it.
            resident_bytes_ -= block.capacity * sizeof(T);
        }
    }
}

void
OperationLog::RecycleRetired()
{
    while (row_blocks_.size() > 1 &&
           row_blocks_.front().begin + config_.ops_per_block <=
               retired_) {
        row_free_list_.push_back(std::move(row_blocks_.front().rows));
        row_blocks_.erase(row_blocks_.begin());
    }
    RecycleColumnBefore(requirements_, retired_);
    RecycleColumnBefore(dependences_, retired_);
}

void
OperationLog::Append(const TaskLaunchView& launch, AnalysisMode mode,
                     TraceId trace, double analysis_cost_us,
                     bool replay_head,
                     std::span<const Dependence> dependences)
{
    const std::span<Dependence> edges =
        AppendRow(launch, mode, trace, analysis_cost_us, replay_head,
                  dependences.size(), Requirements::kCopy);
    std::copy(dependences.begin(), dependences.end(), edges.begin());
}

std::span<Dependence>
OperationLog::AppendRow(const TaskLaunchView& launch, AnalysisMode mode,
                        TraceId trace, double analysis_cost_us,
                        bool replay_head, std::size_t edge_count,
                        Requirements requirements)
{
    assert(requirements == Requirements::kCopy || Streaming());
    const std::size_t index = appended_;
    if (row_blocks_.empty() ||
        row_blocks_.back().count == config_.ops_per_block) {
        PushRowBlock();
    }
    RowBlock& block = row_blocks_.back();
    OpRow& row = block.rows[block.count];
    block.count += 1;
    appended_ += 1;

    row.task = launch.task;
    row.token = launch.token;
    row.execution_us = launch.execution_us;
    row.shard = launch.shard;
    row.blocking = launch.blocking;
    row.traceable = launch.traceable;
    row.mode = mode;
    row.trace = trace;
    row.analysis_cost_us = analysis_cost_us;
    row.replay_head = replay_head;

    row.requirement_count =
        static_cast<std::uint32_t>(launch.requirement_count);
    if (requirements == Requirements::kBorrow) {
        row.requirements = launch.requirements;
    } else {
        RegionRequirement* reqs =
            AllocSpan(requirements_, launch.requirement_count, index);
        if (launch.requirement_count != 0) {
            std::copy(launch.requirements,
                      launch.requirements + launch.requirement_count,
                      reqs);
        }
        row.requirements = reqs;
    }

    row.dependence_count = static_cast<std::uint32_t>(edge_count);
    row.dependences = AllocSpan(dependences_, edge_count, index);
    return {row.dependences, edge_count};
}

void
OperationLog::Reserve(std::size_t ops, std::size_t requirement_slots,
                      std::size_t dependence_slots)
{
    const std::size_t row_blocks =
        (ops + config_.ops_per_block - 1) / config_.ops_per_block + 1;
    while (row_free_list_.size() < row_blocks) {
        row_free_list_.push_back(
            std::make_unique<OpRow[]>(config_.ops_per_block));
        NoteAllocated(config_.ops_per_block * sizeof(OpRow));
    }
    row_blocks_.reserve(row_blocks_.size() + row_free_list_.size());
    const std::size_t payload = config_.payload_block_elems;
    StockColumn(requirements_,
                (requirement_slots + payload - 1) / payload + 1);
    StockColumn(dependences_,
                (dependence_slots + payload - 1) / payload + 1);
}

std::span<Dependence>
OperationLog::MutableDependences(std::size_t index)
{
    OpRow& row = Row(index);
    return {row.dependences, row.dependence_count};
}

void
OperationLog::ShrinkDependences(std::size_t index, std::size_t new_count)
{
    OpRow& row = Row(index);
    assert(new_count <= row.dependence_count);
    row.dependence_count = static_cast<std::uint32_t>(new_count);
}

void
OperationLog::RewriteAsAnalyzed(std::size_t index, double analysis_cost_us)
{
    OpRow& row = Row(index);
    row.mode = AnalysisMode::kAnalyzed;
    row.trace = kNoTrace;
    row.replay_head = false;
    row.analysis_cost_us = analysis_cost_us;
}

void
OperationLog::EnableStreaming(Consumer consumer)
{
    assert(empty() && "EnableStreaming requires an empty log");
    consumer_ = std::move(consumer);
}

void
OperationLog::SetRetireBound(std::size_t bound)
{
    retire_bound_ = std::max(retire_bound_, bound);
    if (!Streaming()) {
        return;
    }
    const std::size_t target = std::min(retire_bound_, appended_);
    while (retired_ < target) {
        consumer_(ViewOf(Row(retired_), retired_));
        retired_ += 1;
    }
    RecycleRetired();
}

std::size_t
OperationLog::ResidentBlocks() const
{
    return row_blocks_.size() + requirements_.blocks.size() +
           dependences_.blocks.size();
}

OperationLog
OperationLog::Clone() const
{
    assert(!Streaming() && "streaming logs cannot be cloned");
    OperationLog copy(config_);
    copy.Reserve(appended_ - retired_, 0, 0);
    // A checkpoint-restored retained log is resident only from its
    // restore base; the clone re-bases identically.
    copy.appended_ = copy.retired_ = copy.retire_bound_ = retired_;
    for (std::size_t i = retired_; i < appended_; ++i) {
        const OpView op = (*this)[i];
        copy.Append(op.launch, op.mode, op.trace, op.analysis_cost_us,
                    op.replay_head, op.dependences);
    }
    return copy;
}

void
OperationLog::SaveState(fault::CheckpointWriter& writer) const
{
    writer.BeginSection(fault::SectionTag::kOperationLog);
    writer.Bool(Streaming());
    writer.U64(appended_);
    writer.EndSection();
}

void
OperationLog::LoadState(fault::CheckpointReader& reader)
{
    if (!empty()) {
        throw fault::CheckpointError(
            "OperationLog::LoadState requires an empty log");
    }
    reader.BeginSection(fault::SectionTag::kOperationLog);
    const bool was_streaming = reader.Bool();
    const std::uint64_t base = reader.U64();
    reader.EndSection();
    if (was_streaming != Streaming()) {
        throw fault::CheckpointError(
            "checkpoint log mode does not match the restoring log");
    }
    // Re-base: the restored log continues appending at the
    // checkpointed absolute index. Everything below the base is gone
    // (retired in streaming mode; simply non-resident in retained
    // mode) — dependence edges keep their absolute source indices as
    // plain values, which is all the digests and the replay machinery
    // ever read from pre-base history.
    appended_ = retired_ = retire_bound_ = base;
}

}  // namespace apo::rt
