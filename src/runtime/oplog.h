/**
 * @file
 * The columnar operation log: structure-of-arrays storage for the
 * runtime's per-launch record, with chunked block allocation and an
 * optional streaming-retire mode.
 *
 * The seed kept the log as an AoS `std::vector<Operation>` whose every
 * entry owned a requirement vector and a dependence-edge vector — one
 * or more heap allocations per launch on the untraced hot path, and a
 * structure the simulator could only consume wholesale after the run
 * finished. This log stores three columns instead:
 *
 *  - flat POD op rows (task id, token, mode, costs, flags),
 *  - a shared requirement arena,
 *  - a shared dependence-edge arena,
 *
 * each grown in fixed-size blocks. A row addresses its payloads as
 * (pointer, count) spans into the arenas; a span never straddles a
 * block boundary, so reads are plain contiguous spans. Blocks are
 * recycled through free lists, so steady-state append performs zero
 * heap allocations per launch (see Reserve() and the streaming mode).
 *
 * Reading is by cursor/view: `log[i]` and iteration yield OpView, a
 * non-owning snapshot whose spans point into the arenas.
 *
 * **Streaming retire.** A registered consumer (EnableStreaming) is
 * handed every operation exactly once, in log order, as soon as the
 * producer declares it complete (SetRetireBound — the runtime keeps
 * operations of an open trace fragment resident so a replay mismatch
 * can still rewind them). Blocks whose operations have all been
 * retired return to the free lists, so resident memory is bounded by
 * a constant number of blocks regardless of stream length — the
 * "application stream far larger than memory" scenario.
 *
 * **Borrowed requirements.** A row normally owns its requirements: it
 * copies them into the arena, and a retained row keeps them for the
 * log's lifetime. A streaming row appended with Requirements::kBorrow
 * points at the caller's launch storage instead. Only the runtime's
 * one-call fragment replay (Runtime::ExecuteFragment) appends such
 * rows, and it retires every one of them before it returns, while
 * that storage is still unchanged; so a consumer reads each row's
 * requirements as the launch's own. A retained row always owns its
 * requirements.
 */
#ifndef APOPHENIA_RUNTIME_OPLOG_H
#define APOPHENIA_RUNTIME_OPLOG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/checkpoint.h"
#include "runtime/dependence.h"
#include "runtime/region.h"
#include "runtime/task.h"
#include "runtime/trace.h"

namespace apo::rt {

/** How a logged operation's dependences were obtained. */
enum class AnalysisMode : std::uint8_t {
    kAnalyzed,  ///< full dynamic dependence analysis (cost α)
    kRecorded,  ///< analyzed while memoizing a trace (cost α_m)
    kReplayed,  ///< replayed from a trace template (cost α_r)
};

/**
 * A non-owning view of one logged operation. The spans point into the
 * log's arenas: valid as long as the operation is resident (forever in
 * retained mode; until the consumer callback returns for an operation
 * being retired in streaming mode).
 */
struct OpView {
    std::size_t index = 0;
    /** The launch as recorded (requirements span the shared arena;
     * `launch.token` is the validation token). */
    TaskLaunchView launch;
    /** Convenience alias of launch.token. */
    TokenHash token = 0;
    /** Edges into earlier operations (deduplicated, sorted by source). */
    DependenceSpan dependences;
    AnalysisMode mode = AnalysisMode::kAnalyzed;
    TraceId trace = kNoTrace;
    /** Analysis-stage cost charged for this operation (µs). */
    double analysis_cost_us = 0.0;
    /** True for the first operation of a trace replay (carries the
     * per-replay constant c in analysis_cost_us). */
    bool replay_head = false;
};

/** See file comment. */
class OperationLog {
  public:
    /** Block-granularity tuning. The defaults keep blocks in the tens
     * of kilobytes; the streaming-retire resident ceiling is a small
     * multiple of these sizes. */
    struct Config {
        std::size_t ops_per_block = 1024;      ///< rows per row block
        std::size_t payload_block_elems = 4096;  ///< arena entries/block
    };

    /** Streaming-retire consumer: receives each operation exactly
     * once, in log order. The view's spans are valid only for the
     * duration of the call. */
    using Consumer = std::function<void(const OpView&)>;

    OperationLog() : OperationLog(Config{}) {}
    explicit OperationLog(const Config& config);

    OperationLog(const OperationLog&) = delete;
    OperationLog& operator=(const OperationLog&) = delete;
    OperationLog(OperationLog&&) = default;
    OperationLog& operator=(OperationLog&&) = default;

    // -- Append (the runtime's side) ---------------------------------------

    /**
     * Append one operation: the launch's requirements and the edge
     * list are copied into the arenas; nothing else is allocated once
     * the block free lists are warm.
     */
    void Append(const TaskLaunchView& launch, AnalysisMode mode,
                TraceId trace, double analysis_cost_us, bool replay_head,
                std::span<const Dependence> dependences);

    /** Where an appended row's requirements live (see the file
     * comment). */
    enum class Requirements : bool {
        kCopy,    ///< copied into the requirement arena
        kBorrow,  ///< the caller's launch storage; streaming logs only
    };

    /** Append one operation with room for `edge_count` edges in the
     * arena, and return that room: the caller writes the edges
     * (sorted by source) before the row retires. */
    std::span<Dependence> AppendRow(const TaskLaunchView& launch,
                                    AnalysisMode mode, TraceId trace,
                                    double analysis_cost_us,
                                    bool replay_head,
                                    std::size_t edge_count,
                                    Requirements requirements);

    /** Pre-stock the block free lists so the next `ops` appends
     * (touching up to `requirement_slots` / `dependence_slots` arena
     * entries) allocate nothing. */
    void Reserve(std::size_t ops, std::size_t requirement_slots,
                 std::size_t dependence_slots);

    // -- Read (cursor/view API) --------------------------------------------

    /** Operations ever appended (including retired ones). */
    std::size_t size() const { return appended_; }
    bool empty() const { return appended_ == 0; }

    /** View one resident operation (streaming mode: index must be
     * >= RetiredCount()). */
    OpView operator[](std::size_t index) const;
    OpView back() const { return (*this)[appended_ - 1]; }

    class const_iterator {
      public:
        const_iterator(const OperationLog* log, std::size_t index)
            : log_(log), index_(index)
        {
        }
        OpView operator*() const { return (*log_)[index_]; }
        const_iterator& operator++()
        {
            ++index_;
            return *this;
        }
        friend bool operator==(const const_iterator&,
                               const const_iterator&) = default;

      private:
        const OperationLog* log_;
        std::size_t index_;
    };

    /** Iterates the resident suffix (everything in retained mode). */
    const_iterator begin() const
    {
        return const_iterator(this, retired_);
    }
    const_iterator end() const { return const_iterator(this, appended_); }

    // -- In-place mutation (transitive reduction, mismatch rewind) ---------

    /** The edge span of a resident operation, writable. */
    std::span<Dependence> MutableDependences(std::size_t index);

    /** Shrink an operation's edge count (transitive reduction removes
     * implied edges; the arena slots are simply abandoned). */
    void ShrinkDependences(std::size_t index, std::size_t new_count);

    /** Rewrite a resident operation as plainly analyzed: the fallback
     * mismatch policy rewinds the already-replayed prefix of an
     * abandoned fragment to full-analysis accounting. The edges are
     * untouched — a replayed operation's edges equal what fresh
     * analysis would have produced for the identical stream. */
    void RewriteAsAnalyzed(std::size_t index, double analysis_cost_us);

    // -- Streaming retire --------------------------------------------------

    /** Switch to streaming-retire mode. Must be called while the log
     * is empty. */
    void EnableStreaming(Consumer consumer);
    bool Streaming() const { return static_cast<bool>(consumer_); }

    /**
     * Declare operations below `bound` complete. In streaming mode
     * this drains them to the consumer (exactly once, in order) and
     * recycles exhausted blocks; in retained mode it is a no-op. The
     * bound is monotonic.
     */
    void SetRetireBound(std::size_t bound);

    /** Operations already handed to the consumer. */
    std::size_t RetiredCount() const { return retired_; }

    // -- Memory accounting -------------------------------------------------

    /** Bytes held in blocks right now (free lists included — they are
     * real memory). */
    std::size_t ResidentBytes() const { return resident_bytes_; }
    std::size_t PeakResidentBytes() const { return peak_resident_bytes_; }
    /** Live (non-free-list) blocks across all three columns. */
    std::size_t ResidentBlocks() const;

    const Config& GetConfig() const { return config_; }

    /** Deep copy (retained logs only; the reduction path simulates on
     * a pruned copy). */
    OperationLog Clone() const;

    // -- Checkpoint/restore ------------------------------------------------

    /** Serialize the log's append cursor. The log *content* is not
     * checkpointed: a restored log is re-based at the checkpointed
     * absolute index and continues appending there, so later
     * operations keep their absolute indices (dependence edges and
     * stream digests fold absolute indices, so the restore must
     * preserve them bit-for-bit). */
    void SaveState(fault::CheckpointWriter& writer) const;

    /** Restore onto a freshly constructed (empty) log with the same
     * Config and streaming mode as the checkpointed one.
     * @throws fault::CheckpointError on a non-empty log, a mode
     *   mismatch, or a malformed image. */
    void LoadState(fault::CheckpointReader& reader);

  private:
    /** One POD row; payload spans point into the arenas. */
    struct OpRow {
        TaskId task = 0;
        TokenHash token = 0;
        const RegionRequirement* requirements = nullptr;
        Dependence* dependences = nullptr;
        double execution_us = 0.0;
        double analysis_cost_us = 0.0;
        TraceId trace = kNoTrace;
        std::uint32_t requirement_count = 0;
        std::uint32_t dependence_count = 0;
        std::uint32_t shard = 0;
        AnalysisMode mode = AnalysisMode::kAnalyzed;
        bool blocking = false;
        bool traceable = true;
        bool replay_head = false;
    };

    struct RowBlock {
        std::unique_ptr<OpRow[]> rows;
        std::size_t begin = 0;  ///< index of rows[0]
        std::size_t count = 0;
    };

    /** A payload arena column: spans are contiguous within one block;
     * an append that would straddle seals the block (wasting its tail)
     * and opens the next. */
    template <typename T>
    struct PayloadColumn {
        struct Block {
            std::unique_ptr<T[]> data;
            std::size_t capacity = 0;
            std::size_t used = 0;
            /** Highest op index that allocated here: the block is
             * recyclable once every op through it has retired. */
            std::size_t last_op = 0;
        };
        /** Live blocks, oldest first. A vector (not a deque): retiring
         * erases from the front, which shifts a handful of block
         * handles but never allocates — the steady state must be
         * allocation-free. */
        std::vector<Block> blocks;
        std::vector<Block> free_list;
    };

    OpRow& Row(std::size_t index);
    const OpRow& Row(std::size_t index) const;
    OpView ViewOf(const OpRow& row, std::size_t index) const;
    void PushRowBlock();
    template <typename T>
    T* AllocSpan(PayloadColumn<T>& column, std::size_t count,
                 std::size_t op_index);
    template <typename T>
    void StockColumn(PayloadColumn<T>& column, std::size_t blocks);
    template <typename T>
    void RecycleColumnBefore(PayloadColumn<T>& column,
                             std::size_t first_live_op);
    void RecycleRetired();
    void NoteAllocated(std::size_t bytes);

    Config config_;
    std::vector<RowBlock> row_blocks_;
    std::vector<std::unique_ptr<OpRow[]>> row_free_list_;
    PayloadColumn<RegionRequirement> requirements_;
    PayloadColumn<Dependence> dependences_;

    std::size_t appended_ = 0;
    std::size_t retired_ = 0;
    std::size_t retire_bound_ = 0;
    Consumer consumer_;

    std::size_t resident_bytes_ = 0;
    std::size_t peak_resident_bytes_ = 0;
};

}  // namespace apo::rt

#endif  // APOPHENIA_RUNTIME_OPLOG_H
