/**
 * @file
 * Discrete-event simulator of the runtime's pipelined architecture
 * (paper section 5.2): tasks flow through the application phase (the
 * launch into Apophenia/the runtime), the analysis phase (dependence
 * analysis, trace recording, or trace replay — one sequential
 * resource per node, since the analysis is sharded under control
 * replication), and the execution phase (one FIFO resource per GPU,
 * ordered by the dependence graph, with cross-node dependences paying
 * a communication latency).
 *
 * Replayed fragments occupy the analysis stage as a unit: Legion
 * issues a trace replay as one operation, so the tasks of a replayed
 * fragment only become eligible for execution when the whole replay
 * has been processed (and, per the no-speculation decision, a replay
 * is not issued until the application has launched the entire
 * fragment). This is the mechanism behind figure 8's observation that
 * very long traces expose latency once per-task execution shrinks.
 *
 * Two consumption styles over the same core:
 *  - SimulatePipeline(log, options): the retained-log path — simulate
 *    a finished run wholesale;
 *  - PipelineSimulator: the streaming path — feed operations one at a
 *    time (e.g. as the OperationLog's streaming-retire consumer), so
 *    a stream far larger than memory simulates in bounded space. The
 *    two are arithmetically identical: the retained path is a loop
 *    over Consume() + Finish().
 *
 * Wall-clock time everywhere in this simulator is *simulated* time,
 * parameterized by the paper's published cost constants (CostModel).
 */
#ifndef APOPHENIA_SIM_PIPELINE_H
#define APOPHENIA_SIM_PIPELINE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/app.h"
#include "runtime/cost_model.h"
#include "runtime/runtime.h"
#include "sim/skew.h"

namespace apo::sim {

/** Simulation parameters. */
struct PipelineOptions {
    apps::MachineConfig machine;
    rt::CostModel costs;
    /** Charge the Apophenia front-end's extra per-launch cost. */
    bool apophenia_front_end = false;
    /** Per-(node, task) timing skew: stretches each operation's
     * analysis/replay-block and execution costs by the owning node's
     * SkewModel::Factor at that stream position, so a straggler or
     * an interference burst lands in the makespan. kNone (the
     * default) yields exactly-1.0 factors — the simulated times are
     * bit-identical to a skew-free build. */
    SkewModel skew;
    /** Operation window (-lg:window): the analysis stage may run at
     * most this many operations ahead of completed execution, bounding
     * the runtime's in-flight state. The artifact uses 30000. 0
     * disables the bound. */
    std::size_t window = 30000;
    /** Apply Legion's inline transitive reduction to the dependence
     * graph before simulating (-lg:inline_transitive_reduction).
     * Retained-log path only: the reduction is a whole-log transform. */
    bool inline_transitive_reduction = false;
};

/** Per-operation timing produced by the simulation. */
struct PipelineResult {
    /** Completion time (µs) of each operation's execution. */
    std::vector<double> finish_us;
    /** Time at which the last operation finished. */
    double makespan_us = 0.0;
};

/**
 * The incremental simulator core. Feed operations in log order via
 * Consume() — replayed fragments are buffered internally until their
 * extent is known — then Finish() flushes the trailing fragment and
 * yields the result. Suitable as an OperationLog streaming-retire
 * consumer: nothing of the operation is referenced after Consume()
 * returns (the per-op history it keeps — finish time and node — is a
 * few bytes per operation).
 */
class PipelineSimulator {
  public:
    /** @throws std::invalid_argument if options request the inline
     *  transitive reduction (a whole-log transform). */
    explicit PipelineSimulator(const PipelineOptions& options);

    void Consume(const rt::OpView& op);
    PipelineResult Finish();

  private:
    struct FragOp {
        std::size_t index = 0;
        std::uint32_t shard = 0;
        std::uint32_t node = 0;  ///< machine node of `shard`, unclamped
        double execution_us = 0.0;
        bool blocking = false;
        std::size_t dep_begin = 0;  ///< span into frag_deps_
        std::size_t dep_end = 0;
    };

    /** The analysis resource of a machine node: the node, clamped to
     * the modelled node count. */
    std::size_t AnalysisNode(std::uint32_t node) const
    {
        return std::min<std::size_t>(node, num_nodes_ - 1);
    }
    void ExecuteOp(std::size_t index, std::uint32_t shard,
                   std::uint32_t node, double execution_us, bool blocking,
                   std::span<const rt::Dependence> deps,
                   double analysis_ready);
    void ProcessSequential(const rt::OpView& op);
    void BufferFragOp(const rt::OpView& op);
    void FlushFragment();

    PipelineOptions options_;
    double launch_us_ = 0.0;
    double cross_latency_ = 0.0;
    std::size_t num_nodes_ = 1;
    std::size_t num_gpus_ = 1;

    double app_time_ = 0.0;  ///< application phase clock
    /** Blocking futures (e.g. a training loop reading back the loss)
     * stall the application thread until the producing task finishes;
     * launches after the producer cannot happen before this gate. */
    double app_gate_ = 0.0;
    std::vector<double> analysis_free_;
    std::vector<double> gpu_free_;
    PipelineResult result_;
    /** Machine node of every processed op, unclamped (the cross-node
     * dependence check compares these instead of dividing shards). */
    std::vector<std::uint32_t> nodes_;

    bool in_fragment_ = false;
    rt::TraceId fragment_trace_ = rt::kNoTrace;
    std::vector<FragOp> fragment_;
    std::vector<rt::Dependence> frag_deps_;
    std::vector<std::size_t> node_tasks_;  ///< fragment-flush scratch
    std::vector<double> node_done_;
};

/** Simulate the execution of a retained runtime operation log. */
PipelineResult SimulatePipeline(const rt::OperationLog& log,
                                const PipelineOptions& options);

}  // namespace apo::sim

#endif  // APOPHENIA_SIM_PIPELINE_H
