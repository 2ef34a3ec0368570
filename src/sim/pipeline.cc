#include "sim/pipeline.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "runtime/graph.h"

namespace apo::sim {

PipelineSimulator::PipelineSimulator(const PipelineOptions& options)
    : options_(options)
{
    if (options_.inline_transitive_reduction) {
        throw std::invalid_argument(
            "PipelineSimulator: the inline transitive reduction is a "
            "whole-log transform; use SimulatePipeline on a retained "
            "log");
    }
    launch_us_ = options_.costs.launch_us +
                 (options_.apophenia_front_end
                      ? options_.costs.apophenia_launch_us
                      : 0.0);
    cross_latency_ = options_.machine.CrossNodeLatencyUs();
    num_nodes_ = std::max<std::size_t>(options_.machine.nodes, 1);
    num_gpus_ = std::max<std::size_t>(options_.machine.GpuCount(), 1);
    analysis_free_.assign(num_nodes_, 0.0);
    gpu_free_.assign(num_gpus_, 0.0);
}

// Schedule execution of one op given its analysis-ready time. `node`
// is the op's unclamped machine node (MachineConfig::NodeOf(shard)).
void
PipelineSimulator::ExecuteOp(std::size_t index, std::uint32_t shard,
                             std::uint32_t node, double execution_us,
                             bool blocking,
                             std::span<const rt::Dependence> deps,
                             double analysis_ready)
{
    const std::size_t gpu = std::min<std::size_t>(shard, num_gpus_ - 1);
    double ready = analysis_ready;
    for (const rt::Dependence& d : deps) {
        double dep_done = result_.finish_us[d.from];
        if (nodes_[d.from] != node) {
            dep_done += cross_latency_;  // data crosses the network
        }
        ready = std::max(ready, dep_done);
    }
    const double start = std::max(ready, gpu_free_[gpu]);
    const double finish = start + execution_us;
    assert(index == result_.finish_us.size());
    (void)index;
    result_.finish_us.push_back(finish);
    nodes_.push_back(node);
    gpu_free_[gpu] = finish;
    result_.makespan_us = std::max(result_.makespan_us, finish);
    if (blocking) {
        app_gate_ = std::max(app_gate_, finish);
    }
}

void
PipelineSimulator::ProcessSequential(const rt::OpView& op)
{
    // Analyzed or recorded operation: flows through the owning
    // node's analysis resource one task at a time; the analysis
    // pipeline runs ahead of execution freely (it needs no
    // execution events, only region metadata) — up to the
    // operation window (-lg:window), which bounds in-flight state.
    app_time_ = std::max(app_time_, app_gate_) + launch_us_;
    const std::uint32_t node = static_cast<std::uint32_t>(
        options_.machine.NodeOf(op.launch.shard));
    const std::size_t n = AnalysisNode(node);
    // A skewed node pays the factor on both its analysis and its
    // execution of the task (kNone is exactly 1.0).
    const double factor = options_.skew.Factor(n, op.index);
    double start = std::max(analysis_free_[n], app_time_);
    if (options_.window != 0 && op.index >= options_.window) {
        start = std::max(start,
                         result_.finish_us[op.index - options_.window]);
    }
    analysis_free_[n] = start + op.analysis_cost_us * factor;
    ExecuteOp(op.index, op.launch.shard, node,
              op.launch.execution_us * factor, op.launch.blocking,
              op.dependences, analysis_free_[n]);
}

void
PipelineSimulator::FlushFragment()
{
    if (!in_fragment_) {
        return;
    }
    // (1) No speculation: the replay is issued only once the
    // application has launched the entire fragment.
    double arrival = 0.0;
    node_tasks_.assign(num_nodes_, 0);
    for (const FragOp& op : fragment_) {
        app_time_ = std::max(app_time_, app_gate_) + launch_us_;
        arrival = app_time_;
        node_tasks_[AnalysisNode(op.node)] += 1;
    }
    // (2) Each node replays its shard of the fragment as one
    // block on its analysis resource; the fragment's tasks
    // become executable only when their node's whole block has
    // been instantiated. With small tasks and a pipeline that
    // drains (blocking futures), this block release is what
    // exposes long replays (figure 8).
    node_done_.assign(num_nodes_, 0.0);
    const std::uint64_t frag_pos = fragment_.front().index;
    for (std::size_t n = 0; n < num_nodes_; ++n) {
        if (node_tasks_[n] == 0) {
            continue;
        }
        // The whole replay block runs at the node's skew factor at
        // the fragment's stream position (one replay = one op).
        const double start = std::max(analysis_free_[n], arrival);
        node_done_[n] = start +
                        (options_.costs.replay_constant_us +
                         options_.costs.replay_us *
                             static_cast<double>(node_tasks_[n])) *
                            options_.skew.Factor(n, frag_pos);
        analysis_free_[n] = node_done_[n];
    }
    for (const FragOp& op : fragment_) {
        const std::size_t n = AnalysisNode(op.node);
        ExecuteOp(op.index, op.shard, op.node,
                  op.execution_us * options_.skew.Factor(n, op.index),
                  op.blocking,
                  std::span<const rt::Dependence>(
                      frag_deps_.data() + op.dep_begin,
                      frag_deps_.data() + op.dep_end),
                  node_done_[n]);
    }
    in_fragment_ = false;
    fragment_.clear();
    frag_deps_.clear();
}

void
PipelineSimulator::BufferFragOp(const rt::OpView& op)
{
    // The record is built in its vector slot. Filled on the stack, its
    // narrow stores would be read back by the copy into the vector
    // with wide loads, which stall on store forwarding, once per
    // replayed operation.
    FragOp& frag = fragment_.emplace_back();
    frag.index = op.index;
    frag.shard = op.launch.shard;
    frag.node = static_cast<std::uint32_t>(
        options_.machine.NodeOf(op.launch.shard));
    frag.execution_us = op.launch.execution_us;
    frag.blocking = op.launch.blocking;
    frag.dep_begin = frag_deps_.size();
    frag_deps_.insert(frag_deps_.end(), op.dependences.begin(),
                      op.dependences.end());
    frag.dep_end = frag_deps_.size();
}

void
PipelineSimulator::Consume(const rt::OpView& op)
{
    if (in_fragment_) {
        // A replayed fragment's extent: Apophenia issues fragments
        // contiguously, and a new instance starts at the next
        // replay_head.
        if (op.mode == rt::AnalysisMode::kReplayed &&
            op.trace == fragment_trace_ && !op.replay_head) {
            BufferFragOp(op);
            return;
        }
        FlushFragment();
    }
    if (op.mode == rt::AnalysisMode::kReplayed && op.replay_head) {
        in_fragment_ = true;
        fragment_trace_ = op.trace;
        BufferFragOp(op);
        return;
    }
    ProcessSequential(op);
}

PipelineResult
PipelineSimulator::Finish()
{
    FlushFragment();
    return std::move(result_);
}

PipelineResult
SimulatePipeline(const rt::OperationLog& log,
                 const PipelineOptions& options)
{
    if (options.inline_transitive_reduction) {
        // Simulate on the transitively reduced graph, as Legion does
        // with -lg:inline_transitive_reduction (same ordering, fewer
        // event edges).
        rt::OperationLog reduced = log.Clone();
        rt::TransitiveReduction(reduced, /*window=*/options.window);
        PipelineOptions inner = options;
        inner.inline_transitive_reduction = false;
        return SimulatePipeline(reduced, inner);
    }
    PipelineSimulator simulator(options);
    for (const auto& op : log) {
        simulator.Consume(op);
    }
    return simulator.Finish();
}

}  // namespace apo::sim
