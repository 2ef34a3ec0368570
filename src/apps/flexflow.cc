#include "apps/flexflow.h"

#include <algorithm>
#include <string>

namespace apo::apps {

namespace {

// The hand-traced FlexFlow annotates *segments* of the iteration —
// thirds of the forward pass, thirds of the backward pass, the
// optimizer — so each trace is a few hundred tasks at scale (the
// paper notes the manual trace is about as long as auto-200's pieces,
// and that experts pick traces with lower replay overhead).
constexpr rt::TraceId kManualSegmentBase = 77003;

constexpr rt::TaskId kLoadBatch = rt::TaskIdOf("ff_load_batch");
constexpr rt::TaskId kUpdate = rt::TaskIdOf("ff_update");
constexpr rt::TaskId kLoss = rt::TaskIdOf("ff_loss");

}  // namespace

FlexFlowApplication::FlexFlowApplication(FlexFlowOptions options)
    : options_(options)
{
    for (std::size_t l = 0; l < options_.layers; ++l) {
        forward_ids_.push_back(
            rt::TaskIdOf("ff_forward_" + std::to_string(l)));
        backward_ids_.push_back(
            rt::TaskIdOf("ff_backward_" + std::to_string(l)));
    }
}

double
FlexFlowApplication::LayerExecUs() const
{
    return options_.batch_exec_us /
           static_cast<double>(options_.machine.GpuCount());
}

void
FlexFlowApplication::Setup(api::Frontend& fe)
{
    weights_.clear();
    gradients_.clear();
    activations_.clear();
    for (std::size_t l = 0; l < options_.layers; ++l) {
        weights_.emplace_back(fe);
        gradients_.emplace_back(fe);
        activations_.emplace_back(fe);
    }
    input_ = DistArray(fe);
}

void
FlexFlowApplication::Iteration(api::Frontend& fe, std::size_t iter,
                               bool manual_tracing)
{
    (void)iter;
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    const double exec = LayerExecUs();
    const std::size_t layers = options_.layers;

    // Batch loading stays outside the manual trace (I/O cannot be
    // memoized).
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kLoadBatch, g, exec * 0.05)
            .Add(input_.Write(g))
            .LaunchOn(fe);
    }

    // Forward pass: layer l reads weights (replicated: field 0) and
    // the previous activation shard.
    auto forward_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t l = lo; l < hi; ++l) {
            const DistArray& prev = l == 0 ? input_ : activations_[l - 1];
            for (std::uint32_t g = 0; g < gpus; ++g) {
                builder_.Start(forward_ids_[l], g, exec)
                    .Add(weights_[l].Read(0))
                    .Add(prev.Read(g))
                    .Add(activations_[l].Write(g))
                    .LaunchOn(fe);
            }
        }
    };
    // Backward pass: accumulate weight gradients with a sum reduction
    // (commutative across GPUs — Legion's reduction privilege).
    auto backward_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t l = hi; l-- > lo;) {
            for (std::uint32_t g = 0; g < gpus; ++g) {
                builder_.Start(backward_ids_[l], g, exec * 1.6)
                    .Add(activations_[l].Read(g))
                    .Add(weights_[l].Read(0))
                    .Add(gradients_[l].Reduce(0, /*op=*/1))
                    .LaunchOn(fe);
            }
        }
    };
    // Optimizer: one update task per layer consumes the reduced
    // gradient; its cost models the all-reduce fan-in.
    auto updates = [&] {
        for (std::size_t l = 0; l < layers; ++l) {
            builder_.Start(kUpdate, static_cast<std::uint32_t>(l % gpus),
                        exec * 0.2 + options_.allreduce_per_gpu_us *
                                         static_cast<double>(gpus))
                .Add(gradients_[l].ReadWrite(0))
                .Add(weights_[l].ReadWrite(0))
                .LaunchOn(fe);
        }
    };
    auto segment = [&](rt::TraceId id, auto&& body) {
        if (manual_tracing) {
            fe.BeginTrace(id);
        }
        body();
        if (manual_tracing) {
            fe.EndTrace(id);
        }
    };
    const std::size_t third = std::max<std::size_t>(layers / 3, 1);
    std::size_t trace_id = kManualSegmentBase;
    for (std::size_t lo = 0; lo < layers; lo += third) {
        const std::size_t hi = std::min(lo + third, layers);
        segment(trace_id++, [&] { forward_range(lo, hi); });
    }
    for (std::size_t hi = layers; hi > 0;
         hi -= std::min<std::size_t>(third, hi)) {
        const std::size_t lo = hi > third ? hi - third : 0;
        segment(trace_id++, [&] { backward_range(lo, hi); });
    }
    segment(trace_id++, updates);

    // The training loop inspects the loss every iteration (early
    // stopping, logging): a blocking future read that drains the
    // pipeline — the reason replay latency is exposed under strong
    // scaling (figure 8).
    builder_.Start(kLoss, 0, exec * 0.05)
        .Blocking()
        .Add(activations_[layers - 1].Read(0))
        .LaunchOn(fe);
}

}  // namespace apo::apps
