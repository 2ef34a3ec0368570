/**
 * @file
 * FlexFlow / CANDLE-pilot1 task-stream skeleton (paper section 6.2,
 * figure 8).
 *
 * FlexFlow trains deep neural networks on Legion. The benchmarked
 * network is the largest (pilot1) network of the CANDLE initiative,
 * parallelized with data parallelism (the paper's footnote 4): every
 * GPU holds a replica of the weights and a shard of the batch; each
 * iteration runs forward and backward passes per layer per GPU and
 * reduces weight gradients across GPUs.
 *
 * Strong scaling: the global batch size is fixed, so per-GPU kernel
 * time shrinks as GPUs are added while the number of tasks per GPU
 * stays constant — runtime overhead per task is progressively
 * exposed, which is what makes tracing (and the maximum trace length)
 * matter at scale.
 */
#ifndef APOPHENIA_APPS_FLEXFLOW_H
#define APOPHENIA_APPS_FLEXFLOW_H

#include <vector>

#include "apps/app.h"
#include "apps/array.h"

namespace apo::apps {

/** Tuning knobs for the FlexFlow skeleton. */
struct FlexFlowOptions {
    MachineConfig machine;
    /** Network depth (layers of the pilot1 MLP). */
    std::size_t layers = 12;
    /** Per-layer forward kernel time when the whole batch runs on a
     * single GPU (µs); strong scaling divides this by the GPU count. */
    double batch_exec_us = 96000.0;
    /** Per-participant cost of each gradient all-reduce. */
    double allreduce_per_gpu_us = 6.0;
};

/** See file comment. */
class FlexFlowApplication final : public Application {
  public:
    explicit FlexFlowApplication(FlexFlowOptions options);

    std::string_view Name() const override { return "FlexFlow"; }
    bool SupportsManualTracing() const override { return true; }

    void Setup(api::Frontend& fe) override;
    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override;

    /** Per-layer kernel time at the current GPU count. */
    double LayerExecUs() const;

  private:
    FlexFlowOptions options_;
    std::vector<rt::TaskId> forward_ids_;   ///< per layer
    std::vector<rt::TaskId> backward_ids_;  ///< per layer
    std::vector<DistArray> weights_;      ///< replicated per layer
    std::vector<DistArray> gradients_;    ///< reduced per layer
    std::vector<DistArray> activations_;  ///< sharded per layer
    DistArray input_;
};

}  // namespace apo::apps

#endif  // APOPHENIA_APPS_FLEXFLOW_H
