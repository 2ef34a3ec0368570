/**
 * @file
 * TorchSWE task-stream skeleton (paper section 6.1, figure 7b).
 *
 * TorchSWE is a cuPyNumeric port of an MPI-based shallow-water
 * equation solver and the largest cuPyNumeric application to date.
 * The properties the paper highlights, reproduced here:
 *
 *  - it maintains a large number of fields per simulated point and
 *    issues separate array operations on each field, so iterations
 *    contain many tasks (traces exceed 2000 tasks at 64 GPUs) while
 *    the per-task granularity stays small;
 *  - adding resolution grows the memory footprint faster than the
 *    average task granularity, so *no* problem size can hide untraced
 *    runtime overhead — tracing is a requirement, and only automatic
 *    tracing is practical for its code size;
 *  - like all cuPyNumeric programs, results live in freshly allocated
 *    regions recycled by the allocator, so the stream period spans
 *    multiple source iterations and no manual annotation exists.
 */
#ifndef APOPHENIA_APPS_TORCHSWE_H
#define APOPHENIA_APPS_TORCHSWE_H

#include <vector>

#include "apps/app.h"
#include "apps/array.h"

namespace apo::apps {

/** Tuning knobs for the TorchSWE skeleton. */
struct TorchSweOptions {
    MachineConfig machine;
    ProblemSize size = ProblemSize::kMedium;
    /** Conserved fields (w, hu, hv) plus auxiliary per-point fields;
     * each gets its own per-iteration operations. */
    std::size_t fields = 8;
    /** Flux/slope operations per field per iteration. */
    std::size_t ops_per_field = 4;
    double exec_small_us = 3900.0;
    double exec_medium_us = 5000.0;
    double exec_large_us = 6500.0;
    /** Per-participant cost of the global timestep (CFL) reduction. */
    double collective_per_gpu_us = 10.0;
    /** cuPyNumeric grows its allocation pool until it reaches a
     * budget before recycling buffers; until then every operation
     * result lives in a brand-new region, so the early task stream
     * never repeats. This is the dynamic behaviour behind the paper's
     * ~300-iteration TorchSWE/CFD warmups (figure 9 and section 6.3).
     * Measured in regions (roughly fields * ops_per_field + 1 per
     * iteration). */
    std::size_t allocation_pool_budget = 1600;
};

/** See file comment. */
class TorchSweApplication final : public Application {
  public:
    explicit TorchSweApplication(TorchSweOptions options);

    std::string_view Name() const override { return "TorchSWE"; }
    bool SupportsManualTracing() const override { return false; }

    void Setup(api::Frontend& fe) override;
    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override;

    double KernelUs() const;

  private:
    /** Pool-aware allocation: fresh regions until the budget, then
     * LIFO reuse of released ones. */
    DistArray Alloc(api::Frontend& fe);
    void Release(DistArray dead);

    TorchSweOptions options_;
    /** Task id of array operation `op` of field `f`, at
     * [f * ops_per_field + op]. */
    std::vector<rt::TaskId> op_ids_;
    std::vector<DistArray> state_;  ///< one array per field
    std::vector<DistArray> pool_;   ///< released arrays awaiting reuse
    std::size_t regions_created_ = 0;
};

}  // namespace apo::apps

#endif  // APOPHENIA_APPS_TORCHSWE_H
