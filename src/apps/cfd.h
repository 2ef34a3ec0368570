/**
 * @file
 * CFD (cuPyNumeric channel flow) task-stream skeleton (paper section
 * 6.1, figure 7a).
 *
 * The application solves the Navier-Stokes equations for 2D channel
 * flow written against a NumPy-like array library ("CFD Python: the
 * 12 steps to Navier-Stokes"). Structurally, the library issues one
 * or more tasks per array operation and — crucially — allocates a
 * *fresh* region for every operation result, destroying dead arrays
 * immediately. Loop-carried variables therefore rebind to recycled
 * region ids, so the steady-state task stream is periodic with a
 * period of *several* source-level iterations (the section 2
 * pathology). That is why no manually traced CFD exists: the paper's
 * point is that Apophenia traces it anyway.
 */
#ifndef APOPHENIA_APPS_CFD_H
#define APOPHENIA_APPS_CFD_H

#include "apps/app.h"
#include "apps/array.h"

namespace apo::apps {

/** Tuning knobs for the CFD skeleton. */
struct CfdOptions {
    MachineConfig machine;
    ProblemSize size = ProblemSize::kSmall;
    /** Pressure-Poisson sub-iterations per time step. */
    std::size_t pressure_iters = 2;
    /** A residual check (an irregular, differently-shaped task
     * sequence) runs every this-many iterations. */
    std::size_t check_interval = 20;
    double exec_small_us = 3000.0;
    double exec_medium_us = 4500.0;
    double exec_large_us = 7000.0;
    /** Per-participant cost of the boundary/reduction collective —
     * the serial term that exposes communication on small problems at
     * scale. */
    double collective_per_gpu_us = 100.0;
};

/** See file comment. */
class CfdApplication final : public Application {
  public:
    explicit CfdApplication(CfdOptions options);

    std::string_view Name() const override { return "CFD"; }
    bool SupportsManualTracing() const override { return false; }

    void Setup(api::Frontend& fe) override;
    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override;

    double KernelUs() const;

  private:
    /** Stencil operation (reads neighbour shards) producing a fresh
     * array. */
    DistArray StencilOp(api::Frontend& fe, rt::TaskId task_id,
                        const DistArray& a, const DistArray& b,
                        double exec_scale);
    void ResidualCheck(api::Frontend& fe, std::size_t iter);

    CfdOptions options_;
    DistArray u_;  ///< x velocity
    DistArray v_;  ///< y velocity
    DistArray p_;  ///< pressure
};

}  // namespace apo::apps

#endif  // APOPHENIA_APPS_CFD_H
