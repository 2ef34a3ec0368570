/**
 * @file
 * HTR task-stream skeleton (paper section 6.1, figure 6b).
 *
 * HTR is a production hypersonic aerothermodynamics solver performing
 * multi-physics simulation (convection, diffusion, chemistry,
 * radiation) of high-enthalpy flows. Structurally it is a statically
 * allocated multi-stage per-iteration pipeline like S3D but with more
 * physics kernels per stage, plus an infrequent statistics/averages
 * computation that interrupts the otherwise periodic stream.
 */
#ifndef APOPHENIA_APPS_HTR_H
#define APOPHENIA_APPS_HTR_H

#include <vector>

#include "apps/app.h"
#include "apps/array.h"

namespace apo::apps {

/** Tuning knobs for the HTR skeleton. */
struct HtrOptions {
    MachineConfig machine;
    ProblemSize size = ProblemSize::kMedium;
    /** RK sub-steps per iteration. */
    std::size_t stages = 3;
    /** Physics kernels per stage per GPU. */
    std::size_t kernels_per_stage = 8;
    /** Statistics are gathered every this-many iterations. */
    std::size_t stats_interval = 8;
    double exec_small_us = 5600.0;
    double exec_medium_us = 7500.0;
    double exec_large_us = 10500.0;
};

/** See file comment. */
class HtrApplication final : public Application {
  public:
    explicit HtrApplication(HtrOptions options);

    std::string_view Name() const override { return "HTR"; }
    bool SupportsManualTracing() const override { return true; }

    void Setup(api::Frontend& fe) override;
    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override;

    double KernelUs() const;

  private:
    void Stage(api::Frontend& fe, std::size_t stage);
    void Statistics(api::Frontend& fe);

    HtrOptions options_;
    /** Task id of physics kernel k of stage s, at
     * [s * kernels_per_stage + k]. */
    std::vector<rt::TaskId> kernel_ids_;
    DistArray conserved_;  ///< flow state
    DistArray primitive_;  ///< derived primitive variables
    DistArray fluxes_;     ///< face fluxes
    DistArray sources_;    ///< chemistry/radiation source terms
    DistArray stats_;      ///< time-averaged statistics
};

}  // namespace apo::apps

#endif  // APOPHENIA_APPS_HTR_H
