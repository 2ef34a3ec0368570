#include "apps/htr.h"

#include <string>

namespace apo::apps {

namespace {

constexpr rt::TraceId kHtrManualTrace = 77002;

constexpr rt::TaskId kPrimitives = rt::TaskIdOf("htr_primitives");
constexpr rt::TaskId kUpdate = rt::TaskIdOf("htr_update");
constexpr rt::TaskId kAverage = rt::TaskIdOf("htr_average");

}  // namespace

HtrApplication::HtrApplication(HtrOptions options) : options_(options)
{
    // Kernel identities differ per slot so the token stream
    // distinguishes them (as distinct task ids do); name them once.
    for (std::size_t stage = 0; stage < options_.stages; ++stage) {
        for (std::size_t k = 0; k < options_.kernels_per_stage; ++k) {
            kernel_ids_.push_back(rt::TaskIdOf(
                "htr_kernel_" + std::to_string(stage) + "_" +
                std::to_string(k)));
        }
    }
}

double
HtrApplication::KernelUs() const
{
    switch (options_.size) {
      case ProblemSize::kSmall:
        return options_.exec_small_us;
      case ProblemSize::kMedium:
        return options_.exec_medium_us;
      case ProblemSize::kLarge:
        return options_.exec_large_us;
    }
    return options_.exec_medium_us;
}

void
HtrApplication::Setup(api::Frontend& fe)
{
    conserved_ = DistArray(fe);
    primitive_ = DistArray(fe);
    fluxes_ = DistArray(fe);
    sources_ = DistArray(fe);
    stats_ = DistArray(fe);
}

void
HtrApplication::Stage(api::Frontend& fe, std::size_t stage)
{
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    const double exec = KernelUs();
    // Primitive recovery, then a battery of physics kernels, then the
    // conservative update.
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kPrimitives, g, exec * 0.3)
            .Add(conserved_.Read(g))
            .Add(primitive_.Write(g))
            .LaunchOn(fe);
    }
    for (std::size_t k = 0; k < options_.kernels_per_stage; ++k) {
        const rt::TaskId kernel_id =
            kernel_ids_[stage * options_.kernels_per_stage + k];
        const bool stencil = k % 2 == 0;  // alternating stencil kernels
        for (std::uint32_t g = 0; g < gpus; ++g) {
            auto& kernel = builder_.Start(kernel_id, g, exec);
            kernel.Add(primitive_.Read(g));
            if (stencil && g > 0) {
                kernel.Add(primitive_.Read(g - 1));
            }
            if (stencil && g + 1 < gpus) {
                kernel.Add(primitive_.Read(g + 1));
            }
            kernel.Add(k % 3 == 2 ? sources_.ReadWrite(g)
                                  : fluxes_.ReadWrite(g));
            kernel.LaunchOn(fe);
        }
    }
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kUpdate, g, exec * 0.5)
            .Add(fluxes_.Read(g))
            .Add(sources_.Read(g))
            .Add(conserved_.ReadWrite(g))
            .LaunchOn(fe);
    }
}

void
HtrApplication::Statistics(api::Frontend& fe)
{
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kAverage, g, KernelUs() * 0.2)
            .Add(conserved_.Read(g))
            .Add(stats_.Reduce(g, /*op=*/1))
            .LaunchOn(fe);
    }
}

void
HtrApplication::Iteration(api::Frontend& fe, std::size_t iter,
                          bool manual_tracing)
{
    if (manual_tracing) {
        fe.BeginTrace(kHtrManualTrace);
    }
    for (std::size_t s = 0; s < options_.stages; ++s) {
        Stage(fe, s);
    }
    if (manual_tracing) {
        fe.EndTrace(kHtrManualTrace);
    }
    // Time-averaged statistics interrupt the loop irregularly; the
    // manual port leaves them untraced.
    if (options_.stats_interval != 0 &&
        iter % options_.stats_interval == options_.stats_interval - 1) {
        Statistics(fe);
    }
}

}  // namespace apo::apps
