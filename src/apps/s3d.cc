#include "apps/s3d.h"

namespace apo::apps {

namespace {

/** Fixed trace id used by the hand-annotated port. */
constexpr rt::TraceId kS3dManualTrace = 77001;

constexpr rt::TaskId kExchange = rt::TaskIdOf("s3d_exchange");
constexpr rt::TaskId kChemistry = rt::TaskIdOf("s3d_chemistry");
constexpr rt::TaskId kDiffusion = rt::TaskIdOf("s3d_diffusion");
constexpr rt::TaskId kUpdate = rt::TaskIdOf("s3d_update");
constexpr rt::TaskId kToFortran = rt::TaskIdOf("s3d_to_fortran");
constexpr rt::TaskId kMpiDriver = rt::TaskIdOf("s3d_mpi_driver");
constexpr rt::TaskId kFromFortran = rt::TaskIdOf("s3d_from_fortran");

}  // namespace

S3dApplication::S3dApplication(S3dOptions options) : options_(options) {}

double
S3dApplication::KernelUs() const
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
S3dApplication::Setup(api::Frontend& fe)
{
    state_ = DistArray(fe);
    halo_ = DistArray(fe);
    chem_ = DistArray(fe);
    rhs_ = DistArray(fe);
    fortran_ = DistArray(fe);
}

void
S3dApplication::RkStage(api::Frontend& fe)
{
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    const double exec = KernelUs();
    for (std::uint32_t g = 0; g < gpus; ++g) {
        // Ghost-zone exchange: read own and neighbour state slices.
        auto& exchange = builder_.Start(kExchange, g, exec * 0.2);
        exchange.Add(state_.Read(g));
        if (g > 0) {
            exchange.Add(state_.Read(g - 1));
        }
        if (g + 1 < gpus) {
            exchange.Add(state_.Read(g + 1));
        }
        exchange.Add(halo_.Write(g));
        exchange.LaunchOn(fe);
    }
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kChemistry, g, exec)
            .Add(state_.Read(g))
            .Add(chem_.Write(g))
            .LaunchOn(fe);
    }
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kDiffusion, g, exec * 0.8)
            .Add(halo_.Read(g))
            .Add(chem_.Read(g))
            .Add(rhs_.Write(g))
            .LaunchOn(fe);
    }
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kUpdate, g, exec * 0.4)
            .Add(rhs_.Read(g))
            .Add(state_.ReadWrite(g))
            .LaunchOn(fe);
    }
}

void
S3dApplication::Handoff(api::Frontend& fe)
{
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    // Stage the state into the buffer the Fortran driver reads.
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kToFortran, g, KernelUs() * 0.15)
            .Add(state_.Read(g))
            .Add(fortran_.Write(g))
            .LaunchOn(fe);
    }
    // The MPI driver runs as one serial operation over the buffer.
    auto& driver = builder_.Start(kMpiDriver, 0,
                       KernelUs() * 0.1 *
                           static_cast<double>(options_.machine.nodes));
    for (std::uint32_t g = 0; g < gpus; ++g) {
        driver.Add(fortran_.ReadWrite(g));
    }
    driver.LaunchOn(fe);
    // The driver's results feed back into the state.
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kFromFortran, g, KernelUs() * 0.15)
            .Add(fortran_.Read(g))
            .Add(state_.ReadWrite(g))
            .LaunchOn(fe);
    }
}

void
S3dApplication::Iteration(api::Frontend& fe, std::size_t iter,
                          bool manual_tracing)
{
    // The hand-off interoperates with non-Legion code and cannot be
    // traced; the manual port keeps it outside the annotation (the
    // "relatively complicated logic" of section 6.1).
    if (NeedsHandoff(iter)) {
        Handoff(fe);
    }
    if (manual_tracing) {
        fe.BeginTrace(kS3dManualTrace);
    }
    for (std::size_t s = 0; s < options_.rk_stages; ++s) {
        RkStage(fe);
    }
    if (manual_tracing) {
        fe.EndTrace(kS3dManualTrace);
    }
}

}  // namespace apo::apps
