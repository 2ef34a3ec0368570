#include "apps/cfd.h"

#include <string>

namespace apo::apps {

namespace {

constexpr rt::TaskId kBuildB = rt::TaskIdOf("cfd_build_b");
constexpr rt::TaskId kPressure = rt::TaskIdOf("cfd_pressure");
constexpr rt::TaskId kVelU = rt::TaskIdOf("cfd_vel_u");
constexpr rt::TaskId kVelV = rt::TaskIdOf("cfd_vel_v");
constexpr rt::TaskId kCheck = rt::TaskIdOf("cfd_check");
constexpr rt::TaskId kBoundary = rt::TaskIdOf("cfd_boundary");

}  // namespace

CfdApplication::CfdApplication(CfdOptions options) : options_(options) {}

double
CfdApplication::KernelUs() const
{
    switch (options_.size) {
      case ProblemSize::kSmall:
        return options_.exec_small_us;
      case ProblemSize::kMedium:
        return options_.exec_medium_us;
      case ProblemSize::kLarge:
        return options_.exec_large_us;
    }
    return options_.exec_small_us;
}

void
CfdApplication::Setup(api::Frontend& fe)
{
    u_ = DistArray(fe);
    v_ = DistArray(fe);
    p_ = DistArray(fe);
}

DistArray
CfdApplication::StencilOp(api::Frontend& fe, rt::TaskId task_id,
                          const DistArray& a, const DistArray& b,
                          double exec_scale)
{
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    DistArray out(fe);
    for (std::uint32_t g = 0; g < gpus; ++g) {
        auto& task = builder_.Start(task_id, g, KernelUs() * exec_scale);
        task.Add(a.Read(g));
        if (g > 0) {
            task.Add(a.Read(g - 1));
        }
        if (g + 1 < gpus) {
            task.Add(a.Read(g + 1));
        }
        if (b.Valid()) {
            task.Add(b.Read(g));
        }
        task.Add(out.Write(g));
        task.LaunchOn(fe);
    }
    return out;
}

void
CfdApplication::ResidualCheck(api::Frontend& fe, std::size_t iter)
{
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    // An irregular computation: its task ids vary with the checkpoint
    // index, so it never becomes part of a repeated fragment — the
    // structure that defeats tandem-repeat analysis (section 4.2).
    const rt::TaskId residual = rt::TaskIdOf(
        "cfd_residual_" + std::to_string(iter / options_.check_interval));
    DistArray norm(fe);
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(residual, g, KernelUs() * 0.3)
            .Add(u_.Read(g))
            .Add(norm.Reduce(g, /*op=*/1))
            .LaunchOn(fe);
    }
    auto& check = builder_.Start(kCheck, 0, KernelUs() * 0.1);
    check.Add(norm.Read(0));
    check.LaunchOn(fe);
    norm.Destroy(fe);
}

void
CfdApplication::Iteration(api::Frontend& fe, std::size_t iter,
                          bool manual_tracing)
{
    (void)manual_tracing;  // no hand-traced CFD exists (section 6.1)
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());

    // b = build_up_b(u, v): stencil of the velocity field.
    DistArray b = StencilOp(fe, kBuildB, u_, v_, 0.8);
    // Pressure Poisson sub-iterations: p' = pressure(p, b).
    for (std::size_t s = 0; s < options_.pressure_iters; ++s) {
        DistArray p_new = StencilOp(fe, kPressure, p_, b, 1.0);
        p_.Destroy(fe);
        p_ = p_new;
    }
    b.Destroy(fe);
    // Velocity updates read the new pressure.
    DistArray u_new = StencilOp(fe, kVelU, u_, p_, 1.0);
    DistArray v_new = StencilOp(fe, kVelV, v_, p_, 1.0);
    u_.Destroy(fe);
    v_.Destroy(fe);
    u_ = u_new;
    v_ = v_new;
    // Boundary conditions + halo settlement: a collective whose cost
    // grows with the participant count; on small problems this is the
    // latency the paper says cannot be hidden at scale.
    auto& bc = builder_.Start(kBoundary, 0,
                   options_.collective_per_gpu_us *
                       static_cast<double>(gpus));
    for (std::uint32_t g = 0; g < gpus; ++g) {
        bc.Add(u_.ReadWrite(g));
        bc.Add(v_.ReadWrite(g));
    }
    bc.LaunchOn(fe);

    if (options_.check_interval != 0 &&
        iter % options_.check_interval == options_.check_interval - 1) {
        ResidualCheck(fe, iter);
    }
}

}  // namespace apo::apps
