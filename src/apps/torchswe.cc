#include "apps/torchswe.h"

#include <string>

namespace apo::apps {

namespace {

constexpr rt::TaskId kCfl = rt::TaskIdOf("swe_cfl");
constexpr rt::TaskId kStep = rt::TaskIdOf("swe_step");

}  // namespace

TorchSweApplication::TorchSweApplication(TorchSweOptions options)
    : options_(options)
{
    for (std::size_t f = 0; f < options_.fields; ++f) {
        for (std::size_t op = 0; op < options_.ops_per_field; ++op) {
            op_ids_.push_back(rt::TaskIdOf(
                "swe_op_" + std::to_string(f) + "_" + std::to_string(op)));
        }
    }
}

double
TorchSweApplication::KernelUs() const
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

DistArray
TorchSweApplication::Alloc(api::Frontend& fe)
{
    if (regions_created_ >= options_.allocation_pool_budget &&
        !pool_.empty()) {
        const DistArray recycled = pool_.back();
        pool_.pop_back();
        return recycled;
    }
    ++regions_created_;
    return DistArray(fe);
}

void
TorchSweApplication::Release(DistArray dead)
{
    pool_.push_back(dead);
}

void
TorchSweApplication::Setup(api::Frontend& fe)
{
    state_.clear();
    for (std::size_t f = 0; f < options_.fields; ++f) {
        state_.emplace_back(fe);
    }
}

void
TorchSweApplication::Iteration(api::Frontend& fe, std::size_t iter,
                               bool manual_tracing)
{
    (void)iter;
    (void)manual_tracing;  // no hand-traced TorchSWE exists
    const std::uint32_t gpus =
        static_cast<std::uint32_t>(options_.machine.GpuCount());
    const double exec = KernelUs();

    // Per field: a chain of flux/slope/limiter array operations, each
    // producing a fresh (immediately recycled) array — the cuPyNumeric
    // allocation pattern at scale.
    for (std::size_t f = 0; f < options_.fields; ++f) {
        DistArray current = state_[f];
        for (std::size_t op = 0; op < options_.ops_per_field; ++op) {
            const rt::TaskId op_id =
                op_ids_[f * options_.ops_per_field + op];
            const bool stencil = op % 2 == 0;
            DistArray out = Alloc(fe);
            for (std::uint32_t g = 0; g < gpus; ++g) {
                auto& task = builder_.Start(op_id, g, exec);
                task.Add(current.Read(g));
                if (stencil && g > 0) {
                    task.Add(current.Read(g - 1));
                }
                if (stencil && g + 1 < gpus) {
                    task.Add(current.Read(g + 1));
                }
                // Fields couple through the water-height field.
                if (f != 0 && op == 0) {
                    task.Add(state_[0].Read(g));
                }
                task.Add(out.Write(g));
                task.LaunchOn(fe);
            }
            Release(current);
            current = out;
        }
        state_[f] = current;
    }

    // Global CFL condition: reduce the admissible timestep across all
    // shards; its cost grows with participant count.
    DistArray dt = Alloc(fe);
    for (std::uint32_t g = 0; g < gpus; ++g) {
        builder_.Start(kCfl, g, exec * 0.2)
            .Add(state_[0].Read(g))
            .Add(dt.Reduce(g, /*op=*/2))
            .LaunchOn(fe);
    }
    auto& step = builder_.Start(kStep, 0,
                     options_.collective_per_gpu_us *
                         static_cast<double>(gpus));
    step.Add(dt.Read(0));
    step.LaunchOn(fe);
    Release(dt);
}

}  // namespace apo::apps
