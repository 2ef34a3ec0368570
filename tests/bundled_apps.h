/**
 * @file
 * The bundled applications and the synthetic kernel, each built fresh
 * by name with an iteration count at which a small Apophenia
 * configuration records, replays and replans its fragments.
 */
#ifndef APOPHENIA_TESTS_BUNDLED_APPS_H
#define APOPHENIA_TESTS_BUNDLED_APPS_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "svc/workload.h"

namespace apo::test {

struct BundledApp {
    std::string name;
    std::function<std::unique_ptr<apps::Application>()> make;
    std::size_t iterations = 0;
};

inline std::vector<BundledApp> BundledApps(const apps::MachineConfig& machine)
{
    apps::TorchSweOptions torchswe{.machine = machine};
    torchswe.allocation_pool_budget = 150;
    return {
        {"s3d",
         [=] {
             return std::make_unique<apps::S3dApplication>(
                 apps::S3dOptions{.machine = machine});
         },
         60},
        {"htr",
         [=] {
             return std::make_unique<apps::HtrApplication>(
                 apps::HtrOptions{.machine = machine});
         },
         50},
        {"cfd",
         [=] {
             return std::make_unique<apps::CfdApplication>(
                 apps::CfdOptions{.machine = machine});
         },
         120},
        {"torchswe",
         [=] { return std::make_unique<apps::TorchSweApplication>(torchswe); },
         80},
        {"flexflow",
         [=] {
             return std::make_unique<apps::FlexFlowApplication>(
                 apps::FlexFlowOptions{.machine = machine});
         },
         40},
        {"synthetic",
         [=] {
             return std::make_unique<svc::SyntheticWorkload>(
                 svc::SyntheticOptions{.machine = machine});
         },
         120},
    };
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_BUNDLED_APPS_H
