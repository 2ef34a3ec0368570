/**
 * @file
 * The bundled applications' token streams and the windows a finder
 * mines from them, so string-kernel tests can run on the inputs the
 * analysis loop actually sees.
 */
#ifndef APOPHENIA_TESTS_APP_STREAMS_H
#define APOPHENIA_TESTS_APP_STREAMS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/frontend.h"
#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "runtime/runtime.h"
#include "strings/suffix_array.h"
#include "support/ruler.h"

namespace apo::test {

/** The token stream of `iters` untraced iterations of App. */
template <typename App, typename Options>
std::vector<rt::TokenHash> AppStream(Options options, std::size_t iters)
{
    rt::Runtime runtime;
    api::UntracedFrontend sink(runtime);
    App app(options);
    app.Setup(sink);
    for (std::size_t i = 0; i < iters; ++i) {
        app.Iteration(sink, i, false);
    }
    sink.Flush();
    std::vector<rt::TokenHash> stream;
    for (std::size_t i = 0; i < runtime.Log().size(); ++i) {
        stream.push_back(runtime.Log()[i].token);
    }
    return stream;
}

/** The artifact's machine: 4 nodes of 4 GPUs. */
inline apps::MachineConfig FourByFourMachine()
{
    apps::MachineConfig machine;
    machine.nodes = 4;
    machine.gpus_per_node = 4;
    return machine;
}

/** A named application token stream. */
struct NamedStream {
    std::string app;
    std::vector<rt::TokenHash> tokens;
};

/** Each bundled application's stream on the 4×4 machine, each a
 * little over 8 000 tokens, so that its ruler windows at the
 * artifact's scale (250 tokens) reach the 5 000-token cap. TorchSWE's
 * allocation pool is cut to 150 regions, so that its stream passes
 * from the drifting-alphabet warmup into its steady state. */
inline std::vector<NamedStream> FourByFourAppStreams()
{
    const apps::MachineConfig machine = FourByFourMachine();
    apps::TorchSweOptions torchswe{.machine = machine};
    torchswe.allocation_pool_budget = 150;
    std::vector<NamedStream> streams;
    streams.push_back({"s3d", AppStream<apps::S3dApplication>(
                                  apps::S3dOptions{.machine = machine}, 32)});
    streams.push_back({"htr", AppStream<apps::HtrApplication>(
                                  apps::HtrOptions{.machine = machine}, 18)});
    streams.push_back({"cfd", AppStream<apps::CfdApplication>(
                                  apps::CfdOptions{.machine = machine}, 105)});
    streams.push_back(
        {"torchswe", AppStream<apps::TorchSweApplication>(torchswe, 17)});
    streams.push_back(
        {"flexflow", AppStream<apps::FlexFlowApplication>(
                         apps::FlexFlowOptions{.machine = machine}, 21)});
    return streams;
}

/** The ruler-schedule windows of `stream` (paper section 4.4): window
 * k ends at token scale * k and covers its last min(scale *
 * 2^ruler(k), cap) tokens, as core::TraceFinder mines them. */
inline std::vector<std::span<const strings::Symbol>>
RulerWindows(const std::vector<rt::TokenHash>& stream, std::size_t scale,
             std::size_t cap)
{
    std::vector<std::span<const strings::Symbol>> windows;
    for (std::uint64_t k = 1; k * scale <= stream.size(); ++k) {
        const std::size_t length =
            std::min<std::size_t>(support::RulerSampleLength(k, scale, cap),
                                  k * scale);
        windows.push_back(std::span<const strings::Symbol>(stream).subspan(
            k * scale - length, length));
    }
    return windows;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_APP_STREAMS_H
