/**
 * @file
 * The artifact command line, reproduced (paper appendix A.5):
 *
 *   ./artifact_cli --warmup 30 \
 *       -lg:enable_automatic_tracing \
 *       -lg:auto_trace:min_trace_length 25 \
 *       -lg:auto_trace:max_trace_length 200 \
 *       -lg:auto_trace:batchsize 5000 \
 *       -lg:auto_trace:identifier_algorithm multi-scale \
 *       -lg:auto_trace:multi_scale_factor 500 \
 *       -lg:auto_trace:repeats_algorithm quick_matching_of_substrings \
 *       -lg:inline_transitive_reduction \
 *       -lg:window 30000
 *
 * Runs the FlexFlow/CANDLE workload under whatever configuration the
 * flags select (run with no arguments for the artifact defaults
 * above) and prints the simulated outcome. Every `-lg:` flag from the
 * paper's appendix A.7 is honored.
 */
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "apps/flexflow.h"
#include "core/config.h"
#include "sim/harness.h"

int
main(int argc, char** argv)
{
    using namespace apo;

    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        args = {"-lg:enable_automatic_tracing",
                "-lg:auto_trace:min_trace_length", "25",
                "-lg:auto_trace:max_trace_length", "200",
                "-lg:auto_trace:batchsize", "5000",
                "-lg:auto_trace:identifier_algorithm", "multi-scale",
                "-lg:auto_trace:multi_scale_factor", "500",
                "-lg:auto_trace:repeats_algorithm",
                "quick_matching_of_substrings",
                "-lg:inline_transitive_reduction",
                "-lg:window", "30000"};
    }

    std::size_t warmup = 30;      // the artifact's --warmup
    std::size_t gpus_per_node = 8;  // -ll:gpu (Realm's machine flags)
    std::size_t nodes = 4;          // srun -N
    core::ApopheniaConfig config;
    try {
        config = core::ParseApopheniaFlags(args);
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& flag = args[i];
            // The flag's value: a whole decimal number of at least
            // `min` (a machine needs a node and a GPU per node).
            auto value = [&](std::size_t min) {
                if (i + 1 >= args.size()) {
                    throw std::invalid_argument(flag + " expects a value");
                }
                const std::string& text = args[++i];
                std::size_t parsed = 0;
                const auto [end, ec] = std::from_chars(
                    text.data(), text.data() + text.size(), parsed);
                if (ec != std::errc() || end != text.data() + text.size()) {
                    throw std::invalid_argument(
                        flag + " expects a number, got '" + text + "'");
                }
                if (parsed < min) {
                    throw std::invalid_argument(
                        flag + " expects at least " + std::to_string(min) +
                        ", got " + text);
                }
                return parsed;
            };
            if (flag == "--warmup") {
                warmup = value(0);
            } else if (flag == "-ll:gpu") {
                gpus_per_node = value(1);
            } else if (flag == "-N" || flag == "--nodes") {
                nodes = value(1);
            } else if (flag == "-ll:util" || flag == "-ll:csize" ||
                       flag == "-ll:fsize" || flag == "-ll:zsize") {
                (void)value(0);  // accepted for artifact compatibility
            } else {
                std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "flag error: %s\n", e.what());
        return 2;
    }

    apps::FlexFlowOptions app_options;
    app_options.machine.nodes = nodes;
    app_options.machine.gpus_per_node = gpus_per_node;
    apps::FlexFlowApplication app(app_options);

    sim::ExperimentOptions experiment;
    experiment.mode = config.enabled ? sim::TracingMode::kAuto
                                     : sim::TracingMode::kUntraced;
    experiment.machine = app_options.machine;
    experiment.iterations = warmup + 30;
    experiment.auto_config = config;
    const auto result = sim::RunExperiment(app, experiment);

    std::printf("configuration: automatic tracing %s, min %zu, max %zu,"
                " batchsize %zu,\n  multi-scale factor %zu, window %zu,"
                " transitive reduction %s\n",
                config.enabled ? "ON" : "OFF", config.min_trace_length,
                config.max_trace_length, config.batchsize,
                config.multi_scale_factor, config.window,
                config.inline_transitive_reduction ? "ON" : "OFF");
    std::printf("workload: CANDLE pilot1-style network, %zu GPUs (%zu"
                " nodes), %zu iterations (%zu warmup)\n",
                app_options.machine.GpuCount(), nodes,
                experiment.iterations, warmup);
    std::printf("steady-state throughput: %.2f iterations/s\n",
                result.iterations_per_second);
    std::printf("replayed fraction:       %.1f%%\n",
                100.0 * result.replayed_fraction);
    std::printf("traces recorded:         %zu (%zu replays)\n",
                result.runtime_stats.traces_recorded,
                result.runtime_stats.trace_replays);
    return 0;
}
