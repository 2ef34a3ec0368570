/**
 * @file
 * Ablation: replay-boundary-anchored analysis windows.
 *
 * Apophenia's history mining produces candidates whose phase is
 * determined by where the analysis window happened to start. On
 * streams whose period is incommensurate with the sampling schedule,
 * the replayer can lock onto a sub-period trace: every replay kills
 * the in-progress matches of anything longer, and no candidate exists
 * at the phases the fired trace leaves uncovered. Anchoring extra
 * mining windows at replay boundaries (a design extension described
 * in the README's mining-pipeline section) makes the finder produce
 * exactly the complement/full-period candidates, unlocking full
 * coverage. This is also the mechanism behind the long cuPyNumeric
 * warmups of paper figure 9.
 */
#include <cstdio>

#include "api/frontend.h"
#include "apps/torchswe.h"
#include "core/apophenia.h"
#include "runtime/runtime.h"

namespace {

using namespace apo;

double Run(bool anchored, bool speculative)
{
    core::ApopheniaConfig config;
    config.min_trace_length = 10;
    config.batchsize = 2000;
    config.multi_scale_factor = 100;
    config.replay_anchored_analysis = anchored;
    config.speculative_period_completion = speculative;
    rt::Runtime runtime;
    core::Apophenia fe(runtime, config);
    apps::TorchSweOptions options;
    options.machine.nodes = 2;
    options.machine.gpus_per_node = 2;
    options.allocation_pool_budget = 100;  // short pool warmup
    apps::TorchSweApplication app(options);
    app.Setup(fe);
    for (int i = 0; i < 200; ++i) {
        app.Iteration(fe, i, false);
    }
    fe.Flush();
    return runtime.Stats().ReplayedFraction();
}

}  // namespace

int
main()
{
    std::printf("# Ablation: phase-alignment aids in the finder\n");
    std::printf("%-34s %10s\n", "configuration", "replayed");
    std::printf("%-34s %9.1f%%\n", "anchored+speculative (default)",
                100.0 * Run(true, true));
    std::printf("%-34s %9.1f%%\n", "anchored only", 100.0 * Run(true, false));
    std::printf("%-34s %9.1f%%\n", "speculative only",
                100.0 * Run(false, true));
    std::printf("%-34s %9.1f%%\n", "neither", 100.0 * Run(false, false));
    std::printf("\n# with neither aid, a half-period trace locks the"
                " replayer out of the\n# candidates needed to cover the"
                " rest of the stream (every replay kills\n# longer"
                " in-progress matches, and no candidate starts at the"
                " gap phases).\n");
    return 0;
}
