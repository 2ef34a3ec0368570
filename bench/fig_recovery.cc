/**
 * @file
 * Fault-tolerance cost sweep: virtual-time makespan overhead of the
 * fault:: subsystem as a function of checkpoint interval × failure
 * count, on a 4-node replicated s3d run.
 *
 * For each cell the sweep reports the cluster's virtual-time makespan
 * (the slowest node's clock, which the checkpoint-pause and
 * recovery-stall cost model charges into), the overhead over the
 * no-checkpoint failure-free baseline, the checkpoint image size, and
 * the decision-tail replay volume. Every cell is digest-checked
 * against the baseline: churn and checkpointing must never perturb
 * the issued streams — the makespan is the *only* thing they may
 * move. Every cell must also crash and rejoin once per planned
 * failure, so a plan that never fires cannot pass as a recovery. The
 * classic trade shows up directly: sparse checkpoints are nearly free
 * but make each recovery replay a long tail; dense checkpoints pay
 * steady pause time and shrink the tail.
 *
 * The results merge into BENCH_micro_repeats.json under the
 * "fig_recovery" key (run micro_repeats first; other records are
 * preserved), and ci.sh gates on the record's presence via
 * bench_compare --require=fig_recovery.
 *
 * Usage:
 *   fig_recovery                    # table + JSON merge
 *   fig_recovery --json=PATH        # merge target
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/s3d.h"
#include "bench_util.h"
#include "sim/cluster.h"

namespace {

using namespace apo;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kIterations = 40;

sim::ClusterOptions BaseOptions()
{
    sim::ClusterOptions options;
    options.coordination.nodes = kNodes;
    options.coordination.seed = 7;
    options.coordination.mean_latency_tasks = 120.0;
    options.coordination.jitter = 0.6;
    options.config.min_trace_length = 10;
    options.config.batchsize = 1500;
    options.config.multi_scale_factor = 100;
    options.runtime_options.nodes = kNodes;
    return options;
}

struct CellResult {
    std::uint64_t interval = 0;  ///< checkpoint interval (0 = never)
    std::size_t failures = 0;
    double makespan_tasks = 0.0;  ///< slowest node's virtual clock
    double overhead_pct = 0.0;    ///< vs the (0 ckpt, 0 fail) baseline
    sim::FaultStats fault;
    bool digests_match_baseline = false;
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> RunCluster(
    sim::Cluster& cluster, double* makespan)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    apps::S3dApplication app(apps::S3dOptions{.machine = machine});
    app.Setup(cluster);
    for (std::size_t iter = 0; iter < kIterations; ++iter) {
        app.Iteration(cluster, iter, /*manual_tracing=*/false);
    }
    cluster.Flush();
    *makespan = 0.0;
    for (const sim::NodeMetrics& node : cluster.PerNode()) {
        *makespan = std::max(*makespan, node.virtual_time_tasks);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    for (std::size_t n = 0; n < cluster.Nodes(); ++n) {
        const sim::StreamDigest d = cluster.NodeDigest(n);
        digests.emplace_back(d.Value(), d.Count());
    }
    return digests;
}

/** Stagger `failures` crash/rejoin pairs across the stream: failure k
 * takes node k+1 down at (k+1)/4 of the stream for an eighth of it. */
sim::ClusterOptions::FaultPlan PlanOf(std::size_t failures,
                                      std::uint64_t total_tasks)
{
    sim::ClusterOptions::FaultPlan plan;
    for (std::size_t k = 0; k < failures; ++k) {
        plan.events.push_back(
            {.node = k + 1,
             .crash_at_task = (k + 1) * total_tasks / 4,
             .rejoin_at_task =
                 (k + 1) * total_tasks / 4 + total_tasks / 8});
    }
    return plan;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_micro_repeats.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        }
    }

    // Failure-free, checkpoint-free baseline: its makespan anchors
    // every overhead, its digests pin every cell's streams.
    double baseline_makespan = 0.0;
    sim::Cluster baseline(BaseOptions());
    const auto baseline_digests =
        RunCluster(baseline, &baseline_makespan);
    const std::uint64_t total_tasks =
        baseline.Stats().tasks_executed;

    const std::uint64_t intervals[] = {256, 1024, 4096};
    const std::size_t failure_counts[] = {0, 1, 2};

    std::printf("# fault-tolerance cost (s3d, %zu nodes, %zu "
                "iterations, %llu tasks)\n",
                kNodes, kIterations,
                static_cast<unsigned long long>(total_tasks));
    std::printf("%9s %8s %14s %9s %6s %9s %10s %10s\n", "interval",
                "failures", "makespan_tsks", "ovhd_pct", "ckpts",
                "ckpt_KiB", "tail_evts", "digest_ok");
    std::vector<CellResult> cells;
    bool all_match = true;
    bool all_fired = true;
    for (const std::uint64_t interval : intervals) {
        for (const std::size_t failures : failure_counts) {
            sim::ClusterOptions options = BaseOptions();
            options.checkpoint_interval_tasks = interval;
            options.fault_plan = PlanOf(failures, total_tasks);
            sim::Cluster cluster(options);
            CellResult cell;
            cell.interval = interval;
            cell.failures = failures;
            cell.digests_match_baseline =
                RunCluster(cluster, &cell.makespan_tasks) ==
                baseline_digests;
            cell.overhead_pct = baseline_makespan > 0.0
                                    ? 100.0 *
                                          (cell.makespan_tasks -
                                           baseline_makespan) /
                                          baseline_makespan
                                    : 0.0;
            cell.fault = cluster.FaultRecovery();
            all_match = all_match && cell.digests_match_baseline;
            all_fired = all_fired && cell.fault.crashes == failures &&
                        cell.fault.rejoins == failures;
            std::printf(
                "%9llu %8zu %14.1f %9.3f %6llu %9.1f %10llu %10s\n",
                static_cast<unsigned long long>(cell.interval),
                cell.failures, cell.makespan_tasks, cell.overhead_pct,
                static_cast<unsigned long long>(
                    cell.fault.checkpoints_taken),
                static_cast<double>(cell.fault.last_checkpoint_bytes) /
                    1024.0,
                static_cast<unsigned long long>(
                    cell.fault.tail_events_replayed),
                cell.digests_match_baseline ? "yes" : "NO");
            cells.push_back(cell);
        }
    }
    if (!all_match) {
        std::fprintf(stderr,
                     "fig_recovery: a churned run's digests diverged "
                     "from the baseline\n");
        return 1;
    }
    if (!all_fired) {
        std::fprintf(stderr,
                     "fig_recovery: a cell's crashes or rejoins differ "
                     "from its failure count\n");
        return 1;
    }

    std::ostringstream json;
    json << "{\n"
         << "    \"bench\": \"fig_recovery\",\n"
         << "    \"app\": \"s3d\", \"nodes\": " << kNodes
         << ", \"iterations\": " << kIterations
         << ", \"total_tasks\": " << total_tasks << ",\n"
         << "    " << bench::ConcurrencyJson() << ",\n"
         << "    \"baseline_makespan_tasks\": " << baseline_makespan
         << ",\n"
         << "    \"rows\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& cell = cells[i];
        char buffer[512];
        std::snprintf(
            buffer, sizeof buffer,
            "      {\"checkpoint_interval_tasks\": %llu, "
            "\"failures\": %zu, "
            "\"makespan_tasks\": %.1f, \"overhead_pct\": %.3f, "
            "\"checkpoints_taken\": %llu, "
            "\"checkpoint_bytes\": %llu, "
            "\"total_checkpoint_bytes\": %llu, "
            "\"tail_events_replayed\": %llu, "
            "\"checkpoint_pause_tasks\": %.2f, "
            "\"recovery_stall_tasks\": %.2f, "
            "\"digests_match_baseline\": %s}%s\n",
            static_cast<unsigned long long>(cell.interval),
            cell.failures, cell.makespan_tasks, cell.overhead_pct,
            static_cast<unsigned long long>(
                cell.fault.checkpoints_taken),
            static_cast<unsigned long long>(
                cell.fault.last_checkpoint_bytes),
            static_cast<unsigned long long>(
                cell.fault.total_checkpoint_bytes),
            static_cast<unsigned long long>(
                cell.fault.tail_events_replayed),
            cell.fault.checkpoint_pause_tasks,
            cell.fault.recovery_stall_tasks,
            cell.digests_match_baseline ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
        json << buffer;
    }
    json << "    ]\n  }";

    return bench::MergeIntoJson(json_path, "fig_recovery", json.str());
}
