/**
 * @file
 * Elastic-membership tests: scheduled node crashes and rejoins on
 * sim::Cluster, over S3D, HTR and CFD. A crash or rejoin point fires
 * at the first barrier at or after it, the end-of-stream flush
 * included. A rejoining node resyncs from a healthy peer — newest
 * checkpoint + retained decision tail — after which every node's
 * stream digest must equal the churn-free run's, bit for bit;
 * healthy nodes must never notice the churn. The same path heals a
 * corrupted replica at the barrier that detects its divergence; a
 * replica that diverges again right after its heal is evicted for
 * good, even past a fault-plan rejoin point. Recovery comes out the
 * same whether the shared decider mines inline (jobs 1) or on the
 * cluster's worker team (jobs 2). Misuse (bad fault plans, touching a
 * crashed node) is a typed rt::RuntimeUsageError; malformed
 * checkpoint images are a typed fault::CheckpointError.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "apps/cfd.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "fault/checkpoint.h"
#include "runtime/errors.h"
#include "sim/cluster.h"

namespace apo {
namespace {

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 400;
    config.multi_scale_factor = 50;
    return config;
}

sim::ClusterOptions BaseOptions(std::size_t nodes, bool streaming)
{
    sim::ClusterOptions options;
    options.coordination.nodes = nodes;
    options.coordination.seed = 7;
    options.coordination.mean_latency_tasks = 120.0;
    options.coordination.jitter = 0.6;
    options.config = SmallConfig();
    options.runtime_options.nodes = nodes;
    options.stream_logs = streaming;
    return options;
}

/** Drive `iterations` of App through the cluster; returns the total
 * issued task count (the coordinate fault plans are expressed in). */
template <typename App, typename Options>
std::uint64_t Drive(sim::Cluster& cluster, const Options& app_options,
                    std::size_t iterations)
{
    App app(app_options);
    app.Setup(cluster);
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        app.Iteration(cluster, iter, /*manual_tracing=*/false);
    }
    cluster.Flush();
    cluster.DrainLogStreams();
    return cluster.Stats().tasks_executed;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> DigestsOf(
    const sim::Cluster& cluster)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    for (std::size_t n = 0; n < cluster.Nodes(); ++n) {
        const sim::StreamDigest d = cluster.NodeDigest(n);
        digests.emplace_back(d.Value(), d.Count());
    }
    return digests;
}

/**
 * The headline property: crash node 1 a third of the way in, rejoin
 * it two thirds of the way in (peer resync = checkpoint install +
 * decision-tail replay) — and every node's final digest, including
 * the rejoiner's, is bit-identical to a churn-free run.
 */
template <typename App, typename Options>
void ExpectCrashRejoinMatchesChurnFree(const Options& app_options,
                                       std::size_t iterations,
                                       bool streaming)
{
    SCOPED_TRACE(streaming ? "streaming" : "retained");
    // Churn-free reference (no plan, no checkpoints).
    sim::Cluster reference(BaseOptions(3, streaming));
    const std::uint64_t total =
        Drive<App>(reference, app_options, iterations);
    ASSERT_GT(total, 600u);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, streaming);
    options.checkpoint_interval_tasks = 300;
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 3,
         .rejoin_at_task = 2 * total / 3});
    sim::Cluster churned(options);
    EXPECT_EQ(Drive<App>(churned, app_options, iterations), total);

    EXPECT_EQ(DigestsOf(churned), want);
    EXPECT_TRUE(churned.StreamDigestsAgree());
    EXPECT_FALSE(churned.NodeCrashed(1));
    // Cumulative runtime accounting re-converges too: the rejoiner's
    // restored counters plus what its tail replay added.
    for (std::size_t n = 0; n < churned.Nodes(); ++n) {
        const rt::RuntimeStats& got = churned.NodeRuntime(n).Stats();
        const rt::RuntimeStats& ref = reference.NodeRuntime(n).Stats();
        EXPECT_EQ(got.tasks_replayed, ref.tasks_replayed) << "node " << n;
        EXPECT_EQ(got.traces_recorded, ref.traces_recorded) << "node " << n;
        EXPECT_EQ(got.trace_mismatches, 0u) << "node " << n;
    }
    EXPECT_GT(churned.NodeRuntime(1).Stats().tasks_replayed, 0u);
    const sim::FaultStats& fault = churned.FaultRecovery();
    EXPECT_EQ(fault.crashes, 1u);
    EXPECT_EQ(fault.rejoins, 1u);
    EXPECT_GE(fault.checkpoints_taken, 1u);
    EXPECT_GT(fault.last_checkpoint_bytes, 0u);
    EXPECT_GT(fault.tail_events_replayed, 0u);
    EXPECT_GT(fault.checkpoint_pause_tasks, 0.0);
    EXPECT_GT(fault.recovery_stall_tasks, 0.0);
}

TEST(ElasticMembership, S3dCrashRejoinRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 30, false);
}

TEST(ElasticMembership, S3dCrashRejoinStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::S3dApplication>(
        apps::S3dOptions{.machine = machine}, 30, true);
}

TEST(ElasticMembership, HtrCrashRejoinRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 30, false);
}

TEST(ElasticMembership, HtrCrashRejoinStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::HtrApplication>(
        apps::HtrOptions{.machine = machine}, 30, true);
}

TEST(ElasticMembership, CfdCrashRejoinRetained)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::CfdApplication>(
        apps::CfdOptions{.machine = machine}, 80, false);
}

TEST(ElasticMembership, CfdCrashRejoinStreaming)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    ExpectCrashRejoinMatchesChurnFree<apps::CfdApplication>(
        apps::CfdOptions{.machine = machine}, 80, true);
}

TEST(ElasticMembership, PointsBetweenBarriersFireAtTheNextOne)
{
    // A barrier falls at every batch start and at the flush. A crash
    // or rejoin point between two barriers fires at the later one, so
    // a window holding no batch start crashes and rejoins the node at
    // the same barrier, and points inside the last batch fire at the
    // flush. Each must still recover to the churn-free digests.
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streaming" : "retained");
        sim::Cluster reference(BaseOptions(3, streaming));
        const std::uint64_t total =
            Drive<apps::S3dApplication>(reference, app_options, 30);
        const auto want = DigestsOf(reference);

        const std::pair<std::uint64_t, std::uint64_t> windows[] = {
            {100, 150}, {300, 400}, {100, 101}, {300, 301},
            {500, 501}, {700, 701}, {total - 2, total - 1},
        };
        for (const auto& [crash, rejoin] : windows) {
            SCOPED_TRACE(testing::Message()
                         << "crash " << crash << ", rejoin " << rejoin);
            sim::ClusterOptions options = BaseOptions(3, streaming);
            options.checkpoint_interval_tasks = 300;
            options.fault_plan.events.push_back(
                {.node = 1, .crash_at_task = crash,
                 .rejoin_at_task = rejoin});
            sim::Cluster churned(options);
            Drive<apps::S3dApplication>(churned, app_options, 30);

            EXPECT_EQ(churned.FaultRecovery().crashes, 1u);
            EXPECT_EQ(churned.FaultRecovery().rejoins, 1u);
            EXPECT_FALSE(churned.NodeCrashed(1));
            EXPECT_EQ(DigestsOf(churned), want);
            EXPECT_TRUE(churned.StreamDigestsAgree());
        }

        // A crash inside the last batch with no rejoin takes the node
        // down at the flush.
        sim::ClusterOptions options = BaseOptions(3, streaming);
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = total - 1});
        sim::Cluster churned(options);
        Drive<apps::S3dApplication>(churned, app_options, 30);
        EXPECT_EQ(churned.FaultRecovery().crashes, 1u);
        EXPECT_TRUE(churned.NodeCrashed(1));
    }
}

TEST(ElasticMembership, MultipleStaggeredFailuresAllRecover)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(BaseOptions(3, false));
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, false);
    options.checkpoint_interval_tasks = 250;
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 4,
         .rejoin_at_task = total / 2});
    options.fault_plan.events.push_back(
        {.node = 2, .crash_at_task = total / 2,
         .rejoin_at_task = 3 * total / 4});
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    EXPECT_EQ(DigestsOf(churned), want);
    EXPECT_EQ(churned.FaultRecovery().crashes, 2u);
    EXPECT_EQ(churned.FaultRecovery().rejoins, 2u);
}

TEST(ElasticMembership, PermanentCrashLeavesNodeDownHealthyUnaffected)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(BaseOptions(3, false));
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, false);
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 3});  // never rejoins
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    EXPECT_TRUE(churned.NodeCrashed(1));
    EXPECT_THROW(churned.NodeRuntime(1), rt::RuntimeUsageError);
    EXPECT_EQ(churned.FaultRecovery().crashes, 1u);
    EXPECT_EQ(churned.FaultRecovery().rejoins, 0u);
    // The survivors never notice: their digests equal the churn-free
    // run's (the coordination schedule spans the full fixed roster).
    const auto got = DigestsOf(churned);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[2], want[2]);
    // The crashed node's digest is frozen at the crash point.
    EXPECT_LT(got[1].second, want[1].second);
}

TEST(ElasticMembership, WithoutCheckpointsRejoinReplaysTheFullTail)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(BaseOptions(3, false));
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    sim::ClusterOptions options = BaseOptions(3, false);
    options.checkpoint_interval_tasks = 0;
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 3,
         .rejoin_at_task = 2 * total / 3});
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    // No images were ever written; the rejoiner replayed the full
    // decision tail from stream start — and still re-converged.
    EXPECT_EQ(churned.FaultRecovery().checkpoints_taken, 0u);
    EXPECT_TRUE(churned.CheckpointImage().empty());
    EXPECT_EQ(churned.FaultRecovery().rejoins, 1u);
    EXPECT_GT(churned.FaultRecovery().tail_events_replayed, 0u);
    EXPECT_EQ(DigestsOf(churned), want);
}

/** Corruption runs and their clean reference share the kFallback
 * mismatch policy: the corrupted replica replays against templates
 * recorded from its corrupted stream, so deviations must degrade,
 * not throw (Legion's fallback mode). The two configurations then
 * differ only in the injection. */
sim::ClusterOptions CorruptionOptions(bool streaming = false)
{
    sim::ClusterOptions options = BaseOptions(3, streaming);
    options.runtime_options.mismatch_policy = rt::MismatchPolicy::kFallback;
    return options;
}

/** Corrupt `node`'s launches on stream indices [from, until). */
void CorruptNode(sim::ClusterOptions& options, std::size_t node,
                 std::uint64_t from, std::uint64_t until)
{
    options.fault.enabled = true;
    options.fault.node = node;
    options.fault.from_task = from;
    options.fault.until_task = until;
    options.fault.token_xor = 0xdeadbeefULL;
}

TEST(ElasticMembership, OneCorruptedTaskHealsAtTheDetectingBarrier)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(CorruptionOptions());
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    for (const bool streaming : {false, true}) {
        for (const std::uint64_t interval : {0u, 300u}) {
            SCOPED_TRACE(testing::Message()
                         << "streaming " << streaming << ", interval "
                         << interval);
            sim::ClusterOptions options = CorruptionOptions(streaming);
            options.checkpoint_interval_tasks = interval;
            CorruptNode(options, 1, total / 4, total / 4 + 1);
            sim::Cluster churned(options);
            Drive<apps::S3dApplication>(churned, app_options, 30);

            // Detected and rebuilt at the barrier covering the
            // corrupted task; the next barrier's check passes, so no
            // eviction, and the final streams are the clean run's.
            EXPECT_EQ(churned.FaultRecovery().heals, 1u);
            EXPECT_EQ(churned.FaultRecovery().evictions, 0u);
            EXPECT_FALSE(churned.NodeCrashed(1));
            EXPECT_EQ(DigestsOf(churned), want);
            EXPECT_TRUE(churned.StreamDigestsAgree());
        }
    }
}

TEST(ElasticMembership, PersistentCorruptionHealsOnceThenEvicts)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(CorruptionOptions());
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    for (const std::uint64_t until : {total / 2, std::uint64_t{UINT64_MAX}}) {
        SCOPED_TRACE(until);
        sim::ClusterOptions options = CorruptionOptions();
        CorruptNode(options, 1, total / 4, until);
        sim::Cluster churned(options);
        Drive<apps::S3dApplication>(churned, app_options, 30);

        // Healed at the detecting barrier, diverged again at the next
        // one: evicted, and it stays down.
        EXPECT_EQ(churned.FaultRecovery().heals, 1u);
        EXPECT_EQ(churned.FaultRecovery().evictions, 1u);
        EXPECT_TRUE(churned.NodeCrashed(1));
        EXPECT_THROW(churned.NodeRuntime(1), rt::RuntimeUsageError);
        // The healthy nodes never notice; the evicted node's frozen
        // digest keeps the divergence visible.
        const auto got = DigestsOf(churned);
        EXPECT_EQ(got[0], want[0]);
        EXPECT_EQ(got[2], want[2]);
        EXPECT_FALSE(churned.StreamDigestsAgree());
    }
}

TEST(ElasticMembership, EvictionOutlastsAFaultPlanRejoinPoint)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(CorruptionOptions());
    const std::uint64_t total =
        Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    // Node 1 crashes and rejoins early, then a corruption that never
    // ends hits it. Its plan's rejoin point lies behind every later
    // barrier, yet the eviction must stand.
    sim::ClusterOptions options = CorruptionOptions();
    options.checkpoint_interval_tasks = 300;
    options.fault_plan.events.push_back(
        {.node = 1, .crash_at_task = total / 8,
         .rejoin_at_task = total / 4});
    CorruptNode(options, 1, total / 2, UINT64_MAX);
    sim::Cluster churned(options);
    Drive<apps::S3dApplication>(churned, app_options, 30);

    const sim::FaultStats& fault = churned.FaultRecovery();
    EXPECT_EQ(fault.crashes, 1u);
    EXPECT_EQ(fault.rejoins, 1u);
    EXPECT_EQ(fault.heals, 1u);
    EXPECT_EQ(fault.evictions, 1u);
    EXPECT_TRUE(churned.NodeCrashed(1));
    const auto got = DigestsOf(churned);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[2], want[2]);
    EXPECT_FALSE(churned.StreamDigestsAgree());
}

TEST(ElasticMembership, HealedCheckpointSourceWritesAMatchingDigest)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster reference(CorruptionOptions());
    Drive<apps::S3dApplication>(reference, app_options, 30);
    const auto want = DigestsOf(reference);

    // The first checkpoint falls due at the barrier covering task 299
    // (no trace is open that early), so node 0 is healed there and is
    // that checkpoint's source. Node 1 then crashes and rejoins from
    // that image before the next one: the image's digest must cover
    // the rows the heal replayed, or node 1 diverges and is evicted.
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streaming" : "retained");
        sim::ClusterOptions options = CorruptionOptions(streaming);
        options.checkpoint_interval_tasks = 300;
        CorruptNode(options, 0, 299, 300);
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = 300, .rejoin_at_task = 500});
        sim::Cluster churned(options);
        Drive<apps::S3dApplication>(churned, app_options, 30);

        const sim::FaultStats& fault = churned.FaultRecovery();
        EXPECT_EQ(fault.heals, 1u);
        EXPECT_EQ(fault.crashes, 1u);
        EXPECT_EQ(fault.rejoins, 1u);
        EXPECT_EQ(fault.evictions, 0u);
        EXPECT_GE(fault.checkpoints_taken, 1u);
        EXPECT_EQ(DigestsOf(churned), want);
        EXPECT_TRUE(churned.StreamDigestsAgree());
    }
}

/** Everything a fault scenario reports, for comparing thread counts. */
struct ScenarioOutcome {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    std::vector<bool> crashed;
    std::uint64_t candidate_digest = 0;
    sim::FaultStats fault;
    sim::CoordinationStats coordination;
    std::vector<sim::NodeMetrics> per_node;
    sim::DecisionStats decisions;
};

TEST(ElasticMembership, RecoveryMatchesAcrossMiningThreads)
{
    // The shared decider mines on the cluster's team at jobs 2 and
    // inline at jobs 1. A crash/rejoin, a heal and an eviction must
    // come out the same either way: the checkpoints, tails and digest
    // checks depend on the decisions, which depend only on the agreed
    // ingestion positions.
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    const apps::S3dOptions app_options{.machine = machine};
    sim::Cluster clean(CorruptionOptions());
    const std::uint64_t total =
        Drive<apps::S3dApplication>(clean, app_options, 30);

    enum class Scenario { kCrashRejoin, kHeal, kEvict };
    auto run = [&](Scenario scenario, std::size_t jobs) {
        sim::ClusterOptions options = CorruptionOptions();
        options.jobs = jobs;
        switch (scenario) {
          case Scenario::kCrashRejoin:
            options.checkpoint_interval_tasks = 300;
            options.fault_plan.events.push_back(
                {.node = 1, .crash_at_task = total / 3,
                 .rejoin_at_task = 2 * total / 3});
            break;
          case Scenario::kHeal:
            CorruptNode(options, 1, total / 4, total / 4 + 1);
            break;
          case Scenario::kEvict:
            CorruptNode(options, 1, total / 4, UINT64_MAX);
            break;
        }
        sim::Cluster cluster(options);
        Drive<apps::S3dApplication>(cluster, app_options, 30);
        ScenarioOutcome out;
        out.digests = DigestsOf(cluster);
        for (std::size_t n = 0; n < cluster.Nodes(); ++n) {
            out.crashed.push_back(cluster.NodeCrashed(n));
        }
        out.candidate_digest = cluster.Decider().CandidateDigest();
        out.fault = cluster.FaultRecovery();
        out.coordination = cluster.Coordination();
        out.per_node = cluster.PerNode();
        out.decisions = cluster.DecisionCost();
        return out;
    };
    for (const Scenario scenario :
         {Scenario::kCrashRejoin, Scenario::kHeal, Scenario::kEvict}) {
        SCOPED_TRACE(static_cast<int>(scenario));
        const ScenarioOutcome inline_run = run(scenario, 1);
        const ScenarioOutcome team_run = run(scenario, 2);
        EXPECT_EQ(inline_run.fault.crashes + inline_run.fault.heals, 1u);
        EXPECT_EQ(inline_run.fault.evictions,
                  scenario == Scenario::kEvict ? 1u : 0u);

        EXPECT_EQ(team_run.digests, inline_run.digests);
        EXPECT_EQ(team_run.crashed, inline_run.crashed);
        EXPECT_EQ(team_run.candidate_digest, inline_run.candidate_digest);
        const sim::FaultStats& a = team_run.fault;
        const sim::FaultStats& b = inline_run.fault;
        EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
        EXPECT_EQ(a.last_checkpoint_bytes, b.last_checkpoint_bytes);
        EXPECT_EQ(a.total_checkpoint_bytes, b.total_checkpoint_bytes);
        EXPECT_EQ(a.crashes, b.crashes);
        EXPECT_EQ(a.rejoins, b.rejoins);
        EXPECT_EQ(a.heals, b.heals);
        EXPECT_EQ(a.evictions, b.evictions);
        EXPECT_EQ(a.tail_events_replayed, b.tail_events_replayed);
        EXPECT_EQ(a.checkpoint_pause_tasks, b.checkpoint_pause_tasks);
        EXPECT_EQ(a.recovery_stall_tasks, b.recovery_stall_tasks);
        EXPECT_EQ(team_run.coordination.jobs_coordinated,
                  inline_run.coordination.jobs_coordinated);
        EXPECT_EQ(team_run.coordination.late_jobs,
                  inline_run.coordination.late_jobs);
        EXPECT_EQ(team_run.coordination.final_slack,
                  inline_run.coordination.final_slack);
        ASSERT_EQ(team_run.per_node.size(), inline_run.per_node.size());
        for (std::size_t n = 0; n < team_run.per_node.size(); ++n) {
            EXPECT_EQ(team_run.per_node[n].virtual_time_tasks,
                      inline_run.per_node[n].virtual_time_tasks);
            EXPECT_EQ(team_run.per_node[n].stall_tasks,
                      inline_run.per_node[n].stall_tasks);
        }
        EXPECT_EQ(team_run.decisions.batches, inline_run.decisions.batches);
        EXPECT_EQ(team_run.decisions.decisions,
                  inline_run.decisions.decisions);
    }
}

TEST(ElasticMembership, FaultPlanValidation)
{
    {
        sim::ClusterOptions options = BaseOptions(3, false);
        options.fault_plan.events.push_back({.node = 5, .crash_at_task = 10});
        EXPECT_THROW(sim::Cluster{options}, rt::RuntimeUsageError);
    }
    {
        sim::ClusterOptions options = BaseOptions(3, false);
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = 100, .rejoin_at_task = 100});
        EXPECT_THROW(sim::Cluster{options}, rt::RuntimeUsageError);
    }
    {
        // Fault tolerance rides the shared decision engine's tail.
        sim::ClusterOptions options = BaseOptions(3, false);
        options.shared_decisions = false;
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = 100, .rejoin_at_task = 200});
        EXPECT_THROW(sim::Cluster{options}, rt::RuntimeUsageError);
    }
}

TEST(ElasticMembership, CorruptClusterCheckpointImagesAreRejected)
{
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    sim::ClusterOptions options = BaseOptions(3, false);
    options.checkpoint_interval_tasks = 200;
    sim::Cluster cluster(options);
    Drive<apps::S3dApplication>(
        cluster, apps::S3dOptions{.machine = machine}, 20);
    const std::vector<std::uint8_t> image = cluster.CheckpointImage();
    ASSERT_GT(cluster.FaultRecovery().checkpoints_taken, 0u);
    ASSERT_FALSE(image.empty());

    // The install path a rejoining node runs, on a fresh runtime.
    const auto install = [&](const std::vector<std::uint8_t>& bytes) {
        fault::CheckpointReader reader(bytes);
        reader.BeginSection(fault::SectionTag::kClusterNode);
        reader.U64();
        reader.U64();
        reader.U64();
        reader.EndSection();
        rt::Runtime fresh(options.runtime_options);
        fresh.LoadState(reader);
    };
    install(image);  // the intact image must install cleanly

    std::vector<std::uint8_t> truncated(
        image.begin(),
        image.begin() + static_cast<std::ptrdiff_t>(image.size() / 2));
    EXPECT_THROW(install(truncated), fault::CheckpointError);

    std::vector<std::uint8_t> flipped = image;
    flipped[flipped.size() * 3 / 4] ^= 0x01;
    EXPECT_THROW(install(flipped), fault::CheckpointError);
}

}  // namespace
}  // namespace apo
