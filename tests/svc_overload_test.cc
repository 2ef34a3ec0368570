/**
 * @file
 * Overload robustness of svc::TraceService (ROADMAP item 3's
 * sustained-serving half). The contracts under test:
 *
 *  - incoherent tenant/overload configurations are rejected up front
 *    with a typed svc::ServiceUsageError naming the tenant and the
 *    rule, before any tenant state is touched;
 *  - kShed keeps the backlog at the admission bound by dropping
 *    arrivals (never issuing their payloads), and the run still
 *    terminates with completed + shed == offered;
 *  - kDegrade admits everything, issues backlogged windows untraced
 *    through core::Apophenia::SetDegraded, re-enables tracing with
 *    hysteresis (multiple degrade windows under sustained overload),
 *    and is bit-safe: degraded tokens never reach the finder;
 *  - at sustainable load the overload machinery is inert — all three
 *    policies produce bit-identical per-tenant streams;
 *  - DeficitWeightedFairPolicy still converges granted shares to the
 *    weights when the mix holds a shedding and a degrading tenant at
 *    sustained saturation, with no starvation and bounded shed-tenant
 *    latency;
 *  - an executor that runs nothing until it is drained cannot hang a
 *    front end or the service: each job runs on the thread that
 *    ingests it, the run reports the inline run's digests, and the
 *    stale closures that run at teardown never mine a second time,
 *    not even on recycled job storage; a miner's Abandon wakes the
 *    waiters blocked on its window;
 *  - LatencyReservoir reports exact percentiles below capacity
 *    (bit-identical to the unbounded vectors it replaced) and never
 *    allocates after construction (counting-allocator pin);
 *  - with mining-cache sharing off, the health monitor's resident
 *    sum includes every tenant's private mining memo;
 *  - the resident sum includes a replicated tenant's decision runtime
 *    as well as its node runtimes;
 *  - a replicated tenant streams: its streaming run issues and
 *    reports what its retained run does, at lower peak resident
 *    bytes;
 *  - a sustained streaming-mode overload run holds a resident-memory
 *    plateau: quadrupling the task budget leaves peak resident bytes
 *    flat.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/apophenia.h"
#include "core/mining_cache.h"
#include "sim/harness.h"
#include "support/counting_allocator.h"
#include "support/executor.h"
#include "support/hash.h"
#include "svc/load_driver.h"
#include "svc/service.h"
#include "svc/workload.h"
#include "history_window.h"

namespace apo {
namespace {

constexpr std::size_t kKernelTasks = 40;

apps::MachineConfig TestMachine()
{
    apps::MachineConfig machine;
    machine.nodes = 1;
    machine.gpus_per_node = 4;
    return machine;
}

/** Kernel-aligned service tuning (mirrors fig_overload). */
svc::ServiceOptions OverloadServiceOptions()
{
    svc::ServiceOptions options;
    options.machine = TestMachine();
    options.config.min_trace_length = 10;
    options.config.batchsize = 960;
    options.config.multi_scale_factor = 40;
    return options;
}

/** Noise-free synthetic kernel: exactly kKernelTasks per iteration,
 * so offered-load algebra is exact. */
svc::SyntheticOptions KernelOptions(std::uint64_t seed)
{
    svc::SyntheticOptions synthetic;
    synthetic.machine = TestMachine();
    synthetic.seed = seed;
    synthetic.kernel_tasks = kKernelTasks;
    synthetic.noise_interval = 0;
    return synthetic;
}

svc::TenantOptions OpenLoopTenant(apps::Application* app,
                                  std::size_t iterations,
                                  std::uint64_t arrival_gap,
                                  svc::OverloadPolicy policy,
                                  std::size_t bound, std::size_t resume)
{
    svc::TenantOptions tenant;
    tenant.name = "overload";
    tenant.app = app;
    tenant.iterations = iterations;
    tenant.arrival_gap = arrival_gap;
    tenant.overload_policy = policy;
    tenant.max_queue_iterations = bound;
    tenant.degrade_resume_iterations = resume;
    return tenant;
}

/** Asserts `body` throws ServiceUsageError whose message carries every
 * needle. */
template <typename Fn>
void ExpectUsageError(Fn&& body,
                      std::initializer_list<std::string_view> needles)
{
    try {
        body();
        ADD_FAILURE() << "expected ServiceUsageError, got no exception";
    } catch (const svc::ServiceUsageError& error) {
        const std::string what = error.what();
        for (const std::string_view needle : needles) {
            EXPECT_NE(what.find(needle), std::string::npos)
                << "message \"" << what << "\" lacks \"" << needle
                << "\"";
        }
    }
}

// ---------------------------------------------------------------------------
// Typed up-front validation.

TEST(OverloadValidation, RejectsEmptyService)
{
    ExpectUsageError(
        [] {
            svc::TraceService service(OverloadServiceOptions());
            service.Run();
        },
        {"no tenants registered"});
}

TEST(OverloadValidation, RejectsNullApplication)
{
    ExpectUsageError(
        [] {
            svc::TraceService service(OverloadServiceOptions());
            svc::TenantOptions tenant;
            tenant.name = "ghost";
            service.AddTenant(std::move(tenant));
            service.Run();
        },
        {"'ghost'", "no application"});
}

TEST(OverloadValidation, ShedNeedsOpenLoopArrivals)
{
    ExpectUsageError(
        [] {
            svc::TraceService service(OverloadServiceOptions());
            svc::SyntheticWorkload app(KernelOptions(1));
            service.AddTenant(OpenLoopTenant(
                &app, 10, /*arrival_gap=*/0,
                svc::OverloadPolicy::kShed, /*bound=*/4, 0));
            service.Run();
        },
        {"'overload'", "open-loop arrival model", "arrival_gap"});
}

TEST(OverloadValidation, ShedNeedsAnAdmissionBound)
{
    ExpectUsageError(
        [] {
            svc::TraceService service(OverloadServiceOptions());
            svc::SyntheticWorkload app(KernelOptions(1));
            service.AddTenant(OpenLoopTenant(
                &app, 10, /*arrival_gap=*/20,
                svc::OverloadPolicy::kShed, /*bound=*/0, 0));
            service.Run();
        },
        {"'overload'", "admission bound", "max_queue_iterations"});
}

TEST(OverloadValidation, DegradeRejectsReplicatedTenants)
{
    ExpectUsageError(
        [] {
            svc::TraceService service(OverloadServiceOptions());
            svc::SyntheticWorkload app(KernelOptions(1));
            svc::TenantOptions tenant = OpenLoopTenant(
                &app, 10, /*arrival_gap=*/20,
                svc::OverloadPolicy::kDegrade, /*bound=*/4,
                /*resume=*/1);
            tenant.replicas = 2;
            service.AddTenant(std::move(tenant));
            service.Run();
        },
        {"'overload'", "kDegrade", "replicated"});
}

TEST(OverloadValidation, DegradeResumeMustSitBelowTheBound)
{
    ExpectUsageError(
        [] {
            svc::TraceService service(OverloadServiceOptions());
            svc::SyntheticWorkload app(KernelOptions(1));
            service.AddTenant(OpenLoopTenant(
                &app, 10, /*arrival_gap=*/20,
                svc::OverloadPolicy::kDegrade, /*bound=*/4,
                /*resume=*/4));
            service.Run();
        },
        {"'overload'", "degrade_resume_iterations (4)",
         "max_queue_iterations (4)"});
}

TEST(OverloadValidation, DriverRejectsNonPositiveLoad)
{
    ExpectUsageError(
        [] { svc::LoadDriver::DeriveArrivalGap(0, kKernelTasks, 1.0); },
        {"LoadDriver", "positive"});
    ExpectUsageError(
        [] { svc::LoadDriver::DeriveArrivalGap(4, kKernelTasks, 0.0); },
        {"LoadDriver", "positive"});
}

// ---------------------------------------------------------------------------
// kShed: bounded backlog, dropped arrivals, terminating runs.

TEST(OverloadShed, BoundsBacklogAndDropsArrivals)
{
    constexpr std::size_t kIterations = 200;
    constexpr std::size_t kBound = 4;
    svc::TraceService service(OverloadServiceOptions());
    svc::SyntheticWorkload app(KernelOptions(7));
    // gap 20 against a 40-task kernel: 2x the traced issue capacity.
    service.AddTenant(OpenLoopTenant(&app, kIterations,
                                     /*arrival_gap=*/20,
                                     svc::OverloadPolicy::kShed, kBound,
                                     0));
    const svc::ServiceResult result = service.Run();
    const svc::TenantStats& stats = result.tenants[0];

    // Every offered iteration was either granted or shed — the run
    // terminated without issuing the shed payloads.
    EXPECT_EQ(stats.iterations_completed + stats.iterations_shed,
              kIterations);
    // At 2x sustained load roughly half the arrivals must go.
    EXPECT_GE(stats.iterations_shed, kIterations / 4);
    EXPECT_GE(stats.iterations_completed, kIterations / 4);
    // The admission bound held.
    EXPECT_LE(stats.max_backlog, kBound);
    // Shed arrivals were never issued: the token count is exactly the
    // granted iterations times the noise-free kernel size.
    EXPECT_EQ(stats.tokens_issued,
              stats.iterations_completed * kKernelTasks);
    EXPECT_EQ(stats.iterations_degraded, 0u);
}

// ---------------------------------------------------------------------------
// kDegrade: hysteresis, liveness, bit-safety.

TEST(OverloadDegrade, HysteresisCyclesAndBitSafety)
{
    constexpr std::size_t kIterations = 200;
    constexpr std::size_t kBound = 4;
    svc::ServiceOptions options = OverloadServiceOptions();
    options.degraded_task_cost = 0.25;
    svc::TraceService service(std::move(options));
    svc::SyntheticWorkload app(KernelOptions(11));
    service.AddTenant(OpenLoopTenant(&app, kIterations,
                                     /*arrival_gap=*/20,
                                     svc::OverloadPolicy::kDegrade,
                                     kBound, /*resume=*/1));
    const svc::ServiceResult result = service.Run();
    const svc::TenantStats& stats = result.tenants[0];

    // Degrade admits everything: nothing shed, every iteration ran.
    EXPECT_EQ(stats.iterations_completed, kIterations);
    EXPECT_EQ(stats.iterations_shed, 0u);
    // Under sustained 2x load the tenant oscillates: some iterations
    // degraded, some traced, across more than one hysteresis window.
    EXPECT_GT(stats.iterations_degraded, 0u);
    EXPECT_LT(stats.iterations_degraded, kIterations);
    EXPECT_GE(stats.degrade_windows, 2u);
    // The discounted degraded issue rate bounds the backlog near the
    // admission bound (slack: the traced phase of each cycle).
    EXPECT_LE(stats.max_backlog, 4 * kBound);

    // Bit-safety: degraded tasks never reached the finder — the
    // finder observed exactly the non-degraded tokens, so re-enabling
    // tracing cannot have been perturbed by degraded windows.
    const core::Apophenia& engine = service.TenantEngine(0);
    EXPECT_GT(engine.Stats().tasks_degraded, 0u);
    EXPECT_EQ(stats.tokens_degraded, engine.Stats().tasks_degraded);
    EXPECT_EQ(engine.Finder().tokens_observed,
              engine.Stats().tasks_observed -
                  engine.Stats().tasks_degraded);
}

// ---------------------------------------------------------------------------
// Sustainable load: the policies are behaviour-identical.

TEST(OverloadPolicies, InertAtSustainableLoad)
{
    std::vector<std::vector<std::uint64_t>> digests;
    for (const svc::OverloadPolicy policy :
         {svc::OverloadPolicy::kBlock, svc::OverloadPolicy::kShed,
          svc::OverloadPolicy::kDegrade}) {
        svc::LoadDriverOptions options;
        options.service = OverloadServiceOptions();
        options.tenants = 2;
        options.offered_load = 0.8;
        options.task_budget = 16000;
        options.policy = policy;
        options.max_queue_iterations = 4;
        options.degrade_resume_iterations = 1;
        options.kernel_tasks = kKernelTasks;
        svc::LoadDriver driver(std::move(options));
        const svc::DriverResult result = driver.Run();
        EXPECT_EQ(result.shed_fraction, 0.0);
        EXPECT_EQ(result.degraded_fraction, 0.0);
        digests.push_back(result.tenant_digests);
    }
    // Bit-identical per-tenant streams under every policy.
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

// ---------------------------------------------------------------------------
// Fairness under saturation with a mixed-policy tenant set.

TEST(OverloadFairness, DeficitWeightedSharesUnderSaturation)
{
    constexpr std::size_t kIterations = 120;
    constexpr std::size_t kBound = 4;
    constexpr std::uint64_t kGap = kKernelTasks;  // 1x per tenant, 3x total

    svc::DeficitWeightedFairPolicy policy;
    svc::ServiceOptions options = OverloadServiceOptions();
    options.policy = &policy;
    svc::TraceService service(std::move(options));

    svc::SyntheticWorkload shed_light(KernelOptions(21));
    svc::SyntheticWorkload shed_heavy(KernelOptions(22));
    svc::SyntheticWorkload degrading(KernelOptions(23));

    svc::TenantOptions light = OpenLoopTenant(
        &shed_light, kIterations, kGap, svc::OverloadPolicy::kShed,
        kBound, 0);
    light.name = "shed-w1";
    light.weight = 1.0;
    svc::TenantOptions heavy = OpenLoopTenant(
        &shed_heavy, kIterations, kGap, svc::OverloadPolicy::kShed,
        kBound, 0);
    heavy.name = "shed-w3";
    heavy.weight = 3.0;
    svc::TenantOptions soft = OpenLoopTenant(
        &degrading, kIterations, kGap, svc::OverloadPolicy::kDegrade,
        kBound, /*resume=*/1);
    soft.name = "degrade-w1";
    soft.weight = 1.0;
    service.AddTenant(std::move(light));
    service.AddTenant(std::move(heavy));
    service.AddTenant(std::move(soft));

    const svc::ServiceResult result = service.Run();
    const svc::TenantStats& w1 = result.tenants[0];
    const svc::TenantStats& w3 = result.tenants[1];
    const svc::TenantStats& deg = result.tenants[2];

    // No starvation: every tenant made real progress, the shedding
    // pair terminated by granting or dropping every arrival, and the
    // degrading tenant ran everything.
    EXPECT_GT(w1.iterations_completed, 0u);
    EXPECT_GT(w3.iterations_completed, 0u);
    EXPECT_EQ(w1.iterations_completed + w1.iterations_shed, kIterations);
    EXPECT_EQ(w3.iterations_completed + w3.iterations_shed, kIterations);
    EXPECT_EQ(deg.iterations_completed, kIterations);
    EXPECT_GT(deg.iterations_degraded, 0u);

    // Weight convergence: both shed tenants offer identical streams,
    // so their granted-iteration ratio tracks the 3:1 weights.
    const double ratio =
        static_cast<double>(w3.iterations_completed) /
        static_cast<double>(w1.iterations_completed);
    EXPECT_GE(ratio, 2.0) << "w3 granted " << w3.iterations_completed
                          << ", w1 granted " << w1.iterations_completed;
    EXPECT_LE(ratio, 4.0);

    // Bounded wait: the shed tenants' issue latency is pinned by the
    // admission bound, not by the run length.
    const double latency_ceiling =
        static_cast<double>((kBound + 2) * kGap * 3);
    EXPECT_LE(w1.p99_issue_latency, latency_ceiling);
    EXPECT_LE(w3.p99_issue_latency, latency_ceiling);
    EXPECT_LE(w1.max_backlog, kBound);
    EXPECT_LE(w3.max_backlog, kBound);
}

// ---------------------------------------------------------------------------
// A stalled executor cannot hang a front end.

/** Holds every submitted job un-run until Drain(): a mining backend
 * that never starts a job while the front end runs, then runs every
 * stale closure at teardown. */
class StallingExecutor final : public support::Executor {
  public:
    using support::Executor::Submit;

    void Submit(std::function<void()> job) override
    {
        stalled_.push_back(std::move(job));
    }

    void Drain() override
    {
        std::vector<std::function<void()>> jobs;
        jobs.swap(stalled_);
        for (auto& job : jobs) {
            job();
        }
    }

    std::size_t Stalled() const { return stalled_.size(); }

  private:
    std::vector<std::function<void()>> stalled_;
};

TEST(StalledExecutor, LoneFrontEndFinishesWithTheInlineDigests)
{
    const auto run = [](support::Executor* executor) {
        svc::SyntheticWorkload app(KernelOptions(31));
        sim::ExperimentOptions options;
        options.machine = TestMachine();
        options.iterations = 60;
        options.mode = sim::TracingMode::kAuto;
        options.auto_config = OverloadServiceOptions().config;
        options.executor = executor;
        return sim::RunExperiment(app, options);
    };
    const sim::ExperimentResult inline_run = run(nullptr);
    // Declared first, so it outlives the front end's teardown drain.
    StallingExecutor stalling;
    // The run itself is the liveness assertion: the executor starts
    // no job before the front end is torn down.
    const sim::ExperimentResult stalled_run = run(&stalling);
    EXPECT_GT(inline_run.replayed_fraction, 0.0);
    EXPECT_EQ(stalled_run.stream_digest, inline_run.stream_digest);
    EXPECT_EQ(stalled_run.stream_digest_ops, inline_run.stream_digest_ops);
    EXPECT_EQ(stalled_run.candidate_digest, inline_run.candidate_digest);
    EXPECT_EQ(stalled_run.apophenia_stats.jobs_ingested,
              inline_run.apophenia_stats.jobs_ingested);
    EXPECT_EQ(stalling.Stalled(), 0u);  // drained at teardown
}

TEST(StalledExecutor, ServiceFinishesWithTheInlineDigests)
{
    constexpr std::size_t kIterations = 40;
    // Declared first, so it outlives every tenant's teardown drain.
    StallingExecutor stalling;
    const auto run = [&](support::Executor* executor) {
        std::vector<std::unique_ptr<svc::SyntheticWorkload>> apps;
        svc::ServiceOptions options = OverloadServiceOptions();
        options.executor = executor;
        svc::TraceService service(std::move(options));
        for (std::uint64_t t = 0; t < 3; ++t) {
            apps.push_back(std::make_unique<svc::SyntheticWorkload>(
                KernelOptions(31 + t)));
            svc::TenantOptions tenant;
            tenant.name = "t" + std::to_string(t);
            tenant.app = apps.back().get();
            tenant.iterations = kIterations;
            service.AddTenant(std::move(tenant));
        }
        const svc::ServiceResult result = service.Run();
        if (executor == &stalling) {
            // Every job ran on the service's thread at its ingestion;
            // the executor has started none of them.
            EXPECT_GT(stalling.Stalled(), 0u);
        }
        return result;
    };
    const svc::ServiceResult inline_run = run(nullptr);
    const svc::ServiceResult stalled_run = run(&stalling);
    ASSERT_EQ(stalled_run.tenants.size(), 3u);
    for (std::size_t t = 0; t < 3; ++t) {
        SCOPED_TRACE(t);
        const svc::TenantStats& stalled = stalled_run.tenants[t];
        const svc::TenantStats& inlined = inline_run.tenants[t];
        EXPECT_EQ(stalled.iterations_completed, kIterations);
        EXPECT_EQ(stalled.stream_digest, inlined.stream_digest);
        EXPECT_EQ(stalled.stream_digest_ops, inlined.stream_digest_ops);
        EXPECT_EQ(stalled.candidate_digest, inlined.candidate_digest);
    }
    EXPECT_EQ(stalled_run.mining_cache.windows,
              inline_run.mining_cache.windows);
}

TEST(StalledExecutor, StaleClosuresOfRecycledJobsNeverMine)
{
    // A small scale factor launches a job every 8 tasks. Each is
    // ingested and recycled at the task that launched it, so its
    // storage is launched again while the closures of its earlier
    // launches still wait in the executor.
    StallingExecutor stalling;
    core::ApopheniaConfig config;
    config.min_trace_length = 4;
    config.batchsize = 256;
    config.multi_scale_factor = 8;
    rt::Runtime runtime;
    core::Apophenia fe(runtime, config, &stalling);
    const rt::RegionId a = fe.CreateRegion();
    const rt::RegionId b = fe.CreateRegion();
    for (std::uint64_t i = 0; i < 4000; ++i) {
        // The loop body changes every 1000 tasks, so windows are both
        // memo hits and fresh mining.
        fe.ExecuteTask(rt::TaskLaunch{
            static_cast<rt::TaskId>(100 + i % 12 + 20 * (i / 1000)),
            {{i % 2 == 0 ? a : b, 0, rt::Privilege::kReadWrite, 0}}});
    }
    fe.Flush();
    const core::FinderStats& finder = fe.Finder();
    ASSERT_GT(finder.jobs_launched, 400u);
    EXPECT_GE(finder.jobs_recycled + 2, finder.jobs_launched);
    EXPECT_GT(finder.mining_full, 0u);
    EXPECT_GT(finder.mining_fast_path_hits, 0u);
    EXPECT_EQ(finder.mining_full + finder.mining_fast_path_hits,
              finder.jobs_launched);
    EXPECT_EQ(stalling.Stalled(), finder.jobs_launched);
    const core::MiningCache& memo = *fe.PrivateMemo();
    const auto probes = [&] {
        const core::MiningCache::Stats stats = memo.Snapshot();
        return stats.hits + stats.misses;
    };
    EXPECT_EQ(probes(), finder.jobs_launched);

    // Every stale closure runs now, most against storage since
    // relaunched: none may probe the memo, let alone mine.
    stalling.Drain();
    EXPECT_EQ(stalling.Stalled(), 0u);
    EXPECT_EQ(probes(), finder.jobs_launched);
    EXPECT_EQ(finder.mining_full + finder.mining_fast_path_hits,
              finder.jobs_launched);
}

TEST(MiningCacheOverload, AMinersAbandonReleasesItsWaiters)
{
    core::MiningCache cache;
    const std::vector<rt::TokenHash> window = {11, 22, 33, 44, 55,
                                               66, 77, 88, 99, 110};
    const core::HistorySnapshot snapshot = test::SnapshotOf(window);
    const core::MiningCache::Key key = core::MiningCache::KeyOf(snapshot);
    const core::MiningCache::Claim first =
        cache.AcquireOrBegin(key, snapshot);
    ASSERT_TRUE(first.miner);

    std::atomic<bool> released{false};
    std::atomic<bool> waiter_became_miner{false};
    std::thread waiter([&] {
        const core::MiningCache::Claim claim =
            cache.AcquireOrBegin(key, snapshot);
        waiter_became_miner.store(claim.miner);
        released.store(true);
    });

    // The waiter blocks on the in-progress entry: nothing can release
    // it but the miner's publish or, as here, its abandon (its mining
    // threw).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(released.load());

    cache.Abandon(key);
    waiter.join();
    EXPECT_TRUE(released.load());
    // The released waiter re-probed and claimed the window itself.
    EXPECT_TRUE(waiter_became_miner.load());
    cache.Abandon(key);
}

// ---------------------------------------------------------------------------
// LatencyReservoir: exactness below capacity, zero steady-state
// allocation beyond it.

TEST(LatencyReservoir, ExactBelowCapacityMatchesVectorReference)
{
    svc::LatencyReservoir reservoir(128);
    std::vector<std::uint64_t> reference;
    for (std::uint64_t i = 0; i < 100; ++i) {
        const std::uint64_t sample = support::SplitMix64(i) % 1000;
        reservoir.Add(sample);
        reference.push_back(sample);
    }
    // The exact quantile the unbounded-vector path used to compute:
    // nearest-rank over the sorted samples.
    std::sort(reference.begin(), reference.end());
    const auto exact = [&](double q) {
        const double rank =
            q * static_cast<double>(reference.size() - 1);
        const std::size_t at = static_cast<std::size_t>(rank + 0.5);
        return static_cast<double>(
            reference[std::min(at, reference.size() - 1)]);
    };
    EXPECT_EQ(reservoir.Count(), 100u);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(reservoir.Percentile(q), exact(q)) << "q=" << q;
    }
}

TEST(LatencyReservoir, AddNeverAllocatesAfterConstruction)
{
    svc::LatencyReservoir reservoir(512);
    const std::uint64_t before = support::AllocationCount();
    for (std::uint64_t i = 0; i < 100000; ++i) {
        reservoir.Add(support::SplitMix64(i));
    }
    EXPECT_EQ(support::AllocationCount(), before)
        << "Add() allocated on the sustained-serving hot path";
    EXPECT_EQ(reservoir.Count(), 100000u);
    // Sanity: the estimate is still inside the sample range.
    const double p50 = reservoir.Percentile(0.5);
    EXPECT_GT(p50, 0.0);
}

// ---------------------------------------------------------------------------
// Health monitor: pressure eviction + forced degrade.

TEST(OverloadHealth, PressureEvictsAndForceDegrades)
{
    constexpr std::size_t kIterations = 60;
    svc::ServiceOptions options = OverloadServiceOptions();
    // A watermark every retained-log run breaches almost immediately.
    options.memory_high_watermark_bytes = 64 * 1024;
    svc::TraceService service(std::move(options));
    svc::SyntheticWorkload app(KernelOptions(41));
    // Sustainable load: any degraded iteration below is the memory
    // latch, not queue pressure.
    service.AddTenant(OpenLoopTenant(&app, kIterations,
                                     /*arrival_gap=*/45,
                                     svc::OverloadPolicy::kDegrade,
                                     /*bound=*/8, /*resume=*/2));
    const svc::ServiceResult result = service.Run();

    EXPECT_GT(result.health.samples, 0u);
    EXPECT_GT(result.health.pressure_events, 0u);
    EXPECT_GT(result.health.peak_resident_bytes,
              static_cast<std::size_t>(64 * 1024));
    EXPECT_GT(result.health.forced_degrades, 0u);
    // The memory latch degraded iterations the queue never would
    // have, and the tenant still ran to completion.
    EXPECT_GT(result.tenants[0].iterations_degraded, 0u);
    EXPECT_EQ(result.tenants[0].iterations_completed, kIterations);
}

TEST(OverloadHealth, CountsPrivateMiningMemosWhenSharingIsOff)
{
    constexpr std::size_t kIterations = 60;
    svc::ServiceOptions options = OverloadServiceOptions();
    options.share_mining_cache = false;
    options.log_mode = sim::LogMode::kStreaming;
    // Sample resident bytes every grant without ever breaching.
    options.memory_high_watermark_bytes = 1u << 30;
    svc::TraceService service(std::move(options));
    svc::SyntheticOptions noisy = KernelOptions(51);
    noisy.noise_interval = 7;
    svc::SyntheticWorkload first(noisy);
    svc::SyntheticWorkload second(KernelOptions(52));
    for (svc::SyntheticWorkload* app : {&first, &second}) {
        svc::TenantOptions tenant;
        tenant.app = app;
        tenant.iterations = kIterations;
        service.AddTenant(std::move(tenant));
    }
    const svc::ServiceResult result = service.Run();

    // Each tenant mined into its own memo; the shared cache saw
    // nothing.
    EXPECT_EQ(result.mining_cache.hits + result.mining_cache.misses, 0u);
    std::size_t memo_bytes = 0;
    std::size_t without_memos = 0;
    for (std::size_t t = 0; t < 2; ++t) {
        const core::MiningCache* memo =
            service.TenantEngine(t).PrivateMemo();
        ASSERT_NE(memo, nullptr);
        memo_bytes += memo->ResidentBytes();
        // An upper bound on what the tenant's log and trace cache ever
        // held at a sample.
        const rt::Runtime& runtime = service.TenantRuntime(t);
        without_memos += runtime.Log().PeakResidentBytes() +
                         runtime.Traces().ResidentBytes();
    }
    EXPECT_GT(memo_bytes, 0u);
    // The watermark saw more than logs and trace caches alone could
    // account for: the memos are in its sum.
    EXPECT_GT(result.health.peak_resident_bytes, without_memos);
    EXPECT_GE(result.health.peak_resident_bytes, memo_bytes);
}

TEST(OverloadHealth, CountsReplicatedTenantsDecisionRuntime)
{
    svc::ServiceOptions options = OverloadServiceOptions();
    // Sample resident bytes every grant without ever breaching.
    options.memory_high_watermark_bytes = 1u << 30;
    svc::TraceService service(std::move(options));
    svc::SyntheticWorkload app(KernelOptions(61));
    svc::TenantOptions tenant;
    tenant.app = &app;
    tenant.iterations = 40;
    tenant.replicas = 2;
    service.AddTenant(std::move(tenant));
    const svc::ServiceResult result = service.Run();
    EXPECT_EQ(result.health.pressure_events, 0u);

    const sim::Cluster* cluster = service.TenantCluster(0);
    ASSERT_NE(cluster, nullptr);
    const rt::Runtime* decision = cluster->DecisionRuntime();
    ASSERT_NE(decision, nullptr);
    auto bytes = [](const rt::Runtime& runtime) {
        return runtime.Log().ResidentBytes() +
               runtime.Traces().ResidentBytes();
    };
    EXPECT_GT(bytes(*decision), 0u);
    // Retained logs only grow, so the last sample (taken after the
    // tenant's final flush) is the end-of-run state: the peak covers
    // every node runtime, the decision runtime and the shared cache.
    std::size_t end_of_run =
        bytes(*decision) + service.SharedCache().ResidentBytes();
    for (std::size_t n = 0; n < cluster->Nodes(); ++n) {
        end_of_run += bytes(cluster->NodeRuntime(n));
    }
    EXPECT_GE(result.health.peak_resident_bytes, end_of_run);
}

// ---------------------------------------------------------------------------
// Sustained serving: resident memory plateaus under streaming logs.

/** One 3-replica tenant of the noise-free kernel under `log_mode`,
 * the health monitor sampling without ever breaching. */
svc::ServiceResult RunReplicatedTenant(sim::LogMode log_mode)
{
    svc::ServiceOptions options = OverloadServiceOptions();
    options.log_mode = log_mode;
    options.memory_high_watermark_bytes = 1u << 30;
    svc::TraceService service(std::move(options));
    svc::SyntheticWorkload app(KernelOptions(1));
    svc::TenantOptions tenant;
    tenant.name = "wide";
    tenant.app = &app;
    tenant.iterations = 60;
    tenant.replicas = 3;
    service.AddTenant(std::move(tenant));
    return service.Run();
}

TEST(OverloadSustained, ReplicatedTenantStreamsLikeRetained)
{
    const svc::ServiceResult retained =
        RunReplicatedTenant(sim::LogMode::kRetained);
    const svc::ServiceResult streaming =
        RunReplicatedTenant(sim::LogMode::kStreaming);
    const svc::TenantStats& want = retained.tenants[0];
    const svc::TenantStats& got = streaming.tenants[0];
    EXPECT_GT(want.stream_digest_ops, 0u);
    EXPECT_EQ(got.stream_digest, want.stream_digest);
    EXPECT_EQ(got.stream_digest_ops, want.stream_digest_ops);
    EXPECT_EQ(got.candidate_digest, want.candidate_digest);
    const sim::ExperimentResult& want_run = retained.experiments[0];
    const sim::ExperimentResult& got_run = streaming.experiments[0];
    EXPECT_GT(want_run.replayed_fraction, 0.0);
    EXPECT_TRUE(got_run.streams_identical);
    EXPECT_DOUBLE_EQ(got_run.iterations_per_second,
                     want_run.iterations_per_second);
    EXPECT_EQ(got_run.warmup_iterations, want_run.warmup_iterations);
    // Every node's log, and the decision runtime's, recycled its
    // blocks.
    EXPECT_LT(streaming.health.peak_resident_bytes,
              retained.health.peak_resident_bytes);
}

std::size_t PeakResidentAt(std::uint64_t task_budget,
                           svc::OverloadPolicy policy)
{
    svc::LoadDriverOptions options;
    options.service = OverloadServiceOptions();
    options.service.log_mode = sim::LogMode::kStreaming;
    // Sample resident bytes without ever breaching: the plateau must
    // come from streaming retirement + bounded reservoirs alone.
    options.service.memory_high_watermark_bytes = 1u << 30;
    options.tenants = 2;
    options.offered_load = 2.0;
    options.task_budget = task_budget;
    options.policy = policy;
    options.max_queue_iterations = 6;
    options.degrade_resume_iterations = 1;
    options.kernel_tasks = kKernelTasks;
    svc::LoadDriver driver(std::move(options));
    const svc::DriverResult result = driver.Run();
    EXPECT_EQ(result.service.health.pressure_events, 0u);
    EXPECT_GT(result.peak_resident_bytes, 0u);
    return result.peak_resident_bytes;
}

TEST(OverloadSustained, ResidentMemoryPlateausUnderStreaming)
{
    for (const svc::OverloadPolicy policy :
         {svc::OverloadPolicy::kShed, svc::OverloadPolicy::kDegrade}) {
        const std::size_t short_run = PeakResidentAt(120000, policy);
        const std::size_t long_run = PeakResidentAt(480000, policy);
        // 4x the task budget, flat peak resident bytes: the sustained
        // run holds a memory plateau instead of scaling with stream
        // length.
        EXPECT_LE(long_run,
                  static_cast<std::size_t>(1.10 * short_run))
            << "policy " << static_cast<int>(policy) << ": "
            << short_run << " -> " << long_run;
    }
}

}  // namespace
}  // namespace apo
