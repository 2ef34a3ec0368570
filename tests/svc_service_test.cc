/**
 * @file
 * svc::TraceService — the multi-tenant trace-finding service.
 *
 * The contracts under test, in dependency order:
 *  - token namespacing is an XOR fold in the tenant session: identity
 *    for namespace 0, self-inverse;
 *  - the shared MiningCache is content-addressed by namespace-relative
 *    tokens: two tenants' identical kernels hit one entry, hits across
 *    namespaces are counted, eviction is counted;
 *  - a single-tenant service run is bit-identical — stream digest and
 *    candidate sets — to the direct harness, for every app skeleton;
 *  - tenants are isolated: disjoint token streams, no cross-tenant
 *    candidate pollution, per-tenant TraceCache (with its eviction
 *    counter surfaced);
 *  - M identical tenants mine each distinct window once service-wide
 *    and adopt cross-tenant at (M-1)/M of probes;
 *  - runs are deterministic for a fixed tenant set, seed and policy,
 *    and the deficit-weighted fair policy honors weights.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/mining_cache.h"
#include "sim/harness.h"
#include "support/executor.h"
#include "svc/service.h"
#include "svc/workload.h"
#include "history_window.h"

namespace apo {
namespace {

// ---------------------------------------------------------------------------
// The namespace fold.

TEST(NamespaceFold, IdentityAndSelfInverse)
{
    EXPECT_EQ(rt::FoldNamespace(0, 0x1234u), 0x1234u);
    const rt::TokenHash ns = 0xabcdef0123456789ull;
    const rt::TokenHash token = 0x5eedf00dull;
    EXPECT_NE(rt::FoldNamespace(ns, token), token);
    EXPECT_EQ(rt::FoldNamespace(ns, rt::FoldNamespace(ns, token)), token);
}

// ---------------------------------------------------------------------------
// The mining cache across tenants.

TEST(MiningCacheNamespace, TenantsShareOneEntryPerWindow)
{
    // Finders fold their namespace out of every token they record, so
    // two tenants running one kernel present the same window; the
    // cache keeps the namespace only as an owner tag.
    const std::vector<rt::TokenHash> window = {1, 2, 3, 4, 1, 2, 3, 4};
    const core::HistorySnapshot snapshot = test::SnapshotOf(window);
    const rt::TokenHash ns = 0xdead0000beefull;
    core::MiningCache cache;
    const core::MiningCache::Key key = core::MiningCache::KeyOf(snapshot);
    core::MiningCache::Claim claim = cache.AcquireOrBegin(key, snapshot, 0);
    ASSERT_TRUE(claim.miner);
    std::vector<core::CandidateTrace> mined(1);
    mined[0].tokens = {1, 2, 3, 4};
    mined[0].occurrences = 2.0;
    const auto published = cache.Publish(key, window, std::move(mined), 0);

    // The other tenant probes the same window and adopts the very set.
    claim = cache.AcquireOrBegin(key, snapshot, ns);
    ASSERT_NE(claim.results, nullptr);
    EXPECT_FALSE(claim.miner);
    EXPECT_EQ(claim.owner, 0u);  // published by namespace 0
    EXPECT_EQ(claim.results.get(), published.get());

    const core::MiningCache::Stats stats = cache.Snapshot();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.windows, 1u);
    EXPECT_EQ(stats.cross_namespace_hits, 1u);
}

TEST(MiningCacheNamespace, SameNamespaceHitIsNotCross)
{
    const std::vector<rt::TokenHash> window = {9, 8, 7, 9, 8, 7};
    const core::HistorySnapshot snapshot = test::SnapshotOf(window);
    const rt::TokenHash ns = 0x42ull;
    core::MiningCache cache;
    const core::MiningCache::Key key = core::MiningCache::KeyOf(snapshot);
    core::MiningCache::Claim claim = cache.AcquireOrBegin(key, snapshot, ns);
    ASSERT_TRUE(claim.miner);
    cache.Publish(key, window, std::vector<core::CandidateTrace>{}, ns);
    claim = cache.AcquireOrBegin(key, snapshot, ns);
    ASSERT_NE(claim.results, nullptr);
    EXPECT_EQ(claim.owner, ns);
    const core::MiningCache::Stats stats = cache.Snapshot();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.cross_namespace_hits, 0u);
}

TEST(MiningCacheNamespace, EvictionsAreCounted)
{
    core::MiningCache cache(/*max_windows=*/2);
    for (std::uint64_t i = 0; i < 4; ++i) {
        const std::vector<rt::TokenHash> window = {i, i + 1, i, i + 1};
        const core::HistorySnapshot snapshot = test::SnapshotOf(window);
        const core::MiningCache::Key key =
            core::MiningCache::KeyOf(snapshot);
        const core::MiningCache::Claim claim =
            cache.AcquireOrBegin(key, snapshot, 0);
        ASSERT_TRUE(claim.miner);
        cache.Publish(key, window, std::vector<core::CandidateTrace>{},
                      0);
    }
    EXPECT_EQ(cache.Snapshot().evictions, 2u);
    EXPECT_EQ(cache.Size(), 2u);
}

// ---------------------------------------------------------------------------
// Single-tenant bit-identity against the direct harness.

core::ApopheniaConfig TestConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 10;
    config.batchsize = 1500;
    config.multi_scale_factor = 100;
    return config;
}

/** Drive one app through a single-tenant service and through the
 * direct harness with the same knobs; the issued stream and the
 * ingested candidate sets must agree bit for bit. */
template <typename App, typename Options>
void ExpectSingleTenantIdentity(const Options& app_options,
                                std::size_t iterations)
{
    sim::ExperimentOptions direct_options;
    direct_options.mode = sim::TracingMode::kAuto;
    direct_options.iterations = iterations;
    direct_options.machine = app_options.machine;
    direct_options.auto_config = TestConfig();
    App direct_app(app_options);
    const sim::ExperimentResult direct =
        sim::RunExperiment(direct_app, direct_options);
    ASSERT_NE(direct.stream_digest_ops, 0u);

    svc::ServiceOptions service_options;
    service_options.machine = app_options.machine;
    service_options.config = TestConfig();
    svc::TraceService service(service_options);
    App tenant_app(app_options);
    svc::TenantOptions tenant;
    tenant.name = std::string(tenant_app.Name());
    tenant.app = &tenant_app;
    tenant.iterations = iterations;
    service.AddTenant(tenant);
    EXPECT_EQ(service.TenantNamespace(0), 0u);
    const svc::ServiceResult result = service.Run();

    ASSERT_EQ(result.tenants.size(), 1u);
    const svc::TenantStats& stats = result.tenants[0];
    const sim::ExperimentResult& experiment = result.experiments[0];
    EXPECT_EQ(stats.stream_digest, direct.stream_digest);
    EXPECT_EQ(stats.stream_digest_ops, direct.stream_digest_ops);
    EXPECT_EQ(stats.candidate_digest, direct.candidate_digest);
    EXPECT_EQ(experiment.candidate_digest, direct.candidate_digest);
    EXPECT_EQ(experiment.total_tasks, direct.total_tasks);
    EXPECT_EQ(experiment.iterations_per_second,
              direct.iterations_per_second);
    EXPECT_EQ(experiment.makespan_us, direct.makespan_us);
    EXPECT_EQ(experiment.replayed_fraction, direct.replayed_fraction);
    EXPECT_EQ(experiment.apophenia_stats.trace_replays,
              direct.apophenia_stats.trace_replays);
    EXPECT_EQ(experiment.apophenia_stats.trace_records,
              direct.apophenia_stats.trace_records);
    EXPECT_EQ(experiment.apophenia_stats.candidates_ingested,
              direct.apophenia_stats.candidates_ingested);
    // Latency in a single-tenant closed loop is identically zero —
    // the tenant is granted the moment it becomes ready.
    EXPECT_EQ(stats.p50_issue_latency, 0.0);
    EXPECT_EQ(stats.p99_issue_latency, 0.0);
}

TEST(SingleTenantIdentity, S3d)
{
    apps::S3dOptions options;
    options.machine.nodes = 2;
    options.machine.gpus_per_node = 2;
    ExpectSingleTenantIdentity<apps::S3dApplication>(options, 15);
}

TEST(SingleTenantIdentity, Htr)
{
    apps::HtrOptions options;
    options.machine.nodes = 2;
    options.machine.gpus_per_node = 2;
    ExpectSingleTenantIdentity<apps::HtrApplication>(options, 15);
}

TEST(SingleTenantIdentity, Cfd)
{
    apps::CfdOptions options;
    options.machine.nodes = 1;
    options.machine.gpus_per_node = 4;
    ExpectSingleTenantIdentity<apps::CfdApplication>(options, 25);
}

TEST(SingleTenantIdentity, TorchSwe)
{
    apps::TorchSweOptions options;
    options.machine.nodes = 1;
    options.machine.gpus_per_node = 4;
    ExpectSingleTenantIdentity<apps::TorchSweApplication>(options, 15);
}

TEST(SingleTenantIdentity, FlexFlow)
{
    apps::FlexFlowOptions options;
    options.machine.nodes = 1;
    options.machine.gpus_per_node = 4;
    ExpectSingleTenantIdentity<apps::FlexFlowApplication>(options, 15);
}

/** Same check for the synthetic workload, which also pins that the
 * generator is deterministic for a fixed seed. */
TEST(SingleTenantIdentity, SyntheticWorkload)
{
    svc::SyntheticOptions options;
    options.machine.nodes = 1;
    options.machine.gpus_per_node = 4;
    options.seed = 3;
    ExpectSingleTenantIdentity<svc::SyntheticWorkload>(options, 20);
}

// ---------------------------------------------------------------------------
// Tenant isolation.

svc::SyntheticOptions Synthetic(std::uint64_t seed)
{
    svc::SyntheticOptions options;
    options.machine.nodes = 1;
    options.machine.gpus_per_node = 4;
    options.seed = seed;
    options.kernel_tasks = 32;
    return options;
}

TEST(TenantIsolation, TokenStreamsAreDisjoint)
{
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    svc::TraceService service(service_options);
    svc::SyntheticWorkload a(Synthetic(7));
    svc::SyntheticWorkload b(Synthetic(7));  // identical kernels...
    svc::TenantOptions ta;
    ta.name = "a";
    ta.app = &a;
    ta.iterations = 10;
    svc::TenantOptions tb = ta;
    tb.name = "b";
    tb.app = &b;
    service.AddTenant(ta);
    service.AddTenant(tb);
    EXPECT_EQ(service.TenantNamespace(0), 0u);
    EXPECT_NE(service.TenantNamespace(1), 0u);
    (void)service.Run();

    // ...yet the issued token streams never collide: the namespace
    // fold keeps tenant b's tokens disjoint from tenant a's.
    std::set<rt::TokenHash> tokens_a;
    const rt::OperationLog& log_a = service.TenantRuntime(0).Log();
    for (std::size_t i = 0; i < log_a.size(); ++i) {
        tokens_a.insert(log_a[i].token);
    }
    const rt::OperationLog& log_b = service.TenantRuntime(1).Log();
    for (std::size_t i = 0; i < log_b.size(); ++i) {
        EXPECT_EQ(tokens_a.count(log_b[i].token), 0u)
            << "tenant token collision at op " << i;
    }
}

TEST(TenantIsolation, TraceCacheEvictionsSurfacePerTenant)
{
    // Tenant 0 runs with an unbounded TraceCache in the direct
    // harness as the reference; the bounded service run must evict
    // and report it per tenant.
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    service_options.max_trace_templates = 1;
    svc::TraceService service(service_options);
    apps::CfdApplication app(apps::CfdOptions{});
    svc::TenantOptions tenant;
    tenant.name = "cfd";
    tenant.app = &app;
    tenant.iterations = 60;
    service.AddTenant(tenant);
    const svc::ServiceResult result = service.Run();
    EXPECT_EQ(result.tenants[0].trace_cache_evictions,
              result.experiments[0].runtime_stats.traces_evicted);
    EXPECT_EQ(result.tenants[0].trace_cache_evictions,
              result.experiments[0].trace_cache_evictions);
    EXPECT_GT(result.tenants[0].trace_cache_evictions, 0u);
}

TEST(TenantIsolation, HarnessSurfacesEvictions)
{
    // The same counter through the single-run harness (satellite:
    // ExperimentResult::trace_cache_evictions).
    sim::ExperimentOptions options;
    options.mode = sim::TracingMode::kAuto;
    options.iterations = 60;
    options.auto_config = TestConfig();
    options.max_trace_templates = 1;
    apps::CfdApplication bounded(apps::CfdOptions{});
    const sim::ExperimentResult with_bound =
        sim::RunExperiment(bounded, options);
    EXPECT_EQ(with_bound.trace_cache_evictions,
              with_bound.runtime_stats.traces_evicted);
    EXPECT_GT(with_bound.trace_cache_evictions, 0u);

    options.max_trace_templates = 0;
    apps::CfdApplication unbounded(apps::CfdOptions{});
    const sim::ExperimentResult without_bound =
        sim::RunExperiment(unbounded, options);
    EXPECT_EQ(without_bound.trace_cache_evictions, 0u);
}

// ---------------------------------------------------------------------------
// Cross-tenant mining dedup.

TEST(CrossTenantSharing, IdenticalTenantsMineEachWindowOnce)
{
    constexpr std::size_t kTenants = 4;
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    svc::TraceService service(service_options);
    std::vector<std::unique_ptr<svc::SyntheticWorkload>> apps;
    for (std::size_t t = 0; t < kTenants; ++t) {
        apps.push_back(
            std::make_unique<svc::SyntheticWorkload>(Synthetic(7)));
        svc::TenantOptions tenant;
        tenant.name = "t" + std::to_string(t);
        tenant.app = apps.back().get();
        tenant.iterations = 30;
        service.AddTenant(tenant);
    }
    const svc::ServiceResult result = service.Run();

    const core::MiningCache::Stats cache = result.mining_cache;
    ASSERT_GT(cache.hits + cache.misses, 0u);
    // Each distinct window was mined once service-wide...
    EXPECT_EQ(cache.misses, cache.windows);
    // ...and of all probes, >= (M-1)/M were served by another
    // tenant's published mining.
    const double want = static_cast<double>(kTenants - 1) /
                        static_cast<double>(kTenants);
    EXPECT_GE(result.cross_tenant_sharing, want - 1e-9);

    // Per-tenant accounting sums to the service-wide counters, and
    // identical tenants make identical replay decisions.
    std::uint64_t cross = 0;
    for (const svc::TenantStats& tenant : result.tenants) {
        cross += tenant.cross_tenant_mining_hits;
        EXPECT_EQ(tenant.iterations_completed, 30u);
        EXPECT_EQ(tenant.tokens_issued,
                  result.tenants[0].tokens_issued);
        EXPECT_EQ(tenant.trace_cache_hit_rate,
                  result.tenants[0].trace_cache_hit_rate);
    }
    EXPECT_EQ(cross, cache.cross_namespace_hits);
}

TEST(CrossTenantSharing, DisjointTenantsNeverCross)
{
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    svc::TraceService service(service_options);
    svc::SyntheticWorkload a(Synthetic(11));
    svc::SyntheticWorkload b(Synthetic(12));
    svc::TenantOptions ta;
    ta.name = "a";
    ta.app = &a;
    ta.iterations = 20;
    svc::TenantOptions tb = ta;
    tb.name = "b";
    tb.app = &b;
    service.AddTenant(ta);
    service.AddTenant(tb);
    const svc::ServiceResult result = service.Run();
    EXPECT_EQ(result.mining_cache.cross_namespace_hits, 0u);
    EXPECT_EQ(result.cross_tenant_sharing, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism and admission policies.

svc::ServiceResult RunThreeTenants(svc::AdmissionPolicy* policy,
                                   double weight0 = 1.0)
{
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    service_options.policy = policy;
    svc::TraceService service(service_options);
    svc::SyntheticWorkload a(Synthetic(21));
    svc::SyntheticWorkload b(Synthetic(22));
    svc::SyntheticWorkload c(Synthetic(23));
    svc::TenantOptions tenant;
    tenant.iterations = 16;
    tenant.name = "a";
    tenant.app = &a;
    tenant.weight = weight0;
    service.AddTenant(tenant);
    tenant.name = "b";
    tenant.app = &b;
    tenant.weight = 1.0;
    service.AddTenant(tenant);
    tenant.name = "c";
    tenant.app = &c;
    tenant.weight = 1.0;
    tenant.arrival_gap = 25;  // one open-loop tenant in the mix
    service.AddTenant(tenant);
    return service.Run();
}

TEST(ServiceDeterminism, FixedSeedAndPolicyReproduce)
{
    svc::RoundRobinPolicy rr1;
    svc::RoundRobinPolicy rr2;
    const svc::ServiceResult one = RunThreeTenants(&rr1);
    const svc::ServiceResult two = RunThreeTenants(&rr2);
    ASSERT_EQ(one.tenants.size(), two.tenants.size());
    EXPECT_EQ(one.virtual_time, two.virtual_time);
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
        EXPECT_EQ(one.tenants[t].stream_digest,
                  two.tenants[t].stream_digest);
        EXPECT_EQ(one.tenants[t].candidate_digest,
                  two.tenants[t].candidate_digest);
        EXPECT_EQ(one.tenants[t].p99_issue_latency,
                  two.tenants[t].p99_issue_latency);
    }

    svc::DeficitWeightedFairPolicy dwf1;
    svc::DeficitWeightedFairPolicy dwf2;
    const svc::ServiceResult three = RunThreeTenants(&dwf1);
    const svc::ServiceResult four = RunThreeTenants(&dwf2);
    EXPECT_EQ(three.virtual_time, four.virtual_time);
    for (std::size_t t = 0; t < three.tenants.size(); ++t) {
        EXPECT_EQ(three.tenants[t].stream_digest,
                  four.tenants[t].stream_digest);
        EXPECT_EQ(three.tenants[t].p99_issue_latency,
                  four.tenants[t].p99_issue_latency);
    }

    // The per-tenant *streams* are policy-independent (isolation);
    // only the latency profile moves with the interleave.
    for (std::size_t t = 0; t < one.tenants.size(); ++t) {
        EXPECT_EQ(one.tenants[t].stream_digest,
                  three.tenants[t].stream_digest);
        EXPECT_EQ(one.tenants[t].candidate_digest,
                  three.tenants[t].candidate_digest);
    }
}

TEST(AdmissionPolicy, DeficitWeightedFairHonorsWeights)
{
    // Two always-ready closed-loop tenants, weight 4 vs 1: the heavy
    // tenant is granted in deficit-sized bursts, so its worst-case
    // wait is one light-tenant burst while the light tenant's is one
    // heavy-tenant burst — p99 latency orders by the inverse weights.
    // (p50 is 0 for both: most grants in a burst are back-to-back,
    // and whichever tenant finishes last runs uncontended.)
    svc::DeficitWeightedFairPolicy policy(64);
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    service_options.policy = &policy;
    svc::TraceService service(service_options);
    svc::SyntheticWorkload heavy(Synthetic(31));
    svc::SyntheticWorkload light(Synthetic(32));
    svc::TenantOptions tenant;
    tenant.iterations = 24;
    tenant.name = "heavy";
    tenant.app = &heavy;
    tenant.weight = 4.0;
    service.AddTenant(tenant);
    tenant.name = "light";
    tenant.app = &light;
    tenant.weight = 1.0;
    service.AddTenant(tenant);
    const svc::ServiceResult result = service.Run();
    EXPECT_GT(result.tenants[1].p99_issue_latency, 0.0);
    EXPECT_LT(result.tenants[0].p99_issue_latency,
              result.tenants[1].p99_issue_latency);
}

// ---------------------------------------------------------------------------
// Mining on background threads (the TSan leg's target): every tenant's
// jobs run on one shared TaskTeam, racing on the shared cache; each
// tenant still ingests a job at the task that launched it, so the
// outcome must equal the inline service bit for bit.

TEST(ServiceConcurrency, PooledMiningMatchesInline)
{
    auto run = [](support::Executor* executor) {
        svc::ServiceOptions service_options;
        service_options.config = TestConfig();
        service_options.executor = executor;
        svc::TraceService service(service_options);
        std::vector<std::unique_ptr<svc::SyntheticWorkload>> apps;
        for (std::size_t t = 0; t < 3; ++t) {
            apps.push_back(
                std::make_unique<svc::SyntheticWorkload>(Synthetic(7)));
            svc::TenantOptions tenant;
            tenant.name = "t" + std::to_string(t);
            tenant.app = apps.back().get();
            tenant.iterations = 20;
            service.AddTenant(tenant);
        }
        return service.Run();
    };

    const svc::ServiceResult inline_run = run(nullptr);
    support::TaskTeam team(4);
    const svc::ServiceResult pooled_run = run(&team);
    ASSERT_EQ(pooled_run.tenants.size(), inline_run.tenants.size());
    for (std::size_t t = 0; t < inline_run.tenants.size(); ++t) {
        EXPECT_EQ(pooled_run.tenants[t].stream_digest,
                  inline_run.tenants[t].stream_digest);
        EXPECT_EQ(pooled_run.tenants[t].stream_digest_ops,
                  inline_run.tenants[t].stream_digest_ops);
        EXPECT_EQ(pooled_run.tenants[t].candidate_digest,
                  inline_run.tenants[t].candidate_digest);
    }
    EXPECT_EQ(pooled_run.mining_cache.windows,
              inline_run.mining_cache.windows);
}

// ---------------------------------------------------------------------------
// Open-loop latency accounting.

TEST(OpenLoop, QueueingShowsUpInLatency)
{
    svc::ServiceOptions service_options;
    service_options.config = TestConfig();
    svc::TraceService service(service_options);
    // A busy closed-loop tenant plus an open-loop tenant arriving
    // faster than the service can serve both: the open-loop tenant
    // must queue, and its measured latency must be nonzero.
    svc::SyntheticWorkload busy(Synthetic(41));
    svc::SyntheticWorkload open(Synthetic(42));
    svc::TenantOptions tenant;
    tenant.name = "busy";
    tenant.app = &busy;
    tenant.iterations = 20;
    service.AddTenant(tenant);
    tenant.name = "open";
    tenant.app = &open;
    tenant.iterations = 20;
    tenant.arrival_gap = 5;  // far below the per-iteration task cost
    service.AddTenant(tenant);
    const svc::ServiceResult result = service.Run();
    EXPECT_EQ(result.tenants[1].iterations_completed, 20u);
    EXPECT_GT(result.tenants[1].p99_issue_latency, 0.0);
    EXPECT_GE(result.tenants[1].p99_issue_latency,
              result.tenants[1].p50_issue_latency);
}

}  // namespace
}  // namespace apo
