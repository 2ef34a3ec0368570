/**
 * @file
 * svc::TraceService — the multi-tenant trace-finding service: many
 * applications, one finder service (ROADMAP item 2).
 *
 * Every experiment below this layer runs one application per finder.
 * The service flips that axis: M concurrent tenant streams (any mix
 * of the app skeletons and the seeded open-loop SyntheticWorkload)
 * are multiplexed through one service instance. Isolation and
 * sharing are split exactly where the paper's economics point:
 *
 *  - **Isolated per tenant** — the token namespace (a per-tenant salt
 *    folded into every launch token at the LaunchBuilder boundary /
 *    tenant session; see rt::FoldNamespace), the candidate trie, the
 *    pending buffer, the runtime with its LRU TraceCache, and the
 *    stream digest. No tenant's candidates can match — or perturb
 *    decisions about — another tenant's stream, so an M-tenant
 *    interleaved run is bit-identical per tenant to M independent
 *    runs (pinned by the differential-fuzz leg).
 *
 *  - **Shared across tenants** — the content-addressed
 *    core::MiningCache backing store. Mining is the dominant cost; a
 *    window is keyed by its *namespace-relative* content, so two
 *    tenants running the same kernel mine it once service-wide and
 *    the second adopts the first's published candidates (re-keyed
 *    into its own namespace on their way into its trie). Cross-tenant
 *    hits are counted per tenant and service-wide. With sharing off
 *    each tenant's finder keeps a private memo instead.
 *
 * Each tenant is one sim::ExperimentStack, the harness's kAuto stack.
 * It may be control-replicated (TenantOptions::replicas > 1): its
 * stream then runs on N simulated nodes behind one sim::Cluster, and
 * one per-tenant shared core::DecisionEngine makes every trace
 * decision once for all of the tenant's replicas — so a tenant pays
 * mining/matching O(1) in its own width, while its replicated stack
 * still probes the service-wide mining cache for cross-tenant dedup.
 *
 * Interleaving is decided by a pluggable AdmissionPolicy at the issue
 * surface (round-robin and deficit-weighted fair round-robin ship);
 * the schedulable quantum is one application iteration. Virtual time
 * is the count of tasks issued service-wide; open-loop tenants'
 * iterations *arrive* on their own virtual-time schedule and queue,
 * so per-tenant issue latency (grant time minus arrival time, in
 * virtual ticks) measures contention. Everything is deterministic
 * for a fixed tenant set, seed and policy.
 */
#ifndef APOPHENIA_SVC_SERVICE_H
#define APOPHENIA_SVC_SERVICE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "apps/app.h"
#include "core/apophenia.h"
#include "core/mining_cache.h"
#include "runtime/errors.h"
#include "runtime/runtime.h"
#include "sim/harness.h"
#include "support/hash.h"

namespace apo::svc {

/** Misuse of the service interface — incoherent tenant/overload
 * configurations, rejected up front with a typed error (mirroring
 * rt::RuntimeUsageError, and derived from it so existing catch sites
 * keep working). */
class ServiceUsageError : public rt::RuntimeUsageError {
  public:
    using rt::RuntimeUsageError::RuntimeUsageError;
};

/**
 * What a tenant does when its admission queue (arrived, not yet
 * granted open-loop iterations) exceeds TenantOptions::
 * max_queue_iterations. Tracing is an optimization, so under overload
 * the service can trade trace quality for liveness instead of
 * queueing without bound.
 */
enum class OverloadPolicy : std::uint8_t {
    /** Closed-loop backpressure (the pre-overload behaviour): excess
     * arrivals simply queue and issue latency grows. */
    kBlock,
    /** Drop arrivals past the bound — the shed request is never
     * issued (its iteration payload is skipped) and is counted in
     * TenantStats::iterations_shed. */
    kShed,
    /** Admit everything but issue backlogged windows *untraced* (no
     * mining, no matching, no replay — core::Apophenia::SetDegraded),
     * re-enabling tracing with hysteresis once the backlog drains to
     * TenantOptions::degrade_resume_iterations. Degraded windows'
     * tokens never enter the trie or the mining memo, so re-enable is
     * bit-safe. */
    kDegrade,
};

/** One tenant of the service. */
struct TenantOptions {
    std::string name = "tenant";
    /** The tenant's workload; borrowed, must outlive the service.
     * Each tenant needs its own Application instance (applications
     * hold per-run region state). */
    apps::Application* app = nullptr;
    /** Main-loop iterations the tenant runs. */
    std::size_t iterations = 30;
    /** Deficit-weighted-fair share (ignored by round-robin). */
    double weight = 1.0;
    /** Open-loop arrival model: iteration k arrives at virtual time
     * k * arrival_gap (service virtual time = tasks issued
     * service-wide) and queues until granted. 0 = closed loop: the
     * next iteration arrives when the previous one completes. */
    std::uint64_t arrival_gap = 0;
    /** Control replication within the tenant: >1 runs the tenant's
     * stream on this many simulated nodes behind one sim::Cluster,
     * and one shared decision engine drives all of the tenant's
     * replicas — the tenant pays mining/matching once no matter how
     * wide it is. The replicated stack still probes the service-wide
     * mining cache (through ClusterOptions::external_mining_cache),
     * so cross-tenant dedup composes with replication. 1 = the plain
     * single-runtime stack. */
    std::size_t replicas = 1;
    /** Explicit token namespace; defaults to
     * TraceService::DefaultNamespace(tenant index). The differential
     * fuzz leg pins that per-tenant behaviour is independent of the
     * salt value. */
    std::optional<rt::TokenHash> name_space;

    // -- Overload control ---------------------------------------------------

    /** Admission bound: the maximum backlog (arrived, not yet granted
     * or shed iterations) before `overload_policy` acts. 0 =
     * unbounded, legal only with kBlock. */
    std::size_t max_queue_iterations = 0;
    OverloadPolicy overload_policy = OverloadPolicy::kBlock;
    /** kDegrade hysteresis low watermark: tracing re-enables once the
     * backlog has drained to at most this many iterations. Must be
     * below max_queue_iterations (equal would re-enter degrade on the
     * very next arrival — thrashing the drain). */
    std::size_t degrade_resume_iterations = 0;
};

/** Pluggable admission policy: which ready tenant is granted the
 * next iteration. Implementations must be deterministic — the
 * interleaved stream (and therefore every digest) is a pure function
 * of (tenants, policy, seeds). */
class AdmissionPolicy {
  public:
    virtual ~AdmissionPolicy() = default;

    virtual std::string_view Name() const = 0;

    /** Called once before the run with every tenant's options. */
    virtual void Reset(const std::vector<TenantOptions>& tenants) = 0;

    /** Pick one of `ready` (ascending tenant indices, never empty). */
    virtual std::size_t Pick(const std::vector<std::size_t>& ready) = 0;

    /** Account the granted iteration's cost (tasks issued; >= 1). */
    virtual void Charge(std::size_t tenant, std::uint64_t tasks) = 0;
};

/** Cyclic round-robin over the ready tenants: equal turn counts,
 * regardless of per-iteration cost. */
class RoundRobinPolicy final : public AdmissionPolicy {
  public:
    std::string_view Name() const override { return "round-robin"; }
    void Reset(const std::vector<TenantOptions>&) override;
    std::size_t Pick(const std::vector<std::size_t>& ready) override;
    void Charge(std::size_t, std::uint64_t) override {}

  private:
    std::size_t cursor_ = 0;  ///< last granted tenant + 1
};

/** Deficit round-robin (Shreedhar & Varghese) with per-tenant
 * weights: each tenant accumulates quantum × weight of task credit
 * per refill and spends it on granted iterations, so long-run issued
 * task shares converge to the weights even when tenants' iterations
 * cost very different task counts. */
class DeficitWeightedFairPolicy final : public AdmissionPolicy {
  public:
    /** @param quantum task credit per refill for weight 1.0. */
    explicit DeficitWeightedFairPolicy(std::uint64_t quantum = 64)
        : quantum_(quantum)
    {
    }

    std::string_view Name() const override
    {
        return "deficit-weighted-fair";
    }
    void Reset(const std::vector<TenantOptions>& tenants) override;
    std::size_t Pick(const std::vector<std::size_t>& ready) override;
    void Charge(std::size_t tenant, std::uint64_t tasks) override;

  private:
    std::uint64_t quantum_;
    std::vector<double> weights_;
    std::vector<double> deficit_;
    std::size_t cursor_ = 0;
};

/**
 * Fixed-capacity percentile reservoir for latency samples. Below
 * capacity it stores every sample (so short runs report *exact*
 * percentiles — identical to the unbounded vectors it replaced);
 * past capacity it switches to Vitter's Algorithm R with a
 * deterministic SplitMix64 index stream, so an hours-long open-loop
 * run holds a memory plateau: after construction, Add() never
 * allocates (pinned by a counting-allocator test). Deterministic —
 * the k'th call with the same samples leaves identical state.
 */
class LatencyReservoir {
  public:
    explicit LatencyReservoir(std::size_t capacity = 1024)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
        samples_.reserve(capacity_);
    }

    void Add(std::uint64_t sample)
    {
        ++count_;
        if (samples_.size() < capacity_) {
            samples_.push_back(sample);
            return;
        }
        // Algorithm R: sample n replaces a resident slot with
        // probability capacity/n, uniformly — under a deterministic
        // hash of the sample index.
        const std::uint64_t slot =
            support::SplitMix64(count_ ^ 0x1a7ebc5d00c5ed1eULL) % count_;
        if (slot < capacity_) {
            samples_[static_cast<std::size_t>(slot)] = sample;
        }
    }

    /** Samples ever offered (not the resident count). */
    std::uint64_t Count() const { return count_; }

    /** q'th percentile over the resident samples (exact while count
     * <= capacity; a uniform-sample estimate beyond). */
    double Percentile(double q) const;

  private:
    std::size_t capacity_;
    std::vector<std::uint64_t> samples_;
    std::uint64_t count_ = 0;
};

/** Service construction parameters. Runtime/pipeline knobs mirror
 * sim::ExperimentOptions so a single-tenant service run is
 * configured — and behaves — exactly like the direct harness. */
struct ServiceOptions {
    core::ApopheniaConfig config;  ///< per-tenant finder tuning
    rt::CostModel costs;
    apps::MachineConfig machine;
    rt::MismatchPolicy mismatch_policy = rt::MismatchPolicy::kThrow;
    /** Per-tenant TraceCache retention bound (0 = unlimited);
     * evictions surface in TenantStats::trace_cache_evictions. */
    std::size_t max_trace_templates = 0;
    rt::OperationLog::Config log_config;
    /** Share one content-addressed MiningCache (the default
     * core::MiningCache window bound) across all tenants' finders (the
     * cross-tenant dedup substrate). Off = per-tenant mining, no
     * sharing — the isolation baseline. */
    bool share_mining_cache = true;
    /** Coordination tuning of replicated tenants (`nodes` comes from
     * TenantOptions::replicas). */
    sim::CoordinationOptions replication;
    /** Admission policy; borrowed. nullptr = internal round-robin. */
    AdmissionPolicy* policy = nullptr;
    /** Executor of every unreplicated tenant's mining jobs (the TSan
     * leg drives cross-tenant cache traffic through a thread pool
     * here); borrowed, must outlive the service. nullptr = inline
     * mining. Behaviour-invariant: each tenant ingests a job at the
     * task that launched it, running it there if no worker has. */
    support::Executor* executor = nullptr;

    // -- Overload control / health monitor ----------------------------------

    /** Operation-log mode of every tenant: sim::LogMode::kStreaming
     * retires each tenant's log (every node's, when replicated)
     * through an incremental pipeline simulator + digest, so resident
     * memory stays bounded on unbounded streams — the sustained-driver
     * mode. */
    sim::LogMode log_mode = sim::LogMode::kRetained;
    /** Health monitor: service-wide resident-byte high watermark
     * (the shared MiningCache + each tenant's
     * sim::ExperimentStack::ResidentBytes: oplogs and TraceCaches,
     * decision runtimes included, and its private mining memo),
     * sampled every granted iteration; 0 = monitoring off. A breach
     * evicts mining-memo entries and LRU trace templates toward
     * `memory_low_watermark_bytes` and force-degrades every kDegrade
     * tenant until resident bytes drop below the low watermark. */
    std::size_t memory_high_watermark_bytes = 0;
    /** Hysteresis low watermark; 0 = half the high watermark. */
    std::size_t memory_low_watermark_bytes = 0;
    /** Virtual-time cost of a degraded task relative to a traced-path
     * task: the degraded path skips mining, matching and replay
     * bookkeeping, so a degraded iteration advances the service clock
     * by ceil(tasks × this) instead of tasks — which is exactly how
     * degrading raises the service's throughput ceiling under
     * overload. 1.0 = no capacity gain. */
    double degraded_task_cost = 0.5;
};

/** Per-tenant accounting of one service run. */
struct TenantStats {
    std::string name;
    rt::TokenHash name_space = 0;
    std::size_t iterations_completed = 0;
    /** Launches issued through the tenant's session. */
    std::uint64_t tokens_issued = 0;
    /** Tasks whose analysis was replayed from the tenant's
     * TraceCache. */
    std::uint64_t tokens_replayed = 0;
    /** Of the tenant's trace fires, the fraction served by an
     * existing template (replay) rather than a fresh recording. */
    double trace_cache_hit_rate = 0.0;
    /** LRU evictions from the tenant's TraceCache (cache pressure;
     * nonzero only under rt::RuntimeOptions::max_trace_templates). */
    std::uint64_t trace_cache_evictions = 0;
    /** This tenant's mining jobs served by the shared cache, and the
     * subset published by a *different* tenant. */
    std::uint64_t mining_cache_hits = 0;
    std::uint64_t cross_tenant_mining_hits = 0;
    /** Issue latency (virtual ticks between an iteration's arrival
     * and its grant) percentiles over the tenant's iterations. */
    double p50_issue_latency = 0.0;
    double p99_issue_latency = 0.0;
    /** Wall-clock per-iteration service time (µs from grant to the
     * iteration's return, steady-clock) percentiles — the real-time
     * companion of the virtual-tick quantiles above, and the first
     * slice of the sustained-rate driver (ROADMAP item 3). */
    double p50_issue_wall_us = 0.0;
    double p99_issue_wall_us = 0.0;
    /** The tenant's stream identity (digest of its own runtime's
     * issued operation stream). */
    std::uint64_t stream_digest = 0;
    std::uint64_t stream_digest_ops = 0;
    /** Digest of the candidate sets the tenant's finder ingested. */
    std::uint64_t candidate_digest = 0;

    // -- Overload accounting -------------------------------------------------

    /** kShed: arrivals dropped past the admission bound (their
     * iteration payloads were never issued). */
    std::uint64_t iterations_shed = 0;
    /** kDegrade: iterations granted while the tenant was degraded
     * (issued untraced). */
    std::uint64_t iterations_degraded = 0;
    /** Distinct entries into the degraded posture (each exit went
     * through the hysteresis low watermark). */
    std::uint64_t degrade_windows = 0;
    /** Tasks issued on the engine's degraded path
     * (core::ApopheniaStats::tasks_degraded). */
    std::uint64_t tokens_degraded = 0;
    /** Peak backlog (arrived, ungranted iterations) ever observed —
     * kBlock's unbounded growth vs kShed/kDegrade's bound, in one
     * number. */
    std::uint64_t max_backlog = 0;
};

/** Service-level health-monitor accounting of one run (all zero with
 * monitoring off, i.e. no watermark). */
struct HealthStats {
    /** Resident-byte samples taken (one per granted iteration). */
    std::uint64_t samples = 0;
    /** Peak sampled resident bytes (tenant oplogs + trace caches,
     * decision runtimes included, + the shared mining cache + private
     * mining memos). */
    std::size_t peak_resident_bytes = 0;
    /** High-watermark breaches. */
    std::uint64_t pressure_events = 0;
    /** Trace templates / mining-memo entries evicted by pressure. */
    std::uint64_t pressure_trace_evictions = 0;
    std::uint64_t pressure_cache_evictions = 0;
    /** kDegrade tenants force-degraded by memory pressure. */
    std::uint64_t forced_degrades = 0;
};

/** Everything a bench reports about one service run. */
struct ServiceResult {
    std::string policy;
    std::vector<TenantStats> tenants;
    /** Full per-tenant harness results (pipeline-simulated on the
     * tenant's own log; TenantStats threads through/extends these). */
    std::vector<sim::ExperimentResult> experiments;
    core::MiningCache::Stats mining_cache;
    /** Cross-tenant sharing ratio: fraction of all shared-cache
     * probes served by another tenant's published mining. */
    double cross_tenant_sharing = 0.0;
    /** Final virtual time (tasks issued service-wide, plus idle
     * jumps to open-loop arrivals). */
    std::uint64_t virtual_time = 0;
    /** Health-monitor accounting (see HealthStats). */
    HealthStats health;
};

/** See file comment. */
class TraceService {
  public:
    explicit TraceService(ServiceOptions options);
    ~TraceService();

    TraceService(const TraceService&) = delete;
    TraceService& operator=(const TraceService&) = delete;

    /** Default token namespace of tenant `index`: 0 for the first
     * tenant (a single-tenant service is bit-identical to the direct
     * harness), a seeded 64-bit salt for the rest. */
    static rt::TokenHash DefaultNamespace(std::size_t index);

    /** Register a tenant (builds its sim::ExperimentStack wired to
     * the shared cache). @return the tenant's index. */
    std::size_t AddTenant(TenantOptions tenant);

    std::size_t Tenants() const { return tenants_.size(); }

    /** The tenant's issue surface: every launch token is folded into
     * the tenant's namespace here. Tests (the differential fuzz leg)
     * drive this directly; Run() drives it through the policy. */
    api::Frontend& Session(std::size_t tenant);

    /** The tenant's decision engine: the single-stack Apophenia, or —
     * replicated — the cluster's shared decider. */
    const core::Apophenia& TenantEngine(std::size_t tenant) const;
    /** The tenant's runtime (replica 0's when replicated). */
    const rt::Runtime& TenantRuntime(std::size_t tenant) const;
    rt::TokenHash TenantNamespace(std::size_t tenant) const;
    /** The tenant's replication cluster; nullptr when the tenant is
     * unreplicated (TenantOptions::replicas == 1). */
    const sim::Cluster* TenantCluster(std::size_t tenant) const;

    /** The service-wide mining cache every sharing tenant probes. */
    const core::MiningCache& SharedCache() const { return *cache_; }

    /** Drive every tenant's application to completion under the
     * admission policy and assemble the per-tenant results. */
    ServiceResult Run();

  private:
    struct Tenant;

    /** Typed up-front rejection of incoherent tenant/overload
     * configurations (see ServiceUsageError). */
    void ValidateForRun() const;
    void ApplyOverloadControl(Tenant& tenant, std::uint64_t clock);
    void RunHealthMonitor();
    ServiceResult AssembleResults(std::uint64_t virtual_time);

    ServiceOptions options_;
    RoundRobinPolicy default_policy_;
    std::unique_ptr<core::MiningCache> cache_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    HealthStats health_;
};

}  // namespace apo::svc

#endif  // APOPHENIA_SVC_SERVICE_H
