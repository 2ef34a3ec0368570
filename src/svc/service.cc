#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "runtime/errors.h"
#include "support/hash.h"

namespace apo::svc {

/**
 * The tenant's issue surface: a thin api::Frontend that folds the
 * tenant's token namespace into every launch token before handing it
 * to the front end of the tenant's sim::ExperimentStack. The fold is
 * a single XOR on the boundary-computed hash (see rt::FoldNamespace)
 * — namespace 0 (the first tenant, and every single-tenant service)
 * forwards tokens untouched, which is what makes a single-tenant
 * service run bit-identical to the direct harness.
 */
class TenantSession final : public api::Frontend {
  public:
    TenantSession(api::Frontend& inner, rt::TokenHash name_space)
        : inner_(&inner), namespace_(name_space)
    {
    }

    std::string_view Name() const override { return "svc-session"; }
    rt::RegionId CreateRegion() override { return inner_->CreateRegion(); }
    void DestroyRegion(rt::RegionId r) override
    {
        inner_->DestroyRegion(r);
    }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        return inner_->PartitionRegion(parent, count);
    }

  protected:
    void DoExecuteTask(const rt::TaskLaunchView& launch) override
    {
        if (namespace_ == 0) {
            inner_->ExecuteTask(launch);
            return;
        }
        rt::TaskLaunchView salted = launch;
        salted.token = rt::FoldNamespace(namespace_, launch.token);
        inner_->ExecuteTask(salted);
    }

    /** The tenant engine (Apophenia) does its own tracing; manual
     * annotations are forwarded for uniform accounting but reported
     * as dropped at this surface. */
    bool DoBeginTrace(rt::TraceId id) override
    {
        inner_->BeginTrace(id);
        return false;
    }
    bool DoEndTrace(rt::TraceId id) override
    {
        inner_->EndTrace(id);
        return false;
    }
    void DoFlush() override { inner_->Flush(); }

  private:
    api::Frontend* inner_;
    rt::TokenHash namespace_;
};

/** One tenant: its experiment stack behind its session, plus its
 * run-loop state. */
struct TraceService::Tenant {
    TenantOptions options;
    rt::TokenHash name_space = 0;
    sim::ExperimentStack stack;
    TenantSession session;

    /** Issued-task count at the end of each completed iteration. */
    std::vector<std::size_t> boundaries;
    /** Issue-latency (virtual ticks) and wall-clock service-time
     * (nanoseconds, grant → iteration return) reservoirs of the
     * default capacity: fixed memory however long the run (see
     * LatencyReservoir). */
    LatencyReservoir latencies;
    LatencyReservoir wall_ns;
    std::size_t completed = 0;
    /** Overload accounting (see OverloadPolicy / TenantStats). */
    std::uint64_t shed = 0;
    std::uint64_t degraded_iterations = 0;
    std::uint64_t degrade_windows = 0;
    std::uint64_t max_backlog = 0;
    /** Health monitor's force-degrade latch: set on a high-watermark
     * breach, cleared once resident bytes drain below the low
     * watermark (OR'd with the backlog hysteresis). */
    bool memory_degraded = false;
    /** Closed loop: virtual time the next iteration became ready. */
    std::uint64_t ready_since = 0;
    /** Open loop: virtual time of iteration 0's arrival. */
    std::uint64_t arrival_base = 0;

    Tenant(TenantOptions tenant_options, rt::TokenHash tenant_namespace,
           const sim::ExperimentOptions& experiment,
           core::MiningCache* mining_cache)
        : options(std::move(tenant_options)),
          name_space(tenant_namespace),
          stack(experiment, mining_cache),
          session(stack.Front(), tenant_namespace)
    {
    }

    /** Arrivals consumed: granted iterations plus shed ones (a shed
     * request's payload is skipped, not deferred). */
    std::uint64_t Consumed() const
    {
        return static_cast<std::uint64_t>(completed) + shed;
    }

    bool Finished() const
    {
        return Consumed() >= options.iterations;
    }

    /** Arrival time of the next (not-yet-consumed) iteration. */
    std::uint64_t NextArrival() const
    {
        return options.arrival_gap == 0
                   ? ready_since
                   : arrival_base + options.arrival_gap * Consumed();
    }

    /** Backlog at `clock`: iterations that have arrived and are
     * neither granted nor shed. A closed-loop tenant queues at most
     * one. */
    std::uint64_t Backlog(std::uint64_t clock) const
    {
        if (Finished()) {
            return 0;
        }
        if (options.arrival_gap == 0) {
            return ready_since <= clock ? 1 : 0;
        }
        if (clock < arrival_base) {
            return 0;
        }
        std::uint64_t arrived =
            (clock - arrival_base) / options.arrival_gap + 1;
        arrived = std::min<std::uint64_t>(
            arrived, static_cast<std::uint64_t>(options.iterations));
        const std::uint64_t done = Consumed();
        return arrived > done ? arrived - done : 0;
    }
};

// -- Policies ---------------------------------------------------------------

void
RoundRobinPolicy::Reset(const std::vector<TenantOptions>&)
{
    cursor_ = 0;
}

std::size_t
RoundRobinPolicy::Pick(const std::vector<std::size_t>& ready)
{
    // First ready tenant at or after the cursor, cyclically.
    for (const std::size_t t : ready) {
        if (t >= cursor_) {
            cursor_ = t + 1;
            return t;
        }
    }
    cursor_ = ready.front() + 1;
    return ready.front();
}

void
DeficitWeightedFairPolicy::Reset(const std::vector<TenantOptions>& tenants)
{
    weights_.clear();
    deficit_.clear();
    for (const TenantOptions& tenant : tenants) {
        weights_.push_back(std::max(tenant.weight, 1e-6));
        deficit_.push_back(0.0);
    }
    cursor_ = 0;
}

std::size_t
DeficitWeightedFairPolicy::Pick(const std::vector<std::size_t>& ready)
{
    for (;;) {
        // Cyclic scan from the cursor for a ready tenant with credit.
        // The cursor does not advance on a grant — a tenant is served
        // until its deficit is spent (see Charge), which is what lets
        // task shares track weights across differently-sized
        // iterations.
        std::size_t begin = 0;
        while (begin < ready.size() && ready[begin] < cursor_) {
            ++begin;
        }
        for (std::size_t i = 0; i < ready.size(); ++i) {
            const std::size_t t =
                ready[(begin + i) % ready.size()];
            if (deficit_[t] > 0.0) {
                cursor_ = t;
                return t;
            }
        }
        // Everyone ready is out of credit: refill proportionally to
        // the weights and scan again (terminates — each refill adds
        // at least quantum × min-weight of credit).
        for (const std::size_t t : ready) {
            deficit_[t] += static_cast<double>(quantum_) * weights_[t];
        }
    }
}

void
DeficitWeightedFairPolicy::Charge(std::size_t tenant, std::uint64_t tasks)
{
    deficit_[tenant] -= static_cast<double>(tasks);
    if (deficit_[tenant] <= 0.0) {
        cursor_ = tenant + 1;  // spent: move on next Pick
    }
}

// -- TraceService -----------------------------------------------------------

TraceService::TraceService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(std::make_unique<core::MiningCache>())
{
}

TraceService::~TraceService() = default;

rt::TokenHash
TraceService::DefaultNamespace(std::size_t index)
{
    if (index == 0) {
        return 0;  // bit-identical to the un-namespaced direct stack
    }
    const rt::TokenHash salt = support::SplitMix64(
        support::HashCombine(0x7e4a47ULL, index));
    return salt == 0 ? 0x7e4a47ULL : salt;
}

std::size_t
TraceService::AddTenant(TenantOptions tenant)
{
    const rt::TokenHash name_space =
        tenant.name_space.value_or(DefaultNamespace(tenants_.size()));
    // A tenant is the harness's kAuto stack, replicated or not, over
    // the service-wide mining cache (a replicated tenant's shared
    // decider probes it, so cross-tenant dedup composes with
    // replication).
    sim::ExperimentOptions experiment;
    experiment.mode = sim::TracingMode::kAuto;
    experiment.costs = options_.costs;
    experiment.auto_config = options_.config;
    experiment.auto_config.cache_namespace = name_space;
    experiment.executor = options_.executor;
    experiment.mismatch_policy = options_.mismatch_policy;
    experiment.max_trace_templates = options_.max_trace_templates;
    experiment.log_mode = options_.log_mode;
    experiment.log_config = options_.log_config;
    experiment.machine = options_.machine;
    experiment.replicas = tenant.replicas;
    experiment.replication = options_.replication;
    tenants_.push_back(std::make_unique<Tenant>(
        std::move(tenant), name_space, experiment,
        options_.share_mining_cache ? cache_.get() : nullptr));
    return tenants_.size() - 1;
}

api::Frontend&
TraceService::Session(std::size_t tenant)
{
    return tenants_.at(tenant)->session;
}

const core::Apophenia&
TraceService::TenantEngine(std::size_t tenant) const
{
    return *tenants_.at(tenant)->stack.Engine();
}

const rt::Runtime&
TraceService::TenantRuntime(std::size_t tenant) const
{
    return tenants_.at(tenant)->stack.ObservedRuntime();
}

const sim::Cluster*
TraceService::TenantCluster(std::size_t tenant) const
{
    return tenants_.at(tenant)->stack.ReplicaCluster();
}

rt::TokenHash
TraceService::TenantNamespace(std::size_t tenant) const
{
    return tenants_.at(tenant)->name_space;
}

void
TraceService::ValidateForRun() const
{
    if (tenants_.empty()) {
        throw ServiceUsageError(
            "TraceService::Run: no tenants registered");
    }
    for (const auto& tenant : tenants_) {
        const TenantOptions& opt = tenant->options;
        if (opt.app == nullptr) {
            throw ServiceUsageError(
                "TraceService::Run: tenant '" + opt.name +
                "' has no application (TenantOptions::app)");
        }
        if (opt.overload_policy != OverloadPolicy::kBlock) {
            if (opt.arrival_gap == 0) {
                throw ServiceUsageError(
                    "TraceService::Run: tenant '" + opt.name +
                    "': OverloadPolicy::kShed/kDegrade needs an "
                    "open-loop arrival model (arrival_gap > 0) — a "
                    "closed-loop tenant never queues more than one "
                    "iteration, so there is nothing to shed or "
                    "degrade");
            }
            if (opt.max_queue_iterations == 0) {
                throw ServiceUsageError(
                    "TraceService::Run: tenant '" + opt.name +
                    "': OverloadPolicy::kShed/kDegrade needs an "
                    "admission bound (max_queue_iterations > 0); 0 "
                    "means unbounded, which only OverloadPolicy::"
                    "kBlock accepts");
            }
        }
        if (opt.overload_policy == OverloadPolicy::kDegrade) {
            if (opt.replicas > 1) {
                throw ServiceUsageError(
                    "TraceService::Run: tenant '" + opt.name +
                    "': OverloadPolicy::kDegrade is incompatible with "
                    "replicated tenants (the degrade switch drives "
                    "the tenant's single decision engine)");
            }
            if (opt.degrade_resume_iterations >=
                opt.max_queue_iterations) {
                throw ServiceUsageError(
                    "TraceService::Run: tenant '" + opt.name +
                    "': degrade_resume_iterations (" +
                    std::to_string(opt.degrade_resume_iterations) +
                    ") must be below max_queue_iterations (" +
                    std::to_string(opt.max_queue_iterations) +
                    ") — an equal watermark re-enters degrade on the "
                    "very next arrival");
            }
        }
    }
}

void
TraceService::ApplyOverloadControl(Tenant& tenant, std::uint64_t clock)
{
    const TenantOptions& opt = tenant.options;
    if (opt.overload_policy == OverloadPolicy::kShed &&
        !tenant.Finished()) {
        bool any = false;
        while (!tenant.Finished() &&
               tenant.Backlog(clock) > opt.max_queue_iterations) {
            // Drop the oldest queued arrival: its iteration payload
            // is skipped, never deferred (Consumed() advances).
            tenant.shed += 1;
            any = true;
        }
        if (any && tenant.Finished()) {
            // Shedding consumed the tenant's final arrivals — the
            // grant path will never run again for it, so drain here
            // (the same tenant-local end-of-stream Flush).
            tenant.session.Flush();
        }
    }
    core::Apophenia* engine = tenant.stack.SingleEngine();
    if (opt.overload_policy == OverloadPolicy::kDegrade &&
        engine != nullptr) {
        const std::uint64_t backlog = tenant.Backlog(clock);
        bool want = engine->Degraded();
        if (want) {
            // Hysteresis: stay degraded until the backlog has drained
            // to the low watermark, not merely below the bound.
            if (backlog <= opt.degrade_resume_iterations) {
                want = false;
            }
        } else if (backlog > opt.max_queue_iterations) {
            want = true;
        }
        if (tenant.memory_degraded) {
            want = true;  // health monitor's force-degrade latch
        }
        if (want && !engine->Degraded()) {
            tenant.degrade_windows += 1;
        }
        engine->SetDegraded(want);
    }
}

void
TraceService::RunHealthMonitor()
{
    if (options_.memory_high_watermark_bytes == 0) {
        return;
    }
    health_.samples += 1;
    std::size_t resident = cache_->ResidentBytes();
    for (const auto& tenant : tenants_) {
        resident += tenant->stack.ResidentBytes();
    }
    health_.peak_resident_bytes =
        std::max(health_.peak_resident_bytes, resident);
    const std::size_t high = options_.memory_high_watermark_bytes;
    const std::size_t low = options_.memory_low_watermark_bytes != 0
                                ? options_.memory_low_watermark_bytes
                                : high / 2;
    if (resident > high) {
        health_.pressure_events += 1;
        // Shed reconstructible state first (evicted mining windows
        // re-mine, evicted templates re-record), then force the
        // kDegrade tenants off the state-accreting traced path until
        // resident bytes drain below the low watermark.
        health_.pressure_cache_evictions +=
            cache_->EvictToResidentBytes(cache_->ResidentBytes() / 2);
        for (const auto& tenant : tenants_) {
            if (core::MiningCache* memo = tenant->stack.PrivateMemo()) {
                health_.pressure_cache_evictions +=
                    memo->EvictToResidentBytes(memo->ResidentBytes() / 2);
            }
            health_.pressure_trace_evictions +=
                tenant->stack.PressureEvictTraces();
            if (tenant->options.overload_policy ==
                    OverloadPolicy::kDegrade &&
                !tenant->memory_degraded) {
                tenant->memory_degraded = true;
                health_.forced_degrades += 1;
            }
        }
    } else if (resident <= low) {
        for (const auto& tenant : tenants_) {
            tenant->memory_degraded = false;
        }
    }
}

ServiceResult
TraceService::Run()
{
    ValidateForRun();
    AdmissionPolicy* policy =
        options_.policy != nullptr ? options_.policy : &default_policy_;
    {
        std::vector<TenantOptions> specs;
        specs.reserve(tenants_.size());
        for (const auto& tenant : tenants_) {
            specs.push_back(tenant->options);
        }
        policy->Reset(specs);
    }

    // Setup in tenant order (deterministic; each tenant's stream
    // starts exactly as its standalone run would).
    std::uint64_t clock = 0;
    for (const auto& tenant : tenants_) {
        tenant->options.app->Setup(tenant->session);
        clock += tenant->session.Stats().tasks_executed;
    }
    for (const auto& tenant : tenants_) {
        tenant->ready_since = clock;
        tenant->arrival_base = clock;
    }

    std::vector<std::size_t> ready;
    for (;;) {
        ready.clear();
        std::uint64_t next_arrival =
            std::numeric_limits<std::uint64_t>::max();
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
            Tenant& tenant = *tenants_[t];
            ApplyOverloadControl(tenant, clock);
            if (tenant.Finished()) {
                continue;
            }
            tenant.max_backlog =
                std::max(tenant.max_backlog, tenant.Backlog(clock));
            const std::uint64_t arrival = tenant.NextArrival();
            if (arrival <= clock) {
                ready.push_back(t);
            } else {
                next_arrival = std::min(next_arrival, arrival);
            }
        }
        if (ready.empty()) {
            if (next_arrival ==
                std::numeric_limits<std::uint64_t>::max()) {
                break;  // every tenant finished
            }
            // Idle: jump virtual time to the next open-loop arrival.
            clock = next_arrival;
            continue;
        }

        const std::size_t t = policy->Pick(ready);
        Tenant& tenant = *tenants_[t];
        tenant.latencies.Add(clock - tenant.NextArrival());

        const std::uint64_t before =
            tenant.session.Stats().tasks_executed;
        const auto wall_start = std::chrono::steady_clock::now();
        tenant.options.app->Iteration(
            tenant.session,
            static_cast<std::size_t>(tenant.Consumed()),
            /*manual_tracing=*/false);
        tenant.wall_ns.Add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count()));
        const std::uint64_t after =
            tenant.session.Stats().tasks_executed;
        const std::uint64_t tasks = after - before;
        // A degraded grant skips mining, matching and replay
        // bookkeeping, so it advances the service clock at the
        // discounted rate — the capacity a degraded tenant recovers.
        std::uint64_t charged = tasks;
        const core::Apophenia* engine = tenant.stack.SingleEngine();
        const bool degraded = engine != nullptr && engine->Degraded();
        if (degraded) {
            charged = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(std::llround(
                       static_cast<double>(tasks) *
                       options_.degraded_task_cost)));
            tenant.degraded_iterations += 1;
        }
        clock += charged;
        policy->Charge(t, std::max<std::uint64_t>(1, charged));

        tenant.boundaries.push_back(static_cast<std::size_t>(after));
        tenant.completed += 1;
        tenant.ready_since = clock;
        if (tenant.Finished()) {
            // End-of-stream for this tenant, at this point of the
            // interleave — a tenant-local drain, like the standalone
            // harness's final Flush.
            tenant.session.Flush();
        }
        RunHealthMonitor();
    }
    return AssembleResults(clock);
}

double
LatencyReservoir::Percentile(double q) const
{
    if (samples_.empty()) {
        return 0.0;
    }
    std::vector<std::uint64_t> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t at = static_cast<std::size_t>(rank + 0.5);
    return static_cast<double>(sorted[std::min(at, sorted.size() - 1)]);
}

ServiceResult
TraceService::AssembleResults(std::uint64_t virtual_time)
{
    ServiceResult result;
    result.policy = std::string(
        (options_.policy != nullptr ? options_.policy
                                    : &default_policy_)
            ->Name());
    result.virtual_time = virtual_time;

    for (const auto& tenant : tenants_) {
        sim::ExperimentResult experiment =
            tenant->stack.Finish(tenant->boundaries);
        // The tenant's issue surface is its session.
        experiment.frontend_stats = tenant->session.Stats();
        const core::FinderStats& finder = tenant->stack.Engine()->Finder();
        const core::ApopheniaStats& front = experiment.apophenia_stats;

        TenantStats stats;
        stats.name = tenant->options.name;
        stats.name_space = tenant->name_space;
        stats.iterations_completed = tenant->completed;
        stats.tokens_issued = experiment.frontend_stats.tasks_executed;
        stats.tokens_replayed = experiment.runtime_stats.tasks_replayed;
        stats.trace_cache_hit_rate =
            front.traces_fired == 0
                ? 0.0
                : static_cast<double>(front.trace_replays) /
                      static_cast<double>(front.traces_fired);
        stats.trace_cache_evictions = experiment.trace_cache_evictions;
        stats.mining_cache_hits = finder.mining_cache_hits;
        stats.cross_tenant_mining_hits = finder.mining_cache_cross_hits;
        stats.p50_issue_latency = tenant->latencies.Percentile(0.50);
        stats.p99_issue_latency = tenant->latencies.Percentile(0.99);
        stats.p50_issue_wall_us =
            tenant->wall_ns.Percentile(0.50) / 1000.0;
        stats.p99_issue_wall_us =
            tenant->wall_ns.Percentile(0.99) / 1000.0;
        stats.stream_digest = experiment.stream_digest;
        stats.stream_digest_ops = experiment.stream_digest_ops;
        stats.candidate_digest = experiment.candidate_digest;
        stats.iterations_shed = tenant->shed;
        stats.iterations_degraded = tenant->degraded_iterations;
        stats.degrade_windows = tenant->degrade_windows;
        stats.tokens_degraded = front.tasks_degraded;
        stats.max_backlog = tenant->max_backlog;

        result.experiments.push_back(std::move(experiment));
        result.tenants.push_back(std::move(stats));
    }

    result.mining_cache = cache_->Snapshot();
    const std::uint64_t probes =
        result.mining_cache.hits + result.mining_cache.misses;
    result.cross_tenant_sharing =
        probes == 0 ? 0.0
                    : static_cast<double>(
                          result.mining_cache.cross_namespace_hits) /
                          static_cast<double>(probes);
    result.health = health_;
    return result;
}

}  // namespace apo::svc
