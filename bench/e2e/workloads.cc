#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/cfd.h"
#include "apps/flexflow.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "bench_util.h"
#include "core/apophenia.h"
#include "probes.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "sim/harness.h"
#include "sim/metrics.h"
#include "sim/pipeline.h"
#include "support/hash.h"
#include "svc/service.h"
#include "svc/workload.h"

namespace apobench {

namespace {

/** Spans kept for the Chrome trace; later spans are counted only. */
constexpr std::size_t kSpanCapacity = 1 << 16;
/** The ignore window: this share of each repetition's iterations
 * counts as set-up (the StatTrace ignore_start idiom). */
constexpr double kIgnoreShare = 0.1;
constexpr std::size_t kFleetTenants = 8;
constexpr std::size_t kClusterReplicas = 8;

// -- The shared setup of every workload ----------------------------------------

apps::MachineConfig
Machine()
{
    apps::MachineConfig machine;
    machine.nodes = 4;
    machine.gpus_per_node = 4;
    return machine;
}

rt::RuntimeOptions
RuntimeOptionsOf(const apps::MachineConfig& machine)
{
    rt::RuntimeOptions options;
    options.nodes = machine.nodes;
    return options;
}

sim::PipelineOptions
PipelineOptionsOf(bool apophenia)
{
    sim::PipelineOptions options;
    options.machine = Machine();
    options.apophenia_front_end = apophenia;
    options.window = bench::ArtifactConfig().window;
    return options;
}

/** htr_replicated8's engine threads: two, never more than the host. */
std::size_t
ClusterJobs()
{
    return std::min<std::size_t>(2, bench::HardwareConcurrency());
}

/** The token namespace of stream `stream` at workload seed `seed`
 * (never 0, the un-namespaced stream). */
rt::TokenHash
Salt(std::uint64_t seed, std::uint64_t stream)
{
    return support::SplitMix64(support::HashCombine(seed, stream)) | 1;
}

/**
 * Folds a namespace into every launch token the wrapped application
 * issues — the per-tenant fold svc::TraceService applies
 * (rt::FoldNamespace). This is how --seed reaches synthetic_steady:
 * each seed issues different token values through the same stream
 * shape, so runs at different seeds do the same amount of work. (A
 * seed-drawn synthetic kernel would not: its dependence structure,
 * and with it the cost per task, differs by over 10% between seeds.)
 */
class SaltedApp final : public apps::Application {
  public:
    SaltedApp(std::unique_ptr<apps::Application> inner, rt::TokenHash salt)
        : inner_(std::move(inner)), salt_(salt)
    {
    }

    std::string_view Name() const override { return inner_->Name(); }
    void Setup(api::Frontend& fe) override { inner_->Setup(Route(fe)); }
    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override
    {
        inner_->Iteration(Route(fe), iter, manual_tracing);
    }

  private:
    class Session final : public api::Frontend {
      public:
        Session(api::Frontend& inner, rt::TokenHash salt)
            : inner_(&inner), salt_(salt)
        {
        }
        std::string_view Name() const override { return "salted"; }
        api::Frontend* Inner() const { return inner_; }
        rt::RegionId CreateRegion() override
        {
            return inner_->CreateRegion();
        }
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
            rt::TaskLaunchView salted = launch;
            salted.token = rt::FoldNamespace(salt_, launch.token);
            inner_->ExecuteTask(salted);
        }
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
        rt::TokenHash salt_;
    };

    api::Frontend& Route(api::Frontend& fe)
    {
        if (session_ == nullptr || session_->Inner() != &fe) {
            session_ = std::make_unique<Session>(fe, salt_);
        }
        return *session_;
    }

    std::unique_ptr<apps::Application> inner_;
    rt::TokenHash salt_;
    std::unique_ptr<Session> session_;
};

std::unique_ptr<apps::Application>
MakeApp(const std::string& app, std::uint64_t kernel_seed, std::size_t noise)
{
    const apps::MachineConfig machine = Machine();
    if (app == "s3d") {
        apps::S3dOptions options;
        options.machine = machine;
        return std::make_unique<apps::S3dApplication>(options);
    }
    if (app == "htr") {
        apps::HtrOptions options;
        options.machine = machine;
        return std::make_unique<apps::HtrApplication>(options);
    }
    if (app == "cfd") {
        apps::CfdOptions options;
        options.machine = machine;
        return std::make_unique<apps::CfdApplication>(options);
    }
    if (app == "torchswe") {
        apps::TorchSweOptions options;
        options.machine = machine;
        return std::make_unique<apps::TorchSweApplication>(options);
    }
    if (app == "flexflow") {
        apps::FlexFlowOptions options;
        options.machine = machine;
        return std::make_unique<apps::FlexFlowApplication>(options);
    }
    svc::SyntheticOptions options;
    options.machine = machine;
    options.seed = kernel_seed;
    options.kernel_tasks = 200;
    options.noise_interval = noise;
    return std::make_unique<svc::SyntheticWorkload>(options);
}

/** The Apophenia configuration of a single-front-end workload: the
 * artifact's, told the namespace of a salted stream so the finder
 * mines namespace-relative tokens as a service tenant's does
 * (suffix-array mining is not invariant under the fold). */
core::ApopheniaConfig
ConfigOf(const std::string& workload, std::uint64_t seed)
{
    core::ApopheniaConfig config = bench::ArtifactConfig();
    if (workload == "synthetic_steady") {
        config.cache_namespace = Salt(seed, 0);
    }
    return config;
}

/** The application of a single-front-end workload at `seed`. */
std::unique_ptr<apps::Application>
MakeWorkloadApp(const std::string& workload, std::uint64_t seed)
{
    if (workload == "htr_replicated8") {
        return MakeApp("htr", 0, 0);
    }
    if (workload == "synthetic_steady") {
        return std::make_unique<SaltedApp>(
            MakeApp("synthetic", /*kernel_seed=*/1, /*noise=*/0),
            Salt(seed, 0));
    }
    return MakeApp("s3d", 0, 0);
}

/** svc_fleet8's tenants: two identical S3D tenants (they share
 * mining through the cache), every other app once, and two synthetic
 * tenants with different kernels and noise bursts. --seed picks every
 * tenant's token namespace (Salt). */
struct TenantSpec {
    const char* app;
    std::uint64_t kernel_seed;
};
constexpr TenantSpec kFleet[kFleetTenants] = {
    {"s3d", 0},      {"s3d", 0},      {"htr", 0},       {"cfd", 0},
    {"torchswe", 0}, {"flexflow", 0}, {"synthetic", 1}, {"synthetic", 2},
};
constexpr std::size_t kFleetNoise = 16;

std::int64_t
PeakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// -- Counters read at the ignore boundary and at the end -------------------------

struct Counters {
    std::uint64_t jobs = 0;
    std::uint64_t fast_path = 0;
    std::uint64_t repairs = 0;
    std::uint64_t full = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t candidates = 0;
    std::uint64_t fires = 0;
    std::uint64_t replays = 0;
    std::uint64_t runtime_tasks = 0;
    std::uint64_t runtime_replayed = 0;
    std::uint64_t decision_ns = 0;
    std::uint64_t apply_ns = 0;
    std::uint64_t batches = 0;
    std::uint64_t timed_jobs = 0;
    std::uint64_t region_ops = 0;
    std::int64_t consumer_ns = 0;
    std::array<std::int64_t, ShadowRuntime::kPaths> shadow_ns{};
    std::array<std::uint64_t, ShadowRuntime::kPaths> shadow_tasks{};
    LayerTotals layers;

    void AddEngine(const core::Apophenia& engine)
    {
        const core::FinderStats& finder = engine.Finder();
        jobs += finder.jobs_launched;
        fast_path += finder.mining_fast_path_hits;
        repairs += finder.mining_repairs;
        full += finder.mining_full;
        cache_hits += finder.mining_cache_hits;
        candidates += finder.candidates_produced;
        fires += engine.Stats().traces_fired;
        replays += engine.Stats().trace_replays;
    }
    void AddRuntime(const rt::Runtime& runtime)
    {
        runtime_tasks += runtime.Stats().TotalTasks();
        runtime_replayed += runtime.Stats().tasks_replayed;
    }
    void AddTracer(const Tracer& tracer, std::int64_t consumer)
    {
        timed_jobs = tracer.jobs;
        region_ops = tracer.region_ops;
        consumer_ns = consumer;
        layers = tracer.spans.Totals();
        if (tracer.shadow != nullptr) {
            for (std::size_t p = 0; p < ShadowRuntime::kPaths; ++p) {
                const auto path = static_cast<ShadowRuntime::Path>(p);
                shadow_ns[p] = tracer.shadow->PathNs(path);
                shadow_tasks[p] = tracer.shadow->PathTasks(path);
            }
        }
    }
};

/** End-of-run values that are not window deltas. */
struct Gauges {
    std::uint64_t trie_candidates = 0;
    std::uint64_t trie_nodes = 0;
    std::uint64_t pending_high_water = 0;
    std::uint64_t trace_templates = 0;
    std::uint64_t log_peak_bytes = 0;
    double max_stall_tasks = 0.0;
    double cross_tenant_sharing = 0.0;
    std::size_t nodes = 1;

    void AddEngine(const core::Apophenia& engine)
    {
        trie_candidates += engine.Trie().NumCandidates();
        trie_nodes += engine.Trie().NumNodes();
        pending_high_water = std::max<std::uint64_t>(
            pending_high_water, engine.Stats().pending_high_water);
    }
    void AddRuntime(const rt::Runtime& runtime)
    {
        trace_templates += runtime.Traces().Size();
        log_peak_bytes = std::max<std::uint64_t>(
            log_peak_bytes, runtime.Log().PeakResidentBytes());
    }
};

/** Everything the traced run derives its per-layer metrics from. */
struct TraceInputs {
    Counters begin;
    Counters end;
    Gauges gauges;
    std::uint64_t tasks = 0;          ///< tasks in the timed window
    std::int64_t window_ns = 0;       ///< wall time of the timed window
    std::int64_t iteration_ns = 0;    ///< Σ timed Iteration + Flush
    bool fleet = false;
    const Timeline* timeline = nullptr;
};

/** Per-layer metrics in BENCHMARK.json order. Throws when the self
 * times do not add up to the Iteration spans. */
std::vector<std::pair<std::string, double>>
LayerMetrics(const TraceInputs& in)
{
    const Counters& b = in.begin;
    const Counters& e = in.end;
    const double tasks = static_cast<double>(in.tasks);
    auto self = [&](Layer layer) {
        return static_cast<double>(e.layers[layer] - b.layers[layer]);
    };
    auto delta = [](auto end, auto begin) {
        return static_cast<double>(end - begin);
    };

    double sum = 0.0;
    for (std::size_t l = 0; l < kLayers; ++l) {
        const double ns = self(static_cast<Layer>(l));
        if (ns < 0.0) {
            throw std::runtime_error(std::string("negative self time in ") +
                                     LayerName(static_cast<Layer>(l)));
        }
        sum += ns;
    }
    const double spans = static_cast<double>(in.iteration_ns);
    if (std::abs(sum - spans) > 0.01 * spans) {
        std::ostringstream msg;
        msg << "layer self times sum to " << sum
            << " ns but the Iteration spans to " << spans << " ns";
        throw std::runtime_error(msg.str());
    }

    // core.self_growth: core ns/task over the last tenth of the timed
    // iterations ÷ over the first tenth.
    double growth = 0.0;
    const auto& curve = in.timeline->CoreCurve();
    const std::size_t tenth = curve.size() / 10;
    if (tenth > 0) {
        auto rate = [&](std::size_t from, std::size_t to) {
            const auto& [t0, c0] = curve[from];
            const auto& [t1, c1] = curve[to];
            return Ratio(static_cast<double>(c1 - c0),
                         static_cast<double>(t1 - t0));
        };
        growth = Ratio(rate(curve.size() - 1 - tenth, curve.size() - 1),
                       rate(0, tenth));
    }

    auto per_path = [&](std::initializer_list<std::size_t> paths) {
        double ns = 0.0;
        double count = 0.0;
        for (const std::size_t p : paths) {
            ns += delta(e.shadow_ns[p], b.shadow_ns[p]);
            count += delta(e.shadow_tasks[p], b.shadow_tasks[p]);
        }
        return Ratio(ns, count);
    };
    const double jobs = delta(e.jobs, b.jobs);
    const double svc_self =
        in.fleet ? Ratio(static_cast<double>(in.window_ns) - spans, tasks)
                 : 0.0;
    // Consumer spans on one thread, or busy time on the cluster's
    // worker threads (the other one is zero).
    const double consumer =
        self(Layer::kSim) + delta(e.consumer_ns, b.consumer_ns);

    return {
        {"apps.self_ns_per_task", Ratio(self(Layer::kApps), tasks)},
        {"apps.region_ops_per_ktask",
         Ratio(1000.0 * delta(e.region_ops, b.region_ops), tasks)},
        {"core.self_ns_per_task", Ratio(self(Layer::kCore), tasks)},
        {"core.self_growth", growth},
        {"core.trie_candidates",
         static_cast<double>(in.gauges.trie_candidates)},
        {"core.trie_nodes", static_cast<double>(in.gauges.trie_nodes)},
        {"core.pending_high_water",
         static_cast<double>(in.gauges.pending_high_water)},
        {"core.replay_fire_frac",
         Ratio(delta(e.replays, b.replays), delta(e.fires, b.fires))},
        {"core.finder.busy_ns_per_task", Ratio(self(Layer::kFinder), tasks)},
        {"core.finder.ns_per_job",
         Ratio(self(Layer::kFinder), delta(e.timed_jobs, b.timed_jobs))},
        {"core.finder.jobs_per_ktask", Ratio(1000.0 * jobs, tasks)},
        {"core.finder.fast_path_frac",
         Ratio(delta(e.fast_path, b.fast_path), jobs)},
        {"core.finder.repair_frac", Ratio(delta(e.repairs, b.repairs), jobs)},
        {"core.finder.full_frac", Ratio(delta(e.full, b.full), jobs)},
        {"core.finder.cache_hit_frac",
         Ratio(delta(e.cache_hits, b.cache_hits), jobs)},
        {"core.finder.candidates_per_job",
         Ratio(delta(e.candidates, b.candidates), jobs)},
        {"runtime.self_ns_per_task", Ratio(self(Layer::kRuntime), tasks)},
        {"runtime.analyze_ns_per_task", per_path({0, 1})},
        {"runtime.replay_ns_per_task", per_path({2})},
        {"runtime.replayed_task_frac",
         Ratio(delta(e.runtime_replayed, b.runtime_replayed),
               delta(e.runtime_tasks, b.runtime_tasks))},
        {"runtime.trace_templates",
         static_cast<double>(in.gauges.trace_templates)},
        {"runtime.log_peak_bytes",
         static_cast<double>(in.gauges.log_peak_bytes)},
        {"sim.consumer_ns_per_task", Ratio(consumer, tasks)},
        {"sim.cluster.self_ns_per_task", Ratio(self(Layer::kCluster), tasks)},
        {"sim.cluster.decision_ns_per_task",
         Ratio(delta(e.decision_ns, b.decision_ns), tasks)},
        {"sim.cluster.apply_ns_per_task_per_node",
         Ratio(delta(e.apply_ns, b.apply_ns),
               tasks * static_cast<double>(in.gauges.nodes))},
        {"sim.cluster.batches_per_ktask",
         Ratio(1000.0 * delta(e.batches, b.batches), tasks)},
        {"sim.cluster.max_stall_tasks", in.gauges.max_stall_tasks},
        {"svc.self_ns_per_task", svc_self},
        {"svc.cross_tenant_sharing", in.gauges.cross_tenant_sharing},
        {"probe.self_ns_per_task", Ratio(self(Layer::kProbe), tasks)},
    };
}

/** The fields every workload's rep shares once its loop is done. */
void
FinishTiming(const Timeline& timeline, std::int64_t start_ns,
             std::int64_t end_ns, RepResult* rep)
{
    if (timeline.BoundaryNs() == 0) {
        throw std::runtime_error("the run ended inside its ignore window");
    }
    rep->setup_ns = timeline.BoundaryNs() - start_ns;
    rep->timed_ns = end_ns - timeline.BoundaryNs();
    rep->tasks_timed = timeline.TasksAfterBoundary();
    rep->samples = timeline.Samples();
}

// -- One front end: s3d_auto, s3d_untraced, synthetic_steady, htr_replicated8 ---

void
RunFrontStack(const RepSpec& spec, std::size_t iterations,
              std::int64_t start_ns, Tracer* tracer, RepResult* rep)
{
    const std::string& name = spec.workload;
    const bool untraced = name == "s3d_untraced";
    const bool replicated = name == "htr_replicated8";
    const apps::MachineConfig machine = Machine();
    const rt::RuntimeOptions runtime_options = RuntimeOptionsOf(machine);

    support::InlineExecutor inline_executor;
    std::optional<TimedExecutor> timed_executor;
    std::optional<ShadowRuntime> shadow;
    std::unique_ptr<rt::Runtime> runtime;
    std::unique_ptr<api::Frontend> wrapper;
    std::unique_ptr<core::Apophenia> apophenia;
    std::unique_ptr<sim::Cluster> cluster;
    api::Frontend* front = nullptr;

    if (replicated) {
        sim::ClusterOptions options;
        options.coordination.nodes = kClusterReplicas;
        options.config = bench::ArtifactConfig();
        options.runtime_options = runtime_options;
        options.stream_logs = true;
        options.jobs = ClusterJobs();
        options.share_mining_cache = true;
        options.shared_decisions = true;
        cluster = std::make_unique<sim::Cluster>(options);
        front = cluster.get();
    } else {
        runtime = std::make_unique<rt::Runtime>(runtime_options);
        if (untraced) {
            wrapper = std::make_unique<api::UntracedFrontend>(*runtime);
            front = wrapper.get();
        } else {
            support::Executor* executor = nullptr;
            if (tracer != nullptr) {
                executor = &timed_executor.emplace(inline_executor, *tracer);
            }
            apophenia = std::make_unique<core::Apophenia>(
                *runtime, ConfigOf(name, spec.seed), executor);
            front = apophenia.get();
        }
    }
    if (tracer != nullptr) {
        if (replicated) {
            tracer->front_layer = Layer::kCluster;
            tracer->cluster = cluster.get();
        } else {
            tracer->front_layer = untraced ? Layer::kRuntime : Layer::kCore;
            tracer->shadow =
                &shadow.emplace(runtime_options, apophenia != nullptr);
            if (apophenia != nullptr) {
                apophenia->SetDecisionSink(tracer->shadow->Sink());
            }
        }
    }

    // The streaming log consumer, wired as sim::RunExperiment wires it.
    sim::PipelineSimulator simulator(PipelineOptionsOf(!untraced));
    sim::TracedFlags traced_flags;
    sim::StreamDigest digest;
    auto consume = [&](const rt::OpView& op) {
        traced_flags.Consume(op);
        digest.Consume(op);
        simulator.Consume(op);
    };
    // Cluster consumers run on the engine's worker threads: timed as
    // busy time, not as spans.
    std::atomic<std::int64_t> consumer_ns{0};
    if (replicated) {
        if (tracer != nullptr) {
            cluster->AddLogConsumer(0, [&](const rt::OpView& op) {
                const std::int64_t t0 = NowNs();
                consume(op);
                consumer_ns.fetch_add(NowNs() - t0,
                                      std::memory_order_relaxed);
            });
        } else {
            cluster->AddLogConsumer(0, consume);
        }
    } else if (tracer != nullptr) {
        runtime->EnableLogStreaming([&](const rt::OpView& op) {
            ScopedSpan span(&tracer->spans, Layer::kSim, "consumer");
            consume(op);
        });
    } else {
        runtime->EnableLogStreaming(consume);
    }

    auto snapshot = [&](Counters* counters) {
        if (apophenia != nullptr) {
            counters->AddEngine(*apophenia);
        }
        if (cluster != nullptr) {
            counters->AddEngine(cluster->Decider());
            counters->AddRuntime(cluster->NodeRuntime(0));
            const sim::DecisionStats cost = cluster->DecisionCost();
            counters->decision_ns = cost.decision_ns;
            counters->apply_ns = cost.apply_ns;
            counters->batches = cost.batches;
        } else {
            counters->AddRuntime(*runtime);
        }
        if (tracer != nullptr) {
            counters->AddTracer(*tracer, consumer_ns.load());
        }
    };

    TraceInputs trace;
    const std::size_t ignore = std::max<std::size_t>(
        1, static_cast<std::size_t>(kIgnoreShare *
                                    static_cast<double>(iterations)));
    Timeline timeline(ignore, [&] { snapshot(&trace.begin); }, tracer);
    const std::unique_ptr<apps::Application> inner =
        MakeWorkloadApp(name, spec.seed);
    TimedApp app(*inner, timeline);

    app.Setup(*front);
    std::vector<std::size_t> boundaries;
    boundaries.reserve(iterations);
    std::int64_t flush_ns = 0;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        app.Iteration(*front, iter, /*manual_tracing=*/false);
        boundaries.push_back(
            static_cast<std::size_t>(front->Stats().tasks_executed));
    }
    {
        const std::int64_t t0 = NowNs();
        app.Flush(*front, [&] {
            if (cluster != nullptr) {
                cluster->DrainLogStreams();
            } else {
                runtime->DrainLogStream();
            }
        });
        flush_ns = NowNs() - t0;
    }
    const std::int64_t end_ns = NowNs();
    FinishTiming(timeline, start_ns, end_ns, rep);

    // Outcomes, outside the timed window.
    const rt::Runtime& observed =
        cluster != nullptr ? cluster->NodeRuntime(0) : *runtime;
    rep->tasks_total = front->Stats().tasks_executed;
    if (cluster != nullptr) {
        rep->replicas_agree = cluster->StreamDigestsAgree();
        for (std::size_t n = 0; n < cluster->Nodes(); ++n) {
            rep->tasks_rewound +=
                cluster->NodeRuntime(n).Stats().tasks_rewound;
        }
    } else {
        rep->tasks_rewound = runtime->Stats().tasks_rewound;
    }
    const sim::PipelineResult simulated = simulator.Finish();
    Identity id;
    id.stream_digest = digest.Value();
    id.stream_ops = digest.Count();
    id.candidate_digest =
        apophenia != nullptr ? apophenia->CandidateDigest()
        : cluster != nullptr ? cluster->Decider().CandidateDigest()
                             : 0;
    id.sim_iters_per_s = sim::SteadyThroughput(
        sim::IterationEndTimes(simulated, boundaries));
    id.replayed_frac = observed.Stats().ReplayedFraction();
    id.warmup_iters = sim::WarmupIterations(traced_flags, boundaries);
    rep->identities.push_back(id);

    if (tracer == nullptr) {
        return;
    }
    if (shadow.has_value() && !(shadow->Digest() == digest)) {
        throw std::runtime_error(
            "the shadow runtime's stream digest diverged from the real "
            "runtime's");
    }
    snapshot(&trace.end);
    if (apophenia != nullptr) {
        trace.gauges.AddEngine(*apophenia);
    }
    if (cluster != nullptr) {
        trace.gauges.AddEngine(cluster->Decider());
        trace.gauges.nodes = cluster->Nodes();
        for (std::size_t n = 0; n < cluster->Nodes(); ++n) {
            trace.gauges.log_peak_bytes = std::max<std::uint64_t>(
                trace.gauges.log_peak_bytes,
                cluster->NodeRuntime(n).Log().PeakResidentBytes());
            trace.gauges.max_stall_tasks =
                std::max(trace.gauges.max_stall_tasks,
                         cluster->PerNode()[n].max_stall_tasks);
        }
    }
    trace.gauges.AddRuntime(observed);
    trace.tasks = rep->tasks_timed;
    trace.window_ns = rep->timed_ns;
    trace.iteration_ns = flush_ns + timeline.TimedSpanNs();
    trace.timeline = &timeline;
    rep->layers = LayerMetrics(trace);
}

// -- svc_fleet8 -------------------------------------------------------------------

svc::ServiceOptions
FleetOptions(bool reference)
{
    svc::ServiceOptions options;
    options.config = bench::ArtifactConfig();
    options.machine = Machine();
    options.log_mode =
        reference ? sim::LogMode::kRetained : sim::LogMode::kStreaming;
    options.share_mining_cache = !reference;
    return options;
}

Identity
TenantIdentity(const svc::ServiceResult& result, std::size_t t)
{
    Identity id;
    id.stream_digest = result.tenants[t].stream_digest;
    id.stream_ops = result.tenants[t].stream_digest_ops;
    id.candidate_digest = result.tenants[t].candidate_digest;
    id.sim_iters_per_s = result.experiments[t].iterations_per_second;
    id.replayed_frac = result.experiments[t].replayed_fraction;
    id.warmup_iters = result.experiments[t].warmup_iterations;
    return id;
}

void
RunFleet(const RepSpec& spec, std::size_t iterations, std::int64_t start_ns,
         Tracer* tracer, RepResult* rep)
{
    support::InlineExecutor inline_executor;
    std::optional<TimedExecutor> timed_executor;
    svc::DeficitWeightedFairPolicy policy;
    svc::ServiceOptions options = FleetOptions(/*reference=*/false);
    options.policy = &policy;
    if (tracer != nullptr) {
        tracer->front_layer = Layer::kCore;
        options.executor = &timed_executor.emplace(inline_executor, *tracer);
    }
    svc::TraceService service(options);

    auto snapshot = [&](Counters* counters) {
        for (std::size_t t = 0; t < service.Tenants(); ++t) {
            counters->AddEngine(service.TenantEngine(t));
            counters->AddRuntime(service.TenantRuntime(t));
        }
        if (tracer != nullptr) {
            counters->AddTracer(*tracer, 0);
        }
    };
    TraceInputs trace;
    trace.fleet = true;
    const std::size_t grants = kFleetTenants * iterations;
    Timeline timeline(
        std::max<std::size_t>(
            1, static_cast<std::size_t>(kIgnoreShare *
                                        static_cast<double>(grants))),
        [&] { snapshot(&trace.begin); }, tracer);

    std::vector<std::unique_ptr<apps::Application>> inner;
    std::vector<std::unique_ptr<TimedApp>> timed;
    for (std::size_t t = 0; t < kFleetTenants; ++t) {
        inner.push_back(
            MakeApp(kFleet[t].app, kFleet[t].kernel_seed, kFleetNoise));
        timed.push_back(std::make_unique<TimedApp>(*inner.back(), timeline));
        svc::TenantOptions tenant;
        tenant.name = kFleet[t].app;
        tenant.app = timed.back().get();
        tenant.iterations = iterations;
        tenant.name_space = Salt(spec.seed, t);
        service.AddTenant(tenant);
    }
    const svc::ServiceResult result = service.Run();
    const std::int64_t end_ns = NowNs();
    FinishTiming(timeline, start_ns, end_ns, rep);

    for (std::size_t t = 0; t < service.Tenants(); ++t) {
        rep->tasks_total += result.tenants[t].tokens_issued;
        rep->tasks_rewound +=
            result.experiments[t].runtime_stats.tasks_rewound;
        rep->identities.push_back(TenantIdentity(result, t));
    }
    if (tracer == nullptr) {
        return;
    }
    snapshot(&trace.end);
    for (std::size_t t = 0; t < service.Tenants(); ++t) {
        trace.gauges.AddEngine(service.TenantEngine(t));
        trace.gauges.AddRuntime(service.TenantRuntime(t));
    }
    trace.gauges.cross_tenant_sharing = result.cross_tenant_sharing;
    trace.tasks = rep->tasks_timed;
    trace.window_ns = rep->timed_ns;
    trace.iteration_ns = timeline.TimedSpanNs();
    trace.timeline = &timeline;
    rep->layers = LayerMetrics(trace);
}

}  // namespace

// -- Public surface ---------------------------------------------------------------

const std::vector<WorkloadSpec>&
Workloads()
{
    // The retained-log reference run bounds the sizes: s3d_untraced,
    // synthetic_steady and htr_replicated8 are as long as keeps that
    // run under ~330 MB. svc_fleet8 is short so that a 15 s run holds
    // ~8 repetitions for min-of-k.
    static const std::vector<WorkloadSpec> specs = {
        {"s3d_auto", 1000},
        {"s3d_untraced", 4000},
        {"synthetic_steady", 4000},
        {"htr_replicated8", 300},
        {"svc_fleet8", 150},
    };
    return specs;
}

const WorkloadSpec*
FindWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : Workloads()) {
        if (name == spec.name) {
            return &spec;
        }
    }
    return nullptr;
}

std::size_t
IterationsOf(const WorkloadSpec& spec, double scale)
{
    return std::max<std::size_t>(
        20, static_cast<std::size_t>(
                std::llround(scale * static_cast<double>(spec.iterations))));
}

RepResult
RunRep(const RepSpec& spec)
{
    const std::int64_t start_ns = NowNs();
    const WorkloadSpec* workload = FindWorkload(spec.workload);
    if (workload == nullptr) {
        throw std::invalid_argument("unknown workload " + spec.workload);
    }
    const std::size_t iterations = IterationsOf(*workload, spec.scale);
    std::unique_ptr<Tracer> tracer;
    if (spec.traced) {
        tracer = std::make_unique<Tracer>(kSpanCapacity);
    }
    RepResult rep;
    if (spec.workload == "svc_fleet8") {
        RunFleet(spec, iterations, start_ns, tracer.get(), &rep);
    } else {
        RunFrontStack(spec, iterations, start_ns, tracer.get(), &rep);
    }
    rep.peak_rss_kb = static_cast<double>(PeakRssKb());
    if (tracer != nullptr) {
        if (!tracer->spans.Balanced()) {
            throw std::runtime_error("a probe span was left open");
        }
        rep.layers.emplace_back(
            "probe.spans_dropped",
            static_cast<double>(tracer->spans.Overflow()));
        if (!spec.trace_path.empty() &&
            !tracer->spans.WriteChromeTrace(spec.trace_path)) {
            throw std::runtime_error("cannot write " + spec.trace_path);
        }
    }
    return rep;
}

std::vector<Identity>
RunReference(const RepSpec& spec)
{
    const WorkloadSpec* workload = FindWorkload(spec.workload);
    if (workload == nullptr) {
        throw std::invalid_argument("unknown workload " + spec.workload);
    }
    const std::size_t iterations = IterationsOf(*workload, spec.scale);
    std::vector<Identity> ids;
    if (spec.workload == "svc_fleet8") {
        // Each tenant alone, under the namespace it has in the fleet,
        // with the mining cache off.
        for (std::size_t t = 0; t < kFleetTenants; ++t) {
            svc::TraceService service(FleetOptions(/*reference=*/true));
            const std::unique_ptr<apps::Application> app =
                MakeApp(kFleet[t].app, kFleet[t].kernel_seed, kFleetNoise);
            svc::TenantOptions options;
            options.name = kFleet[t].app;
            options.app = app.get();
            options.iterations = iterations;
            options.name_space = Salt(spec.seed, t);
            service.AddTenant(options);
            ids.push_back(TenantIdentity(service.Run(), 0));
        }
        return ids;
    }

    const bool untraced = spec.workload == "s3d_untraced";
    const bool replicated = spec.workload == "htr_replicated8";
    sim::ExperimentOptions options;
    options.mode =
        untraced ? sim::TracingMode::kUntraced : sim::TracingMode::kAuto;
    options.iterations = iterations;
    options.auto_config = ConfigOf(spec.workload, spec.seed);
    options.machine = Machine();
    options.log_mode = sim::LogMode::kRetained;
    if (replicated) {
        options.replicas = kClusterReplicas;
        options.cluster_jobs = 1;
        options.share_mining_cache = false;
        options.shared_decisions = true;
    }
    const std::unique_ptr<apps::Application> app =
        MakeWorkloadApp(spec.workload, spec.seed);
    const sim::ExperimentResult result = sim::RunExperiment(*app, options);
    if (!result.streams_identical) {
        throw std::runtime_error("reference replicas diverged");
    }
    Identity id;
    id.stream_digest = result.stream_digest;
    id.stream_ops = result.stream_digest_ops;
    id.candidate_digest = result.candidate_digest;
    id.sim_iters_per_s = result.iterations_per_second;
    id.replayed_frac = result.replayed_fraction;
    id.warmup_iters = result.warmup_iterations;
    ids.push_back(id);
    return ids;
}

// -- Text form ----------------------------------------------------------------------

void
WriteIdentities(std::FILE* out, const std::vector<Identity>& ids)
{
    for (const Identity& id : ids) {
        std::fprintf(out, "identity %llu %llu %llu %.17g %.17g %llu\n",
                     static_cast<unsigned long long>(id.stream_digest),
                     static_cast<unsigned long long>(id.stream_ops),
                     static_cast<unsigned long long>(id.candidate_digest),
                     id.sim_iters_per_s, id.replayed_frac,
                     static_cast<unsigned long long>(id.warmup_iters));
    }
}

void
WriteRep(std::FILE* out, const RepResult& rep)
{
    std::fprintf(out,
                 "rep %llu %llu %llu %lld %lld %.17g %d\n",
                 static_cast<unsigned long long>(rep.tasks_total),
                 static_cast<unsigned long long>(rep.tasks_timed),
                 static_cast<unsigned long long>(rep.tasks_rewound),
                 static_cast<long long>(rep.timed_ns),
                 static_cast<long long>(rep.setup_ns), rep.peak_rss_kb,
                 rep.replicas_agree ? 1 : 0);
    WriteIdentities(out, rep.identities);
    for (const auto& [name, value] : rep.layers) {
        std::fprintf(out, "layer %s %.17g\n", name.c_str(), value);
    }
    std::fprintf(out, "samples %zu\n", rep.samples.size());
    for (const IterationSample& sample : rep.samples) {
        std::fprintf(out, "%lld %llu\n", static_cast<long long>(sample.ns),
                     static_cast<unsigned long long>(sample.tasks));
    }
}

namespace {

bool
ParseIdentity(std::istringstream& line, Identity* id)
{
    unsigned long long digest = 0;
    unsigned long long ops = 0;
    unsigned long long candidate = 0;
    unsigned long long warmup = 0;
    line >> digest >> ops >> candidate >> id->sim_iters_per_s >>
        id->replayed_frac >> warmup;
    id->stream_digest = digest;
    id->stream_ops = ops;
    id->candidate_digest = candidate;
    id->warmup_iters = warmup;
    return !line.fail();
}

}  // namespace

bool
ParseIdentities(const std::string& text, std::vector<Identity>* ids)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "identity") {
            Identity id;
            if (!ParseIdentity(fields, &id)) {
                return false;
            }
            ids->push_back(id);
        }
    }
    return !ids->empty();
}

bool
ParseRep(const std::string& text, RepResult* rep)
{
    std::istringstream in(text);
    std::string line;
    bool header = false;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "rep") {
            unsigned long long total = 0;
            unsigned long long timed = 0;
            unsigned long long rewound = 0;
            long long timed_ns = 0;
            long long setup_ns = 0;
            int agree = 0;
            fields >> total >> timed >> rewound >> timed_ns >> setup_ns >>
                rep->peak_rss_kb >> agree;
            rep->tasks_total = total;
            rep->tasks_timed = timed;
            rep->tasks_rewound = rewound;
            rep->timed_ns = timed_ns;
            rep->setup_ns = setup_ns;
            rep->replicas_agree = agree != 0;
            header = !fields.fail();
        } else if (key == "identity") {
            Identity id;
            if (!ParseIdentity(fields, &id)) {
                return false;
            }
            rep->identities.push_back(id);
        } else if (key == "layer") {
            std::string name;
            double value = 0.0;
            fields >> name >> value;
            rep->layers.emplace_back(name, value);
        } else if (key == "samples") {
            std::size_t count = 0;
            fields >> count;
            rep->samples.resize(count);
            for (IterationSample& sample : rep->samples) {
                long long ns = 0;
                unsigned long long tasks = 0;
                if (!(in >> ns >> tasks)) {
                    return false;
                }
                sample = IterationSample{ns, tasks};
            }
        }
    }
    return header && !rep->identities.empty();
}

}  // namespace apobench
