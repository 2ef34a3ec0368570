/**
 * @file
 * Randomized differential testing of the whole front-end.
 *
 * A seeded generator builds random programs that combine everything at
 * once: nested loop structures with random bodies, dynamic region
 * allocation and destruction (allocator recycling), partitioned
 * regions with parent- and child-level accesses, reductions with
 * mixed operators, fills/copies, untraceable operations, and noise.
 * Each program runs through Apophenia and untraced; the forwarded
 * stream and the dependence graph must be identical, under several
 * Apophenia configurations, for every seed.
 *
 * This is the repository's broadest safety net: any replayer
 * bookkeeping bug (wrong flush order, stale pointer, bad template
 * boundary) shows up as a diff here long before it would be
 * diagnosable in an application.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unordered_map>

#include "coherence_image.h"
#include "core/apophenia.h"
#include "reference_miner.h"
#include "runtime/graph.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "stream_digest_properties.h"
#include "support/executor.h"
#include "support/rng.h"
#include "svc/service.h"

namespace apo {
namespace {

/** A random but *deterministic per seed* program issuing structured,
 * partially repetitive task streams. */
class RandomProgram {
  public:
    explicit RandomProgram(std::uint64_t seed) : seed_(seed) {}

    /** Issue the program against a front-end-ish target (Apophenia or
     * the runtime itself through a thin adapter). */
    template <typename Target>
    void Run(Target& target)
    {
        support::Rng rng(seed_);
        // Long-lived regions plus a partitioned grid.
        std::vector<rt::RegionId> regions;
        for (int i = 0; i < 6; ++i) {
            regions.push_back(target.CreateRegion());
        }
        const rt::RegionId grid = target.CreateRegion();
        const auto shards = target.PartitionRegion(grid, 4);

        // Random loop nest: outer phases, each with its own body.
        const int phases = static_cast<int>(rng.UniformInt(1, 3));
        for (int phase = 0; phase < phases; ++phase) {
            const int body = static_cast<int>(rng.UniformInt(3, 12));
            const int iters = static_cast<int>(rng.UniformInt(10, 60));
            // A fixed random body for this phase (repetition!).
            support::Rng body_rng(seed_ * 131 + phase);
            std::vector<rt::TaskLaunch> body_tasks;
            for (int b = 0; b < body; ++b) {
                body_tasks.push_back(
                    RandomTask(body_rng, regions, shards, grid, phase));
            }
            for (int it = 0; it < iters; ++it) {
                for (const auto& t : body_tasks) {
                    target.ExecuteTask(t);
                }
                // Occasional irregularities.
                if (rng.Bernoulli(0.1)) {
                    target.ExecuteTask(
                        RandomTask(rng, regions, shards, grid, phase));
                }
                if (rng.Bernoulli(0.05)) {
                    rt::TaskLaunch io = RandomTask(rng, regions, shards,
                                                   grid, phase);
                    io.traceable = false;
                    target.ExecuteTask(io);
                }
                // Dynamic region churn: cuPyNumeric-style scratch.
                if (rng.Bernoulli(0.15)) {
                    const rt::RegionId scratch = target.CreateRegion();
                    target.ExecuteTask(rt::TaskLaunch{
                        777,
                        {{scratch, 0, rt::Privilege::kWriteDiscard, 0},
                         {regions[0], 0, rt::Privilege::kReadOnly, 0}}});
                    target.DestroyRegion(scratch);
                }
            }
        }
    }

  private:
    static rt::TaskLaunch RandomTask(
        support::Rng& rng, const std::vector<rt::RegionId>& regions,
        const std::vector<rt::RegionId>& shards, rt::RegionId grid,
        int phase)
    {
        rt::TaskLaunch t;
        t.task = rng.UniformInt(1, 30) + 1000ull * phase;
        const int reqs = static_cast<int>(rng.UniformInt(1, 3));
        for (int q = 0; q < reqs; ++q) {
            rt::RegionRequirement req;
            const auto pick = rng.UniformInt(0, 9);
            if (pick < 6) {
                req.region = regions[pick % regions.size()];
            } else if (pick < 9) {
                req.region = shards[pick - 6];
            } else {
                req.region = grid;  // parent-level access
            }
            req.field = static_cast<rt::FieldId>(rng.UniformInt(0, 1));
            req.privilege =
                static_cast<rt::Privilege>(rng.UniformInt(0, 3));
            req.redop = req.privilege == rt::Privilege::kReduce
                            ? static_cast<rt::ReductionOpId>(
                                  rng.UniformInt(1, 2))
                            : 0;
            t.requirements.push_back(req);
        }
        t.shard = static_cast<std::uint32_t>(rng.UniformInt(0, 3));
        if (rng.Bernoulli(0.3)) {
            // Occasionally a fill or copy instead of a task.
            return rng.Bernoulli(0.5)
                       ? rt::FillLaunch(t.requirements[0].region,
                                        t.requirements[0].field, t.shard)
                       : rt::CopyLaunch(
                             t.requirements[0].region,
                             t.requirements[0].field,
                             regions[rng.UniformInt(
                                 0, regions.size() - 1)],
                             0, t.shard);
        }
        return t;
    }

    std::uint64_t seed_;
};

/** Adapter so RandomProgram can also drive the bare runtime. */
class BareTarget {
  public:
    explicit BareTarget(rt::Runtime& rt) : rt_(&rt) {}
    rt::RegionId CreateRegion() { return rt_->CreateRegion(); }
    void DestroyRegion(rt::RegionId r) { rt_->DestroyRegion(r); }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId p,
                                              std::size_t n)
    {
        return rt_->PartitionRegion(p, n);
    }
    void ExecuteTask(const rt::TaskLaunch& t) { rt_->ExecuteTask(t); }

  private:
    rt::Runtime* rt_;
};

struct FuzzCase {
    std::uint64_t seed;
    std::size_t min_trace_length;
    std::size_t max_trace_length;
    std::size_t batchsize;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DifferentialFuzz, TracedEqualsUntraced)
{
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime traced_rt;
    core::Apophenia fe(traced_rt, config);
    RandomProgram(fuzz.seed).Run(fe);
    fe.Flush();

    rt::Runtime bare_rt;
    BareTarget bare(bare_rt);
    RandomProgram(fuzz.seed).Run(bare);

    ASSERT_EQ(traced_rt.Log().size(), bare_rt.Log().size());
    for (std::size_t i = 0; i < traced_rt.Log().size(); ++i) {
        ASSERT_EQ(traced_rt.Log()[i].token, bare_rt.Log()[i].token)
            << "stream diverged at op " << i << " (seed " << fuzz.seed
            << ")";
        ASSERT_EQ(traced_rt.Log()[i].dependences,
                  bare_rt.Log()[i].dependences)
            << "graph diverged at op " << i << " (seed " << fuzz.seed
            << ")";
    }
    // No mismatches may ever be raised by automatic tracing.
    EXPECT_EQ(traced_rt.Stats().trace_mismatches, 0u);
    // Untraceable operations never appear inside traces.
    for (const auto& op : traced_rt.Log()) {
        if (!op.launch.traceable) {
            ASSERT_EQ(op.trace, rt::kNoTrace);
        }
    }
}

TEST_P(DifferentialFuzz, StreamDigestSeesEverySingleChange)
{
    // The digest's properties (stream_digest_properties.h) over the
    // traced run's log of every corpus program.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime traced_rt;
    core::Apophenia fe(traced_rt, config);
    RandomProgram(fuzz.seed).Run(fe);
    fe.Flush();
    test::ExpectDigestProperties(traced_rt.Log(), fuzz.seed);
}

TEST_P(DifferentialFuzz, TracedCoherenceStateEqualsUntraced)
{
    // Replays analyse only the requirements that can see pre-fragment
    // state and write each fragment's coherence summary at its end.
    // Edges catch a wrong summary only once a later operation reads
    // the stale entry; this pins the state itself: after the program,
    // the traced runtime's dependence-analyzer state and region forest
    // must equal the untraced runtime's, byte for byte.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime traced_rt;
    core::Apophenia fe(traced_rt, config);
    RandomProgram(fuzz.seed).Run(fe);
    fe.Flush();

    rt::Runtime bare_rt;
    BareTarget bare(bare_rt);
    RandomProgram(fuzz.seed).Run(bare);

    EXPECT_TRUE(test::CoherenceImage(traced_rt) ==
                test::CoherenceImage(bare_rt))
        << "coherence state diverged (seed " << fuzz.seed << ")";
}

TEST_P(DifferentialFuzz, PooledMiningMatchesInlineDecisions)
{
    // The ingestion rule's determinism contract: a front end ingests
    // each mining job at the task that launched it, running the job
    // there unless a worker started it first. So mining on background
    // threads, a WorkerPool's or a TaskTeam's, must reproduce the
    // InlineExecutor's decisions exactly: the same stream, analysis
    // modes, trace ids and dependences, and the same candidates
    // ingested at the same positions.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime inline_rt;
    core::Apophenia inline_fe(inline_rt, config);
    RandomProgram(fuzz.seed).Run(inline_fe);
    inline_fe.Flush();

    // Both outlive every front end that borrows them.
    support::WorkerPool pool(3);
    support::TaskTeam team(3);
    for (support::Executor* executor :
         {static_cast<support::Executor*>(&pool),
          static_cast<support::Executor*>(&team)}) {
        SCOPED_TRACE(executor == &pool ? "WorkerPool" : "TaskTeam");
        rt::Runtime pooled_rt;
        core::Apophenia pooled_fe(pooled_rt, config, executor);
        RandomProgram(fuzz.seed).Run(pooled_fe);
        pooled_fe.Flush();

        const rt::OperationLog& pooled = pooled_rt.Log();
        const rt::OperationLog& inlined = inline_rt.Log();
        ASSERT_EQ(pooled.size(), inlined.size());
        for (std::size_t i = 0; i < pooled.size(); ++i) {
            ASSERT_EQ(pooled[i].token, inlined[i].token)
                << "stream diverged at op " << i << " (seed " << fuzz.seed
                << ")";
            ASSERT_EQ(pooled[i].mode, inlined[i].mode)
                << "analysis mode diverged at op " << i << " (seed "
                << fuzz.seed << ")";
            ASSERT_EQ(pooled[i].trace, inlined[i].trace)
                << "trace decision diverged at op " << i << " (seed "
                << fuzz.seed << ")";
            ASSERT_EQ(pooled[i].dependences, inlined[i].dependences)
                << "graph diverged at op " << i << " (seed " << fuzz.seed
                << ")";
        }
        EXPECT_EQ(pooled_fe.CandidateDigest(), inline_fe.CandidateDigest());
        EXPECT_EQ(pooled_fe.Stats().traces_fired,
                  inline_fe.Stats().traces_fired);
        EXPECT_EQ(pooled_fe.Stats().jobs_ingested,
                  inline_fe.Stats().jobs_ingested);
        EXPECT_EQ(pooled_rt.Stats().trace_mismatches, 0u);
    }
}

TEST_P(DifferentialFuzz, EveryJobMatchesTheReferenceMiner)
{
    // The finder's memo contract over the whole fuzz corpus: at
    // namespace 0 and a salted namespace, with a private memo and a
    // shared one, every ingested job's candidate set equals MineSlice
    // over its window (tests/reference_miner.h).
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime bare_rt;
    BareTarget bare(bare_rt);
    RandomProgram(fuzz.seed).Run(bare);
    std::vector<rt::TokenHash> stream;
    for (std::size_t i = 0; i < bare_rt.Log().size(); ++i) {
        stream.push_back(bare_rt.Log()[i].token);
    }
    test::ExpectEveryMemoMatchesReferenceMiner(
        stream, config, "seed " + std::to_string(fuzz.seed));
}

TEST_P(DifferentialFuzz, WindowedReductionMatchesRetained)
{
    // The streaming-aware windowed transitive reduction must produce
    // edge sets identical to the retained clone-and-reduce transform
    // on every corpus program — including programs with replayed
    // fragments, whose template-sourced edges are the interesting
    // input shape.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    rt::Runtime traced_rt;
    core::Apophenia fe(traced_rt, config);
    RandomProgram(fuzz.seed).Run(fe);
    fe.Flush();

    for (const std::size_t window : {64u, 30000u}) {
        SCOPED_TRACE("window " + std::to_string(window));
        rt::OperationLog retained = traced_rt.Log().Clone();
        const std::size_t removed =
            rt::TransitiveReduction(retained, window);

        rt::WindowedTransitiveReducer reducer(window);
        std::vector<rt::Dependence> scratch;
        for (std::size_t i = 0; i < traced_rt.Log().size(); ++i) {
            scratch.assign(traced_rt.Log()[i].dependences.begin(),
                           traced_rt.Log()[i].dependences.end());
            reducer.Reduce(i, scratch);
            ASSERT_EQ(retained[i].dependences, scratch)
                << "reduced edges diverged at op " << i << " (seed "
                << fuzz.seed << ")";
        }
        EXPECT_EQ(reducer.RemovedEdges(), removed);
    }
}

// ---------------------------------------------------------------------------
// The multi-tenant service leg: an M-tenant *interleaved* service run
// must be bit-identical, per tenant, to M independent single-tenant
// runs — over the same random corpus every other differential check
// uses. RandomProgram issues in one shot, so the corpus programs are
// first recorded as virtual-region op lists and then replayed in
// round-robin chunks through the tenants' sessions.

/** One recorded front-end call, with virtual region ids. */
struct RecordedOp {
    enum class Kind { kCreate, kDestroy, kPartition, kTask };
    Kind kind = Kind::kTask;
    rt::RegionId region;  ///< kCreate result / kDestroy / kPartition parent
    std::size_t count = 0;               ///< kPartition
    std::vector<rt::RegionId> results;   ///< kPartition virtual children
    rt::TaskLaunch launch;               ///< kTask (virtual region ids)
};

/** A RandomProgram target that records instead of executing. */
class RecordingTarget {
  public:
    rt::RegionId CreateRegion()
    {
        const rt::RegionId id{next_++};
        RecordedOp op;
        op.kind = RecordedOp::Kind::kCreate;
        op.region = id;
        ops_.push_back(std::move(op));
        return id;
    }

    void DestroyRegion(rt::RegionId r)
    {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kDestroy;
        op.region = r;
        ops_.push_back(std::move(op));
    }

    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t n)
    {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kPartition;
        op.region = parent;
        op.count = n;
        for (std::size_t i = 0; i < n; ++i) {
            op.results.push_back(rt::RegionId{next_++});
        }
        ops_.push_back(std::move(op));
        return ops_.back().results;
    }

    void ExecuteTask(const rt::TaskLaunch& t)
    {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kTask;
        op.launch = t;
        ops_.push_back(std::move(op));
    }

    std::vector<RecordedOp> Take() { return std::move(ops_); }

  private:
    std::vector<RecordedOp> ops_;
    std::uint64_t next_ = 1;
};

/** Replays a recorded op list against a front end one op at a time,
 * mapping virtual region ids to the target's real ones. */
class OpReplayer {
  public:
    OpReplayer(api::Frontend& fe, const std::vector<RecordedOp>& ops)
        : fe_(&fe), ops_(&ops)
    {
    }

    bool Done() const { return at_ >= ops_->size(); }

    void Step()
    {
        const RecordedOp& op = (*ops_)[at_++];
        switch (op.kind) {
          case RecordedOp::Kind::kCreate:
            map_[op.region.value] = fe_->CreateRegion();
            break;
          case RecordedOp::Kind::kDestroy:
            fe_->DestroyRegion(map_.at(op.region.value));
            map_.erase(op.region.value);
            break;
          case RecordedOp::Kind::kPartition: {
            const std::vector<rt::RegionId> real =
                fe_->PartitionRegion(map_.at(op.region.value), op.count);
            for (std::size_t i = 0; i < op.results.size(); ++i) {
                map_[op.results[i].value] = real[i];
            }
            break;
          }
          case RecordedOp::Kind::kTask: {
            rt::TaskLaunch launch = op.launch;
            for (rt::RegionRequirement& req : launch.requirements) {
                req.region = map_.at(req.region.value);
            }
            fe_->ExecuteTask(launch);
            break;
          }
        }
    }

  private:
    api::Frontend* fe_;
    const std::vector<RecordedOp>* ops_;
    std::size_t at_ = 0;
    std::unordered_map<std::uint64_t, rt::RegionId> map_;
};

TEST_P(DifferentialFuzz, MultiTenantServiceEqualsIndependentRuns)
{
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    // Three tenants; tenants 0 and 2 run the *same* program under
    // different namespaces, so the shared mining cache's cross-tenant
    // adoption path is active during the differential check.
    const std::uint64_t seeds[3] = {fuzz.seed, fuzz.seed + 100,
                                    fuzz.seed};
    std::vector<std::vector<RecordedOp>> programs;
    for (const std::uint64_t seed : seeds) {
        RecordingTarget recorder;
        RandomProgram(seed).Run(recorder);
        programs.push_back(recorder.Take());
    }

    svc::ServiceOptions service_options;
    service_options.config = config;
    svc::TraceService service(service_options);
    for (std::size_t t = 0; t < programs.size(); ++t) {
        svc::TenantOptions tenant;
        tenant.name = "fuzz" + std::to_string(t);
        service.AddTenant(tenant);
    }
    {
        std::vector<OpReplayer> replayers;
        for (std::size_t t = 0; t < programs.size(); ++t) {
            replayers.emplace_back(service.Session(t), programs[t]);
        }
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t t = 0; t < replayers.size(); ++t) {
                const bool was_done = replayers[t].Done();
                for (int k = 0; k < 7 && !replayers[t].Done(); ++k) {
                    replayers[t].Step();
                    progress = true;
                }
                if (!was_done && replayers[t].Done()) {
                    service.Session(t).Flush();
                }
            }
        }
    }

    for (std::size_t t = 0; t < programs.size(); ++t) {
        SCOPED_TRACE("tenant " + std::to_string(t) + " (seed " +
                     std::to_string(seeds[t]) + ")");
        // The independent reference: a single-tenant service pinned to
        // the same namespace, running the same program alone.
        svc::TraceService solo(service_options);
        svc::TenantOptions tenant;
        tenant.name = "solo";
        tenant.name_space = service.TenantNamespace(t);
        solo.AddTenant(tenant);
        OpReplayer replayer(solo.Session(0), programs[t]);
        while (!replayer.Done()) {
            replayer.Step();
        }
        solo.Session(0).Flush();

        const rt::OperationLog& interleaved = service.TenantRuntime(t).Log();
        const rt::OperationLog& alone = solo.TenantRuntime(0).Log();
        ASSERT_EQ(interleaved.size(), alone.size());
        for (std::size_t i = 0; i < interleaved.size(); ++i) {
            ASSERT_EQ(interleaved[i].token, alone[i].token)
                << "stream diverged at op " << i;
            ASSERT_EQ(interleaved[i].mode, alone[i].mode)
                << "analysis mode diverged at op " << i;
            ASSERT_EQ(interleaved[i].trace, alone[i].trace)
                << "trace decision diverged at op " << i;
            ASSERT_EQ(interleaved[i].dependences, alone[i].dependences)
                << "graph diverged at op " << i;
        }
        // The finders mined/adopted identical candidate sets — shared-
        // cache adoption in the interleaved run is bit-identical to
        // mining alone.
        EXPECT_EQ(service.TenantEngine(t).CandidateDigest(),
                  solo.TenantEngine(0).CandidateDigest());
        EXPECT_EQ(service.TenantEngine(t).Stats().traces_fired,
                  solo.TenantEngine(0).Stats().traces_fired);
        EXPECT_EQ(service.TenantEngine(t).Stats().jobs_ingested,
                  solo.TenantEngine(0).Stats().jobs_ingested);
    }
}

TEST_P(DifferentialFuzz, CrashAndRejoinAtRandomCutMatchesChurnFree)
{
    // Runtime images at random cuts over the whole corpus, on the path
    // that restores them: node 1 of a 3-node shared-decision cluster
    // crashes at a seeded cut and rejoins halfway from there to the
    // end of the stream, installing the newest checkpoint and
    // replaying the decision tail retained since it. Every node's
    // stream and the decider's candidates must equal a churn-free
    // cluster's.
    const FuzzCase fuzz = GetParam();
    core::ApopheniaConfig config;
    config.min_trace_length = fuzz.min_trace_length;
    config.max_trace_length = fuzz.max_trace_length;
    config.batchsize = fuzz.batchsize;
    config.multi_scale_factor =
        std::max<std::size_t>(fuzz.batchsize / 16, 8);

    const auto run = [&](sim::ClusterOptions options) {
        options.coordination.nodes = 3;
        options.config = config;
        auto cluster = std::make_unique<sim::Cluster>(options);
        RandomProgram(fuzz.seed).Run(*cluster);
        cluster->Flush();
        cluster->DrainLogStreams();
        return cluster;
    };
    const auto digests_of = [](const sim::Cluster& cluster) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
        for (std::size_t n = 0; n < cluster.Nodes(); ++n) {
            const sim::StreamDigest d = cluster.NodeDigest(n);
            digests.emplace_back(d.Value(), d.Count());
        }
        return digests;
    };
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streaming" : "retained");
        sim::ClusterOptions options;
        options.stream_logs = streaming;
        const auto reference = run(options);
        const std::uint64_t total = reference->Stats().tasks_executed;

        support::Rng cut_rng(fuzz.seed * 9176 + 11);
        const std::uint64_t cut =
            cut_rng.UniformInt(total / 4, 3 * total / 4);
        options.checkpoint_interval_tasks =
            std::max<std::uint64_t>(total / 8, 16);
        options.fault_plan.events.push_back(
            {.node = 1, .crash_at_task = cut,
             .rejoin_at_task = cut + (total - cut) / 2});
        const auto churned = run(options);

        const sim::FaultStats& fault = churned->FaultRecovery();
        EXPECT_EQ(fault.crashes, 1u) << "cut " << cut << " of " << total;
        EXPECT_EQ(fault.rejoins, 1u);
        EXPECT_TRUE(churned->StreamDigestsAgree());
        EXPECT_EQ(digests_of(*churned), digests_of(*reference));
        EXPECT_EQ(churned->Decider().CandidateDigest(),
                  reference->Decider().CandidateDigest());
    }
}

std::vector<FuzzCase> MakeCases()
{
    std::vector<FuzzCase> cases;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        cases.push_back(FuzzCase{seed, 5, 5000, 800});
    }
    // Stressier configurations on a few seeds.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cases.push_back(FuzzCase{seed, 2, 7, 200});     // tiny traces
        cases.push_back(FuzzCase{seed, 30, 5000, 300}); // long min
        cases.push_back(FuzzCase{seed, 5, 5000, 64});   // tiny buffer
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace apo
