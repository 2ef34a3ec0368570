/**
 * @file
 * apobench — the end-to-end benchmark of the task-issue path.
 *
 * Five fixed-size, closed-loop workloads run through the real stack;
 * every repetition is a separate process (this binary re-executed
 * with --rep), so each one starts cold and reports its own peak RSS.
 * Every run also re-derives each workload's issued stream under its
 * reference configuration (--reference) and fails any repetition
 * whose stream or candidate digest differs.
 *
 * Usage (through bench/e2e/run.sh, which builds first):
 *
 *   run.sh [--workload W] [--seed N] [--quick] [--trace] [--sets=K]
 *       Full run: at least 3 repetitions (and 3 s of them) of every
 *       workload, interleaved round-robin, plus the reference check
 *       and one traced repetition per workload, which writes
 *       build-e2e/trace_<workload>.json. Prints every end-to-end
 *       metric; --trace also prints the per-layer table. --quick runs
 *       every workload at 1/20 of its size. --sets=K runs K full sets
 *       and compares each to the first against the metrics' bounds.
 *
 *   run.sh --workload W --seed N --seconds S --trace 0|1
 *       One workload, repeated until S seconds of repetitions have
 *       run (at least three). The last line of stdout is one JSON
 *       object: {"correct", "attempted", "failed", "metrics"} with the
 *       end-to-end metrics (--trace 0) or the per-layer ones (1).
 */
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace apobench {
namespace {

/** Full runs: every workload gets at least kRepetitions repetitions
 * and kFullSeconds of them (× the --quick scale), so the short ones
 * get enough repetitions for min-of-k. */
constexpr std::size_t kRepetitions = 3;
constexpr double kFullSeconds = 3.0;
constexpr double kQuickScale = 1.0 / 20.0;

enum class Kind { kMeasured, kCount, kModelled };

/** An end-to-end metric. The measured ones are BENCHMARK.json's
 * end_to_end metrics, with the regression bounds recorded there (see
 * README.md for the spreads they were derived from). */
struct MetricDef {
    const char* name;
    const char* unit;
    Kind kind;
    double bound;
};

constexpr MetricDef kEndToEnd[] = {
    {"tasks_per_s", "tasks/s", Kind::kMeasured, 0.20},
    {"issue_ns_per_task_p50", "ns", Kind::kMeasured, 0.20},
    {"issue_ns_per_task_p99", "ns", Kind::kMeasured, 0.20},
    {"setup_s", "s", Kind::kMeasured, 0.25},
    {"peak_rss_mb", "MB", Kind::kMeasured, 0.10},
    {"failed_frac", "1", Kind::kCount, 0.0},
    {"sim_iters_per_s", "iters/s", Kind::kModelled, 0.0},
    {"replayed_frac", "1", Kind::kModelled, 0.0},
    {"warmup_iters", "iters", Kind::kModelled, 0.0},
};

/** Per-layer metrics as BENCHMARK.json lists them (with their units):
 * the traced repetitions' layer metrics plus the tracing overhead. */
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"apps.self_ns_per_task", "ns"},
    {"apps.region_ops_per_ktask", "count"},
    {"core.self_ns_per_task", "ns"},
    {"core.self_growth", "ratio"},
    {"core.trie_candidates", "count"},
    {"core.trie_nodes", "count"},
    {"core.pending_high_water", "count"},
    {"core.replay_fire_frac", "ratio"},
    {"core.finder.busy_ns_per_task", "ns"},
    {"core.finder.ns_per_job", "ns"},
    {"core.finder.jobs_per_ktask", "count"},
    {"core.finder.fast_path_frac", "ratio"},
    {"core.finder.repair_frac", "ratio"},
    {"core.finder.full_frac", "ratio"},
    {"core.finder.cache_hit_frac", "ratio"},
    {"core.finder.candidates_per_job", "count"},
    {"runtime.self_ns_per_task", "ns"},
    {"runtime.analyze_ns_per_task", "ns"},
    {"runtime.replay_ns_per_task", "ns"},
    {"runtime.replayed_task_frac", "ratio"},
    {"runtime.trace_templates", "count"},
    {"runtime.log_peak_bytes", "bytes"},
    {"sim.consumer_ns_per_task", "ns"},
    {"sim.modelled_iters_per_s", "iters/s"},
    {"sim.modelled_warmup_iters", "iters"},
    {"sim.cluster.self_ns_per_task", "ns"},
    {"sim.cluster.decision_ns_per_task", "ns"},
    {"sim.cluster.apply_ns_per_task_per_node", "ns"},
    {"sim.cluster.batches_per_ktask", "count"},
    {"sim.cluster.max_stall_tasks", "tasks"},
    {"svc.self_ns_per_task", "ns"},
    {"svc.cross_tenant_sharing", "ratio"},
    {"probe.self_ns_per_task", "ns"},
    {"trace_overhead_frac", "ratio"},
};

const char*
KindName(Kind kind)
{
    switch (kind) {
      case Kind::kMeasured:
        return "measured";
      case Kind::kCount:
        return "count";
      case Kind::kModelled:
        return "modelled";
    }
    return "?";
}

// -- Child processes ------------------------------------------------------------

std::string g_self;  ///< this executable, for re-execution

/** Run this binary with `args`; returns its stdout, or nothing if it
 * failed. The child's stderr passes through. */
std::optional<std::string>
RunChild(const std::vector<std::string>& args)
{
    int fds[2];
    if (pipe(fds) != 0) {
        throw std::runtime_error("pipe failed");
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char*> argv;
        argv.push_back(g_self.data());
        for (const std::string& arg : args) {
            argv.push_back(const_cast<char*>(arg.c_str()));
        }
        argv.push_back(nullptr);
        execv(g_self.c_str(), argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string out;
    char buffer[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buffer, sizeof buffer);
        if (n > 0) {
            out.append(buffer, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return std::nullopt;
    }
    return out;
}

std::vector<std::string>
ChildArgs(const char* mode, const std::string& workload, std::uint64_t seed,
          double scale)
{
    char scale_text[64];
    std::snprintf(scale_text, sizeof scale_text, "%.17g", scale);
    return {mode, workload, "--seed", std::to_string(seed), "--scale",
            scale_text};
}

std::string
TracePath(const std::string& workload)
{
    const std::size_t slash = g_self.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : g_self.substr(0, slash);
    return dir + "/trace_" + workload + ".json";
}

// -- Statistics -----------------------------------------------------------------

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (at - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
Median(const std::vector<double>& values)
{
    return Quantile(values, 0.5);
}

/**
 * The timed window at min-of-k: every repetition of a workload at one
 * seed issues the same iteration sequence, and interference from
 * other tenants of a shared host only ever adds time, so each
 * iteration's fastest time over the k repetitions is its cost with
 * the least interference. The rest of the window (the gaps between
 * iterations and the final Flush) is one more segment.
 */
struct FastestWindow {
    std::vector<IterationSample> iterations;
    std::int64_t rest_ns = 0;
    std::uint64_t tasks = 0;

    double TasksPerSecond() const
    {
        double ns = static_cast<double>(rest_ns);
        for (const IterationSample& it : iterations) {
            ns += static_cast<double>(it.ns);
        }
        return ns <= 0.0 ? 0.0 : static_cast<double>(tasks) * 1e9 / ns;
    }
    std::vector<double> NsPerTask() const
    {
        std::vector<double> out;
        out.reserve(iterations.size());
        for (const IterationSample& it : iterations) {
            if (it.tasks > 0) {
                out.push_back(static_cast<double>(it.ns) /
                              static_cast<double>(it.tasks));
            }
        }
        return out;
    }
};

/** @return nothing when the repetitions issued different sequences. */
std::optional<FastestWindow>
Fastest(const std::vector<RepResult>& reps)
{
    FastestWindow window;
    for (std::size_t r = 0; r < reps.size(); ++r) {
        const RepResult& rep = reps[r];
        std::int64_t rest = rep.timed_ns;
        for (const IterationSample& it : rep.samples) {
            rest -= it.ns;
        }
        if (r == 0) {
            window.iterations = rep.samples;
            window.rest_ns = rest;
            window.tasks = rep.tasks_timed;
            continue;
        }
        if (rep.samples.size() != window.iterations.size() ||
            rep.tasks_timed != window.tasks) {
            return std::nullopt;
        }
        for (std::size_t i = 0; i < rep.samples.size(); ++i) {
            IterationSample& fastest = window.iterations[i];
            if (rep.samples[i].tasks != fastest.tasks) {
                return std::nullopt;
            }
            fastest.ns = std::min(fastest.ns, rep.samples[i].ns);
        }
        window.rest_ns = std::min(window.rest_ns, rest);
    }
    return window;
}

double
TasksPerSecond(const std::vector<RepResult>& reps)
{
    const std::optional<FastestWindow> window = Fastest(reps);
    return window.has_value() ? window->TasksPerSecond() : 0.0;
}

// -- One workload's repetitions ---------------------------------------------------

struct WorkloadRun {
    const WorkloadSpec* spec = nullptr;
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::vector<Identity> reference;
    std::vector<RepResult> reps;
    std::vector<RepResult> traced;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::int64_t rep_wall_ns = 0;
    std::vector<std::string> problems;

    bool Correct() const { return problems.empty() && failed == 0; }
};

void
RunReferenceOf(WorkloadRun& run)
{
    const std::optional<std::string> out = RunChild(
        ChildArgs("--reference", run.spec->name, run.seed, run.scale));
    if (!out.has_value() || !ParseIdentities(*out, &run.reference)) {
        run.problems.push_back("the reference configuration failed");
    }
}

/** One repetition process; checks its streams against the reference
 * and counts its tasks as failed when they differ or it failed. */
void
RunRepOf(WorkloadRun& run, bool traced)
{
    std::vector<std::string> args =
        ChildArgs("--rep", run.spec->name, run.seed, run.scale);
    if (traced) {
        args.push_back("--traced");
        args.push_back(TracePath(run.spec->name));
    }
    const std::int64_t t0 = NowNs();
    const std::optional<std::string> out = RunChild(args);
    run.rep_wall_ns += NowNs() - t0;
    RepResult rep;
    if (!out.has_value() || !ParseRep(*out, &rep)) {
        // The repetition threw: every task it would have issued fails.
        const std::uint64_t tasks =
            run.reps.empty() ? 1 : run.reps.back().tasks_total;
        run.attempted += tasks;
        run.failed += tasks;
        run.problems.push_back(std::string(traced ? "a traced" : "a") +
                               " repetition failed");
        return;
    }
    run.attempted += rep.tasks_total;
    std::vector<RepResult>& same_kind = traced ? run.traced : run.reps;
    if (!same_kind.empty() &&
        !Fastest({same_kind.front(), rep}).has_value()) {
        run.failed += rep.tasks_total;
        run.problems.push_back(
            "a repetition issued a different iteration sequence");
    } else if (rep.identities != run.reference || !rep.replicas_agree) {
        run.failed += rep.tasks_total;
        run.problems.push_back(
            rep.replicas_agree
                ? "a repetition's stream differs from the reference"
                : "a repetition's replicas diverged");
    } else {
        run.failed += rep.tasks_rewound;
    }
    same_kind.push_back(std::move(rep));
}

/** A metric's value with the sample count it rests on. */
struct Value {
    double value = 0.0;
    std::uint64_t samples = 0;
    const char* of = "";
};

std::map<std::string, Value>
EndToEnd(const WorkloadRun& run)
{
    std::map<std::string, Value> out;
    const std::uint64_t reps = run.reps.size();
    std::vector<double> setup;
    std::vector<double> rss;
    for (const RepResult& rep : run.reps) {
        setup.push_back(static_cast<double>(rep.setup_ns) / 1e9);
        rss.push_back(rep.peak_rss_kb / 1024.0);
    }
    const FastestWindow window = Fastest(run.reps).value_or(FastestWindow{});
    const std::vector<double> ns_per_task = window.NsPerTask();
    out["tasks_per_s"] = {window.TasksPerSecond(), reps, "reps"};
    out["issue_ns_per_task_p50"] = {Quantile(ns_per_task, 0.50),
                                    ns_per_task.size(), "iterations"};
    out["issue_ns_per_task_p99"] = {Quantile(ns_per_task, 0.99),
                                    ns_per_task.size(), "iterations"};
    out["setup_s"] = {Median(setup), reps, "reps"};
    out["peak_rss_mb"] = {Median(rss), reps, "reps"};
    out["failed_frac"] = {
        run.attempted == 0 ? 1.0
                           : static_cast<double>(run.failed) /
                                 static_cast<double>(run.attempted),
        run.attempted, "tasks"};
    // Modelled: one value per stream (per tenant in svc_fleet8);
    // throughput is their geometric mean, warmup the worst tenant's and
    // the replayed fraction is weighted by stream length.
    const std::vector<Identity>& ids = run.reference;
    double log_ips = 0.0;
    double replayed = 0.0;
    double ops = 0.0;
    std::uint64_t warmup = 0;
    for (const Identity& id : ids) {
        log_ips += std::log(id.sim_iters_per_s);
        replayed += id.replayed_frac * static_cast<double>(id.stream_ops);
        ops += static_cast<double>(id.stream_ops);
        warmup = std::max(warmup, id.warmup_iters);
    }
    const std::uint64_t streams = ids.size();
    out["sim_iters_per_s"] = {
        ids.empty() ? 0.0 : std::exp(log_ips / static_cast<double>(streams)),
        streams, "streams"};
    out["replayed_frac"] = {ops == 0.0 ? 0.0 : replayed / ops, streams,
                            "streams"};
    out["warmup_iters"] = {static_cast<double>(warmup), streams, "streams"};
    return out;
}

std::map<std::string, double>
PerLayer(const WorkloadRun& run)
{
    std::map<std::string, std::vector<double>> values;
    for (const RepResult& rep : run.traced) {
        for (const auto& [name, value] : rep.layers) {
            values[name].push_back(value);
        }
    }
    std::map<std::string, double> out;
    for (const auto& [name, samples] : values) {
        out[name] = Median(samples);
    }
    const double untraced = TasksPerSecond(run.reps);
    out["trace_overhead_frac"] =
        untraced == 0.0 ? 0.0 : 1.0 - TasksPerSecond(run.traced) / untraced;
    // The performance model's outputs: the `sim` layer's view of the
    // same run (modelled — equal on every run of the same code).
    const std::map<std::string, Value> modelled = EndToEnd(run);
    out["sim.modelled_iters_per_s"] = modelled.at("sim_iters_per_s").value;
    out["sim.modelled_warmup_iters"] = modelled.at("warmup_iters").value;
    return out;
}

// -- Output -----------------------------------------------------------------------

void
PrintEndToEnd(const std::vector<WorkloadRun>& runs)
{
    std::printf("%-17s %-22s %16s %-8s %-9s %s\n", "workload", "metric",
                "value", "unit", "kind", "samples");
    for (const WorkloadRun& run : runs) {
        const std::map<std::string, Value> values = EndToEnd(run);
        for (const MetricDef& metric : kEndToEnd) {
            const Value& v = values.at(metric.name);
            std::printf("%-17s %-22s %16.6g %-8s %-9s %llu %s\n",
                        run.spec->name, metric.name, v.value, metric.unit,
                        KindName(metric.kind),
                        static_cast<unsigned long long>(v.samples), v.of);
        }
        for (const std::string& problem : run.problems) {
            std::printf("%-17s FAILED: %s\n", run.spec->name,
                        problem.c_str());
        }
    }
}

void
PrintPerLayer(const std::vector<WorkloadRun>& runs)
{
    std::vector<std::map<std::string, double>> layers;
    std::printf("\n%-40s", "per-layer (traced run)");
    for (const WorkloadRun& run : runs) {
        layers.push_back(PerLayer(run));
        std::printf(" %16s", run.spec->name);
    }
    std::printf("\n");
    auto row = [&](const char* name) {
        std::printf("%-40s", name);
        for (const auto& values : layers) {
            const auto it = values.find(name);
            std::printf(" %16.6g", it == values.end() ? 0.0 : it->second);
        }
        std::printf("\n");
    };
    for (const auto& [name, unit] : kPerLayer) {
        (void)unit;
        row(name);
    }
    row("probe.spans_dropped");
    for (const WorkloadRun& run : runs) {
        std::printf("trace: %s\n", TracePath(run.spec->name).c_str());
    }
}

void
PrintDriverJson(const WorkloadRun& run, bool per_layer)
{
    std::string metrics;
    auto add = [&](const char* name, double value, const char* unit) {
        char buffer[256];
        std::snprintf(buffer, sizeof buffer,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", name, value, unit);
        metrics += buffer;
    };
    if (per_layer) {
        const std::map<std::string, double> values = PerLayer(run);
        for (const auto& [name, unit] : kPerLayer) {
            const auto it = values.find(name);
            add(name, it == values.end() ? 0.0 : it->second, unit);
        }
    } else {
        const std::map<std::string, Value> values = EndToEnd(run);
        for (const MetricDef& metric : kEndToEnd) {
            if (metric.kind == Kind::kMeasured) {
                add(metric.name, values.at(metric.name).value, metric.unit);
            }
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                run.Correct() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    1, run.attempted)),
                static_cast<unsigned long long>(run.failed), metrics.c_str());
}

/** --sets: compare a later set against the first. Measured metrics
 * must agree within their bound, modelled ones exactly, and the
 * failure count may not rise. */
bool
CompareSets(const std::vector<WorkloadRun>& first,
            const std::vector<WorkloadRun>& later, std::size_t set)
{
    bool ok = true;
    std::printf("\nset %zu vs set 1\n%-17s %-22s %16s %16s %8s %7s %s\n",
                set, "workload", "metric", "set 1", "this set", "diff",
                "bound", "");
    for (std::size_t w = 0; w < first.size(); ++w) {
        const std::map<std::string, Value> a = EndToEnd(first[w]);
        const std::map<std::string, Value> b = EndToEnd(later[w]);
        for (const MetricDef& metric : kEndToEnd) {
            const double va = a.at(metric.name).value;
            const double vb = b.at(metric.name).value;
            const double diff = va == 0.0 ? (vb == 0.0 ? 0.0 : 1.0)
                                          : std::abs(vb - va) / va;
            bool agree = true;
            switch (metric.kind) {
              case Kind::kMeasured:
                agree = diff <= metric.bound;
                break;
              case Kind::kCount:
                agree = vb <= va;
                break;
              case Kind::kModelled:
                agree = va == vb;
                break;
            }
            ok = ok && agree;
            std::printf("%-17s %-22s %16.6g %16.6g %7.2f%% %6.0f%% %s\n",
                        first[w].spec->name, metric.name, va, vb,
                        100.0 * diff, 100.0 * metric.bound,
                        agree ? "ok" : "DIFFERS");
        }
    }
    return ok;
}

// -- Modes ------------------------------------------------------------------------

struct Options {
    std::vector<const WorkloadSpec*> workloads;
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::optional<double> seconds;
    bool trace = false;
    std::size_t sets = 1;
};

/** The reference run of every workload, in order. */
std::vector<WorkloadRun>
StartRuns(const Options& options)
{
    std::vector<WorkloadRun> runs;
    for (const WorkloadSpec* spec : options.workloads) {
        WorkloadRun run;
        run.spec = spec;
        run.seed = options.seed;
        run.scale = options.scale;
        RunReferenceOf(run);
        runs.push_back(std::move(run));
    }
    return runs;
}

/**
 * Whole repetitions, round-robin across the workloads so a noisy
 * stretch of a shared host hits all of them, until each has at least
 * `min_rounds` rounds and `budget_ns` of repetition wall time (a run
 * that failed stops early). With `traced_pairs` every round is a
 * measured and a traced repetition.
 */
void
RunRounds(std::vector<WorkloadRun>& runs, std::size_t min_rounds,
          std::int64_t budget_ns, bool traced_pairs)
{
    for (std::size_t round = 0;; ++round) {
        bool ran = false;
        for (WorkloadRun& run : runs) {
            if (!run.Correct() ||
                (round >= min_rounds && run.rep_wall_ns >= budget_ns)) {
                continue;
            }
            RunRepOf(run, /*traced=*/false);
            if (traced_pairs) {
                RunRepOf(run, /*traced=*/true);
            }
            ran = true;
        }
        if (!ran) {
            return;
        }
    }
}

/** A full set: references, at least R rounds and kFullSeconds of
 * interleaved repetitions, one traced repetition per workload. */
std::vector<WorkloadRun>
RunSet(const Options& options)
{
    std::vector<WorkloadRun> runs = StartRuns(options);
    RunRounds(runs, kRepetitions,
              static_cast<std::int64_t>(kFullSeconds * options.scale * 1e9),
              /*traced_pairs=*/false);
    for (WorkloadRun& run : runs) {
        RunRepOf(run, /*traced=*/true);
    }
    return runs;
}

int
FullMode(const Options& options)
{
    std::vector<std::vector<WorkloadRun>> sets;
    bool ok = true;
    for (std::size_t s = 0; s < options.sets; ++s) {
        sets.push_back(RunSet(options));
        if (options.sets > 1) {
            std::printf("\n== set %zu of %zu\n", s + 1, options.sets);
        }
        PrintEndToEnd(sets.back());
        if (options.trace) {
            PrintPerLayer(sets.back());
        }
        for (const WorkloadRun& run : sets.back()) {
            ok = ok && run.Correct();
        }
    }
    for (std::size_t s = 1; s < sets.size(); ++s) {
        ok = CompareSets(sets.front(), sets[s], s + 1) && ok;
    }
    return ok ? 0 : 1;
}

int
DriverMode(const Options& options)
{
    std::vector<WorkloadRun> runs = StartRuns(options);
    // At least three measured repetitions (set-up is their median), or
    // with --trace 1 pairs of a measured and a traced one (the tracing
    // overhead is their ratio).
    RunRounds(runs, options.trace ? 1 : kRepetitions,
              static_cast<std::int64_t>(*options.seconds * 1e9),
              options.trace);
    PrintDriverJson(runs.front(), options.trace);
    return runs.front().Correct() ? 0 : 1;
}

/** --rep / --reference: the work of one child process. */
int
ChildMode(const std::string& mode, const RepSpec& spec)
{
    try {
        if (mode == "--reference") {
            WriteIdentities(stdout, RunReference(spec));
        } else {
            WriteRep(stdout, RunRep(spec));
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "apobench %s %s: %s\n", mode.c_str(),
                     spec.workload.c_str(), error.what());
        return 1;
    }
    return std::fflush(stdout) == 0 ? 0 : 1;
}

[[noreturn]] void
Usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "apobench: %s\n"
                 "usage: run.sh [--workload W] [--seed N] [--quick] "
                 "[--trace] [--sets=K]\n"
                 "       run.sh --workload W --seed N --seconds S "
                 "--trace 0|1\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
ParseUnsigned(const std::string& text, const char* what)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0) {
        Usage(std::string("bad ") + what + " '" + text + "'");
    }
    return value;
}

double
ParsePositive(const std::string& text, const char* what)
{
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value > 0.0) ||
        !std::isfinite(value)) {
        Usage(std::string("bad ") + what + " '" + text + "'");
    }
    return value;
}

}  // namespace
}  // namespace apobench

int
main(int argc, char** argv)
{
    using namespace apobench;
    char self[PATH_MAX];
    const ssize_t length = readlink("/proc/self/exe", self, sizeof self - 1);
    g_self = length > 0 ? std::string(self, static_cast<std::size_t>(length))
                        : std::string(argv[0]);

    std::vector<std::string> args(argv + 1, argv + argc);
    Options options;
    std::string child_mode;
    RepSpec child;
    auto value_of = [&](std::size_t& i) -> const std::string& {
        if (i + 1 >= args.size()) {
            Usage(args[i] + " needs a value");
        }
        return args[++i];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--rep" || arg == "--reference") {
            child_mode = arg;
            child.workload = value_of(i);
        } else if (arg == "--scale") {
            child.scale = ParsePositive(value_of(i), "scale");
        } else if (arg == "--traced") {
            child.traced = true;
            child.trace_path = value_of(i);
        } else if (arg == "--workload") {
            const std::string& name = value_of(i);
            const WorkloadSpec* spec = FindWorkload(name);
            if (spec == nullptr) {
                Usage("unknown workload '" + name + "'");
            }
            options.workloads.push_back(spec);
        } else if (arg == "--seed") {
            options.seed = ParseUnsigned(value_of(i), "seed");
        } else if (arg == "--seconds") {
            options.seconds = ParsePositive(value_of(i), "seconds");
        } else if (arg == "--trace") {
            // `--trace 0|1` (the driver form) or a bare `--trace`.
            if (i + 1 < args.size() && (args[i + 1] == "0" ||
                                        args[i + 1] == "1")) {
                options.trace = args[++i] == "1";
            } else {
                options.trace = true;
            }
        } else if (arg == "--quick") {
            options.scale = kQuickScale;
        } else if (arg.rfind("--sets=", 0) == 0) {
            options.sets = ParseUnsigned(arg.substr(7), "set count");
            if (options.sets == 0) {
                Usage("--sets needs at least one set");
            }
        } else {
            Usage("unknown argument '" + arg + "'");
        }
    }
    if (!child_mode.empty()) {
        child.seed = options.seed;
        return ChildMode(child_mode, child);
    }
    try {
        if (options.seconds.has_value()) {
            if (options.workloads.size() != 1) {
                Usage("--seconds runs exactly one --workload");
            }
            return DriverMode(options);
        }
        if (options.workloads.empty()) {
            for (const WorkloadSpec& spec : Workloads()) {
                options.workloads.push_back(&spec);
            }
        }
        return FullMode(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "apobench: %s\n", error.what());
        return 1;
    }
}
