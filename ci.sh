#!/usr/bin/env bash
# CI entry point: tier-1 build + tests, apobench's quick digest check
# and its reference-identity golden, an ASan+UBSan pass of the whole
# suite, a TSan pass of the threaded/stacked suites, and the perf records
# (BENCH_micro_repeats.json, committed so successive PRs keep a
# tokens/sec + scaling trajectory).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"

echo "== tier-1: build + ctest (warnings are errors) =="
cmake -B build -S . -DAPO_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== apobench: quick end-to-end run with reference-digest check =="
# Every workload at 1/20 of its size (~8 s). It exits 1 if any
# repetition fails, e.g. when its stream or candidate digest differs
# from the workload's reference configuration.
bash bench/e2e/run.sh --quick

echo "== apobench: reference identities against the committed golden =="
# --quick checks each run only against a reference built from the same
# code, so a change that alters both sides alike passes it. This pins
# the references themselves: every workload's identity lines at seed 1
# and full size (~5 s). After an intended behaviour change, regenerate:
#   tests/golden/apobench_reference.sh > tests/golden/apobench_reference_seed1.txt
tests/golden/apobench_reference.sh |
    diff -u tests/golden/apobench_reference_seed1.txt -

echo "== sanitizers: ASan + UBSan build + ctest, assertions on =="
# RelWithDebInfo's default flags define NDEBUG, which would compile out
# every assert in src/; this leg keeps its optimisation and debug info
# but drops NDEBUG, so the asserts run somewhere in CI.
cmake -B build-asan -S . -DAPO_SANITIZE=ON -DAPO_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== sanitizers: TSan executor stress + cluster simulation (parallel engine, 8 worker threads) + shared decision engine + front end + experiment stack + multi-tenant service + pooled fuzz corpus =="
tsan_suites=(support_executor_stress_test sim_cluster_test core_incremental_test
             core_decision_test core_apophenia_test sim_test
             sim_replicated_test svc_service_test svc_overload_test
             fault_checkpoint_test fault_membership_test
             fuzz_differential_test)
cmake -B build-tsan -S . -DAPO_TSAN=ON -DAPO_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" --target "${tsan_suites[@]}"
# APO_JOBS=8 forces every default-jobs cluster through the parallel
# per-node engine at >= 8 worker threads regardless of the host's core
# count, so TSan sees the real cross-thread traffic (TaskTeam barriers,
# shared mining cache, private memo) even on small CI
# machines. core_decision_test's 64-node shared-engine case fans one
# decider's broadcast batches across the worker team.
# Under shared decisions the decider's mining jobs run on that team's
# workers between apply epochs, and each epoch's barrier waits only for
# the workers that joined it: support_executor_stress_test races the
# team's background-job queue against its epochs (late joiners, a
# worker busy in a job, failures rethrown at Drain);
# sim_cluster_test and core_decision_test pin that mining at explicit
# jobs {1, 2, 8}, including a tight slack that makes the driving thread
# run or wait for every job at its ingestion, and fault_membership_test
# pins recovery at jobs 2 against 1. sim_cluster_test's FragmentCalls
# case issues every broadcast fragment in one Runtime::ExecuteFragment
# call per node: the nodes read the engine's shared launch ring on
# several worker threads at once, and a streaming node's rows borrow
# that ring's requirement storage until its consumers have read them.
# core_incremental_test races four TaskTeam workers on one finder's
# private memo, and core_apophenia_test's pooled case mines a lone
# front end's jobs on a TaskTeam.
# A mining job belongs to whichever thread starts it first: a worker,
# or the thread that ingests it (core/finder.h). fuzz_differential_test's
# pooled case checks that claim rule corpus-wide: every program mines
# on a TaskTeam and must decide exactly as inline.
# svc_service_test's pooled case drives every tenant's mining jobs
# through one TaskTeam, racing on the shared cross-tenant cache;
# sim_test's and sim_replicated_test's pooled cases borrow a TaskTeam
# through sim::ExperimentStack, and sim_replicated_test runs every app
# on the parallel cluster engine.
# The fault_* suites run crash/checkpoint/resync through the
# parallel engine's barriers (the ASan leg already covers them via the
# full ctest above). svc_overload_test adds an executor that runs
# nothing until teardown, whose stale closures then run against
# recycled jobs, and the MiningCache waiter-release rendezvous.
tsan_regex="$(IFS='|'; echo "${tsan_suites[*]}")"
APO_JOBS=8 ctest --test-dir build-tsan -R "^(${tsan_regex})\$" --output-on-failure -j "$JOBS"

echo "== perf records: refresh BENCH_micro_repeats.json =="
# Snapshot the committed record before the benches overwrite it: the
# regression gate below compares the fresh run against this baseline.
BENCH_BASELINE=""
if [ -f BENCH_micro_repeats.json ]; then
    BENCH_BASELINE=build/BENCH_baseline.json
    cp BENCH_micro_repeats.json "$BENCH_BASELINE"
fi
# Each bench merges its records into the shared JSON:
#  - micro_repeats: finder launch path, frontend issue path, oplog
#    append, stream digest, steady-state mining;
#  - fig_replication_scaling: replication scaling, the cluster_parallel
#    engine and the shared decider's decision_cost;
#  - fig_multitenant: the multi-tenant service sweep;
#  - fig_overload: open-loop load x policy. Exits nonzero if policies
#    differ at sustainable load, or if at 2x kShed/kDegrade fail to
#    bound backlog and latency while kBlock shows the queueing cliff;
#  - fig_recovery: fault-tolerance cost. Exits nonzero if any churned
#    run's digests diverge from the failure-free baseline, or if a
#    cell's crashes or rejoins differ from its planned failures.
for bench in micro_repeats fig_replication_scaling fig_multitenant \
             fig_overload fig_recovery; do
    if [ -x "build/$bench" ]; then
        "./build/$bench" --json=BENCH_micro_repeats.json
    elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
        # Local escape hatch only: without it, a missing bench binary is
        # a CI failure so the perf trajectory cannot quietly stop
        # recording.
        echo "$bench not built; skipping its records (APO_ALLOW_NO_BENCH=1)"
    else
        echo "error: $bench was not built (is Google Benchmark" \
             "installed?); set APO_ALLOW_NO_BENCH=1 to skip the perf" \
             "records" >&2
        exit 1
    fi
done

echo "== perf gate: bench_compare vs committed baseline =="
if [ -x build/bench_compare ] && [ -n "$BENCH_BASELINE" ]; then
    # Every record must exist (exit 2, never waivable) and no tracked
    # metric may regress >10% against the committed record (exit 1;
    # APO_ALLOW_BENCH_REGRESSION=1 waives a *regression* for known-noisy
    # machines, nothing else).
    required=()
    for record in issue_path oplog_append stream_digest \
                  steady_state_mining replication_scaling cluster_parallel \
                  decision_cost fig_multitenant fig_overload fig_recovery; do
        required+=("--require=$record")
    done
    set +e
    ./build/bench_compare --baseline="$BENCH_BASELINE" \
        --current=BENCH_micro_repeats.json --threshold=0.10 "${required[@]}"
    compare_status=$?
    set -e
    if [ "$compare_status" -eq 1 ]; then
        if [ "${APO_ALLOW_BENCH_REGRESSION:-0}" = "1" ]; then
            echo "warning: bench regression waived (APO_ALLOW_BENCH_REGRESSION=1)"
        else
            echo "error: perf record regressed >10% against the" \
                 "committed baseline; investigate, or set" \
                 "APO_ALLOW_BENCH_REGRESSION=1 on known-noisy machines" >&2
            exit 1
        fi
    elif [ "$compare_status" -ne 0 ]; then
        echo "error: bench_compare failed (missing record or bad JSON)" >&2
        exit "$compare_status"
    fi
elif [ "${APO_ALLOW_NO_BENCH:-0}" = "1" ]; then
    echo "bench_compare gate skipped (APO_ALLOW_NO_BENCH=1)"
elif [ ! -x build/bench_compare ]; then
    echo "error: bench_compare was not built" >&2
    exit 1
else
    echo "no committed BENCH_micro_repeats.json; gate records from this run on"
fi

echo "CI OK"
