#!/usr/bin/env bash
# Print apobench's reference identities for every workload at seed 1
# and full size: a "workload W" line, then the workload's `identity`
# lines (stream digest, op count, candidate digest, modelled rate,
# replayed fraction, warm-up). ci.sh diffs this against the committed
# apobench_reference_seed1.txt beside it, so a change that alters the
# issued streams or the decisions fails CI even when it alters the
# reference configuration the same way. Needs build-e2e/apobench
# (bench/e2e/run.sh builds it). After an intended behaviour change:
#
#   tests/golden/apobench_reference.sh > tests/golden/apobench_reference_seed1.txt
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
for workload in s3d_auto s3d_untraced synthetic_steady htr_replicated8 \
                svc_fleet8; do
    echo "workload $workload"
    build-e2e/apobench --reference "$workload" --seed 1 --scale 1
done
