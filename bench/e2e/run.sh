#!/usr/bin/env bash
# apobench: build the benchmark and the library it measures into
# build-e2e/ at the repository root, then run it from the root.
# Every argument goes to apobench; see bench/e2e/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
    echo "apobench: no Apophenia sources under $root" >&2
    exit 2
fi

build="$root/build-e2e"
mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" &&
       cmake --build "$build" --target apobench -j "$(nproc)"; } \
       > "$build/build.log" 2>&1; then
    cat "$build/build.log" >&2
    echo "apobench: build failed (log: $build/build.log)" >&2
    exit 2
fi

cd "$root"
exec "$build/apobench" "$@"
