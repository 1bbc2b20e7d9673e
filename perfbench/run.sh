#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload mvm-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, traced-run output)
# stays under .bench_build/ at the repository root. The build fails, and
# the script exits non-zero without printing a result, when the simulator
# sources are not next to the harness.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$build/newton-perfbench" .) >&2
cd "$root"
exec "$build/newton-perfbench" "$@"
