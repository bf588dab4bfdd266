#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build in the current directory: the Go build cache,
# the binary, the generated trace files and the span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/run"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

# The benchmark module imports the repository's packages from the parent
# directory; without them the build fails and no result is printed.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --workdir "$out/run" "$@"
