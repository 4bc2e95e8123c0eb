#!/usr/bin/env bash
# Build nsbench from the checkout this script is run from and hand it
# the arguments: the entry point BENCHMARK.json names.
#
#   bash benchmarks/run.sh --workload backbone-k50 --seed 1 --seconds 10 --trace 0
#   bash benchmarks/run.sh -all -out .bench_build/out      # every workload, untraced then traced
#   bash benchmarks/run.sh -validate-only .bench_build/out
#   bash benchmarks/run.sh -compare A/results.json B/results.json
#
# Run it from the repository root. Everything it writes — the go build
# cache, the binary, trace files, stores, spans — stays under
# ./.bench_build, so a run touches nothing outside the checkout. In a
# directory without the module's sources the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/pipeline ]; then
	echo "benchmarks/run.sh: no module sources here; run it from the repository root" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"

# Keep the go command's own files inside the checkout too: build cache,
# link scratch space, and its config dir (telemetry counters, go env -w).
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -o "$build/nsbench" ./benchmarks/nsbench
exec "$build/nsbench" -tmp "$build/tmp" "$@"
