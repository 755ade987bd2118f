#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-churn16 --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the traced runs' spans all go under
# .bench_build at the root, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# GOENV=off and an empty GOFLAGS keep a user's Go settings out of the
# build; GOPROXY=off because the build needs nothing but the checkout;
# -buildvcs=false because the checkout need not be a repository.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
# The program reads these to pick its batch parallelism, backend and
# instrumentation; unset, every run measures the defaults (the workloads
# that need another setting make it themselves).
unset REPRO_BATCH_PARALLELISM REPRO_BACKEND REPRO_OBS
cd "$root"
exec "$out/perfbench" "$@"
