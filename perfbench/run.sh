#!/usr/bin/env bash
# Builds cmd/proxy and the benchmark's programs from this checkout and
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload bl_origin --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/proxy" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of a webcache checkout" >&2
	exit 2
fi
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$out/proxy" ./cmd/proxy
(cd perfbench && go build -o "$out/" ./cmd/bench ./cmd/replay)
# The in-process pass imports internal/proxy; if a refactor breaks it,
# untraced runs still build and measure.
if ! (cd perfbench && go build -o "$out/" ./cmd/inproc); then
	echo "run.sh: cmd/inproc does not build; traced runs will fail" >&2
	rm -f "$out/inproc"
fi
exec "$out/bench" -bin "$out" -out "$out" "$@"
