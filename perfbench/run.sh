#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload server-dense --seed 1 --seconds 30 --trace 0
#
# The build output (binary, Go build and module caches, temporary files)
# and the traced run's spans go to .bench_build/ in the repository root,
# so nothing is written outside the checkout. The benchmark is a Go module
# of its own (perfbench/go.mod replaces "smartharvest" with the parent
# directory), so `go test ./...` at the root does not include it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (no go.mod/internal here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
