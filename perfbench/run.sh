#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# build and run artefact stays under .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# Keep the toolchain's caches, temporary files and config (telemetry
# included) inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=
commit=unknown
if [ -d .git ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
go -C perfbench build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
