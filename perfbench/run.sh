#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# Keep the go command's caches, temporary files and per-user state inside
# the checkout, and never let it fetch anything.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
