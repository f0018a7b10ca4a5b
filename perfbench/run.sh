#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through (see perfbench/README.md). Run from the
# repository root. Everything the build and the run write stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/home"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" \
	HOME="$out/go/home" XDG_CONFIG_HOME="$out/go/home/.config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/perfbench-run" "$@"
