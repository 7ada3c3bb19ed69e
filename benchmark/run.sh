#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build writes — the Go build cache
# included — stays under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# go build is a no-op when the binary is up to date. GOPATH and
# XDG_CONFIG_HOME keep the module cache and the toolchain's telemetry
# counters inside the checkout too; nothing is downloaded.
(cd "$here" && GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$build/autodist-benchmark" .)
cd "$root"
exec "$build/autodist-benchmark" "$@"
