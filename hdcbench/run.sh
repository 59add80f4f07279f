#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's flags:
#
#   bash hdcbench/run.sh --workload sign_batch --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the binary, the Go build cache and the fixture files.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
# Keep the toolchain's caches and settings inside the checkout and never
# reach for the network: the benchmark builds only from the files present.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C hdcbench build -o "$out/hdcbench" . >&2
exec "$out/hdcbench" --workdir "$out" "$@"
