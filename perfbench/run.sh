#!/usr/bin/env bash
# Builds the benchmark and mfserved from this checkout's source, then runs
# the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or caches goes
# under .bench_build/ there, so it reads and writes nothing outside the
# checkout and needs no network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/mfserved" repro/cmd/mfserved
cd "$root"
exec "$out/perfbench" -server "$out/mfserved" "$@"
