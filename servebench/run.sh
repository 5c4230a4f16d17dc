#!/usr/bin/env bash
# Serving benchmark entry point. Run from the repository root:
#
#   bash servebench/run.sh --workload mol-unique --seed 1 --seconds 25 --trace 0
#
# Builds cmd/sqserver and the servebench program from this checkout into
# .bench_build/ (Go's build cache and configuration included, so nothing
# is written outside the checkout), then hands every argument to
# servebench. Build output goes to stderr: the last stdout line is the
# JSON result.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/sqserver ]]; then
	echo "servebench: run from the repository root (go.mod and cmd/sqserver not found in $root)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
# With telemetry in its default "local" mode the go command starts a
# detached sidecar process that outlives this script; turn it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/sqserver" ./cmd/sqserver >&2
(cd servebench && go build -o "$out/servebench" .) >&2
exec "$out/servebench" --server "$out/sqserver" --work "$out" "$@"
