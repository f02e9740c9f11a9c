#!/usr/bin/env bash
# Entry point of the serving benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds cmd/hullserve and the servebench program from this tree into
# .bench_build (with the Go build cache there too), then runs it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/hullserve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root (need go.mod, cmd/hullserve and servebench/)" >&2
	exit 2
fi
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/hullserve" ./cmd/hullserve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -root "$root" -hullserve "$out/hullserve" "$@"
