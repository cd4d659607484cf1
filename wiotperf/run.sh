#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, e.g.
#   bash wiotperf/run.sh --workload cohort-host --seed 1 --seconds 20 --trace 0
# Everything the build writes (binary, Go build cache, temp files) stays
# in .bench_build under the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/wiotperf/go.mod" ]]; then
	echo "wiotperf: run from the repository root (needs go.mod, internal/ and wiotperf/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/wiotperf" && go build -o "$out/wiotperf" .)
exec "$out/wiotperf" "$@"
