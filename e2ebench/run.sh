#!/usr/bin/env bash
# Builds the end-to-end benchmark and bccd from this checkout's source,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload sweep-ladder --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (the Go build cache, binaries,
# result stores) goes under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bccd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/bccd and e2ebench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bccd" ./cmd/bccd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -bccd "$out/bccd" -workdir "$out" "$@"
