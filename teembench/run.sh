#!/usr/bin/env bash
# Builds teembench from the checkout it sits in and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash teembench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run files stay under .bench_build.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ -z "${TEEMBENCH_SOURCE:-}" ]; then
	TEEMBENCH_SOURCE=$(cd "$here/.." && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name 'go.mod' -o -name '*.json' \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
	export TEEMBENCH_SOURCE
fi
(cd "$here" && go build -o "$out/bin/teembench" .)
exec "$out/bin/teembench" "$@"
