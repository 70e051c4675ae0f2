#!/usr/bin/env bash
# Builds the wimesh benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash wimeshbench/run.sh --workload village-churn --seed 42 --seconds 25 --trace 0
#
# The Go build cache and the binary live in .bench_build at the root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/wimeshbench" && go build -o "$out/wimeshbench" .)
cd "$root"
exec "$out/wimeshbench" "$@"
