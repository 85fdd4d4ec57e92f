#!/usr/bin/env bash
# Builds the benchmark and the rasad daemon from the checkout it sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload plan-batch --seed 1 --seconds 30 --trace 0
#
# Every build artefact and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/rasad" github.com/cloudsched/rasa/cmd/rasad) >&2
exec "$out/perfbench" -rasad "$out/rasad" "$@"
