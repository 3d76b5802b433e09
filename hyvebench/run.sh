#!/usr/bin/env bash
# Builds the HyVE programs and the hyvebench program from the checkout
# this script sits in, then runs one benchmark workload:
#
#   bash hyvebench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch files, traces)
# stays under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin" # the Go distribution's default location

(cd "$root" && go build -o "$out/bin/" ./cmd/hyve-sim ./cmd/hyve-serve ./cmd/hyve-sweepd ./cmd/hyve-worker ./cmd/hyve-prep) >&2
(cd "$here" && go build -o "$out/bin/hyvebench" .) >&2
exec "$out/bin/hyvebench" -root "$root" -bin "$out/bin" "$@"
