#!/usr/bin/env bash
# Builds noctestd and the perfbench program from this checkout's sources,
# then runs perfbench with the given arguments, for example:
#
#   bash perfbench/run.sh --workload serve-cold --seed 3 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# binaries, span dumps) stays under .bench_build/ at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	CGO_ENABLED=0

(cd "$root" && go build -o "$build/bin/noctestd" ./cmd/noctestd)
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

cd "$root"
exec "$build/bin/perfbench" --noctestd "$build/bin/noctestd" --out "$build" "$@"
