#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the Go toolchain writes (build cache, temp files, config)
# is redirected into .bench_build/ at the root of the checkout, so a run
# reads and writes only inside the checkout. In a directory without the
# engine's sources the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/cmbench" .)
exec "$build/cmbench" -out "$here/out" "$@"
