#!/usr/bin/env bash
# Builds bench/otabench from the checkout this script sits in and runs it
# with the given arguments. Build cache, temporary files and the binary
# all stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp"
go build -o "$build/otabench" ./bench/otabench
exec "$build/otabench" "$@"
