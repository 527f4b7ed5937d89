#!/usr/bin/env bash
# Runs the ndetect benchmark from the root of a checkout, building it from
# source with `go run`:
#
#   bash perfbench/run.sh --workload wc-large --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the serve-mixed artifact stores
# all live under .bench_build/ in the checkout. The benchmark module
# resolves the program as ../ (see go.mod), so outside a full checkout the
# build fails and nothing is printed.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
exec go run . --workdir "$work" "$@"
