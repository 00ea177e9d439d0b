#!/usr/bin/env bash
# Builds the round benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash roundbench/run.sh --workload road-puu-nodes --seed 1 --seconds 40 --trace 0
#
# Every build artifact and Go cache stays under .bench_build/ in the
# current directory; nothing is fetched (the module is standard-library
# only, and the toolchain is pinned to the installed one).
set -euo pipefail

root=$(pwd)
if [ ! -f "${root}/go.mod" ]; then
	echo "roundbench: run from the repository root (no go.mod in ${root})" >&2
	exit 2
fi

out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod" \
	GOTMPDIR="${out}/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "${root}/roundbench" && go build -trimpath -o "${out}/roundbench" .)
exec "${out}/roundbench" "$@"
