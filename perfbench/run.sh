#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload fa-distances --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span files and result files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# directory; point it into the checkout as well.
export XDG_CONFIG_HOME="$out/config"
# Temporary build files, too.
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" "$@"
