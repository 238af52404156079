#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload croupier-5k --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build at the checkout root. The build fails, and the script
# exits non-zero, when the repository sources beside perfbench/ are
# missing.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# Stamp the source revision: the git commit when the checkout is a
# repository (never one above it), and always a digest of the Go
# sources the binary was built from.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
digest=$(cd "$root" && find go.mod internal perfbench -type f \( -name '*.go' -o -name go.mod \) | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
PERFBENCH_COMMIT="$commit" PERFBENCH_SOURCE="$digest" exec "$out/perfbench" --manifest "$root/BENCHMARK.json" "$@"
