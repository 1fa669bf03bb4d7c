#!/usr/bin/env bash
# Builds palservd, palrouter and the perfbench load generator from this checkout
# into .bench_build, then runs it with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload attest-direct --seed 1 --seconds 10 --trace 0
#
# The Go build cache also lives under .bench_build, so the benchmark reads
# and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/palservd || ! -d cmd/palrouter || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/palservd, cmd/palrouter)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin"
export GOCACHE="$PWD/$out/gocache" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/palservd" ./cmd/palservd
go build -o "$out/bin/palrouter" ./cmd/palrouter
(cd perfbench && go build -o "../$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
