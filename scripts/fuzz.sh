#!/bin/sh
# fuzz.sh - run every Go fuzz target in the repository for a short
# budget each (native fuzzing allows one -fuzz pattern per package
# invocation, so targets are enumerated and run one at a time).
#
# Minimization of each new interesting input is capped at 10 runs of
# the target. Go's default, 60 s per input, stalls targets whose runs
# are long (FuzzTrace replays whole traces grown from a 10 KB seed) for
# most of a short budget, and those runs do not count as execs. A
# failing input is still reported and saved, only less minimized.
#
#   FUZZTIME=30s ./scripts/fuzz.sh      # per-target budget, default 10s
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

for pkg in $(go list ./...); do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
		echo "== go test -fuzz=^$target\$ -fuzztime=$FUZZTIME -fuzzminimizetime=10x $pkg"
		go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" -fuzzminimizetime 10x "$pkg"
	done
done
echo "ok"
