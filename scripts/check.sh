#!/bin/sh
# check.sh - the repository's full verification gate:
# build everything, vet everything, run all tests with the race
# detector (parallel channel simulation and the worker pools that
# calibrate serving backends must be race-free, not just correct).
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test -race ./..."
go test -race ./...
echo "== cluster determinism: go test -race -count=2 -run 'TestClusterDeterminism|TestDrainByteIdenticalRace' ./internal/cluster"
go test -race -count=2 -run 'TestClusterDeterminism|TestDrainByteIdenticalRace' ./internal/cluster
echo "== serving determinism: go test -race -count=2 -run 'TestServerShardingDeterministic|TestClusterServePoissonDeterministic' ."
go test -race -count=2 -run 'TestServerShardingDeterministic|TestClusterServePoissonDeterministic' .
echo "ok"
