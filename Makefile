# Convenience targets; `make check` is the full verification gate
# (build + vet + race-enabled tests) CI and pre-commit should run.

.PHONY: check build test bench figures fuzz loc

check:
	./scripts/check.sh

# Short-budget fuzzing of every Fuzz* target (conformance checker
# equivalence, trace-format round-trip); FUZZTIME overrides the
# default 10s per target.
fuzz:
	./scripts/fuzz.sh

build:
	go build ./...

test:
	go test ./...

# Benchmark smoke: every Benchmark* once (BenchmarkE2E also asserts the
# whole-model serving contract). Simulator wall-clock speed is measured
# by `bash perfbench/run.sh`; BENCHMARK.json lists its workloads.
bench:
	go test -run=NONE -bench=. -benchtime=1x -benchmem ./...

figures:
	go run ./cmd/newton bench -fig all

# Non-test Go and assembly line counts, as CHANGES.md reports them.
loc:
	./scripts/loc.sh
