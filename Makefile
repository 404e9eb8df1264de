GO ?= go

.PHONY: build test race vet check overload bench speedup ab

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short -timeout 30m ./...

vet:
	$(GO) vet ./...

# The full verification gate (vet + build + test + race). Pass ARGS=-short
# to keep the test stages fast.
check:
	./scripts/check.sh $(ARGS)

# Overload experiment: drives the prediction service past saturation
# (protected vs unprotected) and the scheduler through brownout windows.
overload:
	$(GO) run ./cmd/sinan-bench -exp overload

bench:
	$(GO) test -bench=. -benchmem

# A/B pairs of one BENCHMARK.json workload, parent revision against the
# working tree: medians, quartiles and win counts per end-to-end metric.
#   make ab PARENT=HEAD~1 WORKLOAD=hotel_autoscale PAIRS=10
PARENT ?= HEAD
WORKLOAD ?= hotel_autoscale
PAIRS ?= 10
ab:
	./scripts/abbench.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Serial-vs-parallel wall-clock comparison of the run harness; emits a
# machine-readable {"bench":"suite_speedup",...} JSON line.
speedup:
	$(GO) test -run='^$$' -bench=BenchmarkSuiteSpeedup -benchtime=1x
