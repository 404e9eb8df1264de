GO ?= go

.PHONY: build test race vet check overload bench ab

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

# The repository's benchmark (bench/README.md): every workload, the traced
# pass and the layer probes; writes bench/out/result.json.
bench:
	$(GO) run ./bench

# A/B pairs of one BENCHMARK.json workload, parent revision against the
# working tree: medians, quartiles and win counts per end-to-end metric.
#   make ab PARENT=HEAD~1 WORKLOAD=hotel_autoscale PAIRS=10
PARENT ?= HEAD
WORKLOAD ?= hotel_autoscale
PAIRS ?= 10
ab:
	./scripts/abbench.sh $(PARENT) $(WORKLOAD) $(PAIRS)
