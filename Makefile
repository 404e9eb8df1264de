GO ?= go

.PHONY: build test race vet check overload bench bench-json speedup telemetry-bench statplane-bench lifecycle-bench ab

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

# Inference/training micro-benchmarks; each prints one machine-readable
# {"bench":...} JSON line, scraped into BENCH_infer.json for CI tracking.
bench-json:
	$(GO) test -run='^$$' -bench='ConvForward|PredictBatch$$|PredictShared|TrainEpoch' -benchtime=1x \
		| grep '^{' > BENCH_infer.json
	cat BENCH_infer.json

# Serial-vs-parallel wall-clock comparison of the run harness; emits a
# machine-readable {"bench":"suite_speedup",...} JSON line.
speedup:
	$(GO) test -run='^$$' -bench=BenchmarkSuiteSpeedup -benchtime=1x

# Telemetry hot-path micro-benchmarks (Counter.Add, Histogram.Observe,
# snapshotting); the alloc-free contract is asserted by the benchmarks
# themselves, and the {"bench":...} lines land in BENCH_telemetry.json.
telemetry-bench:
	$(GO) test -run='^$$' -bench='CounterAdd$$|HistogramObserve$$' -benchtime=1000000x \
		./internal/telemetry/ | grep '^{' > BENCH_telemetry.json
	cat BENCH_telemetry.json

# Model-lifecycle hot paths: one gate validation (holdout replay), the
# atomic live swap, and serving overhead through the swap-safe handle; the
# {"bench":...} lines land in BENCH_lifecycle.json.
lifecycle-bench:
	$(GO) test -run='^$$' -bench='GateValidate$$|LiveSwap$$|LiveServeOverhead$$' -benchtime=1000x \
		./internal/lifecycle/ | grep '^{' > BENCH_lifecycle.json
	cat BENCH_lifecycle.json

# Stats-plane hot paths: gob report encode/decode on an established stream
# and one full aggregator interval cycle; the {"bench":...} lines land in
# BENCH_statplane.json.
statplane-bench:
	$(GO) test -run='^$$' -bench='ReportEncode$$|ReportDecode$$|IntervalAssemble$$' -benchtime=100000x \
		./internal/statplane/ | grep '^{' > BENCH_statplane.json
	cat BENCH_statplane.json
