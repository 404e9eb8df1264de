#!/usr/bin/env bash
# Full verification gate: vet, build, tests, and the race detector.
# This is what CI (and the tier-1 check in ROADMAP.md) runs.
#
# The race stage runs with -short: the full-length end-to-end pipelines it
# skips are serial and already covered by the plain test stage, while every
# concurrency-relevant test (internal/harness, the experiments Lab, the
# parallel drivers) runs in short mode too — so the race detector still
# sees all of the machinery that actually runs concurrently, without the
# ~10x race-mode slowdown on multi-minute serial pipelines.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
# -shuffle=on randomises test order within each package, flushing out
# accidental inter-test state dependence; failures print the seed to replay.
go test -shuffle=on ./... "$@"

echo "== go test -race (short) =="
go test -race -short -timeout 30m ./... "$@"

echo "== chaos smoke (race) =="
# The fault-injection tests skip under -short, so give the degraded-mode
# machinery (injector, fallback scheduler, resilient RPC client) a
# dedicated race-mode pass.
go test -race -timeout 20m -run 'Chaos|Degraded|Breaker' ./...

echo "== overload smoke (race) =="
# Overload-control paths: the admission gate, client shed/deadline
# accounting, the scheduler's brownout ladder, and the open-loop serving
# drive are all concurrency-heavy, so they get their own race-mode pass.
go test -race -timeout 20m -run 'Overload|Admission|Brownout|Shed|Gate|Deadline|Serving' ./...

echo "== lifecycle smoke (race) =="
# Model lifecycle: hot swaps, shadow scoring, drift-triggered retrains, and
# rollbacks all mutate the live model under concurrent Predict traffic, so
# the lifecycle manager/artifact/gate tests and the predsvc swap-vs-predict
# races get a dedicated race-mode pass.
go test -race -timeout 20m -run 'Lifecycle|Artifact|Manager|Registry|UpdateModel|Rollback|Swap|Drift' ./...

echo "== stats-plane smoke (race) =="
# The stats plane mixes goroutines and real sockets (TCP collector, hub
# sessions, deadline-bounded assembly), so its aggregator/transport/hub
# tests — plus the loopback e2e run — get a dedicated race-mode pass.
go test -race -timeout 20m -run 'Plane|Aggregat|Reporter|Collector|Hub|Sink' ./...

echo "== shared-path smoke (race) =="
# Shared-history candidate evaluation: the parity tests pin the trunk-once
# path bit-identical to the full batch, and the wire/fallback tests cover
# the v2 RPC negotiation — run them under the race detector so context
# reuse and the client's latch are exercised concurrently.
go test -race -timeout 10m -run 'Shared' ./...

echo "== bench smoke =="
go test -run='^$' -bench='ConvForward|PredictBatch$|PredictShared|SimulatorThroughput' -benchtime=1x

echo "OK"
