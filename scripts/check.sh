#!/usr/bin/env bash
# Full verification gate: vet, build, tests, and the race detector.
# This is what CI (and the tier-1 check in ROADMAP.md) runs.
#
# The first race stage runs everything with -short: the full-length
# end-to-end pipelines it skips are serial and already covered by the plain
# test stage, and the ~10x race-mode slowdown would push them past any
# reasonable timeout. A second race stage then runs in full the few packages
# whose concurrent tests skip in short mode, so the race detector sees all
# of the machinery that actually runs concurrently.
#
# The gate is a workload too: it ends with the wall seconds every stage took
# and their total, so a change to it (or to what it runs) shows its price.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage <title>: close the running stage's clock and open the next one's.
stage_title=""
stage_start=0
timings=""
stage() {
    if [ -n "$stage_title" ]; then
        timings+=$(printf '%5d s  %s' $((SECONDS - stage_start)) "$stage_title")$'\n'
    fi
    stage_title=$1
    stage_start=$SECONDS
    echo "== $1 =="
}

stage "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

stage "go vet"
go vet ./...

stage "go build"
go build ./...

stage "unused identifiers"
# Fails on a name no file references; names only tests reference are listed.
./scripts/unused.sh

stage "go test"
# -shuffle=on randomises test order within each package, flushing out
# accidental inter-test state dependence; failures print the seed to replay.
go test -shuffle=on ./... "$@"

stage "fuzz smoke"
# Every fuzz target of the repository, found by its declaration so that a new
# one cannot be left out, fuzzed for 5 s: tier-1 only replays the seed
# corpora. The minimiser is capped because it stalls on inputs whose coverage
# depends on timing (PR 16). Skipped under -short.
case " $* " in
*" -short "*) echo "skipped (-short)" ;;
*)
    grep -rn --include='*_test.go' -E '^func Fuzz[A-Za-z0-9_]*\(' . | while IFS=: read -r file _ decl; do
        name=${decl#func }
        go test -run '^$' -fuzz "^${name%%(*}\$" -fuzztime 5s -fuzzminimizetime 1s "$(dirname "$file")"
    done
    ;;
esac

stage "go test -cpu 1,2,4 (kernels, sharding, scheduler pins)"
# The GEMM kernels and the sharded training loop split their work by
# GOMAXPROCS; their bit-identity tests must hold at one worker (serial
# paths, one tape serving all four gradient shards), at two (one tape
# serving two consecutive shards — what a 2-core runner executes) and at
# four (a tape per shard, more workers than that runner has), so a result
# that depends on where a chunk boundary falls cannot pass by luck of the
# host.
go test -cpu 1,2,4 ./internal/tensor ./internal/nn "$@"
# The scheduler's decision digest, the shared-path parity and the pinned
# TrainHybrid (the same sharded loop) likewise; TrainHybrid's allocation
# volume grows by a tape per worker, so its guard must hold at four. Workers
# normalise the rows they gather in place, which is where a worker-count-
# dependent double normalisation would hide: the row-parity, dataset-
# untouched and empty-split tests run at every count too, and so does the
# set-up dataset's footprint, collected beside them.
core_tests='Pinned|Property|BitIdentical|AllocVolume|Footprint|RowsMatch|LeavesDatasetUntouched|RefusesEmptySplit'
go test -cpu 1,2,4 -run "$core_tests" ./internal/core "$@"

stage "portable leaves (-tags purego) and other architectures"
# The GEMM kernels' three leaf routines have an AVX body on amd64
# (internal/tensor/kernels_amd64.s). The purego tag — read here and nowhere
# else — builds the Go leaves instead, so the same bit-for-bit tests and the
# same weight, tree and decision pins run through the path every other
# architecture takes; the arm64 build catches a name only the amd64 files
# declare.
go test -tags purego -cpu 1,2,4 ./internal/tensor ./internal/nn "$@"
go test -tags purego -run "$core_tests" ./internal/core "$@"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor

stage "go test -race (short)"
go test -race -short -timeout 30m ./... "$@"

stage "go test -race (full, by package)"
# The concurrency-heavy tests that skip under -short — the chaos, overload
# and drift experiment arms on the parallel harness, the starved-cluster
# overload runs, the stats plane's managed run on a Hub over TCP loopback
# (internal/statplane/e2e_test.go) — get the race detector
# too. Selected by package, not by test name, so a renamed or new test in
# one of these packages cannot silently drop out. The list is every package
# where a non-short race run adds tests over the -short stage above and
# finishes in minutes; the other such packages (root, bench, baselines,
# collect, core) only add long serial train/collect pipelines, which the
# plain stage covers.
go test -race -timeout 30m ./internal/experiments ./internal/workload ./internal/statplane

stage "bench smoke"
go test -run='^$' -bench='ConvForward|PredictBatch$|PredictShared|SimulatorThroughput|TrainEpoch|CNNTrainStep|BoostTrain' -benchtime=1x
go test -run='^$' -bench=GEMM -benchtime=1x ./internal/tensor

stage "size"
# The number every simplicity PR quotes: non-test Go outside bench/.
echo "non-test Go lines outside bench/: $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"

stage "wall seconds per stage"
printf '%s%5d s  total\n' "$timings" "$SECONDS"

echo "OK"
