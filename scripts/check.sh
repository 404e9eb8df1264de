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
# Models and datasets go to disk in one hand-written layout (DESIGN.md §12
# "Artifacts"); encoding/gob, whose map order made a saved model's bytes
# differ from save to save, must not come back into any program.
if go list -deps ./... | grep -qx encoding/gob; then
    echo "encoding/gob is a dependency of:" >&2
    go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -w encoding/gob | cut -d' ' -f1 >&2
    exit 1
fi
# Every frame body and every file is written by internal/wire's Append
# helpers and read by its one Reader (DESIGN.md §9 "Wire"), so no other
# program package imports encoding/binary. bench/ is the benchmark's own code,
# exempt.
binary_importers=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -w encoding/binary | cut -d' ' -f1 | grep -vx -e sinan/internal/wire -e sinan/bench || true)
if [ -n "$binary_importers" ]; then
    echo "encoding/binary is imported outside internal/wire by:" >&2
    echo "$binary_importers" >&2
    exit 1
fi

stage "go build"
go build ./...

stage "unused identifiers"
# Fails on a name no program reaches: one no file references, one only tests
# reference, or an option field only tests set; and on a registered telemetry
# instrument without a reader (a test literal, a bench/ mention or a
# program's Value() read) — unless the allow-list in scripts/unused/main.go
# names it with a reason — and on an allow-list entry that no longer matches
# anything. Prints the allow-list with its count.
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

stage "experiment golden"
# Every experiment without a wall-clock column, rerun in quick mode and
# compared byte for byte with internal/experiments/testdata/quick.txt, the
# record EXPERIMENTS.md's tables and headline claims are tested against. -par
# runs the experiments concurrently and must still print their tables in the
# order requested. On a mismatch the diff's hunk headers name the table that
# moved (no context lines, so each header is the title above its own line).
# stderr shows each experiment's wall seconds. About 35 s on 2 vCPU; skipped
# under -short.
case " $* " in
*" -short "*) echo "skipped (-short)" ;;
*)
    golden=internal/experiments/testdata/quick.txt
    got=$(mktemp)
    go run ./cmd/sinan-bench -exp fig3,fig4,fig9,fig10,fig11,fig12,fig13,fig14,fig16,table4,chaos,drift -q -par >"$got"
    if ! cmp -s "$golden" "$got"; then
        echo "sinan-bench -q output differs from $golden:" >&2
        diff -U0 -F '^== ' "$golden" "$got" >&2 || true
        rm -f "$got"
        exit 1
    fi
    rm -f "$got"
    echo "$(grep -c '^== ' "$golden") tables identical to $golden"
    ;;
esac

stage "go test -cpu 1,2,4 (kernels, sharding, scheduler pins)"
# Training forks at two sites only, both split by GOMAXPROCS: nn's batchGrad
# hands runs of consecutive gradient shards to workers, and core's
# btFeatures hands ranges of rows to workers for the trees' forward pass. No
# GEMM kernel forks. The bit-identity tests must hold at one worker (one
# tape serving all four gradient shards), at two (one tape serving two
# consecutive shards — what a 2-core runner executes) and at four (a tape
# per shard, more workers than that runner has), so a result that depends
# on where a chunk boundary falls cannot pass by luck of the host; the
# allocation guards count at the worker count they run at.
go test -cpu 1,2,4 ./internal/tensor ./internal/nn "$@"
# The scheduler's decision digest, the shared-path parity and the pinned
# TrainHybrid (both fork sites) likewise; TrainHybrid's allocation volume
# grows by a tape per worker, so its guard must hold at four, and the
# allocations of an extra training step must stay the shard fork's at
# every count. Workers normalise the rows they gather in place, which is
# where a worker-count-dependent double normalisation would hide: the
# row-parity, dataset-untouched and empty-split tests run at every count
# too, and so does the set-up dataset's footprint, collected beside them.
core_tests='Pinned|Property|BitIdentical|AllocVolume|AllocsPerRun|Footprint|RowsMatch|LeavesDatasetUntouched|RefusesEmptySplit'
go test -cpu 1,2,4 -run "$core_tests" ./internal/core "$@"

stage "portable leaves (-tags purego) and other architectures"
# The GEMM kernels' three leaf routines have an AVX body on amd64
# (internal/tensor/kernels_amd64.s). The purego tag — read here and nowhere
# else — builds the Go leaves instead, so the same bit-for-bit tests and the
# same weight, tree and decision pins run through the path every other
# architecture takes; the arm64 build catches a name only the amd64 files
# declare, and the 386 vet compiles every package and test where int has 32
# bits (a constant that overflows it, or a decoder's int(U32()), shows there).
go test -tags purego -cpu 1,2,4 ./internal/tensor ./internal/nn "$@"
go test -tags purego -run "$core_tests" ./internal/core "$@"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor
GOARCH=386 go vet ./...

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
# Every in-package micro-benchmark under internal/ runs once, so none stops
# compiling or running unnoticed; BenchmarkLiveServeOverhead fails here if
# lifecycle.Live adds an allocation to the serve path. What the loop costs
# end to end and per layer is measured by bench/ (make bench), and the
# paper's tables by sinan-bench -exp.
go test -run='^$' -bench=. -benchtime=1x ./internal/...

stage "size"
# The numbers every simplicity PR quotes: Go lines outside bench/, non-test
# and test, and the length of the three documents a reader starts from.
echo "non-test Go lines outside bench/: $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
# Where they are, so a change can show where its lines went; the parts sum to
# the line above.
for dir in cmd internal examples scripts; do
    echo "  $dir/: $(find "./$dir" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
done
echo "  root package: $(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
echo "test Go lines outside bench/: $(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
for doc in DESIGN.md README.md ROADMAP.md; do
    echo "$doc lines: $(wc -l <"$doc")"
done

stage "wall seconds per stage"
printf '%s%5d s  total\n' "$timings" "$SECONDS"

echo "OK"
