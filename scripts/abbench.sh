#!/usr/bin/env bash
# A/B measurement of one benchmark workload: the parent revision against the
# working tree, in alternating pairs, as a performance claim has to be shown.
#
#   scripts/abbench.sh <parent-rev> <workload> [pairs=10]
#
# The parent's committed files are extracted (git archive) into a temporary
# directory under ${TMPDIR:-/tmp} and built there by its own bench/run.sh;
# the change is this checkout as it stands, uncommitted edits included. Pair
# i runs both sides as
#   bench/run.sh --workload W --seed i --seconds 15 --trace 0
# and odd pairs run the parent first, even pairs the change first, so drift
# of the machine falls on both sides alike. For every end-to-end metric of
# BENCHMARK.json (all "lower is better") it prints each side's median and
# quartiles, the pairs the change won, and a verdict: "gain" when the rule
# for a claim holds (the change wins at least nine tenths of the pairs and
# the medians differ by more than the parent's interquartile range),
# "REGRESSED" when the change's median is worse than the parent's by more
# than the metric's bound in BENCHMARK.json, "unresolved" when it is not
# but either side's interquartile range is wider than the bound times the
# parent's median (the runs spread too widely to tell whether the change is
# inside the bound) and some change run is no better than some parent run,
# "within bound" otherwise.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs=10]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
metrics="setup_s host_ms_per_simsec cpu_ms_per_simsec allocs_per_simsec peak_rss_mb"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# one_run <checkout> <seed> <out>: append the run's driver line to <out>.
one_run() {
    local line
    line=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$2" --seconds 15 --trace 0 2>/dev/null | tail -n 1)
    case $line in
    *'"correct":true'*'"failed":0'*) echo "$line" >>"$3" ;;
    *)
        echo "abbench: run in $1 (seed $2) is not correct: $line" >&2
        exit 1
        ;;
    esac
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        one_run "$tmp/parent" "$i" "$tmp/parent.jsonl"
        one_run "$root" "$i" "$tmp/change.jsonl"
    else
        one_run "$root" "$i" "$tmp/change.jsonl"
        one_run "$tmp/parent" "$i" "$tmp/parent.jsonl"
    fi
    echo "pair $i/$pairs done" >&2
done

# value <metric> <file>: the metric's value on every line, one per line.
value() {
    sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" "$2"
}

echo "workload $workload: parent $rev against the working tree, $pairs pairs, seeds 1..$pairs"
printf '%-20s %34s   %34s   %7s  %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" change wins
for m in $metrics; do
    bound=$(sed -n "s/.*\"name\": \"$m\".*\"bound\": \([0-9.]*\).*/\1/p" "$root/BENCHMARK.json")
    paste <(value "$m" "$tmp/parent.jsonl") <(value "$m" "$tmp/change.jsonl") | awk -v metric="$m" -v bound="$bound" '
        # quartile k of the sorted v[1..n], by the rule of bench/stats.go
        # (Python statistics.quantiles, n=4).
        function quart(v, n, k,    pos, lo, frac) {
            pos = k * (n + 1) / 4
            lo = int(pos)
            if (lo < 1) return v[1]
            if (lo >= n) return v[n]
            frac = pos - lo
            return v[lo] + frac * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        { n++; p[n] = $1; c[n] = $2; if ($2 < $1) wins++; else if ($2 == $1) ties++ }
        END {
            sorted(p, ps, n); sorted(c, cs, n)
            pm = quart(ps, n, 2); cm = quart(cs, n, 2)
            iqr = quart(ps, n, 3) - quart(ps, n, 1)
            ciqr = quart(cs, n, 3) - quart(cs, n, 1)
            verdict = "within bound"
            if (wins >= 0.9 * n && pm - cm > iqr) verdict = "gain"
            else if (cm - pm > bound * pm) verdict = "REGRESSED"
            else if (ties == n) verdict = "identical"
            else if ((iqr > bound * pm || ciqr > bound * pm) && cs[n] >= ps[1]) verdict = "unresolved"
            printf "%-20s %12.6g [%9.6g, %9.6g]   %12.6g [%9.6g, %9.6g]   %+6.1f%%  %d/%d (ties %d)  %s\n",
                metric, pm, quart(ps, n, 1), quart(ps, n, 3), cm, quart(cs, n, 1), quart(cs, n, 3),
                pm == 0 ? 0 : 100 * (cm - pm) / pm, wins, n, ties, verdict
        }'
done
