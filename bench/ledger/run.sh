#!/usr/bin/env bash
# Perf ledger: build the benchmark and run it. Run from anywhere; it
# works in the repository root and builds into build-bench/.
#
#   bench/ledger/run.sh --seed S [--trace] [--seconds T] [--out DIR]
#       all four workloads, one fresh process each
#   bench/ledger/run.sh --workload W --seed S [--seconds T] [--trace 0|1]
#       one workload; the last stdout line is its JSON result
#   bench/ledger/run.sh --selfcheck
#       reduced runs plus corrupted outputs: proves the checks are live
#   bench/ledger/run.sh --compare PARENT_DIR CHANGE_DIR
#   bench/ledger/run.sh --baseline DIR
#       summarise DIR's runs into bench/ledger/baseline/<host-tag>.json
#
# T defaults to run_seconds in BENCHMARK.json. Run JSONs go to
# build-bench/runs/ (or --out DIR), Chrome traces of traced runs to
# build-bench/traces/. Build output goes to stderr.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"
cd "$root"

workloads=(ote-2e24 cot-svc infer-lan infer-wan)
workload="" seed="" trace=0 out="$build/runs" mode=run
args=() seconds=() # --seconds T, passed on only when given
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=(--seconds "$2"); shift 2 ;;
        --out) out=$2; shift 2 ;;
        --trace)
            if [[ $# -gt 1 && ( $2 == 0 || $2 == 1 ) ]]; then
                trace=$2; shift 2
            else
                trace=1; shift
            fi ;;
        --selfcheck) mode=selfcheck; shift ;;
        --compare) mode=compare; args=("$2" "$3"); shift 3 ;;
        --baseline) mode=baseline; args=("$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [[ ! -f "$build/Makefile" ]]; then # configure once; builds re-check
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 --target ledger ledger_compare >&2

case $mode in
    selfcheck) exec "$build/ledger" --selfcheck ;;
    compare) exec "$build/ledger_compare" "${args[@]}" ;;
    baseline)
        sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") \
              git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
        tmp=$(mktemp "$build/baseline.XXXXXX")
        "$build/ledger_compare" --baseline "${args[0]}" --git-sha "$sha" \
            > "$tmp"
        tag=$(sed -n 's/.*"tag": "\([^"]*\)".*/\1/p' "$tmp" | head -n 1)
        mv "$tmp" "$here/baseline/$tag.json"
        echo "wrote bench/ledger/baseline/$tag.json"
        exit 0 ;;
esac

[[ -n $seed ]] || { echo "run.sh: --seed is required" >&2; exit 2; }
mkdir -p "$out" "$build/traces"
one() {
    "$build/ledger" --workload "$1" --seed "$seed" "${seconds[@]}" \
        --trace "$trace" --json-out "$out/$1-s$seed-t$trace.json" \
        --trace-out "$build/traces/$1-s$seed.json"
}
if [[ -n $workload ]]; then
    one "$workload"
    exit
fi
status=0
for w in "${workloads[@]}"; do
    one "$w" || status=1
done
echo "# run JSONs in $out" >&2
exit $status
