#!/usr/bin/env bash
# Regenerates every table, figure and ablation of the paper into
# results/. Pass --test-scale for a fast small-input run and
# --jobs N to bound the experiment pool (default: nproc).
#
# Each experiment writes results/<name>.txt (the human-readable table)
# and results/logs/<name>.log (its stderr); binaries that support
# `--json` also write results/<name>.json with the same data points in
# machine-readable form. Per-experiment wall-clock times land in
# results/suite_timing.json. Failures are reported per experiment and
# the script exits non-zero if any experiment fails.
set -euo pipefail
cd "$(dirname "$0")"

SCALE=""
JOBS="$(nproc 2>/dev/null || echo 1)"
while (($# > 0)); do
    case "$1" in
        --test-scale) SCALE="--test-scale" ;;
        --jobs)
            JOBS="${2:?--jobs needs a count}"
            shift
            ;;
        --jobs=*) JOBS="${1#--jobs=}" ;;
        *)
            echo "usage: $0 [--test-scale] [--jobs N]" >&2
            exit 2
            ;;
    esac
    shift
done
case "$JOBS" in
    '' | *[!0-9]* | 0)
        echo "--jobs must be a positive integer, got '$JOBS'" >&2
        exit 2
        ;;
esac

mkdir -p results results/logs results/store
timing_dir="$(mktemp -d)"
trap 'rm -rf "$timing_dir"' EXIT
cargo build --release -p tia-bench -p tia-asm

# One content-addressed measurement store shared by the whole suite:
# every experiment that simulates workloads (sec1, fig4-fig8, the three
# ablations and dse_export) stores one record per run and reads the
# runs it shares with the others from it, so each distinct run is
# simulated once. Keys embed workload, scale, ISA parameters and
# microarchitecture, so test- and paper-scale runs coexist in one
# file; concurrent experiments serialize appends through the store's
# lock file. A warm store turns every repeated experiment into pure
# lookups; an interrupted suite resumes the same way.
STORE="results/store/measurements.store"
export TIA_STORE="$STORE"

BINS=(
    sec1_tradeoff_modes
    table1_params
    table2_encoding
    table3_workloads
    fig3_breakdown
    fig4_prediction
    fig5_cpi_stacks
    fig6_voltage_frontiers
    fig7_optimization_benefit
    fig8_pareto_designs
    sec3_characterization
    sec4_instruction_memory
    sec54_overheads
    ablation_nested_speculation
    ablation_predictor
    ablation_queue_capacity
)

suite_start=$SECONDS

# run_experiment NAME OUTFILE CMD...: runs CMD with stdout captured to
# OUTFILE and stderr to results/logs/NAME.log, reporting wall-clock
# time, and records (rather than aborts on) a failure so one broken
# experiment doesn't hide the rest.
run_experiment() {
    local name="$1" outfile="$2"
    shift 2
    local start=$SECONDS status=0
    local log="results/logs/$name.log"
    "$@" > "$outfile" 2> "$log" || status=$?
    local secs=$((SECONDS - start))
    printf '%s %s\n' "$status" "$secs" > "$timing_dir/$name"
    if ((status == 0)); then
        echo "== $name (${secs}s)"
    else
        echo "== $name FAILED (exit $status, ${secs}s; log: $log)" >&2
    fi
    return "$status"
}

# launch NAME OUTFILE CMD...: run_experiment in the background, holding
# the number of in-flight experiments at or under JOBS.
launch() {
    while (($(jobs -rp | wc -l) >= JOBS)); do
        wait -n || true # failures are collected from $timing_dir below
    done
    run_experiment "$@" &
}

names=()
for bin in "${BINS[@]}"; do
    names+=("$bin")
    # shellcheck disable=SC2086
    launch "$bin" "results/$bin.txt" \
        ./target/release/"$bin" $SCALE --json "results/$bin.json"
done

names+=(dse_export dump_workload_asm)
# shellcheck disable=SC2086
launch dse_export results/dse_export.txt \
    ./target/release/dse_export $SCALE \
    --store "$STORE" -o results/design_space.json
launch dump_workload_asm results/dump_workload_asm.txt \
    ./target/release/dump_workload_asm results/asm

wait || true
suite_secs=$((SECONDS - suite_start))

failures=()
{
    printf '{\n  "jobs": %s,\n  "total_seconds": %s,\n  "experiments": [\n' \
        "$JOBS" "$suite_secs"
    sep=""
    for name in "${names[@]}"; do
        status=1 secs=0
        if [[ -f "$timing_dir/$name" ]]; then
            read -r status secs < "$timing_dir/$name"
        fi
        ((status == 0)) || failures+=("$name")
        printf '%s    {"name": "%s", "seconds": %s, "ok": %s}' \
            "$sep" "$name" "$secs" "$([[ $status == 0 ]] && echo true || echo false)"
        sep=$',\n'
    done
    printf '\n  ]\n}\n'
} > results/suite_timing.json

if ((${#failures[@]} > 0)); then
    echo "FAILED experiments (${#failures[@]}): ${failures[*]}" >&2
    exit 1
fi
echo "all outputs in results/ (${suite_secs}s total, $JOBS jobs; timing in results/suite_timing.json)"
