#!/usr/bin/env bash
# Regenerates every table, figure and ablation of the paper into
# results/, one experiment after another. Pass --test-scale for a fast
# small-input run. Each simulating experiment spreads its own runs over
# TIA_THREADS workers (default: every core).
#
# Each experiment writes results/<name>.txt (the human-readable table)
# and results/logs/<name>.log (its stderr); binaries that support
# `--json` also write results/<name>.json with the same data points in
# machine-readable form. Per-experiment wall-clock times, to the
# millisecond, land in results/suite_timing.json. Failures are
# reported per experiment and the script exits non-zero if any
# experiment fails.
set -euo pipefail
cd "$(dirname "$0")"

SCALE=()
while (($# > 0)); do
    case "$1" in
        --test-scale) SCALE=(--test-scale) ;;
        *)
            echo "usage: $0 [--test-scale]" >&2
            exit 2
            ;;
    esac
    shift
done

mkdir -p results results/logs results/store
cargo build --release -p tia-bench -p tia-asm

# One content-addressed measurement store shared by the whole suite:
# every experiment that simulates workloads (sec1, fig4-fig8, the three
# ablations and dse_export) stores one record per run and reads the
# runs it shares with the others from it, so each distinct run is
# simulated at most once (a run also answers the keys that differ only
# in +Q or nesting depth where its trigger decisions never depended on
# them; see docs/performance.md, "Twins"). Keys embed workload, scale,
# ISA parameters and microarchitecture, so test- and paper-scale runs
# coexist in one file; the store's lock file serializes appends from
# any processes that share it. A warm store turns every repeated
# experiment into pure lookups; an interrupted suite resumes the same
# way.
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

# now_us: wall-clock microseconds from $EPOCHREALTIME, read with
# either decimal separator the locale may use.
if [[ -z "${EPOCHREALTIME:-}" ]]; then
    echo "$0 needs bash 5 or later (for \$EPOCHREALTIME)" >&2
    exit 2
fi
now_us() {
    local t="$EPOCHREALTIME"
    echo "${t//[.,]/}"
}

# seconds_since START_US: elapsed seconds since START_US, to the
# millisecond.
seconds_since() {
    local ms=$((($(now_us) - $1) / 1000))
    printf '%d.%03d' $((ms / 1000)) $((ms % 1000))
}

suite_start=$(now_us)

# run_experiment NAME OUTFILE CMD...: runs CMD with stdout captured to
# OUTFILE and stderr to results/logs/NAME.log, reporting wall-clock
# time, and records (rather than aborts on) a failure so one broken
# experiment doesn't hide the rest.
entries=()
failures=()
run_experiment() {
    local name="$1" outfile="$2"
    shift 2
    local start status=0 secs ok=true
    local log="results/logs/$name.log"
    start=$(now_us)
    "$@" > "$outfile" 2> "$log" || status=$?
    secs=$(seconds_since "$start")
    if ((status == 0)); then
        echo "== $name (${secs}s)"
    else
        ok=false
        failures+=("$name")
        echo "== $name FAILED (exit $status, ${secs}s; log: $log)" >&2
    fi
    entries+=("{\"name\": \"$name\", \"seconds\": $secs, \"ok\": $ok}")
}

names=("${BINS[@]}")
names+=(dse_export dump_workload_asm)
for name in "${names[@]}"; do
    case "$name" in
        dse_export) args=("${SCALE[@]}" --store "$STORE" -o results/design_space.json) ;;
        dump_workload_asm) args=(results/asm) ;;
        *) args=("${SCALE[@]}" --json "results/$name.json") ;;
    esac
    run_experiment "$name" "results/$name.txt" ./target/release/"$name" "${args[@]}"
done
suite_secs=$(seconds_since "$suite_start")

{
    printf '{\n  "total_seconds": %s,\n  "experiments": [\n' "$suite_secs"
    sep=""
    for entry in "${entries[@]}"; do
        printf '%s    %s' "$sep" "$entry"
        sep=$',\n'
    done
    printf '\n  ]\n}\n'
} > results/suite_timing.json

if ((${#failures[@]} > 0)); then
    echo "FAILED experiments (${#failures[@]}): ${failures[*]}" >&2
    exit 1
fi
echo "all outputs in results/ (${suite_secs}s total; timing in results/suite_timing.json)"
