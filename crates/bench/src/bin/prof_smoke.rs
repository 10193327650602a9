//! Profiler smoke gate: sweeps the full workload suite under three
//! representative microarchitectures with the hierarchical cycle-stack
//! profiler attached, asserting the attribution invariant (every PE's
//! stack sums to the observed cycle count) on every run, then
//! A/B-times the same sweep with and without the profiler.
//!
//! ```text
//! cargo run --release -p tia-bench --bin prof_smoke -- \
//!     [--test-scale] [--assert-overhead]
//! ```
//!
//! `--assert-overhead` turns the timing comparison into a gate: the
//! process exits nonzero if the profiled sweep is more than 10% slower
//! than the unprofiled baseline (plus a small absolute slack for timer
//! noise at test scale). CI runs this at test scale.

use std::time::Instant;

use tia_bench::{Args, Opt};
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::StopReason;
use tia_isa::Params;
use tia_prof::{profile_run, Leaf};
use tia_workloads::{Scale, WorkloadKind, ALL_WORKLOADS};

fn build(kind: WorkloadKind, config: UarchConfig, scale: Scale) -> tia_workloads::Built<UarchPe> {
    let params = Params::default();
    let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
    kind.build(&params, scale, &mut factory)
        .unwrap_or_else(|e| panic!("{kind} on {config}: build failed: {e}"))
}

/// Runs the whole suite unprofiled; returns total simulated cycles.
fn sweep_plain(configs: &[UarchConfig], scale: Scale) -> u64 {
    let mut cycles = 0;
    for &config in configs {
        for kind in ALL_WORKLOADS {
            let mut built = build(kind, config, scale);
            let reason = built.system.run(built.max_cycles);
            assert_eq!(reason, StopReason::Condition, "{kind} on {config} halts");
            cycles += built.system.cycle();
        }
    }
    cycles
}

/// Runs the whole suite under the profiler, asserting the attribution
/// invariant for every PE of every run; returns total simulated cycles
/// and the per-run dominant leaves.
fn sweep_profiled(configs: &[UarchConfig], scale: Scale) -> (u64, Vec<Leaf>) {
    let mut cycles = 0;
    let mut bottlenecks = Vec::new();
    for &config in configs {
        for kind in ALL_WORKLOADS {
            let mut built = build(kind, config, scale);
            let (reason, profiler) = profile_run(&mut built.system, built.max_cycles);
            assert_eq!(reason, StopReason::Condition, "{kind} on {config} halts");
            let observed = profiler.observed_cycles();
            assert_eq!(
                observed,
                built.system.cycle(),
                "{kind} on {config}: profiler observed every cycle"
            );
            // The invariant the whole profiler is built around: no
            // cycle is lost or double-counted, on any PE. This is the
            // release-mode twin of the debug_assert inside the
            // profiler itself.
            for pe in 0..profiler.num_pes() {
                assert_eq!(
                    profiler.stack(pe).total(),
                    observed,
                    "{kind} on {config} pe {pe}: cycle-stack attribution leak"
                );
            }
            bottlenecks.push(profiler.aggregate().bottleneck());
            cycles += built.system.cycle();
        }
    }
    (cycles, bottlenecks)
}

fn main() {
    let args = Args::from_env(&[Opt::Switch("--assert-overhead")]);
    let scale = args.scale();
    let assert_overhead = args.switch("--assert-overhead");
    let configs = [
        UarchConfig::base(Pipeline::TDX),
        UarchConfig::with_p(Pipeline::T_DX),
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    ];
    let runs = configs.len() * ALL_WORKLOADS.len();

    // Warm caches before timing, and take the best of three sweeps per
    // arm so a scheduler hiccup cannot fail the gate.
    let _ = sweep_plain(&configs, scale);
    let mut plain_seconds = f64::INFINITY;
    let mut profiled_seconds = f64::INFINITY;
    let mut plain_cycles = 0;
    let mut profiled = (0, Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        plain_cycles = sweep_plain(&configs, scale);
        plain_seconds = plain_seconds.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        profiled = sweep_profiled(&configs, scale);
        profiled_seconds = profiled_seconds.min(start.elapsed().as_secs_f64());
    }
    let (profiled_cycles, bottlenecks) = profiled;
    assert_eq!(
        plain_cycles, profiled_cycles,
        "profiling must not change simulated behavior"
    );

    let overhead = profiled_seconds / plain_seconds - 1.0;
    println!(
        "prof_smoke: {runs} runs x 2 arms, {plain_cycles} cycles each; \
         attribution invariant held on every PE of every run"
    );
    println!(
        "plain {plain_seconds:.3}s, profiled {profiled_seconds:.3}s \
         ({:+.1}% overhead)",
        100.0 * overhead
    );
    let mut histogram: Vec<(Leaf, usize)> = Vec::new();
    for leaf in Leaf::ALL {
        let count = bottlenecks.iter().filter(|&&b| b == leaf).count();
        if count > 0 {
            histogram.push((leaf, count));
        }
    }
    histogram.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let summary: Vec<String> = histogram
        .iter()
        .map(|(leaf, count)| format!("{leaf} x{count}"))
        .collect();
    println!("dominant leaves across runs: {}", summary.join(", "));

    if assert_overhead {
        // 10% relative plus 50ms absolute: at test scale a sweep takes
        // tens of milliseconds and a bare ratio would gate on timer
        // granularity rather than profiler cost.
        assert!(
            profiled_seconds <= plain_seconds * 1.10 + 0.05,
            "profiled sweep is more than 10% slower than the baseline \
             ({profiled_seconds:.3}s vs {plain_seconds:.3}s)"
        );
        println!("overhead gate passed (<= 10%)");
    }
}
