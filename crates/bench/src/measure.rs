//! Shared measurement plumbing: run workloads on the cycle-level
//! model and fold runs into the activity the energy model's
//! design-space exploration consumes.

use tia_core::{UarchConfig, UarchCounters, UarchPe};
use tia_energy::dse::CpiMeasurement;
use tia_isa::Params;
use tia_prof::{CycleStack, LeafShares};
use tia_workloads::{Scale, WorkloadKind};

use crate::jsonout::json_out_from_args;
use crate::store::RunKey;

/// The outcome of running one workload on one microarchitecture: what
/// the run store keeps per run.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredRun {
    /// The workload.
    pub kind: WorkloadKind,
    /// The microarchitecture.
    pub config: UarchConfig,
    /// The designated worker PE's counters.
    pub counters: UarchCounters,
    /// Global system cycles of the run (≥ the worker's own cycles;
    /// the excess is the worker's halted tail).
    pub system_cycles: u64,
}

/// Runs one workload to completion on the cycle-level model and
/// returns the worker's counters. Results are verified against the
/// golden model before returning.
///
/// # Panics
///
/// Panics if the workload fails to build, run or verify — these are
/// harness bugs, not user errors.
pub fn run_uarch_workload(key: &RunKey, scale: Scale) -> MeasuredRun {
    let RunKey {
        kind,
        ref params,
        config,
    } = *key;
    let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
    let mut built = kind
        .build(params, scale, &mut factory)
        .unwrap_or_else(|e| panic!("{kind} on {config}: build failed: {e}"));
    built
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{kind} on {config}: {e}"));
    MeasuredRun {
        kind,
        config,
        counters: *built.system.pe(built.worker).counters(),
        system_cycles: built.system.cycle(),
    }
}

/// The worker PE's coarse hierarchical cycle stack, derived from its
/// cumulative counters (no per-cycle observation, so the whole
/// not-triggered count lands in `idle`; use `tia_prof::profile_run`
/// for the fine backpressure/memory split). Any cycles the worker's
/// own counter is short of the run's global cycle count — plus any
/// issue slots left unresolved — land in `halted`/`in-flight` so the
/// stack still sums to `system_cycles`.
pub fn coarse_stack(run: &MeasuredRun) -> CycleStack {
    let c = run.counters;
    let mut stack = CycleStack {
        retire: c.retired,
        quash: c.quashed,
        predicate_hazard: c.pred_hazard_cycles,
        data_hazard: c.data_hazard_cycles,
        predictor_recovery: c.forbidden_cycles,
        idle: c.not_triggered_cycles,
        halted: run.system_cycles.max(c.cycles) - c.cycles,
        ..CycleStack::default()
    };
    // §3.3 identity residual: issue slots still in flight at run end.
    stack.in_flight = c.cycles.saturating_sub(stack.total() - stack.halted);
    stack
}

/// The CPI/activity measurement the DSE consumes, averaged over
/// `runs` in order: one `bst` run is the paper's power-activity
/// reference (§3), and one run per workload of the suite is the delay
/// model of the design-space exploration and the Figure 5 averages —
/// the paper's Figure 8 instruction latencies imply a suite-level CPI
/// (≈1.6 at TDX1|X2 +Q), not the memory-serial `bst` CPI.
pub fn activity_of(runs: &[MeasuredRun]) -> CpiMeasurement {
    let mut cpi_sum = 0.0;
    let mut issue_sum = 0.0;
    let mut shares = Vec::with_capacity(runs.len());
    for run in runs {
        let c = run.counters;
        cpi_sum += c.cpi();
        issue_sum += (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64;
        let stack = coarse_stack(run);
        shares.push(stack.shares(stack.total()));
    }
    let n = runs.len().max(1) as f64;
    let stack = LeafShares::average(&shares);
    CpiMeasurement {
        cpi: cpi_sum / n,
        issue_rate: issue_sum / n,
        stack,
        bottleneck: stack.bottleneck(),
    }
}

/// Parses the common harness flags: `--test-scale` selects the small
/// input set, otherwise the paper-scale inputs are used.
///
/// # Panics
///
/// Panics on a malformed `--json` flag (see [`json_out_from_args`]).
pub fn scale_from_args() -> Scale {
    json_out_from_args();
    if std::env::args().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_core::Pipeline;

    #[test]
    fn a_measured_run_verifies_and_reports() {
        let key = RunKey::new(WorkloadKind::Gcd, UarchConfig::with_pq(Pipeline::T_DX));
        let run = run_uarch_workload(&key, Scale::Test);
        assert!(run.counters.retired > 30);
        assert!(run.counters.cycles >= run.counters.retired);
    }

    #[test]
    fn activity_carries_a_normalized_stack() {
        let key = RunKey::new(WorkloadKind::Bst, UarchConfig::with_pq(Pipeline::T_D_X1_X2));
        let run = run_uarch_workload(&key, Scale::Test);
        assert!(run.system_cycles >= run.counters.cycles);
        let stack = coarse_stack(&run);
        assert_eq!(stack.total(), run.system_cycles.max(run.counters.cycles));
        let m = activity_of(&[run]);
        assert!((m.stack.total() - 1.0).abs() < 1e-9, "shares normalize");
        assert_eq!(m.bottleneck, m.stack.bottleneck());
    }

    #[test]
    fn bst_activity_is_sane() {
        let key = RunKey::new(WorkloadKind::Bst, UarchConfig::base(Pipeline::TDX));
        let m = activity_of(&[run_uarch_workload(&key, Scale::Test)]);
        assert!(m.cpi >= 1.0);
        assert!(m.issue_rate > 0.0 && m.issue_rate <= 1.0);
        // CPI and issue rate are reciprocal for an unpipelined design
        // with no quashing.
        assert!((m.cpi * m.issue_rate - 1.0).abs() < 1e-9);
    }
}
