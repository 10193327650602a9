//! Property test: the idle key of the cycle-level [`UarchPe`] — the
//! latched stall that replays the trigger stage and serves
//! `next_event_cycle`/`skip_cycles` — and its compiled trigger scan
//! are architecturally invisible. Random programs run under six
//! configurations, under the interpreted debug oracle, against a twin
//! that re-evaluates every trigger every cycle (see the
//! `trigger_oracle` module), while external "fabric" traffic lands on
//! the input queues and drains the output queues mid-run.
//! Occasionally the keyed PE bulk-skips a latched stall while the twin
//! steps through it.
//!
//! `jit_interp_prop` runs the same generator and oracle over the
//! functional model.

mod trigger_oracle;

use proptest::prelude::*;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::ProcessingElement;
use tia_isa::Params;
use trigger_oracle::{assemble_or_fail, fabric_traffic, program_and_traffic, Rng};

fn configs_under_test() -> Vec<UarchConfig> {
    vec![
        UarchConfig::base(Pipeline::TDX),
        UarchConfig::base(Pipeline::T_DX),
        UarchConfig::with_p(Pipeline::T_DX),
        UarchConfig::with_pq(Pipeline::TD_X1_X2),
        UarchConfig::base(Pipeline::T_D_X1_X2),
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    ]
}

/// Steps a PE after restoring it from its own snapshot, which drops
/// its idle key, so the step re-scans every trigger.
fn step_fresh_uarch(pe: &mut UarchPe) {
    let state = pe.snapshot();
    pe.restore(&state).expect("a PE restores its own snapshot");
    pe.step_cycle();
}

/// Runs one configuration of the cycle-level PE against its
/// idle-key-free twin.
fn run_uarch(config: UarchConfig, source: &str, traffic_seed: u64) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = assemble_or_fail(source, &params)?;
    let mut keyed = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    let mut twin = UarchPe::new(&params, config, program).expect("PE builds");
    keyed.record_trace(true);
    twin.record_trace(true);

    let mut rng = Rng(traffic_seed);
    for cycle in 0..300u32 {
        fabric_traffic(&mut rng, &params, &mut keyed, &mut twin, cycle)?;

        if keyed.next_event_cycle(0).is_none() && rng.chance(1, 4) {
            // A latched stall: bulk-skip it on one side, step it on
            // the other.
            let skip = 1 + rng.below(5);
            keyed.skip_cycles(skip);
            for _ in 0..skip {
                step_fresh_uarch(&mut twin);
            }
        } else {
            keyed.step_cycle();
            step_fresh_uarch(&mut twin);
        }

        prop_assert_eq!(
            keyed.counters(),
            twin.counters(),
            "counters diverged at cycle {}\nprogram:\n{}",
            cycle,
            source
        );
        prop_assert_eq!(
            keyed.predicates().bits(),
            twin.predicates().bits(),
            "predicates diverged at cycle {}",
            cycle
        );
        for r in 0..4 {
            prop_assert_eq!(
                keyed.reg(r),
                twin.reg(r),
                "r{} diverged at cycle {}",
                r,
                cycle
            );
        }
        for q in 0..4 {
            prop_assert_eq!(
                keyed.input_queue(q),
                twin.input_queue(q),
                "input queue {} diverged at cycle {}",
                q,
                cycle
            );
        }
        for q in 0..2 {
            prop_assert_eq!(
                keyed.output_queue(q),
                twin.output_queue(q),
                "output queue {} diverged at cycle {}",
                q,
                cycle
            );
        }
        prop_assert_eq!(
            keyed.halted(),
            twin.halted(),
            "halt diverged at cycle {}",
            cycle
        );
        if keyed.halted() {
            break;
        }
    }

    prop_assert_eq!(
        keyed.trace(),
        twin.trace(),
        "retirement traces diverged\nprogram:\n{}",
        source
    );
    let a = serde_json::to_string(&keyed.snapshot()).expect("snapshot serializes");
    let b = serde_json::to_string(&twin.snapshot()).expect("snapshot serializes");
    prop_assert_eq!(a, b, "snapshots are not byte-identical");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn cached_trigger_phase_matches_exhaustive_reevaluation(seed in any::<u64>()) {
        trigger_oracle::require_debug_oracle()?;
        let (source, traffic_seed) = program_and_traffic(seed);
        for config in configs_under_test() {
            run_uarch(config, &source, traffic_seed)?;
        }
    }
}
