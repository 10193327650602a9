//! Property test: the compiled trigger evaluator (`tia-jit` guard
//! masks and the predicate-state dispatch table) and the idle key of
//! the functional [`FuncPe`] are architecturally invisible. Random
//! programs run under the interpreted debug oracle against a twin
//! that re-scans every cycle (see the `trigger_oracle` module), while
//! external "fabric" traffic lands on the input queues and drains the
//! output queues mid-run. Occasionally the keyed PE bulk-skips an idle
//! stretch while the twin steps through it, and the predicate state is
//! overwritten from outside, as a host preload does.
//!
//! `trigger_cache_prop` runs the same generator and oracle over the
//! cycle-level PE.

mod trigger_oracle;

use proptest::prelude::*;
use tia_isa::{Params, PredState};
use tia_sim::FuncPe;
use trigger_oracle::{assemble_or_fail, fabric_traffic, program_and_traffic, Rng};

/// Steps a PE after restoring it from its own snapshot, which drops
/// its idle key, so the step re-scans every trigger.
fn step_fresh_func(pe: &mut FuncPe) -> Option<usize> {
    let state = pe.snapshot();
    pe.restore(&state).expect("a PE restores its own snapshot");
    pe.step_cycle()
}

/// Runs the functional model against its idle-key-free twin; the
/// schedule also overwrites the predicate state from outside now and
/// then.
fn run_func(source: &str, traffic_seed: u64) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = assemble_or_fail(source, &params)?;
    let mut keyed = FuncPe::new(&params, program.clone()).expect("PE builds");
    let mut twin = FuncPe::new(&params, program).expect("PE builds");
    keyed.record_trace(true);
    twin.record_trace(true);

    let mut rng = Rng(traffic_seed);
    for cycle in 0..300u32 {
        fabric_traffic(&mut rng, &params, &mut keyed, &mut twin, cycle)?;
        if rng.chance(1, 16) {
            let preds = PredState::from_bits(rng.below(8) as u32);
            keyed.set_predicates(preds);
            twin.set_predicates(preds);
        }

        if keyed.is_quiescent() && rng.chance(1, 4) {
            let skip = 1 + rng.below(5);
            keyed.skip_idle_cycles(skip);
            for _ in 0..skip {
                let fired = step_fresh_func(&mut twin);
                prop_assert_eq!(fired, None, "a skipped cycle fired at {}", cycle);
            }
        } else {
            let a = keyed.step_cycle();
            let b = step_fresh_func(&mut twin);
            prop_assert_eq!(a, b, "fired slots diverged at cycle {}", cycle);
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
    fn compiled_trigger_engine_matches_the_interpreter(seed in any::<u64>()) {
        trigger_oracle::require_debug_oracle()?;
        let (source, traffic_seed) = program_and_traffic(seed);
        run_func(&source, traffic_seed)?;
    }
}
