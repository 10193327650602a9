//! +Q twin differential: a run whose trigger decisions never depended
//! on the §5.3 effective-queue-status setting is, cycle for cycle, the
//! run of its +Q twin — the same configuration with
//! `effective_queue_status` flipped. [`UarchPe::queue_status_mattered`]
//! witnesses that, and the run store answers both keys from one
//! simulation on its word.
//!
//! Every workload runs on every pipeline, with and without +P, once
//! without and once with +Q. The witness must agree between the two
//! runs, and where it stays clear every PE's counters and retirement
//! trace, the system cycles and the memory image must be equal. A
//! property test does the same on random programs under random fabric
//! traffic, cycle by cycle.

#[allow(dead_code)]
mod trigger_oracle;

use proptest::prelude::*;
use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchCounters, UarchPe};
use tia_fabric::{ProcessingElement, Token};
use tia_isa::{Params, Tag};
use tia_workloads::{Scale, WorkloadKind, ALL_WORKLOADS};
use trigger_oracle::{assemble_or_fail, program_and_traffic, Rng};

/// The configuration with the +Q setting flipped.
fn q_twin(config: UarchConfig) -> UarchConfig {
    UarchConfig {
        effective_queue_status: !config.effective_queue_status,
        ..config
    }
}

/// Everything a twin must reproduce, plus the witness.
#[derive(Debug, PartialEq)]
struct Outcome {
    counters: Vec<UarchCounters>,
    traces: Vec<Vec<u16>>,
    system_cycles: u64,
    memory: Vec<u32>,
}

/// Runs `kind` on `config` and returns its outcome and whether any PE
/// saw the +Q setting matter.
fn run(kind: WorkloadKind, config: UarchConfig) -> (Outcome, bool) {
    let params = Params::default();
    let mut factory = |p: &Params, program| {
        let mut pe = UarchPe::new(p, config, program)?;
        pe.record_trace(true);
        Ok(pe)
    };
    let mut built = kind
        .build(&params, Scale::Test, &mut factory)
        .unwrap_or_else(|e| panic!("{kind} on {config}: build: {e}"));
    built
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{kind} on {config}: {e}"));
    let system = &built.system;
    let pes: Vec<&UarchPe> = (0..system.num_pes()).map(|i| system.pe(i)).collect();
    let outcome = Outcome {
        counters: pes.iter().map(|pe| *pe.counters()).collect(),
        traces: pes.iter().map(|pe| pe.trace().to_vec()).collect(),
        system_cycles: system.cycle(),
        memory: system.memory().words().to_vec(),
    };
    (outcome, pes.iter().any(|pe| pe.queue_status_mattered()))
}

#[test]
fn clean_workload_runs_are_their_q_twins() {
    let mut clean = 0;
    let mut tripped = Vec::new();
    for kind in ALL_WORKLOADS {
        for pipeline in Pipeline::ALL {
            for config in [UarchConfig::base(pipeline), UarchConfig::with_p(pipeline)] {
                let twin = q_twin(config);
                let (outcome, mattered) = run(kind, config);
                let (twin_outcome, twin_mattered) = run(kind, twin);
                assert_eq!(
                    mattered, twin_mattered,
                    "{kind}: the witness differs between {config} and {twin}"
                );
                if mattered {
                    tripped.push(kind);
                } else {
                    clean += 1;
                    assert_eq!(
                        outcome, twin_outcome,
                        "{kind}: {config} is clean but its twin {twin} ran differently"
                    );
                }
            }
        }
    }
    assert!(clean > 0, "no clean pair: the equality check never ran");
    assert!(
        tripped
            .iter()
            .any(|&k| matches!(k, WorkloadKind::Merge | WorkloadKind::StringSearch)),
        "neither merge nor string_search trips the witness, so it is never exercised"
    );
}

/// One cycle's traffic as one PE saw it: whether a pushed token was
/// accepted, and what a drain took.
type Traffic = (Option<bool>, Option<Option<Token>>);

/// Applies one cycle's external traffic to `pe`: a token landing on an
/// input queue and a token drained from an output queue, both drawn
/// from `rng`. Twins fed from equal generators get the same schedule.
fn fabric_traffic(rng: &mut Rng, params: &Params, pe: &mut UarchPe) -> Traffic {
    let mut pushed = None;
    if rng.chance(1, 3) {
        let q = rng.below(4) as usize;
        let tag = Tag::new(rng.below(2) as u32, params).expect("tag in range");
        let token = Token::new(tag, rng.below(100) as u32);
        pushed = Some(pe.input_queue_mut(q).push(token));
    }
    let mut drained = None;
    if rng.chance(1, 4) {
        let q = rng.below(2) as usize;
        drained = Some(pe.output_queue_mut(q).pop());
    }
    (pushed, drained)
}

/// Steps `config` and its +Q twin side by side on one random program
/// under one traffic schedule. The witness must agree every cycle, and
/// while it is clear the two PEs must be indistinguishable.
fn run_twins(config: UarchConfig, source: &str, traffic_seed: u64) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = assemble_or_fail(source, &params)?;
    let mut a = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    let mut b = UarchPe::new(&params, q_twin(config), program).expect("PE builds");
    a.record_trace(true);
    b.record_trace(true);
    let (mut rng_a, mut rng_b) = (Rng(traffic_seed), Rng(traffic_seed));
    for cycle in 0..300u32 {
        let traffic_a = fabric_traffic(&mut rng_a, &params, &mut a);
        let traffic_b = fabric_traffic(&mut rng_b, &params, &mut b);
        a.step_cycle();
        b.step_cycle();
        prop_assert_eq!(
            a.queue_status_mattered(),
            b.queue_status_mattered(),
            "the witness diverged at cycle {}\nprogram:\n{}",
            cycle,
            source
        );
        if a.queue_status_mattered() {
            return Ok(());
        }
        prop_assert_eq!(traffic_a, traffic_b, "traffic diverged at cycle {}", cycle);
        prop_assert_eq!(a.counters(), b.counters(), "counters at cycle {}", cycle);
        prop_assert_eq!(a.predicates().bits(), b.predicates().bits());
        for q in 0..4 {
            prop_assert_eq!(a.input_queue(q), b.input_queue(q), "input {}", q);
        }
        for q in 0..2 {
            prop_assert_eq!(a.output_queue(q), b.output_queue(q), "output {}", q);
        }
        if a.halted() || b.halted() {
            prop_assert!(a.halted() && b.halted(), "halt diverged at cycle {}", cycle);
            break;
        }
    }
    prop_assert_eq!(
        a.trace(),
        b.trace(),
        "retirement traces\nprogram:\n{}",
        source
    );
    for r in 0..4 {
        prop_assert_eq!(a.reg(r), b.reg(r), "r{}", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn clean_random_runs_are_their_q_twins(seed in any::<u64>()) {
        let (source, traffic_seed) = program_and_traffic(seed);
        for pipeline in [Pipeline::TDX, Pipeline::T_DX, Pipeline::TD_X1_X2, Pipeline::T_D_X1_X2] {
            run_twins(UarchConfig::base(pipeline), &source, traffic_seed)?;
            run_twins(UarchConfig::with_p(pipeline), &source, traffic_seed)?;
        }
    }
}

#[test]
fn restore_sets_the_witness_and_clone_copies_it() {
    // Four tokens behind a dequeuing slot: on T|D|X the second cycle
    // sees one dequeue in flight, which conservative status counts as
    // an empty queue and effective status does not.
    let params = Params::default();
    let program = assemble(
        "when %p == XXXXXXXX with %i0.0: add %r0, %r0, %i0; deq %i0;",
        &params,
    )
    .expect("assembles");
    let config = UarchConfig::base(Pipeline::T_D_X);
    let mut pe = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    let tag = Tag::new(0, &params).expect("tag in range");
    for value in 1..=4 {
        assert!(pe.input_queue_mut(0).push(Token::new(tag, value)));
    }
    pe.step_cycle();
    assert!(
        !pe.queue_status_mattered(),
        "the first issue sees no pending dequeue"
    );
    let clean = pe.clone();
    assert!(
        !clean.queue_status_mattered(),
        "a clone of a clean PE is clean"
    );

    pe.step_cycle();
    assert!(
        pe.queue_status_mattered(),
        "the pending dequeue trips the witness"
    );
    assert!(
        pe.clone().queue_status_mattered(),
        "a clone copies the witness"
    );

    let mut restored = UarchPe::new(&params, config, program).expect("PE builds");
    assert!(!restored.queue_status_mattered());
    restored
        .restore(&clean.snapshot())
        .expect("restores a snapshot of the same program");
    assert!(
        restored.queue_status_mattered(),
        "the history before a snapshot is unknown, so a restored PE is not clean"
    );
}
