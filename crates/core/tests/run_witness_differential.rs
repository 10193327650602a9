//! Run-witness differential: a run is, cycle for cycle, the run of
//! every configuration its [`ConfigWitness`] covers. Two knobs are
//! watched: the §5.3 effective-queue-status setting (+Q) and the §6
//! nesting limit `speculation_depth`. [`UarchPe::witness`] records
//! which of them the trigger decisions depended on, and the run store
//! answers every covered key from one simulation on its word (see
//! [`ConfigWitness::covers`]).
//!
//! Every workload runs on every pipeline, with and without +P, once
//! without and once with +Q; and on the three deepest-speculating
//! pipelines with +P at depths 1–4, with and without +Q. Runs the
//! witness says are alike must agree on the witness itself and on
//! every PE's counters and retirement trace, the system cycles and
//! the memory image. A property test does the same on random programs
//! under random fabric traffic, cycle by cycle.

#[allow(dead_code)]
mod trigger_oracle;

use proptest::prelude::*;
use tia_asm::assemble;
use tia_core::{ConfigWitness, Pipeline, UarchConfig, UarchCounters, UarchPe};
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

/// `pipeline` with +P, the +Q setting `q` and nesting limit `depth`.
fn nested(pipeline: Pipeline, q: bool, depth: u8) -> UarchConfig {
    UarchConfig {
        effective_queue_status: q,
        ..UarchConfig::with_nested(pipeline, depth)
    }
}

/// Everything a covered configuration must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    counters: Vec<UarchCounters>,
    traces: Vec<Vec<u16>>,
    system_cycles: u64,
    memory: Vec<u32>,
}

/// Runs `kind` on `config` and returns its outcome and the witness
/// joined over its PEs.
fn run(kind: WorkloadKind, config: UarchConfig) -> (Outcome, ConfigWitness) {
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
    let witness = pes
        .iter()
        .map(|pe| pe.witness())
        .fold(ConfigWitness::CLEAN, ConfigWitness::join);
    (outcome, witness)
}

#[test]
fn clean_workload_runs_are_their_q_twins() {
    let mut clean = 0;
    let mut tripped = Vec::new();
    for kind in ALL_WORKLOADS {
        for pipeline in Pipeline::ALL {
            for config in [UarchConfig::base(pipeline), UarchConfig::with_p(pipeline)] {
                let twin = q_twin(config);
                let (outcome, witness) = run(kind, config);
                let (twin_outcome, twin_witness) = run(kind, twin);
                assert_eq!(
                    witness.queue_status_mattered, twin_witness.queue_status_mattered,
                    "{kind}: the witness differs between {config} and {twin}"
                );
                if witness.queue_status_mattered {
                    tripped.push(kind);
                } else {
                    clean += 1;
                    assert!(witness.covers(&config, &twin));
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

#[test]
fn workload_runs_match_at_every_covered_depth() {
    let pipelines = [Pipeline::T_DX1_X2, Pipeline::T_D_X, Pipeline::T_D_X1_X2];
    let (mut depth_pairs, mut joint_pairs, mut bound, mut clean) = (0, 0, 0, 0);
    for kind in ALL_WORKLOADS {
        for pipeline in pipelines {
            let runs: Vec<(UarchConfig, Outcome, ConfigWitness)> = [false, true]
                .into_iter()
                .flat_map(|q| (1..=4).map(move |depth| nested(pipeline, q, depth)))
                .map(|config| {
                    let (outcome, witness) = run(kind, config);
                    (config, outcome, witness)
                })
                .collect();
            for (config, outcome, witness) in &runs {
                if witness.spec_depth_needed > 1 {
                    bound += 1;
                } else {
                    clean += 1;
                }
                for (other, other_outcome, other_witness) in &runs {
                    if config == other || !witness.covers(config, other) {
                        continue;
                    }
                    assert_eq!(
                        witness, other_witness,
                        "{kind}: {config} covers {other} but their witnesses differ"
                    );
                    assert_eq!(
                        outcome, other_outcome,
                        "{kind}: {config} covers {other} but they ran differently"
                    );
                    if config.effective_queue_status == other.effective_queue_status {
                        depth_pairs += 1;
                    } else if config.speculation_depth != other.speculation_depth {
                        joint_pairs += 1;
                    }
                }
            }
        }
    }
    assert!(depth_pairs > 0, "no depth pair was compared");
    assert!(joint_pairs > 0, "no joint +Q and depth pair was compared");
    assert!(bound > 0, "no run needed a deeper limit than 1");
    assert!(clean > 0, "every run needed a deeper limit than 1");
}

/// One cycle's traffic as one PE saw it: whether a pushed token was
/// accepted, and what a drain took.
type Traffic = (Option<bool>, Option<Option<Token>>);

/// Applies one cycle's external traffic to `pe`: a token landing on an
/// input queue and a token drained from an output queue, both drawn
/// from `rng`. PEs fed from equal generators get the same schedule.
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

/// Steps `config` and `other` side by side on one random program under
/// one traffic schedule. While the first PE's witness covers `other`,
/// the witnesses must agree every cycle and the two PEs must be
/// indistinguishable.
fn run_pair(
    config: UarchConfig,
    other: UarchConfig,
    source: &str,
    traffic_seed: u64,
) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = assemble_or_fail(source, &params)?;
    let mut a = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    let mut b = UarchPe::new(&params, other, program).expect("PE builds");
    a.record_trace(true);
    b.record_trace(true);
    let (mut rng_a, mut rng_b) = (Rng(traffic_seed), Rng(traffic_seed));
    for cycle in 0..300u32 {
        let traffic_a = fabric_traffic(&mut rng_a, &params, &mut a);
        let traffic_b = fabric_traffic(&mut rng_b, &params, &mut b);
        a.step_cycle();
        b.step_cycle();
        prop_assert_eq!(
            a.witness(),
            b.witness(),
            "the witness diverged at cycle {} between {} and {}\nprogram:\n{}",
            cycle,
            config,
            other,
            source
        );
        if !a.witness().covers(&config, &other) {
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
        "retirement traces of {} and {}\nprogram:\n{}",
        config,
        other,
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
    fn clean_random_runs_are_their_twins(seed in any::<u64>()) {
        let (source, traffic_seed) = program_and_traffic(seed);
        for pipeline in [Pipeline::TDX, Pipeline::T_DX, Pipeline::TD_X1_X2, Pipeline::T_D_X1_X2] {
            for config in [UarchConfig::base(pipeline), UarchConfig::with_p(pipeline)] {
                run_pair(config, q_twin(config), &source, traffic_seed)?;
            }
            // +P at depths 1-3: each depth against every deeper one,
            // with the +Q setting kept and flipped.
            for depth in 1..=2 {
                for deeper in depth + 1..=3 {
                    for q in [false, true] {
                        let config = nested(pipeline, q, depth);
                        run_pair(config, nested(pipeline, q, deeper), &source, traffic_seed)?;
                        run_pair(config, nested(pipeline, !q, deeper), &source, traffic_seed)?;
                    }
                }
            }
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
    assert_eq!(
        pe.witness(),
        ConfigWitness::CLEAN,
        "the first issue sees no pending dequeue"
    );
    let clean = pe.clone();
    assert_eq!(
        clean.witness(),
        ConfigWitness::CLEAN,
        "a clone of a clean PE is clean"
    );

    pe.step_cycle();
    assert!(
        pe.witness().queue_status_mattered,
        "the pending dequeue trips the witness"
    );
    assert_eq!(
        pe.clone().witness(),
        pe.witness(),
        "a clone copies the witness"
    );

    let mut restored = UarchPe::new(&params, config, program).expect("PE builds");
    assert_eq!(restored.witness(), ConfigWitness::CLEAN);
    restored
        .restore(&clean.snapshot())
        .expect("restores a snapshot of the same program");
    assert_eq!(
        restored.witness(),
        ConfigWitness::UNKNOWN,
        "the history before a snapshot is unknown, so a restored PE is not clean"
    );
}

#[test]
fn a_nested_writer_raises_the_needed_depth() {
    // A predicate writer that always triggers: on T|D|X1|X2 its first
    // speculation is still outstanding when the next cycle evaluates
    // it again, so that run needs a nesting limit of 2.
    let params = Params::default();
    let program = assemble("when %p == XXXXXXXX: ult %p1, %r0, 100;", &params).expect("assembles");
    let config = UarchConfig::with_p(Pipeline::T_D_X1_X2);
    let mut pe = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    pe.step_cycle();
    assert_eq!(pe.witness().spec_depth_needed, 1, "nothing outstanding yet");
    let shallow = pe.clone();
    pe.step_cycle();
    assert_eq!(
        pe.witness().spec_depth_needed,
        2,
        "the limit gated the second evaluation"
    );
    assert_eq!(
        pe.clone().witness(),
        pe.witness(),
        "a clone copies the witness"
    );
    assert_eq!(
        shallow.witness().spec_depth_needed,
        1,
        "clones are independent"
    );

    let mut restored = UarchPe::new(&params, config, program).expect("PE builds");
    restored
        .restore(&shallow.snapshot())
        .expect("restores a snapshot of the same program");
    assert_eq!(restored.witness().spec_depth_needed, u8::MAX);
    assert!(!restored.witness().covers(
        &config,
        &UarchConfig {
            speculation_depth: 2,
            ..config
        }
    ));
}
