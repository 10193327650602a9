//! Property test: snapshot/restore is architecturally invisible at
//! *any* cycle. Random programs run under random external fabric
//! traffic on two copies of the same pipelined PE; one runs straight
//! through, the other is snapshotted at a random cycle — with the
//! snapshot round-tripped through its JSON serialization — restored
//! into a freshly constructed PE, and resumed. Every architectural
//! observable must stay identical on every cycle after the restore,
//! including mid-flight speculation, in-flight pipeline latches, and
//! predictor counters.

use proptest::prelude::*;
use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::{ProcessingElement, Snapshotable, Token};
use tia_isa::{Params, Tag};

/// SplitMix64 — one seed drives the program + traffic + snapshot
/// cycle, so failures reproduce from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// A random but well-formed program over predicate bits p0..p2, the
/// input and output queues, registers r0..r3 and tags 0/1 (the same
/// generator family as `tests/trigger_oracle`).
fn random_program(rng: &mut Rng) -> String {
    let slots = 2 + rng.below(6);
    let mut src = String::new();
    for _ in 0..slots {
        let mut pattern = String::from("XXXXX");
        for _ in 0..3 {
            pattern.push(match rng.below(3) {
                0 => 'X',
                1 => '0',
                _ => '1',
            });
        }

        let queue = if rng.chance(1, 2) {
            Some((rng.below(4), rng.below(2)))
        } else {
            None
        };
        let with = match queue {
            Some((q, tag)) => format!(" with %i{q}.{tag}"),
            None => String::new(),
        };

        let reg_src = format!("%r{}", rng.below(4));
        let source = match queue {
            Some((q, _)) if rng.chance(2, 3) => format!("%i{q}"),
            _ => reg_src,
        };
        let op = match rng.below(8) {
            0 => format!("add %r{}, {source}, {};", rng.below(4), rng.below(16)),
            1 => format!("sub %r{}, {source}, {};", rng.below(4), rng.below(16)),
            2 => format!("mov %r{}, {source};", rng.below(4)),
            3 | 4 => format!(
                "add %o{}.{}, {source}, {};",
                rng.below(2),
                rng.below(2),
                rng.below(16)
            ),
            // Datapath predicate writes keep the speculation machinery
            // (the hardest state to checkpoint) busy.
            5 | 6 => format!("ult %p{}, {source}, {};", rng.below(3), rng.below(24)),
            _ => "nop;".to_string(),
        };
        let pred_dst: Option<u64> = if op.starts_with("ult") {
            Some(op.as_bytes()["ult %p".len()] as u64 - b'0' as u64)
        } else {
            None
        };

        let set = if rng.chance(2, 3) {
            let mut update = String::from("ZZZZZ");
            for bit in (0..3u64).rev() {
                let free = pred_dst != Some(bit);
                update.push(match rng.below(3) {
                    0 if free => '0',
                    1 if free => '1',
                    _ => 'Z',
                });
            }
            if update.chars().all(|c| c == 'Z') {
                String::new()
            } else {
                format!(" set %p = {update};")
            }
        } else {
            String::new()
        };

        let deq = match queue {
            Some((q, _)) if rng.chance(3, 4) => format!(" deq %i{q};"),
            _ => String::new(),
        };

        src.push_str(&format!("when %p == {pattern}{with}: {op}{set}{deq}\n"));
    }
    if rng.chance(1, 4) {
        src.push_str("when %p == XXXXX111: halt;\n");
    }
    src
}

/// One cycle of external fabric traffic, precomputed so the straight
/// and the snapshotted run see the identical schedule.
#[derive(Clone, Copy)]
struct Traffic {
    push: Option<(usize, Token)>,
    pop: Option<usize>,
}

fn random_traffic(rng: &mut Rng, cycles: usize, params: &Params) -> Vec<Traffic> {
    (0..cycles)
        .map(|_| Traffic {
            push: rng.chance(1, 3).then(|| {
                let q = rng.below(4) as usize;
                let tag = Tag::new(rng.below(2) as u32, params).expect("tag in range");
                (q, Token::new(tag, rng.below(100) as u32))
            }),
            pop: rng.chance(1, 4).then(|| rng.below(2) as usize),
        })
        .collect()
}

fn apply_traffic(pe: &mut UarchPe, t: &Traffic) {
    if let Some((q, token)) = t.push {
        // A full queue rejects the push identically on both PEs.
        let _ = pe.input_queue_mut(q).push(token);
    }
    if let Some(q) = t.pop {
        let _ = pe.output_queue_mut(q).pop();
    }
}

fn configs_under_test() -> Vec<UarchConfig> {
    vec![
        UarchConfig::base(Pipeline::TDX),
        UarchConfig::base(Pipeline::T_DX),
        UarchConfig::with_p(Pipeline::T_DX),
        UarchConfig::with_q(Pipeline::TD_X),
        UarchConfig::with_pq(Pipeline::TD_X1_X2),
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    ]
}

fn run_differential(
    config: UarchConfig,
    source: &str,
    traffic: &[Traffic],
    snapshot_at: usize,
) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = match assemble(source, &params) {
        Ok(p) => p,
        Err(e) => return Err(TestCaseError::fail(format!("{e}\nprogram:\n{source}"))),
    };
    let mut straight = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    let mut split = UarchPe::new(&params, config, program.clone()).expect("PE builds");

    for t in traffic.iter().take(snapshot_at) {
        apply_traffic(&mut straight, t);
        straight.step_cycle();
        apply_traffic(&mut split, t);
        split.step_cycle();
    }

    // Snapshot mid-run — possibly mid-speculation, with instructions
    // in flight — round-trip the state through JSON, and restore into
    // a brand-new PE.
    let json = serde_json::to_string(&split.save_state()).expect("snapshot serializes");
    let value: serde::Value = serde_json::from_str(&json).expect("snapshot parses back");
    let mut resumed = UarchPe::new(&params, config, program).expect("PE builds");
    resumed
        .restore_state(&value)
        .unwrap_or_else(|e| panic!("restore at cycle {snapshot_at}: {e}"));

    for (cycle, t) in traffic.iter().enumerate().skip(snapshot_at) {
        apply_traffic(&mut straight, t);
        straight.step_cycle();
        apply_traffic(&mut resumed, t);
        resumed.step_cycle();

        prop_assert_eq!(
            straight.counters(),
            resumed.counters(),
            "counters diverged at cycle {} (snapshot at {})\nprogram:\n{}",
            cycle,
            snapshot_at,
            source
        );
        prop_assert_eq!(
            straight.predicates().bits(),
            resumed.predicates().bits(),
            "predicates diverged at cycle {}",
            cycle
        );
        for r in 0..4 {
            prop_assert_eq!(straight.reg(r), resumed.reg(r), "r{} diverged", r);
        }
        for q in 0..4 {
            prop_assert_eq!(
                straight.input_queue(q),
                resumed.input_queue(q),
                "input queue {} diverged at cycle {}",
                q,
                cycle
            );
        }
        for q in 0..2 {
            prop_assert_eq!(
                straight.output_queue(q),
                resumed.output_queue(q),
                "output queue {} diverged at cycle {}",
                q,
                cycle
            );
        }
        prop_assert_eq!(
            straight.halted(),
            resumed.halted(),
            "halt diverged at cycle {}",
            cycle
        );
        if straight.halted() {
            break;
        }
    }

    // The complete microarchitectural state — pipeline latches,
    // speculation stack, predictor tables, queue statistics — must
    // also agree bit-for-bit at the end.
    let a = serde_json::to_string(&straight.save_state()).unwrap();
    let b = serde_json::to_string(&resumed.save_state()).unwrap();
    prop_assert_eq!(a, b, "final state diverged (snapshot at {})", snapshot_at);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn restore_at_a_random_cycle_is_architecturally_invisible(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let source = random_program(&mut rng);
        let params = Params::default();
        const CYCLES: usize = 200;
        let traffic = random_traffic(&mut rng, CYCLES, &params);
        let snapshot_at = 1 + rng.below(CYCLES as u64 - 1) as usize;
        for config in configs_under_test() {
            run_differential(config, &source, &traffic, snapshot_at)?;
        }
    }
}
