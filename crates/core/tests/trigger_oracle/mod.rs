//! The trigger oracle shared by `jit_interp_prop` (functional model)
//! and `trigger_cache_prop` (cycle-level model): one random-program
//! generator, one external traffic schedule and one precondition for
//! both property tests.
//!
//! Two oracles watch every cycle of those tests:
//!
//! * inside the PEs, debug builds re-run the interpreted reference
//!   scan on every compiled scan and every idle-key hit, so a
//!   divergence panics at the exact offending cycle; the tests refuse
//!   to run without that oracle compiled in;
//! * outside, a twin of each PE is restored from its own snapshot
//!   before every step, which drops the derived idle key, so the twin
//!   re-scans every cycle. Every architectural observable, the
//!   retirement trace and the final snapshot bytes must match.

use proptest::prelude::*;
use tia_asm::assemble;
use tia_fabric::{ProcessingElement, Token};
use tia_isa::{Params, Tag};

/// SplitMix64 — one seed from the proptest strategy drives the whole
/// program + traffic schedule, so failures reproduce from the seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// A random but well-formed program over predicate bits p0..p2, all
/// four input queues, both output queues, registers r0..r3 and tags
/// 0/1 — including negated tag checks, two-queue guards and dequeues,
/// datapath predicate writers and trigger-encoded predicate updates.
pub fn random_program(rng: &mut Rng) -> String {
    let slots = 2 + rng.below(6);
    let mut src = String::new();
    for _ in 0..slots {
        // Trigger pattern: upper five predicate bits are don't-care,
        // the low three are a random mix of X/0/1.
        let mut pattern = String::from("XXXXX");
        for _ in 0..3 {
            pattern.push(match rng.below(3) {
                0 => 'X',
                1 => '0',
                _ => '1',
            });
        }

        // Optionally gate on a tagged input token (sometimes negated),
        // and sometimes on a second queue as well.
        let queue = rng.chance(1, 2).then(|| rng.below(4));
        let second = queue
            .filter(|_| rng.chance(1, 4))
            .map(|q| (q + 1 + rng.below(3)) % 4);
        let mut checks = Vec::new();
        for q in queue.iter().chain(second.iter()) {
            let negate = if rng.chance(1, 4) { "!" } else { "" };
            checks.push(format!("%i{q}.{negate}{}", rng.below(2)));
        }
        let with = if checks.is_empty() {
            String::new()
        } else {
            format!(" with {}", checks.join(", "))
        };

        // The datapath op. Destinations cycle through registers,
        // output queues and predicates; sources prefer the gated input
        // queue when one exists.
        let reg_src = format!("%r{}", rng.below(4));
        let source = match queue {
            Some(q) if rng.chance(2, 3) => format!("%i{q}"),
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
            // A datapath predicate write: the slowest predicate path
            // and the one +P speculates over.
            5 | 6 => format!("ult %p{}, {source}, {};", rng.below(3), rng.below(24)),
            _ => "nop;".to_string(),
        };
        let pred_dst: Option<u64> = if op.starts_with("ult") {
            Some(op.as_bytes()["ult %p".len()] as u64 - b'0' as u64)
        } else {
            None
        };

        // Optionally a trigger-encoded predicate update on the low
        // three bits, avoiding the datapath predicate destination (the
        // assembler rejects that conflict).
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

        let dequeued: Vec<String> = queue
            .iter()
            .chain(second.iter())
            .filter(|_| rng.chance(3, 4))
            .map(|q| format!("%i{q}"))
            .collect();
        let deq = if dequeued.is_empty() {
            String::new()
        } else {
            format!(" deq {};", dequeued.join(", "))
        };

        src.push_str(&format!("when %p == {pattern}{with}: {op}{set}{deq}\n"));
    }
    // A rare reachable halt exercises the halt-pending path too.
    if rng.chance(1, 4) {
        src.push_str("when %p == XXXXX111: halt;\n");
    }
    src
}

/// Fails the test case unless the in-PE interpreted trigger oracle is
/// compiled in.
pub fn require_debug_oracle() -> Result<(), TestCaseError> {
    prop_assert!(
        cfg!(debug_assertions),
        "the interpreted trigger oracle only exists in debug builds"
    );
    Ok(())
}

/// The program source and the traffic seed a proptest seed stands for.
pub fn program_and_traffic(seed: u64) -> (String, u64) {
    let mut rng = Rng(seed);
    let source = random_program(&mut rng);
    (source, rng.next())
}

pub fn assemble_or_fail(source: &str, params: &Params) -> Result<tia_isa::Program, TestCaseError> {
    // Generated programs are well-formed by construction; a reject
    // here means the generator and assembler disagree — surface it.
    assemble(source, params).map_err(|e| TestCaseError::fail(format!("{e}\nprogram:\n{source}")))
}

/// Applies one cycle's external traffic to both PEs: a token landing
/// on an input queue and a token drained from an output queue.
pub fn fabric_traffic<P: ProcessingElement>(
    rng: &mut Rng,
    params: &Params,
    keyed: &mut P,
    twin: &mut P,
    cycle: u32,
) -> Result<(), TestCaseError> {
    if rng.chance(1, 3) {
        let q = rng.below(4) as usize;
        let tag = Tag::new(rng.below(2) as u32, params).expect("tag in range");
        let token = Token::new(tag, rng.below(100) as u32);
        let a = keyed.input_queue_mut(q).push(token);
        let b = twin.input_queue_mut(q).push(token);
        prop_assert_eq!(a, b, "push acceptance diverged at cycle {}", cycle);
    }
    if rng.chance(1, 4) {
        let q = rng.below(2) as usize;
        let a = keyed.output_queue_mut(q).pop();
        let b = twin.output_queue_mut(q).pop();
        prop_assert_eq!(a, b, "drained tokens diverged at cycle {}", cycle);
    }
    Ok(())
}
