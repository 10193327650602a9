//! `tia-jit` — ahead-of-time specialization of trigger programs.
//!
//! The paper's PE re-evaluates every trigger's predicate pattern, tag
//! checks and queue guards each cycle; a faithful interpreter does the
//! same, chasing `Instruction` fields (heap-allocated check and
//! dequeue lists, enum-encoded operands) on every slot of every cycle.
//! This crate translates a loaded [`Program`] **once** into a flat
//! [`CompiledProgram`]:
//!
//! * predicate guards become bitmask match/expect pairs
//!   ([`CompiledSlot::on_set`]/[`CompiledSlot::off_set`]) tested with
//!   one `&`/`==` each against the packed predicate state;
//! * per-trigger queue/tag guards are lowered to direct channel-slot
//!   checks over a dense read-set bitmask and a fixed check list;
//! * the per-cycle trigger scan is replaced by a **dispatch table**
//!   indexed by the packed predicate state: for each of the
//!   `2^num_preds` states, the program-order list of slots whose
//!   pattern matches that state. A scan then touches only the slots
//!   that could possibly fire under the current predicates — usually
//!   one or two out of a whole program.
//!
//! This is the only trigger evaluator the simulators run: both PEs
//! resolve triggers through it, and their interpreted scans over the
//! `Instruction`s survive only as debug-build oracles that cross-check
//! every compiled scan. The compiled form is *derived-only* state:
//! simulators rebuild it from the program at construction and
//! snapshots never contain it.

#![warn(missing_docs)]

use tia_isa::{Params, PredState, Program, Tag};
use tia_trace::StallInsight;

/// Above this many predicate bits a full dispatch table (one entry per
/// predicate state) is too large to precompute; [`CompiledProgram`]
/// then keeps only the compiled guard sets and callers fall back to a
/// linear scan.
pub const TABLE_PRED_LIMIT: usize = 12;

/// One lowered tag check: queue index, reference tag and polarity,
/// stripped of the `InputId` wrapper so the hot loop indexes channels
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledCheck {
    /// The input queue whose head tag is inspected.
    pub queue: u8,
    /// The reference tag.
    pub tag: Tag,
    /// Pass only when the head tag differs from `tag`.
    pub negate: bool,
}

/// One instruction slot's guards, specialized to flat masks and
/// indices at load time.
#[derive(Debug, Clone)]
pub struct CompiledSlot {
    /// The slot's valid bit (invalid slots never appear in the
    /// dispatch table, but the linear-scan fallback consults this).
    pub valid: bool,
    /// Predicate bits required on: `(preds & on_set) == on_set`.
    pub on_set: u32,
    /// Predicate bits required off: `(preds & off_set) == 0`.
    pub off_set: u32,
    /// Every predicate bit the trigger reads or the instruction writes
    /// (trigger-encoded update or datapath destination): the footprint
    /// a pipelined scheduler checks against in-flight predicate writes.
    pub pred_footprint: u32,
    /// Input queues that must be non-empty (operand reads ∪ dequeues),
    /// deduplicated into one bitmask.
    pub need_mask: u32,
    /// Lowered tag checks (at most `MaxCheck`; built once, never
    /// touched on the hot path except to iterate).
    pub checks: Vec<CompiledCheck>,
    /// The output queue needing capacity, if the slot enqueues.
    pub out_queue: Option<u8>,
    /// Input queues dequeued at execution, as a bitmask (exposed for
    /// schedulers that account in-flight dequeues).
    pub deq_mask: u32,
}

impl CompiledSlot {
    /// Whether the predicate guard passes for the packed state `bits`.
    #[inline]
    pub fn pred_matches(&self, bits: u32) -> bool {
        (bits & self.on_set) == self.on_set && (bits & self.off_set) == 0
    }
}

/// The dispatch table: for every packed predicate state, the
/// program-order slot indices whose predicate pattern matches it,
/// stored as one flat `Vec<u16>` with per-state offset ranges.
#[derive(Debug, Clone)]
struct DispatchTable {
    /// `offsets[s]..offsets[s + 1]` indexes `slots` for state `s`.
    offsets: Vec<u32>,
    slots: Vec<u16>,
}

/// A trigger program compiled to straight-line guard evaluation.
///
/// Construction is cheap (microseconds at paper scale) and done once
/// per PE at load time; each PE holds the immutable result by value.
/// See the crate docs for the compilation model.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    slots: Vec<CompiledSlot>,
    num_preds: usize,
    table: Option<DispatchTable>,
}

impl CompiledProgram {
    /// Compiles `program` under `params`. Both must already be
    /// validated (simulators compile right after their own
    /// validation).
    pub fn compile(program: &Program, params: &Params) -> Self {
        let slots: Vec<CompiledSlot> = program
            .instructions()
            .iter()
            .map(|i| {
                let mut need_mask = 0u32;
                for q in i.input_operands() {
                    need_mask |= 1 << q.index();
                }
                let mut deq_mask = 0u32;
                for q in &i.dequeues {
                    need_mask |= 1 << q.index();
                    deq_mask |= 1 << q.index();
                }
                CompiledSlot {
                    valid: i.valid,
                    on_set: i.trigger.predicates.on_set(),
                    off_set: i.trigger.predicates.off_set(),
                    pred_footprint: i.trigger.predicates.read_set() | i.predicate_write_set(),
                    need_mask,
                    checks: i
                        .trigger
                        .queue_checks
                        .iter()
                        .map(|c| CompiledCheck {
                            queue: c.queue.index() as u8,
                            tag: c.tag,
                            negate: c.negate,
                        })
                        .collect(),
                    out_queue: i.enqueues().map(|q| q.index() as u8),
                    deq_mask,
                }
            })
            .collect();

        let table = (params.num_preds <= TABLE_PRED_LIMIT).then(|| {
            let states = 1usize << params.num_preds;
            let mut offsets = Vec::with_capacity(states + 1);
            let mut flat = Vec::new();
            offsets.push(0u32);
            for state in 0..states as u32 {
                for (slot, c) in slots.iter().enumerate() {
                    if c.valid && c.pred_matches(state) {
                        flat.push(slot as u16);
                    }
                }
                offsets.push(flat.len() as u32);
            }
            DispatchTable {
                offsets,
                slots: flat,
            }
        });

        CompiledProgram {
            slots,
            num_preds: params.num_preds,
            table,
        }
    }

    /// The compiled guard set for one slot.
    #[inline]
    pub fn slot(&self, slot: usize) -> &CompiledSlot {
        &self.slots[slot]
    }

    /// All compiled slots, in program order.
    pub fn slots(&self) -> &[CompiledSlot] {
        &self.slots
    }

    /// Whether a dispatch table was built (it is skipped above
    /// [`TABLE_PRED_LIMIT`] predicate bits).
    pub fn has_table(&self) -> bool {
        self.table.is_some()
    }

    /// The program-order candidate slots for predicate state `preds`:
    /// exactly the valid slots whose pattern matches. `None` when no
    /// table was built (fall back to a full scan).
    #[inline]
    pub fn candidates(&self, preds: PredState) -> Option<&[u16]> {
        let table = self.table.as_ref()?;
        let state = (preds.bits() & ((1u32 << self.num_preds) - 1)) as usize;
        let lo = table.offsets[state] as usize;
        let hi = table.offsets[state + 1] as usize;
        Some(&table.slots[lo..hi])
    }

    /// Which queues block the slots whose predicate pattern matches
    /// `preds`, given the PE's empty input queues and full output
    /// queues as bitmasks (a PE decides what "full" means for its own
    /// output buffering). An input counts when a matched slot reads,
    /// dequeues or tag-checks it; an output when a matched slot
    /// enqueues to it.
    pub fn stall_insight(
        &self,
        preds: PredState,
        empty_inputs: u32,
        full_outputs: u32,
    ) -> StallInsight {
        let mut insight = StallInsight::default();
        for c in self
            .slots
            .iter()
            .filter(|c| c.valid && c.pred_matches(preds.bits()))
        {
            insight.matched_any = true;
            let checked = c.checks.iter().fold(0u32, |m, check| m | 1 << check.queue);
            insight.empty_input_mask |= (c.need_mask | checked) & empty_inputs;
            if let Some(q) = c.out_queue {
                insight.full_output_mask |= (1 << q) & full_outputs;
            }
        }
        insight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_asm::assemble;

    fn compile(src: &str) -> (CompiledProgram, Program, Params) {
        let params = Params::default();
        let program = assemble(src, &params).expect("test program assembles");
        (CompiledProgram::compile(&program, &params), program, params)
    }

    #[test]
    fn candidates_match_the_interpreted_predicate_guard() {
        let (compiled, program, params) = compile(
            "when %p == XXXXXXX0: add %r0, %r0, 1; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXXX1: mov %r1, %r0;\n\
             when %p == XXXXXX11: halt;",
        );
        assert!(compiled.has_table());
        for state in 0..1u32 << params.num_preds {
            let preds = PredState::from_bits(state);
            let expected: Vec<u16> = program
                .instructions()
                .iter()
                .enumerate()
                .filter(|(_, i)| i.valid && i.trigger.predicates.matches(preds))
                .map(|(slot, _)| slot as u16)
                .collect();
            assert_eq!(
                compiled.candidates(preds).expect("table built"),
                expected.as_slice(),
                "state {state:#010b}"
            );
        }
    }

    #[test]
    fn guard_masks_mirror_the_instruction() {
        let (compiled, program, _) =
            compile("when %p == XXXXXXXX with %i0.1, %i3.!0: add %o1.2, %i0, %i3; deq %i0, %i3;");
        let c = compiled.slot(0);
        let i = &program.instructions()[0];
        assert!(c.valid);
        assert_eq!(c.on_set, i.trigger.predicates.on_set());
        assert_eq!(c.off_set, i.trigger.predicates.off_set());
        assert_eq!(c.pred_footprint, 0, "all-X pattern, no predicate writes");
        assert_eq!(c.need_mask, 0b1001, "operands and dequeues dedup");
        assert_eq!(c.deq_mask, 0b1001);
        assert_eq!(c.out_queue, Some(1));
        assert_eq!(c.checks.len(), 2);
        assert_eq!(c.checks[0].queue, 0);
        assert!(!c.checks[0].negate);
        assert_eq!(c.checks[1].queue, 3);
        assert!(c.checks[1].negate);
    }

    #[test]
    fn footprint_covers_trigger_reads_and_both_write_paths() {
        let (compiled, _, _) = compile("when %p == XXXXXX1X: ult %p2, %r0, 5; set %p = ZZZZZZZ0;");
        assert_eq!(compiled.slot(0).pred_footprint, 0b0111);
    }

    #[test]
    fn stall_insight_masks_only_pattern_matched_slots() {
        let (compiled, _, _) = compile(
            "when %p == XXXXXXX0 with %i2.0: add %o1.0, %i0, 1; deq %i0;\n\
             when %p == XXXXXXX1: mov %o3.0, %i1;",
        );
        let insight = compiled.stall_insight(PredState::from_bits(0), 0b1111, 0b1111);
        assert!(insight.matched_any);
        assert_eq!(
            insight.empty_input_mask, 0b0101,
            "operand and tag-checked queues"
        );
        assert_eq!(insight.full_output_mask, 0b0010);
        let insight = compiled.stall_insight(PredState::from_bits(0), 0b0010, 0b1000);
        assert_eq!((insight.empty_input_mask, insight.full_output_mask), (0, 0));
        let (halt_only, _, _) = compile("when %p == XXXXXXX1: halt;");
        assert!(
            !halt_only
                .stall_insight(PredState::from_bits(0), !0, !0)
                .matched_any
        );
    }

    #[test]
    fn wide_predicate_files_skip_the_table() {
        let mut params = Params::default();
        params.num_preds = TABLE_PRED_LIMIT;
        let program = assemble(
            &format!("when %p == {}: halt;", "X".repeat(TABLE_PRED_LIMIT)),
            &params,
        )
        .unwrap();
        let narrow = CompiledProgram::compile(&program, &params);
        assert!(narrow.has_table(), "the limit itself still fits");
        params.num_preds = 16;
        let program = assemble(&format!("when %p == {}: halt;", "X".repeat(16)), &params).unwrap();
        let wide = CompiledProgram::compile(&program, &params);
        assert!(!wide.has_table(), "2^16 states exceeds the table gate");
        assert!(wide.candidates(PredState::new()).is_none());
    }
}
