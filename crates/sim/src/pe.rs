//! The functional (architectural) processing element.
//!
//! This is the golden model: it executes one triggered instruction per
//! cycle with atomic semantics — "predicate updates encoded in
//! PredMask, any input channel dequeues in IQueueDeq and datapath
//! predicate writes must be atomic" (Figure 2 caption). Every pipelined
//! microarchitecture in `tia-core` must match this model's
//! architectural state and channel traffic exactly.

use serde::{Deserialize, Serialize, Value};
use tia_fabric::{ProcessingElement, QueueState, RestoreError, Snapshotable, TaggedQueue, Token};
use tia_isa::{
    alu, DstOperand, IsaError, Op, Params, PredState, Program, SrcOperand, Word, NUM_SRCS,
};
use tia_jit::{CompiledProgram, CompiledSlot};
use tia_trace::{
    ChannelPressure, EventKind, NullTracer, ProfCounters, ProfileSource, QueueDir, StallClass,
    StallInsight, Tracer,
};

use crate::counters::FuncCounters;

/// The PE's one idle key, latched after a step that triggered nothing.
/// Trigger resolution is a pure function of the predicate state and
/// the queue contents, and an idle step changes neither, so while both
/// still match the key the PE stays idle. Derived-only: never
/// snapshotted, cleared on restore.
#[derive(Debug, Clone, Copy)]
struct IdleKey {
    preds: u32,
    /// [`FuncPe::queue_version_sum`] at the latch; any push, pop or
    /// clear of any queue since changes it.
    queue_versions: u64,
}

/// A functional triggered PE.
///
/// The type parameter selects the tracing backend; the default
/// [`NullTracer`] compiles every emission site away. Use
/// [`FuncPe::with_tracer`] with a [`tia_trace::RingTracer`] to record
/// the per-cycle event stream (issues, retires, idle cycles, queue
/// operations).
///
/// # Examples
///
/// Run a tiny accumulate-and-halt program standalone:
///
/// ```
/// use tia_asm::assemble;
/// use tia_isa::Params;
/// use tia_sim::FuncPe;
///
/// let params = Params::default();
/// let program = assemble(
///     "when %p == XXXXXXX0: add %r0, %r0, 7; set %p = ZZZZZZZ1;\n\
///      when %p == XXXXXXX1: halt;",
///     &params,
/// ).expect("assembles");
/// let mut pe = FuncPe::new(&params, program)?;
/// while !pe.halted() {
///     pe.step_cycle();
/// }
/// assert_eq!(pe.reg(0), 7);
/// assert_eq!(pe.counters().retired, 2);
/// # Ok::<(), tia_isa::IsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FuncPe<T: Tracer = NullTracer> {
    params: Params,
    /// Held by value: the datapath borrows its instructions field by
    /// field instead of cloning them.
    program: Program,
    regs: Vec<Word>,
    preds: PredState,
    scratchpad: Vec<Word>,
    inputs: Vec<TaggedQueue>,
    outputs: Vec<TaggedQueue>,
    halted: bool,
    counters: FuncCounters,
    trace: Option<Vec<u16>>,
    pe_id: u16,
    tracer: T,
    /// The latched idle step, if the last step was one (see
    /// [`IdleKey`]).
    idle: Option<IdleKey>,
    /// The program's guards compiled to flat masks and a
    /// predicate-state dispatch table (see [`tia_jit`]): the trigger
    /// scan's only evaluator. Derived-only: rebuilt from the program
    /// at construction, never snapshotted.
    compiled: CompiledProgram,
}

impl FuncPe {
    /// Creates an untraced PE with the given program loaded.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] when `params` or `program` fail
    /// validation.
    pub fn new(params: &Params, program: Program) -> Result<Self, IsaError> {
        Self::with_tracer(params, program, NullTracer)
    }
}

impl<T: Tracer> FuncPe<T> {
    /// Creates a PE recording cycle-level events into `tracer`.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] when `params` or `program` fail
    /// validation.
    pub fn with_tracer(params: &Params, program: Program, tracer: T) -> Result<Self, IsaError> {
        params.validate()?;
        program.validate(params)?;
        let compiled = CompiledProgram::compile(&program, params);
        Ok(FuncPe {
            regs: vec![0; params.num_regs],
            preds: PredState::new(),
            scratchpad: vec![0; params.scratchpad_words],
            inputs: (0..params.num_input_queues)
                .map(|_| TaggedQueue::new(params.queue_capacity))
                .collect(),
            outputs: (0..params.num_output_queues)
                .map(|_| TaggedQueue::new(params.queue_capacity))
                .collect(),
            halted: false,
            counters: FuncCounters::new(),
            trace: None,
            pe_id: 0,
            tracer,
            params: params.clone(),
            program,
            idle: None,
            compiled,
        })
    }

    /// Sets the PE id stamped on every emitted trace event (defaults
    /// to 0; assign distinct ids when tracing a multi-PE system).
    pub fn set_pe_id(&mut self, pe_id: u16) {
        self.pe_id = pe_id;
    }

    /// The tracing backend.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Consumes the PE, returning the tracer and its recorded events.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// The parameter assignment this PE was built with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Reads a data register.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn reg(&self, index: usize) -> Word {
        self.regs[index]
    }

    /// Writes a data register (host preloading).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn set_reg(&mut self, index: usize, value: Word) {
        self.regs[index] = value;
    }

    /// The current predicate state.
    pub fn predicates(&self) -> PredState {
        self.preds
    }

    /// Overwrites the predicate state (host preloading).
    pub fn set_predicates(&mut self, preds: PredState) {
        self.preds = preds;
    }

    /// The PE-local scratchpad contents.
    pub fn scratchpad(&self) -> &[Word] {
        &self.scratchpad
    }

    /// Writes a scratchpad word (host preloading); out-of-range writes
    /// are dropped, mirroring the bus behaviour of the prototype.
    pub fn preload_scratchpad(&mut self, addr: usize, value: Word) {
        if let Some(w) = self.scratchpad.get_mut(addr) {
            *w = value;
        }
    }

    /// Accumulated event counters.
    pub fn counters(&self) -> &FuncCounters {
        &self.counters
    }

    /// Whether the PE has retired a `halt` instruction (also available
    /// through [`ProcessingElement::is_halted`]).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Enables (or disables) recording of the slot index of every
    /// retired instruction, for microarchitectural equivalence
    /// debugging and tests.
    pub fn record_trace(&mut self, enable: bool) {
        self.trace = if enable { Some(Vec::new()) } else { None };
    }

    /// The recorded retirement trace (empty unless enabled).
    pub fn trace(&self) -> &[u16] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Shared immutable view of an input queue.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn input_queue(&self, index: usize) -> &TaggedQueue {
        &self.inputs[index]
    }

    /// Shared immutable view of an output queue.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn output_queue(&self, index: usize) -> &TaggedQueue {
        &self.outputs[index]
    }

    /// Whether instruction slot `slot` is eligible to fire under the
    /// current architectural state (the scheduler's trigger
    /// resolution, §2.1), interpreted straight from the
    /// [`tia_isa::Instruction`]. The reference semantics: stepping runs
    /// the compiled scan, which debug builds cross-check against this.
    pub fn eligible(&self, slot: usize) -> bool {
        let Some(i) = self.program.instructions().get(slot) else {
            return false;
        };
        if !i.valid {
            return false;
        }
        // Predicate pattern.
        if !i.trigger.predicates.matches(self.preds) {
            return false;
        }
        // Tag checks: queue non-empty and head tag (mis)matching.
        for check in &i.trigger.queue_checks {
            match self.inputs[check.queue.index()].peek() {
                None => return false,
                Some(head) => {
                    let equal = head.tag == check.tag;
                    if equal == check.negate {
                        return false;
                    }
                }
            }
        }
        // Input operand availability.
        for q in i.input_operands() {
            if self.inputs[q.index()].is_empty() {
                return false;
            }
        }
        // Dequeued queues must hold a token.
        for q in &i.dequeues {
            if self.inputs[q.index()].is_empty() {
                return false;
            }
        }
        // Output capacity for enqueueing instructions.
        if let Some(q) = i.enqueues() {
            if self.outputs[q.index()].is_full() {
                return false;
            }
        }
        true
    }

    /// The highest-priority eligible instruction slot this cycle, if
    /// any (the priority encoder of Figure 2), by the interpreted
    /// reference scan.
    pub fn triggered_slot(&self) -> Option<usize> {
        (0..self.program.len()).find(|&slot| self.eligible(slot))
    }

    /// The queue-side guards of one compiled slot: tag checks, operand
    /// availability, output capacity. The caller has already settled
    /// the predicate guard.
    fn queue_ready(&self, c: &CompiledSlot) -> bool {
        for check in &c.checks {
            match self.inputs[check.queue as usize].peek() {
                None => return false,
                Some(head) => {
                    if (head.tag == check.tag) == check.negate {
                        return false;
                    }
                }
            }
        }
        let mut need = c.need_mask;
        while need != 0 {
            let q = need.trailing_zeros() as usize;
            need &= need - 1;
            if self.inputs[q].is_empty() {
                return false;
            }
        }
        if let Some(q) = c.out_queue {
            if self.outputs[q as usize].is_full() {
                return false;
            }
        }
        true
    }

    /// [`FuncPe::triggered_slot`] through the compiled guards: the
    /// dispatch table narrows the scan to the slots whose predicate
    /// pattern matches the current state, or, for predicate files too
    /// wide for a table, a linear scan tests every compiled slot.
    fn compiled_triggered_slot(&self) -> Option<usize> {
        let compiled = &self.compiled;
        let slot = match compiled.candidates(self.preds) {
            Some(candidates) => candidates
                .iter()
                .map(|&s| s as usize)
                .find(|&s| self.queue_ready(compiled.slot(s))),
            None => compiled
                .slots()
                .iter()
                .position(|c| c.valid && c.pred_matches(self.preds.bits()) && self.queue_ready(c)),
        };
        debug_assert_eq!(
            slot,
            self.triggered_slot(),
            "compiled trigger scan diverges from the interpreter"
        );
        slot
    }

    /// Whether the idle key still matches the current predicate state
    /// and queue versions (see [`IdleKey`]).
    fn idle_key_holds(&self) -> bool {
        self.idle.is_some_and(|key| {
            key.preds == self.preds.bits() && key.queue_versions == self.queue_version_sum()
        })
    }

    /// Advances one cycle: triggers and atomically executes at most one
    /// instruction. Returns the retired slot, if any.
    pub fn step_cycle(&mut self) -> Option<usize> {
        if self.halted {
            return None;
        }
        self.counters.cycles += 1;
        let slot = if self.idle_key_holds() {
            debug_assert_eq!(
                self.triggered_slot(),
                None,
                "a quiescent PE re-derived a trigger"
            );
            None
        } else {
            self.idle = None;
            self.compiled_triggered_slot()
        };
        let Some(slot) = slot else {
            self.counters.idle += 1;
            if self.idle.is_none() {
                self.idle = Some(IdleKey {
                    preds: self.preds.bits(),
                    queue_versions: self.queue_version_sum(),
                });
            }
            if T::ENABLED {
                // The functional model has no pipeline, so every idle
                // cycle is a trigger-resolution failure.
                self.tracer.emit(
                    self.pe_id,
                    self.counters.cycles,
                    EventKind::Stall {
                        class: StallClass::NotTriggered,
                    },
                );
            }
            return None;
        };
        if T::ENABLED {
            self.tracer.emit(
                self.pe_id,
                self.counters.cycles,
                EventKind::Issue {
                    slot: slot as u16,
                    depth: 1,
                },
            );
        }
        self.execute(slot);
        if T::ENABLED {
            self.tracer.emit(
                self.pe_id,
                self.counters.cycles,
                EventKind::Retire { slot: slot as u16 },
            );
        }
        if let Some(trace) = &mut self.trace {
            trace.push(slot as u16);
        }
        Some(slot)
    }

    /// Executes the instruction in `slot` with atomic semantics.
    fn execute(&mut self, slot: usize) {
        let i = &self.program.instructions()[slot];
        // Operand read. A fixed-size array keeps the per-retirement
        // path allocation-free; unread operand slots stay 0, matching
        // the old `unwrap_or(0)` defaults.
        let mut operands = [0 as Word; NUM_SRCS];
        for (slot, s) in i.srcs.iter().take(i.op.num_srcs()).enumerate() {
            operands[slot] = self.read_operand(*s, i.imm);
        }
        let a = operands[0];
        let b = operands[1];

        // Compute.
        let mask = self.params.word_mask();
        let result = match i.op {
            Op::Lsw => {
                self.counters.scratchpad_accesses += 1;
                self.scratchpad.get(a as usize).copied().unwrap_or(0)
            }
            Op::Ssw => {
                self.counters.scratchpad_accesses += 1;
                if let Some(w) = self.scratchpad.get_mut(a as usize) {
                    *w = b & mask;
                }
                0
            }
            Op::Halt => {
                self.halted = true;
                0
            }
            op => alu::evaluate(op, a, b) & mask,
        };
        if i.op.is_multiply() {
            self.counters.multiplies += 1;
        }

        // Dequeues (after operand read).
        for q in &i.dequeues {
            let popped = self.inputs[q.index()].pop();
            debug_assert!(popped.is_some(), "eligibility guarantees a token");
            self.counters.dequeues += 1;
            if T::ENABLED {
                self.tracer.emit(
                    self.pe_id,
                    self.counters.cycles,
                    EventKind::QueueOp {
                        queue: q.index() as u16,
                        dir: QueueDir::Dequeue,
                        occupancy: self.inputs[q.index()].occupancy() as u16,
                    },
                );
            }
        }

        // Destination write.
        match i.dst {
            DstOperand::None => {}
            DstOperand::Reg(r) => self.regs[r.index()] = result,
            DstOperand::Output(q) => {
                let accepted = self.outputs[q.index()].push(Token::new(i.out_tag, result));
                debug_assert!(accepted, "eligibility guarantees space");
                self.counters.enqueues += 1;
                if T::ENABLED {
                    self.tracer.emit(
                        self.pe_id,
                        self.counters.cycles,
                        EventKind::QueueOp {
                            queue: q.index() as u16,
                            dir: QueueDir::Enqueue,
                            occupancy: self.outputs[q.index()].occupancy() as u16,
                        },
                    );
                }
            }
            DstOperand::Pred(p) => {
                self.preds.set(p, result & 1 == 1);
                self.counters.predicate_writes += 1;
            }
        }

        // Trigger-encoded predicate update (disjoint from any datapath
        // predicate destination, so ordering is immaterial).
        self.preds = i.pred_update.apply(self.preds);

        self.counters.retired += 1;
    }

    fn read_operand(&self, src: SrcOperand, imm: Word) -> Word {
        match src {
            SrcOperand::None => 0,
            SrcOperand::Reg(r) => self.regs[r.index()],
            SrcOperand::Input(q) => self.inputs[q.index()].peek().map_or(0, |t| t.data),
            SrcOperand::Imm => imm & self.params.word_mask(),
        }
    }

    /// Wrapping sum of every queue's mutation version; changes iff
    /// some queue has been pushed, popped or cleared since last read.
    fn queue_version_sum(&self) -> u64 {
        let mut sum = 0u64;
        for q in &self.inputs {
            sum = sum.wrapping_add(q.version());
        }
        for q in &self.outputs {
            sum = sum.wrapping_add(q.version());
        }
        sum
    }

    /// Whether the PE is provably idle until external queue traffic
    /// arrives: the previous step triggered nothing and neither a
    /// queue nor the predicate state has been touched since.
    pub fn is_quiescent(&self) -> bool {
        !self.halted && self.idle_key_holds()
    }

    /// Advances `cycles` idle cycles at once, updating counters and
    /// the trace stream exactly as if [`FuncPe::step_cycle`] had been
    /// called that many times. Callers must have established
    /// quiescence first (see [`FuncPe::is_quiescent`]) and must not
    /// have pushed or popped any queue in between.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        debug_assert!(
            self.is_quiescent(),
            "skip_idle_cycles requires a quiescent PE"
        );
        debug_assert_eq!(
            self.triggered_slot(),
            None,
            "a quiescent PE re-derived a trigger"
        );
        if T::ENABLED {
            for _ in 0..cycles {
                self.counters.cycles += 1;
                self.counters.idle += 1;
                self.tracer.emit(
                    self.pe_id,
                    self.counters.cycles,
                    EventKind::Stall {
                        class: StallClass::NotTriggered,
                    },
                );
            }
        } else {
            self.counters.cycles += cycles;
            self.counters.idle += cycles;
        }
    }

    /// Captures the complete architectural state: registers,
    /// predicates, scratchpad, queues, the halt latch, the event
    /// counters and the retirement trace.
    ///
    /// The program and parameters are *not* captured — a snapshot
    /// restores state into a PE rebuilt from the same program — but
    /// the program length is recorded so [`FuncPe::restore`] can
    /// reject mismatched targets. The functional model has no
    /// microarchitectural state, so this is everything.
    pub fn snapshot(&self) -> FuncPeState {
        FuncPeState {
            program_len: self.program.len(),
            regs: self.regs.clone(),
            preds: self.preds,
            scratchpad: self.scratchpad.clone(),
            inputs: self.inputs.iter().map(TaggedQueue::snapshot).collect(),
            outputs: self.outputs.iter().map(TaggedQueue::snapshot).collect(),
            halted: self.halted,
            counters: self.counters,
            trace: self.trace.clone(),
            pe_id: self.pe_id,
        }
    }

    /// Restores a snapshot into this PE. The PE must have been built
    /// from the same parameters and program as the one that produced
    /// the snapshot; continuation is then bit-identical to the
    /// original run.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's shape (program length,
    /// register/scratchpad/queue sizes) does not match this PE.
    pub fn restore(&mut self, state: &FuncPeState) -> Result<(), RestoreError> {
        if state.program_len != self.program.len() {
            return Err(RestoreError::shape(
                "program length",
                self.program.len(),
                state.program_len,
            ));
        }
        let check = |what, expected: usize, found: usize| {
            if expected == found {
                Ok(())
            } else {
                Err(RestoreError::shape(what, expected, found))
            }
        };
        check("register count", self.regs.len(), state.regs.len())?;
        check(
            "scratchpad size",
            self.scratchpad.len(),
            state.scratchpad.len(),
        )?;
        check("input queue count", self.inputs.len(), state.inputs.len())?;
        check(
            "output queue count",
            self.outputs.len(),
            state.outputs.len(),
        )?;
        for (queue, s) in self.inputs.iter_mut().zip(&state.inputs) {
            queue.restore(s)?;
        }
        for (queue, s) in self.outputs.iter_mut().zip(&state.outputs) {
            queue.restore(s)?;
        }
        self.regs.copy_from_slice(&state.regs);
        self.preds = state.preds;
        self.scratchpad.copy_from_slice(&state.scratchpad);
        self.halted = state.halted;
        self.counters = state.counters;
        self.trace = state.trace.clone();
        self.pe_id = state.pe_id;
        // The idle key is a scheduling hint, not architectural: drop it
        // so the restored PE re-derives idleness by stepping.
        self.idle = None;
        Ok(())
    }
}

/// Serializable snapshot of a [`FuncPe`], produced by
/// [`FuncPe::snapshot`] and consumed by [`FuncPe::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncPeState {
    /// The program's slot count (shape check on restore).
    pub program_len: usize,
    /// Data register file.
    pub regs: Vec<Word>,
    /// Predicate state.
    pub preds: PredState,
    /// Scratchpad memory.
    pub scratchpad: Vec<Word>,
    /// Input queue states.
    pub inputs: Vec<QueueState>,
    /// Output queue states.
    pub outputs: Vec<QueueState>,
    /// Whether a `halt` has retired.
    pub halted: bool,
    /// Accumulated event counters.
    pub counters: FuncCounters,
    /// The retirement trace (`None` when recording is off).
    pub trace: Option<Vec<u16>>,
    /// The PE id stamped on trace events.
    pub pe_id: u16,
}

impl<T: Tracer> Snapshotable for FuncPe<T> {
    fn save_state(&self) -> Value {
        self.snapshot().to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), RestoreError> {
        let parsed = FuncPeState::from_value(state)?;
        self.restore(&parsed)
    }
}

impl<T: Tracer> ProcessingElement for FuncPe<T> {
    fn step(&mut self) {
        self.step_cycle();
    }

    fn input_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
        &mut self.inputs[index]
    }

    fn output_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
        &mut self.outputs[index]
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn num_input_queues(&self) -> usize {
        self.inputs.len()
    }

    fn num_output_queues(&self) -> usize {
        self.outputs.len()
    }

    fn retired_instructions(&self) -> u64 {
        self.counters.retired
    }

    fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if self.halted {
            // Only external queue traffic (which re-checks via the
            // version sum) could matter, and a halted PE ignores it.
            return None;
        }
        if self.is_quiescent() {
            None
        } else {
            Some(now)
        }
    }

    fn skip_cycles(&mut self, cycles: u64) {
        self.skip_idle_cycles(cycles);
    }
}

impl tia_verify::ReplayPe for FuncPe {
    fn from_program(params: &Params, program: Program) -> Result<Self, String> {
        FuncPe::new(params, program).map_err(|e| e.to_string())
    }

    fn replay_triggered_slot(&self) -> Option<usize> {
        if self.halted {
            return None;
        }
        self.triggered_slot()
    }

    fn pred_bits(&self) -> u32 {
        self.preds.bits()
    }
}

impl<T: Tracer> ProfileSource for FuncPe<T> {
    fn prof_counters(&self) -> ProfCounters {
        // The functional model has no pipeline: every cycle either
        // retires one instruction or idles, so its idle count maps to
        // the `not_triggered` bucket and every pipeline-only field is
        // zero.
        let c = &self.counters;
        ProfCounters {
            cycles: c.cycles,
            retired: c.retired,
            not_triggered: c.idle,
            ..ProfCounters::default()
        }
    }

    fn stall_insight(&self) -> StallInsight {
        let mut empty_inputs = 0u32;
        for (q, queue) in self.inputs.iter().enumerate() {
            if queue.is_empty() {
                empty_inputs |= 1 << q;
            }
        }
        let mut full_outputs = 0u32;
        for (q, queue) in self.outputs.iter().enumerate() {
            if queue.is_full() {
                full_outputs |= 1 << q;
            }
        }
        self.compiled
            .stall_insight(self.preds, empty_inputs, full_outputs)
    }

    fn profiled_input_channels(&self) -> usize {
        self.inputs.len()
    }

    fn profiled_output_channels(&self) -> usize {
        self.outputs.len()
    }

    fn input_channel_pressure(&self, index: usize) -> ChannelPressure {
        self.inputs[index].pressure()
    }

    fn output_channel_pressure(&self, index: usize) -> ChannelPressure {
        self.outputs[index].pressure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_asm::assemble;

    fn pe(src: &str) -> FuncPe {
        let params = Params::default();
        let program = assemble(src, &params).expect("test program assembles");
        FuncPe::new(&params, program).expect("valid program")
    }

    #[test]
    fn priority_selects_the_first_eligible_instruction() {
        // Both instructions are eligible; slot 0 must win.
        let mut pe = pe("when %p == XXXXXXXX: mov %r0, 1;\n\
             when %p == XXXXXXXX: mov %r1, 2;");
        assert_eq!(pe.step_cycle(), Some(0));
        assert_eq!(pe.reg(0), 1);
        assert_eq!(pe.reg(1), 0);
    }

    #[test]
    fn predicate_update_redirects_control() {
        let mut pe = pe("when %p == XXXXXXX0: mov %r0, 5; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXXX1: halt;");
        assert_eq!(pe.step_cycle(), Some(0));
        assert_eq!(pe.step_cycle(), Some(1));
        assert!(pe.is_halted());
        assert_eq!(pe.step_cycle(), None, "halted PE does nothing");
        assert_eq!(pe.counters().retired, 2);
        assert_eq!(pe.counters().cycles, 2);
    }

    #[test]
    fn datapath_predicate_write_takes_result_lsb() {
        let mut pe = pe("when %p == XXXXXXX0: ult %p7, %r0, 5; set %p = ZZZZZZZ1;");
        pe.set_reg(0, 3);
        pe.step_cycle();
        assert_eq!(pe.predicates().bits(), 0b1000_0001);
        assert_eq!(pe.counters().predicate_writes, 1);
    }

    #[test]
    fn tag_checks_gate_triggering() {
        let params = Params::default();
        let mut pe = pe("when %p == XXXXXXXX with %i0.1: mov %r0, %i0; deq %i0;\n\
             when %p == XXXXXXXX with %i0.0: mov %r1, %i0; deq %i0;");
        // Empty queue: nothing fires.
        assert_eq!(pe.step_cycle(), None);
        assert_eq!(pe.counters().idle, 1);
        // Tag-0 token: slot 1 fires even though slot 0 is higher
        // priority, because slot 0's tag check fails.
        let t0 = tia_isa::Tag::new(0, &params).unwrap();
        assert!(pe.input_queue_mut(0).push(Token::new(t0, 42)));
        assert_eq!(pe.step_cycle(), Some(1));
        assert_eq!(pe.reg(1), 42);
        assert!(pe.input_queue(0).is_empty(), "dequeued");
    }

    #[test]
    fn negated_tag_checks() {
        let params = Params::default();
        let mut pe = pe("when %p == XXXXXXXX with %i0.!1: mov %r0, %i0; deq %i0;");
        let t1 = tia_isa::Tag::new(1, &params).unwrap();
        assert!(pe.input_queue_mut(0).push(Token::new(t1, 9)));
        assert_eq!(pe.step_cycle(), None, "tag 1 must not match .!1");
        let _ = pe.input_queue_mut(0).pop();
        assert!(pe.input_queue_mut(0).push(Token::data(9)));
        assert_eq!(pe.step_cycle(), Some(0));
    }

    #[test]
    fn full_output_queue_blocks_trigger() {
        let mut pe = pe("when %p == XXXXXXXX: mov %o0.0, 1;");
        let capacity = pe.params().queue_capacity;
        for _ in 0..capacity {
            assert!(pe.step_cycle().is_some());
        }
        // Output full: the instruction is no longer eligible.
        assert_eq!(pe.step_cycle(), None);
        assert_eq!(pe.output_queue(0).occupancy(), capacity);
        // Draining one slot re-enables it.
        let _ = pe.output_queue_mut(0).pop();
        assert!(pe.step_cycle().is_some());
    }

    #[test]
    fn operand_availability_blocks_trigger_without_tag_check() {
        let mut pe = pe("when %p == XXXXXXXX: add %r0, %i1, %i2; deq %i1, %i2;");
        assert_eq!(pe.step_cycle(), None);
        assert!(pe.input_queue_mut(1).push(Token::data(3)));
        assert_eq!(pe.step_cycle(), None, "second operand still missing");
        assert!(pe.input_queue_mut(2).push(Token::data(4)));
        assert_eq!(pe.step_cycle(), Some(0));
        assert_eq!(pe.reg(0), 7);
        assert_eq!(pe.counters().dequeues, 2);
    }

    #[test]
    fn reading_without_dequeue_peeks() {
        let mut pe = pe("when %p == XXXXXXX0: mov %r0, %i0; set %p = ZZZZZZZ1;\n\
                         when %p == XXXXXXX1: mov %r1, %i0; deq %i0; set %p = ZZZZZZZ0;");
        assert!(pe.input_queue_mut(0).push(Token::data(5)));
        pe.step_cycle();
        assert_eq!(pe.reg(0), 5);
        assert_eq!(pe.input_queue(0).occupancy(), 1, "peek does not consume");
        pe.step_cycle();
        assert_eq!(pe.reg(1), 5);
        assert!(pe.input_queue(0).is_empty());
    }

    #[test]
    fn scratchpad_load_store() {
        let mut params = Params::default();
        params.scratchpad_words = 16;
        let program = assemble(
            "when %p == XXXXXX00: ssw 3, %r1; set %p = ZZZZZZ01;\n\
             when %p == XXXXXX01: lsw %r2, 3; set %p = ZZZZZZ11;\n\
             when %p == XXXXXX11: halt;",
            &params,
        )
        .unwrap();
        let mut pe = FuncPe::new(&params, program).unwrap();
        pe.set_reg(1, 99);
        while !pe.is_halted() {
            pe.step_cycle();
        }
        assert_eq!(pe.scratchpad()[3], 99);
        assert_eq!(pe.reg(2), 99);
        assert_eq!(pe.counters().scratchpad_accesses, 2);
    }

    #[test]
    fn out_tag_travels_with_enqueued_result() {
        let mut pe = pe("when %p == XXXXXXXX: mov %o2.3, 7;");
        pe.step_cycle();
        let t = pe.output_queue(2).peek().unwrap();
        assert_eq!(t.tag.value(), 3);
        assert_eq!(t.data, 7);
    }

    #[test]
    fn ring_tracer_captures_issues_retires_and_idle_cycles() {
        use tia_trace::RingTracer;
        let params = Params::default();
        let source = "when %p == XXXXXXXX with %i0.0: add %r0, %r0, %i0; deq %i0;";
        let program = assemble(source, &params).expect("assembles");
        let mut traced = FuncPe::with_tracer(&params, program.clone(), RingTracer::new(1 << 10))
            .expect("valid program");
        traced.set_pe_id(3);
        // One idle cycle, then one firing, then idle again.
        assert_eq!(traced.step_cycle(), None);
        assert!(traced.input_queue_mut(0).push(Token::data(5)));
        assert_eq!(traced.step_cycle(), Some(0));
        assert_eq!(traced.step_cycle(), None);

        let events: Vec<_> = traced.tracer().events().copied().collect();
        assert!(events.iter().all(|e| e.pe == 3));
        assert_eq!(events.iter().filter(|e| e.is_issue()).count(), 1);
        assert_eq!(events.iter().filter(|e| e.is_stall()).count(), 2);
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::QueueOp {
                queue: 0,
                dir: QueueDir::Dequeue,
                occupancy: 0,
            }
        )));

        // The untraced model runs bit-identically.
        let mut plain = FuncPe::new(&params, program).expect("valid program");
        assert_eq!(plain.step_cycle(), None);
        assert!(plain.input_queue_mut(0).push(Token::data(5)));
        assert_eq!(plain.step_cycle(), Some(0));
        assert_eq!(plain.step_cycle(), None);
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(plain.reg(0), traced.reg(0));
    }

    #[test]
    fn wide_predicate_files_scan_every_compiled_slot() {
        // Too many predicates for a dispatch table: the compiled scan
        // falls back to testing every slot's guards in order.
        let mut params = Params::default();
        params.num_preds = tia_jit::TABLE_PRED_LIMIT + 1;
        let program = assemble(
            "when %p == XXXXXXXXXXX00: add %r0, %r0, 1; set %p = ZZZZZZZZZZZZ1;\n\
             when %p == 1XXXXXXXXXX10: add %r0, %r0, 1; set %p = ZZZZZZZZZZZZ1;\n\
             when %p == XXXXXXXXXXXX1: ult %p12, %r0, 3; set %p = ZZZZZZZZZZZ10;\n\
             when %p == 0XXXXXXXXXX10: halt;",
            &params,
        )
        .unwrap();
        let mut pe = FuncPe::new(&params, program).unwrap();
        assert!(!pe.compiled.has_table());
        while !pe.is_halted() {
            pe.step_cycle();
        }
        assert_eq!(pe.reg(0), 3);
        assert_eq!(pe.counters().retired, 7);
    }

    #[test]
    fn word_width_masks_results() {
        let mut params = Params::default();
        params.word_width = 16;
        let program = assemble("when %p == XXXXXXXX: add %r0, %r0, 0xffff;", &params).unwrap();
        let mut pe = FuncPe::new(&params, program).unwrap();
        pe.step_cycle();
        pe.step_cycle();
        // 0xffff + 0xffff = 0x1fffe, masked to 16 bits.
        assert_eq!(pe.reg(0), 0xfffe);
    }
}
