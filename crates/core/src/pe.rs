//! The cycle-level pipelined triggered PE.
//!
//! This model executes the same architectural semantics as
//! [`tia_sim::FuncPe`] but cycle-by-cycle through one of the eight
//! §5.4 pipelines, with the paper's hazard rules:
//!
//! * **Predicate hazards** (§5.1): without +P, the scheduler stalls
//!   any instruction whose trigger reads — or whose writes touch — a
//!   predicate bit with an in-flight datapath write.
//! * **Predicate prediction** (+P, §5.2): a two-bit saturating
//!   predictor per predicate supplies a speculative value the cycle a
//!   predicate-writing instruction issues; younger instructions issue
//!   speculatively. No nesting: while unconfirmed, instructions that
//!   dequeue inputs or write predicates are *forbidden*. Mispredicts
//!   flush all speculative instructions and roll the predicate state
//!   back.
//! * **Queue hazards** (§5.3): without +Q, a queue with an in-flight
//!   dequeue is conservatively empty and a queue with an in-flight
//!   enqueue is conservatively full (the MIT RAW discipline). With +Q,
//!   the scheduler uses `occupancy − in-flight dequeues` /
//!   `occupancy + in-flight enqueues` and peeks tag checks past
//!   in-flight dequeues (the "head and neck").
//! * **Data hazards**: full operand forwarding; only split-ALU
//!   (X1|X2) pipelines stall, one bubble for a back-to-back dependent.
//!
//! Dequeues execute in the decode stage (§5.4 moved them out of the
//! trigger stage); results commit at the end of the final execute
//! stage and are visible to the scheduler the following cycle.

use serde::{Deserialize, Serialize, Value};
use tia_fabric::{ProcessingElement, QueueState, RestoreError, Snapshotable, TaggedQueue, Token};
use tia_isa::{
    alu, DstOperand, Instruction, IsaError, Op, Params, PredId, PredState, Program, SrcOperand,
    Word, NUM_SRCS,
};
use tia_jit::{CompiledProgram, CompiledSlot};
use tia_trace::{
    ChannelPressure, EventKind, NullTracer, ProfCounters, ProfileSource, QueueDir, StallInsight,
    Tracer,
};

use crate::config::{ConfigWitness, UarchConfig};
use crate::counters::{CycleClass, UarchCounters};
use crate::predictor::PredicatePredictor;

/// An instruction in flight between issue and commit.
#[derive(Debug, Clone)]
struct InFlight {
    slot: usize,
    issue_cycle: u64,
    /// Number of unconfirmed speculations outstanding when this
    /// instruction issued (0 = architecturally certain). The paper's
    /// non-nested unit only ever produces 0 or 1; the §6 nesting
    /// extension goes deeper.
    spec_level: usize,
    d_done: bool,
    /// The speculation this instruction started was confirmed early
    /// (combinationally, in its final execute cycle), so its commit
    /// must not re-apply the predicate write.
    spec_resolved_early: bool,
    /// Input-queue operand values captured in the decode stage.
    queue_operands: [Option<Word>; NUM_SRCS],
}

/// One outstanding prediction. The paper's §5.2 unit allows a single
/// entry ("no nesting"); with the §6 extension these stack, resolving
/// oldest-first as their writers commit.
#[derive(Debug, Clone)]
struct Speculation {
    bit: PredId,
    predicted: bool,
    saved: PredState,
}

/// Why instruction issue was withheld for one slot this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    Eligible,
    BlockedPred,
    BlockedForbidden,
    BlockedData,
    BlockedQueueConservative,
    NotReady,
}

/// Which knobs of [`UarchPe::witness`] one trigger scan consulted: the
/// +Q choice where the two queue accountings disagreed, and the §6
/// nesting limit for a +P predicate writer.
#[derive(Debug, Clone, Copy)]
struct Depended {
    queue_status: bool,
    nesting_limit: bool,
}

impl Depended {
    const NOTHING: Depended = Depended {
        queue_status: false,
        nesting_limit: false,
    };
}

/// The PE's one idle key, latched after a *pure* stall: a step that
/// started with an empty pipeline and issued nothing, so no
/// architectural state changed during it. The trigger scan is a pure
/// function of the predicate state and the queue contents while the
/// pipeline is empty (an empty pipeline also pins the speculation
/// stack and the register interlock), so while both still match the
/// key every further step repeats the same classified stall. The
/// trigger stage replays `class` on a match, and the fast-forward
/// engine ([`ProcessingElement::next_event_cycle`]) bulk-skips such
/// steps. Derived-only: never snapshotted, cleared on restore.
#[derive(Debug, Clone, Copy)]
struct IdleKey {
    class: CycleClass,
    preds: u32,
    /// [`UarchPe::queue_version_sum`] at the latch; any push, pop or
    /// clear of any queue since changes it.
    queue_versions: u64,
}

/// A cycle-level triggered PE running one of the 32 microarchitecture
/// variants.
///
/// The type parameter selects the tracing backend. The default
/// [`NullTracer`] compiles every emission site to a no-op, so untraced
/// simulation pays nothing; construct with
/// [`UarchPe::with_tracer`] and e.g. [`tia_trace::RingTracer`] to
/// capture cycle-level [`tia_trace::TraceEvent`]s.
///
/// # Examples
///
/// The single-cycle `TDX` configuration matches the functional model
/// cycle-for-cycle:
///
/// ```
/// use tia_asm::assemble;
/// use tia_core::{Pipeline, UarchConfig, UarchPe};
/// use tia_isa::Params;
///
/// let params = Params::default();
/// let program = assemble(
///     "when %p == XXXXXXX0: add %r0, %r0, 7; set %p = ZZZZZZZ1;\n\
///      when %p == XXXXXXX1: halt;",
///     &params,
/// ).expect("assembles");
/// let mut pe = UarchPe::new(&params, UarchConfig::base(Pipeline::TDX), program)?;
/// while !pe.halted() {
///     pe.step_cycle();
/// }
/// assert_eq!(pe.reg(0), 7);
/// assert_eq!(pe.counters().retired, 2);
/// assert_eq!(pe.counters().cycles, 2);
/// # Ok::<(), tia_isa::IsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct UarchPe<T: Tracer = NullTracer> {
    params: Params,
    config: UarchConfig,
    /// The program, held by value and immutable after construction;
    /// the hot path borrows its instructions field by field instead of
    /// cloning them.
    program: Program,
    regs: Vec<Word>,
    preds: PredState,
    scratchpad: Vec<Word>,
    inputs: Vec<TaggedQueue>,
    outputs: Vec<TaggedQueue>,
    halted: bool,
    halt_pending: bool,
    in_flight: Vec<InFlight>,
    spec_stack: Vec<Speculation>,
    predictor: PredicatePredictor,
    counters: UarchCounters,
    now: u64,
    trace: Option<Vec<u16>>,
    pe_id: u16,
    tracer: T,
    /// The program's guards compiled to flat masks and a
    /// predicate-state dispatch table (see [`tia_jit`]): the trigger
    /// stage's only evaluator. Held by value, immutable,
    /// derived-only: rebuilt at construction, never snapshotted.
    compiled: CompiledProgram,
    /// The latched pure stall, if the last step was one (see
    /// [`IdleKey`]).
    idle: Option<IdleKey>,
    /// Per-input-queue in-flight dequeues not yet executed, hoisted
    /// once per trigger phase instead of recounted per slot. Valid
    /// only during the trigger scan of the current cycle.
    pending_deq: [u8; 16],
    /// Per-output-queue in-flight enqueues not yet committed, hoisted
    /// once per trigger phase. Valid only during the trigger scan.
    pending_enq: [u8; 16],
    /// Which configuration knobs the evaluated slots depended on so
    /// far (see [`UarchPe::witness`]). Only ever raised; never
    /// snapshotted.
    witness: ConfigWitness,
}

impl UarchPe {
    /// Creates an untraced PE with the given microarchitecture and
    /// program.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] when `params` or `program` fail
    /// validation.
    pub fn new(params: &Params, config: UarchConfig, program: Program) -> Result<Self, IsaError> {
        Self::with_tracer(params, config, program, NullTracer)
    }
}

impl<T: Tracer> UarchPe<T> {
    /// Creates a PE recording cycle-level events into `tracer`.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] when `params` or `program` fail
    /// validation.
    pub fn with_tracer(
        params: &Params,
        config: UarchConfig,
        program: Program,
        tracer: T,
    ) -> Result<Self, IsaError> {
        params.validate()?;
        program.validate(params)?;
        let compiled = CompiledProgram::compile(&program, params);
        Ok(UarchPe {
            regs: vec![0; params.num_regs],
            preds: PredState::new(),
            scratchpad: vec![0; params.scratchpad_words],
            inputs: (0..params.num_input_queues)
                .map(|_| TaggedQueue::new(params.queue_capacity))
                .collect(),
            outputs: (0..params.num_output_queues)
                .map(|_| {
                    // Reject-buffer padding: one reserve slot per
                    // pipeline stage guarantees space for in-flight
                    // enqueues (§5.3).
                    let reserve = if config.padded_output_queues {
                        config.pipeline.depth()
                    } else {
                        0
                    };
                    TaggedQueue::new(params.queue_capacity + reserve)
                })
                .collect(),
            halted: false,
            halt_pending: false,
            in_flight: Vec::with_capacity(4),
            // Pre-sized to the nesting limit: pushes never reallocate.
            spec_stack: Vec::with_capacity(config.speculation_depth.max(1) as usize),
            predictor: PredicatePredictor::with_kind(params.num_preds, config.predictor),
            counters: UarchCounters::new(),
            now: 0,
            trace: None,
            pe_id: 0,
            tracer,
            params: params.clone(),
            config,
            program,
            compiled,
            idle: None,
            pending_deq: [0; 16],
            pending_enq: [0; 16],
            witness: ConfigWitness::CLEAN,
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

    /// The microarchitecture configuration.
    pub fn config(&self) -> &UarchConfig {
        &self.config
    }

    /// The parameter assignment.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Reads a data register.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn reg(&self, index: usize) -> Word {
        self.regs[index]
    }

    /// The architectural (possibly speculative) predicate state.
    pub fn predicates(&self) -> PredState {
        self.preds
    }

    /// Accumulated performance counters.
    pub fn counters(&self) -> &UarchCounters {
        &self.counters
    }

    /// Whether a `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Which configuration knobs could have changed this run so far.
    /// Each trigger scan joins in what its evaluated slots depended
    /// on, at the only two points where the scheduler reads the knobs:
    ///
    /// - `queue_status_mattered` is set the first time a scan reaches
    ///   the queue-status choice for a slot whose conservative and
    ///   effective accountings disagree. A system whose PEs all end
    ///   with it clear ran cycle for cycle as it would have with
    ///   `effective_queue_status` flipped; that twin run sets it at
    ///   the same evaluation or not at all.
    /// - `spec_depth_needed` rises to one more than the outstanding
    ///   speculations whenever a scan asks the §6 nesting limit about
    ///   a +P predicate writer (see
    ///   [`crate::spec_rules::limit_decides`]). At every
    ///   `speculation_depth` of at least the final value the limit
    ///   never fired, so those depths run cycle for cycle alike.
    ///
    /// A restored PE reports [`ConfigWitness::UNKNOWN`], because its
    /// history before the snapshot is unknown.
    pub fn witness(&self) -> ConfigWitness {
        self.witness
    }

    /// Enables (or disables) recording of the slot index of every
    /// retired instruction, for equivalence debugging and tests.
    pub fn record_trace(&mut self, enable: bool) {
        // Pre-sized so steady-state retirement recording does not
        // allocate until the trace outgrows a sizeable first chunk.
        self.trace = if enable {
            Some(Vec::with_capacity(1 << 10))
        } else {
            None
        };
    }

    /// The recorded retirement trace (empty unless enabled).
    pub fn trace(&self) -> &[u16] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Shared view of an input queue.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn input_queue(&self, index: usize) -> &TaggedQueue {
        &self.inputs[index]
    }

    /// Shared view of an output queue.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn output_queue(&self, index: usize) -> &TaggedQueue {
        &self.outputs[index]
    }

    fn instruction(&self, slot: usize) -> &Instruction {
        &self.program.instructions()[slot]
    }

    /// Advances the PE one cycle.
    pub fn step_cycle(&mut self) {
        if self.halted {
            return;
        }
        self.now += 1;
        self.counters.cycles += 1;
        // The trigger stage evaluates against start-of-cycle state:
        // decode-stage dequeues happening *this* cycle are still "in
        // flight" from the scheduler's perspective — exactly what
        // makes the §5.3 accounting (or the conservative fallback)
        // necessary — and execute results land at the *end* of the
        // cycle, visible to the scheduler (and the fabric) from the
        // next. Phases therefore run trigger → decode → commit.
        let busy = !self.in_flight.is_empty();
        let class = self.trigger_phase();
        self.decode_phase();
        self.commit_phase();
        // A pure stall (empty pipeline in, nothing issued) leaves every
        // architectural observable untouched: the next step repeats it
        // unless fabric traffic lands on a queue first. Latch the idle
        // key; a key the trigger stage just matched is still current.
        if busy || class == CycleClass::Issued {
            self.idle = None;
        } else if self.idle.is_none() {
            self.idle = Some(IdleKey {
                class,
                preds: self.preds.bits(),
                queue_versions: self.queue_version_sum(),
            });
        }
        self.counters.charge(class, 1);
        if T::ENABLED {
            if let Some(class) = class.stall() {
                self.tracer
                    .emit(self.pe_id, self.now, EventKind::Stall { class });
            }
        }
        // Cycle-attribution identity (paper §3.3): every elapsed cycle
        // is either an issue slot (now retired, quashed, or still in
        // flight) or exactly one classified stall.
        #[cfg(debug_assertions)]
        {
            let c = &self.counters;
            debug_assert_eq!(
                c.cycles,
                c.retired
                    + c.quashed
                    + self.in_flight.len() as u64
                    + c.pred_hazard_cycles
                    + c.data_hazard_cycles
                    + c.forbidden_cycles
                    + c.not_triggered_cycles,
                "cycle attribution leak"
            );
        }
    }

    /// Commits the instruction (if any) completing its final execute
    /// stage this cycle, resolving speculation. Runs at the end of the
    /// cycle, so the scheduler first observes the results next cycle.
    fn commit_phase(&mut self) {
        let x_end = self.config.pipeline.x_end_offset();
        let Some(head) = self.in_flight.first() else {
            return;
        };
        if head.issue_cycle + x_end != self.now {
            return;
        }
        let flight = self.in_flight.remove(0);
        debug_assert_eq!(flight.spec_level, 0, "speculative head must resolve first");
        let instruction = &self.program.instructions()[flight.slot];

        // Operand values: registers read with full forwarding are
        // equivalent to reading the committed register file here,
        // because every older producer has already committed.
        let mut operands = [0u32; NUM_SRCS];
        for (i, src) in instruction
            .srcs
            .iter()
            .take(instruction.op.num_srcs())
            .enumerate()
        {
            operands[i] = match src {
                SrcOperand::None => 0,
                SrcOperand::Reg(r) => self.regs[r.index()],
                SrcOperand::Imm => instruction.imm & self.params.word_mask(),
                SrcOperand::Input(_) => {
                    flight.queue_operands[i].expect("decode captured the queue operand")
                }
            };
        }
        let (a, b) = (operands[0], operands[1]);
        let mask = self.params.word_mask();
        let result = match instruction.op {
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
                self.halt_pending = false;
                0
            }
            op => alu::evaluate(op, a, b) & mask,
        };
        if instruction.op.is_multiply() {
            self.counters.multiplies += 1;
        }

        match instruction.dst {
            DstOperand::None => {}
            DstOperand::Reg(r) => self.regs[r.index()] = result,
            DstOperand::Output(q) => {
                let accepted =
                    self.outputs[q.index()].push(Token::new(instruction.out_tag, result & mask));
                debug_assert!(accepted, "queue accounting guarantees space");
                self.counters.enqueues += 1;
                if T::ENABLED {
                    self.tracer.emit(
                        self.pe_id,
                        self.now,
                        EventKind::QueueOp {
                            queue: q.index() as u16,
                            dir: QueueDir::Enqueue,
                            occupancy: self.outputs[q.index()].occupancy() as u16,
                        },
                    );
                }
            }
            DstOperand::Pred(p) => {
                let value = result & 1 == 1;
                self.counters.predicate_writes += 1;
                if flight.spec_resolved_early {
                    // Confirmed combinationally during the execute
                    // cycle (§5.2 "confirmed in the current cycle");
                    // the predicted value is already architectural and
                    // younger updates may have built on it.
                } else if self.config.predicate_prediction && !self.spec_stack.is_empty() {
                    // Writers resolve their speculations oldest-first.
                    let spec = self.spec_stack.remove(0);
                    debug_assert_eq!(spec.bit, p, "writers resolve in order");
                    self.counters.predictions += 1;
                    self.predictor.train(p, value);
                    if T::ENABLED {
                        self.tracer.emit(
                            self.pe_id,
                            self.now,
                            EventKind::PredictorOutcome {
                                slot: flight.slot as u16,
                                correct: value == spec.predicted,
                            },
                        );
                    }
                    if value == spec.predicted {
                        // Confirmed: the speculative state is the
                        // truth; everything issued under it moves one
                        // level closer to certainty.
                        self.counters.correct_predictions += 1;
                        for f in &mut self.in_flight {
                            f.spec_level = f.spec_level.saturating_sub(1);
                        }
                    } else {
                        // Mispredict: roll back and flush everything
                        // younger (all of it speculative), including
                        // any nested speculations built on this one.
                        self.preds = spec.saved;
                        self.preds.set(p, value);
                        let quashed = self.in_flight.len();
                        debug_assert!(
                            self.in_flight.iter().all(|f| f.spec_level > 0),
                            "everything younger than the writer is speculative"
                        );
                        self.in_flight.clear();
                        self.spec_stack.clear();
                        self.counters.quashed += quashed as u64;
                        self.halt_pending = false;
                        if T::ENABLED {
                            self.tracer.emit(
                                self.pe_id,
                                self.now,
                                EventKind::Quash {
                                    count: quashed as u16,
                                },
                            );
                            self.tracer.emit(
                                self.pe_id,
                                self.now,
                                EventKind::Flush {
                                    depth: quashed as u16,
                                },
                            );
                        }
                    }
                } else {
                    self.preds.set(p, value);
                }
            }
        }
        self.counters.retired += 1;
        if T::ENABLED {
            self.tracer.emit(
                self.pe_id,
                self.now,
                EventKind::Retire {
                    slot: flight.slot as u16,
                },
            );
        }
        if let Some(trace) = &mut self.trace {
            trace.push(flight.slot as u16);
        }
    }

    /// The §5.2 same-cycle confirmation path: the speculative unit
    /// compares the predicate writer's result against the prediction
    /// combinationally in the writer's final execute cycle, so a
    /// correct prediction lifts the speculation restrictions for this
    /// very cycle's trigger resolution ("predictions are made only if
    /// the system is not already speculating, or if the current
    /// speculation has been confirmed in the current cycle"). This is
    /// part of why speculation costs trigger-stage timing (§5.4).
    /// Mispredicts still flush at the end of the cycle.
    fn try_early_confirmation(&mut self) {
        let Some(spec) = self.spec_stack.first().cloned() else {
            return;
        };
        let x_end = self.config.pipeline.x_end_offset();
        let Some(idx) = self
            .in_flight
            .iter()
            .position(|f| self.instruction(f.slot).writes_predicate())
        else {
            return;
        };
        if self.in_flight[idx].issue_cycle + x_end != self.now {
            return;
        }
        let instruction = &self.program.instructions()[self.in_flight[idx].slot];
        if instruction.op.is_scratchpad() {
            // A scratchpad access cannot resolve early in this model.
            return;
        }
        // Compute the result exactly as D+X will later this cycle:
        // registers are fully committed, and the queue heads are what
        // decode will capture (all older dequeues have landed).
        let mut operands = [0u32; NUM_SRCS];
        for (i, src) in instruction
            .srcs
            .iter()
            .take(instruction.op.num_srcs())
            .enumerate()
        {
            operands[i] = match src {
                SrcOperand::None => 0,
                SrcOperand::Reg(r) => self.regs[r.index()],
                SrcOperand::Imm => instruction.imm & self.params.word_mask(),
                SrcOperand::Input(q) => match self.in_flight[idx].queue_operands[i] {
                    Some(v) => v,
                    None => {
                        self.inputs[q.index()]
                            .peek()
                            .expect("trigger accounting guarantees a token")
                            .data
                    }
                },
            };
        }
        let result =
            alu::evaluate(instruction.op, operands[0], operands[1]) & self.params.word_mask();
        if (result & 1 == 1) == spec.predicted {
            self.counters.predictions += 1;
            self.counters.correct_predictions += 1;
            self.predictor.train(spec.bit, spec.predicted);
            for f in &mut self.in_flight {
                f.spec_level = f.spec_level.saturating_sub(1);
            }
            self.in_flight[idx].spec_resolved_early = true;
            self.spec_stack.remove(0);
            if T::ENABLED {
                let slot = self.in_flight[idx].slot as u16;
                self.tracer.emit(
                    self.pe_id,
                    self.now,
                    EventKind::PredictorOutcome {
                        slot,
                        correct: true,
                    },
                );
            }
        }
    }

    /// Executes decode work (queue-operand capture and dequeues) for
    /// the instruction reaching its decode stage this cycle.
    fn decode_phase(&mut self) {
        let d_off = self.config.pipeline.d_offset();
        for idx in 0..self.in_flight.len() {
            if self.in_flight[idx].d_done || self.in_flight[idx].issue_cycle + d_off != self.now {
                continue;
            }
            self.run_decode(idx);
        }
    }

    fn run_decode(&mut self, idx: usize) {
        let instruction = &self.program.instructions()[self.in_flight[idx].slot];
        // Capture queue operands (peek) before this instruction's own
        // dequeues pop them.
        let mut captured = [None; NUM_SRCS];
        for (i, src) in instruction
            .srcs
            .iter()
            .take(instruction.op.num_srcs())
            .enumerate()
        {
            if let SrcOperand::Input(q) = src {
                let token = self.inputs[q.index()]
                    .peek()
                    .expect("trigger accounting guarantees a token");
                captured[i] = Some(token.data);
            }
        }
        // Dequeues take effect here in D (§5.4). Speculative
        // instructions never have dequeues (forbidden, §5.2).
        for q in &instruction.dequeues {
            debug_assert_eq!(
                self.in_flight[idx].spec_level, 0,
                "speculative dequeues are forbidden"
            );
            let popped = self.inputs[q.index()].pop();
            debug_assert!(popped.is_some());
            self.counters.dequeues += 1;
            if T::ENABLED {
                self.tracer.emit(
                    self.pe_id,
                    self.now,
                    EventKind::QueueOp {
                        queue: q.index() as u16,
                        dir: QueueDir::Dequeue,
                        occupancy: self.inputs[q.index()].occupancy() as u16,
                    },
                );
            }
        }
        self.in_flight[idx].queue_operands = captured;
        self.in_flight[idx].d_done = true;
    }

    /// Recounts the in-flight dequeue/enqueue pressure into the
    /// per-queue arrays, once per trigger phase. The trigger scan used
    /// to walk `in_flight` per slot per queue; hoisting turns every
    /// [`Self::pending_dequeues`] call into an array read. Sound
    /// because the scan is the only consumer and neither `in_flight`
    /// nor any `d_done` flag changes between the hoist and the end of
    /// the scan (decode and commit run in later phases).
    fn hoist_pending(&mut self) {
        let mut deq = [0u8; 16];
        let mut enq = [0u8; 16];
        for f in &self.in_flight {
            let c = self.compiled.slot(f.slot);
            if !f.d_done {
                let mut mask = c.deq_mask;
                while mask != 0 {
                    deq[mask.trailing_zeros() as usize] += 1;
                    mask &= mask - 1;
                }
            }
            if let Some(q) = c.out_queue {
                enq[q as usize] += 1;
            }
        }
        self.pending_deq = deq;
        self.pending_enq = enq;
    }

    /// In-flight dequeues not yet executed, per input queue (hoisted —
    /// see [`Self::hoist_pending`]).
    fn pending_dequeues(&self, queue: usize) -> usize {
        self.pending_deq[queue] as usize
    }

    /// In-flight enqueues not yet committed, per output queue (hoisted
    /// — see [`Self::hoist_pending`]).
    fn pending_enqueues(&self, queue: usize) -> usize {
        self.pending_enq[queue] as usize
    }

    /// Predicate bits with in-flight datapath writes.
    fn pending_predicates(&self) -> u32 {
        self.in_flight
            .iter()
            .filter_map(|f| self.instruction(f.slot).dst.predicate())
            .fold(0, |acc, p| acc | (1 << p.index()))
    }

    /// Evaluates the §5.3 queue-side trigger conditions for one
    /// compiled slot: input availability, tag checks, dequeue
    /// availability, output capacity. Returns `(conservative,
    /// effective)` eligibility — the scheduler uses the first without
    /// +Q and the second with it; comparing them classifies
    /// conservative stalls.
    #[inline(always)]
    fn queue_conditions(&self, c: &CompiledSlot) -> (bool, bool) {
        let mut conservative = true;
        let mut effective = true;

        // A queue read (operand or dequeue) needs an available token.
        let mut need_mask = c.need_mask;
        while need_mask != 0 {
            let q = need_mask.trailing_zeros() as usize;
            need_mask &= need_mask - 1;
            let occupancy = self.inputs[q].occupancy();
            let pending = self.pending_dequeues(q);
            if pending > 0 {
                conservative = false; // pending dequeue ⇒ treat empty
            } else if occupancy == 0 {
                conservative = false;
            }
            if occupancy <= pending {
                effective = false;
            }
        }

        // Tag checks peek past in-flight dequeues with +Q ("the head
        // and neck").
        for check in &c.checks {
            let q = check.queue as usize;
            let pending = self.pending_dequeues(q);
            // Conservative view: only a pending-free head counts.
            match self.inputs[q].peek() {
                Some(head) if pending == 0 => {
                    let equal = head.tag == check.tag;
                    if equal == check.negate {
                        conservative = false;
                    }
                }
                _ => conservative = false,
            }
            match self.inputs[q].peek_at(pending) {
                Some(tok) => {
                    let equal = tok.tag == check.tag;
                    if equal == check.negate {
                        effective = false;
                    }
                }
                None => effective = false,
            }
        }

        // Output capacity.
        if let Some(q) = c.out_queue {
            let q = q as usize;
            let occupancy = self.outputs[q].occupancy();
            let pending = self.pending_enqueues(q);
            if self.config.padded_output_queues {
                // The reserve slots absorb every in-flight enqueue, so
                // the scheduler checks only the visible capacity and
                // ignores in-flight enqueues entirely: admitting at
                // occupancy <= visible-1 with <= depth in flight can
                // never exceed visible-1+depth < physical capacity.
                let _ = pending;
                let visible = self.outputs[q].capacity() - self.config.pipeline.depth();
                if occupancy >= visible {
                    conservative = false;
                    effective = false;
                }
            } else {
                if pending > 0 || occupancy >= self.outputs[q].capacity() {
                    conservative = false; // pending enqueue ⇒ treat full
                }
                if occupancy + pending >= self.outputs[q].capacity() {
                    effective = false;
                }
            }
        }

        (conservative, effective)
    }

    /// Whether the register interlock blocks this instruction from
    /// issuing now. Only split-ALU pipelines ever stall: a producer
    /// issued last cycle has not finished X2, so its result cannot be
    /// forwarded to a consumer entering X1 this cycle.
    #[inline(always)]
    fn register_interlock(&self, instruction: &Instruction) -> bool {
        if !self.config.pipeline.split_x {
            return false;
        }
        self.in_flight.iter().any(|f| {
            f.issue_cycle + 1 == self.now
                && self
                    .instruction(f.slot)
                    .register_write()
                    .is_some_and(|w| instruction.register_reads().any(|r| r == w))
        })
    }

    /// Evaluates one instruction slot's issue status against current
    /// state, consulting queue/in-flight/speculation state only when
    /// the predicate guard passes, and what the status depended on
    /// (see [`UarchPe::witness`]).
    #[inline(always)]
    fn slot_status(&self, slot: usize, pending_preds: u32) -> (SlotStatus, Depended) {
        let c = self.compiled.slot(slot);
        if !c.valid {
            return (SlotStatus::NotReady, Depended::NOTHING);
        }

        // Predicate readiness.
        let pred_blocked = if self.config.predicate_prediction {
            // The speculative unit always supplies a value; hazards
            // become forbidden-instruction restrictions instead.
            false
        } else {
            c.pred_footprint & pending_preds != 0
        };

        if pred_blocked {
            // Would the pattern match, for every possible resolution
            // of the pending bits?
            let stable_on = c.on_set & !pending_preds;
            let stable_off = c.off_set & !pending_preds;
            let stable_match = (self.preds.bits() & stable_on) == stable_on
                && (self.preds.bits() & stable_off) == 0;
            if !stable_match {
                return (SlotStatus::NotReady, Depended::NOTHING);
            }
            // Count it as a predicate hazard only if the rest of the
            // trigger could plausibly fire once the bits resolve.
            let (_, queue_effective) = self.queue_conditions(c);
            let status = if queue_effective && !self.register_interlock(self.instruction(slot)) {
                SlotStatus::BlockedPred
            } else {
                SlotStatus::NotReady
            };
            return (status, Depended::NOTHING);
        }
        if !c.pred_matches(self.preds.bits()) {
            return (SlotStatus::NotReady, Depended::NOTHING);
        }

        let instruction = self.instruction(slot);
        let (queue_conservative, queue_effective) = self.queue_conditions(c);
        let data_blocked = self.register_interlock(instruction);
        // §5.2 restrictions while speculating: pre-retirement side
        // effects (dequeues) always; further predicate writers only
        // when the speculation stack is at its depth limit (the paper
        // has depth 1 — no nesting; §6 relaxes it). The rule itself is
        // shared with the static analyzer (`tia-lint`). It is the only
        // point where `speculation_depth` changes the scheduler.
        let outstanding = self.spec_stack.len();
        let forbidden = crate::spec_rules::forbidden(instruction, &self.config, outstanding);
        // With nothing outstanding every limit allows a writer, so only
        // an evaluation under speculation can raise the needed depth.
        let mut depended = Depended {
            queue_status: false,
            nesting_limit: outstanding > 0
                && crate::spec_rules::limit_decides(instruction, &self.config, outstanding),
        };

        if forbidden {
            let status = if queue_effective && !data_blocked {
                SlotStatus::BlockedForbidden
            } else {
                SlotStatus::NotReady
            };
            return (status, depended);
        }
        // The only point where +Q changes the scheduler. Conservative
        // status implies effective status, so the two disagree exactly
        // when this slot's status depends on the setting.
        depended.queue_status = queue_conservative != queue_effective;
        let queue_ok = if self.config.effective_queue_status {
            queue_effective
        } else {
            queue_conservative
        };
        let status = if !queue_ok {
            if queue_effective {
                // Only the conservative accounting blocks it.
                SlotStatus::BlockedQueueConservative
            } else {
                SlotStatus::NotReady
            }
        } else if data_blocked {
            SlotStatus::BlockedData
        } else {
            SlotStatus::Eligible
        };
        (status, depended)
    }

    /// Stall-class priority rank (pred > forbidden > data).
    fn stall_rank(status: SlotStatus) -> u8 {
        match status {
            SlotStatus::BlockedPred => 3,
            SlotStatus::BlockedForbidden => 2,
            SlotStatus::BlockedData => 1,
            _ => 0,
        }
    }

    /// The cycle class for a scan that issued nothing, from the best
    /// stall rank seen.
    fn rank_class(rank: u8) -> CycleClass {
        match rank {
            3 => CycleClass::PredicateHazard,
            2 => CycleClass::Forbidden,
            1 => CycleClass::DataHazard,
            _ => CycleClass::NotTriggered,
        }
    }

    /// Scans the given slots in order for the first eligible one;
    /// classifies the cycle otherwise. Both the interpreted full scan
    /// and the dispatch-table candidate scan funnel through here. It
    /// only reads, so the candidates can stay borrowed from
    /// `self.compiled`; the caller issues after the scan and records
    /// in the witness what the evaluated slots depended on.
    fn scan_slots(
        &self,
        slots: impl Iterator<Item = usize>,
        pending_preds: u32,
    ) -> (Result<usize, CycleClass>, Depended) {
        let mut best_rank = 0u8;
        let mut depended = Depended::NOTHING;
        for slot in slots {
            let (status, slot_depended) = self.slot_status(slot, pending_preds);
            depended.queue_status |= slot_depended.queue_status;
            depended.nesting_limit |= slot_depended.nesting_limit;
            if status == SlotStatus::Eligible {
                return (Ok(slot), depended);
            }
            best_rank = best_rank.max(Self::stall_rank(status));
        }
        (Err(Self::rank_class(best_rank)), depended)
    }

    /// Side-effect-free full scan over every slot, for debug
    /// cross-checks of the dispatch-table scan and the idle key: the
    /// slot that would issue (if any) and the best stall rank among
    /// the slots before it.
    #[cfg(debug_assertions)]
    fn debug_reference_scan(&self, pending_preds: u32) -> (Option<usize>, u8) {
        let mut best_rank = 0u8;
        for slot in 0..self.program.len() {
            let (status, _) = self.slot_status(slot, pending_preds);
            if status == SlotStatus::Eligible {
                return (Some(slot), best_rank);
            }
            best_rank = best_rank.max(Self::stall_rank(status));
        }
        (None, best_rank)
    }

    /// Debug cross-check of an idle-key hit: a full scan must find
    /// nothing to issue and classify the stall the same way.
    #[cfg(debug_assertions)]
    fn debug_check_latched_stall(&mut self, class: CycleClass) {
        debug_assert!(self.in_flight.is_empty() && self.spec_stack.is_empty());
        self.hoist_pending();
        let (slot, rank) = self.debug_reference_scan(0);
        debug_assert_eq!(slot, None, "latched stall would now issue slot {slot:?}");
        debug_assert_eq!(
            Self::rank_class(rank),
            class,
            "latched stall class diverges from a full re-scan"
        );
    }

    /// The latched stall class, if the idle key still matches the
    /// current predicate state and queue versions (see [`IdleKey`]).
    fn idle_class(&self) -> Option<CycleClass> {
        let key = self.idle?;
        (key.preds == self.preds.bits() && key.queue_versions == self.queue_version_sum())
            .then_some(key.class)
    }

    /// The trigger stage: evaluate all triggers, issue at most one
    /// instruction, and classify the cycle.
    fn trigger_phase(&mut self) -> CycleClass {
        if self.halt_pending {
            return CycleClass::NotTriggered;
        }

        // A still-matching idle key proves the scan would repeat the
        // latched stall, whose evaluations are already in the witness.
        if let Some(class) = self.idle_class() {
            #[cfg(debug_assertions)]
            self.debug_check_latched_stall(class);
            return class;
        }
        self.idle = None;

        if self.config.predicate_prediction {
            self.try_early_confirmation();
        }
        self.hoist_pending();
        let pending_preds = self.pending_predicates();

        // Dispatch-table candidate scan: skip slots whose predicate
        // pattern cannot match the current state. The skip is exact —
        // statuses *and* stall-rank attribution — precisely when no
        // pending datapath predicate write could still flip a pattern:
        // with nothing pending, or under +P (where the speculative
        // unit always supplies a value and `BlockedPred` cannot
        // arise), a pattern-mismatched slot is `NotReady` (rank 0)
        // either way. Otherwise `BlockedPred` needs the stable-bit
        // analysis over *all* slots, and so does a program with too
        // many predicates for a table: scan every compiled slot.
        let candidates = if pending_preds == 0 || self.config.predicate_prediction {
            self.compiled.candidates(self.preds)
        } else {
            None
        };

        #[cfg(debug_assertions)]
        let (reference_slot, reference_rank) = self.debug_reference_scan(pending_preds);

        let (scanned, depended) = match candidates {
            Some(slots) => self.scan_slots(slots.iter().map(|&s| s as usize), pending_preds),
            None => self.scan_slots(0..self.program.len(), pending_preds),
        };
        self.witness.queue_status_mattered |= depended.queue_status;
        if depended.nesting_limit {
            // Every slot the scan evaluated saw the outstanding count
            // of now (the issue below has not pushed yet); any limit
            // above it gives the same answers.
            let needed = u8::try_from(self.spec_stack.len() + 1).unwrap_or(u8::MAX);
            self.witness.spec_depth_needed = self.witness.spec_depth_needed.max(needed);
        }
        let class = match scanned {
            Ok(slot) => {
                self.issue(slot);
                CycleClass::Issued
            }
            Err(class) => class,
        };

        #[cfg(debug_assertions)]
        if class == CycleClass::Issued {
            debug_assert_eq!(
                reference_slot,
                self.in_flight.last().map(|f| f.slot),
                "compiled scan issued a different slot than the full scan"
            );
        } else {
            debug_assert_eq!(
                reference_slot, None,
                "compiled scan missed an eligible slot"
            );
            debug_assert_eq!(
                Self::rank_class(reference_rank),
                class,
                "compiled scan misclassified a stall"
            );
        }
        class
    }

    fn issue(&mut self, slot: usize) {
        let instruction = &self.program.instructions()[slot];
        let spec_level = self.spec_stack.len();
        if T::ENABLED {
            self.tracer.emit(
                self.pe_id,
                self.now,
                EventKind::Issue {
                    slot: slot as u16,
                    depth: (spec_level + 1) as u16,
                },
            );
        }

        // The trigger-encoded predicate update applies atomically with
        // issue (the "PC + 4" analog, §2.2). Under speculation it
        // lands in the speculative state and is rolled back on flush.
        self.preds = instruction.pred_update.apply(self.preds);

        // Start a new speculation when a predicate writer issues with
        // +P enabled (never nested: writers are forbidden while one is
        // outstanding).
        if self.config.predicate_prediction {
            if let DstOperand::Pred(bit) = instruction.dst {
                debug_assert!(
                    self.spec_stack.len() < self.config.speculation_depth.max(1) as usize,
                    "the nesting limit gates writer issue"
                );
                let predicted = self.predictor.predict(bit);
                let saved = self.preds;
                self.preds.set(bit, predicted);
                self.spec_stack.push(Speculation {
                    bit,
                    predicted,
                    saved,
                });
            }
        }

        if instruction.op == Op::Halt {
            self.halt_pending = true;
        }

        self.in_flight.push(InFlight {
            slot,
            issue_cycle: self.now,
            spec_level,
            d_done: false,
            spec_resolved_early: false,
            queue_operands: [None; NUM_SRCS],
        });

        // Merged trigger/decode stages do decode work in the issue
        // cycle.
        if self.config.pipeline.d_offset() == 0 {
            self.run_decode(self.in_flight.len() - 1);
        }
    }

    /// The queue-version sum over every input and output queue:
    /// changes exactly when any queue is pushed, popped or cleared, so
    /// comparing it against the value in the idle key detects fabric
    /// traffic since the latch.
    fn queue_version_sum(&self) -> u64 {
        self.inputs
            .iter()
            .chain(self.outputs.iter())
            .map(TaggedQueue::version)
            .fold(0u64, u64::wrapping_add)
    }

    /// Bulk-applies `cycles` repeats of the latched stall cycle: local
    /// clock, cycle counter, the stall-class counter and (when tracing)
    /// one `Stall` event per skipped cycle — bit-identical to calling
    /// [`UarchPe::step_cycle`] `cycles` times while provably inert.
    fn skip_stall_cycles(&mut self, cycles: u64) {
        let Some(class) = self.idle_class() else {
            debug_assert!(false, "fast-forward skip requested on an active PE");
            return;
        };
        debug_assert!(!self.halted);
        #[cfg(debug_assertions)]
        self.debug_check_latched_stall(class);
        let stall = class
            .stall()
            .expect("an issuing cycle is never latched as a stall");
        self.counters.charge(class, cycles);
        self.counters.cycles += cycles;
        if T::ENABLED {
            for _ in 0..cycles {
                self.now += 1;
                self.tracer
                    .emit(self.pe_id, self.now, EventKind::Stall { class: stall });
            }
        } else {
            self.now += cycles;
        }
    }
}

impl<T: Tracer> UarchPe<T> {
    /// Captures the complete architectural + microarchitectural state:
    /// registers, predicates, scratchpad, queues, in-flight
    /// instructions, the speculation stack, predictor counters,
    /// performance counters, the retirement trace and the local clock.
    ///
    /// The program, parameters and configuration are *not* captured —
    /// a snapshot restores state into a PE rebuilt from the same
    /// program — but the configuration and program length are recorded
    /// so [`UarchPe::restore`] can reject mismatched targets.
    pub fn snapshot(&self) -> UarchPeState {
        UarchPeState {
            config: self.config,
            program_len: self.program.len(),
            regs: self.regs.clone(),
            preds: self.preds,
            scratchpad: self.scratchpad.clone(),
            inputs: self.inputs.iter().map(TaggedQueue::snapshot).collect(),
            outputs: self.outputs.iter().map(TaggedQueue::snapshot).collect(),
            halted: self.halted,
            halt_pending: self.halt_pending,
            in_flight: self
                .in_flight
                .iter()
                .map(|f| InFlightState {
                    slot: f.slot,
                    issue_cycle: f.issue_cycle,
                    spec_level: f.spec_level,
                    d_done: f.d_done,
                    spec_resolved_early: f.spec_resolved_early,
                    queue_operands: f.queue_operands,
                })
                .collect(),
            spec_stack: self
                .spec_stack
                .iter()
                .map(|s| SpeculationState {
                    bit: s.bit,
                    predicted: s.predicted,
                    saved: s.saved,
                })
                .collect(),
            predictor: self.predictor.counters().to_vec(),
            counters: self.counters,
            now: self.now,
            trace: self.trace.clone(),
            pe_id: self.pe_id,
        }
    }

    /// Restores a snapshot into this PE. The PE must have been built
    /// from the same parameters, configuration and program as the one
    /// that produced the snapshot; continuation is then bit-identical
    /// to the original run.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's shape (configuration, program length,
    /// register/scratchpad/queue/predictor sizes) does not match this
    /// PE, or when an in-flight entry or speculation refers to an
    /// out-of-range slot or predicate.
    pub fn restore(&mut self, state: &UarchPeState) -> Result<(), RestoreError> {
        if state.config != self.config {
            return Err(RestoreError::invalid(
                "snapshot was taken under a different microarchitecture configuration",
            ));
        }
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
        check(
            "predictor bank size",
            self.predictor.counters().len(),
            state.predictor.len(),
        )?;
        if state.in_flight.iter().any(|f| f.slot >= state.program_len) {
            return Err(RestoreError::invalid(
                "in-flight entry refers to an out-of-range slot",
            ));
        }
        if state
            .spec_stack
            .iter()
            .any(|s| s.bit.index() >= self.params.num_preds)
        {
            return Err(RestoreError::invalid(
                "speculation refers to an out-of-range predicate",
            ));
        }
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
        self.halt_pending = state.halt_pending;
        self.in_flight = state
            .in_flight
            .iter()
            .map(|f| InFlight {
                slot: f.slot,
                issue_cycle: f.issue_cycle,
                spec_level: f.spec_level,
                d_done: f.d_done,
                spec_resolved_early: f.spec_resolved_early,
                queue_operands: f.queue_operands,
            })
            .collect();
        self.spec_stack = state
            .spec_stack
            .iter()
            .map(|s| Speculation {
                bit: s.bit,
                predicted: s.predicted,
                saved: s.saved,
            })
            .collect();
        let accepted = self.predictor.restore_counters(&state.predictor);
        debug_assert!(accepted, "bank size was checked above");
        self.counters = state.counters;
        self.now = state.now;
        self.trace = state.trace.clone();
        self.pe_id = state.pe_id;
        // The idle key describes the pre-restore timeline; drop it so
        // the restored PE re-proves inertness by stepping.
        self.idle = None;
        // What the knobs decided before the snapshot is unknown.
        self.witness = ConfigWitness::UNKNOWN;
        Ok(())
    }
}

/// Serializable snapshot of one in-flight instruction (see the
/// private pipeline bookkeeping in [`UarchPe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InFlightState {
    /// The issuing instruction slot.
    pub slot: usize,
    /// The cycle the instruction issued.
    pub issue_cycle: u64,
    /// Outstanding speculations when it issued.
    pub spec_level: usize,
    /// Whether the decode stage has executed.
    pub d_done: bool,
    /// Whether the speculation it started confirmed early.
    pub spec_resolved_early: bool,
    /// Queue operand values captured in decode.
    pub queue_operands: [Option<Word>; NUM_SRCS],
}

/// Serializable snapshot of one outstanding predicate speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpeculationState {
    /// The speculated predicate bit.
    pub bit: PredId,
    /// The predicted value.
    pub predicted: bool,
    /// Predicate state saved for rollback.
    pub saved: PredState,
}

/// Serializable snapshot of a [`UarchPe`], produced by
/// [`UarchPe::snapshot`] and consumed by [`UarchPe::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UarchPeState {
    /// The microarchitecture configuration (shape check on restore).
    pub config: UarchConfig,
    /// The program's slot count (shape check on restore).
    pub program_len: usize,
    /// Data register file.
    pub regs: Vec<Word>,
    /// The (possibly speculative) architectural predicate state.
    pub preds: PredState,
    /// Scratchpad memory.
    pub scratchpad: Vec<Word>,
    /// Input queue states.
    pub inputs: Vec<QueueState>,
    /// Output queue states.
    pub outputs: Vec<QueueState>,
    /// Whether a `halt` has committed.
    pub halted: bool,
    /// Whether a `halt` is in flight.
    pub halt_pending: bool,
    /// Instructions between issue and commit, oldest first.
    pub in_flight: Vec<InFlightState>,
    /// Outstanding speculations, oldest first.
    pub spec_stack: Vec<SpeculationState>,
    /// Predictor counter bank.
    pub predictor: Vec<u8>,
    /// Accumulated performance counters.
    pub counters: UarchCounters,
    /// The PE's local cycle counter.
    pub now: u64,
    /// The retirement trace (`None` when recording is off).
    pub trace: Option<Vec<u16>>,
    /// The PE id stamped on trace events.
    pub pe_id: u16,
}

impl<T: Tracer> Snapshotable for UarchPe<T> {
    fn save_state(&self) -> Value {
        self.snapshot().to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), RestoreError> {
        let parsed = UarchPeState::from_value(state)?;
        self.restore(&parsed)
    }
}

impl<T: Tracer> ProcessingElement for UarchPe<T> {
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
            // A halted PE's step is a no-op; only the (non-existent)
            // possibility of un-halting could change that.
            return None;
        }
        // A latched pure stall repeats forever unless fabric traffic
        // has landed on a queue since the stall was classified; work
        // in flight, or a last step that did work, is active now.
        match self.idle_class() {
            Some(_) => None,
            None => Some(now),
        }
    }

    fn skip_cycles(&mut self, cycles: u64) {
        self.skip_stall_cycles(cycles);
    }
}

impl<T: Tracer> ProfileSource for UarchPe<T> {
    fn prof_counters(&self) -> ProfCounters {
        let c = &self.counters;
        ProfCounters {
            cycles: c.cycles,
            retired: c.retired,
            quashed: c.quashed,
            pred_hazard: c.pred_hazard_cycles,
            data_hazard: c.data_hazard_cycles,
            forbidden: c.forbidden_cycles,
            not_triggered: c.not_triggered_cycles,
            in_flight: self.in_flight.len() as u64,
        }
    }

    fn stall_insight(&self) -> StallInsight {
        // The architectural view of the current trigger state: which
        // queue-side conditions block the slots whose predicate
        // patterns match right now. The profiler only consults this
        // after fresh `not_triggered` cycles; a *pure* stall has an
        // empty pipeline, so raw occupancy/fullness (no in-flight
        // adjustments) is exact in every case that matters.
        let mut empty_inputs = 0u32;
        for (q, queue) in self.inputs.iter().enumerate() {
            if queue.is_empty() {
                empty_inputs |= 1 << q;
            }
        }
        let mut full_outputs = 0u32;
        for (q, queue) in self.outputs.iter().enumerate() {
            let visible = if self.config.padded_output_queues {
                queue.capacity() - self.config.pipeline.depth()
            } else {
                queue.capacity()
            };
            if queue.occupancy() >= visible {
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
    use crate::config::Pipeline;
    use tia_asm::assemble;

    fn pe(config: UarchConfig, source: &str) -> UarchPe {
        let params = Params::default();
        let program = assemble(source, &params).expect("test program assembles");
        UarchPe::new(&params, config, program).expect("valid program")
    }

    #[test]
    fn stepping_a_halted_pe_is_a_no_op() {
        let mut pe = pe(
            UarchConfig::base(Pipeline::T_DX),
            "when %p == XXXXXXXX: halt;",
        );
        while !pe.halted() {
            pe.step_cycle();
        }
        let cycles = pe.counters().cycles;
        for _ in 0..5 {
            pe.step_cycle();
        }
        assert_eq!(pe.counters().cycles, cycles);
        assert_eq!(pe.counters().retired, 1);
    }

    #[test]
    fn cycle_attribution_identity_holds_on_every_pipeline() {
        // Total cycles must equal issued work plus classified stalls.
        let source = "\
            when %p == XXXXX0X0: ult %p1, %r0, 9; set %p = ZZZZZZZ1;
            when %p == XXXXXX11: add %r0, %r0, 1; set %p = ZZZZZ1Z0;
            when %p == XXXXX1XX: add %r1, %r1, %r0; set %p = ZZZZZ0ZZ;
            when %p == XXXXXX01: halt;";
        for config in UarchConfig::all() {
            let mut p = pe(config, source);
            while !p.halted() {
                p.step_cycle();
            }
            let c = p.counters();
            assert_eq!(
                c.cycles,
                c.retired
                    + c.quashed
                    + c.pred_hazard_cycles
                    + c.data_hazard_cycles
                    + c.forbidden_cycles
                    + c.not_triggered_cycles,
                "{config}: attribution leak"
            );
            assert_eq!(p.reg(1), 45, "{config}: sum 1..=9");
        }
    }

    #[test]
    fn a_flushed_speculative_halt_is_not_fatal() {
        // The predictor warms to "taken" on the loop predicate; at the
        // loop exit the mispredicted iteration — which may include a
        // speculatively issued halt on some pipelines — must flush and
        // the PE must still halt exactly once, at the right time.
        let source = "\
            when %p == XXXXX0X0: ult %p1, %r0, 4; set %p = ZZZZZZZ1;
            when %p == XXXXXX11: add %r0, %r0, 1; set %p = ZZZZZ1Z0;
            when %p == XXXXX1XX: nop; set %p = ZZZZZ0ZZ;
            when %p == XXXXXX01: halt;";
        for pipeline in [Pipeline::T_DX, Pipeline::T_D_X1_X2] {
            let mut p = pe(UarchConfig::with_pq(pipeline), source);
            for _ in 0..200 {
                if p.halted() {
                    break;
                }
                p.step_cycle();
            }
            assert!(p.halted(), "{pipeline}");
            assert_eq!(p.reg(0), 4, "{pipeline}: rollback must undo the extra add");
            assert!(p.counters().quashed > 0, "{pipeline}: the exit mispredicts");
        }
    }

    #[test]
    fn accessors_expose_configuration_and_state() {
        let config = UarchConfig::with_pq(Pipeline::TD_X);
        let p = pe(config, "when %p == XXXXXXXX: halt;");
        assert_eq!(*p.config(), config);
        assert_eq!(p.params().num_regs, 8);
        assert_eq!(p.reg(0), 0);
        assert_eq!(p.predicates().bits(), 0);
        assert_eq!(p.input_queue(0).occupancy(), 0);
        assert_eq!(p.output_queue(0).occupancy(), 0);
        assert!(p.trace().is_empty());
    }

    #[test]
    fn ring_tracer_captures_the_cycle_level_event_stream() {
        use tia_trace::RingTracer;
        let params = Params::default();
        let source = "\
            when %p == XXXXXXX0: add %r0, %r0, 7; set %p = ZZZZZZZ1;
            when %p == XXXXXXX1: halt;";
        let program = assemble(source, &params).expect("assembles");
        let mut traced = UarchPe::with_tracer(
            &params,
            UarchConfig::base(Pipeline::T_D_X),
            program.clone(),
            RingTracer::new(1 << 10),
        )
        .expect("valid program");
        traced.set_pe_id(7);
        while !traced.halted() {
            traced.step_cycle();
        }

        let events: Vec<_> = traced.tracer().events().copied().collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.pe == 7), "pe id stamps every event");
        let issues = events.iter().filter(|e| e.is_issue()).count() as u64;
        let retires = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retire { .. }))
            .count() as u64;
        assert_eq!(issues, traced.counters().retired);
        assert_eq!(retires, traced.counters().retired);
        // On the 3-deep T|D|X pipeline the second instruction waits for
        // the first predicate write: stall events must appear and agree
        // with the counters.
        let stalls = events.iter().filter(|e| e.is_stall()).count() as u64;
        let c = traced.counters();
        assert_eq!(
            stalls,
            c.pred_hazard_cycles
                + c.data_hazard_cycles
                + c.forbidden_cycles
                + c.not_triggered_cycles
        );

        // The same program untraced reaches the bit-identical
        // architectural state and counter values.
        let mut plain = UarchPe::new(&params, UarchConfig::base(Pipeline::T_D_X), program)
            .expect("valid program");
        while !plain.halted() {
            plain.step_cycle();
        }
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(plain.reg(0), traced.reg(0));
        let _ = traced.into_tracer();
    }

    #[test]
    fn wide_predicate_files_scan_every_compiled_slot() {
        // Too many predicates for a dispatch table: every cycle scans
        // all compiled slots, on every pipeline.
        let mut params = Params::default();
        params.num_preds = tia_jit::TABLE_PRED_LIMIT + 1;
        let program = assemble(
            "when %p == XXXXXXXXXXX00: add %r0, %r0, 1; set %p = ZZZZZZZZZZZZ1;\n\
             when %p == 1XXXXXXXXXX10: add %r0, %r0, 1; set %p = ZZZZZZZZZZZZ1;\n\
             when %p == XXXXXXXXXXXX1: ult %p12, %r0, 3; set %p = ZZZZZZZZZZZ10;\n\
             when %p == 0XXXXXXXXXX10: halt;",
            &params,
        )
        .expect("assembles");
        for config in UarchConfig::all() {
            let mut p = UarchPe::new(&params, config, program.clone()).expect("valid program");
            assert!(!p.compiled.has_table());
            while !p.halted() {
                p.step_cycle();
            }
            assert_eq!(p.reg(0), 3, "{config}");
            assert_eq!(p.counters().retired, 7, "{config}");
        }
    }

    #[test]
    fn trace_records_retirement_order() {
        let mut p = pe(
            UarchConfig::base(Pipeline::T_D_X),
            "when %p == XXXXXXX0: mov %r0, 1; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXXX1: halt;",
        );
        p.record_trace(true);
        while !p.halted() {
            p.step_cycle();
        }
        assert_eq!(p.trace(), &[0, 1]);
        p.record_trace(false);
        assert!(p.trace().is_empty());
    }
}
