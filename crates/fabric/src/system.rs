//! The spatial system: PEs, memory ports, host streams, and the
//! point-to-point channels that connect them.
//!
//! Both the functional simulator (`tia-sim`) and the cycle-level
//! microarchitecture model (`tia-core`) plug their PE types into
//! [`System`] through the [`ProcessingElement`] trait, so multi-PE
//! workloads run unchanged on either.

use std::fmt;

use serde::{Deserialize, Serialize, Value};
use tia_isa::{IsaError, Word};
use tia_trace::{EventKind, QueueDir, RingTracer, TraceEvent, Tracer};

use crate::memory::{
    Memory, ReadPort, ReadPortState, SeqWritePortState, SequentialWritePort, WritePort,
    WritePortState,
};
use crate::queue::{RestoreError, TaggedQueue};
use crate::stream::{StreamSink, StreamSinkState, StreamSource, StreamSourceState};

/// A processing element pluggable into a [`System`].
///
/// The trait deliberately exposes only what the fabric needs: a clock
/// edge, the PE's channel endpoints, and halt status. The progress
/// probes (`num_input_queues`, `num_output_queues`,
/// `retired_instructions`) default to zero so minimal PE models keep
/// working; real PE models override them to make watchdog-style
/// liveness monitoring meaningful.
pub trait ProcessingElement {
    /// Advances the PE one cycle.
    fn step(&mut self);

    /// The PE's input queues (fabric delivers tokens here).
    fn input_queue_mut(&mut self, index: usize) -> &mut TaggedQueue;

    /// The PE's output queues (fabric drains tokens from here).
    fn output_queue_mut(&mut self, index: usize) -> &mut TaggedQueue;

    /// Whether the PE has retired a `halt` instruction.
    fn is_halted(&self) -> bool;

    /// How many input queues the PE exposes (0 when unknown).
    fn num_input_queues(&self) -> usize {
        0
    }

    /// How many output queues the PE exposes (0 when unknown).
    fn num_output_queues(&self) -> usize {
        0
    }

    /// Total instructions retired so far (0 when the model doesn't
    /// count retirements).
    fn retired_instructions(&self) -> u64 {
        0
    }

    /// The earliest cycle at which this PE's architecturally visible
    /// state *can* change, given the system cycle counter `now` (the
    /// number of completed cycles; the next step simulates cycle
    /// `now`).
    ///
    /// * `Some(c)` with `c <= now` — the PE may do work on the very
    ///   next step; nothing can be skipped.
    /// * `Some(c)` with `c > now` — the PE is provably inert until
    ///   cycle `c`: every step before `c` would repeat the same
    ///   stall/idle bookkeeping with no architectural change (queues,
    ///   registers, predicates, halt state all frozen), provided no
    ///   token lands on its queues in the meantime.
    /// * `None` — only external input (a fabric transfer into one of
    ///   its queues) can wake the PE.
    ///
    /// The default is conservatively `Some(now)` — always active — so
    /// custom PE models are correct without opting in. Implementations
    /// must pair any `> now`/`None` answer with a matching
    /// [`ProcessingElement::skip_cycles`] that bulk-applies the skipped
    /// cycles' bookkeeping bit-identically.
    fn next_event_cycle(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Bulk-applies `cycles` inert cycles' worth of per-cycle
    /// bookkeeping (stall/idle counters, local clocks, stall trace
    /// events) exactly as if [`ProcessingElement::step`] had been
    /// called `cycles` times while the PE was inert.
    ///
    /// Only called by the fast-forward engine, and only for spans the
    /// PE itself declared inert via
    /// [`ProcessingElement::next_event_cycle`]. The default is a no-op,
    /// matching the default always-active `next_event_cycle` (a PE that
    /// never declares itself inert is never asked to skip).
    fn skip_cycles(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// A component whose complete state can be captured as a serde
/// [`Value`] and later restored into an identically-shaped instance.
///
/// This is the PE-side hook for whole-[`System`] checkpointing: the
/// fabric owns the port/stream/memory state, and delegates PE state to
/// this trait because PE internals are model-specific.
pub trait Snapshotable {
    /// Captures the complete state of this component.
    fn save_state(&self) -> Value;

    /// Restores state captured by [`Snapshotable::save_state`] from a
    /// component of the same shape.
    ///
    /// # Errors
    ///
    /// Fails when the value does not parse as this component's state or
    /// its shape (queue capacities, register counts, ...) differs.
    fn restore_state(&mut self, state: &Value) -> Result<(), RestoreError>;
}

/// A producer-side channel endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputRef {
    /// Output queue `queue` of PE `pe`.
    Pe {
        /// PE index.
        pe: usize,
        /// Output queue index within the PE.
        queue: usize,
    },
    /// The data-response endpoint of read port `port`.
    ReadData {
        /// Read-port index.
        port: usize,
    },
    /// Host stream source `source`.
    Source {
        /// Source index.
        source: usize,
    },
}

/// A consumer-side channel endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputRef {
    /// Input queue `queue` of PE `pe`.
    Pe {
        /// PE index.
        pe: usize,
        /// Input queue index within the PE.
        queue: usize,
    },
    /// The address-request endpoint of read port `port`.
    ReadAddr {
        /// Read-port index.
        port: usize,
    },
    /// The address endpoint of write port `port`.
    WriteAddr {
        /// Write-port index.
        port: usize,
    },
    /// The data endpoint of write port `port`.
    WriteData {
        /// Write-port index.
        port: usize,
    },
    /// The data endpoint of sequential (auto-incrementing) write port
    /// `port`.
    SeqWriteData {
        /// Sequential-write-port index.
        port: usize,
    },
    /// Host stream sink `sink`.
    Sink {
        /// Sink index.
        sink: usize,
    },
}

/// A point-to-point channel: each cycle at most one token moves from
/// the producer endpoint to the consumer endpoint (one-cycle link
/// latency, ideal for nearest-neighbour spatial interconnect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// The producing endpoint.
    pub from: OutputRef,
    /// The consuming endpoint.
    pub to: InputRef,
}

/// Why [`System::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The caller's condition became true.
    Condition,
    /// The cycle limit elapsed first.
    CycleLimit,
}

/// A complete spatial system under simulation.
///
/// Within a cycle the phases are: PEs step, then channels transfer,
/// then memory ports and host streams step. A token produced in cycle
/// *t* is therefore visible to its consumer in cycle *t + 1*, modelling
/// single-cycle nearest-neighbour links.
#[derive(Debug)]
pub struct System<P> {
    pes: Vec<P>,
    memory: Memory,
    read_ports: Vec<ReadPort>,
    write_ports: Vec<WritePort>,
    seq_write_ports: Vec<SequentialWritePort>,
    sources: Vec<StreamSource>,
    sinks: Vec<StreamSink>,
    links: Vec<Link>,
    cycle: u64,
    /// Fabric-level event tracer: records a `QueueOp` for every token
    /// moved over a PE channel endpoint. `None` (the default) costs one
    /// branch per transferred token.
    tracer: Option<RingTracer>,
    /// Whether [`System::run_until`] may fast-forward across provably
    /// inert spans (see [`System::idle_horizon`]). Always on for a new
    /// system; only [`System::set_fast_forward`] turns it off.
    fast_forward: bool,
    /// Fast-forward effectiveness counters. Non-architectural: not
    /// part of [`SystemState`], so snapshots stay bit-identical with
    /// the engine on or off.
    ff_stats: FastForwardStats,
    /// Consecutive *unproductive* idle-horizon probes: misses, plus
    /// hits whose yield was below [`PROBE_YIELD_FLOOR`] (a probe is a
    /// full-fabric scan; skipping a couple of cycles does not pay for
    /// one). Non-architectural (probe scheduling only).
    probe_misses: u32,
    /// Idle cycles left before the next probe is allowed: exponential
    /// backoff (`2^min(misses, 6)`) after consecutive unproductive
    /// probes, so a compute-dense run with scattered short stalls does
    /// not pay a full-fabric scan on every one of them. Only a
    /// high-yield hit (≥ [`PROBE_YIELD_FLOOR`] cycles) resets it —
    /// deliberately *not* any retiring cycle, because compute
    /// interleaved with short stalls would then re-arm an immediate
    /// probe per stall episode. The cap bounds the cost: a genuinely
    /// idle phase steps at most 64 extra cycles before the probe that
    /// bulk-skips it. Forgoing a probe only trades a bulk skip for
    /// identical stepped cycles — bit-identity holds.
    probe_cooldown: u64,
}

/// Probe yield (bulk-skipped cycles) below which a hit still feeds the
/// exponential probe backoff: the skip is taken (those cycles are
/// free), but the *next* probe is delayed, because a full-fabric
/// quiescence scan costs more than stepping a handful of inert cycles.
const PROBE_YIELD_FLOOR: u64 = 16;

/// Effectiveness counters for the quiescence-aware fast-forward
/// engine: how often the idle-horizon probe ran, how often it found a
/// skippable span, and how many cycles were bulk-skipped instead of
/// stepped. The `tia-benchmark` workloads report these so the engine's
/// observed speedup can be explained by data (a compute-dense sweep
/// skips almost nothing; an idle-dominated run skips almost
/// everything).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FastForwardStats {
    /// Idle-horizon probes performed.
    pub probes: u64,
    /// Probes that found a nonzero skippable span.
    pub probe_hits: u64,
    /// Cycles advanced via [`System::skip_cycles`] rather than
    /// [`System::step`].
    pub skipped_cycles: u64,
    /// Probes suppressed by the exponential unproductive-probe backoff
    /// (idle cycles that would have probed without it).
    pub suppressed_probes: u64,
}

impl<P: ProcessingElement> System<P> {
    /// Creates a system over a data memory.
    pub fn new(memory: Memory) -> Self {
        System {
            pes: Vec::new(),
            memory,
            read_ports: Vec::new(),
            write_ports: Vec::new(),
            seq_write_ports: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            links: Vec::new(),
            cycle: 0,
            tracer: None,
            fast_forward: true,
            ff_stats: FastForwardStats::default(),
            probe_misses: 0,
            probe_cooldown: 0,
        }
    }

    /// Starts recording fabric channel traffic into a ring tracer with
    /// the default capacity (see [`tia_trace::RingTracer`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(RingTracer::with_default_capacity());
    }

    /// Starts recording fabric channel traffic, retaining at most
    /// `capacity` events.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.tracer = Some(RingTracer::new(capacity));
    }

    /// Stops tracing and hands back the recorded fabric events.
    pub fn take_tracer(&mut self) -> Option<RingTracer> {
        self.tracer.take()
    }

    /// Adds a PE, returning its index.
    pub fn add_pe(&mut self, pe: P) -> usize {
        self.pes.push(pe);
        self.pes.len() - 1
    }

    /// Adds a memory read port, returning its index.
    pub fn add_read_port(&mut self, port: ReadPort) -> usize {
        self.read_ports.push(port);
        self.read_ports.len() - 1
    }

    /// Adds a memory write port, returning its index.
    pub fn add_write_port(&mut self, port: WritePort) -> usize {
        self.write_ports.push(port);
        self.write_ports.len() - 1
    }

    /// Adds a sequential write port, returning its index.
    pub fn add_seq_write_port(&mut self, port: SequentialWritePort) -> usize {
        self.seq_write_ports.push(port);
        self.seq_write_ports.len() - 1
    }

    /// Adds a host stream source, returning its index.
    pub fn add_source(&mut self, source: StreamSource) -> usize {
        self.sources.push(source);
        self.sources.len() - 1
    }

    /// Adds a host stream sink, returning its index.
    pub fn add_sink(&mut self, sink: StreamSink) -> usize {
        self.sinks.push(sink);
        self.sinks.len() - 1
    }

    /// Connects a producer endpoint to a consumer endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidProgram`] when either endpoint is
    /// already connected (channels are point-to-point) or does not
    /// exist.
    pub fn connect(&mut self, from: OutputRef, to: InputRef) -> Result<(), IsaError> {
        self.check_output(from)?;
        self.check_input(to)?;
        if self.links.iter().any(|l| l.from == from) {
            return Err(IsaError::InvalidProgram(format!(
                "producer endpoint {from:?} already connected"
            )));
        }
        if self.links.iter().any(|l| l.to == to) {
            return Err(IsaError::InvalidProgram(format!(
                "consumer endpoint {to:?} already connected"
            )));
        }
        self.links.push(Link { from, to });
        Ok(())
    }

    fn check_output(&self, from: OutputRef) -> Result<(), IsaError> {
        let ok = match from {
            OutputRef::Pe { pe, .. } => pe < self.pes.len(),
            OutputRef::ReadData { port } => port < self.read_ports.len(),
            OutputRef::Source { source } => source < self.sources.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(IsaError::InvalidProgram(format!(
                "producer endpoint {from:?} does not exist"
            )))
        }
    }

    fn check_input(&self, to: InputRef) -> Result<(), IsaError> {
        let ok = match to {
            InputRef::Pe { pe, .. } => pe < self.pes.len(),
            InputRef::ReadAddr { port } => port < self.read_ports.len(),
            InputRef::WriteAddr { port } | InputRef::WriteData { port } => {
                port < self.write_ports.len()
            }
            InputRef::SeqWriteData { port } => port < self.seq_write_ports.len(),
            InputRef::Sink { sink } => sink < self.sinks.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(IsaError::InvalidProgram(format!(
                "consumer endpoint {to:?} does not exist"
            )))
        }
    }

    /// Every channel wired so far, in connection order. Static
    /// analyzers (`tia-lint`) use this to build the inter-PE channel
    /// dependency graph without running the system.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether [`System::run_until`] may fast-forward across provably
    /// inert spans: `false` only on the stepped reference path selected
    /// with [`System::set_fast_forward`].
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Enables or disables fast-forwarding (on for every new system).
    /// Fast-forwarding is exact — counters, traces and checkpoints are
    /// bit-identical either way — so turning it off only selects the
    /// stepped reference path that the fast-forward differential tests
    /// compare against.
    pub fn set_fast_forward(&mut self, enable: bool) {
        self.fast_forward = enable;
        self.probe_misses = 0;
        self.probe_cooldown = 0;
    }

    /// Immutable access to a PE.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn pe(&self, index: usize) -> &P {
        &self.pes[index]
    }

    /// Mutable access to a PE.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn pe_mut(&mut self, index: usize) -> &mut P {
        &mut self.pes[index]
    }

    /// Number of PEs in the system.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// The shared data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the shared data memory (host preloading).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// A sink's collected tokens.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn sink(&self, index: usize) -> &StreamSink {
        &self.sinks[index]
    }

    /// Number of memory read ports.
    pub fn num_read_ports(&self) -> usize {
        self.read_ports.len()
    }

    /// Immutable access to a memory read port (profilers inspect
    /// in-flight loads to attribute memory-latency stalls).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn read_port(&self, index: usize) -> &ReadPort {
        &self.read_ports[index]
    }

    /// Number of memory write ports.
    pub fn num_write_ports(&self) -> usize {
        self.write_ports.len()
    }

    /// Immutable access to a memory write port.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn write_port(&self, index: usize) -> &WritePort {
        &self.write_ports[index]
    }

    /// Number of sequential write ports.
    pub fn num_seq_write_ports(&self) -> usize {
        self.seq_write_ports.len()
    }

    /// Immutable access to a sequential write port.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn seq_write_port(&self, index: usize) -> &SequentialWritePort {
        &self.seq_write_ports[index]
    }

    /// Number of host stream sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of host stream sinks.
    pub fn num_sinks(&self) -> usize {
        self.sinks.len()
    }

    /// The fast-forward effectiveness counters accumulated so far (see
    /// [`FastForwardStats`]). Non-architectural: excluded from
    /// snapshots and never consulted by the engine itself.
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.ff_stats
    }

    /// Whether every PE has halted.
    pub fn all_halted(&self) -> bool {
        self.pes.iter().all(|p| p.is_halted())
    }

    /// Whether every memory port has drained its buffered and
    /// in-flight work. Workloads use this to wait for stores that were
    /// still travelling to a write port when the worker PE halted.
    pub fn ports_idle(&self) -> bool {
        self.read_ports.iter().all(|p| p.is_idle())
            && self.write_ports.iter().all(|p| p.is_idle())
            && self.seq_write_ports.iter().all(|p| p.is_idle())
    }

    /// Advances the whole system one cycle.
    pub fn step(&mut self) {
        for pe in &mut self.pes {
            if !pe.is_halted() {
                pe.step();
            }
        }
        self.transfer_links();
        for port in &mut self.read_ports {
            port.step(&self.memory);
        }
        for port in &mut self.write_ports {
            port.step(&mut self.memory);
        }
        for port in &mut self.seq_write_ports {
            port.step(&mut self.memory);
        }
        for source in &mut self.sources {
            source.step();
        }
        for sink in &mut self.sinks {
            sink.step();
        }
        self.cycle += 1;
    }

    /// Whether `link` can move a token on this step: its producer
    /// endpoint holds a token and its consumer endpoint has space. The
    /// producer is asked first because most links are idle on most
    /// cycles. This is the one readiness rule of the fabric: both
    /// [`System::transfer_links`] and [`System::any_link_ready`] use it.
    #[inline(always)]
    fn link_ready(&mut self, Link { from, to }: Link) -> bool {
        let has_token = match from {
            OutputRef::Pe { pe, queue } => !self.pes[pe].output_queue_mut(queue).is_empty(),
            OutputRef::ReadData { port } => !self.read_ports[port].data_out.is_empty(),
            OutputRef::Source { source } => !self.sources[source].out.is_empty(),
        };
        has_token
            && match to {
                InputRef::Pe { pe, queue } => !self.pes[pe].input_queue_mut(queue).is_full(),
                InputRef::ReadAddr { port } => !self.read_ports[port].addr_in.is_full(),
                InputRef::WriteAddr { port } => !self.write_ports[port].addr_in.is_full(),
                InputRef::WriteData { port } => !self.write_ports[port].data_in.is_full(),
                InputRef::SeqWriteData { port } => !self.seq_write_ports[port].data_in.is_full(),
                InputRef::Sink { sink } => !self.sinks[sink].input.is_full(),
            }
    }

    /// Moves one token over every ready link (see
    /// [`System::link_ready`]), so a push never meets a full queue.
    fn transfer_links(&mut self) {
        for i in 0..self.links.len() {
            let link = self.links[i];
            if !self.link_ready(link) {
                continue;
            }
            let Link { from, to } = link;
            let token = match from {
                OutputRef::Pe { pe, queue } => self.pes[pe].output_queue_mut(queue).pop(),
                OutputRef::ReadData { port } => self.read_ports[port].data_out.pop(),
                OutputRef::Source { source } => self.sources[source].out.pop(),
            }
            .expect("a ready link's producer holds a token");
            let accepted = match to {
                InputRef::Pe { pe, queue } => self.pes[pe].input_queue_mut(queue).push(token),
                InputRef::ReadAddr { port } => self.read_ports[port].addr_in.push(token),
                InputRef::WriteAddr { port } => self.write_ports[port].addr_in.push(token),
                InputRef::WriteData { port } => self.write_ports[port].data_in.push(token),
                InputRef::SeqWriteData { port } => self.seq_write_ports[port].data_in.push(token),
                InputRef::Sink { sink } => self.sinks[sink].input.push(token),
            };
            debug_assert!(accepted, "a ready link's consumer has space");
            if let Some(tracer) = &mut self.tracer {
                let cycle = self.cycle;
                if let OutputRef::Pe { pe, queue } = from {
                    let occupancy = self.pes[pe].output_queue_mut(queue).occupancy() as u16;
                    tracer.record(TraceEvent::new(
                        pe as u16,
                        cycle,
                        EventKind::QueueOp {
                            queue: queue as u16,
                            dir: QueueDir::Dequeue,
                            occupancy,
                        },
                    ));
                }
                if let InputRef::Pe { pe, queue } = to {
                    let occupancy = self.pes[pe].input_queue_mut(queue).occupancy() as u16;
                    tracer.record(TraceEvent::new(
                        pe as u16,
                        cycle,
                        EventKind::QueueOp {
                            queue: queue as u16,
                            dir: QueueDir::Enqueue,
                            occupancy,
                        },
                    ));
                }
            }
        }
    }

    /// Whether any channel could move a token on the next step (see
    /// [`System::link_ready`]). While this is false and every component
    /// is inert, the whole system state is frozen.
    fn any_link_ready(&mut self) -> bool {
        for i in 0..self.links.len() {
            if self.link_ready(self.links[i]) {
                return true;
            }
        }
        false
    }

    /// How many cycles (at most `limit`) the system can provably skip
    /// from its current state without any architecturally visible
    /// change: no channel can transfer, and every component reports —
    /// via [`ProcessingElement::next_event_cycle`] and the
    /// port/stream equivalents — that it cannot act before the horizon.
    ///
    /// Because nothing can act inside the horizon, the state at every
    /// skipped cycle equals the current state (inductively: a cycle
    /// changes state only through a component doing work or a link
    /// transferring, and neither is possible), which is what makes
    /// [`System::skip_cycles`] exact. Returns `0` whenever any
    /// component may act on the next step.
    ///
    /// Each call counts as one probe in [`System::fast_forward_stats`]
    /// (a hit when the returned horizon is nonzero).
    pub fn idle_horizon(&mut self, limit: u64) -> u64 {
        let horizon = self.idle_horizon_inner(limit);
        self.ff_stats.probes += 1;
        if horizon > 0 {
            self.ff_stats.probe_hits += 1;
        }
        horizon
    }

    fn idle_horizon_inner(&mut self, limit: u64) -> u64 {
        if limit == 0 || self.any_link_ready() {
            return 0;
        }
        let now = self.cycle;
        // The earliest cycle any component can act; u64::MAX when every
        // component waits on external input (deadlock or quiescence).
        let mut wake = u64::MAX;
        for pe in &self.pes {
            if pe.is_halted() {
                continue;
            }
            match pe.next_event_cycle(now) {
                Some(c) if c <= now => return 0,
                Some(c) => wake = wake.min(c),
                None => {}
            }
        }
        for port in &self.read_ports {
            match port.next_event_cycle(now) {
                Some(c) if c <= now => return 0,
                Some(c) => wake = wake.min(c),
                None => {}
            }
        }
        // Write ports commit one store per step whenever both operands
        // are buffered; stream sources stage a token whenever one
        // remains and the outbound queue has space; sinks drain any
        // buffered input. None of them owns a clock, so each is either
        // ready now or woken only by external input.
        for port in &self.write_ports {
            if !port.addr_in.is_empty() && !port.data_in.is_empty() {
                return 0;
            }
        }
        for port in &self.seq_write_ports {
            if !port.data_in.is_empty() {
                return 0;
            }
        }
        for source in &self.sources {
            if source.remaining() > 0 && !source.out.is_full() {
                return 0;
            }
        }
        for sink in &self.sinks {
            if !sink.input.is_empty() {
                return 0;
            }
        }
        (wake - now).min(limit)
    }

    /// Jumps the system `cycles` cycles forward, bulk-applying each
    /// component's per-cycle bookkeeping (stall/idle counters, local
    /// clocks, per-cycle stall trace events) exactly as if
    /// [`System::step`] had been called `cycles` times.
    ///
    /// Only exact for spans within [`System::idle_horizon`] — counters,
    /// traces and snapshots then stay bit-identical to the
    /// cycle-by-cycle run. Halted PEs are not asked to skip: their
    /// `step` is already a no-op.
    pub fn skip_cycles(&mut self, cycles: u64) {
        for pe in &mut self.pes {
            if !pe.is_halted() {
                pe.skip_cycles(cycles);
            }
        }
        for port in &mut self.read_ports {
            port.skip_cycles(cycles);
        }
        self.cycle += cycles;
        self.ff_stats.skipped_cycles += cycles;
    }

    /// Runs until `condition` holds or `max_cycles` elapse.
    /// `condition` is checked after every stepped cycle and after
    /// every bulk skip.
    ///
    /// With fast-forwarding enabled (see [`System::fast_forward`]),
    /// provably inert spans are skipped in bulk via
    /// [`System::skip_cycles`]; the run is bit-identical to the
    /// cycle-by-cycle one as long as `condition` depends only on system
    /// *state* (queues, counters, halt flags — all frozen across a
    /// skipped span), not on the cycle number itself. A skip never
    /// runs past the budget, so a condition that must see one
    /// particular cycle bounds `max_cycles` to end there, as
    /// `tia_ckpt::run_guarded` does.
    ///
    /// This is the one loop that fast-forwards a system: profilers and
    /// watchdogs observe the run from inside `condition`.
    pub fn run_until<F>(&mut self, mut condition: F, max_cycles: u64) -> StopReason
    where
        F: FnMut(&System<P>) -> bool,
    {
        let end = self.cycle.saturating_add(max_cycles);
        while self.cycle < end {
            // Probing the idle horizon costs a scan over every link and
            // component, so only pay for it after a cycle that retired
            // nothing — a retiring fabric is self-evidently not inert,
            // and skipping the probe there makes fast-forwarding free
            // on compute-dense runs.
            let retired_before = self.fast_forward.then(|| self.total_retired());
            self.step();
            if condition(self) {
                return StopReason::Condition;
            }
            // A probe at the end of the budget could skip nothing.
            if self.cycle < end && retired_before == Some(self.total_retired()) {
                // Exponential backoff after consecutive unproductive
                // probes (see `probe_cooldown`): suppressed probes just
                // step normally, which is bit-identical.
                if self.probe_cooldown > 0 {
                    self.probe_cooldown -= 1;
                    self.ff_stats.suppressed_probes += 1;
                    continue;
                }
                let skip = self.idle_horizon(end - self.cycle);
                if skip >= PROBE_YIELD_FLOOR {
                    // A high-yield probe earns eager probing.
                    self.probe_misses = 0;
                    self.probe_cooldown = 0;
                } else {
                    // A miss — or a hit that skipped less than a
                    // full-fabric scan is worth — delays the next probe.
                    self.probe_misses = self.probe_misses.saturating_add(1);
                    self.probe_cooldown = 1u64 << self.probe_misses.min(6);
                }
                if skip > 0 {
                    self.skip_cycles(skip);
                    if condition(self) {
                        return StopReason::Condition;
                    }
                }
            }
        }
        StopReason::CycleLimit
    }

    /// Runs until every PE halts or `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> StopReason {
        self.run_until(|sys| sys.all_halted(), max_cycles)
    }

    /// Total tokens buffered anywhere the system can see: PE input and
    /// output queues (as exposed by
    /// [`ProcessingElement::num_input_queues`] /
    /// [`ProcessingElement::num_output_queues`]), memory-port queues
    /// and in-flight loads, and host stream endpoints. A watchdog uses
    /// this to distinguish a blocked-but-loaded fabric (deadlock) from
    /// a fully quiescent one.
    pub fn buffered_tokens(&mut self) -> u64 {
        let mut total: u64 = 0;
        for pe in &mut self.pes {
            for i in 0..pe.num_input_queues() {
                total += pe.input_queue_mut(i).occupancy() as u64;
            }
            for i in 0..pe.num_output_queues() {
                total += pe.output_queue_mut(i).occupancy() as u64;
            }
        }
        for port in &self.read_ports {
            total += (port.addr_in.occupancy() + port.data_out.occupancy() + port.in_flight_len())
                as u64;
        }
        for port in &self.write_ports {
            total += (port.addr_in.occupancy() + port.data_in.occupancy()) as u64;
        }
        for port in &self.seq_write_ports {
            total += port.data_in.occupancy() as u64;
        }
        for source in &self.sources {
            total += source.out.occupancy() as u64;
        }
        for sink in &self.sinks {
            total += sink.input.occupancy() as u64;
        }
        total
    }

    /// Total instructions retired across all PEs (see
    /// [`ProcessingElement::retired_instructions`]).
    pub fn total_retired(&self) -> u64 {
        self.pes.iter().map(|p| p.retired_instructions()).sum()
    }
}

impl<P: ProcessingElement + Snapshotable> System<P> {
    /// Captures the complete architectural state of the system: cycle
    /// count, memory contents, every port/stream state, and each PE's
    /// state via [`Snapshotable`].
    ///
    /// The fabric tracer (if any) is deliberately *not* captured:
    /// trace rings are observability state, not architectural state,
    /// and a restored run re-arms tracing explicitly.
    pub fn save_state(&self) -> SystemState {
        SystemState {
            cycle: self.cycle,
            memory: self.memory.words().to_vec(),
            pes: self.pes.iter().map(|p| p.save_state()).collect(),
            read_ports: self.read_ports.iter().map(|p| p.snapshot()).collect(),
            write_ports: self.write_ports.iter().map(|p| p.snapshot()).collect(),
            seq_write_ports: self.seq_write_ports.iter().map(|p| p.snapshot()).collect(),
            sources: self.sources.iter().map(|s| s.snapshot()).collect(),
            sinks: self.sinks.iter().map(|s| s.snapshot()).collect(),
        }
    }

    /// Restores a snapshot taken from a system with identical topology
    /// (same PE/port/stream counts and shapes, built by the same
    /// wiring code).
    ///
    /// # Errors
    ///
    /// Fails when any component count or shape differs from the
    /// snapshot.
    pub fn restore_state(&mut self, state: &SystemState) -> Result<(), RestoreError> {
        let check = |what, expected: usize, found: usize| {
            if expected == found {
                Ok(())
            } else {
                Err(RestoreError::shape(what, expected, found))
            }
        };
        check("PE count", self.pes.len(), state.pes.len())?;
        check("memory size", self.memory.len(), state.memory.len())?;
        check(
            "read-port count",
            self.read_ports.len(),
            state.read_ports.len(),
        )?;
        check(
            "write-port count",
            self.write_ports.len(),
            state.write_ports.len(),
        )?;
        check(
            "seq-write-port count",
            self.seq_write_ports.len(),
            state.seq_write_ports.len(),
        )?;
        check("source count", self.sources.len(), state.sources.len())?;
        check("sink count", self.sinks.len(), state.sinks.len())?;
        for (pe, s) in self.pes.iter_mut().zip(&state.pes) {
            pe.restore_state(s)?;
        }
        self.memory = Memory::from_words(state.memory.clone());
        for (port, s) in self.read_ports.iter_mut().zip(&state.read_ports) {
            port.restore(s)?;
        }
        for (port, s) in self.write_ports.iter_mut().zip(&state.write_ports) {
            port.restore(s)?;
        }
        for (port, s) in self.seq_write_ports.iter_mut().zip(&state.seq_write_ports) {
            port.restore(s)?;
        }
        for (source, s) in self.sources.iter_mut().zip(&state.sources) {
            source.restore(s)?;
        }
        for (sink, s) in self.sinks.iter_mut().zip(&state.sinks) {
            sink.restore(s)?;
        }
        self.cycle = state.cycle;
        Ok(())
    }
}

/// Serializable snapshot of a whole [`System`]: everything needed to
/// resume a run bit-identically on an identically-wired system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    /// The system cycle count.
    pub cycle: u64,
    /// The data memory contents.
    pub memory: Vec<Word>,
    /// Per-PE state, as produced by [`Snapshotable::save_state`].
    pub pes: Vec<Value>,
    /// Read-port states.
    pub read_ports: Vec<ReadPortState>,
    /// Write-port states.
    pub write_ports: Vec<WritePortState>,
    /// Sequential-write-port states.
    pub seq_write_ports: Vec<SeqWritePortState>,
    /// Stream-source states.
    pub sources: Vec<StreamSourceState>,
    /// Stream-sink states.
    pub sinks: Vec<StreamSinkState>,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Condition => f.write_str("condition met"),
            StopReason::CycleLimit => f.write_str("cycle limit reached"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Token;

    /// A trivial PE that copies input 0 to output 0 each cycle.
    #[derive(Debug)]
    struct CopyPe {
        input: TaggedQueue,
        output: TaggedQueue,
        copied: u64,
        halt_after: u64,
    }

    impl CopyPe {
        fn new(halt_after: u64) -> Self {
            CopyPe {
                input: TaggedQueue::new(2),
                output: TaggedQueue::new(2),
                copied: 0,
                halt_after,
            }
        }
    }

    impl ProcessingElement for CopyPe {
        fn step(&mut self) {
            if !self.input.is_empty() && !self.output.is_full() {
                let t = self.input.pop().expect("checked");
                let pushed = self.output.push(t);
                debug_assert!(pushed);
                self.copied += 1;
            }
        }

        fn input_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
            assert_eq!(index, 0);
            &mut self.input
        }

        fn output_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
            assert_eq!(index, 0);
            &mut self.output
        }

        fn is_halted(&self) -> bool {
            self.copied >= self.halt_after
        }
    }

    fn chain(n_items: u32) -> System<CopyPe> {
        let mut sys = System::new(Memory::new(0));
        let pe = sys.add_pe(CopyPe::new(n_items as u64));
        let tokens: Vec<Token> = (0..n_items).map(Token::data).collect();
        let src = sys.add_source(StreamSource::new(2, tokens));
        let sink = sys.add_sink(StreamSink::new(2));
        sys.connect(
            OutputRef::Source { source: src },
            InputRef::Pe { pe, queue: 0 },
        )
        .unwrap();
        sys.connect(OutputRef::Pe { pe, queue: 0 }, InputRef::Sink { sink })
            .unwrap();
        sys
    }

    #[test]
    fn source_pe_sink_pipeline_delivers_everything_in_order() {
        let mut sys = chain(10);
        let reason = sys.run(1_000);
        assert_eq!(reason, StopReason::Condition);
        // Let the tail drain.
        for _ in 0..10 {
            sys.step();
        }
        assert_eq!(sys.sink(0).words(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_endpoints_are_rejected() {
        let mut sys = chain(1);
        let err = sys
            .connect(OutputRef::Source { source: 0 }, InputRef::Sink { sink: 0 })
            .unwrap_err();
        assert!(err.to_string().contains("already connected"));
    }

    #[test]
    fn dangling_endpoints_are_rejected() {
        let mut sys: System<CopyPe> = System::new(Memory::new(0));
        assert!(sys
            .connect(
                OutputRef::Pe { pe: 0, queue: 0 },
                InputRef::Sink { sink: 0 }
            )
            .is_err());
    }

    #[test]
    fn cycle_limit_stops_a_stuck_system() {
        // A source with no consumer for the PE output: the PE's output
        // queue fills and everything backs up.
        let mut sys = System::new(Memory::new(0));
        let pe = sys.add_pe(CopyPe::new(u64::MAX));
        let tokens: Vec<Token> = (0..100).map(Token::data).collect();
        let src = sys.add_source(StreamSource::new(2, tokens));
        sys.connect(
            OutputRef::Source { source: src },
            InputRef::Pe { pe, queue: 0 },
        )
        .unwrap();
        assert_eq!(sys.run(50), StopReason::CycleLimit);
        assert_eq!(sys.cycle(), 50);
        // Exactly capacity(out)=2 copies happened, then backpressure.
        assert_eq!(sys.pe(0).copied, 2);
    }

    #[test]
    fn fabric_tracing_records_pe_channel_traffic() {
        let mut sys = chain(4);
        sys.enable_tracing();
        sys.run(1_000);
        let tracer = sys.take_tracer().expect("tracing was enabled");
        let events: Vec<_> = tracer.events().copied().collect();
        // Source→PE transfers are enqueues into PE 0's input; PE→sink
        // transfers are dequeues from PE 0's output.
        assert!(events.iter().any(|e| matches!(
            e.kind,
            tia_trace::EventKind::QueueOp {
                dir: tia_trace::QueueDir::Enqueue,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            tia_trace::EventKind::QueueOp {
                dir: tia_trace::QueueDir::Dequeue,
                ..
            }
        )));
        assert!(sys.take_tracer().is_none(), "taking the tracer stops it");
    }

    #[test]
    fn memory_roundtrip_through_ports() {
        // source(addresses) -> read port -> sink
        let mut sys: System<CopyPe> = System::new(Memory::from_words(vec![7, 8, 9]));
        let rp = sys.add_read_port(ReadPort::new(2, 4));
        let addrs: Vec<Token> = (0..3).map(Token::data).collect();
        let src = sys.add_source(StreamSource::new(2, addrs));
        let sink = sys.add_sink(StreamSink::new(2));
        sys.connect(
            OutputRef::Source { source: src },
            InputRef::ReadAddr { port: rp },
        )
        .unwrap();
        sys.connect(OutputRef::ReadData { port: rp }, InputRef::Sink { sink })
            .unwrap();
        let reason = sys.run_until(|s| s.sink(0).collected().len() == 3, 100);
        assert_eq!(reason, StopReason::Condition);
        assert_eq!(sys.sink(0).words(), vec![7, 8, 9]);
    }

    #[test]
    fn write_port_commits_paired_stores() {
        let mut sys: System<CopyPe> = System::new(Memory::new(4));
        let wp = sys.add_write_port(WritePort::new(2));
        let addr_src = sys.add_source(StreamSource::new(2, vec![Token::data(1), Token::data(2)]));
        let data_src = sys.add_source(StreamSource::new(2, vec![Token::data(11), Token::data(22)]));
        sys.connect(
            OutputRef::Source { source: addr_src },
            InputRef::WriteAddr { port: wp },
        )
        .unwrap();
        sys.connect(
            OutputRef::Source { source: data_src },
            InputRef::WriteData { port: wp },
        )
        .unwrap();
        for _ in 0..20 {
            sys.step();
        }
        assert_eq!(sys.memory().read(1), 11);
        assert_eq!(sys.memory().read(2), 22);
    }

    /// A PE that does nothing until a programmed wake cycle, then
    /// halts — and records how many cycles were bulk-skipped, so tests
    /// can verify the fast-forward accounting contract.
    #[derive(Debug)]
    struct SleepyPe {
        queue: TaggedQueue,
        wake_at: Option<u64>,
        stepped: u64,
        skipped: u64,
        halted: bool,
    }

    impl SleepyPe {
        fn new(wake_at: Option<u64>) -> Self {
            SleepyPe {
                queue: TaggedQueue::new(2),
                wake_at,
                stepped: 0,
                skipped: 0,
                halted: false,
            }
        }
    }

    impl ProcessingElement for SleepyPe {
        fn step(&mut self) {
            self.stepped += 1;
            if let Some(wake) = self.wake_at {
                // `stepped` counts completed cycles, so after the step
                // finishing cycle `wake` the PE has done its work.
                if self.stepped > wake {
                    self.halted = true;
                }
            }
        }

        fn input_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
            assert_eq!(index, 0);
            &mut self.queue
        }

        fn output_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
            assert_eq!(index, 0);
            &mut self.queue
        }

        fn is_halted(&self) -> bool {
            self.halted
        }

        fn next_event_cycle(&self, now: u64) -> Option<u64> {
            match self.wake_at {
                None => None,
                Some(wake) if wake > now => Some(wake),
                Some(_) => Some(now),
            }
        }

        fn skip_cycles(&mut self, cycles: u64) {
            self.stepped += cycles;
            self.skipped += cycles;
        }
    }

    #[test]
    fn fast_forward_jumps_an_inert_system_to_the_limit() {
        let mut sys = System::new(Memory::new(0));
        sys.add_pe(SleepyPe::new(None));
        assert!(sys.fast_forward(), "fast-forward defaults on");
        assert_eq!(sys.run(1_000_000), StopReason::CycleLimit);
        assert_eq!(sys.cycle(), 1_000_000);
        // One real step, then a single bulk skip to the limit.
        assert_eq!(sys.pe(0).stepped, 1_000_000);
        assert_eq!(sys.pe(0).skipped, 999_999);
    }

    #[test]
    fn a_run_ending_on_its_budget_does_not_probe_its_last_cycle() {
        let mut sys = System::new(Memory::new(0));
        sys.add_pe(SleepyPe::new(None));
        // Each one-cycle run retires nothing and ends on its budget:
        // there is nothing left to skip, so no probe runs, none is
        // counted as suppressed and no backoff is armed.
        for _ in 0..3 {
            assert_eq!(sys.run(1), StopReason::CycleLimit);
        }
        assert_eq!(sys.fast_forward_stats(), FastForwardStats::default());
        // The next run therefore probes right after its first step.
        assert_eq!(sys.run(1_000), StopReason::CycleLimit);
        assert_eq!(sys.cycle(), 1_003);
        assert_eq!(
            sys.fast_forward_stats(),
            FastForwardStats {
                probes: 1,
                probe_hits: 1,
                skipped_cycles: 999,
                suppressed_probes: 0,
            }
        );
    }

    /// No environment variable turns the engine off: re-running the
    /// test above in a child process with the variable that used to
    /// switch it off set to `0` must still see a fast-forwarding system.
    #[test]
    fn the_environment_cannot_switch_fast_forward_off() {
        let test = "system::tests::fast_forward_jumps_an_inert_system_to_the_limit";
        let exe = std::env::current_exe().expect("test executable path");
        let output = std::process::Command::new(exe)
            .args([test, "--exact", "--test-threads=1"])
            .env("TIA_FAST_FORWARD", "0")
            .output()
            .expect("re-run the test executable");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{test} failed with the old off switch set:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(stdout.contains("1 passed"), "{test} did not run:\n{stdout}");
    }

    #[test]
    fn fast_forward_lands_exactly_on_the_wake_cycle() {
        let mut sys = System::new(Memory::new(0));
        sys.add_pe(SleepyPe::new(Some(500)));
        assert_eq!(sys.run(1_000_000), StopReason::Condition);
        // The PE halts on the step that completes cycle 501: cycles
        // 2..=500 were skippable, 501 had to be simulated.
        assert_eq!(sys.cycle(), 501);
        assert_eq!(sys.pe(0).stepped, 501);
        assert_eq!(sys.pe(0).skipped, 499);
    }

    #[test]
    fn disabling_fast_forward_steps_every_cycle() {
        let mut sys = System::new(Memory::new(0));
        sys.add_pe(SleepyPe::new(Some(500)));
        sys.set_fast_forward(false);
        assert_eq!(sys.run(1_000_000), StopReason::Condition);
        assert_eq!(sys.cycle(), 501);
        assert_eq!(sys.pe(0).stepped, 501);
        assert_eq!(sys.pe(0).skipped, 0);
    }

    #[test]
    fn pending_link_transfers_inhibit_skipping() {
        // An inert PE with a token parked in its output queue and a
        // sink attached: the link can transfer, so the horizon is 0
        // until the fabric drains it.
        let mut sys = System::new(Memory::new(0));
        let pe = sys.add_pe(SleepyPe::new(None));
        let sink = sys.add_sink(StreamSink::new(2));
        sys.connect(OutputRef::Pe { pe, queue: 0 }, InputRef::Sink { sink })
            .unwrap();
        assert!(sys.pe_mut(0).output_queue_mut(0).push(Token::data(9)));
        assert_eq!(sys.idle_horizon(100), 0);
        // One step moves the token over the link and the sink drains
        // it in the same cycle (sinks run after link transfers).
        sys.step();
        assert_eq!(sys.sink(0).words(), vec![9]);
        // Now truly inert.
        assert_eq!(sys.idle_horizon(100), 100);
    }

    #[test]
    fn in_flight_loads_bound_the_horizon() {
        let mut sys: System<SleepyPe> = System::new(Memory::from_words(vec![7, 8, 9]));
        let rp = sys.add_read_port(ReadPort::new(2, 10));
        let sink = sys.add_sink(StreamSink::new(2));
        sys.connect(OutputRef::ReadData { port: rp }, InputRef::Sink { sink })
            .unwrap();
        assert!(sys.read_ports[rp].addr_in.push(Token::data(2)));
        // Step once: the port launches the load (latency 10).
        sys.step();
        let reason = sys.run_until(|s| s.sink(0).collected().len() == 1, 100);
        assert_eq!(reason, StopReason::Condition);
        assert_eq!(sys.sink(0).words(), vec![9]);
    }

    /// A PE that never acts: its queues change only through links.
    #[derive(Debug)]
    struct ParkedPe {
        input: TaggedQueue,
        output: TaggedQueue,
    }

    impl ParkedPe {
        /// Capacity-2 queues holding `inputs` and `outputs` tokens.
        fn holding(inputs: u32, outputs: u32) -> Self {
            let mut pe = ParkedPe {
                input: TaggedQueue::new(2),
                output: TaggedQueue::new(2),
            };
            for i in 0..inputs {
                assert!(pe.input.push(Token::data(i)));
            }
            for i in 0..outputs {
                assert!(pe.output.push(Token::data(100 + i)));
            }
            pe
        }
    }

    impl ProcessingElement for ParkedPe {
        fn step(&mut self) {}

        fn input_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
            assert_eq!(index, 0);
            &mut self.input
        }

        fn output_queue_mut(&mut self, index: usize) -> &mut TaggedQueue {
            assert_eq!(index, 0);
            &mut self.output
        }

        fn is_halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_link_moves_one_token_only_when_its_producer_holds_one_and_its_consumer_has_space() {
        let mut sys = System::new(Memory::new(0));
        // A producer holding a token, into a full consumer.
        let blocked_from = sys.add_pe(ParkedPe::holding(0, 1));
        let blocked_to = sys.add_pe(ParkedPe::holding(2, 0));
        // An empty producer, into a free consumer.
        let empty = sys.add_source(StreamSource::new(2, Vec::new()));
        let starved_to = sys.add_pe(ParkedPe::holding(0, 0));
        // A producer holding two tokens, into a free consumer.
        let busy_from = sys.add_pe(ParkedPe::holding(0, 2));
        let busy_to = sys.add_pe(ParkedPe::holding(0, 0));
        let pe_link = |from, to| {
            (
                OutputRef::Pe { pe: from, queue: 0 },
                InputRef::Pe { pe: to, queue: 0 },
            )
        };
        for (from, to) in [
            pe_link(blocked_from, blocked_to),
            (
                OutputRef::Source { source: empty },
                InputRef::Pe {
                    pe: starved_to,
                    queue: 0,
                },
            ),
            pe_link(busy_from, busy_to),
        ] {
            sys.connect(from, to).unwrap();
        }
        let pushes = |sys: &mut System<ParkedPe>| -> u64 {
            (0..sys.num_pes())
                .map(|pe| sys.pe_mut(pe).input_queue_mut(0).stats().pushes)
                .sum()
        };

        // The busy link moves one token per cycle, then every link is
        // idle: the blocked one stays blocked, the starved one starved.
        for moves in [1, 1, 0, 0] {
            let ready = sys.any_link_ready();
            let before = pushes(&mut sys);
            sys.step();
            let moved = pushes(&mut sys) - before;
            assert_eq!(moved, moves, "cycle {}", sys.cycle());
            assert_eq!(ready, moved > 0, "any_link_ready disagrees with step");
        }
        assert_eq!(sys.pe(blocked_from).output.occupancy(), 1);
        assert_eq!(sys.pe(blocked_to).input.occupancy(), 2);
        assert!(sys.pe(starved_to).input.is_empty());
        assert!(sys.pe(busy_from).output.is_empty());
        assert_eq!(
            sys.pe(busy_to)
                .input
                .iter()
                .map(|t| t.data)
                .collect::<Vec<_>>(),
            vec![100, 101]
        );

        // No end of any link ever saw a rejected push.
        for pe in 0..sys.num_pes() {
            let pe = sys.pe_mut(pe);
            assert_eq!(pe.input_queue_mut(0).stats().rejected, 0);
            assert_eq!(pe.output_queue_mut(0).stats().rejected, 0);
        }
        assert_eq!(sys.sources[empty].out.stats().rejected, 0);
    }

    #[test]
    fn fast_forwarded_run_matches_the_stepped_run_exactly() {
        // The memory round-trip pipeline, fast-forwarded vs stepped.
        let build = || {
            let mut sys: System<CopyPe> = System::new(Memory::from_words(vec![7, 8, 9]));
            let rp = sys.add_read_port(ReadPort::new(2, 6));
            let addrs: Vec<Token> = (0..3).map(Token::data).collect();
            let src = sys.add_source(StreamSource::new(2, addrs));
            let sink = sys.add_sink(StreamSink::new(2));
            sys.connect(
                OutputRef::Source { source: src },
                InputRef::ReadAddr { port: rp },
            )
            .unwrap();
            sys.connect(OutputRef::ReadData { port: rp }, InputRef::Sink { sink })
                .unwrap();
            sys
        };
        let mut fast = build();
        fast.set_fast_forward(true);
        let mut slow = build();
        slow.set_fast_forward(false);
        let reason_fast = fast.run_until(|s| s.sink(0).collected().len() == 3, 1_000);
        let reason_slow = slow.run_until(|s| s.sink(0).collected().len() == 3, 1_000);
        assert_eq!(reason_fast, reason_slow);
        assert_eq!(fast.cycle(), slow.cycle());
        assert_eq!(fast.sink(0).words(), slow.sink(0).words());
    }
}
