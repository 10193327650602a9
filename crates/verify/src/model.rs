//! The abstract fabric model: state layout and the conservative
//! transition relation.
//!
//! One abstract state is the product of every PE's predicate file and
//! halt latch, the tag contents of every channel-endpoint queue, and
//! the occupancy of every memory-port buffer. One abstract transition
//! is one whole [`tia_fabric::System`] cycle in the concrete phase
//! order: PEs fire, links transfer, memory ports act. Data words are
//! abstracted away entirely — trigger eligibility depends only on
//! predicates, queue occupancy, head tags and output capacity, all of
//! which the abstraction tracks exactly — so the only nondeterminism
//! is (a) a datapath predicate destination, whose written bit forks
//! both ways, (b) environment sources, which may inject any
//! protocol-respecting tag or stay silent, and (c) read-port response
//! timing, which covers every load latency ≥ 1.

use tia_fabric::{InputRef, Link, OutputRef};
use tia_isa::{DstOperand, Op, Params, PredState, Program, Tag};
use tia_jit::CompiledProgram;
use tia_lint::{ReachAnalysis, MAX_EXHAUSTIVE_PREDS};

use crate::VerifyOptions;

/// Hard cap on the nondeterministic branching of a single abstract
/// step; exceeding it aborts exploration as inconclusive rather than
/// enumerating an astronomic choice product.
pub(crate) const MAX_BRANCH: usize = 4096;

/// Where a link's producer endpoint lives in the abstract state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcSlot {
    /// A tracked FIFO (PE output queue or read-port response queue).
    Queue(usize),
    /// A stream source: an unbounded, nondeterministic producer.
    Source,
}

/// Where a link's consumer endpoint lives in the abstract state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstSlot {
    /// A tracked FIFO (PE input queue or read-port address queue).
    Queue(usize),
    /// A tag-blind occupancy counter (write-port operand queues).
    Counter(usize),
    /// A stream sink: drains completely every cycle, never blocks.
    Sink,
}

/// One fabric channel, resolved to abstract state slots.
#[derive(Debug)]
pub(crate) struct LinkModel {
    pub src: SrcSlot,
    pub dst: DstSlot,
    /// For source links: the tags the environment may inject, already
    /// normalized for the destination's tag sensitivity. Empty means
    /// the consumer accepts nothing, so a protocol-respecting
    /// environment stays silent forever.
    pub alphabet: Vec<u8>,
}

/// What kind of queue a state FIFO models (used for diagnostics and
/// counterexample claims).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueKind {
    PeIn { pe: usize, queue: usize },
    PeOut { pe: usize, queue: usize },
    PortAddr { port: usize },
    PortPending { port: usize },
    PortResp { port: usize },
}

/// One tracked FIFO of the abstract state.
#[derive(Debug)]
pub(crate) struct QueueModel {
    pub kind: QueueKind,
    pub cap: usize,
    /// Whether stored tags are ever inspected downstream. Insensitive
    /// queues store tag 0 for every token, collapsing states that
    /// differ only in unobservable tags.
    pub tag_sensitive: bool,
    /// Whether any link drains this queue (undrained PE outputs fill
    /// up and wedge their producer — the channel-overflow check).
    pub drained: bool,
    /// Byte offset of the queue's length field in a packed state; its
    /// tags (tag-sensitive queues only) follow the length.
    pub at: usize,
}

/// The abstract effect of firing one instruction slot.
#[derive(Debug, Default)]
pub(crate) struct SlotEffect {
    /// Enqueue: destination FIFO and the (normalized) out-tag.
    pub out: Option<(usize, u8)>,
    /// FIFOs popped at execution.
    pub deq: Vec<usize>,
    /// Datapath predicate destination: the written bit is
    /// data-dependent, so the successor forks on its value.
    pub dst_pred: Option<usize>,
    /// Trigger-encoded predicate update.
    pub set_mask: u32,
    pub clear_mask: u32,
    /// Whether the op is `halt`.
    pub halt: bool,
}

/// One PE: compiled guards (successor generation) plus slot effects.
pub(crate) struct PeModel {
    pub compiled: CompiledProgram,
    pub effects: Vec<SlotEffect>,
    /// Local input queue index → state FIFO id.
    pub in_qid: Vec<Option<usize>>,
    /// Local output queue index → state FIFO id.
    pub out_qid: Vec<Option<usize>>,
    /// Per-slot may-fire verdict from per-PE predicate reachability
    /// (`tia-lint`); unreachable slots are excluded from the static
    /// tag-hazard scan.
    pub slot_may_fire: Vec<bool>,
}

/// A read port: three FIFOs (requests, in-flight loads, responses).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadPortModel {
    pub addr: usize,
    pub pending: usize,
    pub resp: usize,
}

/// The complete abstract model of one fabric.
pub(crate) struct Model {
    pub params: Params,
    pub pes: Vec<PeModel>,
    pub queues: Vec<QueueModel>,
    /// Occupancy-counter capacities (write-port operand queues).
    pub counter_caps: Vec<usize>,
    pub links: Vec<LinkModel>,
    pub read_ports: Vec<ReadPortModel>,
    /// Write ports: (addr counter, data counter).
    pub write_ports: Vec<(usize, usize)>,
    /// Sequential write ports: data counter.
    pub seq_ports: Vec<usize>,
    /// Where each field lives in a packed state.
    pub layout: Layout,
}

/// The byte layout of a packed abstract state. Every state is one
/// fixed-stride record: each PE's predicate file (`pred_bytes`,
/// little-endian), the halt latches as a bitset, then per queue its
/// length (`count_bytes`) followed, for tag-sensitive queues only, by
/// `cap` head-first tag bytes that are zero past the length, and last
/// the occupancy counters (`count_bytes` each). Field widths follow
/// `Params`, so the record is canonical and every reachable value is
/// representable: equal records are equal states.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Bytes per packed state.
    pub stride: usize,
    /// Bytes per predicate file: 1, or 2 above 8 predicates.
    pred_bytes: usize,
    /// Offset of the halt-latch bitset.
    halt_at: usize,
    /// Bytes per queue length and counter: 1, or 2 above a queue
    /// capacity of 255.
    count_bytes: usize,
    /// Offset of the first occupancy counter.
    counter_at: usize,
}

/// Reads a 1- or 2-byte little-endian field.
fn load(state: &[u8], at: usize, width: usize) -> usize {
    if width == 1 {
        usize::from(state[at])
    } else {
        usize::from(u16::from_le_bytes([state[at], state[at + 1]]))
    }
}

/// Writes a 1- or 2-byte little-endian field.
fn store(state: &mut [u8], at: usize, width: usize, value: usize) {
    debug_assert!(
        value >> (8 * width) == 0,
        "{value} overflows a {width}-byte field"
    );
    if width == 1 {
        state[at] = value as u8;
    } else {
        state[at..at + 2].copy_from_slice(&(value as u16).to_le_bytes());
    }
}

/// The resolved nondeterminism of one abstract step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Choice {
    /// Per forking PE: the value written to its datapath predicate.
    pub forks: Vec<(usize, bool)>,
    /// Per acting source link: the injected tag.
    pub injections: Vec<(usize, u8)>,
    /// Per read port: how many in-flight loads retire this cycle.
    pub retires: Vec<(usize, usize)>,
}

/// Buffers [`Model::successors`] reuses from one expansion to the
/// next, so that once they have grown, expanding a state allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The slot each PE fires from the state last expanded.
    pub fired: Vec<Option<usize>>,
    /// The state after the choice-independent PE and link phases.
    base: Vec<u8>,
    /// The successor under construction.
    next: Vec<u8>,
    choice: Choice,
    /// Fork dimensions: `(pe, predicate bit mask)`.
    forks: Vec<(usize, u32)>,
    /// Injection dimensions: source link ids.
    sources: Vec<usize>,
    /// Retirement dimensions: `(port, max retirements)`.
    retires: Vec<(usize, usize)>,
    /// The mixed-radix choice counter.
    indices: Vec<usize>,
}

impl Model {
    /// Builds the model, or explains why the fabric is out of the
    /// checker's reach (e.g. a predicate file too wide to enumerate).
    pub fn build(
        programs: &[Program],
        params: &Params,
        links: &[Link],
        options: &VerifyOptions,
    ) -> Result<Model, String> {
        if params.num_preds > MAX_EXHAUSTIVE_PREDS {
            return Err(format!(
                "predicate file of {} bits exceeds the exhaustive-search limit of {}",
                params.num_preds, MAX_EXHAUSTIVE_PREDS
            ));
        }
        // The cap is checked after each full expansion, which adds at
        // most `MAX_BRANCH` states; ids are `u32` with `u32::MAX` free.
        let max_ids = u32::MAX as usize - MAX_BRANCH;
        if options.max_states > max_ids {
            return Err(format!(
                "state bound of {} exceeds the {max_ids} states the explorer can number",
                options.max_states
            ));
        }
        let num_pes = programs.len();
        let cap = params.queue_capacity;
        if cap > usize::from(u16::MAX) {
            return Err(format!(
                "queue capacity {cap} exceeds the checker's 16-bit occupancy fields"
            ));
        }

        // Which PE queues need state: referenced by the program, the
        // endpoint of a channel, or holding a seed token.
        let mut in_used = vec![vec![false; params.num_input_queues]; num_pes];
        let mut out_used = vec![vec![false; params.num_output_queues]; num_pes];
        for (pe, program) in programs.iter().enumerate() {
            for i in program.instructions().iter().filter(|i| i.valid) {
                for c in &i.trigger.queue_checks {
                    in_used[pe][c.queue.index()] = true;
                }
                for q in i.input_operands() {
                    in_used[pe][q.index()] = true;
                }
                for q in &i.dequeues {
                    in_used[pe][q.index()] = true;
                }
                if let Some(o) = i.enqueues() {
                    out_used[pe][o.index()] = true;
                }
            }
        }
        let mut num_read_ports = 0usize;
        let mut num_write_ports = 0usize;
        let mut num_seq_ports = 0usize;
        for (li, link) in links.iter().enumerate() {
            // The transition relation moves each link independently,
            // which holds only while no two links share an endpoint
            // (as `System::connect` enforces).
            if links[..li]
                .iter()
                .any(|l| l.from == link.from || l.to == link.to)
            {
                return Err(format!(
                    "link {li} ({:?} -> {:?}) shares an endpoint with an earlier link",
                    link.from, link.to
                ));
            }
            match link.from {
                OutputRef::Pe { pe, queue } => {
                    if pe >= num_pes || queue >= params.num_output_queues {
                        return Err(format!("link producer {:?} is out of range", link.from));
                    }
                    out_used[pe][queue] = true;
                }
                OutputRef::ReadData { port } => num_read_ports = num_read_ports.max(port + 1),
                OutputRef::Source { .. } => {}
            }
            match link.to {
                InputRef::Pe { pe, queue } => {
                    if pe >= num_pes || queue >= params.num_input_queues {
                        return Err(format!("link consumer {:?} is out of range", link.to));
                    }
                    in_used[pe][queue] = true;
                }
                InputRef::ReadAddr { port } => num_read_ports = num_read_ports.max(port + 1),
                InputRef::WriteAddr { port } | InputRef::WriteData { port } => {
                    num_write_ports = num_write_ports.max(port + 1)
                }
                InputRef::SeqWriteData { port } => num_seq_ports = num_seq_ports.max(port + 1),
                InputRef::Sink { .. } => {}
            }
        }
        for seed in &options.seed_tokens {
            if seed.pe >= num_pes || seed.queue >= params.num_input_queues {
                return Err(format!(
                    "seed token targets pe{} %i{}, which does not exist",
                    seed.pe, seed.queue
                ));
            }
            in_used[seed.pe][seed.queue] = true;
        }

        // Lay out the state FIFOs.
        let mut queues: Vec<QueueModel> = Vec::new();
        let mut in_qid = vec![vec![None; params.num_input_queues]; num_pes];
        let mut out_qid = vec![vec![None; params.num_output_queues]; num_pes];
        for pe in 0..num_pes {
            for q in 0..params.num_input_queues {
                if in_used[pe][q] {
                    in_qid[pe][q] = Some(queues.len());
                    queues.push(QueueModel {
                        kind: QueueKind::PeIn { pe, queue: q },
                        cap,
                        tag_sensitive: false,
                        drained: true,
                        at: 0,
                    });
                }
            }
            for q in 0..params.num_output_queues {
                if out_used[pe][q] {
                    out_qid[pe][q] = Some(queues.len());
                    queues.push(QueueModel {
                        kind: QueueKind::PeOut { pe, queue: q },
                        cap,
                        tag_sensitive: false,
                        drained: false,
                        at: 0,
                    });
                }
            }
        }
        let mut read_ports = Vec::new();
        for port in 0..num_read_ports {
            let addr = queues.len();
            queues.push(QueueModel {
                kind: QueueKind::PortAddr { port },
                cap,
                tag_sensitive: false,
                drained: true,
                at: 0,
            });
            let pending = queues.len();
            queues.push(QueueModel {
                kind: QueueKind::PortPending { port },
                cap,
                tag_sensitive: false,
                drained: true,
                at: 0,
            });
            let resp = queues.len();
            queues.push(QueueModel {
                kind: QueueKind::PortResp { port },
                cap,
                tag_sensitive: false,
                drained: false,
                at: 0,
            });
            read_ports.push(ReadPortModel {
                addr,
                pending,
                resp,
            });
        }
        let mut counter_caps = Vec::new();
        let mut write_ports = Vec::new();
        for _ in 0..num_write_ports {
            let addr = counter_caps.len();
            counter_caps.push(cap);
            let data = counter_caps.len();
            counter_caps.push(cap);
            write_ports.push((addr, data));
        }
        let mut seq_ports = Vec::new();
        for _ in 0..num_seq_ports {
            seq_ports.push(counter_caps.len());
            counter_caps.push(cap);
        }

        // Tag sensitivity: a PE input queue is sensitive when its
        // consumer tag-checks it; producer-side queues inherit the
        // sensitivity of whatever their tokens flow into (tags thread
        // through read ports but never through PEs, whose out-tags are
        // per-instruction constants).
        for (pe, program) in programs.iter().enumerate() {
            for i in program.instructions().iter().filter(|i| i.valid) {
                for c in &i.trigger.queue_checks {
                    let qid = in_qid[pe][c.queue.index()].expect("checked queue is tracked");
                    queues[qid].tag_sensitive = true;
                }
            }
        }
        // Resolve link endpoints, then propagate sensitivity backward
        // along the token flow until it stabilizes (chains are at most
        // PE out → port addr → in-flight → port resp → PE in).
        let resolve_src = |r: OutputRef| -> SrcSlot {
            match r {
                OutputRef::Pe { pe, queue } => SrcSlot::Queue(out_qid[pe][queue].expect("tracked")),
                OutputRef::ReadData { port } => SrcSlot::Queue(read_ports[port].resp),
                OutputRef::Source { .. } => SrcSlot::Source,
            }
        };
        let resolve_dst = |r: InputRef| -> DstSlot {
            match r {
                InputRef::Pe { pe, queue } => DstSlot::Queue(in_qid[pe][queue].expect("tracked")),
                InputRef::ReadAddr { port } => DstSlot::Queue(read_ports[port].addr),
                InputRef::WriteAddr { port } => DstSlot::Counter(write_ports[port].0),
                InputRef::WriteData { port } => DstSlot::Counter(write_ports[port].1),
                InputRef::SeqWriteData { port } => DstSlot::Counter(seq_ports[port]),
                InputRef::Sink { .. } => DstSlot::Sink,
            }
        };
        let resolved: Vec<(SrcSlot, DstSlot)> = links
            .iter()
            .map(|l| (resolve_src(l.from), resolve_dst(l.to)))
            .collect();
        loop {
            let mut changed = false;
            for &(src, dst) in &resolved {
                if let (SrcSlot::Queue(sq), DstSlot::Queue(dq)) = (src, dst) {
                    if queues[dq].tag_sensitive && !queues[sq].tag_sensitive {
                        queues[sq].tag_sensitive = true;
                        changed = true;
                    }
                }
            }
            for port in &read_ports {
                if queues[port.resp].tag_sensitive && !queues[port.pending].tag_sensitive {
                    queues[port.pending].tag_sensitive = true;
                    changed = true;
                }
                if queues[port.pending].tag_sensitive && !queues[port.addr].tag_sensitive {
                    queues[port.addr].tag_sensitive = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &(src, _) in &resolved {
            if let SrcSlot::Queue(sq) = src {
                queues[sq].drained = true;
            }
        }

        // Accepted-tag sets: what a protocol-respecting environment may
        // inject toward each destination. For a PE input queue this is
        // the union of tags some trigger referencing the queue lets
        // through; for a read-port request queue the response tag is
        // threaded, so the set belongs to the response's consumer.
        let accepted_for_pe_in = |pe: usize, queue: usize| -> Vec<u8> {
            let mut accepted = vec![false; params.num_tags() as usize];
            for i in programs[pe].instructions().iter().filter(|i| i.valid) {
                let references = i
                    .trigger
                    .queue_checks
                    .iter()
                    .any(|c| c.queue.index() == queue)
                    || i.input_operands().any(|q| q.index() == queue)
                    || i.dequeues.iter().any(|q| q.index() == queue);
                if !references {
                    continue;
                }
                match i
                    .trigger
                    .queue_checks
                    .iter()
                    .find(|c| c.queue.index() == queue)
                {
                    Some(c) => {
                        for (t, slot) in accepted.iter_mut().enumerate() {
                            if (t as u32 == c.tag.value()) != c.negate {
                                *slot = true;
                            }
                        }
                    }
                    None => accepted.iter_mut().for_each(|t| *t = true),
                }
            }
            accepted
                .iter()
                .enumerate()
                .filter_map(|(t, &ok)| ok.then_some(t as u8))
                .collect()
        };
        let alphabet_for = |dst: DstSlot| -> Vec<u8> {
            let target = match dst {
                DstSlot::Queue(dq) => match queues[dq].kind {
                    QueueKind::PeIn { pe, queue } => Some((dq, accepted_for_pe_in(pe, queue))),
                    QueueKind::PortAddr { port } => {
                        // Thread through the port to the response consumer.
                        let resp = read_ports[port].resp;
                        let consumer = resolved.iter().find_map(|&(src, dst)| match (src, dst) {
                            (SrcSlot::Queue(sq), DstSlot::Queue(d)) if sq == resp => {
                                match queues[d].kind {
                                    QueueKind::PeIn { pe, queue } => Some((pe, queue)),
                                    _ => None,
                                }
                            }
                            _ => None,
                        });
                        match consumer {
                            Some((pe, queue)) => Some((dq, accepted_for_pe_in(pe, queue))),
                            None => Some((dq, vec![0])),
                        }
                    }
                    _ => Some((dq, vec![0])),
                },
                DstSlot::Counter(_) => return vec![0],
                DstSlot::Sink => return Vec::new(),
            };
            match target {
                Some((dq, set)) => {
                    if queues[dq].tag_sensitive {
                        set
                    } else if set.is_empty() {
                        Vec::new()
                    } else {
                        vec![0]
                    }
                }
                None => vec![0],
            }
        };
        let link_models: Vec<LinkModel> = resolved
            .iter()
            .map(|&(src, dst)| LinkModel {
                src,
                dst,
                alphabet: if src == SrcSlot::Source {
                    alphabet_for(dst)
                } else {
                    Vec::new()
                },
            })
            .collect();

        // Per-PE slot effects + compiled guards + per-PE reachability.
        let mut pes = Vec::with_capacity(num_pes);
        for (pe, program) in programs.iter().enumerate() {
            let reach = ReachAnalysis::explore(program, params);
            let slot_may_fire: Vec<bool> = (0..program.len())
                .map(|slot| {
                    if reach.analyzed {
                        !reach.fire_states[slot].is_empty()
                    } else {
                        true
                    }
                })
                .collect();
            let effects: Vec<SlotEffect> = program
                .instructions()
                .iter()
                .map(|i| {
                    if !i.valid {
                        return SlotEffect::default();
                    }
                    let out = i.enqueues().map(|o| {
                        let qid = out_qid[pe][o.index()].expect("tracked");
                        let tag = if queues[qid].tag_sensitive {
                            i.out_tag.value() as u8
                        } else {
                            0
                        };
                        (qid, tag)
                    });
                    SlotEffect {
                        out,
                        deq: i
                            .dequeues
                            .iter()
                            .map(|q| in_qid[pe][q.index()].expect("tracked"))
                            .collect(),
                        dst_pred: match i.dst {
                            DstOperand::Pred(p) => Some(p.index()),
                            _ => None,
                        },
                        set_mask: i.pred_update.set_mask(),
                        clear_mask: i.pred_update.clear_mask(),
                        halt: matches!(i.op, Op::Halt),
                    }
                })
                .collect();
            pes.push(PeModel {
                compiled: CompiledProgram::compile(program, params),
                effects,
                in_qid: in_qid[pe].clone(),
                out_qid: out_qid[pe].clone(),
                slot_may_fire,
            });
        }

        // Pack the state: predicates, halt bits, queues, counters.
        let pred_bytes = if params.num_preds > 8 { 2 } else { 1 };
        let count_bytes = if cap > usize::from(u8::MAX) { 2 } else { 1 };
        let halt_at = num_pes * pred_bytes;
        let mut at = halt_at + num_pes.div_ceil(8);
        for queue in &mut queues {
            queue.at = at;
            at += count_bytes + if queue.tag_sensitive { queue.cap } else { 0 };
        }
        let layout = Layout {
            // At least one byte, so that every state has an address.
            stride: (at + counter_caps.len() * count_bytes).max(1),
            pred_bytes,
            halt_at,
            count_bytes,
            counter_at: at,
        };

        Ok(Model {
            params: params.clone(),
            pes,
            queues,
            counter_caps,
            links: link_models,
            read_ports,
            write_ports,
            seq_ports,
            layout,
        })
    }

    /// The initial abstract state: reset predicates, empty queues plus
    /// any seed tokens.
    pub fn initial(&self, options: &VerifyOptions) -> Result<Vec<u8>, String> {
        let mut state = vec![0; self.layout.stride];
        for seed in &options.seed_tokens {
            let qid = self.pes[seed.pe].in_qid[seed.queue].expect("seed queue is tracked");
            if self.queue_len(&state, qid) >= self.queues[qid].cap {
                return Err(format!(
                    "seed tokens overflow pe{} %i{} (capacity {})",
                    seed.pe, seed.queue, self.queues[qid].cap
                ));
            }
            self.push(&mut state, qid, seed.tag.value() as u8);
        }
        Ok(state)
    }

    /// PE `pe`'s predicate bits in `state`.
    pub fn preds(&self, state: &[u8], pe: usize) -> u32 {
        let width = self.layout.pred_bytes;
        load(state, pe * width, width) as u32
    }

    fn set_preds(&self, state: &mut [u8], pe: usize, bits: u32) {
        let width = self.layout.pred_bytes;
        store(state, pe * width, width, bits as usize);
    }

    /// Whether PE `pe` has halted in `state`.
    pub fn halted(&self, state: &[u8], pe: usize) -> bool {
        state[self.layout.halt_at + pe / 8] >> (pe % 8) & 1 != 0
    }

    fn set_halted(&self, state: &mut [u8], pe: usize) {
        state[self.layout.halt_at + pe / 8] |= 1 << (pe % 8);
    }

    /// Occupancy of queue `qid` in `state`.
    pub fn queue_len(&self, state: &[u8], qid: usize) -> usize {
        load(state, self.queues[qid].at, self.layout.count_bytes)
    }

    /// The head-first tags of queue `qid` in `state`; empty for a
    /// tag-insensitive queue, whose tags are all 0.
    pub fn queue_tags<'s>(&self, state: &'s [u8], qid: usize) -> &'s [u8] {
        if !self.queues[qid].tag_sensitive {
            return &[];
        }
        let at = self.queues[qid].at + self.layout.count_bytes;
        &state[at..at + self.queue_len(state, qid)]
    }

    /// The head tag of a non-empty queue.
    fn head(&self, state: &[u8], qid: usize) -> u8 {
        self.queue_tags(state, qid).first().copied().unwrap_or(0)
    }

    /// Enqueues `tag` (dropped for a tag-insensitive queue).
    fn push(&self, state: &mut [u8], qid: usize, tag: u8) {
        let queue = &self.queues[qid];
        let width = self.layout.count_bytes;
        let len = load(state, queue.at, width);
        debug_assert!(len < queue.cap, "push into a full queue");
        if queue.tag_sensitive {
            state[queue.at + width + len] = tag;
        }
        store(state, queue.at, width, len + 1);
    }

    /// Dequeues the head of a non-empty queue and returns its tag.
    fn pop(&self, state: &mut [u8], qid: usize) -> u8 {
        let queue = &self.queues[qid];
        let width = self.layout.count_bytes;
        let len = load(state, queue.at, width);
        debug_assert!(len > 0, "pop from an empty queue");
        store(state, queue.at, width, len - 1);
        if !queue.tag_sensitive {
            return 0;
        }
        let tags = &mut state[queue.at + width..queue.at + width + len];
        let head = tags[0];
        tags.copy_within(1.., 0);
        tags[len - 1] = 0;
        head
    }

    fn counter(&self, state: &[u8], c: usize) -> usize {
        let width = self.layout.count_bytes;
        load(state, self.layout.counter_at + c * width, width)
    }

    fn set_counter(&self, state: &mut [u8], c: usize, value: usize) {
        let width = self.layout.count_bytes;
        store(state, self.layout.counter_at + c * width, width, value);
    }

    /// Total buffered tokens (the watchdog's `queued_tokens` analog).
    pub fn tokens(&self, state: &[u8]) -> usize {
        (0..self.queues.len())
            .map(|qid| self.queue_len(state, qid))
            .chain((0..self.counter_caps.len()).map(|c| self.counter(state, c)))
            .sum()
    }

    /// Whether `dst` can take a token (a sink always can).
    fn has_space(&self, state: &[u8], dst: DstSlot) -> bool {
        match dst {
            DstSlot::Queue(dq) => self.queue_len(state, dq) < self.queues[dq].cap,
            DstSlot::Counter(c) => self.counter(state, c) < self.counter_caps[c],
            DstSlot::Sink => true,
        }
    }

    /// Delivers one token into `dst`.
    fn deliver(&self, state: &mut [u8], dst: DstSlot, tag: u8) {
        match dst {
            DstSlot::Queue(dq) => self.push(state, dq, tag),
            DstSlot::Counter(c) => {
                let count = self.counter(state, c);
                self.set_counter(state, c, count + 1);
            }
            DstSlot::Sink => {}
        }
    }

    /// Whether the environment may inject on `link` in `state`.
    fn can_inject(&self, state: &[u8], link: &LinkModel) -> bool {
        link.src == SrcSlot::Source
            && !link.alphabet.is_empty()
            && link.dst != DstSlot::Sink
            && self.has_space(state, link.dst)
    }

    /// Writes the slot each PE fires from `state` (its first eligible
    /// slot in program order) into `fired`, mirroring
    /// `FuncPe::triggered_slot` exactly.
    pub fn fired_slots(&self, state: &[u8], fired: &mut Vec<Option<usize>>) {
        fired.clear();
        fired.extend((0..self.pes.len()).map(|pe| {
            if self.halted(state, pe) {
                return None;
            }
            let model = &self.pes[pe];
            let bits = self.preds(state, pe);
            match model.compiled.candidates(PredState::from_bits(bits)) {
                Some(candidates) => candidates
                    .iter()
                    .map(|&s| s as usize)
                    .find(|&s| self.queue_ready(pe, s, state)),
                None => (0..model.compiled.slots().len()).find(|&s| {
                    let c = model.compiled.slot(s);
                    c.valid && c.pred_matches(bits) && self.queue_ready(pe, s, state)
                }),
            }
        }));
    }

    /// The queue-side guards of one slot against an abstract state
    /// (mirrors `FuncPe::eligible` minus the predicate pattern).
    fn queue_ready(&self, pe: usize, slot: usize, state: &[u8]) -> bool {
        let model = &self.pes[pe];
        let c = model.compiled.slot(slot);
        for check in &c.checks {
            let qid = model.in_qid[check.queue as usize].expect("checked queue is tracked");
            if self.queue_len(state, qid) == 0
                || (u32::from(self.head(state, qid)) == check.tag.value()) == check.negate
            {
                return false;
            }
        }
        let mut need = c.need_mask;
        while need != 0 {
            let q = need.trailing_zeros() as usize;
            need &= need - 1;
            let qid = model.in_qid[q].expect("read queue is tracked");
            if self.queue_len(state, qid) == 0 {
                return false;
            }
        }
        if let Some(q) = c.out_queue {
            let qid = model.out_qid[q as usize].expect("written queue is tracked");
            if self.queue_len(state, qid) >= self.queues[qid].cap {
                return false;
            }
        }
        true
    }

    /// Calls `visit` with every successor of `state` and the choice
    /// that produced it, in a fixed order: a mixed-radix count over the
    /// forks, then the injections, then the retirements, the first
    /// fork varying fastest. Returns whether `state` is stuck (it then
    /// has no successors); either way `scratch.fired` holds the slot
    /// each PE fires from it. Errors, before visiting anything, when
    /// the choice product exceeds [`MAX_BRANCH`].
    ///
    /// One abstract cycle runs the PE, link and port phases in order.
    /// Only the forked predicate bits, the injections and the port
    /// phase depend on the choice, so the PE and link phases run once
    /// per state. Injections go before the port phase because an
    /// injected read address can launch in the same cycle.
    pub fn successors(
        &self,
        state: &[u8],
        scratch: &mut Scratch,
        mut visit: impl FnMut(&[u8], &Choice),
    ) -> Result<bool, String> {
        let Scratch {
            fired,
            base,
            next,
            choice,
            forks,
            sources,
            retires,
            indices,
        } = scratch;
        self.fired_slots(state, fired);
        if self.is_stuck(state, fired) {
            return Ok(true);
        }

        // Phase 1: PEs fire (each touches only its own queues). The bit
        // a datapath predicate destination writes is left clear here
        // and set per choice.
        base.clear();
        base.extend_from_slice(state);
        forks.clear();
        let pred_mask = self.params.pred_mask();
        for (pe, slot) in fired.iter().enumerate() {
            let Some(slot) = *slot else { continue };
            let eff = &self.pes[pe].effects[slot];
            for &q in &eff.deq {
                self.pop(base, q);
            }
            if let Some((q, tag)) = eff.out {
                self.push(base, q, tag);
            }
            let mut bits = (self.preds(base, pe) & !eff.clear_mask) | eff.set_mask;
            if let Some(p) = eff.dst_pred {
                bits &= !(1 << p);
                forks.push((pe, (1 << p) & pred_mask));
            }
            self.set_preds(base, pe, bits & pred_mask);
            if eff.halt {
                self.set_halted(base, pe);
            }
        }
        // Phase 2: links transfer one token each. No two links share
        // an endpoint, so their order is immaterial and the queue-fed
        // ones can move before the per-choice injections.
        for link in &self.links {
            let SrcSlot::Queue(sq) = link.src else {
                continue;
            };
            if self.queue_len(base, sq) > 0 && self.has_space(base, link.dst) {
                let tag = self.pop(base, sq);
                self.deliver(base, link.dst, tag);
            }
        }

        // Injection dimensions: destination space after the PE phase,
        // the only phase that can free it (no queue-fed link reaches a
        // source's destination).
        sources.clear();
        sources.extend((0..self.links.len()).filter(|&li| self.can_inject(base, &self.links[li])));
        // Retirement dimensions: the loads in flight before the port
        // phase (no earlier phase touches them), bounded by the
        // response space the link phase left.
        retires.clear();
        for (pi, port) in self.read_ports.iter().enumerate() {
            let pending = self.queue_len(state, port.pending);
            let resp_space = self.queues[port.resp].cap - self.queue_len(base, port.resp);
            let max_retire = pending.min(resp_space);
            if max_retire > 0 {
                retires.push((pi, max_retire));
            }
        }

        // Choice product.
        let radix = |pos: usize| {
            if pos < forks.len() {
                2
            } else if pos < forks.len() + sources.len() {
                self.links[sources[pos - forks.len()]].alphabet.len() + 1
            } else {
                retires[pos - forks.len() - sources.len()].1 + 1
            }
        };
        let dims = forks.len() + sources.len() + retires.len();
        let branch = (0..dims).fold(1usize, |b, pos| b.saturating_mul(radix(pos)));
        if branch > MAX_BRANCH {
            return Err(format!(
                "abstract branching of {branch} exceeds the {MAX_BRANCH} cap"
            ));
        }

        indices.clear();
        indices.resize(dims, 0);
        loop {
            next.clear();
            next.extend_from_slice(base);
            choice.forks.clear();
            choice.injections.clear();
            choice.retires.clear();
            let mut dim = 0;
            for &(pe, bit) in forks.iter() {
                let value = indices[dim] == 1;
                dim += 1;
                choice.forks.push((pe, value));
                if value {
                    let bits = self.preds(next, pe) | bit;
                    self.set_preds(next, pe, bits);
                }
            }
            for &li in sources.iter() {
                let idx = indices[dim];
                dim += 1;
                if idx > 0 {
                    let link = &self.links[li];
                    let tag = link.alphabet[idx - 1];
                    choice.injections.push((li, tag));
                    self.deliver(next, link.dst, tag);
                }
            }
            for &(pi, _) in retires.iter() {
                let k = indices[dim];
                dim += 1;
                if k > 0 {
                    choice.retires.push((pi, k));
                }
            }
            self.port_phase(next, &choice.retires);
            visit(next, choice);

            // Advance the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == dims {
                    return Ok(false);
                }
                indices[pos] += 1;
                if indices[pos] < radix(pos) {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Phase 3: read ports retire the chosen number of in-flight loads
    /// (covering every latency), then launch one request; write ports
    /// commit deterministically.
    fn port_phase(&self, state: &mut [u8], retires: &[(usize, usize)]) {
        for (pi, port) in self.read_ports.iter().enumerate() {
            let k = retires
                .iter()
                .find(|&&(p, _)| p == pi)
                .map_or(0, |&(_, k)| k);
            for _ in 0..k {
                let tag = self.pop(state, port.pending);
                self.push(state, port.resp, tag);
            }
            if self.queue_len(state, port.addr) > 0
                && self.queue_len(state, port.pending) < self.queues[port.pending].cap
            {
                let tag = self.pop(state, port.addr);
                self.push(state, port.pending, tag);
            }
        }
        for &(a, d) in &self.write_ports {
            let (addrs, data) = (self.counter(state, a), self.counter(state, d));
            if addrs > 0 && data > 0 {
                self.set_counter(state, a, addrs - 1);
                self.set_counter(state, d, data - 1);
            }
        }
        for &d in &self.seq_ports {
            let data = self.counter(state, d);
            if data > 0 {
                self.set_counter(state, d, data - 1);
            }
        }
    }

    /// Whether `state` is frozen forever: nothing can fire, move,
    /// retire or be injected. Matches the runtime watchdog's notion of
    /// a hang (modulo its finite observation window).
    fn is_stuck(&self, state: &[u8], fired: &[Option<usize>]) -> bool {
        if fired.iter().any(Option::is_some) {
            return false;
        }
        if (0..self.pes.len()).all(|pe| self.halted(state, pe)) {
            // Every PE halted is the success fixed point, not a hang.
            return false;
        }
        for link in &self.links {
            let movable = match link.src {
                SrcSlot::Queue(sq) => {
                    self.queue_len(state, sq) > 0 && self.has_space(state, link.dst)
                }
                SrcSlot::Source => self.can_inject(state, link),
            };
            if movable {
                return false;
            }
        }
        for port in &self.read_ports {
            let pending = self.queue_len(state, port.pending);
            if pending > 0 && self.queue_len(state, port.resp) < self.queues[port.resp].cap {
                return false;
            }
            if self.queue_len(state, port.addr) > 0 && pending < self.queues[port.pending].cap {
                return false;
            }
        }
        for &(a, d) in &self.write_ports {
            if self.counter(state, a) > 0 && self.counter(state, d) > 0 {
                return false;
            }
        }
        for &d in &self.seq_ports {
            if self.counter(state, d) > 0 {
                return false;
            }
        }
        true
    }

    /// Emitted-tag / accepted-tag mismatches per PE-consumed channel:
    /// the static cross-PE tag-protocol hazard scan. Returns
    /// `(link index, consumer pe, consumer queue, bad tags)`.
    pub fn tag_hazards(&self, programs: &[Program]) -> Vec<(usize, usize, usize, Vec<u8>)> {
        let mut out = Vec::new();
        for (li, link) in self.links.iter().enumerate() {
            let (SrcSlot::Queue(sq), DstSlot::Queue(dq)) = (link.src, link.dst) else {
                continue;
            };
            let QueueKind::PeIn { pe, queue } = self.queues[dq].kind else {
                continue;
            };
            if !self.queues[dq].tag_sensitive {
                continue;
            }
            // Trace the producer chain: direct PE output, or a read
            // port threading request tags from its own producer.
            let emitted = match self.queues[sq].kind {
                QueueKind::PeOut {
                    pe: src_pe,
                    queue: src_q,
                } => self.emitted_tags(programs, src_pe, src_q),
                QueueKind::PortResp { port } => {
                    let addr = self.read_ports[port].addr;
                    let feeder = self.links.iter().find(|l| l.dst == DstSlot::Queue(addr));
                    match feeder.map(|l| l.src) {
                        Some(SrcSlot::Queue(fq)) => match self.queues[fq].kind {
                            QueueKind::PeOut {
                                pe: src_pe,
                                queue: src_q,
                            } => self.emitted_tags(programs, src_pe, src_q),
                            _ => continue,
                        },
                        // Environment-fed requests are covered by the
                        // protocol assumption.
                        _ => continue,
                    }
                }
                _ => continue,
            };
            let accepted: Vec<u8> = {
                let mut acc = vec![false; self.params.num_tags() as usize];
                for i in programs[pe].instructions().iter().filter(|i| i.valid) {
                    let references = i
                        .trigger
                        .queue_checks
                        .iter()
                        .any(|c| c.queue.index() == queue)
                        || i.input_operands().any(|q| q.index() == queue)
                        || i.dequeues.iter().any(|q| q.index() == queue);
                    if !references {
                        continue;
                    }
                    match i
                        .trigger
                        .queue_checks
                        .iter()
                        .find(|c| c.queue.index() == queue)
                    {
                        Some(c) => {
                            for (t, slot) in acc.iter_mut().enumerate() {
                                if (t as u32 == c.tag.value()) != c.negate {
                                    *slot = true;
                                }
                            }
                        }
                        None => acc.iter_mut().for_each(|t| *t = true),
                    }
                }
                acc.iter()
                    .enumerate()
                    .filter_map(|(t, &ok)| ok.then_some(t as u8))
                    .collect()
            };
            let bad: Vec<u8> = emitted
                .into_iter()
                .filter(|t| !accepted.contains(t))
                .collect();
            if !bad.is_empty() {
                out.push((li, pe, queue, bad));
            }
        }
        out
    }

    /// Out-tags a PE can actually put on one of its output queues,
    /// restricted to slots its per-PE predicate reachability says may
    /// fire.
    fn emitted_tags(&self, programs: &[Program], pe: usize, queue: usize) -> Vec<u8> {
        let mut tags: Vec<u8> = programs[pe]
            .instructions()
            .iter()
            .enumerate()
            .filter(|(slot, i)| {
                i.valid
                    && i.enqueues().map(|o| o.index()) == Some(queue)
                    && self.pes[pe].slot_may_fire[*slot]
            })
            .map(|(_, i)| i.out_tag.value() as u8)
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
}

/// A seed token placed in a PE input queue before exploration and
/// before any concrete replay (data words are immaterial to control,
/// so only the tag is recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedToken {
    /// Target PE.
    pub pe: usize,
    /// Target input queue.
    pub queue: usize,
    /// The seed's tag.
    pub tag: Tag,
}
