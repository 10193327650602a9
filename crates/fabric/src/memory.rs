//! The on-chip data memory and its channel-endpoint access ports.
//!
//! "Operations involving main memory are currently carried out
//! explicitly via the queues using read and write ports as endpoints
//! for designated channels" (§2.2, citing the distributed memory
//! operations of prior work). The paper's test system supplies all data
//! "from on-chip memory, which on this system has a load latency of
//! four cycles" (§3); [`DEFAULT_LOAD_LATENCY`] reproduces that.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use tia_isa::{Tag, Word};

use crate::queue::{QueueState, RestoreError, TaggedQueue, Token};

/// The paper's on-chip memory load latency in cycles (§3).
pub const DEFAULT_LOAD_LATENCY: u32 = 4;

/// A word-addressed shared data memory.
///
/// Addresses are word indices, as the workloads in this repository use
/// word-granular layouts throughout.
///
/// # Examples
///
/// ```
/// use tia_fabric::Memory;
///
/// let mut mem = Memory::new(16);
/// mem.write(3, 0xabcd);
/// assert_eq!(mem.read(3), 0xabcd);
/// assert_eq!(mem.read(99), 0); // out-of-bounds reads return zero
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    words: Vec<Word>,
}

impl Memory {
    /// Creates a zero-filled memory of `words` 32-bit words.
    pub fn new(words: usize) -> Self {
        Memory {
            words: vec![0; words],
        }
    }

    /// Creates a memory initialized from `contents` (and sized to it).
    pub fn from_words(contents: Vec<Word>) -> Self {
        Memory { words: contents }
    }

    /// The memory size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads the word at `addr`; out-of-bounds reads return 0, the
    /// conventional bus behaviour of the prototype.
    pub fn read(&self, addr: Word) -> Word {
        self.words.get(addr as usize).copied().unwrap_or(0)
    }

    /// Writes the word at `addr`; out-of-bounds writes are dropped.
    pub fn write(&mut self, addr: Word, value: Word) {
        if let Some(w) = self.words.get_mut(addr as usize) {
            *w = value;
        }
    }

    /// A view of the backing words.
    pub fn words(&self) -> &[Word] {
        &self.words
    }
}

/// A memory read port: accepts address tokens on its request queue and
/// emits the loaded words on its response queue after a fixed latency.
///
/// The response token carries the tag of the request token, so a PE can
/// thread semantic information (e.g. end-of-stream markers) through
/// memory without extra instructions.
#[derive(Debug, Clone)]
pub struct ReadPort {
    /// Incoming address tokens (a channel endpoint).
    pub addr_in: TaggedQueue,
    /// Outgoing data tokens (a channel endpoint).
    pub data_out: TaggedQueue,
    latency: u32,
    in_flight: VecDeque<(u64, Token)>,
    now: u64,
}

impl ReadPort {
    /// Creates a read port with the given queue capacity and load
    /// latency.
    pub fn new(queue_capacity: usize, latency: u32) -> Self {
        ReadPort {
            addr_in: TaggedQueue::new(queue_capacity),
            data_out: TaggedQueue::new(queue_capacity),
            latency,
            in_flight: VecDeque::new(),
            now: 0,
        }
    }

    /// The configured load latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Advances the port one cycle: retires completed loads into
    /// `data_out` and launches one new request from `addr_in`.
    #[inline]
    pub fn step(&mut self, memory: &Memory) {
        self.now += 1;
        // Retire completed loads, oldest first, while there is space.
        while let Some((ready, token)) = self.in_flight.front().copied() {
            if ready > self.now || self.data_out.is_full() {
                break;
            }
            let accepted = self.data_out.push(token);
            debug_assert!(accepted);
            self.in_flight.pop_front();
        }
        // Launch one new request per cycle, bounding the number in
        // flight so total port buffering stays at the response queue
        // capacity.
        if self.in_flight.len() < self.data_out.capacity() {
            if let Some(req) = self.addr_in.pop() {
                let loaded = Token::new(req.tag, memory.read(req.data));
                self.in_flight
                    .push_back((self.now + self.latency as u64, loaded));
            }
        }
    }

    /// Whether the port has no buffered or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.addr_in.is_empty() && self.data_out.is_empty() && self.in_flight.is_empty()
    }

    /// The earliest cycle at which this port's visible state can
    /// change, given the system cycle counter `now` (which the port's
    /// local clock tracks). `None` means only external input — a new
    /// address token, or space appearing in `data_out` — can make the
    /// port do work.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        debug_assert_eq!(self.now, now, "port clock tracks the system cycle");
        // A buffered request can launch on the next step.
        if !self.addr_in.is_empty() && self.in_flight.len() < self.data_out.capacity() {
            return Some(now);
        }
        // The oldest in-flight load retires in the step where the local
        // clock reaches `ready`, i.e. system cycle `ready - 1`.
        match self.in_flight.front() {
            Some(&(ready, _)) if !self.data_out.is_full() => Some(now.max(ready.saturating_sub(1))),
            _ => None,
        }
    }

    /// Bulk-advances the local clock across `cycles` inert cycles,
    /// exactly as if [`ReadPort::step`] had run that many times with
    /// nothing to retire or launch.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(
            match self.next_event_cycle(self.now) {
                None => true,
                Some(c) => c >= self.now + cycles,
            },
            "skipped cycles must lie strictly before the port's next event"
        );
        self.now += cycles;
    }

    /// Number of loads currently in the latency pipe.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Captures the complete port state: queues, in-flight loads and
    /// the local cycle counter.
    pub fn snapshot(&self) -> ReadPortState {
        ReadPortState {
            addr_in: self.addr_in.snapshot(),
            data_out: self.data_out.snapshot(),
            latency: self.latency,
            in_flight: self
                .in_flight
                .iter()
                .map(|&(ready, token)| InFlightLoad { ready, token })
                .collect(),
            now: self.now,
        }
    }

    /// Restores a snapshot taken from a port of the same shape.
    ///
    /// # Errors
    ///
    /// Fails when queue capacities or the configured latency differ.
    pub fn restore(&mut self, state: &ReadPortState) -> Result<(), RestoreError> {
        if state.latency != self.latency {
            return Err(RestoreError::shape(
                "read-port latency",
                self.latency as usize,
                state.latency as usize,
            ));
        }
        self.addr_in.restore(&state.addr_in)?;
        self.data_out.restore(&state.data_out)?;
        self.in_flight = state.in_flight.iter().map(|l| (l.ready, l.token)).collect();
        self.now = state.now;
        Ok(())
    }
}

/// One load travelling through a [`ReadPort`]'s latency pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InFlightLoad {
    /// Cycle at which the load may retire into `data_out`.
    pub ready: u64,
    /// The loaded token (tag threaded from the request).
    pub token: Token,
}

/// Serializable snapshot of a [`ReadPort`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadPortState {
    /// Request queue state.
    pub addr_in: QueueState,
    /// Response queue state.
    pub data_out: QueueState,
    /// Configured load latency.
    pub latency: u32,
    /// Loads in the latency pipe, oldest first.
    pub in_flight: Vec<InFlightLoad>,
    /// The port's local cycle counter.
    pub now: u64,
}

/// A memory write port: pairs an address token with a data token and
/// commits the store.
///
/// The two operands arrive on separate channel endpoints; a store
/// commits when both are available, consuming one token from each.
#[derive(Debug, Clone)]
pub struct WritePort {
    /// Incoming address tokens.
    pub addr_in: TaggedQueue,
    /// Incoming data tokens.
    pub data_in: TaggedQueue,
    committed: u64,
}

impl WritePort {
    /// Creates a write port with the given queue capacity.
    pub fn new(queue_capacity: usize) -> Self {
        WritePort {
            addr_in: TaggedQueue::new(queue_capacity),
            data_in: TaggedQueue::new(queue_capacity),
            committed: 0,
        }
    }

    /// Advances the port one cycle, committing at most one store.
    #[inline]
    pub fn step(&mut self, memory: &mut Memory) {
        if !self.addr_in.is_empty() && !self.data_in.is_empty() {
            let addr = self.addr_in.pop().expect("checked non-empty");
            let data = self.data_in.pop().expect("checked non-empty");
            memory.write(addr.data, data.data);
            self.committed += 1;
        }
    }

    /// Total stores committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Whether the port has no buffered work.
    pub fn is_idle(&self) -> bool {
        self.addr_in.is_empty() && self.data_in.is_empty()
    }

    /// Captures the complete port state.
    pub fn snapshot(&self) -> WritePortState {
        WritePortState {
            addr_in: self.addr_in.snapshot(),
            data_in: self.data_in.snapshot(),
            committed: self.committed,
        }
    }

    /// Restores a snapshot taken from a port of the same shape.
    ///
    /// # Errors
    ///
    /// Fails when queue capacities differ.
    pub fn restore(&mut self, state: &WritePortState) -> Result<(), RestoreError> {
        self.addr_in.restore(&state.addr_in)?;
        self.data_in.restore(&state.data_in)?;
        self.committed = state.committed;
        Ok(())
    }
}

/// Serializable snapshot of a [`WritePort`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WritePortState {
    /// Address queue state.
    pub addr_in: QueueState,
    /// Data queue state.
    pub data_in: QueueState,
    /// Total stores committed.
    pub committed: u64,
}

/// A sequential (auto-incrementing) write port: consumes data tokens
/// and stores them at consecutive addresses from a configured base.
///
/// This is the streaming-store endpoint of the distributed memory
/// operation scheme the paper builds on (§2.2 cites performing loads
/// and stores "via the queues using read and write ports as endpoints
/// for designated channels"); it lets a producer PE store an ordered
/// result stream without spending instructions generating addresses.
#[derive(Debug, Clone)]
pub struct SequentialWritePort {
    /// Incoming data tokens.
    pub data_in: TaggedQueue,
    next: Word,
    committed: u64,
}

impl SequentialWritePort {
    /// Creates a sequential write port storing from `base` upward.
    pub fn new(queue_capacity: usize, base: Word) -> Self {
        SequentialWritePort {
            data_in: TaggedQueue::new(queue_capacity),
            next: base,
            committed: 0,
        }
    }

    /// Advances the port one cycle, committing at most one store.
    #[inline]
    pub fn step(&mut self, memory: &mut Memory) {
        if let Some(token) = self.data_in.pop() {
            memory.write(self.next, token.data);
            self.next = self.next.wrapping_add(1);
            self.committed += 1;
        }
    }

    /// Total stores committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The next address to be written.
    pub fn next_addr(&self) -> Word {
        self.next
    }

    /// Whether the port has no buffered work.
    pub fn is_idle(&self) -> bool {
        self.data_in.is_empty()
    }

    /// Captures the complete port state.
    pub fn snapshot(&self) -> SeqWritePortState {
        SeqWritePortState {
            data_in: self.data_in.snapshot(),
            next: self.next,
            committed: self.committed,
        }
    }

    /// Restores a snapshot taken from a port of the same shape.
    ///
    /// # Errors
    ///
    /// Fails when the queue capacity differs.
    pub fn restore(&mut self, state: &SeqWritePortState) -> Result<(), RestoreError> {
        self.data_in.restore(&state.data_in)?;
        self.next = state.next;
        self.committed = state.committed;
        Ok(())
    }
}

/// Serializable snapshot of a [`SequentialWritePort`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqWritePortState {
    /// Data queue state.
    pub data_in: QueueState,
    /// The next address to be written.
    pub next: Word,
    /// Total stores committed.
    pub committed: u64,
}

/// Builds an address token (plain-data tag) for a read/write port.
pub fn addr_token(addr: Word) -> Token {
    Token::new(Tag::ZERO, addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_port_honors_latency() {
        let mem = Memory::from_words(vec![10, 20, 30]);
        let mut port = ReadPort::new(4, DEFAULT_LOAD_LATENCY);
        assert!(port.addr_in.push(addr_token(2)));
        // Request accepted on the first step; data appears `latency`
        // cycles later.
        let mut arrival = None;
        for cycle in 1..=10 {
            port.step(&mem);
            if !port.data_out.is_empty() {
                arrival = Some(cycle);
                break;
            }
        }
        assert_eq!(arrival, Some(1 + DEFAULT_LOAD_LATENCY as u64));
        assert_eq!(port.data_out.pop().unwrap().data, 30);
    }

    #[test]
    fn read_port_pipelines_back_to_back_requests() {
        let mem = Memory::from_words((0..16).collect());
        let mut port = ReadPort::new(4, 4);
        let _ = port.addr_in.push(addr_token(1));
        let _ = port.addr_in.push(addr_token(2));
        let mut results = Vec::new();
        for _ in 0..12 {
            port.step(&mem);
            while let Some(t) = port.data_out.pop() {
                results.push(t.data);
            }
        }
        // Fully pipelined: responses in consecutive cycles, in order.
        assert_eq!(results, vec![1, 2]);
        assert!(port.is_idle());
    }

    #[test]
    fn read_port_preserves_request_tags() {
        let params = tia_isa::Params::default();
        let mem = Memory::from_words(vec![5]);
        let mut port = ReadPort::new(2, 1);
        let eos = Tag::new(1, &params).unwrap();
        assert!(port.addr_in.push(Token::new(eos, 0)));
        for _ in 0..4 {
            port.step(&mem);
        }
        let t = port.data_out.pop().unwrap();
        assert_eq!(t.tag, eos);
        assert_eq!(t.data, 5);
    }

    #[test]
    fn read_port_stalls_when_response_queue_full() {
        let mem = Memory::from_words((0..8).collect());
        let mut port = ReadPort::new(2, 1);
        for a in 0..2 {
            assert!(port.addr_in.push(addr_token(a)));
        }
        // Never drain data_out; in-flight + buffered must not exceed
        // the response capacity, and no token may be lost.
        for _ in 0..20 {
            port.step(&mem);
        }
        assert_eq!(port.data_out.occupancy(), 2);
        assert_eq!(port.data_out.pop().unwrap().data, 0);
        assert_eq!(port.data_out.pop().unwrap().data, 1);
    }

    #[test]
    fn write_port_pairs_addr_and_data() {
        let mut mem = Memory::new(8);
        let mut port = WritePort::new(2);
        assert!(port.addr_in.push(addr_token(3)));
        port.step(&mut mem); // data not yet available: no commit
        assert_eq!(port.committed(), 0);
        assert!(port.data_in.push(Token::data(42)));
        port.step(&mut mem);
        assert_eq!(port.committed(), 1);
        assert_eq!(mem.read(3), 42);
        assert!(port.is_idle());
    }

    #[test]
    fn out_of_bounds_accesses_are_harmless() {
        let mut mem = Memory::new(2);
        mem.write(100, 9);
        assert_eq!(mem.read(100), 0);
        assert_eq!(mem.len(), 2);
    }
}
