//! Tagged register queues — the communication primitive of the fabric.
//!
//! "Each trigger-controlled PE is connected to neighboring PEs by a set
//! of incoming and outgoing tagged data queues over an interconnect
//! fabric. Tags encode programmable semantic information that
//! accompanies the data communicated over these queues" (§2.1).

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};
use tia_isa::{Tag, Word};

/// One tagged data word travelling through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    /// The semantic tag.
    pub tag: Tag,
    /// The data word.
    pub data: Word,
}

impl Token {
    /// Creates a token.
    pub fn new(tag: Tag, data: Word) -> Self {
        Token { tag, data }
    }

    /// A token carrying `data` with [`Tag::ZERO`], the conventional
    /// plain-data tag.
    pub fn data(data: Word) -> Self {
        Token {
            tag: Tag::ZERO,
            data,
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:#x}", self.tag, self.data)
    }
}

/// A bounded FIFO of [`Token`]s: one register queue of the spatial
/// fabric.
///
/// Beyond plain FIFO operations the queue exposes what the paper's
/// microarchitecture needs: occupancy for effective-status accounting
/// (§5.3) and indexed peeking at the "head" *and* "neck", since with a
/// dequeue in flight "the first N tags on the input queue must be
/// exposed, which for our pipelines is just the head and neck".
///
/// # Examples
///
/// ```
/// use tia_fabric::{TaggedQueue, Token};
///
/// let mut q = TaggedQueue::new(2);
/// assert!(q.push(Token::data(7)));
/// assert!(q.push(Token::data(8)));
/// assert!(!q.push(Token::data(9))); // full
/// assert_eq!(q.peek_at(1).unwrap().data, 8); // the "neck"
/// assert_eq!(q.pop().unwrap().data, 7);
/// ```
#[derive(Debug, Clone)]
pub struct TaggedQueue {
    tokens: VecDeque<Token>,
    capacity: usize,
    stats: QueueStats,
    version: u64,
}

/// Lifetime traffic statistics for one queue. Cheap enough to keep
/// always-on; the trace/metrics layer reads them at end of run.
///
/// The accounting invariant the metrics layer relies on is
/// `pushes - pops - cleared == occupancy` at every point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct QueueStats {
    /// Tokens accepted by [`TaggedQueue::push`].
    pub pushes: u64,
    /// Tokens removed by [`TaggedQueue::pop`].
    pub pops: u64,
    /// Pushes rejected because the queue was full.
    pub rejected: u64,
    /// Tokens discarded by [`TaggedQueue::clear`] (flushes), so that
    /// cleared tokens don't silently break the occupancy invariant.
    pub cleared: u64,
    /// Highest occupancy ever reached.
    pub high_water: usize,
}

/// Serializable snapshot of one queue: contents, capacity, lifetime
/// stats and the modification counter. Produced by
/// [`TaggedQueue::snapshot`] and consumed by [`TaggedQueue::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueState {
    /// Queued tokens, head first.
    pub tokens: Vec<Token>,
    /// Configured capacity.
    pub capacity: usize,
    /// Lifetime traffic statistics.
    pub stats: QueueStats,
    /// Modification counter (see [`TaggedQueue::version`]).
    pub version: u64,
}

/// Equality compares contents and capacity only — two queues that
/// arrived at the same state through different traffic histories are
/// equal, which is what the architectural-equivalence tests compare.
impl PartialEq for TaggedQueue {
    fn eq(&self, other: &Self) -> bool {
        self.tokens == other.tokens && self.capacity == other.capacity
    }
}

impl Eq for TaggedQueue {}

impl TaggedQueue {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a zero-capacity queue can never
    /// carry data.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TaggedQueue {
            tokens: VecDeque::with_capacity(capacity),
            capacity,
            stats: QueueStats::default(),
            version: 0,
        }
    }

    /// Lifetime traffic statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The cycle-stack profiler's fabric-free view of this queue's
    /// pressure: current fill, lifetime traffic, and backpressure
    /// evidence (see [`tia_trace::ChannelPressure`]).
    pub fn pressure(&self) -> tia_trace::ChannelPressure {
        tia_trace::ChannelPressure {
            occupancy: self.occupancy(),
            capacity: self.capacity(),
            pushes: self.stats.pushes,
            pops: self.stats.pops,
            rejected: self.stats.rejected,
            high_water: self.stats.high_water,
        }
    }

    /// A monotonically increasing modification counter, bumped by
    /// every successful [`TaggedQueue::push`], [`TaggedQueue::pop`]
    /// and [`TaggedQueue::clear`]. Schedulers use it to detect that a
    /// queue's contents changed between cycles (e.g. a fabric push
    /// landing between two trigger evaluations) without re-reading the
    /// contents.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in tokens.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the queue holds no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether the queue is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.tokens.len() == self.capacity
    }

    /// The head token, if any.
    #[inline]
    pub fn peek(&self) -> Option<Token> {
        self.tokens.front().copied()
    }

    /// The token at depth `n` (0 = head, 1 = neck, ...), if present.
    #[inline]
    pub fn peek_at(&self, n: usize) -> Option<Token> {
        self.tokens.get(n).copied()
    }

    /// Enqueues a token; returns whether it was accepted (false when
    /// full).
    #[inline]
    #[must_use = "a rejected push means the queue was full"]
    pub fn push(&mut self, token: Token) -> bool {
        if self.is_full() {
            self.stats.rejected += 1;
            false
        } else {
            self.tokens.push_back(token);
            self.stats.pushes += 1;
            self.stats.high_water = self.stats.high_water.max(self.tokens.len());
            self.version += 1;
            true
        }
    }

    /// Dequeues the head token.
    #[inline]
    pub fn pop(&mut self) -> Option<Token> {
        let token = self.tokens.pop_front();
        if token.is_some() {
            self.stats.pops += 1;
            self.version += 1;
        }
        token
    }

    /// Removes every token, accounting them as flushed in
    /// [`QueueStats::cleared`] so the `pushes - pops - cleared ==
    /// occupancy` invariant survives the flush.
    pub fn clear(&mut self) {
        if !self.tokens.is_empty() {
            self.stats.cleared += self.tokens.len() as u64;
            self.version += 1;
        }
        self.tokens.clear();
    }

    /// Iterates over queued tokens from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter()
    }

    /// Captures the complete queue state (contents, stats, version).
    pub fn snapshot(&self) -> QueueState {
        QueueState {
            tokens: self.tokens.iter().copied().collect(),
            capacity: self.capacity,
            stats: self.stats,
            version: self.version,
        }
    }

    /// Restores a snapshot taken from a queue of the same capacity.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's capacity differs from this queue's
    /// (snapshots restore state, never topology) or the snapshot holds
    /// more tokens than fit.
    pub fn restore(&mut self, state: &QueueState) -> Result<(), RestoreError> {
        if state.capacity != self.capacity {
            return Err(RestoreError::shape(
                "queue capacity",
                self.capacity,
                state.capacity,
            ));
        }
        if state.tokens.len() > state.capacity {
            return Err(RestoreError::invalid("queue holds more tokens than fit"));
        }
        self.tokens = state.tokens.iter().copied().collect();
        self.stats = state.stats;
        self.version = state.version;
        Ok(())
    }
}

/// Why a snapshot could not be restored into a live component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's shape (a capacity, count, or length) does not
    /// match the component it is being restored into.
    Shape {
        /// What mismatched.
        what: &'static str,
        /// The live component's value.
        expected: usize,
        /// The snapshot's value.
        found: usize,
    },
    /// The snapshot is internally inconsistent.
    Invalid {
        /// What is wrong.
        what: &'static str,
    },
    /// The serialized value did not parse as the expected state type.
    Parse {
        /// The deserializer's message.
        message: String,
    },
}

impl RestoreError {
    /// Shape mismatch between snapshot and live component.
    pub fn shape(what: &'static str, expected: usize, found: usize) -> Self {
        RestoreError::Shape {
            what,
            expected,
            found,
        }
    }

    /// Internally inconsistent snapshot.
    pub fn invalid(what: &'static str) -> Self {
        RestoreError::Invalid { what }
    }
}

impl From<serde::DeError> for RestoreError {
    fn from(err: serde::DeError) -> Self {
        RestoreError::Parse {
            message: err.to_string(),
        }
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Shape {
                what,
                expected,
                found,
            } => write!(
                f,
                "snapshot shape mismatch: {what} is {found} in the snapshot \
                 but {expected} in the target"
            ),
            RestoreError::Invalid { what } => write!(f, "invalid snapshot: {what}"),
            RestoreError::Parse { message } => write!(f, "snapshot does not parse: {message}"),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_isa::{Params, Tag};

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = TaggedQueue::new(4);
        for i in 0..4 {
            assert!(q.push(Token::data(i)));
        }
        for i in 0..4 {
            assert_eq!(q.pop().unwrap().data, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_to_full_queue_is_rejected_without_loss() {
        let mut q = TaggedQueue::new(1);
        assert!(q.push(Token::data(1)));
        assert!(!q.push(Token::data(2)));
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.peek().unwrap().data, 1);
    }

    #[test]
    fn head_and_neck_peeking() {
        let params = Params::default();
        let mut q = TaggedQueue::new(3);
        assert!(q.push(Token::new(Tag::new(1, &params).unwrap(), 10)));
        assert!(q.push(Token::new(Tag::new(2, &params).unwrap(), 20)));
        assert_eq!(q.peek_at(0).unwrap().tag.value(), 1);
        assert_eq!(q.peek_at(1).unwrap().tag.value(), 2);
        assert_eq!(q.peek_at(2), None);
    }

    #[test]
    fn occupancy_tracks_operations() {
        let mut q = TaggedQueue::new(2);
        assert_eq!(q.occupancy(), 0);
        assert!(q.is_empty());
        let _ = q.push(Token::data(1));
        assert_eq!(q.occupancy(), 1);
        assert!(!q.is_empty() && !q.is_full());
        let _ = q.push(Token::data(2));
        assert!(q.is_full());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TaggedQueue::new(0);
    }

    #[test]
    fn stats_track_traffic_and_high_water() {
        let mut q = TaggedQueue::new(2);
        assert!(q.push(Token::data(1)));
        assert!(q.push(Token::data(2)));
        assert!(!q.push(Token::data(3)));
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        let stats = q.stats();
        assert_eq!(stats.pushes, 2);
        assert_eq!(stats.pops, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.high_water, 2);
    }

    #[test]
    fn cleared_tokens_are_accounted() {
        let invariant = |q: &TaggedQueue| {
            let s = q.stats();
            assert_eq!(
                s.pushes - s.pops - s.cleared,
                q.occupancy() as u64,
                "pushes - pops - cleared must equal occupancy"
            );
        };
        let mut q = TaggedQueue::new(4);
        invariant(&q);
        for i in 0..3 {
            assert!(q.push(Token::data(i)));
            invariant(&q);
        }
        assert!(q.pop().is_some());
        invariant(&q);
        q.clear();
        invariant(&q);
        assert_eq!(q.stats().cleared, 2);
        // Clearing an empty queue flushes nothing.
        q.clear();
        invariant(&q);
        assert_eq!(q.stats().cleared, 2);
        // The queue stays usable after a flush.
        assert!(q.push(Token::data(9)));
        invariant(&q);
        assert!(q.pop().is_some());
        q.clear();
        invariant(&q);
        assert_eq!(q.stats().cleared, 2);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut q = TaggedQueue::new(3);
        assert!(q.push(Token::data(1)));
        assert!(q.push(Token::data(2)));
        assert!(q.pop().is_some());
        q.clear();
        assert!(q.push(Token::data(7)));

        let state = q.snapshot();
        let json = serde_json::to_string(&state.to_value()).expect("serializes");
        let parsed = serde_json::from_str(&json).expect("parses");
        let state2 = QueueState::from_value(&parsed).expect("deserializes");
        assert_eq!(state, state2);

        let mut fresh = TaggedQueue::new(3);
        fresh.restore(&state2).expect("restores");
        assert_eq!(fresh.snapshot(), state);
        assert_eq!(fresh.peek().unwrap().data, 7);
        assert_eq!(fresh.version(), q.version());
        assert_eq!(fresh.stats(), q.stats());
    }

    #[test]
    fn restore_rejects_capacity_mismatch() {
        let q = TaggedQueue::new(3);
        let state = q.snapshot();
        let mut other = TaggedQueue::new(2);
        assert!(matches!(
            other.restore(&state),
            Err(RestoreError::Shape { .. })
        ));
    }

    #[test]
    fn equality_ignores_traffic_history() {
        let mut a = TaggedQueue::new(2);
        let b = TaggedQueue::new(2);
        assert!(a.push(Token::data(1)));
        let _ = a.pop();
        assert_eq!(a, b, "same contents, different histories");
    }
}
