//! Host stream endpoints: sources that inject token streams into the
//! array and sinks that collect results.
//!
//! These stand in for the paper's userspace library, which "is
//! responsible for performing all data I/O and setting up data buffers
//! for program execution" (§2.3). A [`StreamSource`] plays the role of
//! a preloaded input buffer; a [`StreamSink`] the role of an output
//! buffer read back by the host.

use serde::{Deserialize, Serialize};

use crate::queue::{QueueState, RestoreError, TaggedQueue, Token};

/// Injects a fixed token sequence into the fabric, one token per cycle
/// as space allows.
#[derive(Debug, Clone)]
pub struct StreamSource {
    /// Outgoing tokens (a channel endpoint).
    pub out: TaggedQueue,
    pending: Vec<Token>,
    next: usize,
}

impl StreamSource {
    /// Creates a source that will emit `tokens` in order.
    pub fn new(queue_capacity: usize, tokens: Vec<Token>) -> Self {
        StreamSource {
            out: TaggedQueue::new(queue_capacity),
            pending: tokens,
            next: 0,
        }
    }

    /// Advances one cycle, staging at most one token.
    #[inline]
    pub fn step(&mut self) {
        if self.next < self.pending.len() && !self.out.is_full() {
            let accepted = self.out.push(self.pending[self.next]);
            debug_assert!(accepted);
            self.next += 1;
        }
    }

    /// Whether every token has been handed to the fabric.
    pub fn is_drained(&self) -> bool {
        self.next == self.pending.len() && self.out.is_empty()
    }

    /// Tokens not yet staged into the output queue.
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.next
    }

    /// Captures the source's progress through its token sequence.
    ///
    /// The pending tokens themselves are workload input data — the
    /// host reconstructs them on resume — so the snapshot records only
    /// the cursor and the sequence length (as a consistency check).
    pub fn snapshot(&self) -> StreamSourceState {
        StreamSourceState {
            out: self.out.snapshot(),
            pending_len: self.pending.len(),
            next: self.next,
        }
    }

    /// Restores a snapshot taken from a source fed the same token
    /// sequence.
    ///
    /// # Errors
    ///
    /// Fails when the queue capacity or sequence length differ, or the
    /// cursor lies beyond the sequence.
    pub fn restore(&mut self, state: &StreamSourceState) -> Result<(), RestoreError> {
        if state.pending_len != self.pending.len() {
            return Err(RestoreError::shape(
                "stream-source length",
                self.pending.len(),
                state.pending_len,
            ));
        }
        if state.next > state.pending_len {
            return Err(RestoreError::invalid("stream cursor beyond sequence end"));
        }
        self.out.restore(&state.out)?;
        self.next = state.next;
        Ok(())
    }
}

/// Serializable snapshot of a [`StreamSource`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSourceState {
    /// Output queue state.
    pub out: QueueState,
    /// Length of the pending token sequence (consistency check).
    pub pending_len: usize,
    /// Index of the next token to stage.
    pub next: usize,
}

/// Collects every token arriving on its input endpoint.
#[derive(Debug, Clone)]
pub struct StreamSink {
    /// Incoming tokens (a channel endpoint). Drained into
    /// [`StreamSink::collected`] every cycle, so it never exerts
    /// backpressure.
    pub input: TaggedQueue,
    collected: Vec<Token>,
}

impl StreamSink {
    /// Creates a sink with the given endpoint capacity.
    pub fn new(queue_capacity: usize) -> Self {
        StreamSink {
            input: TaggedQueue::new(queue_capacity),
            collected: Vec::new(),
        }
    }

    /// Advances one cycle, draining the endpoint completely.
    #[inline]
    pub fn step(&mut self) {
        while let Some(t) = self.input.pop() {
            self.collected.push(t);
        }
    }

    /// Every token received so far, in arrival order.
    pub fn collected(&self) -> &[Token] {
        &self.collected
    }

    /// The received data words, discarding tags.
    pub fn words(&self) -> Vec<u32> {
        self.collected.iter().map(|t| t.data).collect()
    }

    /// Captures the complete sink state, including every token
    /// collected so far.
    pub fn snapshot(&self) -> StreamSinkState {
        StreamSinkState {
            input: self.input.snapshot(),
            collected: self.collected.clone(),
        }
    }

    /// Restores a snapshot taken from a sink of the same shape.
    ///
    /// # Errors
    ///
    /// Fails when the queue capacity differs.
    pub fn restore(&mut self, state: &StreamSinkState) -> Result<(), RestoreError> {
        self.input.restore(&state.input)?;
        self.collected = state.collected.clone();
        Ok(())
    }
}

/// Serializable snapshot of a [`StreamSink`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSinkState {
    /// Input queue state.
    pub input: QueueState,
    /// Tokens collected so far, in arrival order.
    pub collected: Vec<Token>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_emits_in_order_with_backpressure() {
        let tokens: Vec<Token> = (0..5).map(Token::data).collect();
        let mut src = StreamSource::new(2, tokens);
        src.step();
        src.step();
        assert!(src.out.is_full());
        src.step(); // no space: nothing staged, nothing lost
        assert_eq!(src.remaining(), 3);
        assert_eq!(src.out.pop().unwrap().data, 0);
        src.step();
        assert_eq!(src.out.pop().unwrap().data, 1);
        assert_eq!(src.out.pop().unwrap().data, 2);
    }

    #[test]
    fn source_drains_exactly_once() {
        let mut src = StreamSource::new(4, vec![Token::data(1)]);
        assert!(!src.is_drained());
        src.step();
        assert!(!src.is_drained()); // still buffered in `out`
        let _ = src.out.pop();
        assert!(src.is_drained());
        src.step();
        assert!(src.out.is_empty(), "drained source emits nothing more");
    }

    #[test]
    fn sink_collects_everything() {
        let mut sink = StreamSink::new(2);
        assert!(sink.input.push(Token::data(7)));
        assert!(sink.input.push(Token::data(8)));
        sink.step();
        assert!(sink.input.push(Token::data(9)));
        sink.step();
        assert_eq!(sink.words(), vec![7, 8, 9]);
    }
}
