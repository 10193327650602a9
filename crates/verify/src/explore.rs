//! Breadth-first exhaustive exploration of the abstract state graph,
//! plus the backward liveness pass and counterexample-trace
//! reconstruction.
//!
//! Exploration allocates nothing per transition. Every state is stored
//! once, as a packed record (see [`crate::model::Layout`]) in one
//! arena; an open-addressing table of state ids deduplicates
//! successors by hashing their bytes in place; and each state keeps
//! only its BFS parent and the ordinal of the choice that led to it.
//! What a counterexample needs beyond that — the slots fired and the
//! choice made on each edge — is rebuilt by re-expanding the parents
//! along its path.

use crate::model::{Choice, Model, Scratch};

/// How one state was first reached.
#[derive(Debug, Clone, Copy)]
struct StateRec {
    /// BFS parent (`u32::MAX` for the initial state).
    parent: u32,
    /// The ordinal of the choice that led here in the parent's
    /// successor enumeration (below [`crate::model::MAX_BRANCH`]).
    ordinal: u16,
}

const _: () = assert!(crate::model::MAX_BRANCH <= u16::MAX as usize);

/// The finished exploration.
pub(crate) struct Exploration {
    /// Bytes per packed state.
    stride: usize,
    /// Every distinct state, `stride` bytes each, in BFS order.
    arena: Vec<u8>,
    records: Vec<StateRec>,
    /// Forward edges in CSR form: state `id`'s successors are
    /// `edge_to[edge_start[id]..edge_start[id + 1]]` (one entry per
    /// transition, duplicates included). Covers the expanded states.
    edge_start: Vec<usize>,
    edge_to: Vec<u32>,
    /// Total transitions generated (with duplicates).
    pub transitions: usize,
    /// The whole reachable space fits under the state bound.
    pub exhaustive: bool,
    /// Why exploration stopped early, when it did.
    pub note: Option<String>,
    /// First stuck state with buffered tokens, if any.
    pub first_deadlock: Option<usize>,
    /// First stuck state with zero tokens, if any.
    pub first_quiescent: Option<usize>,
    /// First state where an undrained queue hit capacity:
    /// `(state, queue id)`.
    pub first_overflow: Option<(usize, usize)>,
}

/// Runs BFS from `initial` until the frontier drains or, checked after
/// each full expansion, more than `max_states` distinct states exist.
pub(crate) fn explore(model: &Model, initial: &[u8], max_states: usize) -> Exploration {
    let stride = model.layout.stride;
    let mut arena = Vec::new();
    let mut table = StateTable::new();
    table.intern(&mut arena, stride, initial);
    let mut records = vec![StateRec {
        parent: u32::MAX,
        ordinal: 0,
    }];
    let mut edge_start = vec![0];
    let mut edge_to: Vec<u32> = Vec::new();
    let mut transitions = 0usize;
    let mut exhaustive = true;
    let mut note = None;
    let mut first_deadlock = None;
    let mut first_quiescent = None;
    let mut first_overflow = None;

    let mut scratch = Scratch::default();
    let mut state = vec![0; stride];
    let mut cursor = 0usize;
    while cursor < records.len() {
        // Copied out: expanding appends to the arena.
        state.copy_from_slice(&arena[cursor * stride..][..stride]);
        if first_overflow.is_none() {
            first_overflow = model
                .queues
                .iter()
                .enumerate()
                .find(|(qid, queue)| !queue.drained && model.queue_len(&state, *qid) >= queue.cap)
                .map(|(qid, _)| (cursor, qid));
        }
        let parent = cursor as u32;
        let mut ordinal = 0u16;
        let expanded = model.successors(&state, &mut scratch, |succ, _| {
            transitions += 1;
            let (id, new) = table.intern(&mut arena, stride, succ);
            if new {
                records.push(StateRec { parent, ordinal });
            }
            edge_to.push(id);
            ordinal += 1;
        });
        let stuck = match expanded {
            Ok(stuck) => stuck,
            Err(why) => {
                exhaustive = false;
                note = Some(why);
                break;
            }
        };
        if stuck {
            if model.tokens(&state) > 0 {
                if first_deadlock.is_none() {
                    first_deadlock = Some(cursor);
                }
            } else if first_quiescent.is_none() {
                first_quiescent = Some(cursor);
            }
        }
        edge_start.push(edge_to.len());
        cursor += 1;
        if records.len() > max_states {
            exhaustive = false;
            note = Some(format!(
                "state bound of {max_states} exceeded; verdicts are bounded, not proofs"
            ));
            break;
        }
    }
    // States enqueued but never expanded (early stop) have no edges;
    // exhaustiveness is already false then.
    if cursor < records.len() && exhaustive {
        exhaustive = false;
        if note.is_none() {
            note = Some("exploration stopped before the frontier drained".into());
        }
    }

    Exploration {
        stride,
        arena,
        records,
        edge_start,
        edge_to,
        transitions,
        exhaustive,
        note,
        first_deadlock,
        first_quiescent,
        first_overflow,
    }
}

impl Exploration {
    /// Number of distinct states found.
    pub fn states(&self) -> usize {
        self.records.len()
    }

    /// The packed state `id`.
    pub fn state(&self, id: usize) -> &[u8] {
        &self.arena[id * self.stride..][..self.stride]
    }

    /// Per-PE liveness (AG EF fire): backward reachability from every
    /// state whose outgoing edge fires the PE (or where the PE has
    /// halted — a halted PE is vacuously live). Returns, per PE, the
    /// first reachable state from which the PE can never fire again.
    /// Only meaningful on an exhaustive exploration.
    pub fn starvation_witnesses(&self, model: &Model) -> Vec<Option<usize>> {
        let n = self.states();
        let num_pes = model.pes.len();
        // Reverse adjacency, in CSR form.
        let mut rev_start = vec![0usize; n + 1];
        for &to in &self.edge_to {
            rev_start[to as usize + 1] += 1;
        }
        for id in 0..n {
            rev_start[id + 1] += rev_start[id];
        }
        let mut fill = rev_start.clone();
        let mut rev = vec![0u32; self.edge_to.len()];
        for from in 0..self.edge_start.len() - 1 {
            for &to in &self.edge_to[self.edge_start[from]..self.edge_start[from + 1]] {
                rev[fill[to as usize]] = from as u32;
                fill[to as usize] += 1;
            }
        }
        // Per state and PE: fires from it, or has halted in it.
        let mut live = vec![false; n * num_pes];
        let mut fired = Vec::new();
        for id in 0..n {
            let state = self.state(id);
            model.fired_slots(state, &mut fired);
            for (pe, slot) in fired.iter().enumerate() {
                live[id * num_pes + pe] = slot.is_some() || model.halted(state, pe);
            }
        }
        (0..num_pes)
            .map(|pe| {
                let mut good = vec![false; n];
                let mut work: Vec<usize> = Vec::new();
                for id in 0..n {
                    if live[id * num_pes + pe] {
                        good[id] = true;
                        work.push(id);
                    }
                }
                while let Some(id) = work.pop() {
                    for &p in &rev[rev_start[id]..rev_start[id + 1]] {
                        let p = p as usize;
                        if !good[p] {
                            good[p] = true;
                            work.push(p);
                        }
                    }
                }
                good.iter().position(|&g| !g)
            })
            .collect()
    }

    /// The path of state ids from the initial state to `target`.
    pub fn path_to(&self, target: usize) -> Vec<usize> {
        let mut path = vec![target];
        let mut at = target;
        while self.records[at].parent != u32::MAX {
            at = self.records[at].parent as usize;
            path.push(at);
        }
        path.reverse();
        path
    }

    /// The edge that first reached state `id` (not the initial state):
    /// the slot each PE fired from its parent and the choice made, both
    /// rebuilt by re-expanding the parent.
    pub fn edge_into(&self, model: &Model, id: usize) -> (Vec<Option<usize>>, Choice) {
        let rec = self.records[id];
        let mut scratch = Scratch::default();
        let mut ordinal = 0u16;
        let mut found = None;
        model
            .successors(
                self.state(rec.parent as usize),
                &mut scratch,
                |_, choice| {
                    if ordinal == rec.ordinal {
                        found = Some(choice.clone());
                    }
                    ordinal += 1;
                },
            )
            .expect("an expanded state expands again");
        let choice = found.expect("the recorded choice is re-enumerated");
        (scratch.fired, choice)
    }
}

/// FxHash over 8-byte words: the dedup table's hash of a packed state.
fn hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    let mut h = (&mut chunks).fold(0, |h, word| {
        mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        )
    });
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut word = [0; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// An open-addressing (linear probing) set of state ids whose keys are
/// the states' bytes in the arena, so no key is stored twice.
struct StateTable {
    /// State ids, `EMPTY` for a free slot; the length is a power of
    /// two at least twice the number of ids.
    slots: Vec<u32>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl StateTable {
    fn new() -> StateTable {
        StateTable {
            slots: vec![EMPTY; 1 << 10],
            len: 0,
        }
    }

    /// The slot to start probing at: the hash's top bits.
    fn home(&self, key: &[u8]) -> usize {
        (hash(key) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id of state `key`, appending it to `arena` under the next
    /// id when it is new. Returns the id and whether it was new.
    fn intern(&mut self, arena: &mut Vec<u8>, stride: usize, key: &[u8]) -> (u32, bool) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(arena, stride);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                let id = (arena.len() / stride) as u32;
                arena.extend_from_slice(key);
                self.slots[slot] = id;
                self.len += 1;
                return (id, true);
            }
            if &arena[id as usize * stride..][..stride] == key {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the slot count and re-inserts every id.
    fn grow(&mut self, arena: &[u8], stride: usize) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (id, key) in arena.chunks_exact(stride).enumerate() {
            let mut slot = self.home(key);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_interns_each_state_once_across_growth() {
        let stride = 3;
        let mut arena = Vec::new();
        let mut table = StateTable::new();
        let key = |i: u32| [i as u8, (i >> 8) as u8, (i >> 16) as u8];
        for i in 0..5_000u32 {
            assert_eq!(table.intern(&mut arena, stride, &key(i)), (i, true));
        }
        for i in (0..5_000u32).rev() {
            assert_eq!(table.intern(&mut arena, stride, &key(i)), (i, false));
        }
        assert_eq!(arena.len(), 5_000 * stride);
        assert!(table.slots.len() >= 2 * table.len);
    }
}
