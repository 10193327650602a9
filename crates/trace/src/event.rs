//! The typed event taxonomy: everything a simulator can say about one
//! cycle.

use serde::{Deserialize, Serialize};

/// Why a PE failed to issue on a given cycle.
///
/// These mirror the cycle-attribution classes of the CPI-stack
/// methodology (paper §3.3 / Fig. 5): every non-issuing cycle is
/// charged to exactly one cause, so stacks always sum to total cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallClass {
    /// A trigger depended on a predicate still being computed
    /// (resolved by predicate prediction in `+P` configurations).
    PredicateHazard,
    /// A triggered instruction was blocked by the register-operand
    /// interlock: on a split-ALU pipeline, it reads a register that
    /// the instruction issued the cycle before has not yet written.
    DataHazard,
    /// A triggered instruction was forbidden from issuing by the
    /// speculation restrictions (§5.2: pre-retirement side effects or
    /// nested predictions).
    Forbidden,
    /// No instruction's trigger condition held. This includes cycles
    /// blocked by conservative queue status (an input with a pending
    /// dequeue looks empty, an output with an in-flight enqueue looks
    /// full), which effective queue status in `+Q` configurations
    /// shrinks (Fig. 5).
    NotTriggered,
}

impl StallClass {
    /// Short stable name used for track labels and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::PredicateHazard => "pred_hazard",
            StallClass::DataHazard => "data_hazard",
            StallClass::Forbidden => "forbidden",
            StallClass::NotTriggered => "not_triggered",
        }
    }
}

/// Direction of a queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueDir {
    Enqueue,
    Dequeue,
}

/// What happened. One variant per observable micro-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// An instruction entered execution. `depth` is the speculation
    /// depth at issue (number of in-flight instructions including this
    /// one); 1 means non-speculative.
    Issue { slot: u16, depth: u16 },
    /// An instruction left the pipeline with its side effects
    /// committed.
    Retire { slot: u16 },
    /// Speculatively-issued instructions were discarded after a
    /// misprediction; `count` is how many issue slots were wasted.
    Quash { count: u16 },
    /// The pipeline dropped all in-flight state (`depth` instructions)
    /// and restarted trigger resolution.
    Flush { depth: u16 },
    /// No instruction issued this cycle, attributed to one cause.
    Stall { class: StallClass },
    /// A predicate prediction resolved. `slot` is the instruction whose
    /// issue depended on the prediction.
    PredictorOutcome { slot: u16, correct: bool },
    /// A token moved through a queue endpoint; `occupancy` is the
    /// queue's fill level *after* the operation.
    QueueOp {
        queue: u16,
        dir: QueueDir,
        occupancy: u16,
    },
}

/// One timestamped, PE-tagged event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Which PE (or fabric endpoint) emitted the event.
    pub pe: u16,
    /// Simulation cycle at emission.
    pub cycle: u64,
    pub kind: EventKind,
}

impl TraceEvent {
    pub fn new(pe: u16, cycle: u64, kind: EventKind) -> Self {
        TraceEvent { pe, cycle, kind }
    }

    /// Whether this event marks a non-issuing cycle.
    pub fn is_stall(&self) -> bool {
        matches!(self.kind, EventKind::Stall { .. })
    }

    /// Whether this event marks an instruction issue.
    pub fn is_issue(&self) -> bool {
        matches!(self.kind, EventKind::Issue { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_external_tags() {
        let event = TraceEvent::new(
            3,
            17,
            EventKind::Stall {
                class: StallClass::DataHazard,
            },
        );
        let json = serde_json::to_string(&event).expect("serialize");
        assert!(json.contains("\"pe\":3"));
        assert!(json.contains("\"cycle\":17"));
        assert!(json.contains("\"Stall\""));
        assert!(json.contains("\"DataHazard\""));
    }

    #[test]
    fn stall_class_names_are_stable() {
        assert_eq!(StallClass::PredicateHazard.name(), "pred_hazard");
        assert_eq!(StallClass::DataHazard.name(), "data_hazard");
        assert_eq!(StallClass::Forbidden.name(), "forbidden");
        assert_eq!(StallClass::NotTriggered.name(), "not_triggered");
    }

    #[test]
    fn predicates_classify_events() {
        let issue = TraceEvent::new(0, 0, EventKind::Issue { slot: 2, depth: 1 });
        assert!(issue.is_issue());
        assert!(!issue.is_stall());
        let stall = TraceEvent::new(
            0,
            1,
            EventKind::Stall {
                class: StallClass::NotTriggered,
            },
        );
        assert!(stall.is_stall());
    }
}
