//! The +P forbidden-instruction rules (§5.2).
//!
//! When the speculative predicate unit is enabled, instructions whose
//! effects cannot be rolled back are *forbidden* from issuing while a
//! prediction is unconfirmed: "instructions which dequeue inputs or
//! write predicates are forbidden" in the speculative window. Dequeues
//! "take effect early during the execution of the associated
//! instruction", so they are never issued speculatively; further
//! predicate writers would nest speculation, which the paper's unit
//! does not support (depth 1) and the §6 extension bounds by a
//! configurable depth.
//!
//! This module is the *single source of truth* for those rules: the
//! cycle-level pipeline (`tia_core::UarchPe`, via
//! `tia_core::spec_rules`) and the static analyzer (`tia-lint`) both
//! call [`forbidden`], so the simulator and the lint can never
//! disagree about which slots stall the predictor.

use crate::instruction::Instruction;

/// Why an instruction is restricted under +P speculation, independent
/// of any particular microarchitecture configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecRestriction {
    /// Freely issuable at any speculation depth: no pre-retirement
    /// side effects, no new prediction required.
    None,
    /// Dequeues an input queue; forbidden whenever *any* speculation
    /// is outstanding (§5.2: dequeues take effect early and cannot be
    /// rolled back).
    Dequeue,
    /// Writes a predicate through the datapath; opens a new
    /// speculation, so it is forbidden once the speculation stack is
    /// at its depth limit (the paper's unit has depth 1 — no nesting).
    PredicateWriter,
    /// Both restrictions apply.
    DequeueAndWriter,
}

impl SpecRestriction {
    /// Whether any restriction applies.
    pub fn is_restricted(self) -> bool {
        self != SpecRestriction::None
    }

    /// Whether the dequeue rule applies.
    pub fn restricts_dequeue(self) -> bool {
        matches!(
            self,
            SpecRestriction::Dequeue | SpecRestriction::DequeueAndWriter
        )
    }

    /// Whether the predicate-writer rule applies.
    pub fn restricts_writer(self) -> bool {
        matches!(
            self,
            SpecRestriction::PredicateWriter | SpecRestriction::DequeueAndWriter
        )
    }

    /// Human-readable summary of the restriction.
    pub fn describe(self) -> &'static str {
        match self {
            SpecRestriction::None => "issuable at any speculation depth",
            SpecRestriction::Dequeue => "dequeues an input queue (forbidden while speculating)",
            SpecRestriction::PredicateWriter => {
                "writes a predicate via the datapath (forbidden at the nesting limit)"
            }
            SpecRestriction::DequeueAndWriter => {
                "dequeues an input queue and writes a predicate via the datapath"
            }
        }
    }
}

/// Statically classifies an instruction against the §5.2 rules.
pub fn restriction(instruction: &Instruction) -> SpecRestriction {
    match (instruction.has_dequeue(), instruction.writes_predicate()) {
        (false, false) => SpecRestriction::None,
        (true, false) => SpecRestriction::Dequeue,
        (false, true) => SpecRestriction::PredicateWriter,
        (true, true) => SpecRestriction::DequeueAndWriter,
    }
}

/// The dynamic forbidden-instruction predicate the trigger stage
/// evaluates each cycle.
///
/// `outstanding` is the number of unconfirmed speculations (the
/// speculation-stack depth); `speculation_depth` is the configured
/// nesting limit (clamped to at least 1, matching the hardware).
/// `predicate_prediction` is the +P feature bit — without it no
/// speculation ever starts, but the dequeue clause is still written in
/// terms of `outstanding` alone because a non-speculating pipeline
/// always has `outstanding == 0`.
#[inline]
pub fn forbidden(
    instruction: &Instruction,
    predicate_prediction: bool,
    speculation_depth: usize,
    outstanding: usize,
) -> bool {
    dequeue_forbidden(instruction, outstanding)
        || (predicate_prediction
            && instruction.writes_predicate()
            && outstanding >= speculation_depth.max(1))
}

/// The dequeue clause of [`forbidden`], which no nesting limit moves.
fn dequeue_forbidden(instruction: &Instruction, outstanding: usize) -> bool {
    outstanding > 0 && instruction.has_dequeue()
}

/// Whether the nesting limit decides this evaluation of [`forbidden`]:
/// a +P predicate writer that the dequeue clause does not already
/// forbid. Then it is forbidden at every `speculation_depth` up to
/// `outstanding` and allowed at every larger one. Otherwise no limit
/// changes the answer.
#[inline]
pub fn limit_decides(
    instruction: &Instruction,
    predicate_prediction: bool,
    outstanding: usize,
) -> bool {
    predicate_prediction
        && instruction.writes_predicate()
        && !dequeue_forbidden(instruction, outstanding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InputId, PredId};
    use crate::instruction::{DstOperand, QueueCheck, SrcOperand, Trigger};
    use crate::op::Op;
    use crate::params::Params;
    use crate::pred::PredUpdate;

    fn writer(p: &Params) -> Instruction {
        Instruction {
            valid: true,
            op: Op::Eq,
            srcs: [SrcOperand::Imm, SrcOperand::Imm],
            dst: DstOperand::Pred(PredId::new(0, p).unwrap()),
            ..Instruction::default()
        }
    }

    fn dequeuer(p: &Params) -> Instruction {
        Instruction {
            valid: true,
            trigger: Trigger {
                queue_checks: vec![QueueCheck {
                    queue: InputId::new(0, p).unwrap(),
                    tag: crate::ids::Tag::ZERO,
                    negate: false,
                }],
                ..Trigger::default()
            },
            op: Op::Nop,
            dequeues: vec![InputId::new(0, p).unwrap()],
            ..Instruction::default()
        }
    }

    #[test]
    fn classification_matches_the_dynamic_rule() {
        let p = Params::default();
        let safe = Instruction {
            valid: true,
            op: Op::Nop,
            pred_update: PredUpdate::new(1, 0).unwrap(),
            ..Instruction::default()
        };
        assert_eq!(restriction(&safe), SpecRestriction::None);
        assert_eq!(restriction(&writer(&p)), SpecRestriction::PredicateWriter);
        assert_eq!(restriction(&dequeuer(&p)), SpecRestriction::Dequeue);

        // A restriction of None means the dynamic rule never fires,
        // under any configuration or outstanding count.
        for pp in [false, true] {
            for depth in 1..=3 {
                for outstanding in 0..=3 {
                    assert!(!forbidden(&safe, pp, depth, outstanding));
                }
            }
        }
    }

    #[test]
    fn dequeues_forbidden_only_while_speculating() {
        let p = Params::default();
        let i = dequeuer(&p);
        assert!(!forbidden(&i, true, 1, 0));
        assert!(forbidden(&i, true, 1, 1));
        // The clause is feature-independent: outstanding is only ever
        // non-zero with +P on.
        assert!(forbidden(&i, false, 1, 1));
    }

    #[test]
    fn writers_forbidden_at_the_nesting_limit() {
        let p = Params::default();
        let i = writer(&p);
        assert!(!forbidden(&i, true, 1, 0));
        assert!(forbidden(&i, true, 1, 1));
        assert!(!forbidden(&i, true, 2, 1));
        assert!(forbidden(&i, true, 2, 2));
        // Without +P a writer is handled by predicate hazards instead.
        assert!(!forbidden(&i, false, 1, 1));
        // Depth 0 is clamped to the hardware minimum of 1.
        assert!(forbidden(&i, true, 0, 1));
    }

    #[test]
    fn only_a_deciding_limit_changes_the_rule() {
        let p = Params::default();
        let both = Instruction {
            dequeues: dequeuer(&p).dequeues,
            trigger: dequeuer(&p).trigger,
            ..writer(&p)
        };
        assert_eq!(restriction(&both), SpecRestriction::DequeueAndWriter);
        for i in [
            writer(&p),
            dequeuer(&p),
            both.clone(),
            Instruction::default(),
        ] {
            for pp in [false, true] {
                for outstanding in 0..=3 {
                    let answers: Vec<bool> = (1..=6)
                        .map(|depth| forbidden(&i, pp, depth, outstanding))
                        .collect();
                    let expected: Vec<bool> = if limit_decides(&i, pp, outstanding) {
                        (1..=6).map(|depth| depth <= outstanding).collect()
                    } else {
                        vec![answers[0]; 6]
                    };
                    assert_eq!(answers, expected, "{i:?} pp={pp} outstanding={outstanding}");
                }
            }
        }
        assert!(limit_decides(&writer(&p), true, 2));
        assert!(!limit_decides(&writer(&p), false, 2));
        // A writer the dequeue clause already forbids is not decided
        // by the limit.
        assert!(!limit_decides(&both, true, 2));
        assert!(limit_decides(&both, true, 0));
    }
}
