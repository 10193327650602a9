//! Configuration-aware view of the §5.2 forbidden-instruction rules.
//!
//! The pure, parameter-level rules live in [`tia_isa::spec_rules`] so
//! that the static analyzer (`tia-lint`, which cannot depend on this
//! crate) shares the exact predicate the pipeline evaluates. This
//! module binds them to a [`UarchConfig`]: the trigger stage of
//! [`crate::UarchPe`] calls [`forbidden`] every cycle, and tests
//! assert the two layers agree for every opcode.

use tia_isa::Instruction;

pub use tia_isa::spec_rules::{restriction, SpecRestriction};

use crate::config::UarchConfig;

/// Whether `instruction` is forbidden from issuing now, given the
/// configured speculation support and the current number of
/// unconfirmed predictions (`outstanding`).
#[inline]
pub fn forbidden(instruction: &Instruction, config: &UarchConfig, outstanding: usize) -> bool {
    tia_isa::spec_rules::forbidden(
        instruction,
        config.predicate_prediction,
        config.speculation_depth.max(1) as usize,
        outstanding,
    )
}

/// Whether the nesting limit decides this evaluation of [`forbidden`]
/// (see [`tia_isa::spec_rules::limit_decides`]): the only evaluations
/// in which `speculation_depth` changes the scheduler.
#[inline]
pub fn limit_decides(instruction: &Instruction, config: &UarchConfig, outstanding: usize) -> bool {
    tia_isa::spec_rules::limit_decides(instruction, config.predicate_prediction, outstanding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_isa::{DstOperand, InputId, Op, Params, PredId, QueueCheck, SrcOperand, Tag, Trigger};

    #[test]
    fn config_wrapper_clamps_depth_like_the_pipeline() {
        let params = Params::default();
        let writer = Instruction {
            valid: true,
            op: Op::Eq,
            srcs: [SrcOperand::Imm, SrcOperand::Imm],
            dst: DstOperand::Pred(PredId::new(0, &params).unwrap()),
            ..Instruction::default()
        };
        let mut config = UarchConfig::with_p(crate::Pipeline::TDX);
        config.speculation_depth = 0; // the pipeline clamps this to 1
        assert!(!forbidden(&writer, &config, 0));
        assert!(forbidden(&writer, &config, 1));
    }

    #[test]
    fn dequeue_rule_is_feature_independent() {
        let params = Params::default();
        let dequeuer = Instruction {
            valid: true,
            trigger: Trigger {
                queue_checks: vec![QueueCheck {
                    queue: InputId::new(0, &params).unwrap(),
                    tag: Tag::ZERO,
                    negate: false,
                }],
                ..Trigger::default()
            },
            op: Op::Nop,
            dequeues: vec![InputId::new(0, &params).unwrap()],
            ..Instruction::default()
        };
        let base = UarchConfig::base(crate::Pipeline::TDX);
        assert!(!forbidden(&dequeuer, &base, 0));
        assert!(forbidden(&dequeuer, &base, 1));
    }
}
