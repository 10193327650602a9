//! Pipeline configurations: the eight microarchitectures of §5.4 and
//! the two optional hazard-mitigation features.
//!
//! The paper divides a PE's work into three conceptual stages —
//! **trigger** (T), **decode** (D) and **execute** (X, optionally
//! split X1|X2) — and considers "all possible pipelines that result
//! from introducing pipeline registers between these stages":
//! TDX (single cycle), TD|X, T|DX, TDX1|X2, TD|X1|X2, T|DX1|X2,
//! T|D|X and T|D|X1|X2.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Where the pipeline registers sit: one of the eight §5.4 pipelines.
///
/// # Examples
///
/// ```
/// use tia_core::Pipeline;
///
/// assert_eq!(Pipeline::TDX.depth(), 1);
/// assert_eq!(Pipeline::T_D_X1_X2.depth(), 4);
/// assert_eq!(Pipeline::T_DX1_X2.name(), "T|DX1|X2");
/// ```
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pipeline {
    /// A pipeline register between trigger and decode.
    pub split_td: bool,
    /// A pipeline register between decode and execute.
    pub split_dx: bool,
    /// The execute stage split into X1|X2 (a two-cycle ALU).
    pub split_x: bool,
}

impl Pipeline {
    /// The single-cycle baseline (§4).
    pub const TDX: Pipeline = Pipeline {
        split_td: false,
        split_dx: false,
        split_x: false,
    };
    /// Two stages: trigger+decode, then execute.
    pub const TD_X: Pipeline = Pipeline {
        split_td: false,
        split_dx: true,
        split_x: false,
    };
    /// Two stages: trigger, then decode+execute.
    pub const T_DX: Pipeline = Pipeline {
        split_td: true,
        split_dx: false,
        split_x: false,
    };
    /// Two stages with a split ALU: trigger+decode+X1, then X2.
    pub const TDX1_X2: Pipeline = Pipeline {
        split_td: false,
        split_dx: false,
        split_x: true,
    };
    /// Three stages: trigger+decode, X1, X2.
    pub const TD_X1_X2: Pipeline = Pipeline {
        split_td: false,
        split_dx: true,
        split_x: true,
    };
    /// Three stages: trigger, decode+X1, X2.
    pub const T_DX1_X2: Pipeline = Pipeline {
        split_td: true,
        split_dx: false,
        split_x: true,
    };
    /// Three stages: trigger, decode, execute.
    pub const T_D_X: Pipeline = Pipeline {
        split_td: true,
        split_dx: true,
        split_x: false,
    };
    /// The deepest pipeline: trigger, decode, X1, X2.
    pub const T_D_X1_X2: Pipeline = Pipeline {
        split_td: true,
        split_dx: true,
        split_x: true,
    };

    /// All eight microarchitectures, in the paper's Figure 5 order
    /// (single-cycle first, then by depth).
    pub const ALL: [Pipeline; 8] = [
        Pipeline::TDX,
        Pipeline::TDX1_X2,
        Pipeline::TD_X,
        Pipeline::T_DX,
        Pipeline::TD_X1_X2,
        Pipeline::T_DX1_X2,
        Pipeline::T_D_X,
        Pipeline::T_D_X1_X2,
    ];

    /// The seven pipelined (multi-stage) configurations of Figure 5.
    pub const PIPELINED: [Pipeline; 7] = [
        Pipeline::TDX1_X2,
        Pipeline::TD_X,
        Pipeline::T_DX,
        Pipeline::TD_X1_X2,
        Pipeline::T_DX1_X2,
        Pipeline::T_D_X,
        Pipeline::T_D_X1_X2,
    ];

    /// Pipeline depth in stages (1–4).
    pub fn depth(self) -> usize {
        1 + self.split_td as usize + self.split_dx as usize + self.split_x as usize
    }

    /// Cycles after issue at which decode work (operand peek and
    /// input-queue dequeue) happens. Dequeues live in D, not T, because
    /// "dequeueing from the inputs in the same cycle as the trigger
    /// resolution proved to be a long critical path" (§5.4).
    pub fn d_offset(self) -> u64 {
        self.split_td as u64
    }

    /// Cycles after issue at which the final execute stage runs; the
    /// result commits at the end of that cycle and is architecturally
    /// visible (to the scheduler and via forwarding) the next cycle.
    pub fn x_end_offset(self) -> u64 {
        self.d_offset() + self.split_dx as u64 + self.split_x as u64
    }

    /// This pipeline's position in [`Pipeline::ALL`] (the Figure 5
    /// order), computed without a search.
    pub fn figure_order_index(self) -> usize {
        // Figure 5 orders the two-stage pipelines TDX1|X2, TD|X, T|DX
        // rather than by raw register bits, hence the permutation.
        const ORDER: [usize; 8] = [0, 1, 2, 4, 3, 5, 6, 7];
        let bits =
            (self.split_td as usize) << 2 | (self.split_dx as usize) << 1 | self.split_x as usize;
        ORDER[bits]
    }

    /// The paper's name for this pipeline (e.g. `T|DX1|X2`).
    pub fn name(self) -> &'static str {
        match (self.split_td, self.split_dx, self.split_x) {
            (false, false, false) => "TDX",
            (false, true, false) => "TD|X",
            (true, false, false) => "T|DX",
            (false, false, true) => "TDX1|X2",
            (false, true, true) => "TD|X1|X2",
            (true, false, true) => "T|DX1|X2",
            (true, true, false) => "T|D|X",
            (true, true, true) => "T|D|X1|X2",
        }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete microarchitecture: pipeline plus the two optional
/// §5.2/§5.3 features. The 8 × 4 = 32 combinations are the paper's
/// microarchitecture population (§3); the remaining knobs are this
/// repository's extensions for the ablations the paper's §6 calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UarchConfig {
    /// The pipeline register placement.
    pub pipeline: Pipeline,
    /// Enable the speculative predicate unit (+P, §5.2).
    pub predicate_prediction: bool,
    /// Enable effective queue status accounting (+Q, §5.3).
    pub effective_queue_status: bool,
    /// Maximum simultaneous outstanding predicate speculations. The
    /// paper's unit supports exactly one ("our scheme does not
    /// currently allow nested speculation"); higher values implement
    /// the §6 extension, lifting the nesting restriction on further
    /// predicate writers while one speculation is outstanding.
    pub speculation_depth: u8,
    /// The predictor design in the speculative predicate unit. The
    /// paper uses [`PredictorKind::TwoBit`]; the others support the
    /// predictor ablation.
    pub predictor: PredictorKind,
    /// The §5.3 alternative to queue-status accounting: pad every
    /// output queue "with as many extra slots as the pipeline is
    /// deep, thereby guaranteeing queue capacity for in-flight
    /// instructions" (the WaveScalar reject buffer). The scheduler
    /// then ignores in-flight enqueues entirely. Costs 13% area and
    /// 12% power on the deep pipeline (§5.4).
    pub padded_output_queues: bool,
}

/// Predictor designs for the speculative predicate unit ablation.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum PredictorKind {
    /// The paper's two-bit saturating counter per predicate (§5.2).
    #[default]
    TwoBit,
    /// A single-bit last-outcome predictor.
    OneBit,
    /// Statically predict the predicate will be written 1.
    AlwaysTaken,
    /// Statically predict the predicate will be written 0.
    AlwaysNotTaken,
}

impl PredictorKind {
    /// All predictor variants, paper default first.
    pub const ALL: [PredictorKind; 4] = [
        PredictorKind::TwoBit,
        PredictorKind::OneBit,
        PredictorKind::AlwaysTaken,
        PredictorKind::AlwaysNotTaken,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::TwoBit => "2-bit",
            PredictorKind::OneBit => "1-bit",
            PredictorKind::AlwaysTaken => "always-taken",
            PredictorKind::AlwaysNotTaken => "always-not-taken",
        }
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl UarchConfig {
    /// A baseline configuration (no optional features).
    pub fn base(pipeline: Pipeline) -> Self {
        UarchConfig {
            pipeline,
            predicate_prediction: false,
            effective_queue_status: false,
            speculation_depth: 1,
            predictor: PredictorKind::TwoBit,
            padded_output_queues: false,
        }
    }

    /// This pipeline with predicate prediction only (+P).
    pub fn with_p(pipeline: Pipeline) -> Self {
        UarchConfig {
            predicate_prediction: true,
            ..UarchConfig::base(pipeline)
        }
    }

    /// This pipeline with effective queue status only (+Q).
    pub fn with_q(pipeline: Pipeline) -> Self {
        UarchConfig {
            effective_queue_status: true,
            ..UarchConfig::base(pipeline)
        }
    }

    /// This pipeline with both features (+P+Q).
    pub fn with_pq(pipeline: Pipeline) -> Self {
        UarchConfig {
            predicate_prediction: true,
            effective_queue_status: true,
            ..UarchConfig::base(pipeline)
        }
    }

    /// The §6 extension: both features with up to `depth` outstanding
    /// predicate speculations (1 = the paper's non-nested unit).
    pub fn with_nested(pipeline: Pipeline, depth: u8) -> Self {
        UarchConfig {
            speculation_depth: depth.max(1),
            ..UarchConfig::with_pq(pipeline)
        }
    }

    /// The predictor ablation: both features with a given predictor
    /// design.
    pub fn with_predictor(pipeline: Pipeline, predictor: PredictorKind) -> Self {
        UarchConfig {
            predictor,
            ..UarchConfig::with_pq(pipeline)
        }
    }

    /// The WaveScalar-style alternative: reject-buffer padding on the
    /// output queues instead of effective status accounting.
    pub fn with_padding(pipeline: Pipeline) -> Self {
        UarchConfig {
            padded_output_queues: true,
            ..UarchConfig::base(pipeline)
        }
    }

    /// All 32 microarchitectures (8 pipelines × 4 feature settings).
    pub fn all() -> Vec<UarchConfig> {
        let mut v = Vec::with_capacity(32);
        for pipeline in Pipeline::ALL {
            v.push(UarchConfig::base(pipeline));
            v.push(UarchConfig::with_p(pipeline));
            v.push(UarchConfig::with_q(pipeline));
            v.push(UarchConfig::with_pq(pipeline));
        }
        v
    }

    /// The paper's suffix notation (``""``, ``" +P"``, ``" +Q"``,
    /// ``" +P+Q"``).
    pub fn feature_suffix(&self) -> &'static str {
        match (self.predicate_prediction, self.effective_queue_status) {
            (false, false) => "",
            (true, false) => " +P",
            (false, true) => " +Q",
            (true, true) => " +P+Q",
        }
    }
}

impl fmt::Display for UarchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.pipeline, self.feature_suffix())?;
        if self.speculation_depth > 1 {
            write!(f, " nest{}", self.speculation_depth)?;
        }
        if self.predictor != PredictorKind::TwoBit {
            write!(f, " [{}]", self.predictor)?;
        }
        if self.padded_output_queues {
            write!(f, " padded")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_eight_distinct_pipelines() {
        let mut names: Vec<&str> = Pipeline::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn depths_match_the_paper() {
        assert_eq!(Pipeline::TDX.depth(), 1);
        assert_eq!(Pipeline::TD_X.depth(), 2);
        assert_eq!(Pipeline::T_DX.depth(), 2);
        assert_eq!(Pipeline::TDX1_X2.depth(), 2);
        assert_eq!(Pipeline::TD_X1_X2.depth(), 3);
        assert_eq!(Pipeline::T_DX1_X2.depth(), 3);
        assert_eq!(Pipeline::T_D_X.depth(), 3);
        assert_eq!(Pipeline::T_D_X1_X2.depth(), 4);
    }

    #[test]
    fn offsets_are_consistent_with_depth() {
        for p in Pipeline::ALL {
            assert_eq!(p.x_end_offset() as usize, p.depth() - 1);
            assert!(p.d_offset() <= p.x_end_offset());
            // Dequeues take effect within the first two stages ("N
            // never exceeds 2", §5.3).
            assert!(p.d_offset() <= 1);
        }
    }

    #[test]
    fn there_are_32_microarchitectures() {
        let all = UarchConfig::all();
        assert_eq!(all.len(), 32);
        let mut set = std::collections::HashSet::new();
        for c in &all {
            assert!(set.insert(c.to_string()));
        }
    }

    #[test]
    fn figure_order_index_matches_the_all_array() {
        for (i, p) in Pipeline::ALL.iter().enumerate() {
            assert_eq!(p.figure_order_index(), i, "{p}");
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            UarchConfig::with_pq(Pipeline::T_DX1_X2).to_string(),
            "T|DX1|X2 +P+Q"
        );
        assert_eq!(UarchConfig::base(Pipeline::TDX).to_string(), "TDX");
        assert_eq!(
            UarchConfig::with_q(Pipeline::TDX1_X2).to_string(),
            "TDX1|X2 +Q"
        );
    }
}
