//! Per-PE performance counters and CPI stacks (Figure 5).
//!
//! The FPGA prototype embeds performance counters in each PE (§3);
//! this module is their software twin. Every cycle of a PE is
//! attributed to exactly one CPI-stack component: a retired issue, a
//! (later) quashed issue, or a stall classified as predicate hazard,
//! data hazard, forbidden instruction, or no triggered instruction.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};
use tia_trace::{MetricsRegistry, StallClass};

/// Why the scheduler failed to issue this cycle (or that it issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleClass {
    /// An instruction issued.
    Issued,
    /// An instruction was blocked only by unresolved (pending)
    /// predicate state.
    PredicateHazard,
    /// An instruction was triggered but forbidden by the speculation
    /// restrictions (§5.2: pre-retirement side effects or nested
    /// predictions).
    Forbidden,
    /// An instruction was blocked by the register-operand interlock.
    DataHazard,
    /// Nothing was eligible (includes conservative queue-status
    /// blocking, which the paper folds into this component — +Q
    /// shrinks it, Figure 5).
    NotTriggered,
}

impl CycleClass {
    /// The trace's name for this stall; `None` for an issue.
    pub(crate) fn stall(self) -> Option<StallClass> {
        match self {
            CycleClass::Issued => None,
            CycleClass::PredicateHazard => Some(StallClass::PredicateHazard),
            CycleClass::Forbidden => Some(StallClass::Forbidden),
            CycleClass::DataHazard => Some(StallClass::DataHazard),
            CycleClass::NotTriggered => Some(StallClass::NotTriggered),
        }
    }
}

/// Accumulated event counts for a cycle-level PE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UarchCounters {
    /// Cycles stepped while not halted.
    pub cycles: u64,
    /// Instructions retired (committed).
    pub retired: u64,
    /// Instructions issued then flushed by misspeculation.
    pub quashed: u64,
    /// Cycles stalled on pending predicate state.
    pub pred_hazard_cycles: u64,
    /// Cycles stalled on the register interlock.
    pub data_hazard_cycles: u64,
    /// Cycles a triggered instruction was forbidden from issue during
    /// speculation.
    pub forbidden_cycles: u64,
    /// Cycles with nothing to issue.
    pub not_triggered_cycles: u64,
    /// Retired instructions with a datapath predicate destination.
    pub predicate_writes: u64,
    /// Predicate predictions resolved.
    pub predictions: u64,
    /// Predicate predictions resolved correct.
    pub correct_predictions: u64,
    /// Input-queue dequeues performed.
    pub dequeues: u64,
    /// Output-queue enqueues performed.
    pub enqueues: u64,
    /// Retired multiply-class operations.
    pub multiplies: u64,
    /// Scratchpad accesses performed.
    pub scratchpad_accesses: u64,
}

impl UarchCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        UarchCounters::default()
    }

    /// Charges `cycles` cycles of `class` to its stall counter. An
    /// issue is charged later, when it retires or is quashed.
    pub(crate) fn charge(&mut self, class: CycleClass, cycles: u64) {
        match class {
            CycleClass::Issued => {}
            CycleClass::PredicateHazard => self.pred_hazard_cycles += cycles,
            CycleClass::Forbidden => self.forbidden_cycles += cycles,
            CycleClass::DataHazard => self.data_hazard_cycles += cycles,
            CycleClass::NotTriggered => self.not_triggered_cycles += cycles,
        }
    }

    /// Cycles per retired instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }

    /// Dynamic frequency of datapath predicate writes (Fig. 4).
    pub fn predicate_write_frequency(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.predicate_writes as f64 / self.retired as f64
        }
    }

    /// Prediction accuracy (Fig. 4); `NaN` when nothing was predicted.
    pub fn prediction_accuracy(&self) -> f64 {
        if self.predictions == 0 {
            f64::NAN
        } else {
            self.correct_predictions as f64 / self.predictions as f64
        }
    }

    /// Registers every counter field under its own name in a
    /// [`MetricsRegistry`], for uniform machine-readable dumps.
    pub fn register_into(&self, metrics: &mut MetricsRegistry) {
        metrics.set_counter("cycles", self.cycles);
        metrics.set_counter("retired", self.retired);
        metrics.set_counter("quashed", self.quashed);
        metrics.set_counter("pred_hazard_cycles", self.pred_hazard_cycles);
        metrics.set_counter("data_hazard_cycles", self.data_hazard_cycles);
        metrics.set_counter("forbidden_cycles", self.forbidden_cycles);
        metrics.set_counter("not_triggered_cycles", self.not_triggered_cycles);
        metrics.set_counter("predicate_writes", self.predicate_writes);
        metrics.set_counter("predictions", self.predictions);
        metrics.set_counter("correct_predictions", self.correct_predictions);
        metrics.set_counter("dequeues", self.dequeues);
        metrics.set_counter("enqueues", self.enqueues);
        metrics.set_counter("multiplies", self.multiplies);
        metrics.set_counter("scratchpad_accesses", self.scratchpad_accesses);
    }

    /// The Figure 5 CPI stack.
    pub fn cpi_stack(&self) -> CpiStack {
        let r = self.retired.max(1) as f64;
        CpiStack {
            retired: 1.0,
            quashed: self.quashed as f64 / r,
            predicate_hazard: self.pred_hazard_cycles as f64 / r,
            data_hazard: self.data_hazard_cycles as f64 / r,
            forbidden: self.forbidden_cycles as f64 / r,
            not_triggered: self.not_triggered_cycles as f64 / r,
        }
    }
}

impl Add for UarchCounters {
    type Output = UarchCounters;

    fn add(mut self, rhs: UarchCounters) -> UarchCounters {
        self += rhs;
        self
    }
}

impl AddAssign for UarchCounters {
    fn add_assign(&mut self, rhs: UarchCounters) {
        self.cycles += rhs.cycles;
        self.retired += rhs.retired;
        self.quashed += rhs.quashed;
        self.pred_hazard_cycles += rhs.pred_hazard_cycles;
        self.data_hazard_cycles += rhs.data_hazard_cycles;
        self.forbidden_cycles += rhs.forbidden_cycles;
        self.not_triggered_cycles += rhs.not_triggered_cycles;
        self.predicate_writes += rhs.predicate_writes;
        self.predictions += rhs.predictions;
        self.correct_predictions += rhs.correct_predictions;
        self.dequeues += rhs.dequeues;
        self.enqueues += rhs.enqueues;
        self.multiplies += rhs.multiplies;
        self.scratchpad_accesses += rhs.scratchpad_accesses;
    }
}

/// A Figure 5 CPI stack: per-retired-instruction cycle attribution.
/// The sum of all components equals the measured CPI (up to the
/// one-issue-per-cycle accounting identity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CpiStack {
    /// The ideal single issue per retired instruction (always 1.0).
    pub retired: f64,
    /// Quashed (misspeculated) issues.
    pub quashed: f64,
    /// Predicate hazard stalls.
    pub predicate_hazard: f64,
    /// Data hazard stalls.
    pub data_hazard: f64,
    /// Forbidden-instruction stalls.
    pub forbidden: f64,
    /// Cycles with no triggered instruction.
    pub not_triggered: f64,
}

impl CpiStack {
    /// Total CPI (sum of the components).
    pub fn total(&self) -> f64 {
        self.retired
            + self.quashed
            + self.predicate_hazard
            + self.data_hazard
            + self.forbidden
            + self.not_triggered
    }

    /// Averages a set of stacks (the Figure 5 bars average the ten
    /// workloads).
    pub fn average(stacks: &[CpiStack]) -> CpiStack {
        let n = stacks.len().max(1) as f64;
        let mut out = CpiStack::default();
        for s in stacks {
            out.retired += s.retired;
            out.quashed += s.quashed;
            out.predicate_hazard += s.predicate_hazard;
            out.data_hazard += s.data_hazard;
            out.forbidden += s.forbidden;
            out.not_triggered += s.not_triggered;
        }
        out.retired /= n;
        out.quashed /= n;
        out.predicate_hazard /= n;
        out.data_hazard /= n;
        out.forbidden /= n;
        out.not_triggered /= n;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_components_sum_to_cpi() {
        let c = UarchCounters {
            cycles: 200,
            retired: 100,
            quashed: 10,
            pred_hazard_cycles: 30,
            data_hazard_cycles: 20,
            forbidden_cycles: 15,
            not_triggered_cycles: 25,
            ..UarchCounters::new()
        };
        // cycles = retired + quashed + stalls = 100+10+30+20+15+25 = 200
        let stack = c.cpi_stack();
        assert!((stack.total() - c.cpi()).abs() < 1e-12);
    }

    #[test]
    fn accuracy_and_frequency_edge_cases() {
        let c = UarchCounters::new();
        assert!(c.prediction_accuracy().is_nan());
        assert_eq!(c.predicate_write_frequency(), 0.0);
        assert!(c.cpi().is_nan());
    }

    #[test]
    fn counters_add() {
        let a = UarchCounters {
            cycles: 10,
            retired: 5,
            ..UarchCounters::new()
        };
        let b = UarchCounters {
            cycles: 4,
            quashed: 2,
            ..UarchCounters::new()
        };
        let c = a + b;
        assert_eq!(c.cycles, 14);
        assert_eq!(c.retired, 5);
        assert_eq!(c.quashed, 2);
    }

    #[test]
    fn stack_average() {
        let s1 = CpiStack {
            retired: 1.0,
            quashed: 0.2,
            ..CpiStack::default()
        };
        let s2 = CpiStack {
            retired: 1.0,
            quashed: 0.4,
            ..CpiStack::default()
        };
        let avg = CpiStack::average(&[s1, s2]);
        assert!((avg.quashed - 0.3).abs() < 1e-12);
        assert_eq!(avg.retired, 1.0);
    }
}
