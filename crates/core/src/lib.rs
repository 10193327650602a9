//! # `tia-core` — the pipelined triggered-PE microarchitecture
//!
//! The primary contribution of Repetti et al., ["Pipelining a
//! Triggered Processing Element"][paper] (MICRO-50, 2017), as a
//! cycle-level model: the eight pipelines obtained by placing
//! registers between the trigger (T), decode (D) and execute (X,
//! optionally X1|X2) stages, with the paper's two hazard-mitigation
//! techniques as independent toggles:
//!
//! * **Predicate prediction (+P, §5.2)** — a speculative predicate
//!   unit with a two-bit saturating predictor per predicate, one
//!   outstanding speculation (no nesting), forbidden-instruction
//!   restrictions on pre-retirement side effects, and flush/rollback
//!   on mispredicts.
//! * **Effective queue status (+Q, §5.3)** — queue occupancy
//!   accounting against in-flight dequeues/enqueues with head-and-neck
//!   tag peeking, replacing the conservative pending-dequeue-is-empty
//!   / pending-enqueue-is-full discipline.
//!
//! Every one of the 8 × 4 = 32 microarchitectures is architecturally
//! equivalent to the golden functional model ([`tia_sim::FuncPe`]);
//! they differ only in cycle counts, which the built-in performance
//! counters ([`UarchCounters`]) decompose into the paper's Figure 5
//! CPI stacks.
//!
//! # Examples
//!
//! Compare a deep pipeline with and without the optimizations:
//!
//! ```
//! use tia_asm::assemble;
//! use tia_core::{Pipeline, UarchConfig, UarchPe};
//! use tia_isa::Params;
//!
//! let params = Params::default();
//! let source =
//!     "when %p == XXXXXXX0: ult %p1, %r0, 100; set %p = ZZZZZZZ1;\n\
//!      when %p == XXXXXX11: add %r0, %r0, 1; set %p = ZZZZZZZ0;\n\
//!      when %p == XXXXXX01: halt;";
//!
//! let mut cycles = Vec::new();
//! for config in [
//!     UarchConfig::base(Pipeline::T_D_X1_X2),
//!     UarchConfig::with_pq(Pipeline::T_D_X1_X2),
//! ] {
//!     let program = assemble(source, &params).expect("assembles");
//!     let mut pe = UarchPe::new(&params, config, program)?;
//!     while !pe.halted() {
//!         pe.step_cycle();
//!     }
//!     assert_eq!(pe.reg(0), 100); // architecture is invariant
//!     cycles.push(pe.counters().cycles); // microarchitecture is not
//! }
//! assert!(cycles[1] < cycles[0], "+P+Q reduces cycles");
//! # Ok::<(), tia_isa::IsaError>(())
//! ```
//!
//! [paper]: https://doi.org/10.1145/3123939.3124551

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod counters;
pub mod pe;
pub mod predictor;
pub mod spec_rules;

pub use config::{ConfigWitness, Pipeline, PredictorKind, UarchConfig};
pub use counters::{CpiStack, CycleClass, UarchCounters};
pub use pe::{InFlightState, SpeculationState, UarchPe, UarchPeState};
pub use predictor::PredicatePredictor;
