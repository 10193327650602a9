//! # `tia` — triggered-instruction spatial architecture toolkit
//!
//! The umbrella crate of a from-scratch Rust reproduction of Repetti,
//! Cerqueira, Kim and Seok, ["Pipelining a Triggered Processing
//! Element"][paper] (MICRO-50, 2017). It re-exports the component
//! crates:
//!
//! * [`isa`] — the triggered integer ISA: parameters, 42 operations,
//!   and the 106-bit binary encoding (paper Tables 1 and 2).
//! * [`asm`] — the assembler and disassembler for the paper's §2.2
//!   assembly syntax.
//! * [`fabric`] — the spatial substrate: tagged register queues,
//!   channels, memory read/write ports, host streams.
//! * [`sim`] — the functional (architectural) golden model.
//! * [`core`] — **the paper's contribution**: the cycle-level
//!   pipelined PE with predicate prediction (+P) and effective queue
//!   status (+Q).
//! * [`energy`] — the calibrated 65 nm VLSI model and the §3
//!   design-space exploration.
//! * [`workloads`] — the ten Table 3 microbenchmarks with golden
//!   verification.
//! * [`lint`] — the static analyzer: reachability, shadowing,
//!   +P speculability certification, and channel-deadlock checks.
//! * [`verify`] — the fabric-level model checker: exhaustive
//!   product-state search for deadlock, overflow, tag-protocol and
//!   liveness violations, with counterexample replay on the
//!   functional model.
//! * [`ckpt`] — checkpoint/restore snapshots and the runtime hang
//!   watchdog for long runs.
//! * [`prof`] — the hierarchical cycle-stack profiler: per-PE cycle
//!   attribution (every cycle lands in exactly one taxonomy leaf),
//!   cross-PE critical-path analysis, and bottleneck labels.
//! * [`jit`] — ahead-of-time trigger-program specialization: guard
//!   bitmasks and a predicate-state dispatch table, the one trigger
//!   evaluator both simulators run (debug builds cross-check every
//!   scan against the interpreted one).
//!
//! # Examples
//!
//! Assemble a program, run it on a pipelined PE, and inspect the CPI
//! stack:
//!
//! ```
//! use tia::asm::assemble;
//! use tia::core::{Pipeline, UarchConfig, UarchPe};
//! use tia::isa::Params;
//!
//! let params = Params::default();
//! let program = assemble(
//!     "when %p == XXXXXXX0: ult %p1, %r0, 10; set %p = ZZZZZZZ1;\n\
//!      when %p == XXXXXX11: add %r0, %r0, 1; set %p = ZZZZZZZ0;\n\
//!      when %p == XXXXXX01: halt;",
//!     &params,
//! )?;
//! let config = UarchConfig::with_pq(Pipeline::T_DX);
//! let mut pe = UarchPe::new(&params, config, program)?;
//! while !pe.halted() {
//!     pe.step_cycle();
//! }
//! assert_eq!(pe.reg(0), 10);
//! let stack = pe.counters().cpi_stack();
//! assert!(stack.total() >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [paper]: https://doi.org/10.1145/3123939.3124551

#![warn(missing_docs)]

pub use tia_asm as asm;
pub use tia_ckpt as ckpt;
pub use tia_core as core;
pub use tia_energy as energy;
pub use tia_fabric as fabric;
pub use tia_isa as isa;
pub use tia_jit as jit;
pub use tia_lint as lint;
pub use tia_prof as prof;
pub use tia_sim as sim;
pub use tia_verify as verify;
pub use tia_workloads as workloads;
