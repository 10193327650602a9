//! # `tia-bench` — the experiment harness
//!
//! One binary per table and figure of the paper (see `src/bin/`),
//! built on the measurement and formatting helpers in this library.
//! `DESIGN.md` at the repository root maps every paper result to its
//! regenerating binary; `EXPERIMENTS.md` records paper-reported versus
//! measured values.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod jsonout;
pub mod measure;
pub mod store;
pub mod table;

pub use jsonout::{json_out_from_args, write_json};
pub use measure::{activity_of, coarse_stack, run_uarch_workload, scale_from_args, MeasuredRun};
pub use store::{suite_keys, RunKey, RunStore, StoreReset, MEASUREMENT_SCHEMA_VERSION};
pub use table::Table;
