//! # `tia-energy` — VLSI power/timing estimation and design-space
//! exploration
//!
//! The analytical substitute for the paper's Synopsys Design Compiler +
//! PrimeTime flow on TSMC 65 nm (§3): a calibrated technology model
//! ([`tech`]), per-pipeline critical paths ([`critical_path`]),
//! component area/power with the §5.4 feature overheads
//! ([`area_power`]), the §3 microarchitecture × voltage × threshold ×
//! frequency sweep ([`dse`]), and Pareto/power-density analysis
//! ([`pareto`]).
//!
//! Every constant is pinned to a number the paper reports — e.g. the
//! T|D|X1|X2 trigger stage closing at 53.6 FO4 (64.3 with
//! speculation), 0.301 mW per pipeline register at 500 MHz, and the
//! 64,895.4 µm² combined-feature area. The CPI/activity inputs come
//! from the cycle-level simulator in `tia-core`, mirroring the paper's
//! use of gate activity from a `bst` run.
//!
//! # Examples
//!
//! Sweep the design space with a synthetic CPI model and extract the
//! frontier:
//!
//! ```
//! use tia_core::UarchConfig;
//! use tia_energy::dse::{explore, CpiMeasurement};
//! use tia_energy::pareto::{pareto_frontier, span};
//!
//! let mut cpi = |config: &UarchConfig| CpiMeasurement {
//!     cpi: 1.0 + 0.25 * (config.pipeline.depth() as f64 - 1.0),
//!     issue_rate: 0.8,
//!     ..CpiMeasurement::default()
//! };
//! let points = explore(&mut cpi);
//! assert!(points.len() > 4_000); // the paper's "over 4,000" points
//! let frontier = pareto_frontier(&points);
//! let (energy_span, delay_span) = span(&points);
//! assert!(energy_span > 10.0 && delay_span > 50.0);
//! assert!(!frontier.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area_power;
pub mod critical_path;
pub mod dse;
pub mod pareto;
pub mod tech;

pub use area_power::{Component, InstMemMedium};
pub use critical_path::{critical_path_fo4, max_frequency_mhz};
pub use dse::{
    evaluate, explore, par_explore, par_explore_with, CpiMeasurement, CpiSource, DesignPoint,
    SyncCpiSource,
};
pub use pareto::{frontier_energy_improvement, pareto_frontier, span};
pub use tech::VtClass;
