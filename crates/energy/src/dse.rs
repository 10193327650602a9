//! Design-space exploration: microarchitecture × supply voltage ×
//! threshold flavor × target frequency (§3, §5.4 "Energy Delay
//! Analysis").
//!
//! "As opposed to post-synthesis exploration looking at a design's
//! behavior under a DVFS scheme, here we can take advantage of having
//! a specific target frequency and voltage in mind when pushing our
//! design through the VLSI flow" — hence the timing-push factors of
//! [`crate::area_power`] that inflate designs synthesized close to
//! their critical-path limit.

use serde::{Deserialize, Serialize};

use tia_core::UarchConfig;
use tia_prof::{Leaf, LeafShares};

use crate::area_power::{
    base_area_um2, dynamic_energy_per_cycle_pj, timing_push_area_factor, timing_push_energy_factor,
    IDLE_CYCLE_ENERGY_FRACTION,
};
use crate::critical_path::max_frequency_mhz;
use crate::tech::{dynamic_energy_scale, leakage_density_mw_per_mm2, VtClass};

/// Workload-derived activity inputs for one microarchitecture: the
/// paper extracts "gate-level activity factors from a run of the
/// binary search tree program" (§3); the cycle-level equivalent is the
/// CPI and issue rate of that run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct CpiMeasurement {
    /// Cycles per retired instruction.
    pub cpi: f64,
    /// Fraction of cycles that issue an instruction (retired plus
    /// quashed over cycles) — the datapath activity factor.
    pub issue_rate: f64,
    /// Per-leaf shares of the activity run's cycles (the hierarchical
    /// cycle stack, normalized), so every derived design point carries
    /// its own performance attribution.
    pub stack: LeafShares,
    /// The dominant cycle-stack leaf of the activity run.
    pub bottleneck: Leaf,
}

impl CpiMeasurement {
    /// A perfectly pipelined reference (CPI 1, fully active); useful
    /// for tests and upper-bound studies.
    pub fn ideal() -> Self {
        CpiMeasurement {
            cpi: 1.0,
            issue_rate: 1.0,
            stack: LeafShares {
                retire: 1.0,
                ..LeafShares::default()
            },
            bottleneck: Leaf::Retire,
        }
    }
}

/// A supplier of per-microarchitecture CPI measurements. The
/// experiment harness implements this by running the `bst` workload on
/// `tia-core`; tests may use fixed values.
pub trait CpiSource {
    /// The activity measurement for one microarchitecture.
    fn measure(&mut self, config: &UarchConfig) -> CpiMeasurement;
}

impl<F> CpiSource for F
where
    F: FnMut(&UarchConfig) -> CpiMeasurement,
{
    fn measure(&mut self, config: &UarchConfig) -> CpiMeasurement {
        self(config)
    }
}

/// A shared-state (`&self`) CPI supplier, the parallel counterpart of
/// [`CpiSource`]: [`par_explore`] fans measurements across threads, so
/// the source must hand out measurements through a shared reference.
pub trait SyncCpiSource: Sync {
    /// The activity measurement for one microarchitecture.
    fn measure(&self, config: &UarchConfig) -> CpiMeasurement;
}

impl<F> SyncCpiSource for F
where
    F: Fn(&UarchConfig) -> CpiMeasurement + Sync,
{
    fn measure(&self, config: &UarchConfig) -> CpiMeasurement {
        self(config)
    }
}

/// One fully evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The microarchitecture.
    pub config: UarchConfig,
    /// Standard-cell library flavor.
    pub vt: VtClass,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Synthesis target frequency in MHz.
    pub freq_mhz: f64,
    /// Cycles per instruction from the activity run.
    pub cpi: f64,
    /// Instruction latency in nanoseconds (CPI / f).
    pub ns_per_inst: f64,
    /// Energy per instruction in picojoules.
    pub pj_per_inst: f64,
    /// Total power in milliwatts.
    pub power_mw: f64,
    /// Die area in mm² (after timing-push inflation).
    pub area_mm2: f64,
    /// Per-leaf cycle-stack shares of the activity run behind this
    /// point's CPI.
    pub stack: LeafShares,
    /// The dominant cycle-stack leaf — what bounds this design point's
    /// performance.
    pub bottleneck: Leaf,
}

impl DesignPoint {
    /// Power density in mW/mm² (§5.4 "Power Density").
    pub fn power_density(&self) -> f64 {
        self.power_mw / self.area_mm2
    }

    /// The energy-delay product in pJ·ns.
    pub fn ed_product(&self) -> f64 {
        self.pj_per_inst * self.ns_per_inst
    }
}

/// Evaluates one operating point; `None` when the design cannot close
/// timing at the requested frequency.
pub fn evaluate(
    config: &UarchConfig,
    vt: VtClass,
    vdd: f64,
    freq_mhz: f64,
    activity: CpiMeasurement,
) -> Option<DesignPoint> {
    let fmax = max_frequency_mhz(config, vdd, vt);
    if freq_mhz > fmax || freq_mhz <= 0.0 {
        return None;
    }
    let utilization = freq_mhz / fmax;
    let e_active = dynamic_energy_per_cycle_pj(config)
        * dynamic_energy_scale(vdd)
        * timing_push_energy_factor(utilization);
    // Clock-gated idle cycles still burn the clock-tree share.
    let activity_factor =
        IDLE_CYCLE_ENERGY_FRACTION + (1.0 - IDLE_CYCLE_ENERGY_FRACTION) * activity.issue_rate;
    let e_cycle = e_active * activity_factor;
    let area_mm2 = base_area_um2(config) * timing_push_area_factor(utilization) / 1e6;
    let leak_mw = leakage_density_mw_per_mm2(vdd, vt) * area_mm2;
    let dynamic_mw = e_cycle * freq_mhz / 1e3; // pJ × MHz = µW
    let power_mw = dynamic_mw + leak_mw;
    let ns_per_inst = activity.cpi * 1e3 / freq_mhz;
    let pj_per_inst = power_mw * ns_per_inst;
    Some(DesignPoint {
        config: *config,
        vt,
        vdd,
        freq_mhz,
        cpi: activity.cpi,
        ns_per_inst,
        pj_per_inst,
        power_mw,
        area_mm2,
        stack: activity.stack,
        bottleneck: activity.bottleneck,
    })
}

/// The §3 target-frequency sweep for one library/voltage: 100 MHz to
/// 1.5 GHz at 100 MHz granularity, refined to 50 MHz steps through
/// 500 MHz in near-threshold regimes, and 10 MHz steps through
/// 100 MHz for subthreshold high-VT.
pub fn frequency_sweep_mhz(vt: VtClass, vdd: f64) -> Vec<f64> {
    let mut freqs: Vec<f64> = (1..=15).map(|i| (i * 100) as f64).collect();
    freqs.extend((1..=10).map(|i| (i * 50) as f64));
    if vt == VtClass::High && vdd <= 0.7 {
        freqs.extend((1..=9).map(|i| (i * 10) as f64));
    }
    freqs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    freqs.dedup();
    freqs
}

/// The hoisted (VT, VDD, frequency-sweep) operating grid: identical
/// for every microarchitecture, so [`explore`]/[`par_explore`] build
/// it once instead of re-allocating and re-sorting the frequency
/// vector for every (config, VT, VDD) iteration.
fn operating_grid() -> Vec<(VtClass, f64, Vec<f64>)> {
    let mut grid = Vec::new();
    for vt in VtClass::ALL {
        for &vdd in vt.characterized_voltages() {
            grid.push((vt, vdd, frequency_sweep_mhz(vt, vdd)));
        }
    }
    grid
}

/// Evaluates one microarchitecture across the whole operating grid,
/// in grid order.
fn sweep_config(
    config: &UarchConfig,
    activity: CpiMeasurement,
    grid: &[(VtClass, f64, Vec<f64>)],
) -> Vec<DesignPoint> {
    let mut points = Vec::new();
    for (vt, vdd, freqs) in grid {
        for &freq in freqs {
            if let Some(p) = evaluate(config, *vt, *vdd, freq, activity) {
                points.push(p);
            }
        }
    }
    points
}

/// Runs the full §3 design-space exploration: all 32
/// microarchitectures across every characterized (VT, VDD) pair and
/// frequency sweep. Returns only the feasible (timing-closed) points —
/// "over 4,000 different design points".
pub fn explore<S: CpiSource>(source: &mut S) -> Vec<DesignPoint> {
    let grid = operating_grid();
    let mut points = Vec::new();
    for config in UarchConfig::all() {
        let activity = source.measure(&config);
        points.extend(sweep_config(&config, activity, &grid));
    }
    points
}

/// The parallel [`explore`]: fans the 32 microarchitecture activity
/// measurements — each one a cycle-accurate simulation, the dominant
/// cost of a real sweep — and their operating-grid evaluations across
/// [`tia_par::worker_count`] threads. The returned vector is
/// **bit-identical to [`explore`], ordering included**: results are
/// collected per configuration in `UarchConfig::all()` order and the
/// per-configuration grid walk is the same serial loop.
pub fn par_explore<S: SyncCpiSource>(source: &S) -> Vec<DesignPoint> {
    par_explore_with(tia_par::worker_count(), source)
}

/// [`par_explore`] with an explicit worker count (the determinism
/// tests hold 1, 2 and 4 workers to [`explore`]).
pub fn par_explore_with<S: SyncCpiSource>(workers: usize, source: &S) -> Vec<DesignPoint> {
    par_explore_stats_with(workers, source).0
}

/// [`par_explore_with`] returning the scheduler's per-worker
/// [`tia_par::ParStats`] alongside the points, so scaling harnesses
/// (the `dse_seeded` benchmark workload) can report worker
/// utilization next to the measured speedup. The points are
/// bit-identical to [`explore`].
pub fn par_explore_stats_with<S: SyncCpiSource>(
    workers: usize,
    source: &S,
) -> (Vec<DesignPoint>, tia_par::ParStats) {
    let configs = UarchConfig::all();
    let grid = operating_grid();
    let (per_config, stats): (Vec<Vec<DesignPoint>>, _) =
        tia_par::par_map_stats_with(workers, &configs, |config| {
            let activity = source.measure(config);
            sweep_config(config, activity, &grid)
        });
    let mut points = Vec::with_capacity(per_config.iter().map(Vec::len).sum());
    for chunk in per_config {
        points.extend(chunk);
    }
    (points, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_core::Pipeline;

    fn flat_cpi(_: &UarchConfig) -> CpiMeasurement {
        CpiMeasurement {
            cpi: 1.5,
            issue_rate: 0.67,
            ..CpiMeasurement::default()
        }
    }

    #[test]
    fn infeasible_frequencies_are_rejected() {
        let config = UarchConfig::base(Pipeline::T_D_X1_X2);
        // ~1184 MHz limit at SVT nominal.
        assert!(evaluate(
            &config,
            VtClass::Standard,
            1.0,
            1100.0,
            CpiMeasurement::ideal()
        )
        .is_some());
        assert!(evaluate(
            &config,
            VtClass::Standard,
            1.0,
            1300.0,
            CpiMeasurement::ideal()
        )
        .is_none());
    }

    #[test]
    fn units_are_consistent() {
        let config = UarchConfig::base(Pipeline::T_DX);
        let p = evaluate(
            &config,
            VtClass::Standard,
            1.0,
            500.0,
            CpiMeasurement::ideal(),
        )
        .expect("feasible");
        // pJ/inst = mW × ns/inst by construction.
        assert!((p.pj_per_inst - p.power_mw * p.ns_per_inst).abs() < 1e-9);
        // 500 MHz at CPI 1 ⇒ 2 ns/instruction.
        assert!((p.ns_per_inst - 2.0).abs() < 1e-9);
        assert!(p.power_mw > 1.0 && p.power_mw < 10.0, "{}", p.power_mw);
    }

    #[test]
    fn lower_voltage_saves_energy_at_iso_frequency() {
        let config = UarchConfig::base(Pipeline::T_DX);
        let hi = evaluate(
            &config,
            VtClass::Standard,
            1.0,
            200.0,
            CpiMeasurement::ideal(),
        )
        .unwrap();
        let lo = evaluate(
            &config,
            VtClass::Standard,
            0.7,
            200.0,
            CpiMeasurement::ideal(),
        )
        .unwrap();
        assert!(lo.pj_per_inst < hi.pj_per_inst);
    }

    #[test]
    fn exploration_covers_over_4000_points() {
        let mut source = flat_cpi;
        let points = explore(&mut source);
        assert!(
            points.len() > 4_000,
            "only {} feasible design points",
            points.len()
        );
        // And they span a wide energy/delay range (paper: 71× / 225×,
        // but that is with per-microarchitecture CPI; even flat CPI
        // must span well over an order of magnitude).
        let (mut emin, mut emax) = (f64::INFINITY, 0.0f64);
        let (mut dmin, mut dmax) = (f64::INFINITY, 0.0f64);
        for p in &points {
            emin = emin.min(p.pj_per_inst);
            emax = emax.max(p.pj_per_inst);
            dmin = dmin.min(p.ns_per_inst);
            dmax = dmax.max(p.ns_per_inst);
        }
        assert!(emax / emin > 10.0);
        assert!(dmax / dmin > 50.0);
    }

    /// A CPI that depends on pipeline depth, +P and +Q, so a
    /// measurement handed to the wrong configuration changes the points.
    fn config_cpi(config: &UarchConfig) -> CpiMeasurement {
        let depth = config.pipeline.depth() as f64;
        let p = f64::from(u8::from(config.predicate_prediction));
        let q = f64::from(u8::from(config.effective_queue_status));
        let cpi = 1.2 + 0.3 * depth - 0.15 * p - 0.05 * q;
        CpiMeasurement {
            cpi,
            issue_rate: 1.0 / cpi,
            ..CpiMeasurement::default()
        }
    }

    #[test]
    fn par_explore_is_bit_identical_to_explore() {
        let mut serial_source = config_cpi;
        let serial = explore(&mut serial_source);
        let default_run = (tia_par::worker_count(), par_explore(&config_cpi));
        let runs = [1, 2, 4].map(|w| (w, par_explore_with(w, &config_cpi)));
        for (workers, parallel) in std::iter::once(default_run).chain(runs) {
            assert_eq!(serial.len(), parallel.len(), "{workers} workers");
            let diverged = serial.iter().zip(&parallel).position(|(a, b)| a != b);
            assert_eq!(
                diverged, None,
                "{workers} workers: ordering or values diverge"
            );
        }
    }

    #[test]
    fn subthreshold_sweep_includes_10mhz_steps() {
        let freqs = frequency_sweep_mhz(VtClass::High, 0.4);
        assert!(freqs.contains(&10.0));
        assert!(freqs.contains(&50.0));
        let svt = frequency_sweep_mhz(VtClass::Standard, 1.0);
        assert!(!svt.contains(&10.0));
        assert_eq!(svt.first().copied(), Some(50.0));
        assert_eq!(svt.last().copied(), Some(1500.0));
    }
}
