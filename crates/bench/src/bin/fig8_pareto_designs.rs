//! Regenerates **Figure 8**: parametric analysis of the
//! Pareto-optimal designs, including the §5.4 power-density
//! comparison against 65 nm CPUs and GPUs.

use tia_bench::{Args, RunStore, Table};
use tia_energy::dse::par_explore;
use tia_energy::pareto::{density_context, pareto_frontier, span};

fn main() {
    let args = Args::from_env(&[]);
    let runs = RunStore::from_args(&args);
    let points = par_explore(&runs.population_activity());
    runs.report();
    let frontier = pareto_frontier(&points);

    println!(
        "Figure 8: the {} Pareto-optimal designs of {} feasible points.\n",
        frontier.len(),
        points.len()
    );
    let mut t = Table::new(&[
        "design",
        "VT",
        "Vdd",
        "MHz",
        "ns/inst",
        "pJ/inst",
        "mW",
        "mm2",
        "mW/mm2",
        "ED (pJ*ns)",
    ]);
    for p in &frontier {
        t.row_owned(vec![
            p.config.to_string(),
            p.vt.to_string(),
            format!("{:.1}", p.vdd),
            format!("{:.0}", p.freq_mhz),
            format!("{:.2}", p.ns_per_inst),
            format!("{:.2}", p.pj_per_inst),
            format!("{:.2}", p.power_mw),
            format!("{:.4}", p.area_mm2),
            format!("{:.1}", p.power_density()),
            format!("{:.2}", p.ed_product()),
        ]);
    }
    print!("{}", t.render());

    let fastest = frontier.first().expect("non-empty frontier");
    let most_frugal = frontier.last().expect("non-empty frontier");
    let max_density = frontier
        .iter()
        .map(|p| p.power_density())
        .fold(0.0f64, f64::max);
    let (e_span, d_span) = span(&points);

    println!();
    println!(
        "highest performance: {} ({}, {:.1} V) at {:.2} ns/inst, {:.2} pJ/inst",
        fastest.config, fastest.vt, fastest.vdd, fastest.ns_per_inst, fastest.pj_per_inst
    );
    println!("  (paper: TDX1|X2 +Q, LVT, 1157 MHz: 1.37 ns/inst at 21.42 pJ/inst)");
    println!(
        "lowest energy:       {} ({}, {:.1} V) at {:.2} pJ/inst, {:.2} ns/inst",
        most_frugal.config,
        most_frugal.vt,
        most_frugal.vdd,
        most_frugal.pj_per_inst,
        most_frugal.ns_per_inst
    );
    println!("  (paper: the same TDX1|X2 +Q microarchitecture in HVT: 0.89 pJ/inst)");
    println!(
        "max frontier power density: {max_density:.1} mW/mm² (paper: 167.6); context: \
         65 nm CPU mean {} / max {}, GPU max {} mW/mm²",
        density_context::CPU_MEAN,
        density_context::CPU_MAX,
        density_context::GPU_MAX
    );
    println!("energy-delay span: {e_span:.0}x energy, {d_span:.0}x delay (paper: 71x / 225x)");
}
