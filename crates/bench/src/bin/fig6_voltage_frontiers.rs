//! Regenerates **Figure 6**: energy-delay frontiers for each supply
//! voltage in the design space, with `bst`-derived activity as in §3.

use tia_bench::{Args, RunStore, Table};
use tia_energy::dse::{par_explore, DesignPoint};
use tia_energy::pareto::{pareto_frontier, span};

fn main() {
    let args = Args::from_env(&[]);
    let runs = RunStore::from_args(&args);
    let points = par_explore(&runs.population_activity());
    runs.report();
    println!(
        "Figure 6: per-voltage energy-delay frontiers over {} feasible design points.\n",
        points.len()
    );

    let mut voltages: Vec<f64> = points.iter().map(|p| p.vdd).collect();
    voltages.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    voltages.dedup();

    for vdd in voltages {
        let subset: Vec<DesignPoint> = points.iter().copied().filter(|p| p.vdd == vdd).collect();
        let frontier = pareto_frontier(&subset);
        println!(
            "VDD = {vdd:.1} V ({} points, {} on frontier):",
            subset.len(),
            frontier.len()
        );
        let mut t = Table::new(&["design", "VT", "MHz", "ns/inst", "pJ/inst"]);
        for p in &frontier {
            t.row_owned(vec![
                p.config.to_string(),
                p.vt.to_string(),
                format!("{:.0}", p.freq_mhz),
                format!("{:.2}", p.ns_per_inst),
                format!("{:.2}", p.pj_per_inst),
            ]);
        }
        print!("{}", t.render());
        println!();
    }

    let (e_span, d_span) = span(&points);
    println!("overall span: {e_span:.0}x in energy, {d_span:.0}x in delay (paper: 71x and 225x)");
}
