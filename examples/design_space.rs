//! A miniature of the paper's §5.4 energy-delay analysis: sweep the
//! design space with `bst`-derived activity and print the Pareto
//! frontier (Figures 6–8 are regenerated in full by the `tia-bench`
//! binaries; this example uses the small test inputs so it finishes in
//! seconds).
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use tia::core::{UarchConfig, UarchPe};
use tia::energy::dse::{explore, CpiMeasurement};
use tia::energy::pareto::{pareto_frontier, span};
use tia::isa::Params;
use tia::workloads::{Scale, WorkloadKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::default();
    let mut bst_activity = |config: &UarchConfig| -> CpiMeasurement {
        let mut factory = |p: &Params, prog| UarchPe::new(p, *config, prog);
        let mut built = WorkloadKind::Bst
            .build(&params, Scale::Test, &mut factory)
            .expect("bst builds");
        built.run_to_completion().expect("bst runs");
        let c = built.system.pe(built.worker).counters();
        CpiMeasurement {
            cpi: c.cpi(),
            issue_rate: (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64,
            ..CpiMeasurement::default()
        }
    };

    let points = explore(&mut bst_activity);
    let frontier = pareto_frontier(&points);
    let (e_span, d_span) = span(&points);

    println!(
        "explored {} feasible design points ({}x energy span, {}x delay span)",
        points.len(),
        e_span.round(),
        d_span.round()
    );
    println!("Pareto frontier ({} designs):", frontier.len());
    println!(
        "  {:22} {:4} {:5} {:>8} {:>9} {:>9} {:>9}",
        "design", "VT", "Vdd", "MHz", "ns/inst", "pJ/inst", "mW/mm2"
    );
    for p in &frontier {
        println!(
            "  {:22} {:4} {:5.1} {:8.0} {:9.2} {:9.2} {:9.1}",
            p.config.to_string(),
            p.vt.to_string(),
            p.vdd,
            p.freq_mhz,
            p.ns_per_inst,
            p.pj_per_inst,
            p.power_density()
        );
    }
    Ok(())
}
