//! Regenerates **Figure 7**: the benefit of adding predicate
//! prediction (+P) and queue status accounting (+Q) at the Pareto
//! frontier of the energy-delay tradeoff, in the balanced region near
//! the origin (§5.4: "the addition of both ... improves the frontier
//! by 20-25% in both energy and delay").

use serde::Serialize;
use tia_bench::{json_out_from_args, scale_from_args, write_json, RunStore, Table};
use tia_core::UarchConfig;
use tia_energy::dse::{par_explore, DesignPoint};
use tia_energy::pareto::{frontier_energy_improvement, pareto_frontier};

#[derive(Serialize)]
struct FrontierPoint {
    design: String,
    vt: String,
    vdd: f64,
    freq_mhz: f64,
    ns_per_inst: f64,
    pj_per_inst: f64,
}

#[derive(Serialize)]
struct Frontier {
    features: String,
    energy_improvement: f64,
    points: Vec<FrontierPoint>,
}

fn frontier_points(frontier: &[DesignPoint]) -> Vec<FrontierPoint> {
    frontier
        .iter()
        .map(|p| FrontierPoint {
            design: p.config.pipeline.to_string(),
            vt: p.vt.to_string(),
            vdd: p.vdd,
            freq_mhz: p.freq_mhz,
            ns_per_inst: p.ns_per_inst,
            pj_per_inst: p.pj_per_inst,
        })
        .collect()
}

fn main() {
    let scale = scale_from_args();
    let runs = RunStore::from_args(scale);
    let points = par_explore(&|c: &UarchConfig| runs.suite_activity(c));
    runs.report();

    // The balanced region of Figure 7: delays up to 10 ns/instruction.
    let balanced: Vec<DesignPoint> = points
        .iter()
        .copied()
        .filter(|p| p.ns_per_inst <= 10.0)
        .collect();

    let select = |p_on: bool, q_on: bool| -> Vec<DesignPoint> {
        pareto_frontier(
            &balanced
                .iter()
                .copied()
                .filter(|p| {
                    p.config.predicate_prediction == p_on && p.config.effective_queue_status == q_on
                })
                .collect::<Vec<_>>(),
        )
    };
    let none = select(false, false);
    let p_only = select(true, false);
    let q_only = select(false, true);
    let pq = select(true, true);

    println!("Figure 7: balanced-region (≤ 10 ns/inst) frontiers by feature setting.\n");
    for (name, frontier) in [
        ("None", &none),
        ("+P", &p_only),
        ("+Q", &q_only),
        ("+P+Q", &pq),
    ] {
        println!("{name} frontier:");
        let mut t = Table::new(&["design", "VT", "VDD", "MHz", "ns/inst", "pJ/inst"]);
        for p in frontier.iter() {
            t.row_owned(vec![
                p.config.pipeline.to_string(),
                p.vt.to_string(),
                format!("{:.1}", p.vdd),
                format!("{:.0}", p.freq_mhz),
                format!("{:.2}", p.ns_per_inst),
                format!("{:.2}", p.pj_per_inst),
            ]);
        }
        print!("{}", t.render());
        println!();
    }

    let optimized = pareto_frontier(
        &balanced
            .iter()
            .copied()
            .filter(|p| p.config.predicate_prediction || p.config.effective_queue_status)
            .collect::<Vec<_>>(),
    );
    println!("mean frontier energy improvement over the unoptimized frontier:");
    for (name, frontier) in [
        ("+P", &p_only),
        ("+Q", &q_only),
        ("+P+Q", &pq),
        ("best of +P/+Q/+P+Q", &optimized),
    ] {
        println!(
            "  {name:20} {:+.0}%",
            100.0 * frontier_energy_improvement(&none, frontier)
        );
    }
    println!("(paper: the optimizations improve the balanced frontier by 20-25% in both");
    println!(" energy and delay, with +Q alone optimal at the high-performance extreme)");

    if let Some(path) = json_out_from_args() {
        let frontiers: Vec<Frontier> = [
            ("None", &none),
            ("+P", &p_only),
            ("+Q", &q_only),
            ("+P+Q", &pq),
        ]
        .into_iter()
        .map(|(name, frontier)| Frontier {
            features: name.to_string(),
            energy_improvement: frontier_energy_improvement(&none, frontier),
            points: frontier_points(frontier),
        })
        .collect();
        write_json(&path, &frontiers);
    }
}
