//! Regenerates **Figure 5**: CPI stacks of the seven pipelined
//! microarchitectures (plus single-cycle TDX) with the predicate
//! prediction (+P) and effective queue status (+Q) optimizations
//! selectively enabled, averaged over the ten workloads.

use serde::Serialize;
use tia_bench::{activity_of, suite_keys, write_json, Args, RunStore, Table};
use tia_core::{CpiStack, Pipeline, UarchConfig};
use tia_prof::{Leaf, LeafShares};
use tia_workloads::ALL_WORKLOADS;

#[derive(Serialize)]
struct StackPoint {
    microarchitecture: String,
    cpi: f64,
    stack: CpiStack,
    /// Suite-averaged hierarchical cycle-stack shares (the profiler
    /// taxonomy, normalized to total cycles).
    cycle_stack: LeafShares,
    /// Dominant cycle-stack leaf of the averaged run.
    bottleneck: Leaf,
}

fn main() {
    let args = Args::from_env(&[]);
    let mut configs: Vec<UarchConfig> = Vec::new();
    for pipeline in Pipeline::ALL {
        if pipeline == Pipeline::TDX {
            configs.push(UarchConfig::base(Pipeline::TDX));
        } else {
            configs.push(UarchConfig::base(pipeline));
            configs.push(UarchConfig::with_p(pipeline));
            configs.push(UarchConfig::with_pq(pipeline));
        }
    }

    // One run per (microarchitecture, workload) cell; each bar
    // averages its ten runs in workload order.
    let store = RunStore::from_args(&args);
    let runs = store.runs(&suite_keys(&configs));
    store.report();
    let averages: Vec<(CpiStack, LeafShares)> = runs
        .chunks(ALL_WORKLOADS.len())
        .map(|chunk| {
            let cpi: Vec<CpiStack> = chunk.iter().map(|r| r.counters.cpi_stack()).collect();
            (CpiStack::average(&cpi), activity_of(chunk).stack)
        })
        .collect();

    let mut t = Table::new(&[
        "microarchitecture",
        "CPI",
        "retired",
        "quashed",
        "pred. haz.",
        "data haz.",
        "forbidden",
        "no trig.",
        "bottleneck",
    ]);
    let mut points: Vec<StackPoint> = Vec::new();
    println!("Figure 5: CPI stacks (average over the ten workloads).\n");
    for (config, (s, shares)) in configs.iter().zip(&averages) {
        let bottleneck = shares.bottleneck();
        points.push(StackPoint {
            microarchitecture: config.to_string(),
            cpi: s.total(),
            stack: *s,
            cycle_stack: *shares,
            bottleneck,
        });
        t.row_owned(vec![
            config.to_string(),
            format!("{:.3}", s.total()),
            format!("{:.3}", s.retired),
            format!("{:.3}", s.quashed),
            format!("{:.3}", s.predicate_hazard),
            format!("{:.3}", s.data_hazard),
            format!("{:.3}", s.forbidden),
            format!("{:.3}", s.not_triggered),
            bottleneck.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
    if let Some(path) = args.json() {
        write_json(path, &points);
    }

    // The paper's headline: the two optimizations together reduce the
    // 4-stage pipeline's CPI by 35%. Both configurations are already
    // in the table above.
    let total_of = |wanted: UarchConfig| -> f64 {
        let i = configs.iter().position(|&c| c == wanted).expect("in table");
        averages[i].0.total()
    };
    let base = total_of(UarchConfig::base(Pipeline::T_D_X1_X2));
    let pq = total_of(UarchConfig::with_pq(Pipeline::T_D_X1_X2));
    println!(
        "T|D|X1|X2 CPI: base {base:.3} -> +P+Q {pq:.3} ({:.0}% reduction; paper: 35%)",
        100.0 * (1.0 - pq / base)
    );
}
