//! Regenerates **Figure 4**: datapath predicate write frequency and
//! prediction accuracy per benchmark workload.
//!
//! Measured on the T|DX pipeline with both optimizations (the paper's
//! dominant balanced design); prediction accuracy is a property of the
//! predictor and the workload's branch structure, not of the pipeline
//! depth.

use serde::Serialize;
use tia_bench::{suite_keys, write_json, Args, RunStore, Table};
use tia_core::{Pipeline, UarchConfig};
use tia_workloads::ALL_WORKLOADS;

#[derive(Serialize)]
struct PredictionPoint {
    workload: String,
    predicate_write_frequency: f64,
    /// `None` when the workload makes no datapath predicate writes.
    prediction_accuracy: Option<f64>,
}

fn main() {
    let args = Args::from_env(&[]);
    let config = UarchConfig::with_pq(Pipeline::T_DX);
    let mut t = Table::new(&["workload", "pred. write freq.", "prediction accuracy"]);
    let mut points: Vec<PredictionPoint> = Vec::new();
    let mut freq_sum = 0.0;
    let mut acc_sum = 0.0;
    let mut acc_count = 0usize;
    let store = RunStore::from_args(&args);
    let runs = store.runs(&suite_keys(&[config]));
    store.report();
    for run in &runs {
        let kind = run.kind;
        let c = run.counters;
        let freq = c.predicate_write_frequency();
        let acc = c.prediction_accuracy();
        points.push(PredictionPoint {
            workload: kind.name().to_string(),
            predicate_write_frequency: freq,
            prediction_accuracy: if acc.is_nan() { None } else { Some(acc) },
        });
        freq_sum += freq;
        let acc_text = if acc.is_nan() {
            "- (no predicate writes)".to_string()
        } else {
            acc_sum += acc;
            acc_count += 1;
            format!("{:.1}%", 100.0 * acc)
        };
        t.row_owned(vec![
            kind.name().to_string(),
            format!("{:.1}%", 100.0 * freq),
            acc_text,
        ]);
    }
    t.row_owned(vec![
        "average".to_string(),
        format!("{:.1}%", 100.0 * freq_sum / ALL_WORKLOADS.len() as f64),
        format!("{:.1}%", 100.0 * acc_sum / acc_count.max(1) as f64),
    ]);
    println!("Figure 4: predicate write frequency and prediction accuracy ({config}).");
    println!("(Paper: ~20% average write rate — 'almost exactly the rate of dynamic");
    println!(" branches found in standard single-threaded workloads such as SPEC';");
    println!(" filter and merge are the ~50% worst case; gcd, stream and mean are");
    println!(" near-perfect; dot_product makes no datapath predicate writes.)\n");
    print!("{}", t.render());
    if let Some(path) = args.json() {
        write_json(path, &points);
    }
}
