//! **Ablation: predictor design in the speculative predicate unit.**
//!
//! The paper fixes a two-bit saturating counter per predicate (§5.2);
//! this harness compares it against one-bit and static predictors on
//! the deepest pipeline, per workload.

use tia_bench::{Args, RunKey, RunStore, Table};
use tia_core::{Pipeline, PredictorKind, UarchConfig};
use tia_workloads::ALL_WORKLOADS;

fn main() {
    let args = Args::from_env(&[]);
    println!("Ablation: predicate predictor design (T|D|X1|X2 +P+Q).\n");
    let mut t = Table::new(&[
        "workload",
        "2-bit acc",
        "2-bit CPI",
        "1-bit acc",
        "1-bit CPI",
        "taken CPI",
        "not-taken CPI",
    ]);
    let mut avg = [0.0f64; 4];
    // One run per (workload, predictor) pair.
    let keys: Vec<RunKey> = ALL_WORKLOADS
        .iter()
        .flat_map(|&kind| {
            PredictorKind::ALL.iter().map(move |&p| {
                RunKey::new(kind, UarchConfig::with_predictor(Pipeline::T_D_X1_X2, p))
            })
        })
        .collect();
    let store = RunStore::from_args(&args);
    let runs = store.runs(&keys);
    store.report();
    let predictors = PredictorKind::ALL.len();
    for (w, kind) in ALL_WORKLOADS.iter().enumerate() {
        let mut cells = vec![kind.name().to_string()];
        for i in 0..predictors {
            let c = runs[w * predictors + i].counters;
            if i < 2 {
                let acc = c.prediction_accuracy();
                cells.push(if acc.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.0}%", 100.0 * acc)
                });
            }
            cells.push(format!("{:.3}", c.cpi()));
            avg[i] += c.cpi();
        }
        t.row_owned(cells);
    }
    print!("{}", t.render());
    println!();
    let n = ALL_WORKLOADS.len() as f64;
    println!(
        "suite-average CPI: 2-bit {:.3}, 1-bit {:.3}, always-taken {:.3}, always-not-taken {:.3}",
        avg[0] / n,
        avg[1] / n,
        avg[2] / n,
        avg[3] / n
    );
    println!("(the 2-bit counter's hysteresis is what tolerates the single");
    println!(" fall-through of long loops — the paper's best-case workloads)");
}
