//! **Ablation (§6 extension): nested speculation.**
//!
//! The paper: "Our initial exploration suggests that it would not be
//! terribly expensive to support nested speculation, and we would like
//! to examine the effect of this addition on decreasing the number of
//! forbidden instructions in deep pipelines." This harness examines
//! exactly that: CPI and the forbidden-instruction component across
//! speculation depths 1 (the paper's unit) through 4, on the three
//! deepest pipelines.
//!
//! Most of its runs are never gated by the nesting limit, so the run
//! store answers them from the run at a lower depth (see
//! `tia_core::ConfigWitness`): a cold suite simulates 16 of the 90
//! runs at depths 2-4.

use tia_bench::{suite_keys, Args, RunStore, Table};
use tia_core::{CpiStack, Pipeline, UarchConfig};
use tia_workloads::ALL_WORKLOADS;

fn main() {
    let args = Args::from_env(&[]);
    println!("Ablation: speculation nesting depth (suite average).\n");
    let mut t = Table::new(&[
        "pipeline",
        "depth",
        "CPI",
        "forbidden",
        "quashed",
        "no trig.",
    ]);
    let mut variants: Vec<(Pipeline, u8)> = Vec::new();
    for pipeline in [Pipeline::T_DX1_X2, Pipeline::T_D_X, Pipeline::T_D_X1_X2] {
        for depth in 1..=4u8 {
            variants.push((pipeline, depth));
        }
    }
    // One run per (variant, workload) cell; suite averages fall out
    // of the ordered merge.
    let configs: Vec<UarchConfig> = variants
        .iter()
        .map(|&(pipeline, depth)| UarchConfig::with_nested(pipeline, depth))
        .collect();
    let store = RunStore::from_args(&args);
    let runs = store.runs(&suite_keys(&configs));
    store.report();
    let averages: Vec<CpiStack> = runs
        .chunks(ALL_WORKLOADS.len())
        .map(|chunk| {
            let stacks: Vec<CpiStack> = chunk.iter().map(|r| r.counters.cpi_stack()).collect();
            CpiStack::average(&stacks)
        })
        .collect();
    for (&(pipeline, depth), s) in variants.iter().zip(&averages) {
        t.row_owned(vec![
            pipeline.to_string(),
            depth.to_string(),
            format!("{:.3}", s.total()),
            format!("{:.3}", s.forbidden),
            format!("{:.3}", s.quashed),
            format!("{:.3}", s.not_triggered),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("(depth 1 = the paper's non-nested speculative predicate unit; deeper");
    println!(" entries implement the §6 extension. The paper predicts the forbidden");
    println!(" component shrinks with nesting, at the cost of deeper rollback state.)");
}
