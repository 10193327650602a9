//! Exports the full design-space exploration as JSON for external
//! plotting (the Figure 6/7/8 scatter data).
//!
//! ```text
//! cargo run --release -p tia-bench --bin dse_export \
//!     [--test-scale] [-o points.json] [--store store.bin] [--expect-warm]
//! ```
//!
//! With `--store PATH` (or the `TIA_STORE` environment variable),
//! every run behind the suite-averaged activity is keyed through the
//! measurement store at `PATH` (see docs/performance.md): stored runs
//! are decoded, only runs whose canonical input hash is absent are
//! simulated, and a warm re-run produces byte-identical output while
//! simulating nothing. An interrupted run resumes the same way — the
//! store is append-only, so whatever completed before the interrupt is
//! never re-simulated.
//!
//! `--expect-warm` turns the run into a cache-integrity gate: the
//! process exits nonzero if any run had to be simulated (CI runs a
//! sweep twice against one store and asserts the second run is fully
//! warm with byte-identical output).

use std::fs;
use std::process::ExitCode;

use tia_bench::{Args, Opt, RunStore};
use tia_energy::dse::par_explore;
use tia_energy::pareto::pareto_frontier;

fn main() -> ExitCode {
    let args = Args::from_env(&[Opt::Value("-o", "FILE"), Opt::Switch("--expect-warm")]);
    let output = args.value("-o");
    let expect_warm = args.switch("--expect-warm");

    let runs = RunStore::from_args(&args);
    if expect_warm && runs.store().is_none() {
        eprintln!("dse_export: --expect-warm needs --store PATH (or TIA_STORE)");
        return ExitCode::FAILURE;
    }
    let points = par_explore(&runs.population_activity());
    runs.report();
    if expect_warm && runs.simulated() > 0 {
        eprintln!(
            "dse_export: --expect-warm, but {} run(s) were not in the store \
             and had to be simulated",
            runs.simulated()
        );
        return ExitCode::FAILURE;
    }
    // The JSON export below is this process's memory peak; release the
    // store's in-memory index before it.
    drop(runs);
    let frontier = pareto_frontier(&points);

    #[derive(serde::Serialize)]
    struct Export<'a> {
        points: &'a [tia_energy::DesignPoint],
        pareto_frontier: &'a [tia_energy::DesignPoint],
    }
    let json = serde_json::to_string_pretty(&Export {
        points: &points,
        pareto_frontier: &frontier,
    })
    .expect("design points serialize");

    match output {
        Some(path) => {
            fs::write(path, &json).expect("write output file");
            eprintln!(
                "wrote {} design points ({} Pareto-optimal) to {path}",
                points.len(),
                frontier.len()
            );
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
