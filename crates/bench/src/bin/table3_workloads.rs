//! Regenerates **Table 3**: the ten PE-centric microbenchmarks, each
//! run to completion on the functional model and verified against its
//! golden results; reports the worker PE's dynamic instruction count
//! and cycle count (§3: "dynamic instruction counts vary from 20,003
//! for dot product to 411,540 for gcd. The total number of cycles ...
//! maxes out at approximately 700,000").

use tia_bench::{Args, Table};
use tia_isa::Params;
use tia_sim::FuncPe;
use tia_workloads::{WorkloadKind, ALL_WORKLOADS};

fn main() {
    let args = Args::from_env(&[]);
    let params = Params::default();
    let mut t = Table::new(&[
        "workload",
        "PEs",
        "worker dynamic ins.",
        "worker cycles",
        "pred. writes",
        "result",
    ]);
    let mut sorted: Vec<WorkloadKind> = ALL_WORKLOADS.to_vec();
    sorted.sort_by_key(|w| w.name());
    // Each workload runs independently on the functional model; fan
    // them across the pool and emit rows in the sorted order.
    let rows = tia_par::par_map(&sorted, |&kind| {
        let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
        let mut built = kind
            .build(&params, args.scale(), &mut factory)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let outcome = built.run_to_completion();
        let c = built.system.pe(built.worker).counters();
        vec![
            kind.name().to_string(),
            kind.num_pes().to_string(),
            c.retired.to_string(),
            c.cycles.to_string(),
            format!("{:.1}%", 100.0 * c.predicate_write_frequency()),
            match outcome {
                Ok(()) => "verified".to_string(),
                Err(e) => format!("FAILED: {e}"),
            },
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    println!("Table 3: the PE-centric benchmark suite (functional model).\n");
    print!("{}", t.render());
    println!();
    for kind in ALL_WORKLOADS {
        println!("{:14} {}", kind.name(), kind.description());
    }
}
