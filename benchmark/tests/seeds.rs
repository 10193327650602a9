//! Seeded inputs build, run and pass the golden check on both PE
//! models, so any seed the benchmark is given yields a valid workload.

use tia_benchmark::seeded;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_isa::Params;
use tia_sim::FuncPe;
use tia_workloads::{Scale, ALL_WORKLOADS};

#[test]
fn seeds_one_to_eight_pass_the_golden_check() {
    let params = Params::default();
    let config = UarchConfig::with_pq(Pipeline::T_D_X1_X2);
    for seed in 1..=8 {
        for kind in ALL_WORKLOADS {
            let mut func = |p: &Params, prog| FuncPe::new(p, prog);
            let mut built = seeded::build(kind, Scale::Test, seed, &params, &mut func)
                .unwrap_or_else(|e| panic!("{kind} seed {seed}: {e}"));
            built
                .run_to_completion()
                .unwrap_or_else(|e| panic!("{kind} seed {seed} on FuncPe: {e}"));

            let mut uarch = |p: &Params, prog| UarchPe::new(p, config, prog);
            let mut built = seeded::build(kind, Scale::Test, seed, &params, &mut uarch)
                .unwrap_or_else(|e| panic!("{kind} seed {seed}: {e}"));
            built
                .run_to_completion()
                .unwrap_or_else(|e| panic!("{kind} seed {seed} on {config}: {e}"));
        }
    }
}

#[test]
fn seed_zero_reproduces_the_paper_inputs() {
    let params = Params::default();
    for kind in ALL_WORKLOADS {
        let mut probe = |p: &Params, prog| tia_workloads::ProbePe::new(p, prog);
        let ours = seeded::build(kind, Scale::Test, 0, &params, &mut probe).unwrap();
        let theirs = kind.build(&params, Scale::Test, &mut probe).unwrap();
        assert_eq!(ours.expected, theirs.expected, "{kind}");
        assert_eq!(
            ours.system.memory().words(),
            theirs.system.memory().words(),
            "{kind}"
        );
    }
}
