//! Criterion bench: serial vs parallel design-space exploration with
//! the real `bst`-backed activity source (test scale), the workload
//! the paper uses for activity extraction. `par_1w` measures the
//! engine's overhead at one worker (it runs serially in-place);
//! `par_2w`/`par_4w` show scaling where cores are available.

use criterion::{criterion_group, criterion_main, Criterion};
use tia_bench::{activity_of, run_uarch_workload, RunKey};
use tia_core::UarchConfig;
use tia_energy::dse::{explore, par_explore_with};
use tia_workloads::{Scale, WorkloadKind};

fn bench_dse_scaling(c: &mut Criterion) {
    let source = |config: &UarchConfig| {
        let key = RunKey::new(WorkloadKind::Bst, *config);
        activity_of(&[run_uarch_workload(&key, Scale::Test)])
    };
    let mut group = c.benchmark_group("dse_scaling");
    group.bench_function("serial", |b| {
        b.iter(|| {
            let mut measure = |config: &UarchConfig| source(config);
            explore(&mut measure)
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("par_{workers}w"), |b| {
            b.iter(|| par_explore_with(workers, &source))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dse_scaling);
criterion_main!(benches);
