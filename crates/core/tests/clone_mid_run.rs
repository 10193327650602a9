//! A PE cloned mid-run continues exactly as the original does. Each PE
//! holds its program by value, so a clone deep-copies the program and
//! its compiled form instead of sharing them: the clone must carry
//! every piece of state the next cycles read.
//!
//! Two identical systems of a queue-heavy workload step side by side.
//! Half way through the run, every PE of the second system is replaced
//! by a clone of the matching PE of the first, and both step on to the
//! end. Each PE pair must then agree on its counters, its retirement
//! trace and its serialized snapshot.

use std::fmt::Debug;

use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::{ProcessingElement, System};
use tia_isa::{IsaError, Params, Program};
use tia_sim::FuncPe;
use tia_workloads::{Scale, WorkloadKind};

/// Three PEs exchanging tagged tokens every few cycles.
const KIND: WorkloadKind = WorkloadKind::DotProduct;

fn step_n<P: ProcessingElement>(system: &mut System<P>, cycles: u64) {
    for _ in 0..cycles {
        system.step();
    }
}

/// Builds two copies of [`KIND`] from `make`, swaps clones into the
/// second half way through the run, and compares what `observe`
/// reports for every PE pair at the end. `observe` returns the PE's
/// counters, retirement trace and JSON snapshot.
fn assert_clone_continues<P, C>(
    label: &str,
    mut make: impl FnMut(&Params, Program) -> Result<P, IsaError>,
    observe: impl Fn(&P) -> (C, Vec<u16>, String),
) where
    P: ProcessingElement + Clone,
    C: PartialEq + Debug,
{
    let params = Params::default();
    let mut build = || {
        KIND.build(&params, Scale::Test, &mut make)
            .unwrap_or_else(|e| panic!("{label}: build failed: {e}"))
    };
    let mut probe = build();
    probe
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let total = probe.system.cycle();

    let mut original = build();
    let mut cloned = build();
    step_n(&mut original.system, total / 2);
    step_n(&mut cloned.system, total / 2);

    let pes = original.system.num_pes();
    let retired_at_split = observe(original.system.pe(original.worker)).1.len();
    for pe in 0..pes {
        *cloned.system.pe_mut(pe) = original.system.pe(pe).clone();
    }
    step_n(&mut original.system, total - total / 2);
    step_n(&mut cloned.system, total - total / 2);

    let worker_trace = observe(original.system.pe(original.worker)).1;
    assert!(
        retired_at_split > 0 && worker_trace.len() > retired_at_split,
        "{label}: the clone must happen mid-run ({retired_at_split} then {} retired)",
        worker_trace.len()
    );
    for pe in 0..pes {
        let (counters, trace, snapshot) = observe(original.system.pe(pe));
        let (clone_counters, clone_trace, clone_snapshot) = observe(cloned.system.pe(pe));
        assert_eq!(counters, clone_counters, "{label}: PE {pe} counters");
        assert_eq!(trace, clone_trace, "{label}: PE {pe} retirement trace");
        assert_eq!(snapshot, clone_snapshot, "{label}: PE {pe} snapshot");
    }
}

#[test]
fn pipelined_pq_clone_continues_identically() {
    let config = UarchConfig::with_pq(Pipeline::T_D_X1_X2);
    assert_clone_continues(
        "T|D|X1|X2 +P+Q",
        |params, program| {
            let mut pe = UarchPe::new(params, config, program)?;
            pe.record_trace(true);
            Ok(pe)
        },
        |pe: &UarchPe| {
            let snapshot = serde_json::to_string(&pe.snapshot()).expect("serializes");
            (*pe.counters(), pe.trace().to_vec(), snapshot)
        },
    );
}

#[test]
fn functional_clone_continues_identically() {
    assert_clone_continues(
        "FuncPe",
        |params, program| {
            let mut pe = FuncPe::new(params, program)?;
            pe.record_trace(true);
            Ok(pe)
        },
        |pe: &FuncPe| {
            let snapshot = serde_json::to_string(&pe.snapshot()).expect("serializes");
            (*pe.counters(), pe.trace().to_vec(), snapshot)
        },
    );
}
