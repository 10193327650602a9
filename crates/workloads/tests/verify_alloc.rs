//! Model-checker exploration allocates nothing per state or per
//! transition. A counting global allocator is armed around
//! `verify_system` on a workload fabric whose state space outgrows the
//! bound, at two bounds four times apart. What it counts — building the
//! model, the explorer's containers doubling, and the findings — stays
//! a small constant while the states and transitions explored
//! quadruple.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tia_fabric::ProcessingElement;
use tia_isa::{Params, Program};
use tia_verify::{verify_system, SeedToken, VerifyOptions, VerifyReport};
use tia_workloads::{ProbePe, Scale, WorkloadKind};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting armed and returns how many heap
/// allocations it performed, with its result.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let result = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

#[test]
fn capped_exploration_allocates_only_to_grow_its_containers() {
    let params = Params::default();
    let mut factory = |p: &Params, prog| ProbePe::new(p, prog);
    let mut built = WorkloadKind::Filter
        .build(&params, Scale::Test, &mut factory)
        .expect("filter builds");
    let programs: Vec<Program> = (0..built.system.num_pes())
        .map(|pe| built.system.pe(pe).program().clone())
        .collect();
    let mut seed_tokens = Vec::new();
    for pe in 0..programs.len() {
        for queue in 0..params.num_input_queues {
            for token in built.system.pe_mut(pe).input_queue_mut(queue).iter() {
                seed_tokens.push(SeedToken {
                    pe,
                    queue,
                    tag: token.tag,
                });
            }
        }
    }
    let links = built.system.links().to_vec();
    let verify = |max_states: usize| -> (u64, VerifyReport) {
        let options = VerifyOptions {
            max_states,
            seed_tokens: seed_tokens.clone(),
            ..VerifyOptions::default()
        };
        allocations_during(|| verify_system(&programs, &params, &links, &options))
    };

    let (small, small_report) = verify(1 << 12);
    let (large, large_report) = verify(1 << 14);
    for report in [&small_report, &large_report] {
        assert!(!report.exhaustive, "the bound must cut the search short");
    }
    assert!(
        large_report.transitions > 3 * small_report.transitions,
        "{} vs {} transitions",
        large_report.transitions,
        small_report.transitions
    );
    // Two more doublings of each explorer container, plus whatever
    // the findings and their counterexamples add.
    assert!(
        large <= small + 50,
        "allocations grew from {small} to {large} with the explored space"
    );
    assert!(
        large < 1_000,
        "{large} allocations for {} states and {} transitions",
        large_report.states,
        large_report.transitions
    );
}
