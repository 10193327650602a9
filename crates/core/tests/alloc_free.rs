//! Verifies the zero-allocation hot loop: once a `UarchPe` (or
//! `FuncPe`) reaches steady state, stepping it — retiring, stalling,
//! or bulk-skipping stalls — performs no heap allocation at all. A
//! counting global allocator is armed around the measured region;
//! warm-up cycles beforehand let one-time growth (queue backing
//! stores, speculation stack, predictor tables) happen where it
//! belongs: at construction and first use, not per cycle.
//!
//! The counter is per thread: the test harness runs these tests on
//! parallel threads, and a process-wide counter would charge one
//! test's setup allocations to another test's measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::{ProcessingElement, Token};
use tia_isa::Params;
use tia_sim::FuncPe;

struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if the calling thread is being measured.
fn count_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting armed on this thread and returns
/// how many heap allocations it performed.
fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn uarch_pe(config: UarchConfig, source: &str) -> UarchPe {
    let params = Params::default();
    let program = assemble(source, &params).expect("test program assembles");
    UarchPe::new(&params, config, program).expect("valid program")
}

#[test]
fn steady_state_retirement_does_not_allocate() {
    for config in [
        UarchConfig::base(Pipeline::TDX),
        UarchConfig::with_p(Pipeline::T_DX),
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    ] {
        // A self-sustaining compute loop: retires every issue slot,
        // exercises the trigger, decode, execute and commit phases.
        let mut pe = uarch_pe(
            config,
            "when %p == XXXXXXX0: add %r0, %r0, 1; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXXX1: ult %p2, %r0, 1000; set %p = ZZZZZZZ0;",
        );
        for _ in 0..200 {
            pe.step_cycle();
        }
        let allocations = allocations_during(|| {
            for _ in 0..2_000 {
                pe.step_cycle();
            }
        });
        assert_eq!(
            allocations, 0,
            "{config}: steady-state stepping must not allocate"
        );
        assert!(pe.counters().retired > 1_000, "the loop actually ran");
    }
}

#[test]
fn steady_state_stall_and_skip_do_not_allocate() {
    let mut pe = uarch_pe(
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
        "when %p == XXXXXXXX with %i0.0: mov %o0.0, %i0; deq %i0;",
    );
    for _ in 0..100 {
        pe.step_cycle();
    }
    let allocations = allocations_during(|| {
        // Pure stall cycles (served by the idle key after the first
        // one)...
        for _ in 0..1_000 {
            pe.step_cycle();
        }
        // ...and the bulk-skip path the fast-forward engine uses.
        assert_eq!(pe.next_event_cycle(0), None, "stall was latched");
        pe.skip_cycles(10_000);
    });
    assert_eq!(allocations, 0, "stalling and skipping must not allocate");
    assert!(pe.counters().cycles > 11_000);
}

#[test]
fn steady_state_queue_traffic_does_not_allocate() {
    let mut pe = uarch_pe(
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
        "when %p == XXXXXXXX with %i0.0: add %o0.0, %i0, 1; deq %i0;",
    );
    for cycle in 0..100u32 {
        let _ = pe.input_queue_mut(0).push(Token::data(cycle));
        pe.step_cycle();
        let _ = pe.output_queue_mut(0).pop();
    }
    let allocations = allocations_during(|| {
        for cycle in 0..2_000u32 {
            let _ = pe.input_queue_mut(0).push(Token::data(cycle));
            pe.step_cycle();
            let _ = pe.output_queue_mut(0).pop();
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state relay traffic must not allocate"
    );
    assert!(pe.counters().retired > 1_000);
}

#[test]
fn functional_model_steady_state_does_not_allocate() {
    let params = Params::default();
    let program = assemble(
        "when %p == XXXXXXXX with %i0.0: add %o0.0, %i0, 1; deq %i0;",
        &params,
    )
    .expect("assembles");
    let mut pe = FuncPe::new(&params, program).expect("valid program");
    for cycle in 0..100u32 {
        let _ = pe.input_queue_mut(0).push(Token::data(cycle));
        pe.step_cycle();
        let _ = pe.output_queue_mut(0).pop();
    }
    let allocations = allocations_during(|| {
        for cycle in 0..2_000u32 {
            let _ = pe.input_queue_mut(0).push(Token::data(cycle));
            pe.step_cycle();
            let _ = pe.output_queue_mut(0).pop();
        }
        // Idle + bulk skip too.
        for _ in 0..100 {
            pe.step_cycle();
        }
        assert!(pe.is_quiescent());
        pe.skip_idle_cycles(10_000);
    });
    assert_eq!(
        allocations, 0,
        "functional-model steady state must not allocate"
    );
}
