//! Regression test: the functional PE's idle key covers the predicate
//! state, not just the queues. A host that overwrites the predicates of
//! a PE that has just idled must wake it: the next step fires the newly
//! enabled trigger, and the fast-forward engine must not treat the PE
//! as quiescent in between.

use tia_asm::assemble;
use tia_fabric::ProcessingElement;
use tia_isa::{Params, PredState};
use tia_sim::FuncPe;

#[test]
fn set_predicates_after_an_idle_step_wakes_the_pe() {
    let params = Params::default();
    let program = assemble("when %p == XXXXXXX1: halt;", &params).expect("assembles");
    let mut pe = FuncPe::new(&params, program).expect("valid program");

    assert_eq!(pe.step_cycle(), None, "p0 is clear, so nothing triggers");
    assert!(pe.is_quiescent(), "an idle step latches the idle key");

    pe.set_predicates(PredState::from_bits(1));
    assert!(!pe.is_quiescent(), "new predicates invalidate the idle key");
    assert_eq!(pe.next_event_cycle(7), Some(7), "the PE can act right now");

    assert_eq!(pe.step_cycle(), Some(0), "the halt triggers");
    assert!(pe.halted());
    assert_eq!(pe.counters().cycles, 2);
    assert_eq!(pe.counters().idle, 1);
}
