//! Runtime liveness monitoring for fabric simulations.
//!
//! Triggered-instruction fabrics have two failure modes that present
//! identically to a naive `run(max_cycles)` loop — the run simply
//! burns cycles to the limit:
//!
//! * **Deadlock**: no PE retires while tokens sit in queues. The
//!   classic case is a circular wait: every PE in a ring blocks on a
//!   full output or a tag-mismatched input.
//! * **Quiescence short of halt**: no PE retires and *no* tokens
//!   remain anywhere. The program simply ran out of work without
//!   executing `halt` — usually a missing final predicate transition.
//!
//! The [`Watchdog`] detects both after a configurable window of
//! retirement-free cycles; [`run_guarded`] drives a system's run loop
//! under it, and [`hang_report`] dumps the diagnosis.

use serde::{Serialize, Value};
use tia_fabric::{ProcessingElement, Snapshotable, System};
use tia_prof::{CycleStack, SystemProfiler};
use tia_trace::ProfileSource;

/// A liveness observation at one cycle, fed to [`Watchdog::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// The system cycle just completed.
    pub cycle: u64,
    /// Total instructions retired so far, across all PEs.
    pub retired: u64,
    /// Total tokens buffered anywhere in the fabric.
    pub queued_tokens: u64,
    /// Whether every PE has halted.
    pub halted: bool,
}

/// A detected hang, with enough context for a first diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Hang {
    /// No retirement for the whole window while tokens sat in queues:
    /// the fabric is blocked, not finished.
    Deadlock {
        /// The cycle the hang was flagged.
        cycle: u64,
        /// Consecutive retirement-free cycles observed.
        stalled_for: u64,
        /// Tokens stuck in queues at detection.
        queued_tokens: u64,
    },
    /// No retirement for the whole window with an empty fabric and no
    /// `halt`: a quiescent fixed point — the program ran out of work
    /// without terminating.
    Quiescent {
        /// The cycle the hang was flagged.
        cycle: u64,
        /// Consecutive retirement-free cycles observed.
        stalled_for: u64,
    },
}

impl Hang {
    /// The cycle the hang was flagged.
    pub fn cycle(&self) -> u64 {
        match self {
            Hang::Deadlock { cycle, .. } | Hang::Quiescent { cycle, .. } => *cycle,
        }
    }

    /// Consecutive retirement-free cycles when flagged.
    pub fn stalled_for(&self) -> u64 {
        match self {
            Hang::Deadlock { stalled_for, .. } | Hang::Quiescent { stalled_for, .. } => {
                *stalled_for
            }
        }
    }

    /// A one-line human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Hang::Deadlock {
                cycle,
                stalled_for,
                queued_tokens,
            } => format!(
                "deadlock at cycle {cycle}: no retirement for {stalled_for} cycles \
                 with {queued_tokens} tokens stuck in queues"
            ),
            Hang::Quiescent { cycle, stalled_for } => format!(
                "quiescent fixed point at cycle {cycle}: no retirement for {stalled_for} \
                 cycles, fabric empty, no halt"
            ),
        }
    }
}

impl std::fmt::Display for Hang {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A retirement-progress watchdog.
///
/// Feed it a [`Progress`] after each cycle, or after each span of
/// cycles a fast-forward skipped; it fires once `window` consecutive
/// cycles pass without any PE retiring (and the system has not
/// halted). Pipelined PEs legitimately stall for bounded spans —
/// memory latency, hazard chains, queue backpressure — so `window`
/// must exceed the longest legitimate stall (see `docs/robustness.md`
/// for tuning; the default used by the CLI tools is 10 000 cycles).
///
/// # Examples
///
/// ```
/// use tia_ckpt::{Hang, Progress, Watchdog};
///
/// let mut dog = Watchdog::new(3);
/// let quiet = |cycle| Progress { cycle, retired: 1, queued_tokens: 0, halted: false };
/// assert_eq!(dog.observe(quiet(1)), None);
/// assert_eq!(dog.observe(quiet(2)), None);
/// assert_eq!(dog.observe(quiet(3)), None);
/// // Third consecutive no-retirement cycle with an empty fabric:
/// // a quiescent fixed point.
/// assert!(matches!(dog.observe(quiet(4)), Some(Hang::Quiescent { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog {
    window: u64,
    /// Cycle and retirement count of the last observation; `None`
    /// before the first.
    last: Option<(u64, u64)>,
    stalled_for: u64,
}

impl Watchdog {
    /// Creates a watchdog that fires after `window` consecutive
    /// retirement-free cycles (`window` is clamped to at least 1).
    pub fn new(window: u64) -> Self {
        Watchdog {
            window: window.max(1),
            last: None,
            stalled_for: 0,
        }
    }

    /// The configured window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Consecutive retirement-free cycles observed so far.
    pub fn stalled_for(&self) -> u64 {
        self.stalled_for
    }

    /// How many retirement-free cycles may elapse *between* this
    /// observation and the next without the watchdog missing its
    /// firing cycle.
    ///
    /// A caller that fast-forwards keeps each skip within this
    /// headroom, so the observation in which `stalled_for` first
    /// reaches the window lands on the firing cycle itself: the hang
    /// is then flagged at exactly the cycle — with exactly the fields
    /// — the cycle-by-cycle run would have produced.
    pub fn quiet_headroom(&self) -> u64 {
        if self.last.is_none() {
            return 0;
        }
        (self.window - 1).saturating_sub(self.stalled_for)
    }

    /// Observes the run at `progress.cycle`. Returns a [`Hang`] when
    /// the window elapses without retirement; keeps firing on later
    /// stalled observations until progress resumes or the run stops.
    ///
    /// Every cycle since the previous observation is credited at once,
    /// so one observation after a fast-forwarded span counts it as
    /// fully as per-cycle observations would have.
    pub fn observe(&mut self, progress: Progress) -> Option<Hang> {
        self.credit(progress.cycle, progress.retired, progress.halted)
            .then(|| self.hang(progress.cycle, progress.queued_tokens))
    }

    /// The counting half of [`Watchdog::observe`]: credits the cycles
    /// up to `cycle` and reports whether the window has elapsed.
    fn credit(&mut self, cycle: u64, retired: u64, halted: bool) -> bool {
        match self.last.replace((cycle, retired)) {
            // The first observation is a baseline, not progress; a
            // halted system or a retirement restarts the count.
            Some((last_cycle, last_retired)) if !halted && retired <= last_retired => {
                self.stalled_for += cycle.saturating_sub(last_cycle);
                self.stalled_for >= self.window
            }
            _ => {
                self.stalled_for = 0;
                false
            }
        }
    }

    /// The hang flagged at `cycle` once the window has elapsed:
    /// a deadlock when tokens are queued, quiescence otherwise.
    fn hang(&self, cycle: u64, queued_tokens: u64) -> Hang {
        if queued_tokens > 0 {
            Hang::Deadlock {
                cycle,
                stalled_for: self.stalled_for,
                queued_tokens,
            }
        } else {
            Hang::Quiescent {
                cycle,
                stalled_for: self.stalled_for,
            }
        }
    }

    /// Resets the stall counter and baseline (e.g. after a restore).
    pub fn reset(&mut self) {
        self.last = None;
        self.stalled_for = 0;
    }
}

/// How a guarded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardedOutcome {
    /// Every PE halted.
    Halted {
        /// The cycle count at halt.
        cycle: u64,
    },
    /// The cycle limit elapsed without a hang being flagged.
    CycleLimit {
        /// The cycle count at the limit.
        cycle: u64,
    },
    /// The watchdog flagged a hang.
    Hung(Hang),
}

/// Runs `system` until every PE halts, `max_cycles` elapse, or the
/// watchdog flags a hang — whichever comes first.
///
/// The watchdog observes from [`System::run_until`]'s condition, after
/// every stepped cycle and every fast-forwarded span. Each `run_until`
/// call is bounded to one cycle past the watchdog's quiet headroom, so
/// a skip may land on the firing cycle but never past it: the hang has
/// the cycle and fields of the cycle-by-cycle run. The buffered tokens
/// that tell a deadlock from quiescence are counted once, at the hang.
pub fn run_guarded<P: ProcessingElement>(
    system: &mut System<P>,
    max_cycles: u64,
    watchdog: &mut Watchdog,
) -> GuardedOutcome {
    loop {
        if system.all_halted() {
            return GuardedOutcome::Halted {
                cycle: system.cycle(),
            };
        }
        if system.cycle() >= max_cycles {
            return GuardedOutcome::CycleLimit {
                cycle: system.cycle(),
            };
        }
        let chunk = watchdog
            .quiet_headroom()
            .saturating_add(1)
            .min(max_cycles - system.cycle());
        let mut hung = false;
        system.run_until(
            |s| {
                let halted = s.all_halted();
                hung = watchdog.credit(s.cycle(), s.total_retired(), halted);
                hung || halted
            },
            chunk,
        );
        if hung {
            let queued_tokens = system.buffered_tokens();
            return GuardedOutcome::Hung(watchdog.hang(system.cycle(), queued_tokens));
        }
    }
}

/// Builds the diagnostic dump for a flagged hang: the hang description,
/// a per-PE profile — each PE's coarse hierarchical cycle stack up to
/// the hang plus the stall class it is wedged in *right now* — and the
/// complete system state (every PE's registers, predicates and
/// queues), as pretty JSON suitable for a terminal or a bug report.
pub fn hang_report<P>(system: &System<P>, hang: &Hang) -> String
where
    P: ProcessingElement + Snapshotable + ProfileSource,
{
    // A profiler attached at hang time has observed nothing, but its
    // construction-time port map still answers the instantaneous
    // question "what is this PE waiting on?"; the coarse stack from
    // each PE's cumulative counters covers the run-so-far half.
    let profiler = SystemProfiler::new(system);
    let mut pes = Vec::with_capacity(system.num_pes());
    for i in 0..system.num_pes() {
        let counters = system.pe(i).prof_counters();
        let stack = CycleStack::coarse(&counters, system.cycle());
        let wedged_in = profiler.stall_class(system, i);
        pes.push(Value::Object(vec![
            ("pe".to_string(), Value::UInt(i as u64)),
            ("stack".to_string(), Serialize::to_value(&stack)),
            (
                "bottleneck".to_string(),
                Serialize::to_value(&stack.bottleneck()),
            ),
            ("wedged_in".to_string(), Serialize::to_value(&wedged_in)),
        ]));
    }
    let report = Value::Object(vec![
        ("hang".to_string(), hang.to_value()),
        ("description".to_string(), Value::String(hang.describe())),
        ("profile".to_string(), Value::Array(pes)),
        (
            "system".to_string(),
            Serialize::to_value(&system.save_state()),
        ),
    ]);
    serde_json::to_string_pretty(&report).expect("report serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(cycle: u64, retired: u64, queued: u64) -> Progress {
        Progress {
            cycle,
            retired,
            queued_tokens: queued,
            halted: false,
        }
    }

    #[test]
    fn steady_retirement_never_fires() {
        let mut dog = Watchdog::new(2);
        for c in 1..100 {
            assert_eq!(dog.observe(p(c, c, 1)), None);
        }
    }

    #[test]
    fn stall_with_tokens_is_a_deadlock() {
        let mut dog = Watchdog::new(3);
        assert_eq!(dog.observe(p(1, 5, 2)), None);
        assert_eq!(dog.observe(p(2, 5, 2)), None);
        assert_eq!(dog.observe(p(3, 5, 2)), None);
        assert_eq!(
            dog.observe(p(4, 5, 2)),
            Some(Hang::Deadlock {
                cycle: 4,
                stalled_for: 3,
                queued_tokens: 2,
            })
        );
    }

    #[test]
    fn stall_with_empty_fabric_is_quiescent() {
        let mut dog = Watchdog::new(2);
        assert_eq!(dog.observe(p(1, 5, 0)), None);
        assert_eq!(dog.observe(p(2, 5, 0)), None);
        assert!(matches!(
            dog.observe(p(3, 5, 0)),
            Some(Hang::Quiescent {
                cycle: 3,
                stalled_for: 2,
            })
        ));
    }

    #[test]
    fn progress_resets_the_window() {
        let mut dog = Watchdog::new(2);
        assert_eq!(dog.observe(p(1, 5, 1)), None);
        assert_eq!(dog.observe(p(2, 5, 1)), None);
        // Retirement resumes just in time: the stall count restarts.
        assert_eq!(dog.observe(p(3, 6, 1)), None);
        assert_eq!(dog.observe(p(4, 6, 1)), None);
        assert!(dog.observe(p(5, 6, 1)).is_some());
    }

    #[test]
    fn a_gap_between_observations_counts_every_cycle_in_it() {
        let mut dog = Watchdog::new(10);
        assert_eq!(dog.observe(p(1, 5, 2)), None);
        // Cycles 2..=8 were fast-forwarded: the observation at cycle
        // 9 credits all eight.
        assert_eq!(dog.observe(p(9, 5, 2)), None);
        assert_eq!(dog.stalled_for(), 8);
        // One more unobserved cycle fits; the observation after it
        // lands on the firing cycle.
        assert_eq!(dog.quiet_headroom(), 1);
        assert_eq!(
            dog.observe(p(11, 5, 2)),
            Some(Hang::Deadlock {
                cycle: 11,
                stalled_for: 10,
                queued_tokens: 2,
            })
        );
    }

    #[test]
    fn halted_systems_are_never_hung() {
        let mut dog = Watchdog::new(1);
        let halted = Progress {
            cycle: 1,
            retired: 5,
            queued_tokens: 0,
            halted: true,
        };
        for _ in 0..10 {
            assert_eq!(dog.observe(halted), None);
        }
    }

    #[test]
    fn hang_accessors_and_display() {
        let d = Hang::Deadlock {
            cycle: 40,
            stalled_for: 10,
            queued_tokens: 3,
        };
        assert_eq!(d.cycle(), 40);
        assert_eq!(d.stalled_for(), 10);
        assert!(d.to_string().contains("deadlock at cycle 40"));
        let q = Hang::Quiescent {
            cycle: 7,
            stalled_for: 2,
        };
        assert!(q.to_string().contains("quiescent fixed point at cycle 7"));
    }
}
