//! `tia-verify`: exhaustive explicit-state model checking for whole
//! triggered-instruction fabrics, with concrete counterexample replay.
//!
//! Where `tia-lint` reasons about one PE at a time (plus a conservative
//! channel-cycle scan), this crate enumerates the **product** state of
//! a whole [`tia_fabric::System`] — every PE's predicate file and halt
//! latch × every channel's queue occupancy and tag contents × every
//! memory port's buffered requests — under a transition relation
//! derived from the trigger programs themselves (via `tia-jit`'s
//! compiled guard encoding). Because trigger eligibility in this ISA
//! depends only on predicates, queue occupancy, head tags, and output
//! space — never on data words — the abstraction is *exact* on the
//! control plane; the only nondeterminism is data-dependent predicate
//! writes (forked both ways), environment injection (any
//! protocol-respecting tag, or silence), and memory-port response
//! timing (covering every load latency).
//!
//! Checks performed:
//!
//! * **Global deadlock-freedom** — no reachable state freezes the
//!   fabric with tokens still buffered (`fabric-deadlock`), and no
//!   reachable state freezes it empty-handed (`fabric-quiescence`,
//!   the wedge the runtime watchdog classifies as `Hang::Quiescent`).
//! * **Channel-bound violations** — an undrained output queue fills
//!   to capacity and wedges its producer (`channel-overflow`).
//! * **Cross-PE tag-protocol hazards** — a producer can emit a tag no
//!   consumer trigger accepts (`tag-protocol-hazard`).
//! * **Per-PE liveness** — from every reachable state, every PE can
//!   eventually fire again or has halted (`pe-starvation`).
//!
//! Every verdict is either a **proof** (the reachable abstract space
//! was exhausted) or a **counterexample**: a cycle-by-cycle trace with
//! all nondeterminism pinned down, which [`replay_trace`] drives
//! through a concrete `System` of real PEs to confirm. A counterexample
//! that fails to replay is a checker bug, and the test suite treats it
//! as one.
//!
//! # Soundness caveats
//!
//! * The environment is assumed **protocol-respecting**: stream
//!   sources only inject tags some consumer trigger can accept. A
//!   hostile environment can wedge any tag-checked queue by injecting
//!   a never-accepted tag; that hazard is reported statically instead
//!   (`tag-protocol-hazard` covers the intra-fabric case, and the
//!   assumption is documented in docs/static-analysis.md).
//! * Read-port response timing is fully nondeterministic (0..=n
//!   retirements per cycle), which over-approximates every concrete
//!   latency ≥ 1 — proofs hold for all latencies, while
//!   counterexamples pin a schedule the replay harness enforces.
//! * PE-local scratchpad and register contents are invisible, which is
//!   sound because they never influence trigger eligibility.

#![warn(missing_docs)]

mod explore;
pub mod fixtures;
mod model;
mod replay;
mod report;

use tia_fabric::Link;
use tia_isa::{Params, Program};
use tia_lint::{lint_system, Check, Diagnostic, Level};

pub use model::SeedToken;
pub use replay::{replay_trace, ReplayOutcome, ReplayPe};
pub use report::{BadState, Claim, Finding, QueueClaim, QueueRef, Trace, TraceStep, VerifyReport};

use explore::Exploration;
use model::{Model, QueueKind};
use report::Fnv;

/// Default cap on distinct abstract states explored.
pub const DEFAULT_MAX_STATES: usize = 1 << 18;

/// Knobs for one verification run.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Cap on distinct abstract states before the run is declared
    /// inconclusive (bounded rather than exhaustive).
    pub max_states: usize,
    /// Tokens pre-loaded into PE input queues at reset, mirroring
    /// whatever the harness seeds before running the concrete system.
    pub seed_tokens: Vec<SeedToken>,
    /// Also run the per-PE liveness (starvation) analysis. It is only
    /// meaningful on an exhaustive exploration and is skipped when a
    /// fabric-wide deadlock was already found.
    pub check_liveness: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            max_states: DEFAULT_MAX_STATES,
            seed_tokens: Vec::new(),
            check_liveness: true,
        }
    }
}

/// Verifies a whole fabric: `programs[i]` runs on PE `i`, wired by
/// `links` (the same shape [`tia_lint::lint_system`] takes, so callers
/// can reuse `System::links()` directly).
pub fn verify_system(
    programs: &[Program],
    params: &Params,
    links: &[Link],
    options: &VerifyOptions,
) -> VerifyReport {
    let fingerprint = fingerprint(programs, params, links, options);
    let inconclusive = |note: String| VerifyReport {
        findings: Vec::new(),
        exhaustive: false,
        states: 0,
        transitions: 0,
        max_states: options.max_states,
        fingerprint,
        note: Some(note),
    };
    for (pe, program) in programs.iter().enumerate() {
        if let Err(e) = program.validate(params) {
            return inconclusive(format!("pe{pe} program is invalid: {e}"));
        }
    }
    let model = match Model::build(programs, params, links, options) {
        Ok(model) => model,
        Err(why) => return inconclusive(why),
    };
    let initial = match model.initial(options) {
        Ok(initial) => initial,
        Err(why) => return inconclusive(why),
    };
    let exploration = explore::explore(&model, &initial, options.max_states);

    let mut findings = Vec::new();

    // Static cross-PE tag-protocol scan (independent of exploration
    // depth; a hazard is a protocol bug even when the dynamic search
    // also proves its consequence).
    for (li, pe, queue, bad) in model.tag_hazards(programs) {
        let tags: Vec<String> = bad.iter().map(|t| t.to_string()).collect();
        findings.push(Finding {
            level: Level::Error,
            check: Check::TagProtocolHazard,
            pe: Some(pe),
            link: Some(li),
            message: format!(
                "producer on channel {li} can emit tag{} {} that no trigger of the consumer \
                 (pe{pe} %i{queue}) accepts; such a token wedges at the queue head forever",
                if tags.len() > 1 { "s" } else { "" },
                tags.join(", "),
            ),
            trace: None,
        });
    }

    if let Some(target) = exploration.first_deadlock {
        let trace = build_trace(&model, &exploration, target, Claim::Deadlock);
        findings.push(Finding {
            level: Level::Error,
            check: Check::FabricDeadlock,
            pe: None,
            link: None,
            message: format!(
                "reachable global deadlock: after {} cycles no PE can ever fire again while \
                 {} token{} stay buffered",
                trace.steps.len(),
                trace.bad.tokens,
                if trace.bad.tokens == 1 { "" } else { "s" },
            ),
            trace: Some(trace),
        });
    }
    if let Some(target) = exploration.first_quiescent {
        let trace = build_trace(&model, &exploration, target, Claim::Quiescent);
        findings.push(Finding {
            level: Level::Error,
            check: Check::FabricQuiescence,
            pe: None,
            link: None,
            message: format!(
                "reachable quiescent wedge: after {} cycles every queue is empty yet some PE \
                 never halted and none can ever fire again (the watchdog's `quiescent` hang)",
                trace.steps.len(),
            ),
            trace: Some(trace),
        });
    }
    if let Some((target, qid)) = exploration.first_overflow {
        if let QueueKind::PeOut { pe, queue } = model.queues[qid].kind {
            let trace = build_trace(&model, &exploration, target, Claim::Overflow { pe, queue });
            findings.push(Finding {
                level: Level::Error,
                check: Check::ChannelOverflow,
                pe: Some(pe),
                link: None,
                message: format!(
                    "undrained output queue pe{pe} %o{queue} fills to capacity after {} cycles; \
                     unbounded backpressure wedges the producer",
                    trace.steps.len(),
                ),
                trace: Some(trace),
            });
        }
    }

    // Per-PE liveness, only when the safety checks came back clean on
    // an exhausted space (a deadlock already starves everyone; and on
    // a bounded search a missing escape edge proves nothing).
    let safety_clean = findings.iter().all(|f| f.check == Check::TagProtocolHazard);
    if options.check_liveness && exploration.exhaustive && safety_clean {
        for (pe, witness) in exploration
            .starvation_witnesses(&model)
            .into_iter()
            .enumerate()
        {
            let Some(target) = witness else { continue };
            let trace = build_trace(&model, &exploration, target, Claim::Starved { pe });
            findings.push(Finding {
                level: Level::Error,
                check: Check::PeStarvation,
                pe: Some(pe),
                link: None,
                message: format!(
                    "pe{pe} is not live: after {} cycles it can never fire again (and has not \
                     halted), under every continuation of the run",
                    trace.steps.len(),
                ),
                trace: Some(trace),
            });
        }
    }

    VerifyReport {
        findings,
        exhaustive: exploration.exhaustive,
        states: exploration.states(),
        transitions: exploration.transitions,
        max_states: options.max_states,
        fingerprint,
        note: exploration.note,
    }
}

/// Verifies a single program as a one-PE fabric closed by a
/// protocol-respecting environment: every input queue the program
/// reads is fed by a stream source, every output queue it writes is
/// drained by a sink. This is what `tia-as --verify` runs on a
/// standalone assembly file.
pub fn verify_program(program: &Program, params: &Params) -> VerifyReport {
    let mut in_used = vec![false; params.num_input_queues];
    let mut out_used = vec![false; params.num_output_queues];
    for i in program.instructions().iter().filter(|i| i.valid) {
        for c in &i.trigger.queue_checks {
            in_used[c.queue.index()] = true;
        }
        for q in i.input_operands() {
            in_used[q.index()] = true;
        }
        for q in &i.dequeues {
            in_used[q.index()] = true;
        }
        if let Some(o) = i.enqueues() {
            out_used[o.index()] = true;
        }
    }
    let mut links = Vec::new();
    let mut sources = 0usize;
    let mut sinks = 0usize;
    for (q, &used) in in_used.iter().enumerate() {
        if used {
            links.push(Link {
                from: tia_fabric::OutputRef::Source { source: sources },
                to: tia_fabric::InputRef::Pe { pe: 0, queue: q },
            });
            sources += 1;
        }
    }
    for (q, &used) in out_used.iter().enumerate() {
        if used {
            links.push(Link {
                from: tia_fabric::OutputRef::Pe { pe: 0, queue: q },
                to: tia_fabric::InputRef::Sink { sink: sinks },
            });
            sinks += 1;
        }
    }
    verify_system(
        std::slice::from_ref(program),
        params,
        &links,
        &VerifyOptions::default(),
    )
}

/// The `lint_system` upgrade path: runs the conservative lint pass and
/// the model checker together, then reconciles — `channel-deadlock`
/// warnings on a fabric the checker *proved* deadlock-free are
/// downgraded to `info` (the cycle exists but cannot wedge), while a
/// checker counterexample upgrades them to `error`.
pub fn lint_system_with_verify(
    programs: &[Program],
    params: &Params,
    links: &[Link],
    options: &VerifyOptions,
) -> (Vec<Diagnostic>, VerifyReport) {
    let mut diags = lint_system(programs, params, links);
    let report = verify_system(programs, params, links, options);
    let proved = report.deadlock_free();
    let refuted = report
        .findings
        .iter()
        .any(|f| matches!(f.check, Check::FabricDeadlock | Check::FabricQuiescence));
    for diag in diags
        .iter_mut()
        .filter(|d| d.check == Check::ChannelDeadlock)
    {
        if proved {
            diag.level = Level::Info;
            diag.message
                .push_str(" [tia-verify exhausted the state space: this cycle cannot deadlock]");
        } else if refuted {
            diag.level = Level::Error;
            diag.message
                .push_str(" [tia-verify found a concrete deadlock counterexample]");
        }
    }
    (diags, report)
}

/// A stable FNV-1a fingerprint of everything that determines the
/// verdict: parameters, program images, topology, and seed tokens.
/// CI caches verdicts keyed on this to skip re-verification of
/// unchanged fabrics.
pub fn fingerprint(
    programs: &[Program],
    params: &Params,
    links: &[Link],
    options: &VerifyOptions,
) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write(format!("{params:?}").as_bytes());
    for program in programs {
        fnv.write_u64(program.len() as u64);
        for image in program.to_images(params).unwrap_or_default() {
            fnv.write_u128(image);
        }
    }
    for link in links {
        fnv.write(format!("{link:?}").as_bytes());
    }
    for seed in &options.seed_tokens {
        fnv.write_u64(seed.pe as u64);
        fnv.write_u64(seed.queue as u64);
        fnv.write_u64(u64::from(seed.tag.value()));
    }
    fnv.finish()
}

/// Reconstructs the counterexample trace from the initial state to
/// `target`.
fn build_trace(model: &Model, exploration: &Exploration, target: usize, claim: Claim) -> Trace {
    let steps: Vec<TraceStep> = exploration
        .path_to(target)
        .into_iter()
        .skip(1)
        .map(|id| {
            let (fired, choice) = exploration.edge_into(model, id);
            TraceStep {
                fired,
                forks: choice.forks,
                injections: choice
                    .injections
                    .iter()
                    .map(|&(li, tag)| (li, u32::from(tag)))
                    .collect(),
                retires: choice.retires,
            }
        })
        .collect();
    let bad_state = exploration.state(target);
    let queues = (0..model.queues.len())
        .map(|qid| QueueClaim {
            queue: match model.queues[qid].kind {
                QueueKind::PeIn { pe, queue } => QueueRef::PeIn { pe, queue },
                QueueKind::PeOut { pe, queue } => QueueRef::PeOut { pe, queue },
                QueueKind::PortAddr { port } => QueueRef::Port { port, part: "addr" },
                QueueKind::PortPending { port } => QueueRef::Port {
                    port,
                    part: "in-flight",
                },
                QueueKind::PortResp { port } => QueueRef::Port { port, part: "data" },
            },
            occupancy: model.queue_len(bad_state, qid),
            tags: model
                .queue_tags(bad_state, qid)
                .iter()
                .map(|&t| u32::from(t))
                .collect(),
        })
        .collect();
    let num_pes = model.pes.len();
    Trace {
        claim,
        steps,
        bad: BadState {
            preds: (0..num_pes).map(|pe| model.preds(bad_state, pe)).collect(),
            halted: (0..num_pes).map(|pe| model.halted(bad_state, pe)).collect(),
            tokens: model.tokens(bad_state),
            queues,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixtures::*;

    fn run(fixture: &Fixture, params: &Params) -> VerifyReport {
        verify_system(&fixture.programs, params, &fixture.links, &fixture.options)
    }

    #[test]
    fn unseeded_relay_ring_is_a_quiescent_wedge_at_reset() {
        let params = Params::default();
        let fixture = relay_deadlock(&params);
        let report = run(&fixture, &params);
        assert!(report.exhaustive, "{report:?}");
        let quiescent: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.check == Check::FabricQuiescence)
            .collect();
        assert_eq!(quiescent.len(), 1, "{report:?}");
        let trace = quiescent[0].trace.as_ref().expect("counterexample");
        assert_eq!(trace.claim, Claim::Quiescent);
        assert_eq!(trace.steps.len(), 0, "frozen at reset");
        assert_eq!(trace.bad.tokens, 0);
        assert!(!report.deadlock_free());
    }

    #[test]
    fn seeded_relay_ring_is_proved_deadlock_free_and_live() {
        let params = Params::default();
        let fixture = seeded_ring(&params);
        let report = run(&fixture, &params);
        assert!(report.exhaustive, "{report:?}");
        assert!(report.findings.is_empty(), "{report:?}");
        assert!(report.deadlock_free());
        assert!(report.live());
        // The token circulates through 2 PEs × (input, output, in
        // flight): a handful of states, not an explosion.
        assert!(report.states < 64, "states = {}", report.states);
    }

    #[test]
    fn tag_mismatch_yields_hazard_and_concrete_deadlock() {
        let params = Params::default();
        let fixture = tag_mismatch_pair(&params);
        let report = run(&fixture, &params);
        assert!(report.exhaustive, "{report:?}");
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.check == Check::TagProtocolHazard && f.pe == Some(1)),
            "{report:?}"
        );
        let deadlock = report
            .findings
            .iter()
            .find(|f| f.check == Check::FabricDeadlock)
            .expect("wedged tokens deadlock the fabric");
        let trace = deadlock.trace.as_ref().expect("counterexample");
        assert_eq!(trace.claim, Claim::Deadlock);
        assert!(trace.bad.tokens > 0);
        assert!(!trace.steps.is_empty());
    }

    #[test]
    fn undrained_output_overflows_and_wedges() {
        let params = Params::default();
        let fixture = undrained_output(&params);
        let report = run(&fixture, &params);
        assert!(report.exhaustive, "{report:?}");
        let overflow = report
            .findings
            .iter()
            .find(|f| f.check == Check::ChannelOverflow)
            .expect("undrained queue must overflow");
        let trace = overflow.trace.as_ref().expect("counterexample");
        assert_eq!(
            trace.claim,
            Claim::Overflow { pe: 0, queue: 0 },
            "{trace:?}"
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == Check::FabricDeadlock));
    }

    #[test]
    fn queues_above_255_tokens_keep_their_occupancy() {
        // The undrained output must fill to its capacity of 300. An
        // 8-bit occupancy field wraps at 256 and aliases the reset
        // state, "proving" the producer runs forever.
        let mut params = Params::default();
        params.queue_capacity = 300;
        let fixture = undrained_output(&params);
        let report = run(&fixture, &params);
        assert!(report.exhaustive, "{report:?}");
        assert_eq!(report.states, 301, "{report:?}");
        let overflow = report
            .findings
            .iter()
            .find(|f| f.check == Check::ChannelOverflow)
            .expect("the queue fills to capacity");
        let trace = overflow.trace.as_ref().expect("counterexample");
        assert_eq!(trace.steps.len(), 300);
        assert_eq!(trace.bad.tokens, 300);
        assert_eq!(trace.bad.queues[0].occupancy, 300);
    }

    #[test]
    fn write_port_credits_above_255_keep_counting() {
        // A source feeding only a write port's address queue fills all
        // 300 credits, then wedges: no data ever arrives to commit.
        let mut params = Params::default();
        params.queue_capacity = 300;
        let links = [Link {
            from: tia_fabric::OutputRef::Source { source: 0 },
            to: tia_fabric::InputRef::WriteAddr { port: 0 },
        }];
        let report = verify_system(
            &[relay_program(&params)],
            &params,
            &links,
            &VerifyOptions::default(),
        );
        assert!(report.exhaustive, "{report:?}");
        assert_eq!(report.states, 301, "{report:?}");
        let deadlock = report
            .findings
            .iter()
            .find(|f| f.check == Check::FabricDeadlock)
            .expect("the credits run out");
        let trace = deadlock.trace.as_ref().expect("counterexample");
        assert_eq!(trace.bad.tokens, 300);
    }

    #[test]
    fn links_sharing_an_endpoint_are_out_of_reach() {
        let params = Params::default();
        let mut fixture = pipeline(&params);
        fixture.links.push(Link {
            from: tia_fabric::OutputRef::Source { source: 1 },
            to: tia_fabric::InputRef::Pe { pe: 0, queue: 0 },
        });
        let report = run(&fixture, &params);
        assert!(
            !report.exhaustive && report.findings.is_empty(),
            "{report:?}"
        );
        let note = report.note.expect("an inconclusive note");
        assert!(note.contains("shares an endpoint"), "{note}");
    }

    #[test]
    fn state_bounds_beyond_u32_ids_are_out_of_reach() {
        let params = Params::default();
        let mut fixture = pipeline(&params);
        fixture.options.max_states = usize::MAX;
        let report = run(&fixture, &params);
        assert!(!report.exhaustive && report.states == 0, "{report:?}");
        let note = report.note.expect("an inconclusive note");
        assert!(note.contains("can number"), "{note}");
    }

    #[test]
    fn sourced_pipeline_is_proved_live() {
        let params = Params::default();
        let fixture = pipeline(&params);
        let report = run(&fixture, &params);
        assert!(report.exhaustive, "{report:?}");
        assert!(report.findings.is_empty(), "{report:?}");
        assert!(report.live());
    }

    #[test]
    fn verify_program_closes_a_relay_with_a_friendly_environment() {
        let params = Params::default();
        let report = verify_program(&relay_program(&params), &params);
        assert!(report.exhaustive, "{report:?}");
        assert!(report.findings.is_empty(), "{report:?}");
        assert!(report.live());
    }

    #[test]
    fn lint_upgrade_path_downgrades_proved_cycles_and_upgrades_refuted_ones() {
        let params = Params::default();
        // Seeded ring: lint's conservative Tarjan pass warns, the
        // checker proves the warning moot.
        let fixture = seeded_ring(&params);
        let (diags, report) =
            lint_system_with_verify(&fixture.programs, &params, &fixture.links, &fixture.options);
        assert!(report.deadlock_free());
        let cycle: Vec<_> = diags
            .iter()
            .filter(|d| d.check == Check::ChannelDeadlock)
            .collect();
        assert!(!cycle.is_empty(), "lint still reports the cycle");
        assert!(cycle.iter().all(|d| d.level == Level::Info), "{cycle:?}");
        assert!(cycle[0].message.contains("cannot deadlock"));

        // Unseeded ring: the checker refutes, lint's warning hardens.
        let fixture = relay_deadlock(&params);
        let (diags, report) =
            lint_system_with_verify(&fixture.programs, &params, &fixture.links, &fixture.options);
        assert!(!report.deadlock_free());
        assert!(
            diags
                .iter()
                .filter(|d| d.check == Check::ChannelDeadlock)
                .all(|d| d.level == Level::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn fingerprint_tracks_semantic_input() {
        let params = Params::default();
        let a = seeded_ring(&params);
        let b = seeded_ring(&params);
        assert_eq!(
            fingerprint(&a.programs, &params, &a.links, &a.options),
            fingerprint(&b.programs, &params, &b.links, &b.options),
        );
        let c = relay_deadlock(&params); // same programs, no seed
        assert_ne!(
            fingerprint(&a.programs, &params, &a.links, &a.options),
            fingerprint(&c.programs, &params, &c.links, &c.options),
        );
    }

    #[test]
    fn report_json_has_the_documented_shape() {
        let params = Params::default();
        let fixture = relay_deadlock(&params);
        let report = run(&fixture, &params);
        let json = report.to_json();
        for key in [
            "\"verdict\"",
            "\"exhaustive\"",
            "\"states\"",
            "\"transitions\"",
            "\"fingerprint\"",
            "\"findings\"",
            "\"trace\"",
            "\"claim\"",
            "\"bad_state\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
