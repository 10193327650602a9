//! The in-process workloads: `dse_seeded`, `idle_latency` and
//! `verify_fabrics`. Each calls the simulator's public entry points
//! directly and wraps every call in a [`span`].

use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_energy::dse::{par_explore_stats_with, CpiMeasurement, DesignPoint};
use tia_energy::pareto::pareto_frontier;
use tia_energy::tech::VtClass;
use tia_fabric::{
    InputRef, Link, Memory, OutputRef, ProcessingElement, ReadPort, StreamSink, StreamSource,
    System, Token,
};
use tia_isa::{IsaError, Params, Program, Tag};
use tia_lint::lint_system;
use tia_sim::FuncPe;
use tia_verify::{replay_trace, verify_system, ReplayOutcome, SeedToken, VerifyOptions};
use tia_workloads::{Built, PeFactory, ProbePe, Scale, WorkloadKind, ALL_WORKLOADS};

use crate::metrics::pipeline_slug;
use crate::seeded::{self, Rng};
use crate::{median_time, span, Bench, Log, Options};

/// Set-ups repeated per run; the median is reported.
const SETUP_REPS: usize = 25;

fn add_fast_forward<P: ProcessingElement>(log: &Log, system: &System<P>) {
    let ff = system.fast_forward_stats();
    log.add("ff.probes", ff.probes as f64);
    log.add("ff.probe_hits", ff.probe_hits as f64);
    log.add("ff.skipped_cycles", ff.skipped_cycles as f64);
    log.add("ff.suppressed_probes", ff.suppressed_probes as f64);
}

/// Builds `kind` from the seed over probes: input generation and
/// assembly without simulation.
fn probe_build(
    kind: WorkloadKind,
    opts: &Options,
    params: &Params,
) -> Result<Built<ProbePe>, String> {
    let mut factory = |p: &Params, prog| ProbePe::new(p, prog);
    seeded::build(kind, opts.scale, opts.seed, params, &mut factory)
        .map_err(|e| format!("{kind}: probe build failed: {e}"))
}

/// The engine a run uses: a microarchitecture on `UarchPe` (the `core`
/// layer), or `FuncPe` (the `sim` layer) when `None`.
fn engine_name(config: Option<UarchConfig>) -> String {
    config.map_or_else(|| "FuncPe".to_string(), |c| c.to_string())
}

/// Builds the seeded `kind` over `factory`, runs it to completion and
/// checks it against the golden model, logging the outcome as one
/// operation. `None` when any step failed.
fn run_checked<P: ProcessingElement, F: PeFactory<P>>(
    kind: WorkloadKind,
    config: Option<UarchConfig>,
    opts: &Options,
    params: &Params,
    factory: &mut F,
    log: &Log,
) -> Option<Built<P>> {
    let built = {
        let _s = span::enter("workloads.build");
        seeded::build(kind, opts.scale, opts.seed, params, factory)
    };
    log.add("workloads.build.calls", 1.0);
    let mut built = match built {
        Ok(b) => b,
        Err(e) => {
            log.fail(format!(
                "{kind} on {}: build failed: {e}",
                engine_name(config)
            ));
            return None;
        }
    };
    let result = {
        let mut s = span::enter(if config.is_some() {
            "core.run"
        } else {
            "sim.run"
        });
        s.arg("workload", kind.name());
        if let Some(c) = config {
            s.arg("pipeline", c.pipeline.name());
        }
        built.run_to_completion()
    };
    let golden = {
        let _s = span::enter("workloads.golden");
        built.verify()
    };
    log.check(
        format_args!("{kind} on {}", engine_name(config)),
        result.and(golden),
    )
    .then_some(built)
}

/// Runs one seeded Table 3 workload on `config`; returns the worker's
/// CPI and issue rate.
fn run_uarch(
    kind: WorkloadKind,
    config: UarchConfig,
    opts: &Options,
    params: &Params,
    log: &Log,
) -> Option<(f64, f64)> {
    let mut factory = |p: &Params, prog| {
        let _s = span::enter("core.pe_new");
        UarchPe::new(p, config, prog)
    };
    let built = run_checked(kind, Some(config), opts, params, &mut factory, log)?;
    let cycles = built.system.cycle() as f64;
    log.add("core.cycles", cycles);
    log.add("core.retired", built.system.total_retired() as f64);
    log.add(
        format!("core.cycles.{}", pipeline_slug(config.pipeline)),
        cycles,
    );
    log.add(format!("core.cycles.{kind}"), cycles);
    add_fast_forward(log, &built.system);
    let c = built.system.pe(built.worker).counters();
    Some((
        c.cpi(),
        (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64,
    ))
}

/// `dse_seeded`: the suite-averaged design-space sweep of fig6 on
/// seeded inputs, then every workload once on the functional model.
#[derive(Debug)]
pub(crate) struct Dse {
    opts: Options,
    params: Params,
    first: Option<Vec<DesignPoint>>,
}

impl Dse {
    /// The workload for `opts`.
    pub fn new(opts: &Options) -> Self {
        Dse {
            opts: opts.clone(),
            params: Params::default(),
            first: None,
        }
    }
}

impl Bench for Dse {
    fn setup(&mut self) -> Result<f64, String> {
        median_time(SETUP_REPS, || {
            for kind in ALL_WORKLOADS {
                probe_build(kind, &self.opts, &self.params)?;
            }
            Ok(())
        })
    }

    fn pass(&mut self, log: &Log) {
        let (opts, params) = (&self.opts, &self.params);
        let grid = span::enter("energy.grid");
        let parent = grid.id();
        let source = |config: &UarchConfig| {
            let _s = span::enter_under("dse.measure", parent);
            let (mut cpi, mut issue) = (0.0, 0.0);
            for kind in ALL_WORKLOADS {
                if let Some((c, i)) = run_uarch(kind, *config, opts, params, log) {
                    cpi += c;
                    issue += i;
                }
            }
            let n = ALL_WORKLOADS.len() as f64;
            CpiMeasurement {
                cpi: cpi / n,
                issue_rate: issue / n,
                ..CpiMeasurement::default()
            }
        };
        let (points, stats) = par_explore_stats_with(opts.threads, &source);
        drop(grid);
        let utilization = stats.utilization();
        log.min(
            "par.min_utilization",
            utilization.iter().copied().fold(1.0, f64::min),
        );
        log.add("energy.points", points.len() as f64);

        let frontiers_found = {
            let _s = span::enter("energy.pareto");
            VtClass::ALL.iter().all(|&vt| {
                let of_vt: Vec<DesignPoint> =
                    points.iter().filter(|p| p.vt == vt).copied().collect();
                !pareto_frontier(&of_vt).is_empty()
            })
        };
        let sweep = if points.is_empty() || !frontiers_found {
            Err("the sweep left a threshold class without a Pareto frontier".to_string())
        } else if self.first.as_ref().is_some_and(|first| *first != points) {
            Err("the sweep differs from the run's first pass".to_string())
        } else {
            Ok(())
        };
        log.check("design-space sweep", sweep);
        self.first.get_or_insert(points);

        for kind in ALL_WORKLOADS {
            let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
            if let Some(built) = run_checked(kind, None, opts, params, &mut factory, log) {
                log.add("sim.cycles", built.system.cycle() as f64);
                add_fast_forward(log, &built.system);
            }
        }
    }
}

/// Read-port latencies of the `idle_latency` fabrics.
const LATENCIES: [u32; 5] = [32, 64, 128, 256, 512];
/// Relay-chain lengths; 0 is the accumulating consumer.
const RELAYS: [usize; 5] = [0, 1, 2, 3, 4];
/// Words of data memory each fabric loads from.
const MEMORY_WORDS: u32 = 4096;

/// Loads every address token and accumulates; on the tag-1 sentinel
/// it emits the sum and halts.
const CONSUMER: &str = "
    when %p == XXXXXXX0 with %i0.0: add %r0, %r0, %i0; deq %i0;
    when %p == XXXXXXX0 with %i0.1: add %o0.0, %r0, %i0; deq %i0; set %p = ZZZZZZZ1;
    when %p == XXXXXXX1: halt;";

/// Forwards every token, keeping its tag; halts after the sentinel.
const RELAY: &str = "
    when %p == XXXXXXX0 with %i0.0: mov %o0.0, %i0; deq %i0;
    when %p == XXXXXXX0 with %i0.1: mov %o0.1, %i0; deq %i0; set %p = ZZZZZZZ1;
    when %p == XXXXXXX1: halt;";

/// One `idle_latency` fabric: a host stream of addresses into a read
/// port of `latency` cycles, whose loads feed either the consumer or a
/// chain of `relays` relay PEs, ending in a sink.
#[derive(Debug, Clone)]
struct IdleFabric {
    latency: u32,
    relays: usize,
    memory: Vec<u32>,
    addresses: Vec<Token>,
    expected: Vec<Token>,
}

fn idle_fabrics(seed: u64, loads: usize) -> Vec<IdleFabric> {
    let mut fabrics = Vec::new();
    for (i, &latency) in LATENCIES.iter().enumerate() {
        for (j, &relays) in RELAYS.iter().enumerate() {
            let mut rng = Rng::new(seed, 0x1d1e_0000 + (i * RELAYS.len() + j) as u64);
            let memory: Vec<u32> = (0..MEMORY_WORDS).map(|_| rng.next_u64() as u32).collect();
            let addresses: Vec<Token> = (0..loads)
                .map(|k| {
                    let tag = Tag::new_unchecked(u32::from(k + 1 == loads));
                    Token::new(tag, rng.below(u64::from(MEMORY_WORDS)) as u32)
                })
                .collect();
            let loaded: Vec<Token> = addresses
                .iter()
                .map(|a| Token::new(a.tag, memory[a.data as usize]))
                .collect();
            let expected = if relays == 0 {
                let sum = loaded.iter().fold(0u32, |s, t| s.wrapping_add(t.data));
                vec![Token::data(sum)]
            } else {
                loaded
            };
            fabrics.push(IdleFabric {
                latency,
                relays,
                memory,
                addresses,
                expected,
            });
        }
    }
    fabrics
}

impl IdleFabric {
    /// Builds the fabric with `make` turning each program into a PE.
    fn build<P: ProcessingElement>(
        &self,
        params: &Params,
        (consumer, relay): &(Program, Program),
        make: &mut dyn FnMut(Program) -> Result<P, IsaError>,
    ) -> Result<System<P>, IsaError> {
        let mut sys = System::new(Memory::from_words(self.memory.clone()));
        let port = sys.add_read_port(ReadPort::new(params.queue_capacity, self.latency));
        let source = sys.add_source(StreamSource::new(
            params.queue_capacity,
            self.addresses.clone(),
        ));
        sys.connect(OutputRef::Source { source }, InputRef::ReadAddr { port })?;
        let mut upstream = OutputRef::ReadData { port };
        let programs = if self.relays == 0 {
            vec![consumer]
        } else {
            vec![relay; self.relays]
        };
        for program in programs {
            let pe = sys.add_pe(make(program.clone())?);
            sys.connect(upstream, InputRef::Pe { pe, queue: 0 })?;
            upstream = OutputRef::Pe { pe, queue: 0 };
        }
        let sink = sys.add_sink(StreamSink::new(params.queue_capacity));
        sys.connect(upstream, InputRef::Sink { sink })?;
        Ok(sys)
    }

    /// Runs until every PE halts, lets the last tokens reach the sink,
    /// and checks what it collected.
    fn run<P: ProcessingElement>(&self, sys: &mut System<P>) -> Result<(), String> {
        let budget = (self.addresses.len() as u64 + 2) * u64::from(self.latency + 8) + 10_000;
        if sys.run(budget) == tia_fabric::StopReason::CycleLimit {
            return Err(format!("did not halt within {budget} cycles"));
        }
        for _ in 0..64 {
            if sys.sink(0).collected().len() >= self.expected.len() {
                break;
            }
            sys.step();
        }
        if sys.sink(0).collected() != self.expected.as_slice() {
            return Err(format!(
                "sink holds {} tokens, not the {} expected from the seed",
                sys.sink(0).collected().len(),
                self.expected.len()
            ));
        }
        Ok(())
    }

    /// Builds and runs the fabric on the engine `config` names (see
    /// [`engine_name`]), logging the outcome as one operation. `None`
    /// when either step failed.
    fn run_checked<P: ProcessingElement>(
        &self,
        params: &Params,
        programs: &(Program, Program),
        config: Option<UarchConfig>,
        make: &mut dyn FnMut(Program) -> Result<P, IsaError>,
        log: &Log,
    ) -> Option<System<P>> {
        let built = {
            let _s = span::enter("idle.build");
            self.build(params, programs, make)
        };
        let result = built.map_err(|e| e.to_string()).and_then(|mut sys| {
            let mut s = span::enter(if config.is_some() {
                "core.run"
            } else {
                "sim.run"
            });
            if let Some(c) = config {
                s.arg("pipeline", c.pipeline.name());
            }
            self.run(&mut sys).map(|()| sys)
        });
        match result {
            Ok(sys) => {
                log.ok();
                Some(sys)
            }
            Err(e) => {
                log.fail(format!(
                    "{} relays, latency {} on {}: {e}",
                    self.relays,
                    self.latency,
                    engine_name(config)
                ));
                None
            }
        }
    }
}

/// `idle_latency`: stall-dominated fabrics run on all eight pipelines
/// (with +P+Q) and on the functional model.
#[derive(Debug)]
pub(crate) struct Idle {
    opts: Options,
    params: Params,
    fabrics: Vec<IdleFabric>,
    programs: Option<(Program, Program)>,
}

impl Idle {
    /// The workload for `opts`.
    pub fn new(opts: &Options) -> Self {
        Idle {
            opts: opts.clone(),
            params: Params::default(),
            fabrics: Vec::new(),
            programs: None,
        }
    }

    fn loads(&self) -> usize {
        match self.opts.scale {
            Scale::Test => 16,
            Scale::Paper => 2048,
        }
    }
}

impl Bench for Idle {
    fn setup(&mut self) -> Result<f64, String> {
        median_time(SETUP_REPS, || {
            self.fabrics = idle_fabrics(self.opts.seed, self.loads());
            let asm = |src| assemble(src, &self.params).map_err(|e| format!("idle program: {e}"));
            self.programs = Some((asm(CONSUMER)?, asm(RELAY)?));
            Ok(())
        })
    }

    fn pass(&mut self, log: &Log) {
        let programs = self
            .programs
            .as_ref()
            .expect("set-up assembled the programs");
        let params = &self.params;
        for fabric in &self.fabrics {
            for pipeline in Pipeline::ALL {
                let config = UarchConfig::with_pq(pipeline);
                let mut make = |prog| {
                    let _s = span::enter("core.pe_new");
                    UarchPe::new(params, config, prog)
                };
                if let Some(sys) =
                    fabric.run_checked(params, programs, Some(config), &mut make, log)
                {
                    let cycles = sys.cycle() as f64;
                    log.add("core.cycles", cycles);
                    log.add("core.retired", sys.total_retired() as f64);
                    log.add(format!("core.cycles.{}", pipeline_slug(pipeline)), cycles);
                    add_fast_forward(log, &sys);
                }
            }
            let mut make = |prog| FuncPe::new(params, prog);
            if let Some(sys) = fabric.run_checked(params, programs, None, &mut make, log) {
                log.add("sim.cycles", sys.cycle() as f64);
                add_fast_forward(log, &sys);
            }
        }
    }
}

/// One workload fabric as the model checker sees it.
#[derive(Debug)]
struct CheckedFabric {
    kind: WorkloadKind,
    programs: Vec<Program>,
    links: Vec<Link>,
    seeds: Vec<SeedToken>,
}

fn checked_fabric(
    kind: WorkloadKind,
    opts: &Options,
    params: &Params,
) -> Result<CheckedFabric, String> {
    let mut built = probe_build(kind, opts, params)?;
    let programs: Vec<Program> = (0..built.system.num_pes())
        .map(|pe| built.system.pe(pe).program().clone())
        .collect();
    // Tokens a builder pre-loads into PE input queues are part of the
    // fabric's initial state, as in the workloads' verify gate.
    let mut seeds = Vec::new();
    for pe in 0..programs.len() {
        for queue in 0..params.num_input_queues {
            for token in built.system.pe_mut(pe).input_queue_mut(queue).iter() {
                seeds.push(SeedToken {
                    pe,
                    queue,
                    tag: token.tag,
                });
            }
        }
        for queue in 0..params.num_output_queues {
            if !built.system.pe_mut(pe).output_queue_mut(queue).is_empty() {
                return Err(format!(
                    "{kind}: pe{pe} %o{queue} is pre-loaded, which the checker cannot model"
                ));
            }
        }
    }
    Ok(CheckedFabric {
        kind,
        programs,
        links: built.system.links().to_vec(),
        seeds,
    })
}

/// `verify_fabrics`: lint and model-check the ten workload fabrics and
/// replay every counterexample on the functional model.
#[derive(Debug)]
pub(crate) struct Verify {
    opts: Options,
    params: Params,
    fabrics: Vec<CheckedFabric>,
}

impl Verify {
    /// The workload for `opts`.
    pub fn new(opts: &Options) -> Self {
        Verify {
            opts: opts.clone(),
            params: Params::default(),
            fabrics: Vec::new(),
        }
    }

    fn max_states(&self) -> usize {
        match self.opts.scale {
            Scale::Test => 1 << 12,
            Scale::Paper => tia_verify::DEFAULT_MAX_STATES,
        }
    }
}

impl Bench for Verify {
    fn setup(&mut self) -> Result<f64, String> {
        median_time(SETUP_REPS, || {
            self.fabrics = ALL_WORKLOADS
                .into_iter()
                .map(|kind| checked_fabric(kind, &self.opts, &self.params))
                .collect::<Result<_, _>>()?;
            Ok(())
        })
    }

    fn pass(&mut self, log: &Log) {
        let params = &self.params;
        let max_states = self.max_states();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(f) = self.fabrics.get(i) else {
                break;
            };
            verify_one(f, params, max_states, log);
        };
        std::thread::scope(|scope| {
            for _ in 0..self.opts.threads {
                scope.spawn(worker);
            }
        });
    }
}

fn verify_one(f: &CheckedFabric, params: &Params, max_states: usize, log: &Log) {
    let kind = f.kind;
    {
        let _s = span::enter("lint");
        lint_system(&f.programs, params, &f.links);
    }
    let options = VerifyOptions {
        max_states,
        seed_tokens: f.seeds.clone(),
        ..VerifyOptions::default()
    };
    let report = {
        let mut s = span::enter("verify");
        s.arg("workload", kind.name());
        verify_system(&f.programs, params, &f.links, &options)
    };
    log.ok();
    log.add(format!("verify.{kind}.states"), report.states as f64);
    if !report.exhaustive {
        log.add("verify.inconclusive", 1.0);
    }
    if report.deadlock_free() {
        log.add("verify_proved", 1.0);
    }
    for finding in &report.findings {
        let Some(trace) = &finding.trace else {
            continue;
        };
        let outcome = {
            let _s = span::enter("verify.replay");
            replay_trace::<FuncPe>(&f.programs, params, &f.links, &f.seeds, trace)
        };
        let result = match outcome {
            Ok(ReplayOutcome::Confirmed) => Ok(()),
            // The documented precision limit: the abstraction forks a
            // data-dependent predicate both ways, and the replay's data
            // takes the other branch. Sound, just not exercised.
            Ok(ReplayOutcome::Diverged(why)) if why.contains("fork not exercised") => {
                log.add("verify.fork_divergent", 1.0);
                Ok(())
            }
            Ok(ReplayOutcome::Diverged(why)) => Err(format!("does not replay: {why}")),
            Err(e) => Err(format!("cannot be replayed: {e}")),
        };
        log.check(
            format_args!("{kind} {} counterexample", finding.check),
            result,
        );
    }
}
