//! `tia-funcsim` — the command-line functional simulator of the
//! toolchain (Figure 1): executes one PE's program against input
//! streams and prints its architectural results.
//!
//! ```text
//! tia-funcsim [--params params.json] [--hex] [--lint] [--verify]
//!             [--lint-format human|json] [--max-cycles N]
//!             [--in Q:v1,v2,...] [--stream Q:v1,v2,...@P]
//!             [--trace-out FILE] [--trace-format chrome|jsonl]
//!             [--metrics-out FILE] [--cpi-window N]
//!             [--profile] [--profile-out FILE] <program>
//! ```
//!
//! `--lint` runs the `tia-lint` static analyzer before simulating:
//! warnings are printed but the run proceeds; error-level findings
//! abort it (see docs/static-analysis.md). `--verify` additionally
//! runs the `tia-verify` model checker on the program closed with a
//! friendly environment and reports its proof or counterexample;
//! error-level verifier findings abort the run too. With
//! `--lint-format json` the lint and verifier findings are emitted as
//! one machine-readable report object on stdout
//! (`{"lint": ..., "verify": ...}`) and the simulation is skipped —
//! the report owns stdout, so downstream tooling gets both analyses
//! in a single document.
//!
//! `<program>` is assembly (default) or, with `--hex`, the padded
//! 128-bit instruction images `tia-as` emits. Each `--in Q:...` option
//! preloads input queue `Q` with a comma-separated token list; a token
//! is `value` (tag 0) or `tag:value`. `--stream Q:...@P` instead
//! delivers one token to queue `Q` every `P` cycles, modelling a
//! rate-limited producer (and so exercising genuine stall cycles).
//! On exit the simulator prints the register file, predicate state,
//! output-queue contents, and the performance counters.
//!
//! Observability: `--trace-out` writes the cycle-level event stream as
//! a Chrome/Perfetto `trace_event` JSON document (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) or, with
//! `--trace-format jsonl`, as one JSON event per line. `--metrics-out`
//! writes a JSON registry of every counter plus event-derived
//! histograms (queue occupancy, stall run lengths); `--cpi-window N`
//! adds a windowed CPI-stack timeline to that document.
//!
//! Profiling (see docs/profiling.md): `--profile` attaches the
//! hierarchical cycle-stack profiler — every simulated cycle is
//! attributed to exactly one taxonomy leaf — and prints the stack as a
//! percentage tree plus a channel-pressure ranking after the run.
//! `--profile-out FILE` (implies `--profile`) additionally writes the
//! stack, shares, bottleneck label and channel ranking as JSON. With
//! `--profile` and a Chrome trace (`--trace-out`), sampled cycle-stack
//! counters are added to the trace's `profile` track so Perfetto draws
//! where cycles went over time.
//!
//! Robustness (see docs/robustness.md): `--checkpoint-every N
//! --checkpoint-out PATH` writes a resumable snapshot every `N` cycles
//! (atomically, so an interrupt never leaves a truncated file);
//! `--resume PATH` continues a run from such a snapshot — re-invoke
//! with the *same* program, parameters and input options, and the
//! continuation is bit-identical to the uninterrupted run.
//! `--watchdog N` aborts with a diagnostic state dump when `N` cycles
//! pass without an instruction retiring (deadlock or quiescence short
//! of `halt`), instead of silently spinning to `--max-cycles`.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use tia_ckpt::{Hang, Progress, Snapshot, Watchdog};
use tia_fabric::{ProcessingElement, Token};
use tia_isa::{Params, Program, Tag};
use tia_prof::{rank_pe_channels, ChannelRank, CycleStack, Leaf, LeafShares, PeProfiler};
use tia_sim::{FuncPe, FuncPeState};
use tia_trace::{
    chrome, jsonl, CpiTimeline, MetricsRegistry, NullTracer, ProfileSource, RingTracer, Tracer,
};

/// The snapshot `kind` tag for funcsim checkpoints.
const FUNCSIM_KIND: &str = "tia-funcsim";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
}

#[derive(Debug)]
struct Options {
    params: Params,
    program_path: String,
    hex: bool,
    lint: bool,
    verify: bool,
    lint_json: bool,
    max_cycles: u64,
    inputs: Vec<(usize, Vec<Token>)>,
    streams: Vec<(usize, Vec<Token>, u64)>,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    metrics_out: Option<String>,
    cpi_window: Option<u64>,
    profile: bool,
    profile_out: Option<String>,
    checkpoint_every: Option<u64>,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    watchdog: Option<u64>,
}

/// Everything beyond the PE itself that the simulation loop carries:
/// stream cursors and already-drained output tokens. Together with
/// [`FuncPeState`] this resumes a run bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FuncsimCheckpoint {
    /// The next loop cycle to execute.
    cycle: u64,
    /// The PE's architectural state.
    pe: FuncPeState,
    /// Per `--stream` option, how many tokens have been delivered.
    stream_next: Vec<usize>,
    /// Tokens drained from each output queue so far.
    outputs: Vec<Vec<Token>>,
}

fn parse_token(text: &str, params: &Params) -> Result<Token, String> {
    let mut parts = text.splitn(2, ':');
    let first = parts.next().expect("splitn yields at least one part");
    match parts.next() {
        None => {
            let value: u32 = first
                .parse()
                .map_err(|e| format!("bad token value `{first}`: {e}"))?;
            Ok(Token::data(value))
        }
        Some(value_text) => {
            let tag_value: u32 = first
                .parse()
                .map_err(|e| format!("bad tag `{first}`: {e}"))?;
            let value: u32 = value_text
                .parse()
                .map_err(|e| format!("bad token value `{value_text}`: {e}"))?;
            let tag = Tag::new(tag_value, params).map_err(|e| e.to_string())?;
            Ok(Token::new(tag, value))
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut params = Params::default();
    let mut program_path = None;
    let mut hex = false;
    let mut lint = false;
    let mut verify = false;
    let mut lint_json = false;
    let mut max_cycles = 1_000_000u64;
    let mut raw_inputs: Vec<String> = Vec::new();
    let mut raw_streams: Vec<String> = Vec::new();
    let mut trace_out = None;
    let mut trace_format = TraceFormat::Chrome;
    let mut metrics_out = None;
    let mut cpi_window = None;
    let mut profile = false;
    let mut profile_out = None;
    let mut checkpoint_every = None;
    let mut checkpoint_out = None;
    let mut resume = None;
    let mut watchdog = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--params" => {
                let path = args.next().ok_or("--params needs a file")?;
                let text =
                    fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
                params = serde_json::from_str(&text)
                    .map_err(|e| format!("invalid parameter file {path}: {e}"))?;
                params.validate().map_err(|e| format!("{path}: {e}"))?;
            }
            "--hex" => hex = true,
            "--lint" => lint = true,
            "--verify" => verify = true,
            "--lint-format" => {
                let format = args.next().ok_or("--lint-format needs human|json")?;
                lint_json = match format.as_str() {
                    "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown lint format `{other}`")),
                };
            }
            "--max-cycles" => {
                max_cycles = args
                    .next()
                    .ok_or("--max-cycles needs a number")?
                    .parse()
                    .map_err(|e| format!("bad cycle count: {e}"))?;
            }
            "--in" => raw_inputs.push(args.next().ok_or("--in needs Q:v1,v2,...")?),
            "--stream" => raw_streams.push(args.next().ok_or("--stream needs Q:v1,v2,...@P")?),
            "--trace-out" => trace_out = Some(args.next().ok_or("--trace-out needs a file")?),
            "--trace-format" => {
                let format = args.next().ok_or("--trace-format needs chrome|jsonl")?;
                trace_format = match format.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "jsonl" => TraceFormat::Jsonl,
                    other => return Err(format!("unknown trace format `{other}`")),
                };
            }
            "--metrics-out" => metrics_out = Some(args.next().ok_or("--metrics-out needs a file")?),
            "--cpi-window" => {
                let window: u64 = args
                    .next()
                    .ok_or("--cpi-window needs a cycle count")?
                    .parse()
                    .map_err(|e| format!("bad window size: {e}"))?;
                if window == 0 {
                    return Err("--cpi-window must be positive".to_string());
                }
                cpi_window = Some(window);
            }
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = Some(args.next().ok_or("--profile-out needs a file")?);
                profile = true;
            }
            "--checkpoint-every" => {
                let every: u64 = args
                    .next()
                    .ok_or("--checkpoint-every needs a cycle count")?
                    .parse()
                    .map_err(|e| format!("bad checkpoint interval: {e}"))?;
                if every == 0 {
                    return Err("--checkpoint-every must be positive".to_string());
                }
                checkpoint_every = Some(every);
            }
            "--checkpoint-out" => {
                checkpoint_out = Some(args.next().ok_or("--checkpoint-out needs a file")?);
            }
            "--resume" => resume = Some(args.next().ok_or("--resume needs a file")?),
            "--watchdog" => {
                let window: u64 = args
                    .next()
                    .ok_or("--watchdog needs a cycle count")?
                    .parse()
                    .map_err(|e| format!("bad watchdog window: {e}"))?;
                if window == 0 {
                    return Err("--watchdog must be positive".to_string());
                }
                watchdog = Some(window);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: tia-funcsim [--params params.json] [--hex] [--lint] \
                            [--verify] [--lint-format human|json] \
                            [--max-cycles N] [--in Q:v1,v2,...] \
                            [--stream Q:v1,v2,...@P] [--trace-out FILE] \
                            [--trace-format chrome|jsonl] [--metrics-out FILE] \
                            [--cpi-window N] [--profile] [--profile-out FILE] \
                            [--checkpoint-every N] \
                            [--checkpoint-out FILE] [--resume FILE] \
                            [--watchdog N] <program>"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                if program_path.replace(other.to_string()).is_some() {
                    return Err("multiple program files given".to_string());
                }
            }
        }
    }
    let parse_queue_tokens = |raw: &str, flag: &str| -> Result<(usize, Vec<Token>), String> {
        let (queue_text, tokens_text) = raw
            .split_once(':')
            .ok_or_else(|| format!("{flag} wants Q:v1,v2,... got `{raw}`"))?;
        let queue: usize = queue_text
            .parse()
            .map_err(|e| format!("bad queue index `{queue_text}`: {e}"))?;
        if queue >= params.num_input_queues {
            return Err(format!("queue {queue} out of range"));
        }
        let tokens = tokens_text
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| parse_token(t, &params))
            .collect::<Result<Vec<Token>, String>>()?;
        Ok((queue, tokens))
    };
    let mut inputs = Vec::new();
    for raw in raw_inputs {
        inputs.push(parse_queue_tokens(&raw, "--in")?);
    }
    let mut streams = Vec::new();
    for raw in raw_streams {
        let (spec, period_text) = raw
            .rsplit_once('@')
            .ok_or_else(|| format!("--stream wants Q:v1,v2,...@P got `{raw}`"))?;
        let period: u64 = period_text
            .parse()
            .map_err(|e| format!("bad stream period `{period_text}`: {e}"))?;
        if period == 0 {
            return Err("stream period must be positive".to_string());
        }
        let (queue, tokens) = parse_queue_tokens(spec, "--stream")?;
        streams.push((queue, tokens, period));
    }
    if cpi_window.is_some() && metrics_out.is_none() {
        return Err("--cpi-window requires --metrics-out".to_string());
    }
    if checkpoint_every.is_some() != checkpoint_out.is_some() {
        return Err("--checkpoint-every and --checkpoint-out must be given together".to_string());
    }
    Ok(Options {
        params,
        program_path: program_path.ok_or("no program file given")?,
        hex,
        lint,
        verify,
        lint_json,
        max_cycles,
        inputs,
        streams,
        trace_out,
        trace_format,
        metrics_out,
        cpi_window,
        profile,
        profile_out,
        checkpoint_every,
        checkpoint_out,
        resume,
        watchdog,
    })
}

fn load_program(opts: &Options) -> Result<(Program, Vec<tia_lint::Span>), String> {
    let text = fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    if opts.hex {
        let mut images = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            images.push(
                u128::from_str_radix(line, 16)
                    .map_err(|e| format!("line {}: malformed image: {e}", i + 1))?,
            );
        }
        let program = Program::from_images(&images, &opts.params).map_err(|e| e.to_string())?;
        Ok((program, Vec::new()))
    } else {
        let (program, positions) =
            tia_asm::assemble_with_spans(&text, &opts.params).map_err(|e| e.to_string())?;
        let spans = positions
            .iter()
            .map(|p| tia_lint::Span {
                line: p.line,
                column: p.column,
            })
            .collect();
        Ok((program, spans))
    }
}

/// Writes a resumable snapshot of the whole simulation loop state.
fn write_checkpoint<T: Tracer>(
    path: &str,
    cycle: u64,
    pe: &FuncPe<T>,
    streams: &[(usize, Vec<Token>, usize, u64)],
    outputs: &[Vec<Token>],
) -> Result<(), String> {
    let checkpoint = FuncsimCheckpoint {
        cycle,
        pe: pe.snapshot(),
        stream_next: streams.iter().map(|(_, _, next, _)| *next).collect(),
        outputs: outputs.to_vec(),
    };
    Snapshot::new(FUNCSIM_KIND, serde::Serialize::to_value(&checkpoint))
        .save(Path::new(path))
        .map_err(|e| e.to_string())
}

/// What a finished simulation hands back: the PE, the drained output
/// tokens per queue, and the profiler if one was attached.
type SimOutcome<T> = (FuncPe<T>, Vec<Vec<Token>>, Option<PeProfiler>);

/// Runs the program to halt or the cycle limit, draining output queues
/// and feeding `--stream` producers. Monomorphizes per tracer, so the
/// untraced path carries no tracing code at all.
fn simulate<T: Tracer>(
    opts: &Options,
    program: Program,
    tracer: T,
) -> Result<SimOutcome<T>, String> {
    let mut pe = FuncPe::with_tracer(&opts.params, program, tracer).map_err(|e| e.to_string())?;
    for (queue, tokens) in &opts.inputs {
        for token in tokens {
            if !pe.input_queue_mut(*queue).push(*token) {
                return Err(format!(
                    "input queue {queue} overflows (capacity {})",
                    opts.params.queue_capacity
                ));
            }
        }
    }

    // (queue, tokens, next undelivered index, period)
    let mut streams: Vec<(usize, Vec<Token>, usize, u64)> = opts
        .streams
        .iter()
        .map(|(q, tokens, period)| (*q, tokens.clone(), 0, *period))
        .collect();
    let mut outputs: Vec<Vec<Token>> = vec![Vec::new(); opts.params.num_output_queues];
    let mut start_cycle = 0u64;

    if let Some(path) = &opts.resume {
        let snapshot = Snapshot::load(Path::new(path)).map_err(|e| e.to_string())?;
        snapshot
            .check_kind(FUNCSIM_KIND)
            .map_err(|e| e.to_string())?;
        let checkpoint = FuncsimCheckpoint::from_value(&snapshot.state)
            .map_err(|e| format!("malformed checkpoint {path}: {e}"))?;
        pe.restore(&checkpoint.pe)
            .map_err(|e| format!("checkpoint {path} does not fit this program: {e}"))?;
        if checkpoint.stream_next.len() != streams.len() {
            return Err(format!(
                "checkpoint {path} was taken with {} --stream option(s), this run has {}",
                checkpoint.stream_next.len(),
                streams.len()
            ));
        }
        for ((_, tokens, next, _), &resumed) in streams.iter_mut().zip(&checkpoint.stream_next) {
            if resumed > tokens.len() {
                return Err(format!(
                    "checkpoint {path} delivered {resumed} stream tokens, this run only has {}",
                    tokens.len()
                ));
            }
            *next = resumed;
        }
        if checkpoint.outputs.len() != outputs.len() {
            return Err(format!(
                "checkpoint {path} has {} output queues, this run has {}",
                checkpoint.outputs.len(),
                outputs.len()
            ));
        }
        outputs = checkpoint.outputs;
        start_cycle = checkpoint.cycle;
    }

    // The profiler is a pure observer diffing counter snapshots, so
    // attaching it cannot perturb the simulation; on a resumed run the
    // in-flight debt mechanism keeps its stack summing to the cycles
    // observed *by this process*.
    let mut profiler = if opts.profile {
        let mut p = PeProfiler::new(&pe, start_cycle);
        if opts.trace_out.is_some() && opts.trace_format == TraceFormat::Chrome {
            // Bound the counter track to ~512 samples regardless of
            // run length.
            p.enable_sampling((opts.max_cycles / 512).max(1), opts.max_cycles);
        }
        Some(p)
    } else {
        None
    };
    let mut watchdog = opts.watchdog.map(Watchdog::new);
    let mut cycle = start_cycle;
    while cycle < opts.max_cycles {
        if pe.halted() {
            break;
        }
        for (queue, tokens, next, period) in &mut streams {
            if cycle.is_multiple_of(*period) {
                if let Some(&token) = tokens.get(*next) {
                    if pe.input_queue_mut(*queue).push(token) {
                        *next += 1;
                    }
                }
            }
        }
        pe.step_cycle();
        for (q, sink) in outputs.iter_mut().enumerate() {
            while let Some(t) = pe.output_queue_mut(q).pop() {
                sink.push(t);
            }
        }
        let done = cycle + 1;
        if let Some(p) = &mut profiler {
            p.observe(&pe, done);
        }
        if let (Some(every), Some(path)) = (opts.checkpoint_every, &opts.checkpoint_out) {
            if done.is_multiple_of(every) {
                write_checkpoint(path, done, &pe, &streams, &outputs)?;
            }
        }
        if let Some(dog) = &mut watchdog {
            let queued_tokens = (0..opts.params.num_input_queues)
                .map(|q| pe.input_queue(q).occupancy() as u64)
                .chain(
                    (0..opts.params.num_output_queues)
                        .map(|q| pe.output_queue(q).occupancy() as u64),
                )
                .sum::<u64>()
                + streams
                    .iter()
                    .map(|(_, tokens, next, _)| (tokens.len() - next) as u64)
                    .sum::<u64>();
            let progress = Progress {
                cycle: done,
                retired: pe.counters().retired,
                queued_tokens,
                halted: pe.halted(),
            };
            if let Some(hang) = dog.observe(progress) {
                return Err(hang_failure(&pe, hang, profiler.as_ref()));
            }
        }
        cycle += 1;

        // Fast-forward: when the PE is provably idle until external
        // traffic arrives, bulk-account whole idle stretches instead
        // of stepping them. Every iteration with an observable side
        // effect stays a real step: stream-delivery boundaries (even a
        // rejected push bumps the queue's `rejected` statistic, which
        // snapshots record), checkpoint boundaries (the file must be
        // written), and the watchdog's firing cycle (clamped to its
        // quiet headroom, with skipped cycles credited via
        // `note_skipped`). The result is bit-identical to the
        // cycle-by-cycle run.
        if cycle < opts.max_cycles && pe.is_quiescent() {
            let mut skip = opts.max_cycles - cycle;
            for (_, tokens, next, period) in &streams {
                if *next < tokens.len() {
                    // Distance to the next delivery iteration (zero
                    // when `cycle` itself delivers).
                    skip = skip.min((*period - cycle % *period) % *period);
                }
            }
            if let Some(every) = opts.checkpoint_every {
                // The iteration whose completion lands on a checkpoint
                // boundary must run for real to write the file.
                let to_boundary = (every - (cycle + 1) % every) % every;
                skip = skip.min(to_boundary);
            }
            if let Some(dog) = &watchdog {
                skip = skip.min(dog.quiet_headroom());
            }
            if skip > 0 {
                pe.skip_idle_cycles(skip);
                if let Some(dog) = &mut watchdog {
                    dog.note_skipped(skip);
                }
                cycle += skip;
                // One observation covers the whole frozen span: the
                // PE's trigger state cannot change while quiescent, so
                // the per-cycle classification is exact.
                if let Some(p) = &mut profiler {
                    p.observe(&pe, cycle);
                }
            }
        }
    }
    Ok((pe, outputs, profiler))
}

/// Formats a watchdog hang as a fatal error, dumping the PE state to
/// stderr for diagnosis. With profiling on, the cycle stack observed
/// up to the hang labels the stall class the PE is wedged in; without
/// it, a coarse stack from the cumulative counters stands in.
fn hang_failure<T: Tracer>(pe: &FuncPe<T>, hang: Hang, profiler: Option<&PeProfiler>) -> String {
    let dump = Snapshot::capture(FUNCSIM_KIND, pe).to_json();
    eprintln!("tia-funcsim: state at hang:\n{dump}");
    let (stack, cycles) = match profiler {
        Some(p) => (*p.stack(), p.observed_cycles()),
        None => {
            let c = pe.prof_counters();
            (CycleStack::coarse(&c, c.cycles), c.cycles)
        }
    };
    eprint!(
        "tia-funcsim: cycle stack at hang:\n{}",
        stack.render_tree("funcsim", cycles)
    );
    eprintln!("tia-funcsim: wedged in: {}", stack.bottleneck());
    format!("watchdog: {hang}")
}

/// The `--profile-out` JSON document.
#[derive(Serialize)]
struct ProfileReport {
    /// Cycles observed by the profiler (== simulated cycles when
    /// attached from cycle zero).
    observed_cycles: u64,
    /// Absolute per-leaf cycle counts; sums to `observed_cycles`.
    stack: CycleStack,
    /// The same stack normalized to shares of the observed cycles.
    shares: LeafShares,
    /// The dominant taxonomy leaf.
    bottleneck: Leaf,
    /// Input/output channel pressure, busiest first.
    channels: Vec<ChannelRank>,
}

/// Prints the profiler's findings and, with `--profile-out`, writes
/// them as JSON.
fn report_profile<T: Tracer>(
    opts: &Options,
    pe: &FuncPe<T>,
    profiler: &PeProfiler,
) -> Result<(), String> {
    let stack = profiler.stack();
    let cycles = profiler.observed_cycles();
    print!("\n{}", stack.render_tree("funcsim", cycles));
    println!("bottleneck: {}", stack.bottleneck());
    let channels = rank_pe_channels(pe);
    for c in channels.iter().take(4) {
        println!(
            "channel {} queue {}: {} pushes, {} rejected, high water {}/{}",
            c.direction, c.queue, c.pushes, c.rejected, c.high_water, c.capacity
        );
    }
    if let Some(path) = &opts.profile_out {
        let report = ProfileReport {
            observed_cycles: cycles,
            stack: *stack,
            shares: stack.shares(cycles),
            bottleneck: stack.bottleneck(),
            channels,
        };
        let text = serde_json::to_string_pretty(&serde::Serialize::to_value(&report))
            .map_err(|e| format!("profile serialization failed: {e}"))?;
        fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn print_summary<T: Tracer>(opts: &Options, pe: &FuncPe<T>, outputs: &[Vec<Token>]) {
    println!(
        "{} after {} cycles, {} instructions retired (CPI {:.3})",
        if pe.halted() {
            "halted"
        } else {
            "cycle limit reached"
        },
        pe.counters().cycles,
        pe.counters().retired,
        pe.counters().cpi(),
    );
    print!("registers:");
    for i in 0..opts.params.num_regs {
        print!(" %r{i}={:#x}", pe.reg(i));
    }
    println!();
    println!("predicates: {}", pe.predicates());
    for (q, tokens) in outputs.iter().enumerate() {
        if tokens.is_empty() {
            continue;
        }
        print!("%o{q}:");
        for t in tokens {
            print!(" {t}");
        }
        println!();
    }
    println!(
        "counters: idle={} pred_writes={} dequeues={} enqueues={}",
        pe.counters().idle,
        pe.counters().predicate_writes,
        pe.counters().dequeues,
        pe.counters().enqueues,
    );
}

/// Writes trace/metrics artifacts from the recorded event stream.
fn export_observability(
    opts: &Options,
    pe: FuncPe<RingTracer>,
    profiler: Option<&PeProfiler>,
) -> Result<(), String> {
    let metrics_counters = *pe.counters();
    let tracer = pe.into_tracer();
    if tracer.dropped() > 0 {
        eprintln!(
            "tia-funcsim: warning: trace ring overflowed, oldest {} events dropped",
            tracer.dropped()
        );
    }
    let events = tracer.into_events();

    if let Some(path) = &opts.trace_out {
        let document = match opts.trace_format {
            TraceFormat::Chrome => {
                let mut trace = chrome::ChromeTrace::new();
                trace.add_pe(0, "funcsim");
                trace.add_events(&events);
                // Sampled cycle-stack counters on the `profile` track:
                // Perfetto draws each leaf as a monotone counter, so
                // the slope between samples is the leaf's share of
                // those cycles.
                if let Some(p) = profiler {
                    for &(cycle, stack) in p.samples() {
                        for leaf in Leaf::ALL {
                            trace.add_profile_counter(0, cycle, leaf.name(), stack.get(leaf));
                        }
                    }
                }
                trace.to_json()
            }
            TraceFormat::Jsonl => jsonl::export(&events),
        };
        fs::write(path, document).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if let Some(path) = &opts.metrics_out {
        let mut metrics = MetricsRegistry::new();
        metrics_counters.register_into(&mut metrics);
        metrics.record_events(&events);
        let mut doc = serde::Serialize::to_value(&metrics);
        if let Some(window) = opts.cpi_window {
            let timeline =
                CpiTimeline::from_events_with_end(&events, window, metrics_counters.cycles);
            if let serde::Value::Object(fields) = &mut doc {
                fields.push((
                    "cpi_timeline".to_string(),
                    serde::Serialize::to_value(&timeline),
                ));
            }
        }
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("metrics serialization failed: {e}"))?;
        fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let (program, spans) = load_program(&opts)?;
    if opts.lint || opts.verify {
        let lint = opts
            .lint
            .then(|| tia_lint::lint_program_with_spans(&program, &opts.params, &spans));
        let verify = opts
            .verify
            .then(|| tia_verify::verify_program(&program, &opts.params));
        if opts.lint_json {
            // One combined machine-readable report owns stdout; the
            // simulation is skipped so downstream tooling sees exactly
            // one document.
            let mut fields = Vec::new();
            if let Some(report) = &lint {
                fields.push(("lint".to_string(), report.to_value()));
            }
            if let Some(report) = &verify {
                fields.push(("verify".to_string(), report.to_value()));
            }
            let combined = serde::Value::Object(fields);
            println!(
                "{}",
                serde_json::to_string_pretty(&combined)
                    .map_err(|e| format!("report serialization failed: {e}"))?
            );
        } else {
            if let Some(report) = &lint {
                for diagnostic in &report.diagnostics {
                    eprintln!("{}", diagnostic.render(Some(&opts.program_path)));
                }
            }
            if let Some(report) = &verify {
                eprint!("{}", report.render(Some(&opts.program_path)));
            }
        }
        if let Some(report) = &lint {
            if report.error_count() > 0 {
                return Err(format!(
                    "lint failed: {} error(s); not simulating",
                    report.error_count()
                ));
            }
        }
        if let Some(report) = &verify {
            let errors = report
                .findings
                .iter()
                .filter(|f| f.level == tia_lint::Level::Error)
                .count();
            if errors > 0 {
                return Err(format!(
                    "verify failed: {errors} error-level finding(s); not simulating — {}",
                    report.verdict()
                ));
            }
        }
        if opts.lint_json {
            return Ok(());
        }
    }
    let observing = opts.trace_out.is_some() || opts.metrics_out.is_some();
    if observing {
        let (pe, outputs, profiler) =
            simulate(&opts, program, RingTracer::with_default_capacity())?;
        print_summary(&opts, &pe, &outputs);
        if let Some(p) = &profiler {
            report_profile(&opts, &pe, p)?;
        }
        export_observability(&opts, pe, profiler.as_ref())?;
    } else {
        let (pe, outputs, profiler) = simulate(&opts, program, NullTracer)?;
        print_summary(&opts, &pe, &outputs);
        if let Some(p) = &profiler {
            report_profile(&opts, &pe, p)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tia-funcsim: {message}");
            ExitCode::FAILURE
        }
    }
}
