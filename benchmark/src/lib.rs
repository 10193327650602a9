//! `tia-benchmark`: repeated, layered host-time measurements of the
//! TIA simulator.
//!
//! One run executes passes of one [`Workload`] for a set time, checks
//! every output, and reports end-to-end metrics (untraced passes) or
//! per-layer metrics (traced passes, timed by in-memory spans). The
//! benchmark times its own calls into each layer's public entry points;
//! it adds no instrumentation to the simulator. See `README.md` for the
//! workloads, the metrics and how to compare two sets of runs.

#![warn(missing_docs)]

pub mod compare;
mod inproc;
pub mod json;
pub mod metrics;
pub mod record;
mod rusage;
pub mod seeded;
mod span;
mod stats;
pub mod suite;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

pub use tia_workloads::Scale;

use metrics::Counts;
use record::{CallStats, MetricValue, Record};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 18 experiments of `run_all_experiments.sh` over an empty
    /// measurement store.
    SuiteCold,
    /// The same experiments over a store set-up filled.
    SuiteWarm,
    /// The suite-averaged design-space sweep on seeded inputs.
    DseSeeded,
    /// Stall-dominated load consumers and relay chains.
    IdleLatency,
    /// Lint and model-check the ten workload fabrics.
    VerifyFabrics,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::DseSeeded,
        Workload::IdleLatency,
        Workload::VerifyFabrics,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite_cold",
            Workload::SuiteWarm => "suite_warm",
            Workload::DseSeeded => "dse_seeded",
            Workload::IdleLatency => "idle_latency",
            Workload::VerifyFabrics => "verify_fabrics",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs inside this process (the suite
    /// workloads run the experiment binaries as child processes).
    pub fn in_process(self) -> bool {
        !matches!(self, Workload::SuiteCold | Workload::SuiteWarm)
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed; 0 reproduces the paper's inputs.
    pub seed: u64,
    /// Measuring time: passes start while the previous pass would
    /// still finish within it.
    pub seconds: u64,
    /// Alternate untraced and traced passes and report per-layer
    /// metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_file: Option<PathBuf>,
    /// Input size of the in-process workloads.
    pub scale: Scale,
    /// Worker threads for parallel work (at most the host's cores).
    pub threads: usize,
}

/// The counts of one pass.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Work done, keyed as [`metrics::layer_values`] reads it.
    pub counts: Counts,
}

/// A thread-safe [`Tally`] the workloads record into.
#[derive(Debug, Default)]
pub(crate) struct Log(Mutex<Tally>);

impl Log {
    fn with<R>(&self, f: impl FnOnce(&mut Tally) -> R) -> R {
        f(&mut self.0.lock().expect("a pass panicked while logging"))
    }

    /// Records a successful operation.
    pub fn ok(&self) {
        self.with(|t| t.attempted += 1);
    }

    /// Records a failed operation.
    pub fn fail(&self, what: impl Display) {
        let message = what.to_string();
        self.with(|t| {
            t.attempted += 1;
            t.failed += 1;
            if t.errors.len() < 20 {
                t.errors.push(message);
            }
        });
    }

    /// Records `result` as one operation; `true` when it succeeded.
    pub fn check<E: Display>(&self, context: impl Display, result: Result<(), E>) -> bool {
        match result {
            Ok(()) => {
                self.ok();
                true
            }
            Err(e) => {
                self.fail(format!("{context}: {e}"));
                false
            }
        }
    }

    /// Adds `x` to the count `key`.
    pub fn add(&self, key: impl Into<String>, x: f64) {
        let key = key.into();
        self.with(|t| *t.counts.entry(key).or_default() += x);
    }

    /// Lowers the value `key` to `x` if it is unset or larger.
    pub fn min(&self, key: impl Into<String>, x: f64) {
        let key = key.into();
        self.with(|t| {
            let v = t.counts.entry(key).or_insert(x);
            *v = v.min(x);
        });
    }

    /// The recorded tally.
    pub fn into_tally(self) -> Tally {
        self.0.into_inner().expect("a pass panicked while logging")
    }
}

/// One workload's set-up and pass.
pub(crate) trait Bench {
    /// Prepares the passes and returns the set-up time in seconds.
    /// Set-up that can be repeated is, and the median is returned.
    ///
    /// # Errors
    ///
    /// Returns why the workload cannot run at all.
    fn setup(&mut self) -> Result<f64, String>;

    /// Runs one pass, recording every operation in `log`.
    fn pass(&mut self, log: &Log);

    /// Peak resident set in KiB of the process(es) doing the work.
    fn peak_rss_kb(&self) -> u64 {
        rusage::self_peak_rss_kb()
    }
}

/// Times `f` `reps` times and returns the median in seconds.
///
/// # Errors
///
/// Returns the first error `f` returns.
pub(crate) fn median_time(
    reps: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times))
}

struct PassSample {
    traced: bool,
    wall_s: f64,
    tally: Tally,
    spans: Vec<span::Span>,
}

/// Runs one workload and returns its record.
///
/// # Errors
///
/// Returns why the workload could not run; failed operations are
/// counted in the record instead.
pub fn run(opts: &Options) -> Result<Record, String> {
    let mut bench: Box<dyn Bench> = match opts.workload {
        Workload::SuiteCold | Workload::SuiteWarm => Box::new(suite::Suite::new(opts)?),
        Workload::DseSeeded => Box::new(inproc::Dse::new(opts)),
        Workload::IdleLatency => Box::new(inproc::Idle::new(opts)),
        Workload::VerifyFabrics => Box::new(inproc::Verify::new(opts)),
    };
    let setup_s = bench.setup()?;
    // A traced run alternates untraced and traced passes, so it needs
    // at least one of each.
    let min_passes = if opts.trace { 2 } else { 1 };
    let budget = opts.seconds as f64;
    let start = Instant::now();
    let mut samples: Vec<PassSample> = Vec::new();
    loop {
        let last = samples.last().map_or(0.0, |s| s.wall_s);
        if samples.len() >= min_passes && start.elapsed().as_secs_f64() + last > budget {
            break;
        }
        let traced = opts.trace && samples.len() % 2 == 1;
        span::set_enabled(traced);
        let log = Log::default();
        let t = Instant::now();
        bench.pass(&log);
        let wall_s = t.elapsed().as_secs_f64();
        span::set_enabled(false);
        samples.push(PassSample {
            traced,
            wall_s,
            tally: log.into_tally(),
            spans: span::take(),
        });
    }
    let peak_rss_mb = bench.peak_rss_kb() as f64 / 1024.0;
    drop(bench);

    if let Some(path) = opts.trace_file.as_ref().filter(|_| opts.trace) {
        let spans: Vec<span::Span> = samples.iter().flat_map(|s| s.spans.clone()).collect();
        std::fs::write(path, span::to_chrome_json(&spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(summarize(opts, setup_s, peak_rss_mb, samples))
}

fn summarize(opts: &Options, setup_s: f64, peak_rss_mb: f64, samples: Vec<PassSample>) -> Record {
    let defs: BTreeMap<String, metrics::MetricDef> = metrics::catalogue()
        .into_iter()
        .map(|d| (d.name.clone(), d))
        .collect();
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &str, x: f64| series.entry(name.to_string()).or_default().push(x);

    let untraced: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.wall_s)
        .collect();
    let traced: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.wall_s)
        .collect();
    for &w in &untraced {
        push("wall_s", w);
    }
    push("setup_s", setup_s);
    push("peak_rss_mb", peak_rss_mb);
    let mut calls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        // Exact counts do not depend on tracing, so every pass reports
        // them; the rest of the layer metrics need spans.
        let layers = metrics::layer_values(&s.spans, &s.tally.counts, s.wall_s);
        for (name, x) in layers {
            if s.traced || defs.get(&name).is_some_and(|d| d.exact) {
                push(&name, x);
            }
        }
        for (sp, t) in s.spans.iter().zip(span::self_times(&s.spans)) {
            calls.entry(sp.name).or_default().push(t.as_secs_f64());
        }
    }
    if opts.trace {
        push(
            "trace.overhead_frac",
            stats::median(&traced) / stats::median(&untraced) - 1.0,
        );
    }

    let metrics = series
        .into_iter()
        .filter_map(|(name, values)| {
            let def = defs.get(&name)?;
            Some(MetricValue {
                name,
                unit: def.unit.to_string(),
                better: def.better,
                exact: def.exact,
                value: stats::median(&values),
                min: values.iter().copied().fold(f64::INFINITY, f64::min),
                max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                n: values.len(),
            })
        })
        .collect();
    let calls = calls
        .into_iter()
        .map(|(name, times)| CallStats {
            name: name.to_string(),
            n: times.len(),
            p50_s: stats::percentile(&times, 50.0),
            p90_s: stats::percentile(&times, 90.0),
        })
        .collect();
    Record {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        scale: match opts.scale {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
        .to_string(),
        threads: opts.threads,
        passes: samples.len(),
        attempted: samples.iter().map(|s| s.tally.attempted).sum(),
        failed: samples.iter().map(|s| s.tally.failed).sum(),
        errors: samples
            .iter()
            .flat_map(|s| s.tally.errors.iter().cloned())
            .take(20)
            .collect(),
        metrics,
        calls,
    }
}
