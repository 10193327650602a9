//! The metric catalogue and the derivation of per-layer metrics from a
//! traced pass.
//!
//! Every name the benchmark can report is listed here once, with its
//! unit, direction and whether it is an exact count. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

use std::collections::{BTreeMap, HashMap};

use tia_core::Pipeline;
use tia_workloads::ALL_WORKLOADS;

use crate::span::{self, Span};
use crate::suite::EXPERIMENTS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reportable metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// A simulated count that a speed-only change must leave identical.
    pub exact: bool,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better)
    }
}

/// The metric-name form of a pipeline, e.g. `T|DX1|X2` → `t_dx1_x2`.
pub fn pipeline_slug(pipeline: Pipeline) -> String {
    pipeline.name().to_ascii_lowercase().replace('|', "_")
}

/// The metrics an untraced run reports: what a user of the simulator
/// waits for and pays in memory.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::Lower;
    vec![
        def("wall_s", "s", Lower),
        def("setup_s", "s", Lower),
        def("peak_rss_mb", "MB", Lower),
    ]
}

/// The metrics a traced run reports, one or more per layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    for exp in EXPERIMENTS {
        m.push(def(format!("bench.{}.s", exp.name), "s", Lower));
    }
    m.push(def("store.bytes_appended", "bytes", Lower));
    m.push(def("workloads.build.s", "s", Lower));
    m.push(def("workloads.build.calls", "count", Lower));
    m.push(def("workloads.golden.s", "s", Lower));
    m.push(def("core.pe_new.s", "s", Lower));
    m.push(def("core.run.s", "s", Lower));
    m.push(exact("core.cycles", "cycles", Lower));
    m.push(exact("core.retired", "count", Higher));
    m.push(def("core.cycles_per_s", "cycles/s", Higher));
    for p in Pipeline::ALL {
        m.push(def(
            format!("core.cycles_per_s.{}", pipeline_slug(p)),
            "cycles/s",
            Higher,
        ));
    }
    for w in ALL_WORKLOADS {
        m.push(def(format!("core.cycles_per_s.{w}"), "cycles/s", Higher));
    }
    m.push(def("sim.run.s", "s", Lower));
    m.push(exact("sim.cycles", "cycles", Lower));
    m.push(def("sim.cycles_per_s", "cycles/s", Higher));
    m.push(def("sim_cycles_per_s", "cycles/s", Higher));
    m.push(def("fabric.ff.skipped_frac", "frac", Higher));
    m.push(def("fabric.ff.probes", "count", Lower));
    m.push(def("fabric.ff.probe_hit_rate", "frac", Higher));
    m.push(def("fabric.ff.suppressed_probes", "count", Higher));
    m.push(def("energy.grid.s", "s", Lower));
    m.push(exact("energy.points", "count", Higher));
    m.push(def("energy.pareto.s", "s", Lower));
    m.push(def("par.min_utilization", "frac", Higher));
    for w in ALL_WORKLOADS {
        m.push(def(format!("verify.{w}.s"), "s", Lower));
        m.push(exact(format!("verify.{w}.states"), "states", Lower));
    }
    m.push(def("verify.states_per_s", "states/s", Higher));
    m.push(def("verify.inconclusive", "count", Lower));
    m.push(def("verify.fork_divergent", "count", Lower));
    m.push(def("verify_proved", "count", Higher));
    m.push(def("lint.s", "s", Lower));
    m.push(def("trace.overhead_frac", "frac", Lower));
    m
}

/// Layer metrics a run reports only when the program printed them:
/// the experiments' own store hit and miss lines. They are not listed
/// in `BENCHMARK.json`, which names what every traced run reports.
pub fn when_printed() -> Vec<MetricDef> {
    vec![
        def("store.hits", "count", Better::Higher),
        def("store.misses", "count", Better::Lower),
    ]
}

/// Every metric a run can report.
pub fn catalogue() -> Vec<MetricDef> {
    let mut all = end_to_end();
    all.extend(per_layer());
    all.extend(when_printed());
    all
}

/// Counts and values the workloads tally during one pass, keyed by
/// metric-like names (see [`layer_values`] for the keys read).
pub(crate) type Counts = BTreeMap<String, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass: span self times summed per
/// layer, the pass's counts, and rates of the two. A layer the workload
/// never calls reads 0; a [`when_printed`] metric the program did not
/// print is absent. `trace.overhead_frac` needs untraced passes too and
/// is left to the caller.
pub(crate) fn layer_values(spans: &[Span], counts: &Counts, wall_s: f64) -> BTreeMap<String, f64> {
    let self_s: Vec<f64> = span::self_times(spans)
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    let mut by_name: HashMap<&str, f64> = HashMap::new();
    let mut by_label: HashMap<(&str, &str), f64> = HashMap::new();
    for (s, t) in spans.iter().zip(&self_s) {
        *by_name.entry(s.name).or_default() += t;
        for (_, value) in &s.args {
            *by_label.entry((s.name, value)).or_default() += t;
        }
    }
    let time = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let labelled = |name: &str, label: &str| by_label.get(&(name, label)).copied().unwrap_or(0.0);
    let count = |key: &str| counts.get(key).copied().unwrap_or(0.0);

    let mut v = BTreeMap::new();
    let mut put = |k: String, x: f64| {
        v.insert(k, x);
    };
    for exp in EXPERIMENTS {
        put(format!("bench.{}.s", exp.name), labelled("bench", exp.name));
    }
    put("store.bytes_appended".into(), count("store.bytes_appended"));
    for m in when_printed() {
        if let Some(&x) = counts.get(&m.name) {
            put(m.name, x);
        }
    }
    for key in [
        "workloads.build",
        "workloads.golden",
        "core.pe_new",
        "core.run",
        "sim.run",
    ] {
        put(format!("{key}.s"), time(key));
    }
    put(
        "workloads.build.calls".into(),
        count("workloads.build.calls"),
    );
    let core_cycles = count("core.cycles");
    let sim_cycles = count("sim.cycles");
    put("core.cycles".into(), core_cycles);
    put("core.retired".into(), count("core.retired"));
    put(
        "core.cycles_per_s".into(),
        ratio(core_cycles, time("core.run")),
    );
    for p in Pipeline::ALL {
        let slug = pipeline_slug(p);
        put(
            format!("core.cycles_per_s.{slug}"),
            ratio(
                count(&format!("core.cycles.{slug}")),
                labelled("core.run", p.name()),
            ),
        );
    }
    for w in ALL_WORKLOADS {
        put(
            format!("core.cycles_per_s.{w}"),
            ratio(
                count(&format!("core.cycles.{w}")),
                labelled("core.run", w.name()),
            ),
        );
    }
    put("sim.cycles".into(), sim_cycles);
    put(
        "sim.cycles_per_s".into(),
        ratio(sim_cycles, time("sim.run")),
    );
    put(
        "sim_cycles_per_s".into(),
        ratio(core_cycles + sim_cycles, wall_s),
    );
    let probes = count("ff.probes");
    put(
        "fabric.ff.skipped_frac".into(),
        ratio(count("ff.skipped_cycles"), core_cycles + sim_cycles),
    );
    put("fabric.ff.probes".into(), probes);
    put(
        "fabric.ff.probe_hit_rate".into(),
        ratio(count("ff.probe_hits"), probes),
    );
    put(
        "fabric.ff.suppressed_probes".into(),
        count("ff.suppressed_probes"),
    );
    put("energy.grid.s".into(), time("energy.grid"));
    put("energy.points".into(), count("energy.points"));
    put("energy.pareto.s".into(), time("energy.pareto"));
    put("par.min_utilization".into(), count("par.min_utilization"));
    let mut states = 0.0;
    for w in ALL_WORKLOADS {
        let s = count(&format!("verify.{w}.states"));
        states += s;
        put(format!("verify.{w}.s"), labelled("verify", w.name()));
        put(format!("verify.{w}.states"), s);
    }
    put("verify.states_per_s".into(), ratio(states, time("verify")));
    put("verify.inconclusive".into(), count("verify.inconclusive"));
    put(
        "verify.fork_divergent".into(),
        count("verify.fork_divergent"),
    );
    put("verify_proved".into(), count("verify_proved"));
    put("lint.s".into(), time("lint"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_limits() {
        let all = catalogue();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert_eq!(pipeline_slug(Pipeline::T_D_X1_X2), "t_d_x1_x2");
    }

    #[test]
    fn every_layer_metric_is_derived() {
        let v = layer_values(&[], &Counts::new(), 1.0);
        for m in per_layer() {
            if m.name != "trace.overhead_frac" {
                assert!(v.contains_key(&m.name), "{}", m.name);
            }
        }
    }
}
