//! `tia-benchmark compare PARENT CHANGE`: judges two sets of runs of
//! the same benchmark settings.
//!
//! A set is a file of records, one JSON object per line, as `--out`
//! appends them. Runs are paired by workload, tracing and seed. For
//! every (workload, metric) the verdict follows the small-sandbox rule
//! of the `choosing-metrics` guide:
//!
//! * `faster`: the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   parent's own interquartile range;
//! * `slower`: the same test won by the parent, or a median worse than
//!   the parent's by more than the metric's bound;
//! * `unresolved`: the parent's runs spread wider than the bound and
//!   not every run of the change beats every run of the parent;
//! * `within-noise`: anything else.
//!
//! Exact simulated counts are instead `identical` or `differs`: a
//! speed-only change must leave them unchanged. The comparison fails
//! when a count differs, when more operations failed, or when a bounded
//! metric got worse than its bound.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, Json};
use crate::metrics::Better;
use crate::record::Record;
use crate::stats;

/// The judgement of one (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload, with `+trace` for traced runs.
    pub workload: String,
    /// The metric's name.
    pub metric: String,
    /// `faster`, `slower`, `within-noise`, `unresolved`, `identical`
    /// or `differs`.
    pub verdict: &'static str,
    /// The parent's median.
    pub parent: f64,
    /// The change's median.
    pub change: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    /// Pairs the change won.
    pub change_wins: usize,
    /// Pairs compared.
    pub pairs: usize,
}

/// The rows of a comparison and the reasons it fails, if any.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// One row per (workload, metric) present on both sides.
    pub rows: Vec<Row>,
    /// Why the change is refused; empty when it is accepted.
    pub failures: Vec<String>,
}

/// Reads a set file: one record per non-empty line.
///
/// # Errors
///
/// Returns the line number and reason of the first bad record.
pub fn read_set(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::from_json(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The end-to-end bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns why the file does not hold them.
pub fn bounds(spec: &str) -> Result<BTreeMap<String, f64>, String> {
    let spec = json::parse(spec)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::str);
            let bound = m.get("bound").and_then(Json::num);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("an `end_to_end` metric lacks `name` or `bound`".to_string()),
            }
        })
        .collect()
}

fn better(b: Better, x: f64, y: f64) -> bool {
    match b {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Compares two sets of runs.
pub fn compare(parent: &[Record], change: &[Record], bounds: &BTreeMap<String, f64>) -> Comparison {
    let mut out = Comparison::default();
    let groups: BTreeSet<(String, bool)> = parent
        .iter()
        .map(|r| (r.workload.clone(), r.trace))
        .collect();
    for (workload, trace) in groups {
        let side = |set: &[Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .cloned()
                .collect()
        };
        let (p, c) = (side(parent), side(change));
        let label = if trace {
            format!("{workload}+trace")
        } else {
            workload.clone()
        };
        if c.is_empty() {
            out.failures
                .push(format!("{label}: no runs in the change's set"));
            continue;
        }
        let failed = |set: &[Record]| set.iter().map(|r| r.failed).sum::<u64>();
        if failed(&c) > failed(&p) {
            out.failures.push(format!(
                "{label}: {} failed operations, the parent had {}",
                failed(&c),
                failed(&p)
            ));
        }
        // Pair runs made with the same seed.
        let pairs: Vec<(&Record, &Record)> = p
            .iter()
            .filter_map(|a| c.iter().find(|b| b.seed == a.seed).map(|b| (a, b)))
            .collect();
        let names: BTreeSet<&str> = p
            .iter()
            .flat_map(|r| r.metrics.iter().map(|m| m.name.as_str()))
            .collect();
        for name in names {
            let Some(def) = p.iter().find_map(|r| r.metric(name)) else {
                continue;
            };
            let pv: Vec<f64> = p
                .iter()
                .filter_map(|r| r.metric(name))
                .map(|m| m.value)
                .collect();
            let cv: Vec<f64> = c
                .iter()
                .filter_map(|r| r.metric(name))
                .map(|m| m.value)
                .collect();
            if cv.is_empty() {
                continue;
            }
            let paired: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(a, b)| Some((a.metric(name)?.value, b.metric(name)?.value)))
                .collect();
            let (q1, q3) = stats::quartiles(&pv);
            let (pm, cm) = (stats::median(&pv), stats::median(&cv));
            let change_wins = paired
                .iter()
                .filter(|(a, b)| better(def.better, *b, *a))
                .count();
            let parent_wins = paired
                .iter()
                .filter(|(a, b)| better(def.better, *a, *b))
                .count();
            let verdict = if def.exact {
                if paired.iter().all(|(a, b)| a == b) {
                    "identical"
                } else {
                    out.failures
                        .push(format!("{label}: exact count {name} differs"));
                    "differs"
                }
            } else {
                let gain = match def.better {
                    Better::Lower => pm - cm,
                    Better::Higher => cm - pm,
                };
                let iqr = q3 - q1;
                let n = paired.len();
                let bound = bounds.get(name).copied();
                let all_better = pv
                    .iter()
                    .all(|&a| cv.iter().all(|&b| better(def.better, b, a)));
                if n > 0 && change_wins * 10 >= n * 9 && gain > iqr {
                    "faster"
                } else if let Some(b) = bound.filter(|b| -gain > b * pm.abs()) {
                    out.failures.push(format!(
                        "{label}: {name} median {cm} is worse than the parent's {pm} by more than {:.0}%",
                        b * 100.0
                    ));
                    "slower"
                } else if n > 0 && parent_wins * 10 >= n * 9 && -gain > iqr {
                    "slower"
                } else if bound.is_some_and(|b| iqr > b * pm.abs()) && !all_better {
                    "unresolved"
                } else {
                    "within-noise"
                }
            };
            out.rows.push(Row {
                workload: label.clone(),
                metric: name.to_string(),
                verdict,
                parent: pm,
                change: cm,
                parent_iqr: q3 - q1,
                change_wins,
                pairs: paired.len(),
            });
        }
    }
    out
}

/// The comparison as an aligned text table.
pub fn render(c: &Comparison) -> String {
    let mut s = format!(
        "{:<22} {:<34} {:<13} {:>14} {:>14} {:>8} {:>12} {:>7}\n",
        "workload", "metric", "verdict", "parent", "change", "delta", "parent IQR", "wins"
    );
    for r in &c.rows {
        let delta = if r.parent != 0.0 {
            format!("{:+.1}%", (r.change / r.parent - 1.0) * 100.0)
        } else {
            "-".into()
        };
        s.push_str(&format!(
            "{:<22} {:<34} {:<13} {:>14.6} {:>14.6} {:>8} {:>12.6} {:>7}\n",
            r.workload,
            r.metric,
            r.verdict,
            r.parent,
            r.change,
            delta,
            r.parent_iqr,
            format!("{}/{}", r.change_wins, r.pairs)
        ));
    }
    for f in &c.failures {
        s.push_str(&format!("FAIL {f}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MetricValue;

    fn run(seed: u64, wall: f64, cycles: f64) -> Record {
        let m = |name: &str, unit: &str, exact: bool, value: f64| MetricValue {
            name: name.into(),
            unit: unit.into(),
            better: Better::Lower,
            exact,
            value,
            min: value,
            max: value,
            n: 1,
        };
        Record {
            workload: "dse_seeded".into(),
            seed,
            seconds: 20,
            trace: false,
            scale: "paper".into(),
            threads: 2,
            passes: 5,
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            metrics: vec![
                m("wall_s", "s", false, wall),
                m("core.cycles", "cycles", true, cycles),
            ],
            calls: Vec::new(),
        }
    }

    fn verdict(c: &Comparison, metric: &str) -> &'static str {
        c.rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let bounds = BTreeMap::from([("wall_s".to_string(), 0.1)]);
        let parent: Vec<Record> = (1..=10)
            .map(|s| run(s, 3.0 + s as f64 * 0.001, 7.0))
            .collect();
        let same: Vec<Record> = (1..=10)
            .map(|s| run(s, 3.0 + (11 - s) as f64 * 0.001, 7.0))
            .collect();
        let c = compare(&parent, &same, &bounds);
        assert_eq!(verdict(&c, "wall_s"), "within-noise");
        assert_eq!(verdict(&c, "core.cycles"), "identical");
        assert!(c.failures.is_empty());

        let fast: Vec<Record> = (1..=10).map(|s| run(s, 2.5, 7.0)).collect();
        assert_eq!(
            verdict(&compare(&parent, &fast, &bounds), "wall_s"),
            "faster"
        );

        let slow: Vec<Record> = (1..=10).map(|s| run(s, 3.6, 8.0)).collect();
        let c = compare(&parent, &slow, &bounds);
        assert_eq!(verdict(&c, "wall_s"), "slower");
        assert_eq!(verdict(&c, "core.cycles"), "differs");
        assert_eq!(c.failures.len(), 2);
    }

    #[test]
    fn a_wide_parent_spread_is_unresolved() {
        let bounds = BTreeMap::from([("wall_s".to_string(), 0.1)]);
        let parent: Vec<Record> = (1..=10)
            .map(|s| run(s, 2.0 + (s % 3) as f64, 7.0))
            .collect();
        let change: Vec<Record> = (1..=10)
            .map(|s| run(s, 2.0 + ((s + 1) % 3) as f64, 7.0))
            .collect();
        assert_eq!(
            verdict(&compare(&parent, &change, &bounds), "wall_s"),
            "unresolved"
        );
    }
}
