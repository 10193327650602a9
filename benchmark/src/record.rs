//! A run's record: the full form `--out` appends to a set file (one JSON
//! object per line), the `name value unit` lines, and the one-line
//! result the last line of standard output carries.

use crate::json::{self, Json};
use crate::metrics::{self, Better, MetricDef};

/// One metric of a run: the median over the run's passes, with its
/// spread.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// Whether it is an exact simulated count.
    pub exact: bool,
    /// The median over the samples.
    pub value: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
    /// The number of samples (passes, or set-ups for `setup_s`).
    pub n: usize,
}

/// Per-call self time of one span name over a run's traced passes.
#[derive(Debug, Clone, PartialEq)]
pub struct CallStats {
    /// The span name.
    pub name: String,
    /// Calls recorded.
    pub n: usize,
    /// Median self time per call.
    pub p50_s: f64,
    /// 90th-percentile self time per call.
    pub p90_s: f64,
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The workload's name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// The nominal run length.
    pub seconds: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// `paper` or `test`.
    pub scale: String,
    /// Worker threads.
    pub threads: usize,
    /// Passes made.
    pub passes: usize,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// The first failures.
    pub errors: Vec<String>,
    /// Every metric measured.
    pub metrics: Vec<MetricValue>,
    /// Per-call span statistics (traced runs only).
    pub calls: Vec<CallStats>,
}

impl Record {
    /// The metric `name`, if the run measured it.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics the last output line carries: every end-to-end
    /// metric for an untraced run, every per-layer metric for a traced
    /// one, in catalogue order.
    pub fn reported(&self) -> Vec<&MetricValue> {
        let defs: Vec<MetricDef> = if self.trace {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        };
        defs.iter().filter_map(|d| self.metric(&d.name)).collect()
    }

    /// `name value unit` lines for every metric, then the failure
    /// summary.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "# {} seed={} scale={} passes={} threads={} trace={}",
            self.workload, self.seed, self.scale, self.passes, self.threads, self.trace
        )];
        for m in &self.metrics {
            lines.push(format!(
                "{} {} {}  (n={} min={} max={})",
                m.name,
                json::number(m.value),
                m.unit,
                m.n,
                json::number(m.min),
                json::number(m.max)
            ));
        }
        for c in &self.calls {
            lines.push(format!(
                "call {} n={} p50={} s p90={} s",
                c.name,
                c.n,
                json::number(c.p50_s),
                json::number(c.p90_s)
            ));
        }
        lines.push(format!(
            "failed_frac {} frac  ({} of {} operations)",
            json::number(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        ));
        for e in &self.errors {
            lines.push(format!("# failed: {e}"));
        }
        lines
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// reported metrics as `{"value", "unit"}` pairs.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"better\": \"{}\", \"exact\": {}, \"n\": {}, \"min\": {}, \"max\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(&m.unit),
                    m.better.name(),
                    m.exact,
                    m.n,
                    json::number(m.min),
                    json::number(m.max)
                )
            })
            .collect();
        let calls: Vec<String> = self
            .calls
            .iter()
            .map(|c| {
                format!(
                    "{}: {{\"n\": {}, \"p50_s\": {}, \"p90_s\": {}}}",
                    json::quote(&c.name),
                    c.n,
                    json::number(c.p50_s),
                    json::number(c.p90_s)
                )
            })
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json::quote(e)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \"threads\": {}, \"passes\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"metrics\": {{{}}}, \"calls\": {{{}}}}}",
            json::quote(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            json::quote(&self.scale),
            self.threads,
            self.passes,
            self.attempted,
            self.failed,
            errors.join(", "),
            metrics.join(", "),
            calls.join(", ")
        )
    }

    /// Reads a record written by [`Record::to_json`].
    ///
    /// # Errors
    ///
    /// Returns what is missing or malformed.
    pub fn from_json(text: &str) -> Result<Record, String> {
        let v = json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .num()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let string = |k: &str| {
            field(k)?
                .str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{k}` is not a string"))
        };
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?
            .obj()
            .ok_or("`metrics` is not an object")?
        {
            let n = |k: &str| {
                m.get(k)
                    .and_then(Json::num)
                    .ok_or_else(|| format!("metric `{name}` lacks `{k}`"))
            };
            metrics.push(MetricValue {
                name: name.clone(),
                unit: m.get("unit").and_then(Json::str).unwrap_or("").to_string(),
                better: match m.get("better").and_then(Json::str) {
                    Some("higher") => Better::Higher,
                    _ => Better::Lower,
                },
                exact: m.get("exact") == Some(&Json::Bool(true)),
                value: n("value")?,
                min: n("min")?,
                max: n("max")?,
                n: n("n")? as usize,
            });
        }
        let mut calls = Vec::new();
        if let Some(obj) = v.get("calls").and_then(Json::obj) {
            for (name, c) in obj {
                let n = |k: &str| c.get(k).and_then(Json::num).unwrap_or(0.0);
                calls.push(CallStats {
                    name: name.clone(),
                    n: n("n") as usize,
                    p50_s: n("p50_s"),
                    p90_s: n("p90_s"),
                });
            }
        }
        Ok(Record {
            workload: string("workload")?,
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: field("trace")? == &Json::Bool(true),
            scale: string("scale")?,
            threads: num("threads")? as usize,
            passes: num("passes")? as usize,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: v
                .get("errors")
                .and_then(Json::arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
            calls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_record_round_trips() {
        let r = Record {
            workload: "dse_seeded".into(),
            seed: 3,
            seconds: 20,
            trace: false,
            scale: "paper".into(),
            threads: 2,
            passes: 5,
            attempted: 330,
            failed: 0,
            errors: vec!["a \"quoted\" error".into()],
            metrics: vec![MetricValue {
                name: "wall_s".into(),
                unit: "s".into(),
                better: Better::Lower,
                exact: false,
                value: 3.25,
                min: 3.125,
                max: 3.5,
                n: 5,
            }],
            calls: vec![CallStats {
                name: "core.run".into(),
                n: 9,
                p50_s: 0.01,
                p90_s: 0.02,
            }],
        };
        assert_eq!(Record::from_json(&r.to_json()).unwrap(), r);
        let line = json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = line
            .obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
