//! The command prints every metric `BENCHMARK.json` names, with its
//! unit and a finite value, for every in-process workload at test
//! scale, and `BENCHMARK.json` agrees with the metric catalogue.

use std::process::Command;

use tia_benchmark::json::{self, Json};
use tia_benchmark::metrics::{self, MetricDef};
use tia_benchmark::Workload;

fn spec() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of the spec's lists.
fn listed(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn spec_lists_the_catalogue() {
    let spec = spec();
    let names = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.name().to_string()))
            .collect()
    };
    for (list, defs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let ours = spec
            .get(list)
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect::<Vec<_>>();
        assert_eq!(ours, names(defs), "{list}");
    }
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn in_process_workloads_print_every_listed_metric() {
    let spec = spec();
    let tmp = env!("CARGO_TARGET_TMPDIR");
    for workload in Workload::ALL.into_iter().filter(|w| w.in_process()) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let trace_file = format!("{tmp}/{}.trace.json", workload.name());
            let output = Command::new(env!("CARGO_BIN_EXE_tia-benchmark"))
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                ])
                .args([
                    "--scale",
                    "test",
                    "--trace",
                    trace,
                    "--trace-file",
                    &trace_file,
                ])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8(output.stdout).unwrap();
            assert!(
                output.status.success(),
                "{} --trace {trace} failed:\n{stdout}{}",
                workload.name(),
                String::from_utf8_lossy(&output.stderr)
            );
            let last = json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = last
                .obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
            assert!(last.get("attempted").and_then(Json::num).unwrap() >= 1.0);

            let reported = last.get("metrics").and_then(Json::obj).unwrap();
            let expected = listed(&spec, list);
            assert_eq!(reported.len(), expected.len(), "{} {list}", workload.name());
            for (name, unit) in expected {
                let m = reported
                    .iter()
                    .find(|(k, _)| *k == name)
                    .unwrap_or_else(|| panic!("{} does not report {name}", workload.name()))
                    .1
                    .clone();
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    m.get("value").and_then(Json::num).unwrap().is_finite(),
                    "{name}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} "))
                            && l.contains(&format!(" {unit}"))),
                    "{} prints no `{name} value {unit}` line",
                    workload.name()
                );
            }
            if trace == "1" {
                let spans = std::fs::read_to_string(&trace_file).expect("the span file is written");
                let spans = json::parse(&spans).expect("the span file is JSON");
                assert!(!spans
                    .get("traceEvents")
                    .and_then(Json::arr)
                    .unwrap()
                    .is_empty());
            }
        }
    }
}
