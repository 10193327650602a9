//! Command line of the benchmark. See `README.md`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tia_benchmark::{compare, run, suite, Options, Scale, Workload};

const USAGE: &str = "usage:
  tia-benchmark --workload W [--seed N] [--seconds N] [--trace 0|1] [--trace-file FILE]
                [--out SET.jsonl] [--scale paper|test]
  tia-benchmark compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

workloads: suite_cold suite_warm dse_seeded idle_latency verify_fabrics";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..])
    } else {
        run_main(&args)
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tia-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Splits `--flag value` pairs, rejecting unknown flags.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`\n{USAGE}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::DseSeeded,
        seed: 1,
        seconds: 20,
        trace: false,
        trace_file: None,
        scale: Scale::Paper,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut out = None;
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--trace-file",
        "--out",
        "--scale",
    ];
    for (flag, value) in flags(args, &known)? {
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?,
                )
            }
            "--seed" => opts.seed = number(flag, value)?,
            "--seconds" => opts.seconds = number(flag, value)?.max(1),
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--trace-file" => opts.trace_file = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--scale" => {
                opts.scale = match value {
                    "paper" => Scale::Paper,
                    "test" => Scale::Test,
                    _ => return Err(format!("--scale takes paper or test, got `{value}`")),
                }
            }
            _ => unreachable!("flags() admits only known flags"),
        }
    }
    opts.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if opts.trace && opts.trace_file.is_none() {
        let dir = suite::target_dir().join("tia-benchmark");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        opts.trace_file = Some(dir.join(format!(
            "{}-seed{}.trace.json",
            opts.workload.name(),
            opts.seed
        )));
    }

    let record = run(&opts)?;
    let mut stdout = std::io::stdout().lock();
    for line in record.human_lines() {
        writeln!(stdout, "{line}").map_err(|e| e.to_string())?;
    }
    if let Some(path) = opts.trace_file.as_ref().filter(|_| opts.trace) {
        writeln!(stdout, "# spans written to {}", path.display()).map_err(|e| e.to_string())?;
    }
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(file, "{}", record.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    writeln!(stdout, "{}", record.result_line()).map_err(|e| e.to_string())?;
    Ok(if record.failed == 0 && record.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let (files, rest) = args.split_at(args.len().min(2));
    if files.len() != 2 {
        return Err(USAGE.to_string());
    }
    let mut spec = PathBuf::from("BENCHMARK.json");
    for (_, value) in flags(rest, &["--spec"])? {
        spec = PathBuf::from(value);
    }
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let bounds = compare::bounds(&read(&spec.to_string_lossy())?)?;
    let parent = compare::read_set(&read(&files[0])?).map_err(|e| format!("{}: {e}", files[0]))?;
    let change = compare::read_set(&read(&files[1])?).map_err(|e| format!("{}: {e}", files[1]))?;
    let result = compare::compare(&parent, &change, &bounds);
    print!("{}", compare::render(&result));
    Ok(if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
