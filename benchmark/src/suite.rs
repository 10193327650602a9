//! `suite_cold` and `suite_warm`: the experiments of
//! `run_all_experiments.sh`, run one after another as child processes
//! at paper scale, with every output byte-compared against the
//! committed `results/`.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::{median_time, rusage, span, Bench, Log, Options, Scale, Workload};

/// How an experiment is invoked and what it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outputs {
    /// `NAME --json results/NAME.json`: the table on stdout, and JSON
    /// when the binary supports it.
    Table,
    /// `dse_export --store STORE -o results/design_space.json`.
    DesignSpace,
    /// `dump_workload_asm results/asm`.
    Assembly,
}

/// One experiment of the paper suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// The binary's name, which is also the experiment's.
    pub name: &'static str,
    /// What it writes.
    pub outputs: Outputs,
}

const fn table(name: &'static str) -> Experiment {
    Experiment {
        name,
        outputs: Outputs::Table,
    }
}

/// The experiments in `run_all_experiments.sh` order: its `BINS`, then
/// `dse_export` and `dump_workload_asm`.
pub const EXPERIMENTS: [Experiment; 18] = [
    table("sec1_tradeoff_modes"),
    table("table1_params"),
    table("table2_encoding"),
    table("table3_workloads"),
    table("fig3_breakdown"),
    table("fig4_prediction"),
    table("fig5_cpi_stacks"),
    table("fig6_voltage_frontiers"),
    table("fig7_optimization_benefit"),
    table("fig8_pareto_designs"),
    table("sec3_characterization"),
    table("sec4_instruction_memory"),
    table("sec54_overheads"),
    table("ablation_nested_speculation"),
    table("ablation_predictor"),
    table("ablation_queue_capacity"),
    Experiment {
        name: "dse_export",
        outputs: Outputs::DesignSpace,
    },
    Experiment {
        name: "dump_workload_asm",
        outputs: Outputs::Assembly,
    },
];

/// The directory cargo builds into: `CARGO_TARGET_DIR`, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// A suite workload's state: the experiment binaries, a scratch
/// directory under the target directory, and the measurement store.
#[derive(Debug)]
pub(crate) struct Suite {
    warm: bool,
    threads: usize,
    bin_dir: PathBuf,
    work: PathBuf,
    committed: PathBuf,
    store: PathBuf,
    passes: usize,
    peak_rss_kb: u64,
}

impl Suite {
    /// Prepares a suite run from the repository root.
    ///
    /// # Errors
    ///
    /// Returns why the suite cannot run here: not at paper scale, or
    /// not in a checkout of the repository.
    pub fn new(opts: &Options) -> Result<Self, String> {
        if opts.scale != Scale::Paper {
            return Err(
                "the suite workloads compare against results/ and run at paper scale only".into(),
            );
        }
        let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        if !root.join("run_all_experiments.sh").is_file() || !root.join("results").is_dir() {
            return Err("run the suite workloads from the repository root".into());
        }
        let target = root.join(target_dir());
        let work = target.join("tia-benchmark").join(format!(
            "{}-{}",
            opts.workload.name(),
            std::process::id()
        ));
        fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Suite {
            warm: opts.workload == Workload::SuiteWarm,
            threads: opts.threads,
            bin_dir: target.join("release"),
            store: work.join("warm.store"),
            work,
            committed: root.join("results"),
            passes: 0,
            peak_rss_kb: 0,
        })
    }

    /// Runs every experiment once over `store`, writing into a fresh
    /// directory that is removed afterwards.
    fn run_pass(&mut self, store: &Path, log: &Log) -> Result<(), String> {
        self.passes += 1;
        let out = self.work.join(format!("pass-{}", self.passes));
        let logs = out.join("logs");
        fs::create_dir_all(out.join("results")).map_err(|e| format!("{}: {e}", out.display()))?;
        fs::create_dir_all(&logs).map_err(|e| format!("{}: {e}", logs.display()))?;
        let store_before = file_len(store);
        for exp in EXPERIMENTS {
            let mut cmd = Command::new(self.bin_dir.join(exp.name));
            match exp.outputs {
                Outputs::Table => cmd.args(["--json", &format!("results/{}.json", exp.name)]),
                Outputs::DesignSpace => cmd
                    .arg("--store")
                    .arg(store)
                    .args(["-o", "results/design_space.json"]),
                Outputs::Assembly => cmd.arg("results/asm"),
            };
            let stdout = create(&out.join("results").join(format!("{}.txt", exp.name)))?;
            let stderr = create(&logs.join(format!("{}.log", exp.name)))?;
            cmd.current_dir(&out)
                .env("TIA_THREADS", self.threads.to_string())
                .env("TIA_STORE", store)
                .stdin(Stdio::null())
                .stdout(stdout)
                .stderr(stderr);
            let outcome = {
                let mut s = span::enter("bench");
                s.arg("experiment", exp.name);
                cmd.spawn()
                    .and_then(rusage::wait_child)
                    .map_err(|e| format!("cannot run {}: {e}", exp.name))
            };
            let result = outcome.and_then(|usage| {
                self.peak_rss_kb = self.peak_rss_kb.max(usage.max_rss_kb);
                if usage.status.success() {
                    self.compare_outputs(exp, &out.join("results"))
                } else {
                    Err(format!("exited with {}", usage.status))
                }
            });
            log.check(exp.name, result);
            let stderr =
                fs::read_to_string(logs.join(format!("{}.log", exp.name))).unwrap_or_default();
            if let Some((hits, misses)) = store_counts(&stderr) {
                log.add("store.hits", hits);
                log.add("store.misses", misses);
            }
        }
        log.add(
            "store.bytes_appended",
            file_len(store).saturating_sub(store_before) as f64,
        );
        fs::remove_dir_all(&out).map_err(|e| format!("cannot remove {}: {e}", out.display()))
    }

    /// Byte-compares what `exp` wrote under `produced` with the
    /// committed files.
    fn compare_outputs(&self, exp: Experiment, produced: &Path) -> Result<(), String> {
        let mut files = vec![format!("{}.txt", exp.name)];
        match exp.outputs {
            Outputs::Table => {
                let json = format!("{}.json", exp.name);
                if produced.join(&json).exists() || self.committed.join(&json).exists() {
                    files.push(json);
                }
            }
            Outputs::DesignSpace => files.push("design_space.json".into()),
            Outputs::Assembly => {
                let mut made = list(&produced.join("asm"))?;
                let mut kept = list(&self.committed.join("asm"))?;
                made.sort();
                kept.sort();
                if made != kept {
                    return Err(format!(
                        "wrote {} assembly files where results/asm holds {}",
                        made.len(),
                        kept.len()
                    ));
                }
                files.extend(made.into_iter().map(|f| format!("asm/{f}")));
            }
        }
        for f in files {
            let ours =
                fs::read(produced.join(&f)).map_err(|e| format!("did not write {f}: {e}"))?;
            let theirs = fs::read(self.committed.join(&f))
                .map_err(|e| format!("results/{f} is not committed: {e}"))?;
            if ours != theirs {
                return Err(format!("{f} differs from results/{f}"));
            }
        }
        Ok(())
    }
}

/// Store hits and misses from a sweep's
/// `measurement store PATH: N point(s) answered from store, M simulated`
/// line, when the experiment printed one.
fn store_counts(stderr: &str) -> Option<(f64, f64)> {
    stderr.lines().find_map(|line| {
        let (head, tail) = line.split_once(" point(s) answered from store, ")?;
        let hits = head.rsplit(' ').next()?.parse().ok()?;
        let misses = tail.strip_suffix(" simulated")?.trim().parse().ok()?;
        Some((hits, misses))
    })
}

fn create(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn list(dir: &Path) -> Result<Vec<String>, String> {
    fs::read_dir(dir)
        .and_then(|entries| {
            entries
                .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))
}

impl Bench for Suite {
    /// Builds (or checks) the experiment binaries as
    /// `run_all_experiments.sh` does, five times for a median; the warm
    /// workload then fills its store with one cold pass.
    fn setup(&mut self) -> Result<f64, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let build = median_time(5, || {
            let status = Command::new(&cargo)
                .args(["build", "--release", "--quiet", "-p", "tia-bench", "--bins"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot run cargo: {e}"))?;
            if status.success() {
                Ok(())
            } else {
                Err(format!("building the experiments failed ({status})"))
            }
        })?;
        if !self.warm {
            return Ok(build);
        }
        let fill = std::time::Instant::now();
        let log = Log::default();
        let store = self.store.clone();
        self.run_pass(&store, &log)?;
        let tally = log.into_tally();
        if tally.failed > 0 {
            return Err(format!(
                "filling the store failed: {}",
                tally.errors.join("; ")
            ));
        }
        Ok(build + fill.elapsed().as_secs_f64())
    }

    fn pass(&mut self, log: &Log) {
        let store = if self.warm {
            self.store.clone()
        } else {
            self.work.join(format!("cold-{}.store", self.passes + 1))
        };
        if let Err(e) = self.run_pass(&store, log) {
            log.fail(e);
        }
    }

    fn peak_rss_kb(&self) -> u64 {
        self.peak_rss_kb
    }
}

impl Drop for Suite {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory under the target
        // directory is harmless.
        let _ = fs::remove_dir_all(&self.work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_counts_are_parsed_when_printed() {
        let log = "measurement store s.store: 32 point(s) answered from store, 0 simulated\n\
                   wrote 4520 design points (22 Pareto-optimal) to x.json\n";
        assert_eq!(store_counts(log), Some((32.0, 0.0)));
        assert_eq!(store_counts("wrote 22 PE programs to results/asm\n"), None);
    }
}
