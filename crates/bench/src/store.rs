//! The run store: one stored record per run, shared by every
//! experiment.
//!
//! A run — one workload simulated to completion on one
//! microarchitecture — is a pure function of the workload, the input
//! scale, the ISA [`Params`] and the [`UarchConfig`]. [`RunKey::hash`]
//! derives a content hash from exactly those inputs via the canonical
//! encoding (sorted keys, bit-pattern floats, explicit
//! [`MEASUREMENT_SCHEMA_VERSION`]), and a [`RunStore`] keeps each
//! run's worker counters and system cycles in a [`tia_store::Store`]
//! under that hash. Everything a figure reads — coarse cycle stacks,
//! activity, suite averages — is folded from runs (see
//! [`crate::measure`]), so fig4, fig5, the suite-averaged sweeps and
//! the ablations share every run they have in common: a cold suite
//! simulates each distinct run at most once, a warm one simulates
//! nothing, and an interrupted one resumes from the runs it finished.
//!
//! Each record also keeps the run's [`ConfigWitness`]: which of the
//! +Q setting and the nesting limit its trigger decisions depended
//! on. A run answers every key the witness covers (see [`answers`]),
//! so keys that differ only in knobs the run never consulted are one
//! simulation and one record.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize, Value};
use tia_core::{ConfigWitness, UarchConfig, UarchCounters};
use tia_energy::dse::CpiMeasurement;
use tia_isa::Params;
use tia_store::{canonical_bytes, canonical_hash, from_canonical_bytes, Hash, Store, StoreError};
use tia_workloads::{Scale, WorkloadKind, ALL_WORKLOADS};

use crate::args::Args;
use crate::measure::{activity_of, run_uarch_workload, MeasuredRun};

/// The measurement-input schema version, folded into every store key
/// and recorded in every store file header.
///
/// Bump whenever the *meaning* or serialized shape of a run input or
/// record changes: a `Params` or `UarchConfig` field is
/// added/removed/reinterpreted, a workload's generated program or
/// input derivation changes, or the stored record gains a field. Old
/// stores are then moved aside wholesale instead of answering with
/// stale runs.
pub const MEASUREMENT_SCHEMA_VERSION: u32 = 3;

/// The inputs of one run besides the input scale, which a
/// [`RunStore`] fixes for all of its runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    /// The workload.
    pub kind: WorkloadKind,
    /// The ISA parameters the workload is built against.
    pub params: Params,
    /// The microarchitecture it runs on.
    pub config: UarchConfig,
}

impl RunKey {
    /// A run over [`Params::default`], the parameters every experiment
    /// but the queue-capacity ablation uses.
    pub fn new(kind: WorkloadKind, config: UarchConfig) -> Self {
        RunKey {
            kind,
            params: Params::default(),
            config,
        }
    }

    fn to_value(&self, scale: Scale) -> Value {
        Value::Object(vec![
            (
                "workload".to_string(),
                Value::String(self.kind.name().into()),
            ),
            (
                "scale".to_string(),
                Value::String(scale_label(scale).into()),
            ),
            ("params".to_string(), self.params.to_value()),
            ("config".to_string(), self.config.to_value()),
        ])
    }

    /// The content hash addressing this run at `scale`: canonical over
    /// (workload, scale, `Params`, `UarchConfig`) under
    /// [`MEASUREMENT_SCHEMA_VERSION`]. Key equality is semantic
    /// equality of the inputs — field order and float formatting of
    /// any intermediate serialization are irrelevant by construction.
    pub fn hash(&self, scale: Scale) -> Hash {
        canonical_hash(MEASUREMENT_SCHEMA_VERSION, &self.to_value(scale))
            .expect("run key fields are unique")
    }
}

/// Whether the run of `from`, which witnessed `witness`, is also the
/// run of `to`: the one rule by which a run answers another key. The
/// workload and `Params` must be equal, and the configurations as
/// [`ConfigWitness::covers`] allows.
fn answers(from: &RunKey, witness: ConfigWitness, to: &RunKey) -> bool {
    (from.kind, &from.params) == (to.kind, &to.params) && witness.covers(&from.config, &to.config)
}

/// The keys whose runs the store probes for a run that answers `key`
/// when its own record is missing: the +Q setting flipped, and every
/// nesting limit from 1 up to the key's own under either setting.
fn neighbours(key: &RunKey) -> impl Iterator<Item = RunKey> + '_ {
    let UarchConfig {
        effective_queue_status: q,
        speculation_depth: d,
        ..
    } = key.config;
    (1..d)
        .chain([d])
        .flat_map(move |depth| [(depth, q), (depth, !q)])
        .filter(move |&knobs| knobs != (d, q))
        .map(move |(speculation_depth, effective_queue_status)| RunKey {
            config: UarchConfig {
                effective_queue_status,
                speculation_depth,
                ..key.config
            },
            ..key.clone()
        })
}

/// The order in which a batch simulates its misses: by nesting limit,
/// then without +Q before with it, so each wave can be answered from
/// the runs of the waves before it.
fn wave(key: &RunKey) -> (u8, bool) {
    (
        key.config.speculation_depth,
        key.config.effective_queue_status,
    )
}

/// One run per workload of the suite on each of `configs`: config by
/// config, each in [`ALL_WORKLOADS`] order — the order every suite
/// average sums in.
pub fn suite_keys(configs: &[UarchConfig]) -> Vec<RunKey> {
    configs
        .iter()
        .flat_map(|&config| {
            ALL_WORKLOADS
                .iter()
                .map(move |&kind| RunKey::new(kind, config))
        })
        .collect()
}

/// The store-key label for an input scale. Part of every run key, so
/// test-scale runs can never answer a paper-scale experiment.
fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

/// The measurement-store path from `--store PATH` or `TIA_STORE`, if
/// either is set (see [`RunStore::from_args`]).
fn store_path(args: &Args) -> Option<PathBuf> {
    if let Some(path) = args.value("--store") {
        return Some(PathBuf::from(path));
    }
    match std::env::var("TIA_STORE") {
        Ok(path) => {
            assert!(
                !path.trim().is_empty(),
                "invalid TIA_STORE value: empty; set a store file path or unset it"
            );
            Some(PathBuf::from(path))
        }
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid TIA_STORE value: not valid UTF-8")
        }
    }
}

/// Serializes a run's record — the worker's counters, the system
/// cycles and the run's witness — to the canonical byte form stored
/// as a record payload.
fn encode_run(run: &MeasuredRun, witness: ConfigWitness) -> Vec<u8> {
    let record = Value::Object(vec![
        ("counters".to_string(), run.counters.to_value()),
        ("system_cycles".to_string(), run.system_cycles.to_value()),
        ("witness".to_string(), witness.to_value()),
    ]);
    canonical_bytes(&record).expect("record fields are unique")
}

/// Decodes a stored record as a run of `key`, with the witness of the
/// run that wrote it; `None` for undecodable bytes or a missing
/// witness (a foreign or corrupt record — treated as a miss, never
/// trusted).
fn decode_run(key: &RunKey, bytes: &[u8]) -> Option<(MeasuredRun, ConfigWitness)> {
    let record = from_canonical_bytes(bytes).ok()?;
    let run = MeasuredRun {
        kind: key.kind,
        config: key.config,
        counters: UarchCounters::from_value(record.get("counters")?).ok()?,
        system_cycles: u64::from_value(record.get("system_cycles")?).ok()?,
    };
    Some((run, ConfigWitness::from_value(record.get("witness")?).ok()?))
}

/// What a stale store file was replaced over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreReset {
    /// The file recorded another measurement-schema version.
    StaleSchema {
        /// The schema version found in the file.
        found: u32,
    },
    /// The file was not readable as a store at all.
    Unreadable,
}

impl std::fmt::Display for StoreReset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreReset::StaleSchema { found } => write!(
                f,
                "schema version {found} is stale (current {MEASUREMENT_SCHEMA_VERSION})"
            ),
            StoreReset::Unreadable => f.write_str("unreadable store file"),
        }
    }
}

/// The runs of one process at one input scale, answered from a
/// measurement store when one is configured: hits are decoded, misses
/// are simulated across the worker pool and appended. Without a store
/// every run is simulated.
#[derive(Debug)]
pub struct RunStore {
    scale: Scale,
    store: Option<Store>,
    hits: AtomicU64,
    simulated: AtomicU64,
}

impl RunStore {
    /// Runs that are simulated and never stored.
    fn unstored(scale: Scale) -> Self {
        RunStore {
            scale,
            store: None,
            hits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
        }
    }

    /// Opens the store at `path`. A stale file there (another schema
    /// version, or content that is not a store, such as JSON) is moved
    /// aside to `<path>.stale` and the store starts fresh — stale
    /// records are regenerated, never trusted.
    ///
    /// # Errors
    ///
    /// Fails only on file-system errors.
    pub fn open(path: &Path, scale: Scale) -> Result<(Self, Option<StoreReset>), StoreError> {
        let (store, reset) = match Store::open(path, MEASUREMENT_SCHEMA_VERSION) {
            Ok(store) => (store, None),
            Err(e) => {
                let reset = match e {
                    StoreError::Schema { found, .. } => StoreReset::StaleSchema { found },
                    StoreError::NotAStore { .. } | StoreError::Format { .. } => {
                        StoreReset::Unreadable
                    }
                    StoreError::Io { .. } => return Err(e),
                };
                let mut stale = path.as_os_str().to_owned();
                stale.push(".stale");
                // A failed rename (e.g. the file vanished) still
                // proceeds to a fresh open; the stale file is only kept
                // for post-mortems.
                let _ = std::fs::rename(path, PathBuf::from(stale));
                let _ = std::fs::remove_file(path);
                (Store::open(path, MEASUREMENT_SCHEMA_VERSION)?, Some(reset))
            }
        };
        let runs = RunStore {
            store: Some(store),
            ..RunStore::unstored(scale)
        };
        Ok((runs, reset))
    }

    /// The run store named by `--store PATH` or the `TIA_STORE`
    /// environment variable (the flag wins), or one that simulates
    /// every run and stores none when neither is set. A reset stale
    /// file is reported on stderr.
    ///
    /// # Panics
    ///
    /// Panics when the configured store cannot be opened, and on a
    /// present-but-useless `TIA_STORE` (empty or non-UTF-8) rather than
    /// silently running uncached.
    pub fn from_args(args: &Args) -> Self {
        let Some(path) = store_path(args) else {
            return RunStore::unstored(args.scale());
        };
        let (runs, reset) = RunStore::open(&path, args.scale())
            .unwrap_or_else(|e| panic!("cannot open measurement store {}: {e}", path.display()));
        if let Some(reason) = reset {
            eprintln!(
                "warning: discarding stale measurements at {} ({reason}); \
                 the old file was moved to {}.stale and the runs are re-simulated",
                path.display(),
                path.display()
            );
        }
        runs
    }

    /// The backing store, if one is configured.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Runs answered from the store so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Runs simulated so far.
    pub fn simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// The runs of `keys`, in order, with the misses simulated across
    /// [`tia_par::worker_count`] threads. A key is answered by its own
    /// record or by any stored or freshly simulated run whose witness
    /// covers it (see [`answers`]); the store holds one record per
    /// simulated run.
    pub fn runs(&self, keys: &[RunKey]) -> Vec<MeasuredRun> {
        self.runs_with(tia_par::worker_count(), keys)
    }

    /// The runs of `keys` with the misses simulated in waves ordered
    /// by [`wave`]. A miss that a run of an earlier wave answers takes
    /// that run; the rest of the wave is simulated.
    fn runs_with(&self, workers: usize, keys: &[RunKey]) -> Vec<MeasuredRun> {
        let mut found: Vec<Option<MeasuredRun>> = match &self.store {
            Some(store) => keys.iter().map(|key| self.stored(store, key)).collect(),
            None => vec![None; keys.len()],
        };
        let mut misses: Vec<usize> = (0..keys.len()).filter(|&i| found[i].is_none()).collect();
        misses.sort_by_key(|&i| wave(&keys[i]));
        // Each run simulated so far, by key index, with its witness.
        let mut simulated: Vec<(usize, ConfigWitness)> = Vec::new();
        for batch in misses.chunk_by(|&a, &b| wave(&keys[a]) == wave(&keys[b])) {
            let mut fresh = Vec::new();
            for &i in batch {
                match simulated
                    .iter()
                    .find(|&&(j, witness)| answers(&keys[j], witness, &keys[i]))
                {
                    Some(&(j, _)) => {
                        found[i] = found[j].map(|run| MeasuredRun {
                            config: keys[i].config,
                            ..run
                        });
                    }
                    None => fresh.push(i),
                }
            }
            for (&i, (run, witness)) in fresh.iter().zip(self.simulate(workers, keys, &fresh)) {
                found[i] = Some(run);
                simulated.push((i, witness));
            }
        }
        let simulated = simulated.len() as u64;
        self.hits
            .fetch_add(keys.len() as u64 - simulated, Ordering::Relaxed);
        self.simulated.fetch_add(simulated, Ordering::Relaxed);
        found
            .into_iter()
            .map(|run| run.expect("every miss was simulated or answered by a simulated run"))
            .collect()
    }

    /// The stored run that answers `key`: its own record's, else the
    /// first of its [`neighbours`] whose witness covers it.
    fn stored(&self, store: &Store, key: &RunKey) -> Option<MeasuredRun> {
        std::iter::once(key.clone())
            .chain(neighbours(key))
            .find_map(|from| {
                let (run, witness) = decode_run(key, &store.get(&from.hash(self.scale))?)?;
                answers(&from, witness, key).then_some(run)
            })
    }

    /// Simulates the runs of `keys` at `indices` across `workers`
    /// threads and stores each under its own key. Returns the runs, in
    /// `indices` order, with their witnesses.
    fn simulate(
        &self,
        workers: usize,
        keys: &[RunKey],
        indices: &[usize],
    ) -> Vec<(MeasuredRun, ConfigWitness)> {
        tia_par::par_map_with(workers, indices, |&i| {
            let key = &keys[i];
            let (run, witness) = run_uarch_workload(key, self.scale);
            if let Some(store) = &self.store {
                if let Err(e) = store.put(key.hash(self.scale), &encode_run(&run, witness)) {
                    // A failed persist must not kill the experiment; it
                    // just cannot warm the next one from this run.
                    eprintln!("warning: could not persist measurement: {e}");
                }
            }
            (run, witness)
        })
    }

    /// The suite-averaged activity (see [`activity_of`]) of every
    /// configuration of [`UarchConfig::all`], as the source
    /// `par_explore` sweeps: the delay model of the design-space
    /// exploration. All of the population's runs are fetched in one
    /// batch up front, so their misses spread run by run across the
    /// pool and each +Q key can be answered by its twin (see
    /// [`RunStore::runs`]) whatever the worker count.
    ///
    /// # Panics
    ///
    /// The returned source panics on a configuration outside the
    /// population.
    pub fn population_activity(&self) -> impl Fn(&UarchConfig) -> CpiMeasurement + Sync {
        let configs = UarchConfig::all();
        let runs = self.runs(&suite_keys(&configs));
        let activity: Vec<CpiMeasurement> =
            runs.chunks(ALL_WORKLOADS.len()).map(activity_of).collect();
        move |config: &UarchConfig| {
            let i = configs
                .iter()
                .position(|c| c == config)
                .unwrap_or_else(|| panic!("{config} is not in the swept population"));
            activity[i]
        }
    }

    /// Prints the one-line summary of this process's store use,
    /// `measurement store PATH: N point(s) answered from store, M
    /// simulated`, where the counts are runs: `M` is the runs this
    /// process simulated and `N` every other run it was asked for,
    /// whether read from the store or answered by another key's run
    /// (see [`RunStore::runs`]). Prints nothing without a store.
    pub fn report(&self) {
        if let Some(store) = &self.store {
            eprintln!(
                "measurement store {}: {} point(s) answered from store, {} simulated",
                store.path().display(),
                self.hits(),
                self.simulated()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_core::Pipeline;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tia-bench-store-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(stale_path(&path));
        path
    }

    fn stale_path(path: &Path) -> PathBuf {
        let mut stale = path.as_os_str().to_owned();
        stale.push(".stale");
        PathBuf::from(stale)
    }

    fn open(path: &Path) -> RunStore {
        let (runs, reset) = RunStore::open(path, Scale::Test).expect("open");
        assert_eq!(reset, None);
        runs
    }

    fn activity_bits(m: &CpiMeasurement) -> Vec<u64> {
        let mut bits = vec![m.cpi.to_bits(), m.issue_rate.to_bits()];
        bits.extend(
            tia_prof::Leaf::ALL
                .iter()
                .map(|&l| m.stack.get(l).to_bits()),
        );
        bits
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let key = RunKey::new(WorkloadKind::Gcd, UarchConfig::with_pq(Pipeline::T_DX));
        let (run, witness) = run_uarch_workload(&key, Scale::Test);
        let (back, back_witness) = decode_run(&key, &encode_run(&run, witness)).expect("decodes");
        assert_eq!(back.counters, run.counters);
        assert_eq!(back.system_cycles, run.system_cycles);
        assert_eq!((back.kind, back.config), (key.kind, key.config));
        assert_eq!(back_witness, witness);
        assert!(decode_run(&key, b"not a record").is_none());
    }

    #[test]
    fn keys_separate_every_input_dimension() {
        let a = RunKey::new(WorkloadKind::Bst, UarchConfig::base(Pipeline::TDX));
        let h = a.hash(Scale::Paper);
        assert_eq!(h, a.clone().hash(Scale::Paper), "deterministic");
        let config = RunKey {
            config: UarchConfig::with_p(Pipeline::TDX),
            ..a.clone()
        };
        assert_ne!(h, config.hash(Scale::Paper), "config");
        let workload = RunKey {
            kind: WorkloadKind::Gcd,
            ..a.clone()
        };
        assert_ne!(h, workload.hash(Scale::Paper), "workload");
        assert_ne!(h, a.hash(Scale::Test), "scale");
        let mut params = a.clone();
        params.params.queue_capacity += 1;
        assert_ne!(h, params.hash(Scale::Paper), "params");
    }

    /// The memo-key regression the store exists to fix: two
    /// semantically equal encodings of one run key — object fields
    /// reordered — produce *different* JSON strings but the *same*
    /// canonical hash, so they hit the same record.
    #[test]
    fn semantically_equal_configs_share_one_entry() {
        let key = RunKey::new(WorkloadKind::Merge, UarchConfig::with_pq(Pipeline::T_DX));
        let Value::Object(mut fields) = key.to_value(Scale::Test) else {
            panic!("keys encode to objects");
        };
        fields.reverse();
        for (_, value) in &mut fields {
            if let Value::Object(inner) = value {
                inner.reverse();
            }
        }
        let reordered = Value::Object(fields);
        assert_ne!(
            serde_json::to_string(&key.to_value(Scale::Test)).expect("serializes"),
            serde_json::to_string(&reordered).expect("serializes"),
            "JSON keying is order-sensitive"
        );
        assert_eq!(
            key.hash(Scale::Test),
            canonical_hash(MEASUREMENT_SCHEMA_VERSION, &reordered).expect("hashes")
        );
    }

    #[test]
    fn a_fig5_cell_and_a_fig6_config_share_one_record() {
        let path = temp_path("shared.store");
        let runs = open(&path);
        // fig5 builds its cells from the named constructors...
        let cell = UarchConfig::with_pq(Pipeline::T_DX);
        let fig5 = runs.runs(&[RunKey::new(WorkloadKind::Gcd, cell)]);
        assert_eq!((runs.hits(), runs.simulated()), (0, 1));
        // ...fig6 sweeps the enumerated population.
        let swept = *UarchConfig::all()
            .iter()
            .find(|&&c| c == cell)
            .expect("the sweep covers every fig5 cell");
        let keys = suite_keys(&[swept]);
        let suite = runs.runs(&keys);
        assert_eq!(
            (runs.hits(), runs.simulated()),
            (1, ALL_WORKLOADS.len() as u64)
        );
        assert_eq!(
            runs.store().expect("stored").len(),
            ALL_WORKLOADS.len(),
            "one record per simulated run"
        );
        let again = runs.runs(&[RunKey::new(WorkloadKind::Gcd, swept)]);
        assert_eq!(again[0].counters, fig5[0].counters);
        assert_eq!(suite[0].counters, fig5[0].counters);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_sweep_resumes_without_remeasuring() {
        let path = temp_path("resume.store");
        let keys: Vec<RunKey> = [Pipeline::TDX, Pipeline::T_DX, Pipeline::T_D_X]
            .into_iter()
            .map(|p| RunKey::new(WorkloadKind::Gcd, UarchConfig::base(p)))
            .collect();

        // First run: measure two of the three, then "die".
        let first = open(&path);
        let _ = first.runs(&keys[..2]);
        assert_eq!(first.simulated(), 2);
        drop(first);

        // Second run: the two finished runs come from the file.
        let resumed = open(&path);
        assert_eq!(resumed.store().expect("stored").len(), 2);
        let _ = resumed.runs(&keys);
        assert_eq!((resumed.hits(), resumed.simulated()), (2, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_store_answers_without_simulating() {
        let path = temp_path("warm.store");
        let keys = suite_keys(&[UarchConfig::base(Pipeline::TDX)]);
        let cold_store = open(&path);
        let cold = cold_store.runs(&keys);
        assert_eq!(cold_store.simulated(), keys.len() as u64);
        drop(cold_store);

        let warm_store = open(&path);
        let warm = warm_store.runs(&keys);
        assert_eq!(
            (warm_store.hits(), warm_store.simulated()),
            (keys.len() as u64, 0)
        );
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!((c.counters, c.system_cycles), (w.counters, w.system_cycles));
        }
        assert_eq!(
            activity_bits(&activity_of(&cold)),
            activity_bits(&activity_of(&warm)),
            "warm equals cold, bit for bit"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The suite average folded from stored runs is the one the
    /// pre-store sweeps computed from fresh simulations, to the bit:
    /// the fold sums in the same order.
    #[test]
    fn resumed_sweep_is_bit_identical_to_uninterrupted() {
        let config = UarchConfig::with_pq(Pipeline::T_D_X1_X2);
        let mut cpi_sum = 0.0;
        let mut issue_sum = 0.0;
        let mut stacks = Vec::new();
        for kind in ALL_WORKLOADS {
            let (run, _) = run_uarch_workload(&RunKey::new(kind, config), Scale::Test);
            let c = run.counters;
            cpi_sum += c.cpi();
            issue_sum += (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64;
            let stack = crate::coarse_stack(&run);
            stacks.push(stack.shares(stack.total()));
        }
        let n = ALL_WORKLOADS.len() as f64;
        let stack = tia_prof::LeafShares::average(&stacks);
        let fresh = CpiMeasurement {
            cpi: cpi_sum / n,
            issue_rate: issue_sum / n,
            stack,
            bottleneck: stack.bottleneck(),
        };

        // Interrupted after half the suite, then resumed.
        let path = temp_path("identical.store");
        let _ = open(&path).runs(&suite_keys(&[config])[..5]);
        let resumed = open(&path);
        let stored = activity_of(&resumed.runs(&suite_keys(&[config])));
        assert_eq!((resumed.hits(), resumed.simulated()), (5, 5));
        assert_eq!(activity_bits(&stored), activity_bits(&fresh));
        assert_eq!(stored.bottleneck, fresh.bottleneck);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_schema_stores_are_regenerated() {
        let path = temp_path("stale_schema.store");
        // Seed a store written under another schema version holding a
        // poisoned record at the key a current store would derive.
        let key = RunKey::new(WorkloadKind::Gcd, UarchConfig::base(Pipeline::TDX));
        let old = Store::open(&path, MEASUREMENT_SCHEMA_VERSION + 1).expect("seed store");
        let poisoned = MeasuredRun {
            kind: key.kind,
            config: key.config,
            counters: UarchCounters::default(),
            system_cycles: 999,
        };
        old.put(
            key.hash(Scale::Test),
            &encode_run(&poisoned, ConfigWitness::CLEAN),
        )
        .expect("seed record");
        drop(old);

        let (runs, reset) = RunStore::open(&path, Scale::Test).expect("open resets");
        assert_eq!(
            reset,
            Some(StoreReset::StaleSchema {
                found: MEASUREMENT_SCHEMA_VERSION + 1
            })
        );
        assert!(
            runs.store().expect("stored").is_empty(),
            "stale records discarded"
        );
        let run = runs.runs(&[key]);
        assert_eq!(runs.simulated(), 1, "re-simulated, not trusted");
        assert_ne!(run[0].system_cycles, 999);
        assert!(
            stale_path(&path).exists(),
            "stale file kept for post-mortems"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(stale_path(&path));
    }

    /// After a stale-schema reset the fresh file is a working store:
    /// a run simulated once is answered from it, in this process and
    /// the next.
    #[test]
    fn stale_schema_stores_are_discarded_and_regenerated() {
        let path = temp_path("stale_regenerated.store");
        let old = Store::open(&path, MEASUREMENT_SCHEMA_VERSION + 7).expect("seed store");
        old.put(tia_store::sha256(b"whatever"), b"poisoned")
            .expect("seed record");
        drop(old);

        let key = RunKey::new(WorkloadKind::Gcd, UarchConfig::base(Pipeline::TDX));
        let (runs, reset) = RunStore::open(&path, Scale::Test).expect("open resets");
        assert_eq!(
            reset,
            Some(StoreReset::StaleSchema {
                found: MEASUREMENT_SCHEMA_VERSION + 7
            })
        );
        let first = runs.runs(std::slice::from_ref(&key));
        let second = runs.runs(std::slice::from_ref(&key));
        assert_eq!(
            (runs.simulated(), runs.hits()),
            (1, 1),
            "simulated once, then answered from the store"
        );
        assert_eq!(first[0].counters, second[0].counters);
        drop(runs);

        let reopened = open(&path);
        assert_eq!(reopened.store().expect("stored").len(), 1);
        let _ = reopened.runs(&[key]);
        assert_eq!((reopened.hits(), reopened.simulated()), (1, 0));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(stale_path(&path));
    }

    /// Runs answer equal when every simulated field is equal.
    fn same_run(a: &MeasuredRun, b: &MeasuredRun) -> bool {
        (a.kind, a.counters, a.system_cycles) == (b.kind, b.counters, b.system_cycles)
    }

    /// `key` with the +Q setting and the nesting limit replaced.
    fn with_knobs(key: &RunKey, effective_queue_status: bool, speculation_depth: u8) -> RunKey {
        RunKey {
            config: UarchConfig {
                effective_queue_status,
                speculation_depth,
                ..key.config
            },
            ..key.clone()
        }
    }

    /// `key` with the +Q setting flipped.
    fn q_twin(key: &RunKey) -> RunKey {
        with_knobs(
            key,
            !key.config.effective_queue_status,
            key.config.speculation_depth,
        )
    }

    #[test]
    fn a_clean_q_twin_pair_simulates_once() {
        let path = temp_path("q_twin_clean.store");
        let key = RunKey::new(WorkloadKind::Gcd, UarchConfig::base(Pipeline::T_D_X));
        let twin = q_twin(&key);
        assert!(twin.config.effective_queue_status);
        assert!(
            !run_uarch_workload(&key, Scale::Test)
                .1
                .queue_status_mattered,
            "gcd never trips"
        );

        let runs = open(&path);
        let both = runs.runs(&[twin.clone(), key.clone()]);
        assert_eq!((runs.hits(), runs.simulated()), (1, 1));
        assert!(same_run(&both[0], &both[1]));
        assert_eq!((both[0].config, both[1].config), (twin.config, key.config));
        drop(runs);

        // The run's record is in the file: a later process asking for
        // the twin alone simulates nothing.
        let reopened = open(&path);
        let alone = reopened.runs(std::slice::from_ref(&twin));
        assert_eq!((reopened.hits(), reopened.simulated()), (1, 0));
        assert!(same_run(&alone[0], &both[0]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_tripped_q_twin_pair_simulates_twice() {
        let path = temp_path("q_twin_tripped.store");
        let key = RunKey::new(WorkloadKind::Merge, UarchConfig::base(Pipeline::T_D_X1_X2));
        assert!(
            run_uarch_workload(&key, Scale::Test)
                .1
                .queue_status_mattered,
            "merge trips"
        );
        let runs = open(&path);
        let both = runs.runs(&[key.clone(), q_twin(&key)]);
        assert_eq!((runs.hits(), runs.simulated()), (0, 2));
        assert!(!same_run(&both[0], &both[1]), "+Q changes merge's run");
        assert_eq!(runs.store().expect("stored").len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn q_twin_runs_do_not_depend_on_the_worker_count() {
        let pipelines = [Pipeline::TDX, Pipeline::T_DX, Pipeline::T_D_X1_X2];
        let configs: Vec<UarchConfig> = pipelines
            .into_iter()
            .flat_map(|p| [UarchConfig::base(p), UarchConfig::with_q(p)])
            .collect();
        let keys = suite_keys(&configs);
        let serial = RunStore::unstored(Scale::Test);
        let parallel = RunStore::unstored(Scale::Test);
        let one = serial.runs_with(1, &keys);
        let two = parallel.runs_with(2, &keys);
        assert!(one.iter().zip(&two).all(|(a, b)| same_run(a, b)));
        assert_eq!(serial.simulated(), parallel.simulated());
        assert!(
            serial.simulated() < keys.len() as u64,
            "some +Q run is answered by its twin"
        );
    }

    #[test]
    fn witness_rule_covers_only_unconsulted_knobs() {
        let key = RunKey::new(
            WorkloadKind::Gcd,
            UarchConfig::with_nested(Pipeline::T_D_X, 2),
        );
        let clean = ConfigWitness::CLEAN;
        let bound = ConfigWitness {
            queue_status_mattered: true,
            spec_depth_needed: 3,
        };
        assert!(answers(&key, bound, &key), "a run answers its own key");
        assert!(answers(&key, clean, &with_knobs(&key, false, 4)));
        assert!(answers(&key, clean, &with_knobs(&key, true, 1)));
        assert!(!answers(&key, bound, &q_twin(&key)));
        assert!(!answers(&key, bound, &with_knobs(&key, true, 3)));
        let unbound_q = ConfigWitness {
            queue_status_mattered: false,
            spec_depth_needed: 2,
        };
        assert!(answers(&key, unbound_q, &with_knobs(&key, false, 3)));
        assert!(!answers(&key, unbound_q, &with_knobs(&key, false, 1)));
        // Every other input must be equal.
        let other_kind = RunKey {
            kind: WorkloadKind::Mean,
            ..key.clone()
        };
        assert!(!answers(&key, clean, &other_kind));
        let mut other_params = key.clone();
        other_params.params.queue_capacity += 1;
        assert!(!answers(&key, clean, &other_params));
        let mut other_predictor = key.clone();
        other_predictor.config.predictor = tia_core::PredictorKind::OneBit;
        assert!(!answers(&key, clean, &other_predictor));
        assert!(!answers(
            &key,
            ConfigWitness::UNKNOWN,
            &with_knobs(&key, true, 3)
        ));
    }

    /// The nesting-limit chain 1..=4 of `kind` on T|D|X1|X2 +P+Q.
    fn depth_chain(kind: WorkloadKind) -> Vec<RunKey> {
        (1..=4)
            .map(|depth| RunKey::new(kind, UarchConfig::with_nested(Pipeline::T_D_X1_X2, depth)))
            .collect()
    }

    #[test]
    fn witness_clean_depth_chain_simulates_once() {
        let path = temp_path("witness_clean_chain.store");
        let keys = depth_chain(WorkloadKind::Mean);
        let (reference, witness) = run_uarch_workload(&keys[0], Scale::Test);
        assert_eq!(witness.spec_depth_needed, 1, "mean never nests");
        let runs = open(&path);
        let chain = runs.runs(&keys);
        assert_eq!((runs.hits(), runs.simulated()), (3, 1));
        assert!(chain.iter().all(|run| same_run(run, &reference)));
        let configs: Vec<UarchConfig> = chain.iter().map(|run| run.config).collect();
        let asked: Vec<UarchConfig> = keys.iter().map(|key| key.config).collect();
        assert_eq!(configs, asked, "each answer carries its own key's config");
        drop(runs);

        let reopened = open(&path);
        assert_eq!(reopened.store().expect("stored").len(), 1);
        let alone = reopened.runs(&keys[2..3]);
        assert_eq!((reopened.hits(), reopened.simulated()), (1, 0));
        assert!(same_run(&alone[0], &reference));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn witness_bound_chain_simulates_up_to_its_first_unbound_depth() {
        let keys = depth_chain(WorkloadKind::Gcd);
        let reference: Vec<(MeasuredRun, ConfigWitness)> = keys
            .iter()
            .map(|key| run_uarch_workload(key, Scale::Test))
            .collect();
        let needs: Vec<u8> = reference.iter().map(|(_, w)| w.spec_depth_needed).collect();
        assert_eq!(needs, [2, 3, 3, 3], "gcd nests twice on T|D|X1|X2");
        // Depth 1 and 2 are each gated by their limit; depth 3 is not,
        // so it also answers depth 4.
        let runs = RunStore::unstored(Scale::Test);
        let chain = runs.runs(&keys);
        assert_eq!((runs.hits(), runs.simulated()), (1, 3));
        for (run, (direct, _)) in chain.iter().zip(&reference) {
            assert!(
                same_run(run, direct),
                "{} differs from its own run",
                run.config
            );
        }
    }

    #[test]
    fn witness_multi_wave_runs_do_not_depend_on_the_worker_count() {
        let configs: Vec<UarchConfig> = [Pipeline::T_DX1_X2, Pipeline::T_D_X, Pipeline::T_D_X1_X2]
            .into_iter()
            .flat_map(|p| {
                (1..=4).flat_map(move |depth| {
                    let nested = UarchConfig::with_nested(p, depth);
                    [
                        nested,
                        UarchConfig {
                            effective_queue_status: false,
                            ..nested
                        },
                    ]
                })
            })
            .collect();
        // Deepest first, so every wave is asked for before the wave
        // that answers it.
        let keys: Vec<RunKey> = suite_keys(&configs).into_iter().rev().collect();
        let serial = RunStore::unstored(Scale::Test);
        let parallel = RunStore::unstored(Scale::Test);
        let one = serial.runs_with(1, &keys);
        let two = parallel.runs_with(2, &keys);
        assert!(one.iter().zip(&two).all(|(a, b)| same_run(a, b)));
        assert_eq!(serial.simulated(), parallel.simulated());
        assert!(
            serial.simulated() * 2 < keys.len() as u64,
            "most keys are answered by another key's run: {} of {} simulated",
            serial.simulated(),
            keys.len()
        );
        for (key, run) in keys.iter().zip(&one) {
            let (direct, _) = run_uarch_workload(key, Scale::Test);
            assert!(same_run(run, &direct), "{} on {}", key.kind, key.config);
            assert_eq!(run.config, key.config);
        }
    }

    #[test]
    fn witness_less_records_are_resimulated() {
        let path = temp_path("witness_less.store");
        let key = RunKey::new(
            WorkloadKind::Mean,
            UarchConfig::with_nested(Pipeline::T_D_X, 2),
        );
        let shallow = with_knobs(&key, true, 1);
        // Records in the current schema's shape but without a witness,
        // under the key itself and under the neighbour that would
        // answer it.
        let store = Store::open(&path, MEASUREMENT_SCHEMA_VERSION).expect("seed store");
        let poisoned = Value::Object(vec![
            ("counters".to_string(), UarchCounters::default().to_value()),
            ("system_cycles".to_string(), 999u64.to_value()),
        ]);
        let bytes = canonical_bytes(&poisoned).expect("encodes");
        for k in [&key, &shallow] {
            store.put(k.hash(Scale::Test), &bytes).expect("seed record");
        }
        drop(store);

        let runs = open(&path);
        let run = runs.runs(std::slice::from_ref(&key));
        assert_eq!(runs.simulated(), 1, "re-simulated, not trusted");
        assert_ne!(run[0].system_cycles, 999);
        drop(runs);
        let reopened = open(&path);
        let again = reopened.runs(std::slice::from_ref(&key));
        assert_eq!(reopened.simulated(), 0, "the fresh record replaced it");
        assert!(same_run(&again[0], &run[0]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_store_files_are_moved_aside() {
        let path = temp_path("not_a_store.json");
        std::fs::write(&path, "{\"format_version\": 1, \"entries\": []}").expect("seed");
        let (runs, reset) = RunStore::open(&path, Scale::Test).expect("open resets");
        assert_eq!(reset, Some(StoreReset::Unreadable));
        assert!(runs.store().expect("stored").is_empty());
        let _ = runs.runs(&[RunKey::new(
            WorkloadKind::Gcd,
            UarchConfig::base(Pipeline::TDX),
        )]);
        assert_eq!(runs.simulated(), 1, "regenerated");
        assert!(stale_path(&path).exists(), "the JSON file was moved aside");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(stale_path(&path));
    }
}
