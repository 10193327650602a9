//! # `tia-par` — a dependency-free parallel-map engine
//!
//! The experiment harnesses in this workspace are dominated by
//! embarrassingly parallel sweeps: the §3 design-space exploration
//! fans 32 independent cycle-accurate simulations across a
//! (VT, VDD, frequency) grid, and every figure binary runs an
//! independent (workload × microarchitecture) matrix. This crate
//! parallelizes exactly that shape with nothing beyond
//! [`std::thread::scope`] — the build is offline with vendored
//! dependencies only, so `rayon` is not an option.
//!
//! Properties:
//!
//! * **Deterministic, index-ordered results** — [`par_map`] returns
//!   `results[i] == f(&items[i])` in input order regardless of worker
//!   count or scheduling, so parallel sweeps stay bit-identical to
//!   their serial equivalents.
//! * **Work stealing** — workers claim items from a shared atomic
//!   cursor in small chunks, so uneven item costs (a 4-deep +P+Q
//!   pipeline simulates slower than single-cycle TDX) don't leave
//!   cores idle.
//! * **Worker-count control** — the `TIA_THREADS` environment
//!   variable caps the pool ([`worker_count`]); `TIA_THREADS=1`
//!   degenerates to a serial in-place loop with no threads spawned.
//! * **Panic propagation** — a panic on any worker is re-raised on
//!   the caller with its original payload (lowest item index wins, so
//!   even the failure is deterministic).
//!
//! # Examples
//!
//! ```
//! let squares = tia_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-worker effectiveness of one parallel map: how many items each
/// worker claimed and how long it spent executing them, plus the wall
/// clock of the whole map. Benchmark harnesses (`tia-benchmark`'s
/// `dse_seeded` workload) report these so scaling results can be
/// explained by data — a sweep whose slowest worker is busy 95% of the
/// wall clock is balance-limited by physics, not by the scheduler; one
/// at 50% points at chunking.
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Workers actually spawned (after clamping to the item count).
    pub workers: usize,
    /// The cursor claim granularity used.
    pub chunk: usize,
    /// Items executed per worker.
    pub items: Vec<usize>,
    /// Time each worker spent inside `f` (not waiting on the cursor or
    /// the deposit lock).
    pub busy: Vec<Duration>,
    /// Wall-clock time of the whole map.
    pub elapsed: Duration,
}

impl ParStats {
    /// Per-worker utilization: busy time over wall-clock time, in
    /// `[0, 1]` (0 for a zero-length run).
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.elapsed.as_secs_f64();
        self.busy
            .iter()
            .map(|b| {
                if wall > 0.0 {
                    (b.as_secs_f64() / wall).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The cursor claim granularity for `items` across `workers`: one item
/// at a time for small batches of expensive items (a design-space
/// sweep hands out 32 cycle-accurate simulations — batching two behind
/// one worker serializes the tail and caps 4-worker speedup well below
/// the core count), falling back to coarser chunks only when the item
/// count is large enough that per-claim atomic traffic could matter.
fn chunk_for(items: usize, workers: usize) -> usize {
    if items <= workers * 32 {
        1
    } else {
        (items / (workers * 8)).max(1)
    }
}

/// The environment variable capping the worker pool size.
pub const THREADS_ENV: &str = "TIA_THREADS";

/// Parses a `TIA_THREADS` value: a positive integer worker count.
///
/// # Errors
///
/// Returns a human-readable message for zero, empty and garbage
/// values — a pool must always have at least one worker, and a typo'd
/// setting silently falling back to the host default is exactly how a
/// "single-threaded" reproduction run ends up parallel.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "invalid {THREADS_ENV} value `{value}`: a worker pool needs at least 1 thread"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "invalid {THREADS_ENV} value `{value}`: expected a positive integer"
        )),
    }
}

/// The worker count [`par_map`] uses: `TIA_THREADS` when set,
/// otherwise [`std::thread::available_parallelism`] (1 if even that
/// is unavailable).
///
/// # Panics
///
/// A set-but-invalid `TIA_THREADS` (zero, empty, garbage) aborts with
/// a clear message rather than being silently ignored — see
/// [`parse_threads`].
pub fn worker_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(value) => match parse_threads(&value) {
            Ok(n) => n,
            Err(message) => panic!("{message}"),
        },
        Err(std::env::VarError::NotPresent) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid {THREADS_ENV} value: not valid UTF-8")
        }
    }
}

/// Applies `f` to every item, returning results in input order.
/// Equivalent to `items.iter().map(f).collect()` but fanned across
/// [`worker_count`] scoped threads.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed item whose `f` call
/// panicked, after all workers have stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(worker_count(), items, f)
}

/// [`par_map`] with an explicit worker count (still clamped to the
/// item count; `workers <= 1` runs serially on the caller's thread).
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed item whose `f` call
/// panicked, after all workers have stopped.
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_stats_with(workers, items, f).0
}

/// [`par_map_with`] returning per-worker [`ParStats`] alongside the
/// results. The results are identical to [`par_map_with`] (and to the
/// serial map); the stats are observability only.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed item whose `f` call
/// panicked, after all workers have stopped.
pub fn par_map_stats_with<T, R, F>(workers: usize, items: &[T], f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let started = Instant::now();
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        // The degenerate pool: no threads, no atomics, same results.
        let results: Vec<R> = items.iter().map(f).collect();
        let elapsed = started.elapsed();
        return (
            results,
            ParStats {
                workers: 1,
                chunk: items.len().max(1),
                items: vec![items.len()],
                busy: vec![elapsed],
                elapsed,
            },
        );
    }

    // Workers claim `chunk`-sized runs of indices from a shared
    // cursor — cheap dynamic load balancing (see [`chunk_for`]).
    let chunk = chunk_for(items.len(), workers);
    let cursor = AtomicUsize::new(0);
    // Each worker accumulates (index, result) pairs locally and
    // deposits them once at the end, so the lock is uncontended.
    let deposits: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    let worker_stats: Mutex<Vec<(usize, usize, Duration)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // `move` closures capture these shared references by copy and
        // the worker index by value.
        let (cursor, deposits, panics, worker_stats, f) =
            (&cursor, &deposits, &panics, &worker_stats, &f);
        for w in 0..workers {
            scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut busy = Duration::ZERO;
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items[start..end].iter().enumerate() {
                        let item_started = Instant::now();
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(r) => {
                                busy += item_started.elapsed();
                                local.push((start + i, r));
                            }
                            Err(payload) => {
                                panics.lock().unwrap().push((start + i, payload));
                                // Drain the cursor so every worker
                                // winds down promptly.
                                cursor.store(items.len(), Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
                worker_stats.lock().unwrap().push((w, local.len(), busy));
                deposits.lock().unwrap().append(&mut local);
            });
        }
    });

    let mut panics = panics.into_inner().unwrap();
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _)| *i);
        resume_unwind(panics.remove(0).1);
    }

    let mut pairs = deposits.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), items.len(), "every item produced a result");
    pairs.sort_by_key(|(i, _)| *i);

    let mut per_worker = worker_stats.into_inner().unwrap();
    per_worker.sort_by_key(|(w, _, _)| *w);
    let stats = ParStats {
        workers,
        chunk,
        items: per_worker.iter().map(|(_, n, _)| *n).collect(),
        busy: per_worker.iter().map(|(_, _, b)| *b).collect(),
        elapsed: started.elapsed(),
    };
    (pairs.into_iter().map(|(_, r)| r).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_at_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 7, 16, 64] {
            let got = par_map_with(workers, &items, |&x| x * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_item_costs_still_complete() {
        // Front-loaded heavy items force the chunked cursor to
        // rebalance; every result must still land at its index.
        let items: Vec<u64> = (0..64).rev().collect();
        let got = par_map_with(4, &items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn a_worker_panic_propagates_with_its_payload() {
        let items: Vec<u32> = (0..32).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(4, &items, |&x| {
                if x == 13 {
                    panic!("unlucky item {x}");
                }
                x
            })
        }))
        .expect_err("the panic must propagate to the caller");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("unlucky item 13"), "payload: {message:?}");
    }

    #[test]
    fn the_lowest_indexed_panic_wins() {
        // Run repeatedly: whichever worker panics first, the caller
        // must always observe the panic of the lowest index.
        for _ in 0..8 {
            let items: Vec<u32> = (0..64).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_with(4, &items, |&x| {
                    if x % 17 == 5 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }))
            .expect_err("must panic");
            let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(message, "boom at 5");
        }
    }

    #[test]
    fn stats_account_for_every_item_and_bound_utilization() {
        let items: Vec<u64> = (0..64).collect();
        let (got, stats) = par_map_stats_with(4, &items, |&x| x + 1);
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.chunk, 1, "few items steal one at a time");
        assert_eq!(stats.items.len(), 4);
        assert_eq!(stats.busy.len(), 4);
        assert_eq!(stats.items.iter().sum::<usize>(), items.len());
        for u in stats.utilization() {
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
    }

    #[test]
    fn serial_stats_describe_one_fully_busy_worker() {
        let items: Vec<u64> = (0..5).collect();
        let (got, stats) = par_map_stats_with(1, &items, |&x| x * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.items, vec![5]);
    }

    #[test]
    fn large_batches_still_use_coarse_chunks() {
        assert_eq!(chunk_for(32, 4), 1, "the DSE shape steals singly");
        assert!(chunk_for(100_000, 4) > 1, "huge batches amortize claims");
    }

    #[test]
    fn worker_count_defaults_to_at_least_one() {
        // `worker_count` itself reads the process environment; the
        // parse rules are what we can test hermetically below.
        assert!(worker_count() >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2), "whitespace trims");
    }

    #[test]
    fn parse_threads_rejects_zero_empty_and_garbage_loudly() {
        let zero = parse_threads("0").expect_err("0 workers is nonsense");
        assert!(zero.contains("TIA_THREADS"), "message names the variable");
        assert!(zero.contains('0'), "message echoes the bad value");

        let empty = parse_threads("").expect_err("empty is not a count");
        assert!(empty.contains("TIA_THREADS"));

        for garbage in ["abc", "-2", "1.5", "4x", "０"] {
            let err = parse_threads(garbage).expect_err(garbage);
            assert!(err.contains("TIA_THREADS"), "{garbage}: {err}");
        }
    }
}
