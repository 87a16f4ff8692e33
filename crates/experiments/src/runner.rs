//! Deterministic parallel fan-out for independent simulation points.
//!
//! Every figure in this crate is a sweep: a list of independent cells
//! (message sizes, victim/aggressor pairs, placement policies, …), each
//! simulated by its own [`slingshot_mpi::Engine`] with a seed derived
//! only from the cell's identity. That makes the sweep embarrassingly
//! parallel — and, because no state is shared between cells, results are
//! *bit-identical* at any thread count as long as aggregation order is
//! fixed.
//!
//! [`par_map`] provides exactly that contract: it fans `f` over the items
//! on the currently installed thread pool and returns the outputs in
//! input order, regardless of which thread finished first. [`with_jobs`]
//! installs the pool; figure binaries call it once from `main` with the
//! `--jobs` value so every `par_map`/[`join`] underneath inherits the
//! width.
//!
//! ```
//! use slingshot_experiments::runner;
//! let xs = [1u64, 2, 3, 4];
//! let squares = runner::with_jobs(2, || runner::par_map(&xs, |&x| x * x));
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use crate::cache::SweepCache;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use serde::Serialize;
use slingshot_network::{SimError, StallReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f` with the parallelism width pinned to `jobs` threads
/// (0 = one per hardware thread). All [`par_map`] and [`join`] calls
/// inside `f` use this width; `--jobs 1` reproduces the serial harness
/// exactly.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    let pool = ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build()
        .expect("build worker thread pool");
    pool.install(f)
}

/// Map `f` over `items` in parallel, preserving input order in the
/// output. With deterministic `f` (everything in this crate: per-cell
/// seeds, no shared state) the result is bit-identical at any thread
/// count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    items.par_iter().map(f).collect()
}

/// Run two independent closures, potentially in parallel, and return
/// `(a(), b())`. Order of the returned tuple is fixed, so combining the
/// results stays deterministic.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    rayon::join(a, b)
}

/// Identity of a sweep cell for error reporting: what to print when the
/// cell fails instead of producing a row.
#[derive(Clone, Debug)]
pub struct CellMeta {
    /// Human-readable cell label (victim, policy, share, …).
    pub label: String,
    /// The cell's RNG seed, for offline reproduction.
    pub seed: u64,
}

/// One failed sweep cell, rendered as an error row in the figure's table
/// and in `<fig>_errors.json`.
#[derive(Clone, Debug, Serialize)]
pub struct CellFailure {
    /// The failing cell's label.
    pub cell: String,
    /// The failing cell's seed.
    pub seed: u64,
    /// What went wrong (typed-error display or panic payload).
    pub error: String,
    /// Full stall diagnosis when the failure was an exhausted event
    /// budget. Boxed so an error row stays small next to the `Ok` rows
    /// it travels with.
    pub stall: Option<Box<StallReport>>,
}

impl CellFailure {
    fn from_sim(meta: &CellMeta, err: SimError) -> CellFailure {
        CellFailure {
            cell: meta.label.clone(),
            seed: meta.seed,
            error: err.to_string(),
            stall: match err {
                SimError::Stalled(report) => Some(report),
                _ => None,
            },
        }
    }

    fn from_panic(meta: &CellMeta, payload: Box<dyn std::any::Any + Send>) -> CellFailure {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        CellFailure {
            cell: meta.label.clone(),
            seed: meta.seed,
            error: format!("panic: {what}"),
            stall: None,
        }
    }
}

/// A figure's result: the rows it could compute plus an error row per
/// cell that could not be. Fault-free runs have `failures.is_empty()` and
/// `output` identical to what the pre-quarantine harness produced.
#[derive(Clone, Debug)]
pub struct Outcome<T> {
    /// The figure's normal payload (rows, series, …).
    pub output: T,
    /// Cells that panicked, stalled, or deadlocked, in sweep order.
    pub failures: Vec<CellFailure>,
}

impl<T> Outcome<T> {
    /// An all-cells-succeeded outcome.
    pub fn ok(output: T) -> Outcome<T> {
        Outcome {
            output,
            failures: Vec::new(),
        }
    }

    /// True when any cell failed (figure binaries exit non-zero).
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Run one cell inside a panic/stall quarantine: a typed simulation error
/// or a panic becomes an `Err(CellFailure)` instead of taking down the
/// sweep. The cell's own event budget (threaded through `f` by the
/// figure) is the per-cell compute bound — in a discrete-event simulator
/// events are the only clock that can be checked without preemption, so
/// a wall-clock budget reduces to an event budget.
fn run_quarantined<U>(
    meta: &CellMeta,
    f: impl FnOnce() -> Result<U, SimError>,
) -> Result<U, CellFailure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(CellFailure::from_sim(meta, e)),
        Err(payload) => Err(CellFailure::from_panic(meta, payload)),
    }
}

/// [`par_map`] with fault isolation: each cell runs under
/// `run_quarantined`, so one panicking or stalled cell yields a
/// structured error row while every other cell completes normally.
/// Output order matches input order; the all-success result is identical
/// to `par_map(items, f)` wrapped in `Ok`.
pub fn quarantine_map<T, U, M, F>(items: &[T], meta: M, f: F) -> Vec<Result<U, CellFailure>>
where
    T: Sync,
    U: Send,
    M: Fn(&T) -> CellMeta + Sync,
    F: Fn(&T) -> Result<U, SimError> + Sync,
{
    par_map(items, |item| run_quarantined(&meta(item), || f(item)))
}

/// [`quarantine_map`] with crash-resume over `(identity, item)` pairs:
/// when `cache` is `Some`, each item first consults the cache under its
/// identity and, on a miss, stores its freshly computed value atomically
/// the moment it completes. Failures are never cached — a previously
/// stalled cell is retried on resume. Cached and computed values
/// serialize identically, so aggregation is byte-identical to an
/// uninterrupted run.
pub fn resumable_map<T: Sync>(
    cache: Option<&SweepCache>,
    items: &[(String, T)],
    meta: impl Fn(&T) -> CellMeta + Sync,
    f: impl Fn(&T) -> Result<f64, SimError> + Sync,
) -> Vec<Result<f64, CellFailure>> {
    par_map(items, |(identity, item)| {
        if let Some(v) = cache.and_then(|c| c.load(identity)) {
            return Ok(v);
        }
        let result = run_quarantined(&meta(item), || f(item));
        if let (Some(cache), Ok(v)) = (cache, &result) {
            cache.store(identity, *v);
        }
        result
    })
}

/// Split quarantined results into positional successes (`None` where the
/// cell failed, so figures can pair rows with their sweep points) and the
/// failure rows in sweep order.
pub fn split_results<U>(
    results: Vec<Result<U, CellFailure>>,
) -> (Vec<Option<U>>, Vec<CellFailure>) {
    let mut ok = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(v) => ok.push(Some(v)),
            Err(f) => {
                ok.push(None);
                failures.push(f);
            }
        }
    }
    (ok, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        for jobs in [1, 2, 7] {
            let got = with_jobs(jobs, || par_map(&items, |&x| x.wrapping_mul(2654435761)));
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn with_jobs_scopes_the_width() {
        with_jobs(3, || assert_eq!(rayon::current_num_threads(), 3));
        with_jobs(1, || assert_eq!(rayon::current_num_threads(), 1));
    }

    #[test]
    fn join_returns_both_sides_in_order() {
        for jobs in [1, 4] {
            let (a, b) = with_jobs(jobs, || join(|| "left", || 42));
            assert_eq!((a, b), ("left", 42));
        }
    }

    fn meta_of(x: &u64) -> CellMeta {
        CellMeta {
            label: format!("cell-{x}"),
            seed: *x,
        }
    }

    #[test]
    fn quarantine_isolates_panics_and_sim_errors() {
        let items: Vec<u64> = (0..6).collect();
        let results = with_jobs(3, || {
            quarantine_map(&items, meta_of, |&x| match x {
                2 => panic!("boom at {x}"),
                4 => Err(SimError::Deadlock {
                    waiting: "rank 4".into(),
                }),
                _ => Ok(x * 10),
            })
        });
        assert_eq!(results.len(), 6, "every cell yields a row");
        let (ok, failures) = split_results(results);
        assert_eq!(ok, vec![Some(0), Some(10), None, Some(30), None, Some(50)]);
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].cell, "cell-2");
        assert_eq!(failures[0].seed, 2);
        assert!(
            failures[0].error.contains("boom at 2"),
            "{}",
            failures[0].error
        );
        assert_eq!(failures[1].cell, "cell-4");
        assert!(
            failures[1].error.contains("deadlock"),
            "{}",
            failures[1].error
        );
        assert!(failures[1].stall.is_none());
    }

    #[test]
    fn resumable_map_skips_cached_cells_and_retries_failures() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dir = std::env::temp_dir().join(format!(
            "slingshot-runner-resume-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::at(dir.clone());
        let items: Vec<(String, u64)> = (0..5).map(|x| (format!("x={x}"), x)).collect();
        let computed = AtomicU64::new(0);
        let run = |fail_on: u64| {
            with_jobs(2, || {
                resumable_map(Some(&cache), &items, meta_of, |&x| {
                    computed.fetch_add(1, Ordering::Relaxed);
                    if x == fail_on {
                        Err(SimError::Deadlock {
                            waiting: "stuck".into(),
                        })
                    } else {
                        Ok(x as f64 / 3.0)
                    }
                })
            })
        };
        // First pass: cell 3 fails, the other four complete and are cached.
        let first = run(3);
        assert_eq!(first.iter().filter(|r| r.is_ok()).count(), 4);
        assert_eq!(computed.load(Ordering::Relaxed), 5);
        // Second pass: the four cached cells are served without recompute
        // (failures were not cached, so only cell 3 runs again) and the
        // values are bit-identical.
        let second = run(u64::MAX);
        assert_eq!(computed.load(Ordering::Relaxed), 6);
        for ((_, x), r) in items.iter().zip(&second) {
            assert_eq!(*r.as_ref().unwrap(), *x as f64 / 3.0);
        }
        assert_eq!(cache.hits(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nested_par_map_still_ordered() {
        let outer: Vec<u32> = (0..5).collect();
        let got = with_jobs(4, || {
            par_map(&outer, |&i| {
                let inner: Vec<u32> = (0..8).collect();
                par_map(&inner, |&j| i * 100 + j)
            })
        });
        for (i, row) in got.iter().enumerate() {
            let want: Vec<u32> = (0..8).map(|j| i as u32 * 100 + j).collect();
            assert_eq!(row, &want);
        }
    }
}
