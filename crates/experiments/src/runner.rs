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
//! [`quarantine_map`] and [`resumable_map`] provide exactly that
//! contract: they fan the cells over scoped worker threads and return the
//! results in input order, regardless of which thread finished first.
//! [`with_jobs`] sets the number of workers; figure binaries call it once
//! from `main` with the `--jobs` value so every sweep underneath inherits
//! the width.
//!
//! ```
//! use slingshot_experiments::runner::{self, CellMeta};
//! let xs = [1u64, 2, 3, 4];
//! let meta = |&x: &u64| CellMeta { label: format!("x={x}"), seed: x };
//! let (squares, failures) =
//!     runner::with_jobs(2, || runner::quarantine_map(&xs, meta, |&x| Ok(x * x)));
//! assert_eq!(squares, vec![Some(1), Some(4), Some(9), Some(16)]);
//! assert!(failures.is_empty());
//! ```

use crate::cache::SweepCache;
use serde::Serialize;
use slingshot_network::{SimError, StallReport};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Worker count set by the innermost [`with_jobs`] on this thread;
    /// 0 = one per hardware thread.
    static JOBS: Cell<usize> = const { Cell::new(0) };
}

/// The number of workers a sweep started here and now fans out over.
fn width() -> usize {
    match JOBS.get() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        jobs => jobs,
    }
}

/// Run `f` with the parallelism width pinned to `jobs` worker threads
/// (0 = one per hardware thread). Every sweep inside `f` uses this width;
/// `--jobs 1` reproduces the serial harness exactly. The previous width
/// is restored on return, and also when `f` panics.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS.set(self.0);
        }
    }
    let _restore = Restore(JOBS.replace(jobs));
    f()
}

/// Map `f` over `items` on `min(width, items)` scoped workers, preserving
/// input order in the output. Each worker claims the next index from a
/// shared counter, and results are put back in index order, so the
/// output never depends on scheduling. A worker runs any nested sweep serially, which
/// bounds the thread count by the width.
fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = width().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    JOBS.set(1);
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices;
                        // results come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
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

/// Map `f` over `items` with fault isolation: each cell runs under
/// `run_quarantined`, so one panicking or stalled cell yields a
/// structured error row while every other cell completes normally.
/// Returns the positional successes (`None` where the cell failed, so
/// figures can pair rows with their sweep points) and the failure rows,
/// both in input order.
pub fn quarantine_map<T, U, M, F>(items: &[T], meta: M, f: F) -> (Vec<Option<U>>, Vec<CellFailure>)
where
    T: Sync,
    U: Send,
    M: Fn(&T) -> CellMeta + Sync,
    F: Fn(&T) -> Result<U, SimError> + Sync,
{
    let mut failures = Vec::new();
    let ok = par_map(items, |item| run_quarantined(&meta(item), || f(item)))
        .into_iter()
        .map(|r| match r {
            Ok(v) => Some(v),
            Err(failure) => {
                failures.push(failure);
                None
            }
        })
        .collect();
    (ok, failures)
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
    fn work_runs_on_more_than_one_thread_at_width_4() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        // Each item waits until all four are in flight, so this returns
        // only if four workers run at once.
        let barrier = Barrier::new(4);
        let ids = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..4).collect();
        let got = with_jobs(4, || {
            par_map(&items, |&x| {
                ids.lock().unwrap().insert(std::thread::current().id());
                barrier.wait();
                x
            })
        });
        assert_eq!(got, items);
        assert_eq!(ids.lock().unwrap().len(), 4);
    }

    #[test]
    fn empty_single_and_short_inputs() {
        with_jobs(4, || {
            assert!(par_map(&[] as &[u32], |&x| x).is_empty());
            assert_eq!(par_map(&[7u32], |&x| x * 2), vec![14]);
        });
        // More workers requested than there are items.
        let got = with_jobs(16, || par_map(&[1u32, 2, 3], |&x| x + 1));
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn with_jobs_scopes_the_width() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        with_jobs(0, || assert_eq!(width(), cores));
        with_jobs(3, || {
            assert_eq!(width(), 3);
            with_jobs(1, || assert_eq!(width(), 1));
            assert_eq!(width(), 3, "restored after a nested with_jobs");
            let caught: std::thread::Result<()> = catch_unwind(|| with_jobs(2, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(width(), 3, "restored after a panicking with_jobs");
        });
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
        let (ok, failures) = with_jobs(3, || {
            quarantine_map(&items, meta_of, |&x| match x {
                2 => panic!("boom at {x}"),
                4 => Err(SimError::Deadlock {
                    waiting: "rank 4".into(),
                }),
                _ => Ok(x * 10),
            })
        });
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
