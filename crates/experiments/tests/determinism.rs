//! The harness's determinism guarantee: a figure sweep produces
//! bit-identical rows at any `--jobs` thread count, and repeated runs at
//! the same seed are bit-identical too. Serialized JSON is the equality
//! witness — it is exactly what the binaries write under `results/`.
//!
//! The same witness proves crash-resume equivalence: a sweep aggregated
//! from cached cells (any mix of hits and recomputes, at any thread
//! count) serializes byte-identically to an uninterrupted run.

use slingshot_experiments::{fig11::Fig11, fig5::Fig5, resilience::Resilience};
use slingshot_experiments::{runner, Figure, Scale, SweepCache};

fn fig5_json(jobs: usize) -> String {
    let rows = runner::with_jobs(jobs, || Fig5::run(Scale::Tiny, None)).output;
    serde_json::to_string(&rows).expect("serialize rows")
}

fn resilience_json(jobs: usize) -> String {
    let rows = runner::with_jobs(jobs, || Resilience::run(Scale::Tiny, None)).output;
    serde_json::to_string(&rows).expect("serialize rows")
}

#[test]
fn figure_rows_identical_at_any_thread_count() {
    let serial = fig5_json(1);
    let parallel = fig5_json(4);
    assert_eq!(
        serial, parallel,
        "rows differ between --jobs 1 and --jobs 4"
    );
}

#[test]
fn same_seed_repeats_are_bit_identical() {
    assert_eq!(fig5_json(4), fig5_json(4));
}

#[test]
fn resilience_rows_identical_at_any_thread_count() {
    let serial = resilience_json(1);
    let parallel = resilience_json(4);
    assert_eq!(
        serial, parallel,
        "fault-injection rows differ between --jobs 1 and --jobs 4"
    );
}

#[test]
fn resumed_sweep_is_byte_identical_to_uninterrupted() {
    let dir = std::env::temp_dir().join(format!(
        "slingshot-resume-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let uninterrupted = runner::with_jobs(1, || Fig11::run(Scale::Tiny, None));
    assert!(!uninterrupted.failed());
    let want = serde_json::to_string(&uninterrupted.output).expect("serialize rows");

    // Cold cache, parallel: every cell computed and stored.
    let cold = SweepCache::at(dir.clone());
    let first = runner::with_jobs(4, || Fig11::run(Scale::Tiny, Some(&cold)));
    assert_eq!(
        serde_json::to_string(&first.output).expect("serialize rows"),
        want,
        "cold cached run differs from uninterrupted run"
    );
    assert_eq!(cold.hits(), 0);
    assert!(cold.stored() > 0, "cold run stored no cells");

    // Warm cache, serial: every cell served from disk, same bytes.
    let warm = SweepCache::at(dir.clone());
    let second = runner::with_jobs(1, || Fig11::run(Scale::Tiny, Some(&warm)));
    assert_eq!(
        serde_json::to_string(&second.output).expect("serialize rows"),
        want,
        "resumed run differs from uninterrupted run"
    );
    assert_eq!(warm.hits(), cold.stored(), "warm run recomputed cells");
    assert_eq!(warm.stored(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
