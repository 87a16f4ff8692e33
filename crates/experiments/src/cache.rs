//! Content-addressed per-run result cache: crash-resumable sweeps.
//!
//! A killed multi-minute figure run used to restart from zero. Under
//! `--resume` each finished run's value is written to
//! `results/.cache/cells/<hash>.json` the moment it completes —
//! atomically (temp file + rename), so a SIGKILL can never leave a
//! half-written entry — and the next run loads cached values instead of
//! recomputing them. One directory serves Figs. 9–12 and the ablation: a
//! run is keyed by its *identity*, which the congestion sweep derives
//! from what the run simulates ([`crate::congestion::run_identity`]),
//! never from which figure asked for it. So a cell `fig9 --resume` stored is a hit for
//! `fig10 --resume`. The file name hashes the identity together with a
//! schema version bumped whenever cached semantics change, and each
//! entry carries its identity so a hash collision reads as a miss.
//!
//! Values round-trip through the JSON the run would have produced anyway
//! (Rust's shortest-roundtrip float rendering), so a resumed aggregation
//! is byte-identical to an uninterrupted one at any `--jobs` width.

use serde::{Serialize, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump when the meaning of cached values changes (units, aggregation,
/// simulator semantics, identity format): old entries silently become
/// misses.
const CACHE_SCHEMA: u32 = 3;

/// 128-bit content hash of a run identity (and the cache schema) as 32
/// hex characters: two FNV-1a passes with different offset bases.
pub fn hash_hex(identity: &str) -> String {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut b: u64 = 0x6c62_272e_07bb_0142; // second stream, distinct basis
    let schema = CACHE_SCHEMA.to_le_bytes();
    for &byte in schema.iter().chain(identity.as_bytes()) {
        a = (a ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
        // Decorrelate the streams so they are not a fixed function of
        // each other.
        b = (b ^ byte as u64)
            .wrapping_mul(0x1000_0000_01b3)
            .rotate_left(17);
    }
    format!("{a:016x}{b:016x}")
}

/// The on-disk run cache shared by the congestion figures, plus
/// hit/computed counters for the skip log.
pub struct SweepCache {
    dir: PathBuf,
    hits: AtomicU64,
    stored: AtomicU64,
}

impl SweepCache {
    /// The shared cache under `results/.cache/cells` (respects
    /// `SLINGSHOT_RESULTS_DIR` like every other artifact).
    pub fn shared() -> SweepCache {
        SweepCache::at(crate::report::results_dir().join(".cache").join("cells"))
    }

    /// Cache at an explicit directory (tests).
    pub fn at(dir: PathBuf) -> SweepCache {
        SweepCache {
            dir,
            hits: AtomicU64::new(0),
            stored: AtomicU64::new(0),
        }
    }

    fn path_of(&self, identity: &str) -> PathBuf {
        self.dir.join(format!("{}.json", hash_hex(identity)))
    }

    /// Load a completed run. Anything short of a well-formed entry for
    /// this identity — missing file, parse error, wrong shape, another
    /// identity — is a miss: the run is simply recomputed.
    pub fn load(&self, identity: &str) -> Option<f64> {
        let text = std::fs::read_to_string(self.path_of(identity)).ok()?;
        let Ok(Value::Object(entries)) = serde_json::from_str(&text) else {
            return None;
        };
        let field = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if !matches!(field("key"), Some(Value::Str(k)) if k == identity) {
            return None;
        }
        let value = match field("value")? {
            Value::Float(x) => *x,
            Value::UInt(u) => *u as f64,
            Value::Int(i) => *i as f64,
            _ => return None,
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Persist a completed run atomically: write a temp file in the same
    /// directory, then rename over the final path. A kill at any point
    /// leaves either no entry or a complete one. Best-effort — a cache
    /// write failure costs recomputation later, never the sweep.
    pub fn store(&self, identity: &str, value: f64) {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("warning: cannot create {}: {e}", self.dir.display());
            return;
        }
        let entry = Value::Object(vec![
            ("key".to_string(), Value::Str(identity.to_string())),
            ("value".to_string(), value.serialize()),
        ]);
        let text = match serde_json::to_string_pretty(&entry) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("warning: serialize cache entry: {e}");
                return;
            }
        };
        let final_path = self.path_of(identity);
        let tmp = final_path.with_extension(format!("tmp{}", std::process::id()));
        if let Err(e) = std::fs::write(&tmp, text) {
            eprintln!("warning: cannot write {}: {e}", tmp.display());
            return;
        }
        if let Err(e) = std::fs::rename(&tmp, &final_path) {
            eprintln!("warning: cannot commit {}: {e}", final_path.display());
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        self.stored.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Runs computed and written so far.
    pub fn stored(&self) -> u64 {
        self.stored.load(Ordering::Relaxed)
    }

    /// Log the skip count after a resumed sweep (stderr, like all
    /// progress output).
    pub fn log_resume_summary(&self, fig: &str) {
        eprintln!(
            "resume: skipped {} cached cells, computed {} ({fig}, cache at {})",
            self.hits(),
            self.stored(),
            self.dir.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("slingshot-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_f64_exactly() {
        let dir = tmpdir("roundtrip");
        let cache = SweepCache::at(dir.clone());
        for (i, &v) in [1.5e-6, 0.3333333333333333, 42.0, 7e300, -0.0]
            .iter()
            .enumerate()
        {
            let id = format!("run {i}");
            assert!(cache.load(&id).is_none(), "cold cache");
            cache.store(&id, v);
            let got = cache.load(&id).expect("stored entry loads");
            assert_eq!(got.to_bits(), v.to_bits(), "bit-exact round trip of {v}");
        }
        assert_eq!(cache.stored(), 5);
        assert_eq!(cache.hits(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_foreign_entries_are_misses() {
        let dir = tmpdir("corrupt");
        let cache = SweepCache::at(dir.clone());
        cache.store("x", 1.0);
        let path = dir.join(format!("{}.json", hash_hex("x")));
        std::fs::write(&path, "{ truncated").unwrap();
        assert!(cache.load("x").is_none(), "corrupt file = miss");
        std::fs::write(&path, "[1, 2]").unwrap();
        assert!(cache.load("x").is_none(), "wrong shape = miss");
        std::fs::write(&path, r#"{"key": "y", "value": 1.0}"#).unwrap();
        assert!(cache.load("x").is_none(), "another identity = miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
