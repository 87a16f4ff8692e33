//! Deterministic random-number plumbing.
//!
//! Every stochastic element of the simulation (arrival jitter, adaptive
//! routing candidate sampling, allocation shuffles, service-time draws) pulls
//! from a [`DetRng`] derived from a single experiment seed, so a run is a
//! pure function of `(configuration, seed)`.
//!
//! Independent subsystems get *forked* substreams rather than sharing one
//! generator; this keeps their draws independent of each other's call
//! ordering, which matters when comparing two configurations that make
//! different numbers of draws.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finalizer: a fast, statistically strong 64-bit bit mixer.
///
/// For deterministic decisions that must **not** consume generator state:
/// hashing an identifier together with the experiment seed yields a
/// reproducible pseudo-random bit pattern without perturbing any
/// [`DetRng`] stream (the telemetry packet sampler relies on this — a
/// trace-enabled run makes exactly the same draws as a disabled one).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic, forkable random-number generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: ChaCha8Rng,
}

impl DetRng {
    /// Root generator for an experiment.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent substream identified by `stream`.
    ///
    /// Forking with the same `stream` from generators in the same state
    /// yields identical substreams; distinct `stream` values yield
    /// statistically independent ones (distinct ChaCha stream ids).
    pub fn fork(&self, stream: u64) -> Self {
        // The child keeps the parent's key and block counter but reads
        // keystream `stream + 1` (the root reads stream 0), then discards
        // one word. The discard is the same for every stream; every seeded
        // result depends on it, so it stays.
        let mut inner = self.inner.clone();
        inner.set_stream(stream.wrapping_add(1));
        let _ = inner.next_u64();
        DetRng { inner }
    }

    /// Uniform draw in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Pick one element uniformly (panics on empty slices).
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose() on empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Exponentially distributed draw with the given mean (for Poisson
    /// arrival gaps and service-time models).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// Normal draw via Box–Muller (mean, standard deviation).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterized by the *target* median and sigma of the
    /// underlying normal. Used for heavy-tailed service times (Tailbench).
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        let z = self.normal(0.0, sigma);
        median * z.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_a_stable_bijection_fragment() {
        // Pinned outputs: telemetry sampling decisions depend on these bits
        // staying stable across refactors.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
        // Distinct small inputs scatter: no collisions in a modest range.
        let mut seen: Vec<u64> = (0..4096).map(mix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        for _ in 0..64 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let root = DetRng::seed_from(7);
        let mut f1a = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        let x1a: Vec<f64> = (0..16).map(|_| f1a.unit()).collect();
        let x1b: Vec<f64> = (0..16).map(|_| f1b.unit()).collect();
        let x2: Vec<f64> = (0..16).map(|_| f2.unit()).collect();
        assert_eq!(x1a, x1b);
        assert_ne!(x1a, x2);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = DetRng::seed_from(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = DetRng::seed_from(4);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And not (almost surely) the identity.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::seed_from(6);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() / mean < 0.05, "observed {observed}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = DetRng::seed_from(8);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn log_normal_median_is_close() {
        let mut r = DetRng::seed_from(9);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.log_normal(3.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 3.0).abs() / 3.0 < 0.1, "median {median}");
    }
}
