//! Dependency-free deterministic pseudo-random numbers.
//!
//! The repository must build and test with no network access, so nothing
//! here may come from crates.io. This crate provides the one PRNG the
//! workspace needs: a [`Rng`] built on xoshiro256** seeded through
//! splitmix64 — the textbook construction (Blackman & Vigna) with good
//! statistical quality, a 256-bit state and sub-nanosecond steps.
//!
//! Streams are **stable**: the sequence produced by a given seed is part
//! of this crate's contract, because synthetic benchmarks
//! (`ispd::SyntheticConfig`) derive their designs from it and experiment
//! results must be reproducible across sessions.
//!
//! # Example
//!
//! ```
//! use prng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let a = rng.range_u32(0, 10); // inclusive bounds
//! assert!(a <= 10);
//! let p = rng.f64();
//! assert!((0.0..1.0).contains(&p));
//! // Same seed, same stream.
//! assert_eq!(Rng::seed_from_u64(7).u64(), Rng::seed_from_u64(7).u64());
//! ```

// Lint policy: DESIGN.md §8. An exception is `#[expect(clippy::…, reason = "…")]` at its site.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::exit
)]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]

/// Expands a 64-bit seed into well-mixed state words (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro's all-zero state is absorbing; splitmix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of [`Rng::u64`]).
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform integer in `[lo, hi]`, both bounds inclusive.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the result is
    /// exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.u64();
        }
        let s = span + 1;
        // Rejection sampling on the top bits: unbiased for any span.
        let zone = u64::MAX - (u64::MAX - s + 1) % s;
        loop {
            let v = self.u64();
            if v <= zone {
                return lo + v % s;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` as `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform integer in `[lo, hi]` as `u16`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        self.range_u64(lo as u64, hi as u64) as u16
    }

    /// Uniform integer in `[lo, hi]` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or a bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.f64() * (hi - lo)
    }

    /// Derives an independent generator for a labelled sub-stream.
    ///
    /// Consumes one word of this generator's stream and mixes it with
    /// `label` through splitmix64, so forks are deterministic (same
    /// parent state + same label → same child stream) yet statistically
    /// decoupled from the parent and from forks with other labels.
    /// Fuzzers use this to give every trial its own stream without the
    /// trials' draw counts interfering with one another.
    pub fn fork(&mut self, label: u64) -> Rng {
        let mut sm = self
            .u64()
            .wrapping_add(label.wrapping_mul(0xA24BAED4963EE407));
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng { s }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_stable() {
        // The stream is a contract: synthetic benchmarks depend on it.
        let mut r = Rng::seed_from_u64(0);
        assert_eq!(r.u64(), 11091344671253066420);
        assert_eq!(r.u64(), 13793997310169335082);
        assert_eq!(r.u64(), 1900383378846508768);
    }

    #[test]
    fn range_is_inclusive_and_in_bounds() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range_u64(3, 7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
        }
        assert!(seen_lo && seen_hi);
        // Degenerate range.
        assert_eq!(r.range_u64(5, 5), 5);
        // Full range must not loop forever.
        let _ = r.range_u64(0, u64::MAX);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| r.bool(0.3)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "{frac}");
        assert!(!(0..100).any(|_| r.bool(0.0)));
        assert!((0..100).all(|_| r.bool(1.0)));
    }

    #[test]
    fn uniformity_over_small_range() {
        let mut r = Rng::seed_from_u64(17);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.range_usize(0, 4)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "{counts:?}");
        }
    }

    #[test]
    fn forks_are_deterministic_and_decoupled() {
        let mut a = Rng::seed_from_u64(5);
        let mut b = Rng::seed_from_u64(5);
        let mut fa = a.fork(7);
        let mut fb = b.fork(7);
        for _ in 0..32 {
            assert_eq!(fa.u64(), fb.u64());
        }
        // Different labels from identical parents diverge.
        let mut c = Rng::seed_from_u64(5);
        let mut fc = c.fork(8);
        let same = (0..64).filter(|_| fa.u64() == fc.u64()).count();
        assert_eq!(same, 0);
        // The parent advanced by exactly one word per fork.
        let mut p = Rng::seed_from_u64(5);
        let _ = p.u64();
        assert_eq!(a.u64(), p.u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(21);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, (0..32).collect::<Vec<_>>(), "shuffle moved nothing");
    }
}
