//! Minimal, dependency-free stand-in for the subset of the `rand` crate API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace vendors a
//! tiny deterministic implementation instead: [`rngs::StdRng`] is a
//! xoshiro256\*\* generator seeded through SplitMix64, which is more than enough
//! statistical quality for the protocol simulations while staying reproducible
//! across platforms and releases (the real `rand` explicitly does *not*
//! guarantee value stability of `StdRng` across versions; this shim does, which
//! the deterministic-replay tests rely on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The core of a random number generator: raw word output.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Returns a uniformly distributed `u64` below `bound` (rejection sampling).
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    loop {
        let v = rng.next_u64();
        // The exact rejection threshold `(u64::MAX / bound) * bound` exceeds
        // `u64::MAX - bound` (it is `u64::MAX` minus a remainder below
        // `bound`), so a word at or below that accepts without the division;
        // only the rare word above it needs the threshold itself.
        if v <= u64::MAX - bound || v < (u64::MAX / bound) * bound {
            return v % bound;
        }
    }
}

/// Types that can be sampled uniformly from their "natural" distribution
/// (the shim's equivalent of `rand::distributions::Standard`).
pub trait SampleStandard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) & 1 == 1
    }
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniformly distributed mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_sample_standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_sample_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range types that can produce a uniform sample (the shim's equivalent of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full integer range: every word is valid.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let unit = f64::sample_standard(rng);
        self.start + unit * (self.end - self.start)
    }
}

/// Convenience sampling methods layered on any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// SplitMix64 step; used for seeding and seed derivation.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Creates a generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Concrete generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256\*\*).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            if s.iter().all(|&w| w == 0) {
                // xoshiro must not start from the all-zero state.
                s = [
                    0x9e37_79b9_7f4a_7c15,
                    0xbf58_476d_1ce4_e5b9,
                    0x94d0_49bb_1331_11eb,
                    0x2545_f491_4f6c_dd1d,
                ];
            }
            Self { s }
        }
    }
}

/// Random helpers for slices.
pub mod seq {
    use super::{uniform_u64_below, RngCore};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if the slice is empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_u64_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[uniform_u64_below(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn std_rng_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_samples_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4u8) as usize] = true;
            let v = rng.gen_range(1..=2usize);
            assert!((1..=2).contains(&v));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_samples_are_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let heads = (0..4000).filter(|_| rng.gen::<bool>()).count();
        assert!((1700..2300).contains(&heads), "got {heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements almost surely move");
    }

    #[test]
    fn dyn_rng_core_supports_gen() {
        let mut rng = StdRng::seed_from_u64(5);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let _: f64 = dyn_rng.gen();
        let _: bool = dyn_rng.gen();
    }

    /// The sampler as it was: the exact threshold computed on every draw.
    fn uniform_u64_below_reference<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        if bound.is_power_of_two() {
            return rng.next_u64() & (bound - 1);
        }
        let max_valid = (u64::MAX / bound) * bound;
        loop {
            let v = rng.next_u64();
            if v < max_valid {
                return v % bound;
            }
        }
    }

    /// Replays `words`, then counts up from 0.
    struct Scripted(Vec<u64>, u64);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.pop().unwrap_or_else(|| {
                self.1 += 1;
                self.1
            })
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("the sampler reads whole words")
        }
    }

    #[test]
    fn uniform_u64_below_matches_the_threshold_per_draw_body() {
        for bound in [3, 137, 1000, (1 << 63) - 1, (1 << 63) + 1, u64::MAX] {
            let threshold = (u64::MAX / bound) * bound;
            let early = u64::MAX - bound;
            let words = [
                0,
                1,
                bound - 1,
                bound,
                early.saturating_sub(1),
                early,
                early + 1,
                threshold - 1,
                threshold,
                threshold.saturating_add(1),
                u64::MAX,
            ];
            for word in words {
                // The word first, then one the reference accepts unless
                // it is the word itself: each run's result and the next
                // word show how many words were read.
                let script = |first: u64| Scripted(vec![first, first, word], 0);
                for first in [0, threshold - 1, u64::MAX] {
                    let (mut fast, mut reference) = (script(first), script(first));
                    assert_eq!(
                        super::uniform_u64_below(&mut fast, bound),
                        uniform_u64_below_reference(&mut reference, bound),
                        "bound {bound}, word {word}"
                    );
                    assert_eq!(fast.next_u64(), reference.next_u64());
                }
            }
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(6);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*items.choose(&mut rng).unwrap() - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
