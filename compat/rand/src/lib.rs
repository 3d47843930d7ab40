//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the small API subset it actually uses: a seedable deterministic
//! generator ([`rngs::StdRng`]) and [`Rng::gen_range`] over the numeric
//! ranges the backends draw from. The generator is xoshiro256++ seeded via
//! SplitMix64 — statistically solid for noise sampling and dataset
//! generation, deliberately *not* the upstream `StdRng` stream (no test
//! relies on upstream-exact values, only on seeded determinism).

/// Seedable generators (mirrors `rand::rngs`).
pub mod rngs {
    /// The workspace's deterministic RNG: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }

    impl StdRng {
        /// The generator's four state words: its whole stream position.
        #[must_use]
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// A generator that continues the stream [`StdRng::state`] saved.
        /// The all-zero state is xoshiro's fixed point (it draws zeros
        /// forever); seeding never produces it.
        #[must_use]
        pub fn from_state(s: [u64; 4]) -> StdRng {
            StdRng { s }
        }

        #[inline]
        pub(crate) fn next_u64(&mut self) -> u64 {
            let r = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            r
        }
    }
}

/// Construction of seeded generators (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> rngs::StdRng {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        rngs::StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

/// A range a generator can sample uniformly (mirrors
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Lemire-style scaling: (x · span) >> 64 is uniform enough
                // for the workspace's statistical tests.
                let x = u128::from(rng.next_u64());
                let v = (x * span) >> 64;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let x = u128::from(rng.next_u64());
                let v = (x * span) >> 64;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample(self, rng: &mut rngs::StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample(self, rng: &mut rngs::StdRng) -> f32 {
        assert!(self.start < self.end, "empty range");
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        self.start + unit * (self.end - self.start)
    }
}

/// Random value generation (mirrors `rand::Rng`).
pub trait Rng {
    /// Draws a uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Draws a raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniform `bool`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_range(0.0..1.0f64) < p
    }
}

impl Rng for rngs::StdRng {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    fn next_u64(&mut self) -> u64 {
        rngs::StdRng::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn saved_state_continues_the_stream() {
        let mut a = StdRng::seed_from_u64(5);
        a.next_u64();
        let mut b = StdRng::from_state(a.state());
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = r.gen_range(-1i8..=1);
            assert!((-1..=1).contains(&v));
            seen[(v + 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of -1, 0, 1 drawn");
        for _ in 0..200 {
            let f = r.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let q = 0xFFFF_FFFF_0000_0001u64;
            assert!(r.gen_range(0..q) < q);
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0..1.0f64)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }
}
