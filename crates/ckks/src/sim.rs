//! The simulation backend: exact slot-vector semantics plus a calibrated
//! noise model, usable at the paper's full parameters.
//!
//! Every ciphertext carries its decrypted slot vector, its level, and its
//! scale degree; ops compute the exact arithmetic result and then inject a
//! small deterministic pseudo-random relative error whose magnitude is
//! calibrated per op class so end-to-end RMSE lands in the bands of the
//! paper's Table 4 (≈1e-6…1e-4 for polynomial workloads, ≈1e-3 once
//! sign-approximation-heavy workloads stack dozens of bootstraps).
//!
//! Level and scale constraints are enforced exactly as in a real library,
//! so a miscompiled program fails loudly here even though the arithmetic is
//! simulated.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::{expand_to_slots, Backend, BackendError, Result};
use crate::params::CkksParams;
use crate::snapshot::{put_f64, put_u32, put_u64, SnapError, SnapReader, SnapshotBackend};

/// Per-op-class relative noise magnitudes.
///
/// CKKS noise is additive at the scale's precision; relative to a unit-ish
/// message the dominant contributions are rescaling rounding (~2^-51 per
/// level at the paper's `Rf`), key-switching noise on mult/rotate, and the
/// polynomial-approximation error of bootstrapping (by far the largest —
/// HEaaN-class bootstrapping delivers roughly 20–30 bits of precision).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseProfile {
    /// Fresh-encryption noise.
    pub encrypt: f64,
    /// Per-addition noise.
    pub add: f64,
    /// Per-multiplication (relinearization + rounding) noise.
    pub mult: f64,
    /// Rescale rounding noise.
    pub rescale: f64,
    /// Rotation key-switch noise.
    pub rotate: f64,
    /// Modswitch rounding noise.
    pub modswitch: f64,
    /// Bootstrapping approximation error.
    pub bootstrap: f64,
}

impl Default for NoiseProfile {
    fn default() -> NoiseProfile {
        NoiseProfile {
            encrypt: 1e-8,
            add: 1e-10,
            mult: 3e-8,
            rescale: 2e-8,
            rotate: 1e-8,
            modswitch: 1e-10,
            bootstrap: 1e-5,
        }
    }
}

impl NoiseProfile {
    /// A noiseless profile (exact reference semantics).
    #[must_use]
    pub fn exact() -> NoiseProfile {
        NoiseProfile {
            encrypt: 0.0,
            add: 0.0,
            mult: 0.0,
            rescale: 0.0,
            rotate: 0.0,
            modswitch: 0.0,
            bootstrap: 0.0,
        }
    }
}

/// A simulated ciphertext: plaintext slots plus type metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCt {
    values: Vec<f64>,
    level: u32,
    degree: u32,
}

impl SimCt {
    /// The carried slot values (test/debug accessor).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The simulation backend. See the [module docs](self).
///
/// Ops take `&self`; the noise RNG is the only mutable state and sits
/// behind a mutex, so the backend is freely shareable across threads.
/// The noise RNG plus its replay coordinates. The sim backend's draws are
/// homogeneous — every perturbed slot consumes exactly one
/// `gen_range(-1.0..1.0)` — so (seed, draw count) pins the stream position
/// exactly: reseeding and burning `draws` values restores it. That is what
/// [`SnapshotBackend::rng_save`] persists for durable resume.
#[derive(Debug)]
struct CountedRng {
    rng: StdRng,
    draws: u64,
}

#[derive(Debug)]
pub struct SimBackend {
    params: CkksParams,
    noise: NoiseProfile,
    seed: u64,
    rng: Mutex<CountedRng>,
}

impl SimBackend {
    /// Creates a backend with the default calibrated noise profile and a
    /// fixed seed (runs are deterministic).
    #[must_use]
    pub fn new(params: CkksParams) -> SimBackend {
        SimBackend::with_noise(params, NoiseProfile::default(), 0x4841_4c4f)
    }

    /// Creates an exact (noise-free) backend, used as the plaintext
    /// reference when measuring RMSE.
    #[must_use]
    pub fn exact(params: CkksParams) -> SimBackend {
        SimBackend::with_noise(params, NoiseProfile::exact(), 0)
    }

    /// Full-control constructor.
    #[must_use]
    pub fn with_noise(params: CkksParams, noise: NoiseProfile, seed: u64) -> SimBackend {
        SimBackend {
            params,
            noise,
            seed,
            rng: Mutex::new(CountedRng {
                rng: StdRng::seed_from_u64(seed),
                draws: 0,
            }),
        }
    }

    fn perturb(&self, values: &mut [f64], sigma: f64) {
        if sigma == 0.0 {
            return;
        }
        let mut g = self.rng.lock().expect("rng lock");
        g.draws += values.len() as u64;
        for v in values {
            // Symmetric uniform relative error with a small absolute floor,
            // mimicking fixed-point noise at the scale's precision.
            let eps: f64 = g.rng.gen_range(-1.0..1.0) * sigma;
            *v += eps * (v.abs() + 1e-2);
        }
    }

    fn check_levels(&self, a: &SimCt, b: &SimCt) -> Result<()> {
        if a.level != b.level {
            return Err(BackendError::LevelMismatch {
                expected: a.level,
                got: b.level,
            });
        }
        Ok(())
    }
}

impl Backend for SimBackend {
    type Ct = SimCt;

    fn params(&self) -> &CkksParams {
        &self.params
    }

    fn encrypt(&self, values: &[f64], level: u32) -> Result<SimCt> {
        let mut v = expand_to_slots(values, self.params.slots())?.into_owned();
        if level > self.params.max_level {
            return Err(BackendError::Unsupported(format!(
                "encrypt at level {level} exceeds max {}",
                self.params.max_level
            )));
        }
        let sigma = self.noise.encrypt;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level,
            degree: 1,
        })
    }

    fn decrypt(&self, ct: &SimCt) -> Result<Vec<f64>> {
        Ok(ct.values.clone())
    }

    fn level(&self, ct: &SimCt) -> u32 {
        ct.level
    }

    fn degree(&self, ct: &SimCt) -> u32 {
        ct.degree
    }

    fn add(&self, a: &SimCt, b: &SimCt) -> Result<SimCt> {
        self.check_levels(a, b)?;
        if a.degree != b.degree {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: a.degree,
                got: b.degree,
            });
        }
        let mut v: Vec<f64> = a.values.iter().zip(&b.values).map(|(x, y)| x + y).collect();
        let sigma = self.noise.add;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: a.degree,
        })
    }

    fn sub(&self, a: &SimCt, b: &SimCt) -> Result<SimCt> {
        self.check_levels(a, b)?;
        if a.degree != b.degree {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: a.degree,
                got: b.degree,
            });
        }
        let mut v: Vec<f64> = a.values.iter().zip(&b.values).map(|(x, y)| x - y).collect();
        let sigma = self.noise.add;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: a.degree,
        })
    }

    fn add_plain(&self, a: &SimCt, p: &[f64]) -> Result<SimCt> {
        let pv = expand_to_slots(p, self.params.slots())?;
        let mut v: Vec<f64> = a.values.iter().zip(pv.iter()).map(|(x, y)| x + y).collect();
        let sigma = self.noise.add;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: a.degree,
        })
    }

    fn sub_plain(&self, a: &SimCt, p: &[f64]) -> Result<SimCt> {
        let pv = expand_to_slots(p, self.params.slots())?;
        let mut v: Vec<f64> = a.values.iter().zip(pv.iter()).map(|(x, y)| x - y).collect();
        let sigma = self.noise.add;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: a.degree,
        })
    }

    fn mult(&self, a: &SimCt, b: &SimCt) -> Result<SimCt> {
        self.check_levels(a, b)?;
        if a.degree != 1 || b.degree != 1 {
            let got = if a.degree == 1 { b.degree } else { a.degree };
            return Err(BackendError::ScaleDegreeMismatch { expected: 1, got });
        }
        if a.level < 1 {
            return Err(BackendError::LevelExhausted {
                op: "multcc",
                level: a.level,
                needed: 1,
            });
        }
        let mut v: Vec<f64> = a.values.iter().zip(&b.values).map(|(x, y)| x * y).collect();
        let sigma = self.noise.mult;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: 2,
        })
    }

    fn mult_plain(&self, a: &SimCt, p: &[f64]) -> Result<SimCt> {
        if a.degree != 1 {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: 1,
                got: a.degree,
            });
        }
        if a.level < 1 {
            return Err(BackendError::LevelExhausted {
                op: "multcp",
                level: a.level,
                needed: 1,
            });
        }
        let pv = expand_to_slots(p, self.params.slots())?;
        let mut v: Vec<f64> = a.values.iter().zip(pv.iter()).map(|(x, y)| x * y).collect();
        let sigma = self.noise.mult * 0.5;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: 2,
        })
    }

    fn negate(&self, a: &SimCt) -> Result<SimCt> {
        Ok(SimCt {
            values: a.values.iter().map(|x| -x).collect(),
            ..a.clone()
        })
    }

    fn rotate(&self, a: &SimCt, offset: i64) -> Result<SimCt> {
        let n = a.values.len() as i64;
        let shift = offset.rem_euclid(n) as usize;
        if shift == 0 {
            // Identity rotation: no key switch happens, so no rotation
            // noise is added either.
            return Ok(a.clone());
        }
        let mut v: Vec<f64> = (0..a.values.len())
            .map(|i| a.values[(i + shift) % a.values.len()])
            .collect();
        let sigma = self.noise.rotate;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level,
            degree: a.degree,
        })
    }

    fn rescale(&self, a: &SimCt) -> Result<SimCt> {
        if a.degree != 2 {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: 2,
                got: a.degree,
            });
        }
        if a.level < 1 {
            return Err(BackendError::LevelExhausted {
                op: "rescale",
                level: a.level,
                needed: 1,
            });
        }
        let mut v = a.values.clone();
        let sigma = self.noise.rescale;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level - 1,
            degree: 1,
        })
    }

    fn modswitch(&self, a: &SimCt, down: u32) -> Result<SimCt> {
        if down == 0 {
            return Err(BackendError::Unsupported("modswitch by zero levels".into()));
        }
        if down > a.level {
            return Err(BackendError::LevelExhausted {
                op: "modswitch",
                level: a.level,
                needed: down,
            });
        }
        let mut v = a.values.clone();
        let sigma = self.noise.modswitch;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: a.level - down,
            degree: a.degree,
        })
    }

    fn bootstrap(&self, a: &SimCt, target: u32) -> Result<SimCt> {
        if a.degree != 1 {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: 1,
                got: a.degree,
            });
        }
        if target == 0 || target > self.params.max_level {
            return Err(BackendError::Unsupported(format!(
                "bootstrap target {target} outside 1..={}",
                self.params.max_level
            )));
        }
        let mut v = a.values.clone();
        let sigma = self.noise.bootstrap;
        self.perturb(&mut v, sigma);
        Ok(SimCt {
            values: v,
            level: target,
            degree: 1,
        })
    }
}

/// Durable-execution support (`halo-snap/1`, see `halo-runtime` and
/// DESIGN.md §12). Wire format `halo-ct-sim/1`: slot count, slot values as
/// raw IEEE-754 bits, level, degree. RNG replay state: construction seed
/// plus the homogeneous draw counter.
impl SnapshotBackend for SimBackend {
    fn ct_format(&self) -> &'static str {
        "halo-ct-sim/1"
    }

    fn ct_save(&self, ct: &SimCt, out: &mut Vec<u8>) {
        put_u32(out, u32::try_from(ct.values.len()).expect("slots fit u32"));
        for &v in &ct.values {
            put_f64(out, v);
        }
        put_u32(out, ct.level);
        put_u32(out, ct.degree);
    }

    fn ct_load(&self, r: &mut SnapReader<'_>) -> std::result::Result<SimCt, SnapError> {
        let n = r.read_len()?;
        if n > self.params.slots() {
            return Err(SnapError::Malformed(format!(
                "ciphertext carries {n} slots but params allow {}",
                self.params.slots()
            )));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(r.f64()?);
        }
        let level = r.u32()?;
        let degree = r.u32()?;
        if level > self.params.max_level {
            return Err(SnapError::Malformed(format!(
                "level {level} exceeds max {}",
                self.params.max_level
            )));
        }
        if !(1..=2).contains(&degree) {
            return Err(SnapError::Malformed(format!(
                "scale degree {degree} not in 1..=2"
            )));
        }
        Ok(SimCt {
            values,
            level,
            degree,
        })
    }

    fn rng_save(&self, out: &mut Vec<u8>) {
        let g = self.rng.lock().expect("rng lock");
        put_u64(out, self.seed);
        put_u64(out, g.draws);
    }

    fn rng_load(&self, r: &mut SnapReader<'_>) -> std::result::Result<(), SnapError> {
        let seed = r.u64()?;
        let draws = r.u64()?;
        if seed != self.seed {
            return Err(SnapError::Malformed(format!(
                "snapshot RNG seed {seed:#x} does not match backend seed {:#x}",
                self.seed
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..draws {
            let _: f64 = rng.gen_range(-1.0..1.0);
        }
        *self.rng.lock().expect("rng lock") = CountedRng { rng, draws };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> SimBackend {
        SimBackend::exact(CkksParams::test_small())
    }

    #[test]
    fn encrypt_decrypt_roundtrip_exact() {
        let b = backend();
        let ct = b.encrypt(&[1.0, 2.0, 3.0], 16).unwrap();
        let out = b.decrypt(&ct).unwrap();
        assert_eq!(out.len(), 32);
        assert_eq!(&out[..3], &[1.0, 2.0, 3.0]);
        // Short inputs replicate cyclically (paper §6.1).
        assert_eq!(out[3], 1.0);
    }

    #[test]
    fn plaintexts_longer_than_the_slots_are_rejected() {
        let b = backend();
        let ct = b.encrypt(&[1.0], 5).unwrap();
        let long = vec![1.0; 33];
        let overflow = BackendError::SlotOverflow { len: 33, slots: 32 };
        assert_eq!(b.encrypt(&long, 5).unwrap_err(), overflow);
        assert_eq!(b.add_plain(&ct, &long).unwrap_err(), overflow);
        assert_eq!(b.sub_plain(&ct, &long).unwrap_err(), overflow);
        assert_eq!(b.mult_plain(&ct, &long).unwrap_err(), overflow);
    }

    #[test]
    fn homomorphic_arithmetic_semantics() {
        let b = backend();
        let x = b.encrypt(&[2.0], 5).unwrap();
        let y = b.encrypt(&[3.0], 5).unwrap();
        let s = b.add(&x, &y).unwrap();
        assert_eq!(b.decrypt(&s).unwrap()[0], 5.0);
        let m = b.mult(&x, &y).unwrap();
        assert_eq!(b.degree(&m), 2);
        let r = b.rescale(&m).unwrap();
        assert_eq!(b.level(&r), 4);
        assert_eq!(b.decrypt(&r).unwrap()[0], 6.0);
        let d = b.sub(&x, &y).unwrap();
        assert_eq!(b.decrypt(&d).unwrap()[0], -1.0);
        let n = b.negate(&x).unwrap();
        assert_eq!(b.decrypt(&n).unwrap()[0], -2.0);
    }

    #[test]
    fn plain_operand_ops() {
        let b = backend();
        let x = b.encrypt(&[2.0], 5).unwrap();
        let ap = b.add_plain(&x, &[10.0]).unwrap();
        assert_eq!(b.decrypt(&ap).unwrap()[0], 12.0);
        let mp = b.mult_plain(&x, &[4.0]).unwrap();
        assert_eq!(b.degree(&mp), 2);
        assert_eq!(b.decrypt(&mp).unwrap()[0], 8.0);
        let sp = b.sub_plain(&x, &[1.5]).unwrap();
        assert_eq!(b.decrypt(&sp).unwrap()[0], 0.5);
    }

    #[test]
    fn rotation_is_cyclic_left() {
        let b = backend();
        let vals: Vec<f64> = (0..32).map(f64::from).collect();
        let x = b.encrypt(&vals, 5).unwrap();
        let r = b.rotate(&x, 2).unwrap();
        let out = b.decrypt(&r).unwrap();
        assert_eq!(out[0], 2.0);
        assert_eq!(out[31], 1.0);
        let rneg = b.rotate(&x, -1).unwrap();
        assert_eq!(b.decrypt(&rneg).unwrap()[0], 31.0);
    }

    #[test]
    fn level_constraints_enforced() {
        let b = backend();
        let x = b.encrypt(&[1.0], 5).unwrap();
        let y = b.encrypt(&[1.0], 4).unwrap();
        assert!(b.add(&x, &y).is_err());
        assert!(b.mult(&x, &y).is_err());
        let low = b.encrypt(&[1.0], 0).unwrap();
        assert!(b.mult(&low, &low).is_err(), "mult at level 0 must fail");
        let m = b.mult(&x, &x).unwrap();
        assert!(b.mult(&m, &x).is_err(), "degree-2 operand must fail");
        assert!(b.rescale(&x).is_err(), "rescale needs degree 2");
        assert!(b.modswitch(&x, 6).is_err(), "modswitch below level 0");
        assert!(b.bootstrap(&x, 17).is_err(), "bootstrap above max level");
    }

    #[test]
    fn bootstrap_restores_level() {
        let b = backend();
        let x = b.encrypt(&[0.5], 1).unwrap();
        let r = b.bootstrap(&x, 16).unwrap();
        assert_eq!(b.level(&r), 16);
        assert_eq!(b.decrypt(&r).unwrap()[0], 0.5);
    }

    #[test]
    fn noise_injection_is_deterministic_and_small() {
        let params = CkksParams::test_small();
        let run = || {
            let b = SimBackend::new(params.clone());
            let x = b.encrypt(&[1.0], 5).unwrap();
            let m = b.mult(&x, &x).unwrap();
            let r = b.rescale(&m).unwrap();
            let bs = b.bootstrap(&r, 16).unwrap();
            b.decrypt(&bs).unwrap()[0]
        };
        let a = run();
        let b2 = run();
        assert_eq!(a, b2, "seeded noise must be deterministic");
        assert!((a - 1.0).abs() < 1e-3, "noise should be small: {a}");
        assert!((a - 1.0).abs() > 0.0, "noise should be nonzero");
    }

    #[test]
    fn rng_replay_restores_stream_position() {
        let params = CkksParams::test_small();
        let b1 = SimBackend::new(params.clone());
        let x = b1.encrypt(&[1.0], 5).unwrap();
        let _ = b1.mult(&x, &x).unwrap(); // advance the stream
        let mut blob = Vec::new();
        b1.rng_save(&mut blob);
        let after_save = b1.decrypt(&b1.mult(&x, &x).unwrap()).unwrap();

        // A fresh same-seed backend restored from the blob draws the same
        // continuation the original did.
        let b2 = SimBackend::new(params.clone());
        b2.rng_load(&mut SnapReader::new(&blob)).unwrap();
        let replayed = b2.decrypt(&b2.mult(&x, &x).unwrap()).unwrap();
        assert_eq!(after_save, replayed);

        // Seed mismatch is rejected.
        let other = SimBackend::with_noise(params, NoiseProfile::default(), 99);
        assert!(other.rng_load(&mut SnapReader::new(&blob)).is_err());
    }

    #[test]
    fn ct_save_load_roundtrip_bit_exact() {
        let b = backend();
        let ct = b.encrypt(&[1.5, -2.25, 0.0], 7).unwrap();
        let m = b.mult(&ct, &ct).unwrap(); // degree-2 case
        for c in [&ct, &m] {
            let mut out = Vec::new();
            b.ct_save(c, &mut out);
            let back = b.ct_load(&mut SnapReader::new(&out)).unwrap();
            assert_eq!(&back, c);
        }
    }
}
