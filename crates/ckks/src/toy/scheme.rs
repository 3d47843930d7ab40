//! The toy RNS-CKKS scheme: keys, encryption, and homomorphic evaluation.
//!
//! Key switching is Han–Ki hybrid key switching. The level primes are
//! grouped into digits of `α = ⌈(L+1)/dnum⌉` consecutive primes (at most
//! `dnum` digits), and `k` special primes with product `P` extend every
//! digit (the fewest whose bit lengths cover the widest digit's). For a
//! ciphertext at level `l`, the polynomial `d` is decomposed into its
//! residues `[d]_{Q_g}` at each digit's product `Q_g` (the last digit may
//! be partial), raised to the extended basis `{q_0…q_l, p_0…p_{k−1}}`
//! (ModUp), multiplied by a key-switching key encrypting `P·Ê_g·w` (where
//! `Ê_g` is the CRT idempotent of digit `g` in `Q_l`), accumulated, and
//! divided by `P` (ModDown). The identity `Σ_g [d]_{Q_g}·Ê_g ≡ d (mod Q_l)`
//! makes the accumulated pair decrypt to `P·d·w + small`, so the ModDown
//! yields `d·w + tiny`. `dnum` is [`DNUM`]; below `DNUM` levels every
//! digit holds one prime, the per-prime decomposition (`α = 1`, `k = 1`).
//!
//! Keys are generated lazily, one chain per kind (relinearization, or one
//! Galois exponent), always at the top level `L`: `⌈(L+1)/α⌉` digits over
//! the limbs `{q_0…q_L, p_0…p_{k−1}}`. A level-`l` key switch borrows the
//! digits that cover `q_0…q_l` and reads only the limbs
//! `{q_0…q_l, p_0…p_{k−1}}` of each. The slice is a valid level-`l` key:
//! digit `g`'s payload `P·Ê_g·w` is `(P mod q_i)·w` modulo each of the
//! digit's own primes `q_i` and 0 modulo every other level prime and every
//! special prime, whatever the chain's length, so cutting the chain
//! changes no payload, and the top-level digit cut to `q_0…q_l` is exactly
//! the level's partial last digit.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::{expand_to_slots, Backend, BackendError, Result};
use crate::fault::splitmix64;
use crate::metrics::{self, Counter};
use crate::params::CkksParams;
use crate::snapshot::{put_f64, put_u32, put_u64, put_u8, SnapError, SnapReader, SnapshotBackend};
use crate::toy::encode::Encoder;
use crate::toy::ntt::automorphism_indices;
use crate::toy::poly::{keyswitch_fused, HoistedDigits, RnsContext, RnsPoly, ShoupPoly};

/// The waterline scale of the toy instance (independent of the simulated
/// parameters' `Rf`; the level primes are ≈ 2^40 so rescaling preserves
/// it).
const DELTA: f64 = (1u64 << 40) as f64;

/// A toy ciphertext: an RLWE pair plus CKKS metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ToyCt {
    c0: RnsPoly,
    c1: RnsPoly,
    level: u32,
    degree: u32,
    scale: f64,
}

/// One key-switching digit: `(b, a)` over the extended basis, NTT-resident
/// with precomputed Shoup companions so key products never leave the
/// evaluation domain and never pay a Barrett reduction.
#[derive(Debug, Clone)]
struct Ksk {
    b: ShoupPoly,
    a: ShoupPoly,
}

/// One kind's key-switching chain (`⌈(L+1)/α⌉` digits over `L+1+k`
/// limbs), shared by reference so concurrent ops never deep-copy key
/// material.
type SharedKsk = Arc<Vec<Ksk>>;

/// The key-switching digit budget: [`ToyBackend::new`] puts
/// `α = ⌈(L+1)/DNUM⌉` level primes in each digit, so a top-level key
/// switch has `⌈(L+1)/α⌉ ≤ DNUM` digits. Measured on the `toy-exact`
/// benchmark (N = 2^9, L = 16), where it gives `α = 4`; see EXPERIMENTS.md
/// for the sweep.
pub const DNUM: usize = 5;

/// The `(b, a)` halves of the digits covering `rows` level primes — the
/// level slice a key switch over `rows` level limbs uses — in the shape
/// [`keyswitch_fused`] takes.
fn key_pairs<'k>(
    key: &'k [Ksk],
    ctx: &RnsContext,
    rows: usize,
) -> Vec<(&'k ShoupPoly, &'k ShoupPoly)> {
    key[..ctx.digits_at(rows)]
        .iter()
        .map(|k| (&k.b, &k.a))
        .collect()
}

/// Which secret the key switches *from* (always switching to `s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyKind {
    /// `s²` (relinearization after multiplication).
    Relin,
    /// `s(X^t)` (Galois rotation by automorphism exponent `t`).
    Galois(usize),
}

/// The shared encryption RNG plus its replay log. `StdRng` state is not
/// extractable, so durable resume ([`SnapshotBackend`]) records the draw
/// *events* instead: the only consumer of this stream is
/// [`ToyBackend::rlwe_encrypt`], whose draw count is fully determined by
/// the row count it encrypts at. Reseeding and replaying the logged events
/// restores the exact stream position.
#[derive(Debug)]
struct EncRng {
    rng: StdRng,
    /// Row count of each `rlwe_encrypt` performed so far, in order.
    events: Vec<u32>,
}

/// The exact toy RNS-CKKS backend. See the [module docs](self).
///
/// Evaluation ops take `&self`; the only mutable state — the encryption
/// RNG and the lazily generated key cache, one chain per key kind — sits
/// behind mutexes, so a `ToyBackend` can be shared across threads
/// (`Arc<ToyBackend>`). Both locks are taken only on the calling thread,
/// never inside the limb-parallel regions, which keeps the RNG stream
/// (and therefore every ciphertext) bit-identical no matter how many
/// worker threads run.
#[derive(Debug)]
pub struct ToyBackend {
    ctx: RnsContext,
    enc: Encoder,
    params: CkksParams,
    sk: Vec<i64>,
    sk_squared: Vec<i64>,
    rng: Mutex<EncRng>,
    /// One top-level key-switching chain per kind — see [`ToyBackend::ksk`].
    keys: Mutex<HashMap<KeyKind, SharedKsk>>,
    /// Master seed for the per-kind key-generation RNGs — see
    /// [`ToyBackend::key_rng`].
    key_seed: u64,
}

impl ToyBackend {
    /// Creates an instance with ring degree `n` and `max_level` usable
    /// levels, keyed from `seed`. Key switching puts
    /// `α = ⌈(max_level+1)/DNUM⌉` level primes in each digit (see
    /// [`DNUM`]); below `DNUM` levels that is the per-prime decomposition
    /// with one special prime.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 8.
    #[must_use]
    pub fn new(n: usize, max_level: u32, seed: u64) -> ToyBackend {
        assert!(n.is_power_of_two() && n >= 8);
        let levels = max_level as usize;
        let ctx = RnsContext::with_alpha(n, levels, (levels + 1).div_ceil(DNUM));
        let enc = Encoder::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk: Vec<i64> = (0..n).map(|_| i64::from(rng.gen_range(-1i8..=1))).collect();
        let sk_squared = negacyclic_mul_i64(&sk, &sk);
        let params = CkksParams {
            poly_degree: n,
            max_level,
            rf_bits: 40,
        };
        ToyBackend {
            ctx,
            enc,
            params,
            sk,
            sk_squared,
            rng: Mutex::new(EncRng {
                rng,
                events: Vec::new(),
            }),
            keys: Mutex::new(HashMap::new()),
            key_seed: seed,
        }
    }

    fn rows(&self, level: u32) -> usize {
        self.ctx.rows_at_level(level)
    }

    /// The dedicated key-generation RNG for one key kind, derived from
    /// the master seed by SplitMix64 chaining. Keying the draw per kind
    /// (instead of pulling from the shared encryption RNG) makes key
    /// material independent of *generation order* — which kind is touched
    /// first, and at which level — and that is what lets
    /// [`ToyBackend::ksk`] generate outside the cache lock: concurrent
    /// first-touchers may race, but every candidate they produce is
    /// bit-identical.
    fn key_rng(&self, kind: KeyKind) -> StdRng {
        let tag = match kind {
            KeyKind::Relin => 0,
            KeyKind::Galois(t) => 1 + t as u64,
        };
        StdRng::seed_from_u64(splitmix64(self.key_seed ^ splitmix64(tag)))
    }

    /// The secret key embedded at the given basis, NTT form.
    fn sk_poly(&self, rows: usize, with_special: bool) -> RnsPoly {
        let mut s = RnsPoly::from_i64(&self.ctx, &self.sk, rows, with_special);
        s.to_ntt(&self.ctx);
        s
    }

    /// Fresh RLWE encryption of integer message coefficients.
    fn rlwe_encrypt(&self, msg: &[i128], level: u32, scale: f64) -> ToyCt {
        let rows = self.rows(level);
        let mut m = RnsPoly::from_i128(&self.ctx, msg, rows, false);
        m.to_ntt(&self.ctx);
        // One lock for the whole draw so the (error, mask) pair is a
        // single replayable event in the durable-resume log.
        let (e_coeffs, a) = {
            let mut g = self.rng.lock().expect("rng lock");
            g.events.push(u32::try_from(rows).expect("rows fit u32"));
            let e = error_coeffs_with(self.ctx.n, &mut g.rng);
            let a = RnsPoly::uniform(&self.ctx, rows, false, true, &mut g.rng);
            (e, a)
        };
        let mut e = RnsPoly::from_i64(&self.ctx, &e_coeffs, rows, false);
        e.to_ntt(&self.ctx);
        let s = self.sk_poly(rows, false);
        let c0 = m.add(&e, &self.ctx).sub(&a.mul(&s, &self.ctx), &self.ctx);
        ToyCt {
            c0,
            c1: a,
            level,
            degree: 1,
            scale,
        }
    }

    /// Raw decryption to centered integer coefficients.
    fn rlwe_decrypt(&self, ct: &ToyCt) -> Vec<i128> {
        let s = self.sk_poly(ct.c0.limbs(), false);
        let mut m = ct.c0.add(&ct.c1.mul(&s, &self.ctx), &self.ctx);
        m.to_coeff(&self.ctx);
        m.centered_coeffs(&self.ctx)
    }

    /// Generates the key-switching chain for `kind` at the top level —
    /// `⌈(L+1)/α⌉` digits, each over `{q_0…q_L, p_0…p_{k−1}}` — from its
    /// dedicated RNG (see [`ToyBackend::key_rng`]). Every lower level
    /// uses a prefix of it (see the [module docs](self)).
    fn generate_ksk(&self, kind: KeyKind) -> Vec<Ksk> {
        let mut rng = self.key_rng(kind);
        let w: Vec<i64> = match kind {
            KeyKind::Relin => self.sk_squared.clone(),
            KeyKind::Galois(t) => automorphism_i64(&self.sk, t),
        };
        let rows = self.rows(self.params.max_level);
        let s = self.sk_poly(rows, true);
        let mut w_poly = RnsPoly::from_i64(&self.ctx, &w, rows, true);
        w_poly.to_ntt(&self.ctx);
        let count = self.ctx.digits_at(rows);
        let mut digits = Vec::with_capacity(count);
        for g in 0..count {
            let a = RnsPoly::uniform(&self.ctx, rows, true, true, &mut rng);
            let e_coeffs = error_coeffs_with(self.ctx.n, &mut rng);
            let mut e = RnsPoly::from_i64(&self.ctx, &e_coeffs, rows, true);
            e.to_ntt(&self.ctx);
            // P·Ê_g ≡ P mod q_i on the digit's own primes, 0 on every
            // other level prime and on every special prime.
            let own = self.ctx.digit_primes(rows, g);
            let factors: Vec<u64> = w_poly
                .basis
                .iter()
                .map(|&bi| {
                    if own.contains(&bi) {
                        self.ctx.special_product_mod(bi)
                    } else {
                        0
                    }
                })
                .collect();
            let payload = w_poly.mul_scalar_rows(&factors, &self.ctx);
            let b = payload
                .add(&e, &self.ctx)
                .sub(&a.mul(&s, &self.ctx), &self.ctx);
            digits.push(Ksk {
                b: ShoupPoly::new(b, &self.ctx),
                a: ShoupPoly::new(a, &self.ctx),
            });
        }
        digits
    }

    /// Lazily generates (and caches) the key-switching chain for `kind`;
    /// callers at level `l` use its first `⌈(l+1)/α⌉` digits
    /// ([`key_pairs`]). The cache holds `Arc`s so hot ops share keys
    /// without deep clones. Generation happens *outside* the cache lock —
    /// holding the mutex across a multi-NTT key generation would
    /// serialize concurrent executors on first touch — and determinism
    /// survives the race because key material is drawn from a per-kind
    /// RNG, so every racing candidate is bit-identical and the
    /// double-checked insert keeps whichever landed first.
    fn ksk(&self, kind: KeyKind) -> SharedKsk {
        if let Some(k) = self.keys.lock().expect("key cache lock").get(&kind) {
            return Arc::clone(k);
        }
        let fresh = Arc::new(self.generate_ksk(kind));
        let mut keys = self.keys.lock().expect("key cache lock");
        Arc::clone(keys.entry(kind).or_insert(fresh))
    }

    /// Switches `d` (NTT, level basis) from secret `w` to `s`, returning
    /// the additive pair `(k0, k1)` with `k0 + k1·s ≈ d·w`: decompose once
    /// ([`HoistedDigits`]), take both key products in one fused pass
    /// ([`keyswitch_fused`]: raw-`u64` sums, one reduction per output
    /// element), then divide by the special primes.
    fn keyswitch(&self, d: &RnsPoly, kind: KeyKind, level: u32) -> (RnsPoly, RnsPoly) {
        metrics::count(Counter::KeyswitchCalls, 1);
        debug_assert_eq!(d.limbs(), self.rows(level));
        let key = self.ksk(kind);
        let digits = HoistedDigits::new(&self.ctx, d);
        let pairs = key_pairs(&key, &self.ctx, self.rows(level));
        let (acc0, acc1) = keyswitch_fused(&digits, &pairs, None, &self.ctx);
        (self.mod_down_special(acc0), self.mod_down_special(acc1))
    }

    /// Divides by the product `P` of the special primes, dropping their
    /// limbs (ModDown, the tail of hybrid key switching) without leaving
    /// the evaluation domain. It is the rescale kernel with the `k`
    /// special primes on top instead of one level prime.
    fn mod_down_special(&self, mut p: RnsPoly) -> RnsPoly {
        p.mod_down_top_ntt(&self.ctx, self.ctx.special_primes().len());
        p
    }

    /// Encodes a plaintext at the given scale/basis as an NTT poly.
    fn encode_poly(&self, values: &[f64], rows: usize, scale: f64) -> Result<RnsPoly> {
        let coeffs = self
            .enc
            .encode(&expand_to_slots(values, self.enc.slots())?, scale);
        let mut m = RnsPoly::from_i128(&self.ctx, &coeffs, rows, false);
        m.to_ntt(&self.ctx);
        Ok(m)
    }
}

/// Small centered error coefficients (σ ≈ 2) drawn from an explicit RNG.
fn error_coeffs_with(n: usize, rng: &mut StdRng) -> Vec<i64> {
    (0..n)
        .map(|_| (0..4).map(|_| i64::from(rng.gen_range(-1i8..=1))).sum())
        .collect()
}

/// Schoolbook negacyclic product of small signed coefficient vectors.
#[allow(clippy::needless_range_loop)] // index arithmetic carries the wrap/sign logic
fn negacyclic_mul_i64(a: &[i64], b: &[i64]) -> Vec<i64> {
    let n = a.len();
    let mut out = vec![0i64; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let p = a[i] * b[j];
            let k = i + j;
            if k < n {
                out[k] += p;
            } else {
                out[k - n] -= p;
            }
        }
    }
    out
}

/// `X → X^t` on signed coefficients.
fn automorphism_i64(coeffs: &[i64], t: usize) -> Vec<i64> {
    let n = coeffs.len();
    let m = 2 * n;
    let mut out = vec![0i64; n];
    for (k, &c) in coeffs.iter().enumerate() {
        let e = (k * t) % m;
        if e < n {
            out[e] = c;
        } else {
            out[e - n] = -c;
        }
    }
    out
}

impl Backend for ToyBackend {
    type Ct = ToyCt;

    fn params(&self) -> &CkksParams {
        &self.params
    }

    fn encrypt(&self, values: &[f64], level: u32) -> Result<ToyCt> {
        if level > self.params.max_level {
            return Err(BackendError::Unsupported(format!(
                "encrypt at level {level} exceeds max {}",
                self.params.max_level
            )));
        }
        let coeffs = self
            .enc
            .encode(&expand_to_slots(values, self.enc.slots())?, DELTA);
        Ok(self.rlwe_encrypt(&coeffs, level, DELTA))
    }

    fn decrypt(&self, ct: &ToyCt) -> Result<Vec<f64>> {
        let coeffs = self.rlwe_decrypt(ct);
        Ok(self.enc.decode(&coeffs, ct.scale))
    }

    fn level(&self, ct: &ToyCt) -> u32 {
        ct.level
    }

    fn degree(&self, ct: &ToyCt) -> u32 {
        ct.degree
    }

    fn add(&self, a: &ToyCt, b: &ToyCt) -> Result<ToyCt> {
        if a.level != b.level {
            return Err(BackendError::LevelMismatch {
                expected: a.level,
                got: b.level,
            });
        }
        if a.degree != b.degree {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: a.degree,
                got: b.degree,
            });
        }
        Ok(ToyCt {
            c0: a.c0.add(&b.c0, &self.ctx),
            c1: a.c1.add(&b.c1, &self.ctx),
            level: a.level,
            degree: a.degree,
            scale: a.scale,
        })
    }

    fn sub(&self, a: &ToyCt, b: &ToyCt) -> Result<ToyCt> {
        if a.level != b.level {
            return Err(BackendError::LevelMismatch {
                expected: a.level,
                got: b.level,
            });
        }
        if a.degree != b.degree {
            return Err(BackendError::ScaleDegreeMismatch {
                expected: a.degree,
                got: b.degree,
            });
        }
        Ok(ToyCt {
            c0: a.c0.sub(&b.c0, &self.ctx),
            c1: a.c1.sub(&b.c1, &self.ctx),
            level: a.level,
            degree: a.degree,
            scale: a.scale,
        })
    }

    fn add_plain(&self, a: &ToyCt, p: &[f64]) -> Result<ToyCt> {
        let m = self.encode_poly(p, a.c0.limbs(), a.scale)?;
        Ok(ToyCt {
            c0: a.c0.add(&m, &self.ctx),
            ..a.clone()
        })
    }

    fn sub_plain(&self, a: &ToyCt, p: &[f64]) -> Result<ToyCt> {
        let m = self.encode_poly(p, a.c0.limbs(), a.scale)?;
        Ok(ToyCt {
            c0: a.c0.sub(&m, &self.ctx),
            ..a.clone()
        })
    }

    fn mult(&self, a: &ToyCt, b: &ToyCt) -> Result<ToyCt> {
        if a.level != b.level {
            return Err(BackendError::LevelMismatch {
                expected: a.level,
                got: b.level,
            });
        }
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
        // Tensor (d0, d1, d2), then relinearize d2 back to rank 1. The
        // cross term and key-switch fold-in run in place.
        let mut d0 = a.c0.mul(&b.c0, &self.ctx);
        let mut d1 = a.c0.mul(&b.c1, &self.ctx);
        d1.fma_assign(&a.c1, &b.c0, &self.ctx);
        let d2 = a.c1.mul(&b.c1, &self.ctx);
        let (k0, k1) = self.keyswitch(&d2, KeyKind::Relin, a.level);
        d0.add_assign(&k0, &self.ctx);
        d1.add_assign(&k1, &self.ctx);
        Ok(ToyCt {
            c0: d0,
            c1: d1,
            level: a.level,
            degree: 2,
            scale: a.scale * b.scale,
        })
    }

    fn mult_plain(&self, a: &ToyCt, p: &[f64]) -> Result<ToyCt> {
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
        let m = self.encode_poly(p, a.c0.limbs(), DELTA)?;
        Ok(ToyCt {
            c0: a.c0.mul(&m, &self.ctx),
            c1: a.c1.mul(&m, &self.ctx),
            level: a.level,
            degree: 2,
            scale: a.scale * DELTA,
        })
    }

    fn negate(&self, a: &ToyCt) -> Result<ToyCt> {
        Ok(ToyCt {
            c0: a.c0.neg(&self.ctx),
            c1: a.c1.neg(&self.ctx),
            ..a.clone()
        })
    }

    fn rotate(&self, a: &ToyCt, offset: i64) -> Result<ToyCt> {
        // Delegate to the hoisted path with a single offset: one code path
        // means `rotate_batch` is bit-identical to a sequential rotate loop
        // by construction.
        let mut out = self.rotate_batch(a, std::slice::from_ref(&offset))?;
        Ok(out.pop().expect("one rotation per offset"))
    }

    fn rotate_batch(&self, a: &ToyCt, offsets: &[i64]) -> Result<Vec<ToyCt>> {
        // An empty batch returns before touching anything: no key-cache
        // lookup, no decomposition, no clone. (The all-identity check
        // below would also catch it, but only after evaluating a clone
        // expression; serving-layer callers issue empty batches on their
        // fast path and expect them to be literally free.)
        if offsets.is_empty() {
            return Ok(Vec::new());
        }
        // Identity rotations (offset ≡ 0 mod slots) never need the digit
        // decomposition; skip it entirely when the batch is all-identity.
        if offsets.iter().all(|&o| self.enc.rotation_exponent(o) == 1) {
            return Ok(vec![a.clone(); offsets.len()]);
        }
        // An all-duplicate batch (one distinct Galois exponent) collapses
        // to a single rotation up front — the general path below would
        // reach the same op counts through its memoization map, but this
        // way the hoisting slab is never sized for a batch that is really
        // one rotation plus clones.
        let t0 = self.enc.rotation_exponent(offsets[0]);
        if offsets.len() > 1
            && offsets[1..]
                .iter()
                .all(|&o| self.enc.rotation_exponent(o) == t0)
        {
            let one = self
                .rotate_batch(a, &offsets[..1])?
                .pop()
                .expect("one rotation per offset");
            return Ok(vec![one; offsets.len()]);
        }
        // Halevi–Shoup hoisting: decompose c1 and NTT the lifted digits
        // *once* into one flat slab, then realize each offset's
        // automorphism as an NTT-domain index permutation of the shared
        // digits (see `ntt::automorphism_indices`), read by its own fused
        // key-switch inner product without materializing any permuted
        // digit. Offsets sharing one Galois exponent reuse the first
        // result instead of repeating the key switch — rotations are
        // deterministic, so the clone is bit-identical.
        let digits = HoistedDigits::new(&self.ctx, &a.c1);
        let mut out: Vec<ToyCt> = Vec::with_capacity(offsets.len());
        let mut first_at: HashMap<usize, usize> = HashMap::new();
        for &offset in offsets {
            let t = self.enc.rotation_exponent(offset);
            if t == 1 {
                out.push(a.clone());
                continue;
            }
            if let Some(&done) = first_at.get(&t) {
                let ct = out[done].clone();
                out.push(ct);
                continue;
            }
            let key = self.ksk(KeyKind::Galois(t));
            let perm = automorphism_indices(self.ctx.n, t);
            metrics::count(Counter::KeyswitchCalls, 1);
            let pairs = key_pairs(&key, &self.ctx, self.rows(a.level));
            let (acc0, acc1) = keyswitch_fused(&digits, &pairs, Some(&perm), &self.ctx);
            let k0 = self.mod_down_special(acc0);
            let k1 = self.mod_down_special(acc1);
            let mut c0 = a.c0.permuted(&perm);
            c0.add_assign(&k0, &self.ctx);
            first_at.insert(t, out.len());
            out.push(ToyCt {
                c0,
                c1: k1,
                level: a.level,
                degree: a.degree,
                scale: a.scale,
            });
        }
        Ok(out)
    }

    fn rescale(&self, a: &ToyCt) -> Result<ToyCt> {
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
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        let q_top = self.ctx.primes[a.c0.limbs() - 1];
        c0.mod_down_top_ntt(&self.ctx, 1);
        c1.mod_down_top_ntt(&self.ctx, 1);
        Ok(ToyCt {
            c0,
            c1,
            level: a.level - 1,
            degree: 1,
            scale: a.scale / q_top as f64,
        })
    }

    fn modswitch(&self, a: &ToyCt, down: u32) -> Result<ToyCt> {
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
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.drop_top_rows(down as usize);
        c1.drop_top_rows(down as usize);
        Ok(ToyCt {
            c0,
            c1,
            level: a.level - down,
            degree: a.degree,
            scale: a.scale,
        })
    }

    fn bootstrap(&self, a: &ToyCt, target: u32) -> Result<ToyCt> {
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
        // Documented substitution (DESIGN.md §4): level-restoring
        // re-encryption standing in for the EvalMod/CoeffToSlot circuit.
        let coeffs = self.rlwe_decrypt(a);
        let values = self.enc.decode(&coeffs, a.scale);
        let msg = self.enc.encode(&values, DELTA);
        Ok(self.rlwe_encrypt(&msg, target, DELTA))
    }
}

/// Serializes one [`RnsPoly`]: NTT flag, limb count, prime-index basis,
/// then the raw residue limbs (`n` words each). The flat limb-major
/// buffer serializes in exactly the historical row-by-row byte order, so
/// `halo-ct-toy/1` is unchanged.
fn poly_save(p: &RnsPoly, out: &mut Vec<u8>) {
    put_u8(out, u8::from(p.ntt));
    put_u32(out, u32::try_from(p.limbs()).expect("limbs fit u32"));
    for &bi in &p.basis {
        put_u32(out, u32::try_from(bi).expect("basis index fits u32"));
    }
    for i in 0..p.limbs() {
        for &x in p.limb(i) {
            put_u64(out, x);
        }
    }
}

/// Deserializes one [`RnsPoly`], validating the basis against the context
/// and every limb against its prime modulus (polynomials at rest are
/// always canonical — the lazy kernels never let redundant values escape).
fn poly_load(ctx: &RnsContext, r: &mut SnapReader<'_>) -> std::result::Result<RnsPoly, SnapError> {
    let ntt = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(SnapError::Malformed(format!("NTT flag byte {t}"))),
    };
    let nrows = r.read_len()?;
    if nrows == 0 || nrows > ctx.primes.len() {
        return Err(SnapError::Malformed(format!(
            "polynomial has {nrows} rows but the context has {} primes",
            ctx.primes.len()
        )));
    }
    let mut basis = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let bi = r.u32()? as usize;
        if bi >= ctx.primes.len() {
            return Err(SnapError::Malformed(format!(
                "basis index {bi} out of range"
            )));
        }
        basis.push(bi);
    }
    let mut poly = RnsPoly::with_basis(ctx.n, basis, ntt);
    for i in 0..nrows {
        let row = poly.limb_view_mut(ctx, i);
        let q = row.prime;
        for x in row.coeffs.iter_mut() {
            let v = r.u64()?;
            if v >= q {
                return Err(SnapError::Malformed(format!(
                    "limb {v} not reduced mod {q}"
                )));
            }
            *x = v;
        }
    }
    Ok(poly)
}

/// Durable-execution support (`halo-snap/1`, see `halo-runtime` and
/// DESIGN.md §12). Wire format `halo-ct-toy/1`: level, degree, scale bits,
/// then the two RLWE component polynomials as raw RNS limb matrices. RNG
/// replay state: the construction seed plus the ordered log of
/// `rlwe_encrypt` row counts (the secret key's own draws are replayed
/// implicitly, exactly as the constructor performs them). Key-switching
/// keys need no snapshotting at all — they come from per-kind derived
/// RNGs and regenerate bit-identically on demand.
impl SnapshotBackend for ToyBackend {
    fn ct_format(&self) -> &'static str {
        "halo-ct-toy/1"
    }

    fn ct_save(&self, ct: &ToyCt, out: &mut Vec<u8>) {
        put_u32(out, ct.level);
        put_u32(out, ct.degree);
        put_f64(out, ct.scale);
        poly_save(&ct.c0, out);
        poly_save(&ct.c1, out);
    }

    fn ct_load(&self, r: &mut SnapReader<'_>) -> std::result::Result<ToyCt, SnapError> {
        let level = r.u32()?;
        let degree = r.u32()?;
        let scale = r.f64()?;
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
        if !(scale.is_finite() && scale > 0.0) {
            return Err(SnapError::Malformed(format!(
                "scale {scale} is not finite and positive"
            )));
        }
        let c0 = poly_load(&self.ctx, r)?;
        let c1 = poly_load(&self.ctx, r)?;
        // Every ciphertext at rest is NTT-resident over exactly the level
        // basis `0..=level`; anything else would panic in the first op.
        let level_basis: Vec<usize> = (0..=level as usize).collect();
        for (name, p) in [("c0", &c0), ("c1", &c1)] {
            if !p.ntt {
                return Err(SnapError::Malformed(format!("{name} is not in NTT form")));
            }
            if p.basis != level_basis {
                return Err(SnapError::Malformed(format!(
                    "{name} basis {:?} is not the level-{level} basis",
                    p.basis
                )));
            }
        }
        Ok(ToyCt {
            c0,
            c1,
            level,
            degree,
            scale,
        })
    }

    fn rng_save(&self, out: &mut Vec<u8>) {
        let g = self.rng.lock().expect("rng lock");
        put_u64(out, self.key_seed);
        put_u32(out, u32::try_from(g.events.len()).expect("events fit u32"));
        for &rows in &g.events {
            put_u32(out, rows);
        }
    }

    fn rng_load(&self, r: &mut SnapReader<'_>) -> std::result::Result<(), SnapError> {
        let seed = r.u64()?;
        if seed != self.key_seed {
            return Err(SnapError::Malformed(format!(
                "snapshot RNG seed {seed:#x} does not match backend seed {:#x}",
                self.key_seed
            )));
        }
        let count = r.read_len()?;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let rows = r.u32()?;
            // `rlwe_encrypt` runs at a level basis: 1..=L+1 rows.
            if rows == 0 || rows as usize > self.rows(self.params.max_level) {
                return Err(SnapError::Malformed(format!(
                    "event row count {rows} out of range"
                )));
            }
            events.push(rows);
        }
        // Replay: the constructor's secret-key draws, then each logged
        // encryption's (error, uniform mask) draw pair.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..self.ctx.n {
            let _ = rng.gen_range(-1i8..=1);
        }
        for &rows in &events {
            let _ = error_coeffs_with(self.ctx.n, &mut rng);
            let _ = RnsPoly::uniform(&self.ctx, rows as usize, false, true, &mut rng);
        }
        *self.rng.lock().expect("rng lock") = EncRng { rng, events };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::poly::assert_small_coeffs;
    use std::ops::Range;

    fn backend() -> ToyBackend {
        ToyBackend::new(32, 6, 0xBEEF)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let be = backend();
        let values = vec![0.5, -1.25, 3.0, 0.0];
        let ct = be.encrypt(&values, 6).unwrap();
        let out = be.decrypt(&ct).unwrap();
        for (a, b) in values.iter().zip(&out) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // Cyclic expansion like the simulation backend.
        assert!((out[4] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn plaintexts_longer_than_the_slots_are_rejected() {
        let be = backend();
        let ct = be.encrypt(&[1.0], 4).unwrap();
        let long = vec![1.0; 17];
        let overflow = BackendError::SlotOverflow { len: 17, slots: 16 };
        assert_eq!(be.encrypt(&long, 4).unwrap_err(), overflow);
        assert_eq!(be.add_plain(&ct, &long).unwrap_err(), overflow);
        assert_eq!(be.sub_plain(&ct, &long).unwrap_err(), overflow);
        assert_eq!(be.mult_plain(&ct, &long).unwrap_err(), overflow);
    }

    #[test]
    fn homomorphic_add_sub_negate() {
        let be = backend();
        let x = be.encrypt(&[2.0, -1.0], 4).unwrap();
        let y = be.encrypt(&[0.5, 3.0], 4).unwrap();
        let s = be.add(&x, &y).unwrap();
        let out = be.decrypt(&s).unwrap();
        assert!((out[0] - 2.5).abs() < 1e-7 && (out[1] - 2.0).abs() < 1e-7);
        let d = be.sub(&x, &y).unwrap();
        let out = be.decrypt(&d).unwrap();
        assert!((out[0] - 1.5).abs() < 1e-7 && (out[1] + 4.0).abs() < 1e-7);
        let n = be.negate(&x).unwrap();
        let out = be.decrypt(&n).unwrap();
        assert!((out[0] + 2.0).abs() < 1e-7);
    }

    #[test]
    fn plaintext_operands() {
        let be = backend();
        let x = be.encrypt(&[2.0, -1.0], 4).unwrap();
        let ap = be.add_plain(&x, &[10.0, 1.0]).unwrap();
        let out = be.decrypt(&ap).unwrap();
        assert!((out[0] - 12.0).abs() < 1e-7 && out[1].abs() < 1e-7);
        let mp = be.mult_plain(&x, &[3.0, -2.0]).unwrap();
        assert_eq!(be.degree(&mp), 2);
        let out = be.decrypt(&mp).unwrap();
        assert!((out[0] - 6.0).abs() < 1e-6 && (out[1] - 2.0).abs() < 1e-6);
        let r = be.rescale(&mp).unwrap();
        assert_eq!(be.level(&r), 3);
        assert!((be.decrypt(&r).unwrap()[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ciphertext_multiplication_with_relinearization() {
        let be = backend();
        let x = be.encrypt(&[1.5, -2.0, 0.25], 4).unwrap();
        let y = be.encrypt(&[2.0, 0.5, 4.0], 4).unwrap();
        let m = be.mult(&x, &y).unwrap();
        assert_eq!(be.degree(&m), 2);
        let r = be.rescale(&m).unwrap();
        let out = be.decrypt(&r).unwrap();
        let want = [3.0, -1.0, 1.0];
        for (got, want) in out.iter().zip(&want) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    #[test]
    fn deep_multiplication_chain_stays_accurate() {
        let be = backend();
        let mut v = be.encrypt(&[0.9], 6).unwrap();
        let mut want = 0.9f64;
        for _ in 0..5 {
            let m = be.mult(&v, &v).unwrap();
            v = be.rescale(&m).unwrap();
            want *= want;
        }
        assert_eq!(be.level(&v), 1);
        let got = be.decrypt(&v).unwrap()[0];
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
    }

    #[test]
    fn rotation_shifts_slots() {
        let be = backend();
        let values: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.1).collect();
        let x = be.encrypt(&values, 3).unwrap();
        let r = be.rotate(&x, 2).unwrap();
        let out = be.decrypt(&r).unwrap();
        for j in 0..16 {
            let want = values[(j + 2) % 16];
            assert!(
                (out[j] - want).abs() < 1e-5,
                "slot {j}: {} vs {want}",
                out[j]
            );
        }
        // Negative rotation.
        let l = be.rotate(&x, -3).unwrap();
        let out = be.decrypt(&l).unwrap();
        assert!((out[0] - values[13]).abs() < 1e-5);
    }

    #[test]
    fn modswitch_preserves_value() {
        let be = backend();
        let x = be.encrypt(&[1.234], 5).unwrap();
        let m = be.modswitch(&x, 3).unwrap();
        assert_eq!(be.level(&m), 2);
        assert!((be.decrypt(&m).unwrap()[0] - 1.234).abs() < 1e-8);
    }

    #[test]
    fn bootstrap_restores_level_and_value() {
        let be = backend();
        let x = be.encrypt(&[0.77], 1).unwrap();
        let b = be.bootstrap(&x, 6).unwrap();
        assert_eq!(be.level(&b), 6);
        assert!((be.decrypt(&b).unwrap()[0] - 0.77).abs() < 1e-7);
    }

    #[test]
    fn level_constraints_are_enforced() {
        let be = backend();
        let x = be.encrypt(&[1.0], 3).unwrap();
        let y = be.encrypt(&[1.0], 2).unwrap();
        assert!(be.add(&x, &y).is_err());
        assert!(be.mult(&x, &y).is_err());
        let low = be.encrypt(&[1.0], 0).unwrap();
        assert!(be.mult(&low, &low).is_err());
        assert!(be.rescale(&x).is_err(), "degree-1 rescale");
        assert!(be.modswitch(&x, 4).is_err());
        assert!(be.bootstrap(&x, 7).is_err());
    }

    #[test]
    fn rotate_batch_is_bit_identical_to_sequential_rotates() {
        let be = backend();
        let values: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.25 - 1.0).collect();
        let x = be.encrypt(&values, 4).unwrap();
        let offsets = [0i64, 1, -2, 5, 17, 1];
        let batch = be.rotate_batch(&x, &offsets).unwrap();
        assert_eq!(batch.len(), offsets.len());
        for (&o, hoisted) in offsets.iter().zip(&batch) {
            let seq = be.rotate(&x, o).unwrap();
            assert_eq!(seq.c0, hoisted.c0, "offset {o}: c0 differs");
            assert_eq!(seq.c1, hoisted.c1, "offset {o}: c1 differs");
            assert_eq!(seq.level, hoisted.level);
            assert_eq!(seq.degree, hoisted.degree);
        }
    }

    #[test]
    fn rotate_by_full_slot_cycle_is_identity() {
        let be = backend();
        let x = be.encrypt(&[1.0, 2.0, 3.0], 3).unwrap();
        let slots = 16i64;
        for offset in [0, slots, -slots, 3 * slots] {
            let r = be.rotate(&x, offset).unwrap();
            assert_eq!(r.c0, x.c0, "offset {offset} must be a no-op");
            assert_eq!(r.c1, x.c1);
        }
    }

    #[test]
    fn key_generation_is_order_independent() {
        // Two same-seed backends touching keys in different orders must
        // produce bit-identical ciphertexts: the keyed per-kind RNG
        // decouples key material from generation order — which kind comes
        // first, and at which level it is first touched — which is the
        // property that lets `ksk` generate outside the cache lock.
        let be1 = backend();
        let be2 = backend();
        let (low, high) = (1, 6);
        let enc = |be: &ToyBackend| {
            [low, high].map(|level| be.encrypt(&[0.5, -0.25, 2.0], level).unwrap())
        };
        let [lo1, hi1] = enc(&be1);
        let [lo2, hi2] = enc(&be2);
        // be1 meets every kind at the low level first (rotate 2, rotate 3,
        // mult), then at the high one; be2 meets them in the reverse kind
        // order, at the high level first.
        let fwd = |be: &ToyBackend, x: &ToyCt| {
            let r2 = be.rotate(x, 2).unwrap();
            let r3 = be.rotate(x, 3).unwrap();
            [r2, r3, be.mult(x, x).unwrap()]
        };
        let rev = |be: &ToyBackend, x: &ToyCt| {
            let m = be.mult(x, x).unwrap();
            let r3 = be.rotate(x, 3).unwrap();
            [be.rotate(x, 2).unwrap(), r3, m]
        };
        let low_a = fwd(&be1, &lo1);
        let high_a = fwd(&be1, &hi1);
        let high_b = rev(&be2, &hi2);
        let low_b = rev(&be2, &lo2);
        for (a, b) in low_a.iter().zip(&low_b).chain(high_a.iter().zip(&high_b)) {
            assert_eq!(a.c0, b.c0, "level {}", a.level);
            assert_eq!(a.c1, b.c1, "level {}", a.level);
        }
    }

    /// An owned copy of `p`'s limbs over `basis`, each prime looked up in
    /// `p`'s own basis.
    fn restrict(p: &RnsPoly, basis: &[usize], ctx: &RnsContext) -> RnsPoly {
        let mut out = RnsPoly::with_basis(ctx.n, basis.to_vec(), p.ntt);
        for (i, &bi) in basis.iter().enumerate() {
            let src = p
                .basis
                .iter()
                .position(|&x| x == bi)
                .expect("prime in basis");
            out.limb_view_mut(ctx, i)
                .coeffs
                .copy_from_slice(p.limb(src));
        }
        out
    }

    /// The extended basis `{q_0…q_l, p_0…p_{k−1}}` of a level-`l` key
    /// switch.
    fn ext_basis(be: &ToyBackend, level: u32) -> Vec<usize> {
        (0..be.rows(level)).chain(be.ctx.special_primes()).collect()
    }

    /// `P·Ê mod q` for the level-`l` idempotent `Ê = Σ_{j∈group} E_j` of a
    /// digit's primes, from the per-prime definition
    /// `E_j = (Q_l/q_j)·[(Q_l/q_j)^{-1} mod q_j]`, with `P` the product of
    /// the special primes.
    fn payload_factor(ctx: &RnsContext, level: u32, group: Range<usize>, q: u64) -> u64 {
        use crate::toy::modular::{addmod, invmod, mulmod};
        let level_primes = &ctx.primes[..=level as usize];
        let idempotent = |j: usize| {
            let cofactor = |m: u64| {
                level_primes
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != j)
                    .fold(1, |acc, (_, &qk)| mulmod(acc, qk % m, m))
            };
            let q_j = level_primes[j];
            mulmod(cofactor(q), invmod(cofactor(q_j), q_j) % q, q)
        };
        let e_g = group.fold(0, |acc, j| addmod(acc, idempotent(j), q));
        let p = ctx
            .special_primes()
            .fold(1 % q, |acc, t| mulmod(acc, ctx.primes[t] % q, q));
        mulmod(p, e_g, q)
    }

    /// Relinearization and one Galois kind, each with its secret `w`.
    fn kinds_under_test(be: &ToyBackend) -> [(KeyKind, Vec<i64>); 2] {
        let t = be.enc.rotation_exponent(3);
        [
            (KeyKind::Relin, be.sk_squared.clone()),
            (KeyKind::Galois(t), automorphism_i64(&be.sk, t)),
        ]
    }

    #[test]
    fn every_digit_of_a_sliced_chain_decrypts_to_its_payload() {
        // α = ⌈(L+1)/DNUM⌉ over L+1 = 5, 7 and 11 level primes: α = 1, 2
        // and 3. The top-level chain ends in a partial digit at α = 2 and
        // 3, and the level-1 slice cuts a digit at α = 3.
        for (top, alpha) in [(4, 1), (6, 2), (10, 3)] {
            let be = ToyBackend::new(32, top, 0xBEEF);
            assert_eq!(be.ctx.alpha, alpha);
            for (kind, w) in kinds_under_test(&be) {
                let chain = be.ksk(kind);
                for level in [1, top / 2, top] {
                    let basis = ext_basis(&be, level);
                    let rows = be.rows(level);
                    let slice = &chain[..rows.div_ceil(alpha)];
                    let s = be.sk_poly(rows, true);
                    let mut w_poly = RnsPoly::from_i64(&be.ctx, &w, rows, true);
                    w_poly.to_ntt(&be.ctx);
                    for (g, digit) in slice.iter().enumerate() {
                        let group = g * alpha..rows.min((g + 1) * alpha);
                        let b = restrict(digit.b.poly(), &basis, &be.ctx);
                        let a = restrict(digit.a.poly(), &basis, &be.ctx);
                        let factors: Vec<u64> = basis
                            .iter()
                            .map(|&bi| {
                                payload_factor(&be.ctx, level, group.clone(), be.ctx.primes[bi])
                            })
                            .collect();
                        let payload = w_poly.mul_scalar_rows(&factors, &be.ctx);
                        // b_g + a_g·s − P·Ê_g·w = e_g, with |e_g| ≤ 4 exactly.
                        let mut e = b.add(&a.mul(&s, &be.ctx), &be.ctx).sub(&payload, &be.ctx);
                        e.to_coeff(&be.ctx);
                        assert_small_coeffs(&e, &be.ctx, 4);
                    }
                }
            }
        }
    }

    #[test]
    fn a_key_switch_through_the_slice_matches_an_owned_restricted_key() {
        let be = backend();
        let top = be.params.max_level;
        let mut rng = StdRng::seed_from_u64(17);
        for (kind, _) in kinds_under_test(&be) {
            let chain = be.ksk(kind);
            for level in [1, top / 2, top] {
                let rows = be.rows(level);
                let basis = ext_basis(&be, level);
                let owned: Vec<(ShoupPoly, ShoupPoly)> = chain[..be.ctx.digits_at(rows)]
                    .iter()
                    .map(|k| {
                        let cut = |p: &ShoupPoly| {
                            ShoupPoly::new(restrict(p.poly(), &basis, &be.ctx), &be.ctx)
                        };
                        (cut(&k.b), cut(&k.a))
                    })
                    .collect();
                let owned: Vec<(&ShoupPoly, &ShoupPoly)> =
                    owned.iter().map(|(b, a)| (b, a)).collect();
                let d = RnsPoly::uniform(&be.ctx, rows, false, true, &mut rng);
                let digits = HoistedDigits::new(&be.ctx, &d);
                let perm = match kind {
                    KeyKind::Relin => None,
                    KeyKind::Galois(t) => Some(automorphism_indices(be.ctx.n, t)),
                };
                for perm in [None, perm.as_ref().map(|p| p.as_slice())] {
                    let sliced =
                        keyswitch_fused(&digits, &key_pairs(&chain, &be.ctx, rows), perm, &be.ctx);
                    let want = keyswitch_fused(&digits, &owned, perm, &be.ctx);
                    assert_eq!(sliced, want, "{kind:?} at level {level}");
                }
                // The backend's own key switch takes the same slice.
                let (k0, k1) = be.keyswitch(&d, kind, level);
                let (w0, w1) = keyswitch_fused(&digits, &owned, None, &be.ctx);
                assert_eq!(k0, be.mod_down_special(w0), "{kind:?} at level {level}");
                assert_eq!(k1, be.mod_down_special(w1), "{kind:?} at level {level}");
            }
        }
    }

    /// Heap bytes of every cached key chain, Shoup companions included.
    fn key_bytes(be: &ToyBackend) -> usize {
        let keys = be.keys.lock().unwrap();
        keys.values()
            .flat_map(|chain| chain.iter())
            .map(|k| k.b.heap_bytes() + k.a.heap_bytes())
            .sum()
    }

    #[test]
    fn the_cache_holds_one_top_level_chain_per_kind() {
        let be = backend();
        let top = be.params.max_level;
        let offsets = [1i64, 2, -3, 5, 17];
        for level in 1..=top {
            let x = be.encrypt(&[0.5, -1.0], level).unwrap();
            let _ = be.mult(&x, &x).unwrap();
            let _ = be.rotate_batch(&x, &offsets).unwrap();
            let _ = be.rotate(&x, 2).unwrap();
        }
        let exponents: std::collections::HashSet<usize> = offsets
            .iter()
            .map(|&o| be.enc.rotation_exponent(o))
            .collect();
        let kinds = 1 + exponents.len();
        let full = ext_basis(&be, top);
        // α = ⌈7/DNUM⌉ = 2 over L+1 = 7 level primes, so 4 digits, and
        // k = 2 special primes.
        let (l, alpha, k) = (top as usize, 2, 2);
        assert_eq!((be.ctx.alpha, be.ctx.special_primes().len()), (alpha, k));
        let digits = (l + 1).div_ceil(alpha);
        {
            let keys = be.keys.lock().unwrap();
            assert_eq!(keys.len(), kinds, "one chain per kind");
            for (kind, chain) in keys.iter() {
                assert_eq!(chain.len(), digits, "{kind:?}: ⌈(L+1)/α⌉ digits");
                for key in chain.iter() {
                    assert_eq!(key.b.poly().basis, full, "{kind:?}: L+1+k limbs");
                    assert_eq!(key.a.poly().basis, full, "{kind:?}: L+1+k limbs");
                }
            }
        }
        // kinds × ⌈(L+1)/α⌉ digits × (L+1+k) limbs × 4 arrays × N words × 8 B.
        assert_eq!(
            key_bytes(&be),
            kinds * digits * (l + 1 + k) * 4 * be.ctx.n * 8
        );
    }

    #[test]
    fn sum_of_products_at_degree_2() {
        // addcc on two pending-rescale products, then one rescale —
        // exactly the lazy-waterline pattern the compiler emits.
        let be = backend();
        let a = be.encrypt(&[1.5], 4).unwrap();
        let b = be.encrypt(&[2.0], 4).unwrap();
        let c = be.encrypt(&[-0.5], 4).unwrap();
        let d = be.encrypt(&[3.0], 4).unwrap();
        let p1 = be.mult(&a, &b).unwrap();
        let p2 = be.mult(&c, &d).unwrap();
        let s = be.add(&p1, &p2).unwrap();
        let r = be.rescale(&s).unwrap();
        let got = be.decrypt(&r).unwrap()[0];
        assert!((got - 1.5).abs() < 1e-4, "{got}");
    }

    #[test]
    fn ct_save_load_roundtrip_bit_exact() {
        let be = backend();
        let x = be.encrypt(&[1.25, -0.5], 5).unwrap();
        let m = be.mult(&x, &x).unwrap(); // degree-2, NTT-form components
        let r = be.rescale(&m).unwrap(); // shorter basis
        for ct in [&x, &m, &r] {
            let mut out = Vec::new();
            be.ct_save(ct, &mut out);
            let back = be.ct_load(&mut SnapReader::new(&out)).unwrap();
            assert_eq!(&back, ct);
        }
    }

    /// The `ct_save` bytes of `ct`, passed through `tamper`, then loaded.
    fn load_tampered(
        be: &ToyBackend,
        ct: &ToyCt,
        tamper: impl FnOnce(&mut Vec<u8>),
    ) -> std::result::Result<ToyCt, SnapError> {
        let mut bytes = Vec::new();
        be.ct_save(ct, &mut bytes);
        tamper(&mut bytes);
        be.ct_load(&mut SnapReader::new(&bytes))
    }

    #[test]
    fn ct_load_rejects_a_cleared_ntt_flag() {
        let be = backend();
        let x = be.encrypt(&[0.5], 2).unwrap();
        // Header: level u32, degree u32, scale f64; then c0's NTT flag.
        let got = load_tampered(&be, &x, |b| {
            assert_eq!(b[16], 1);
            b[16] = 0;
        });
        assert!(matches!(got, Err(SnapError::Malformed(_))), "{got:?}");
    }

    #[test]
    fn ct_load_rejects_a_level_that_disagrees_with_the_limbs() {
        let be = backend();
        let x = be.encrypt(&[0.5], 2).unwrap(); // three limbs
        let got = load_tampered(&be, &x, |b| b[..4].copy_from_slice(&4u32.to_le_bytes()));
        assert!(matches!(got, Err(SnapError::Malformed(_))), "{got:?}");
    }

    #[test]
    fn ct_load_rejects_components_with_different_limb_counts() {
        let be = backend();
        let x = be.encrypt(&[0.5], 2).unwrap();
        let y = be.encrypt(&[0.5], 3).unwrap();
        let mixed = ToyCt { c1: y.c1, ..x };
        let got = load_tampered(&be, &mixed, |_| {});
        assert!(matches!(got, Err(SnapError::Malformed(_))), "{got:?}");
    }

    #[test]
    fn ct_load_rejects_non_finite_or_non_positive_scales() {
        let be = backend();
        let x = be.encrypt(&[0.5], 2).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let got = load_tampered(&be, &x, |b| {
                b[8..16].copy_from_slice(&bad.to_bits().to_le_bytes());
            });
            assert!(
                matches!(got, Err(SnapError::Malformed(_))),
                "scale {bad}: {got:?}"
            );
        }
    }

    #[test]
    fn rng_replay_reproduces_future_encryptions() {
        let be1 = ToyBackend::new(16, 6, 0xFEED);
        let _ = be1.encrypt(&[0.5], 4).unwrap();
        let _ = be1.bootstrap(&be1.encrypt(&[0.25], 1).unwrap(), 6).unwrap();
        let mut blob = Vec::new();
        be1.rng_save(&mut blob);
        let next_a = be1.encrypt(&[0.75], 3).unwrap();

        // A fresh same-seed backend restored from the blob produces a
        // bit-identical next encryption.
        let be2 = ToyBackend::new(16, 6, 0xFEED);
        be2.rng_load(&mut SnapReader::new(&blob)).unwrap();
        let next_b = be2.encrypt(&[0.75], 3).unwrap();
        assert_eq!(next_a, next_b);

        // Seed mismatch is rejected.
        let other = ToyBackend::new(16, 6, 0xBEEF);
        assert!(other.rng_load(&mut SnapReader::new(&blob)).is_err());
    }

    #[test]
    fn rng_load_rejects_an_event_above_the_level_basis() {
        let be = ToyBackend::new(16, 6, 0xFEED);
        let blob = |rows: u32| {
            let mut out = Vec::new();
            put_u64(&mut out, 0xFEED);
            put_u32(&mut out, 1);
            put_u32(&mut out, rows);
            out
        };
        // `rlwe_encrypt` draws over at most L+1 = 7 rows.
        assert!(be.rng_load(&mut SnapReader::new(&blob(7))).is_ok());
        let got = be.rng_load(&mut SnapReader::new(&blob(8)));
        assert!(matches!(got, Err(SnapError::Malformed(_))), "{got:?}");
    }

    #[test]
    fn rng_load_rejects_an_event_count_the_blob_cannot_hold() {
        let be = ToyBackend::new(16, 6, 0xFEED);
        // 12 bytes claiming 2^28 events: refused before any reservation.
        let mut out = Vec::new();
        put_u64(&mut out, 0xFEED);
        put_u32(&mut out, 1 << 28);
        let got = be.rng_load(&mut SnapReader::new(&out));
        assert!(matches!(got, Err(SnapError::Malformed(_))), "{got:?}");
    }
}
