//! RNS polynomials over one contiguous limb-major `u64` buffer.
//!
//! # Layout
//!
//! An [`RnsPoly`] owns a single flat allocation: limb `i` (the residue row
//! for prime `basis[i]`) occupies `data[i·n .. (i+1)·n]`. The limb-major
//! order matches the old row-by-row serialization byte-for-byte, so the
//! `halo-ct-toy/1` snapshot wire format is unchanged.
//!
//! # Views
//!
//! Borrowed access goes through [`PolyView`] (whole polynomial),
//! [`LimbRef`] and [`LimbMut`] (one residue row, tagged with its prime).
//! Views are plain reborrows — creating one never copies or allocates.
//! Mutable kernels that read one polynomial while writing another
//! (`permute_from_view`) require **disjoint** buffers; this is enforced by
//! a `debug_assert` on the underlying pointer ranges and documented as the
//! aliasing contract in DESIGN.md §13.
//!
//! # Buffer pool
//!
//! Dropped polynomials return their flat buffer to a process-wide
//! free-list keyed by length; constructors reacquire from it. The
//! [`crate::metrics::MetricsSnapshot::poly_allocs`] counter therefore
//! counts *fresh heap allocations only* — a warm key-switch or rotation
//! batch runs at ≈ 0 fresh allocations, which `tests/hoist_counters.rs`
//! asserts. The counters land only in the caller's scope, but the pool
//! is shared by every thread: a scope's `poly_allocs` and `pool_reuses`
//! depend on what other threads left in the pool.
//!
//! # Lazy-representation invariant
//!
//! Kernels may hold values in the Harvey redundant ranges `[0, 2p)` /
//! `[0, 4p)` *inside* a single call (see [`crate::toy::ntt`] and
//! [`keyswitch_fused`]), but every polynomial **at rest is canonical**:
//! all limbs `< p`. Snapshot validation and the pinned ciphertext digest
//! rely on this — laziness never escapes a kernel. The one exception is
//! the [`HoistedDigits`] slab, whose rows only ever feed key products.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::{self, Counter};
use crate::parallel;
use crate::toy::modular::{
    addmod, invmod, is_prime, mul_shoup, mul_shoup_lazy, mulmod, shoup_precompute, submod, Modulus,
};
use crate::toy::ntt::NttTable;

/// Max recycled buffers kept per distinct length.
const POOL_BUCKET_CAP: usize = 64;

/// Process-wide recycled limb buffers, keyed by element count.
static BUF_POOL: OnceLock<Mutex<HashMap<usize, Vec<Vec<u64>>>>> = OnceLock::new();

/// A zeroed buffer of `len` elements — recycled when the pool has one
/// (counted as `pool_reuses`), freshly allocated otherwise (counted as
/// `poly_allocs`).
fn acquire_buf(len: usize) -> Vec<u64> {
    let mut buf = acquire_buf_raw(len);
    buf.fill(0);
    buf
}

/// [`acquire_buf`] without the zero fill — for callers that provably
/// overwrite every element before reading it (deep copies, hoist slabs,
/// `zip_with` outputs, the fused key-switch accumulators). Recycled
/// buffers carry stale values from their previous life.
fn acquire_buf_raw(len: usize) -> Vec<u64> {
    let pool = BUF_POOL.get_or_init(|| Mutex::new(HashMap::new()));
    let hit = pool
        .lock()
        .ok()
        .and_then(|mut m| m.get_mut(&len).and_then(Vec::pop));
    match hit {
        Some(buf) => {
            metrics::count(Counter::PoolReuses, 1);
            buf
        }
        None => {
            metrics::count(Counter::PolyAllocs, 1);
            vec![0u64; len]
        }
    }
}

/// Returns a buffer to the pool (dropped on the floor past the bucket cap
/// or if the pool lock is poisoned).
fn release_buf(mut buf: Vec<u64>) {
    if buf.capacity() == 0 {
        return;
    }
    // Rescale/level-drop truncate buffers in place; restore the original
    // allocation size so the buffer returns to the bucket it came from
    // (otherwise every warm key-switch would still miss the pool once
    // per truncated output limb buffer).
    let cap = buf.capacity();
    buf.resize(cap, 0);
    let pool = BUF_POOL.get_or_init(|| Mutex::new(HashMap::new()));
    if let Ok(mut m) = pool.lock() {
        let bucket = m.entry(buf.len()).or_default();
        if bucket.len() < POOL_BUCKET_CAP {
            bucket.push(buf);
        }
    }
}

/// The ring/modulus context shared by all polynomials of one scheme
/// instance: the prime chain `[q₀ (base), q₁…q_L (level primes), p₀…p_{k−1}
/// (special)]`, their NTT tables, Barrett constants, and the basis
/// conversions of hybrid key switching.
///
/// Key switching groups the level primes into digits of `alpha`
/// consecutive primes (the last digit of a level may be partial) and
/// extends each digit over the `k` special primes, whose product `P` is
/// sized to cover the widest digit's product.
#[derive(Debug)]
pub struct RnsContext {
    /// Ring degree.
    pub n: usize,
    /// The prime chain (base, levels…, then the `k` special primes).
    pub primes: Vec<u64>,
    /// Index of the first of the `k` special primes, which run to the end
    /// of the chain (see [`RnsContext::special_primes`]).
    pub special: usize,
    /// Level primes per key-switching digit (`α`); 1 is the per-prime
    /// decomposition.
    pub alpha: usize,
    /// NTT tables, aligned with `primes` (shared process-wide per
    /// `(n, p)` via [`NttTable::shared`]).
    pub tables: Vec<Arc<NttTable>>,
    /// Barrett constants, aligned with `primes` — the variable×variable
    /// reduction of the pointwise products.
    pub moduli: Vec<Modulus>,
    /// ModUp conversions, one per digit shape: entry `e` converts out of
    /// the digit whose last level prime is `q_e`, i.e. out of
    /// `q_{α⌊e/α⌋}…q_e` (a full digit, or the partial last digit of level
    /// `e`).
    mod_up: Vec<BaseConv>,
    /// The ModDown conversion out of the special primes.
    mod_down: BaseConv,
    /// One-prime conversions, one per level prime: the constants of a
    /// rescale by that prime.
    single: Vec<BaseConv>,
}

/// Fast basis conversion out of `Q = Π_{t∈S} q_t` for a run `S` of
/// consecutive context primes (a key-switching digit, or the special
/// primes): `x ↦ Σ_t [x_t·(Q/q_t)⁻¹]_{q_t}·(Q/q_t) mod p_j`. The result
/// is `[x]_Q + u·Q` with `0 ≤ u < |S|`; for a single prime it is the
/// plain lift `x_t mod p_j`.
#[derive(Debug)]
struct BaseConv {
    /// Context indices of the source primes.
    from: Range<usize>,
    /// `(Q/q_t)⁻¹ mod q_t` with its Shoup companion, per source prime.
    inv_hat: Vec<(u64, u64)>,
    /// `(Q/q_t) mod p_j` with its Shoup companion, `|S|` pairs per context
    /// prime `j` (zero on the source primes, which never convert into
    /// themselves).
    hat: Vec<(u64, u64)>,
    /// `Q mod p_j` per context prime.
    q_mod: Vec<u64>,
    /// `Q⁻¹ mod p_j` with its Shoup companion per context prime (zero on
    /// the source primes).
    q_inv: Vec<(u64, u64)>,
}

impl BaseConv {
    fn new(primes: &[u64], from: Range<usize>) -> BaseConv {
        let src = &primes[from.clone()];
        let shoup = |w: u64, p: u64| (w, shoup_precompute(w, p));
        let product_mod = |skip: Option<usize>, p: u64| {
            src.iter()
                .enumerate()
                .filter(|&(t, _)| Some(t) != skip)
                .fold(1 % p, |acc, (_, &q)| mulmod(acc, q % p, p))
        };
        let inv_hat = src
            .iter()
            .enumerate()
            .map(|(t, &q)| shoup(invmod(product_mod(Some(t), q), q), q))
            .collect();
        let mut hat = Vec::with_capacity(primes.len() * src.len());
        for (j, &p) in primes.iter().enumerate() {
            for t in 0..src.len() {
                hat.push(if from.contains(&j) {
                    (0, 0)
                } else {
                    shoup(product_mod(Some(t), p), p)
                });
            }
        }
        let q_mod: Vec<u64> = primes.iter().map(|&p| product_mod(None, p)).collect();
        let q_inv = q_mod
            .iter()
            .zip(primes)
            .enumerate()
            .map(|(j, (&qm, &p))| {
                if from.contains(&j) {
                    (0, 0)
                } else {
                    shoup(invmod(qm, p), p)
                }
            })
            .collect();
        BaseConv {
            from,
            inv_hat,
            hat,
            q_mod,
            q_inv,
        }
    }

    /// The `(Q/q_t) mod p_j` pairs for target prime `j`.
    fn hat_row(&self, j: usize) -> &[(u64, u64)] {
        let s = self.from.len();
        &self.hat[j * s..(j + 1) * s]
    }
}

/// The target-prime half of a fast basis conversion: `acc = Σ_t y_t·w_t`
/// over the source rows `y_t`, each with the Shoup pair of
/// `w_t = (Q/q_t) mod p` and `⌊q_t/2⌋`. The sum is a raw `u64` of lazy
/// Shoup products — any representative of the result, which the forward
/// NTT's lazy pre-twist takes unreduced. `CENTRED` lifts each `y_t` into
/// `(−q_t/2, q_t/2]`: a `y_t` above `⌊q_t/2⌋` also adds `neg_q ≡ −Q
/// (mod p)`; otherwise `⌊q_t/2⌋` and `neg_q` are unread. Each term is
/// below `2p` (`3p` centred), and a Barrett flush folds the sum back below
/// `p` before a run of terms could overflow.
fn conv_sum<'a, const CENTRED: bool>(
    acc: &mut [u64],
    m: Modulus,
    neg_q: u64,
    terms: impl Iterator<Item = (&'a [u64], (u64, u64), u64)>,
) {
    let bound = if CENTRED { 3 * m.p } else { m.twice_p };
    let max_run = (u64::MAX / bound).max(2);
    let mut run = 0;
    for (t, (ys, (w, ws), half)) in terms.enumerate() {
        let term = |y: u64| {
            let lazy = mul_shoup_lazy(y, w, ws, m.p);
            if CENTRED {
                lazy + (neg_q & u64::from(y > half).wrapping_neg())
            } else {
                lazy
            }
        };
        if t == 0 {
            for (a, &y) in acc.iter_mut().zip(ys) {
                *a = term(y);
            }
        } else {
            if run == max_run {
                for a in acc.iter_mut() {
                    *a = m.reduce_u64(*a);
                }
                run = 1;
            }
            for (a, &y) in acc.iter_mut().zip(ys) {
                *a += term(y);
            }
        }
        run += 1;
    }
}

/// Finds `count` NTT-friendly primes (`≡ 1 mod step`) as close to
/// `target` as possible, searching outward in both directions.
///
/// # Panics
///
/// Panics if the search space is exhausted.
#[must_use]
pub fn primes_near(target: u64, step: u64, count: usize) -> Vec<u64> {
    let mut found = Vec::with_capacity(count);
    let base = target - (target % step) + 1;
    let mut k = 0u64;
    while found.len() < count {
        for cand in [base + k * step, base.wrapping_sub(k * step)] {
            if cand > step && cand != 0 && is_prime(cand) && !found.contains(&cand) {
                found.push(cand);
                if found.len() == count {
                    break;
                }
            }
        }
        k += 1;
        assert!(k < 1 << 24, "prime search exhausted near {target}");
    }
    found
}

impl RnsContext {
    /// Builds a per-prime-digit context: `levels` 40-bit level primes plus
    /// a 59-bit base prime and one 59-bit special prime, for ring degree
    /// `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn new(n: usize, levels: usize) -> RnsContext {
        RnsContext::with_alpha(n, levels, 1)
    }

    /// Builds a context whose key-switching digits hold `alpha` level
    /// primes each, with the fewest 59–60-bit special primes whose bit
    /// lengths add up to at least the widest digit's. `alpha = 1` gives
    /// one special prime and the chain of [`RnsContext::new`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `alpha` is zero.
    #[must_use]
    pub(crate) fn with_alpha(n: usize, levels: usize, alpha: usize) -> RnsContext {
        assert!(n.is_power_of_two());
        assert!(alpha >= 1, "a digit holds at least one prime");
        let step = 2 * n as u64;
        // q₀ plus up to α special-prime candidates: a digit holds at most
        // one 59–60-bit prime and α−1 40–41-bit ones, so α special primes
        // always cover it. The search order is fixed, so the first two
        // are the chain's q₀ and P whatever the count.
        let big = primes_near(1 << 59, step, 1 + alpha);
        let mut primes = vec![big[0]];
        primes.extend(primes_near(1 << 40, step, levels));
        // Per-prime digits keep the chain's one special prime (q₀ and P
        // are both ≈ 2^59, either side of it).
        let bits = |q: &u64| 64 - q.leading_zeros();
        let widest: u32 = primes
            .chunks(alpha)
            .map(|g| g.iter().map(bits).sum())
            .max()
            .expect("at least the base prime");
        let mut k = 1;
        while alpha > 1 && big[1..=k].iter().map(bits).sum::<u32>() < widest {
            k += 1;
        }
        let special = primes.len();
        primes.extend_from_slice(&big[1..=k]);
        let tables = primes.iter().map(|&p| NttTable::shared(n, p)).collect();
        let moduli = primes.iter().map(|&p| Modulus::new(p)).collect();
        let mod_up = (0..special)
            .map(|e| BaseConv::new(&primes, e / alpha * alpha..e + 1))
            .collect();
        let mod_down = BaseConv::new(&primes, special..primes.len());
        let single = (0..special)
            .map(|j| BaseConv::new(&primes, j..j + 1))
            .collect();
        RnsContext {
            n,
            primes,
            special,
            alpha,
            tables,
            moduli,
            mod_up,
            mod_down,
            single,
        }
    }

    /// Number of residue limbs for a ciphertext at `level` (base + level
    /// primes).
    #[must_use]
    pub fn rows_at_level(&self, level: u32) -> usize {
        level as usize + 1
    }

    /// Context indices of the `k` special primes.
    #[must_use]
    pub fn special_primes(&self) -> Range<usize> {
        self.special..self.primes.len()
    }

    /// Number of key-switching digits over `rows` level primes:
    /// `⌈rows/α⌉`.
    #[must_use]
    pub fn digits_at(&self, rows: usize) -> usize {
        rows.div_ceil(self.alpha)
    }

    /// The level primes of digit `g` of a key switch over `rows` level
    /// primes: `q_{gα}…q_{min((g+1)α, rows)−1}`.
    #[must_use]
    pub fn digit_primes(&self, rows: usize, g: usize) -> Range<usize> {
        let start = g * self.alpha;
        start..rows.min(start + self.alpha)
    }

    /// `P mod q_j`, where `P` is the product of the special primes.
    #[must_use]
    pub fn special_product_mod(&self, j: usize) -> u64 {
        self.mod_down.q_mod[j]
    }
}

/// A borrowed residue row: the coefficients of one limb plus its prime.
#[derive(Debug, Clone, Copy)]
pub struct LimbRef<'a> {
    /// Position within the polynomial's basis.
    pub index: usize,
    /// The prime modulus of this limb.
    pub prime: u64,
    /// The `n` residues, canonical (`< prime`) at rest.
    pub coeffs: &'a [u64],
}

/// A mutable borrowed residue row. Exclusive by construction (`&mut`
/// provenance); see DESIGN.md §13 for the aliasing contract when views of
/// *different* polynomials feed one kernel.
#[derive(Debug)]
pub struct LimbMut<'a> {
    /// Position within the polynomial's basis.
    pub index: usize,
    /// The prime modulus of this limb.
    pub prime: u64,
    /// The `n` residues.
    pub coeffs: &'a mut [u64],
}

/// A cheap borrowed view of a whole polynomial — flat data, basis, and
/// form flag. `Copy`, so it can be passed by value through kernels.
#[derive(Debug, Clone, Copy)]
pub struct PolyView<'a> {
    data: &'a [u64],
    basis: &'a [usize],
    /// Whether the limbs are in NTT (evaluation) form.
    pub ntt: bool,
    n: usize,
}

impl<'a> PolyView<'a> {
    /// Number of residue limbs.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.basis.len()
    }

    /// Ring degree.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Prime indices (into the context) for each limb.
    #[must_use]
    pub fn basis(&self) -> &'a [usize] {
        self.basis
    }

    /// The raw coefficients of limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn limb(&self, i: usize) -> &'a [u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Limb `i` tagged with its prime.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn limb_ref(&self, ctx: &RnsContext, i: usize) -> LimbRef<'a> {
        LimbRef {
            index: i,
            prime: ctx.primes[self.basis[i]],
            coeffs: self.limb(i),
        }
    }

    /// Iterates the limbs as [`LimbRef`]s.
    pub fn limbs_iter(&self, ctx: &'a RnsContext) -> impl Iterator<Item = LimbRef<'a>> + '_ {
        (0..self.limbs()).map(move |i| self.limb_ref(ctx, i))
    }

    /// The underlying pointer range, for overlap debug-assertions.
    fn ptr_range(&self) -> Range<*const u64> {
        self.data.as_ptr_range()
    }
}

/// True when two half-open pointer ranges intersect.
fn ranges_overlap(a: &Range<*const u64>, b: &Range<*const u64>) -> bool {
    a.start < b.end && b.start < a.end
}

/// An RNS polynomial: one residue limb per prime of its basis, stored in
/// a single contiguous limb-major buffer (see the [module docs](self)).
///
/// The basis is a *prefix* of the context's level chain, optionally
/// extended by the special primes.
#[derive(Debug, PartialEq)]
pub struct RnsPoly {
    /// Flat limb-major storage (`basis.len() · n` elements).
    data: Vec<u64>,
    /// Ring degree.
    n: usize,
    /// Prime indices (into the context) for each limb.
    pub basis: Vec<usize>,
    /// Whether limbs are in NTT (evaluation) form.
    pub ntt: bool,
}

/// Deep copies go through the buffer pool, so only pool misses show up in
/// the [`crate::metrics`] allocation counter.
impl Clone for RnsPoly {
    fn clone(&self) -> RnsPoly {
        let mut data = acquire_buf_raw(self.data.len());
        data.copy_from_slice(&self.data);
        RnsPoly {
            data,
            n: self.n,
            basis: self.basis.clone(),
            ntt: self.ntt,
        }
    }
}

/// Dropped polynomials recycle their buffer into the process-wide pool.
impl Drop for RnsPoly {
    fn drop(&mut self) {
        release_buf(std::mem::take(&mut self.data));
    }
}

impl RnsPoly {
    /// The all-zero polynomial over `rows` level primes (+ the special
    /// primes).
    #[must_use]
    pub fn zero(ctx: &RnsContext, rows: usize, with_special: bool, ntt: bool) -> RnsPoly {
        let mut basis: Vec<usize> = (0..rows).collect();
        if with_special {
            basis.extend(ctx.special_primes());
        }
        RnsPoly::with_basis(ctx.n, basis, ntt)
    }

    /// The all-zero polynomial over an explicit basis (snapshot loading
    /// and internal constructors).
    pub(crate) fn with_basis(n: usize, basis: Vec<usize>, ntt: bool) -> RnsPoly {
        RnsPoly {
            data: acquire_buf(basis.len() * n),
            n,
            basis,
            ntt,
        }
    }

    /// A uniformly random polynomial (valid in either form). Draw order is
    /// limb-major — identical to the historical row-by-row order, so RNG
    /// replay streams are unchanged.
    #[must_use]
    pub fn uniform(
        ctx: &RnsContext,
        rows: usize,
        with_special: bool,
        ntt: bool,
        rng: &mut StdRng,
    ) -> RnsPoly {
        let mut p = RnsPoly::zero(ctx, rows, with_special, ntt);
        for i in 0..p.limbs() {
            let q = ctx.primes[p.basis[i]];
            for x in p.limb_slice_mut(i) {
                *x = rng.gen_range(0..q);
            }
        }
        p
    }

    /// Embeds signed integer coefficients into the basis (coefficient
    /// form).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    #[must_use]
    pub fn from_i64(ctx: &RnsContext, coeffs: &[i64], rows: usize, with_special: bool) -> RnsPoly {
        let wide: Vec<i128> = coeffs.iter().map(|&c| i128::from(c)).collect();
        RnsPoly::from_i128(ctx, &wide, rows, with_special)
    }

    /// Wide-coefficient variant of [`RnsPoly::from_i64`] (plaintexts at
    /// scale Δ² need ~80-bit coefficients).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    #[must_use]
    pub fn from_i128(
        ctx: &RnsContext,
        coeffs: &[i128],
        rows: usize,
        with_special: bool,
    ) -> RnsPoly {
        assert_eq!(coeffs.len(), ctx.n);
        let mut p = RnsPoly::zero(ctx, rows, with_special, false);
        let work = p.work();
        let n = p.n;
        let RnsPoly { data, basis, .. } = &mut p;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, work, |i, limb| {
            let q = ctx.primes[basis[i]] as i128;
            for (x, &c) in limb.iter_mut().zip(coeffs) {
                *x = (c.rem_euclid(q)) as u64;
            }
        });
        p
    }

    /// Ring degree.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of residue limbs.
    #[must_use]
    pub fn limbs(&self) -> usize {
        self.basis.len()
    }

    /// The raw coefficients of limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable raw coefficients of limb `i` (internal name avoids clashing
    /// with the [`LimbMut`]-returning accessor).
    fn limb_slice_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Limb `i` as a tagged mutable view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn limb_view_mut<'a>(&'a mut self, ctx: &RnsContext, i: usize) -> LimbMut<'a> {
        let prime = ctx.primes[self.basis[i]];
        LimbMut {
            index: i,
            prime,
            coeffs: self.limb_slice_mut(i),
        }
    }

    /// A borrowed view of the whole polynomial.
    #[must_use]
    pub fn view(&self) -> PolyView<'_> {
        PolyView {
            data: &self.data,
            basis: &self.basis,
            ntt: self.ntt,
            n: self.n,
        }
    }

    /// Total element count, the work measure for parallel dispatch.
    fn work(&self) -> usize {
        self.data.len()
    }

    /// Clone of the shape with an uninitialized-but-zeroed pooled buffer.
    fn like(&self) -> RnsPoly {
        RnsPoly {
            data: acquire_buf(self.data.len()),
            n: self.n,
            basis: self.basis.clone(),
            ntt: self.ntt,
        }
    }

    /// Converts to NTT form in place (limbs transform independently, in
    /// parallel when large enough).
    ///
    /// # Panics
    ///
    /// Panics if already in NTT form.
    pub fn to_ntt(&mut self, ctx: &RnsContext) {
        assert!(!self.ntt, "already in NTT form");
        metrics::count(Counter::NttForwardRows, self.limbs() as u64);
        let work = self.work();
        let n = self.n;
        let RnsPoly { data, basis, .. } = self;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, work, |i, limb| {
            ctx.tables[basis[i]].forward(limb);
        });
        self.ntt = true;
    }

    /// Converts to coefficient form in place.
    ///
    /// # Panics
    ///
    /// Panics if already in coefficient form.
    pub fn to_coeff(&mut self, ctx: &RnsContext) {
        assert!(self.ntt, "already in coefficient form");
        metrics::count(Counter::NttInverseRows, self.limbs() as u64);
        let work = self.work();
        let n = self.n;
        let RnsPoly { data, basis, .. } = self;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, work, |i, limb| {
            ctx.tables[basis[i]].inverse(limb);
        });
        self.ntt = false;
    }

    /// Builds a new polynomial from a per-limb binary kernel.
    fn zip_with(
        &self,
        other: &RnsPoly,
        ctx: &RnsContext,
        f: impl Fn(usize, u64, &[u64], &[u64], &mut [u64]) + Sync,
    ) -> RnsPoly {
        assert_eq!(self.basis, other.basis, "basis mismatch");
        assert_eq!(self.ntt, other.ntt, "form mismatch");
        let mut data = acquire_buf_raw(self.data.len());
        parallel::par_for_each_limb(&mut data, self.n, self.data.len(), |i, out| {
            let q = ctx.primes[self.basis[i]];
            f(i, q, self.limb(i), other.limb(i), out);
        });
        RnsPoly {
            data,
            n: self.n,
            basis: self.basis.clone(),
            ntt: self.ntt,
        }
    }

    /// Pointwise sum.
    #[must_use]
    pub fn add(&self, other: &RnsPoly, ctx: &RnsContext) -> RnsPoly {
        self.zip_with(other, ctx, |_, q, a, b, out| {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = addmod(x, y, q);
            }
        })
    }

    /// Pointwise difference.
    #[must_use]
    pub fn sub(&self, other: &RnsPoly, ctx: &RnsContext) -> RnsPoly {
        self.zip_with(other, ctx, |_, q, a, b, out| {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = submod(x, y, q);
            }
        })
    }

    /// Ring product (requires NTT form), through the precomputed Barrett
    /// constants.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are in NTT form over the same basis.
    #[must_use]
    pub fn mul(&self, other: &RnsPoly, ctx: &RnsContext) -> RnsPoly {
        assert!(self.ntt && other.ntt, "multiplication requires NTT form");
        self.zip_with(other, ctx, |i, _, a, b, out| {
            let m = ctx.moduli[self.basis[i]];
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = m.mul(x, y);
            }
        })
    }

    /// In-place pointwise sum: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on basis or form mismatch.
    pub fn add_assign(&mut self, other: &RnsPoly, ctx: &RnsContext) {
        assert_eq!(self.basis, other.basis, "basis mismatch");
        assert_eq!(self.ntt, other.ntt, "form mismatch");
        let work = self.work();
        let n = self.n;
        let RnsPoly { data, basis, .. } = self;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, work, |i, limb| {
            let q = ctx.primes[basis[i]];
            for (x, &y) in limb.iter_mut().zip(other.limb(i)) {
                *x = addmod(*x, y, q);
            }
        });
    }

    /// In-place pointwise multiply-accumulate: `self += a · b` — the
    /// tensor-product kernel for two *variable* operands, with the
    /// products reduced through the precomputed Barrett constants.
    ///
    /// # Panics
    ///
    /// Panics unless all three polynomials share one basis and are in NTT
    /// form (ring products require evaluation form).
    pub fn fma_assign(&mut self, a: &RnsPoly, b: &RnsPoly, ctx: &RnsContext) {
        assert!(
            self.ntt && a.ntt && b.ntt,
            "multiply-accumulate requires NTT form"
        );
        assert_eq!(self.basis, a.basis, "basis mismatch");
        assert_eq!(self.basis, b.basis, "basis mismatch");
        let work = self.work();
        let n = self.n;
        let RnsPoly { data, basis, .. } = self;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, work, |i, limb| {
            let m = ctx.moduli[basis[i]];
            for ((x, &ya), &yb) in limb.iter_mut().zip(a.limb(i)).zip(b.limb(i)) {
                *x = addmod(*x, m.mul(ya, yb), m.p);
            }
        });
    }

    /// Overwrites `self` with an index permutation of a borrowed view:
    /// `self.limb(i)[k] = src.limb(i)[perm[k]]` — the NTT-domain Galois
    /// automorphism (see [`crate::toy::ntt::automorphism_indices`]).
    ///
    /// The source view must not alias `self`'s buffer (debug-asserted; see
    /// DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics on basis mismatch or if `perm.len()` differs from the ring
    /// degree.
    pub fn permute_from_view(&mut self, src: PolyView<'_>, perm: &[usize]) {
        assert_eq!(self.basis.as_slice(), src.basis(), "basis mismatch");
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        debug_assert!(
            !ranges_overlap(&self.data.as_ptr_range(), &src.ptr_range()),
            "permute_from_view requires disjoint source and destination buffers"
        );
        let work = self.work();
        let n = self.n;
        let RnsPoly { data, .. } = self;
        parallel::par_for_each_limb(data, n, work, |i, limb| {
            let s = src.limb(i);
            for (x, &p) in limb.iter_mut().zip(perm) {
                *x = s[p];
            }
        });
        self.ntt = src.ntt;
    }

    /// Allocating variant of [`RnsPoly::permute_from_view`].
    #[must_use]
    pub fn permuted(&self, perm: &[usize]) -> RnsPoly {
        let mut out = self.like();
        out.ntt = self.ntt;
        out.permute_from_view(self.view(), perm);
        out
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self, ctx: &RnsContext) -> RnsPoly {
        let mut out = self.like();
        let n = self.n;
        parallel::par_for_each_limb(&mut out.data, n, self.data.len(), |i, limb| {
            let q = ctx.primes[self.basis[i]];
            for (o, &x) in limb.iter_mut().zip(self.limb(i)) {
                *o = if x == 0 { 0 } else { q - x };
            }
        });
        out
    }

    /// Multiplies by a per-basis scalar (e.g. CRT constants).
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the limb count.
    #[must_use]
    pub fn mul_scalar_rows(&self, scalars: &[u64], ctx: &RnsContext) -> RnsPoly {
        assert_eq!(scalars.len(), self.basis.len());
        let mut out = self.like();
        let n = self.n;
        parallel::par_for_each_limb(&mut out.data, n, self.data.len(), |i, limb| {
            let q = ctx.primes[self.basis[i]];
            let s = scalars[i];
            for (o, &x) in limb.iter_mut().zip(self.limb(i)) {
                *o = mulmod(x, s, q);
            }
        });
        out
    }

    /// Drops the top `k` level limbs (exact modulus switching: the hidden
    /// `⌊·/Q⌋` multiple vanishes because `Q_{l−k} | Q_l`).
    ///
    /// # Panics
    ///
    /// Panics if too few limbs remain.
    pub fn drop_top_rows(&mut self, k: usize) {
        assert!(self.limbs() > k, "cannot drop below one limb");
        let keep = self.limbs() - k;
        self.data.truncate(keep * self.n);
        self.basis.truncate(keep);
    }

    /// Exact RNS division by the product `P` of the top `k` primes, with
    /// rounding — the `rescale` kernel (`k = 1`, a level prime on top) and
    /// the key-switch ModDown (the `k` special primes on top). Drops the
    /// top `k` limbs and folds a lift `c ≡ x (mod P)` of them into the
    /// surviving limbs without leaving the evaluation domain: only the
    /// dropped limbs are inverse-transformed, and each survivor gets one
    /// forward NTT of its lifted correction instead of a full
    /// inverse/forward round trip (`k + (limbs−k)` rows instead of
    /// `limbs + (limbs−k)`).
    ///
    /// The lift is a fast basis conversion with centred terms:
    /// `c = Σ_t ȳ_t·(P/p_t)`, where `ȳ_t` is `[x_t·(P/p_t)⁻¹]_{p_t}` lifted
    /// into `(−p_t/2, p_t/2]`. So `|c| < k·P/2`, and the result
    /// `(x − c)/P` lies within `k` of `k` successive one-prime divisions
    /// (the unit tests' bound). At `k = 1` the lift is the centred residue
    /// itself: the centred-rounding division, bit for bit.
    ///
    /// Exact in the evaluation domain: the NTT is `Z_q`-linear and
    /// commutes with scalar multiplication, so
    /// `NTT((x − c)·P⁻¹) = (NTT(x) − NTT(c))·P⁻¹` holds exactly over
    /// canonical residues (the unit tests' oracle is the
    /// coefficient-domain division).
    ///
    /// # Panics
    ///
    /// Panics in coefficient form, with no limb left after the division,
    /// or when `k > 1` and the top `k` limbs are not the context's special
    /// primes.
    pub fn mod_down_top_ntt(&mut self, ctx: &RnsContext, k: usize) {
        assert!(self.ntt, "mod_down_top_ntt requires NTT form");
        assert!(k >= 1 && self.limbs() > k, "cannot divide away every limb");
        let n = self.n;
        let keep = self.limbs() - k;
        let dropped = self.basis.split_off(keep);
        let split = keep * n;
        let mut top = acquire_buf_raw(k * n);
        top.copy_from_slice(&self.data[split..]);
        for (row, &bi) in top.chunks_exact_mut(n).zip(&dropped) {
            ctx.tables[bi].inverse(row);
        }
        metrics::count(Counter::NttInverseRows, k as u64);
        metrics::count(Counter::NttForwardRows, keep as u64);
        self.data.truncate(split);
        let conv = if dropped.iter().copied().eq(ctx.special_primes()) {
            &ctx.mod_down
        } else {
            assert_eq!(k, 1, "a {k}-prime mod-down divides by the special primes");
            &ctx.single[dropped[0]]
        };
        // Scale each dropped row to y_t in place (one prime: y = x).
        if k > 1 {
            for ((row, &bi), &(w, ws)) in top.chunks_exact_mut(n).zip(&dropped).zip(&conv.inv_hat) {
                let p = ctx.primes[bi];
                for y in row.iter_mut() {
                    *y = mul_shoup(*y, w, ws, p);
                }
            }
        }
        let halves: Vec<u64> = dropped.iter().map(|&bi| ctx.primes[bi] / 2).collect();
        let top_ref: &[u64] = &top;
        let RnsPoly { data, basis, .. } = self;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, split, |i, limb| {
            let bi = basis[i];
            let m = ctx.moduli[bi];
            let q = m.p;
            let (p_inv, p_inv_shoup) = conv.q_inv[bi];
            let terms = top_ref
                .chunks_exact(n)
                .zip(conv.hat_row(bi))
                .zip(&halves)
                .map(|((ys, &w), &half)| (ys, w, half));
            let mut corr = acquire_buf_raw(n);
            // Centring ȳ_t = y_t − p_t adds −P to that term's product.
            conv_sum::<true>(&mut corr, m, q - conv.q_mod[bi], terms);
            ctx.tables[bi].forward(&mut corr);
            for (x, &u) in limb.iter_mut().zip(corr.iter()) {
                *x = mul_shoup(submod(*x, u, q), p_inv, p_inv_shoup, q);
            }
            release_buf(corr);
        });
        release_buf(top);
    }

    /// Reconstructs the centered integer coefficients from the first one
    /// or two limbs via CRT (valid while coefficients stay far below
    /// `q₀·q₁/2`, which plaintext+noise always does).
    ///
    /// # Panics
    ///
    /// Panics in NTT form.
    #[must_use]
    pub fn centered_coeffs(&self, ctx: &RnsContext) -> Vec<i128> {
        assert!(!self.ntt, "decode requires coefficient form");
        let q0 = ctx.primes[self.basis[0]];
        if self.limbs() == 1 {
            return self
                .limb(0)
                .iter()
                .map(|&x| {
                    if x > q0 / 2 {
                        i128::from(x) - i128::from(q0)
                    } else {
                        i128::from(x)
                    }
                })
                .collect();
        }
        let q1 = ctx.primes[self.basis[1]];
        let q0q1 = i128::from(q0) * i128::from(q1);
        let q0_inv = invmod(q0 % q1, q1);
        self.limb(0)
            .iter()
            .zip(self.limb(1))
            .map(|(&x0, &x1)| {
                // x = x0 + q0·((x1 − x0)·q0⁻¹ mod q1)
                let diff = submod(x1 % q1, x0 % q1, q1);
                let k = mulmod(diff, q0_inv, q1);
                let x = i128::from(x0) + i128::from(q0) * i128::from(k);
                if x > q0q1 / 2 {
                    x - q0q1
                } else {
                    x
                }
            })
            .collect()
    }
}

/// An NTT-resident polynomial paired with elementwise Shoup companions —
/// the storage format for key-switch key material, enabling the
/// two-multiply lazy key product in [`keyswitch_fused`].
#[derive(Debug, Clone)]
pub struct ShoupPoly {
    poly: RnsPoly,
    /// `⌊poly[i]·2^64 / q_i⌋`, same limb-major layout as `poly.data`.
    shoup: Vec<u64>,
}

impl ShoupPoly {
    /// Precomputes the companions for an NTT-form, at-rest-canonical
    /// polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is not in NTT form (key material is NTT-resident
    /// by design) or holds unreduced limbs.
    #[must_use]
    pub fn new(poly: RnsPoly, ctx: &RnsContext) -> ShoupPoly {
        assert!(poly.ntt, "key material must be NTT-resident");
        let n = poly.n;
        let mut shoup = vec![0u64; poly.data.len()];
        for i in 0..poly.limbs() {
            let q = ctx.primes[poly.basis[i]];
            for (s, &w) in shoup[i * n..(i + 1) * n].iter_mut().zip(poly.limb(i)) {
                *s = shoup_precompute(w, q);
            }
        }
        ShoupPoly { poly, shoup }
    }

    /// The underlying polynomial.
    #[must_use]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// Heap bytes held: the residues plus their Shoup companions.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.poly.data.len() + self.shoup.len()) * std::mem::size_of::<u64>()
    }

    /// The Shoup companions of limb `i`.
    fn shoup_limb(&self, i: usize) -> &[u64] {
        &self.shoup[i * self.poly.n..(i + 1) * self.poly.n]
    }
}

/// The hybrid (Han–Ki) gadget decomposition of one polynomial, all digits
/// in a single flat buffer (digit-major, each digit limb-major over the
/// extended basis `{q_0…q_l, p_0…p_{k−1}}`). Digit `g` is the input's
/// residue at `Q_g`, the product of the digit's `α` level primes (see
/// [`RnsContext::digit_primes`]), raised to the extended basis by fast
/// basis conversion (ModUp) and transformed to NTT form. This is the
/// Halevi–Shoup hoisting layout — every digit is raised and transformed
/// exactly once, then shared read-only by every key switch of the input
/// (one for relinearization, one per offset of a rotation batch). Views
/// are borrowed; the buffer recycles into the pool on drop.
#[derive(Debug)]
pub struct HoistedDigits {
    data: Vec<u64>,
    ext_basis: Vec<usize>,
    n: usize,
    digits: usize,
}

impl HoistedDigits {
    /// Decomposes `d` (level basis, either form) into `⌈rows/α⌉` digits.
    ///
    /// On the primes of digit `g` itself the raised digit is `d`'s own
    /// residue, so for NTT-form input its rows are the input's NTT rows,
    /// copied instead of recomputed. Every other limb gets the fast
    /// conversion `Σ_t [x_t·(Q_g/q_t)⁻¹]_{q_t}·(Q_g/q_t) mod p`, which is
    /// `[d]_{Q_g} + u·Q_g` with `0 ≤ u < α`. The extra multiple of `Q_g` is
    /// harmless: digit `g`'s key payload carries `Ê_g`, and
    /// `Q_g·Ê_g ≡ 0 (mod Q_l)`. With one prime per digit the conversion
    /// is the plain lift `x_j mod p`.
    ///
    /// The shared work — the inverse NTT of the input and the `y_t` rows —
    /// runs once. Digit rows stay in the `[0, 4p)` redundant form of
    /// [`NttTable::forward_redundant`]: their only consumers are the
    /// `mul_shoup_lazy` key products of [`keyswitch_fused`], whose single
    /// Barrett reduction canonicalizes any representative.
    ///
    /// # Panics
    ///
    /// Panics unless `d`'s basis is a prefix of the level primes.
    #[must_use]
    pub fn new(ctx: &RnsContext, d: &RnsPoly) -> HoistedDigits {
        metrics::count(Counter::DigitDecomposes, 1);
        let rows = d.limbs();
        assert!(
            d.basis.iter().copied().eq(0..rows),
            "digits decompose a level-basis polynomial"
        );
        let d_ntt = d.ntt.then_some(d);
        let mut d_coeff = d.clone();
        if d_coeff.ntt {
            d_coeff.to_coeff(ctx);
        }
        let n = d.n;
        let digits = ctx.digits_at(rows);
        let convs: Vec<&BaseConv> = (0..digits)
            .map(|g| &ctx.mod_up[ctx.digit_primes(rows, g).end - 1])
            .collect();
        // y_t = [x_t·(Q_g/q_t)⁻¹]_{q_t}, the half of every conversion that
        // does not depend on the target prime: one row per level prime.
        let mut y_rows = acquire_buf_raw(rows * n);
        parallel::par_for_each_limb(&mut y_rows, n, rows * n, |t, row| {
            let conv = convs[t / ctx.alpha];
            let (w, ws) = conv.inv_hat[t - conv.from.start];
            let q = ctx.primes[t];
            for (y, &x) in row.iter_mut().zip(d_coeff.limb(t)) {
                *y = mul_shoup(x, w, ws, q);
            }
        });
        let ext_basis: Vec<usize> = (0..rows).chain(ctx.special_primes()).collect();
        let ext = ext_basis.len();
        let mut data = acquire_buf_raw(digits * ext * n);
        let basis: &[usize] = &ext_basis;
        let ys: &[u64] = &y_rows;
        parallel::par_for_each_limb(&mut data, n, digits * ext * n, |idx, limb| {
            let conv = convs[idx / ext];
            let bi = basis[idx % ext];
            if conv.from.contains(&bi) {
                // An own prime: [d]_{Q_g} ≡ d (mod q_i), already reduced.
                if let Some(dn) = d_ntt {
                    limb.copy_from_slice(dn.limb(bi));
                    return;
                }
                limb.copy_from_slice(d_coeff.limb(bi));
            } else {
                let terms = conv
                    .from
                    .clone()
                    .zip(conv.hat_row(bi))
                    .map(|(t, &w)| (&ys[t * n..(t + 1) * n], w, 0));
                conv_sum::<false>(limb, ctx.moduli[bi], 0, terms);
            }
            ctx.tables[bi].forward_redundant(limb);
        });
        release_buf(y_rows);
        let transformed = (digits * ext - if d_ntt.is_some() { rows } else { 0 }) as u64;
        metrics::count(Counter::NttForwardRows, transformed);
        metrics::count(Counter::DigitNttRows, transformed);
        HoistedDigits {
            data,
            ext_basis,
            n,
            digits,
        }
    }

    /// Number of digits.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.digits
    }

    /// Digit `j` as a borrowed NTT-form view over the extended basis.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn digit(&self, j: usize) -> PolyView<'_> {
        assert!(j < self.digits, "digit index out of range");
        let ext = self.ext_basis.len();
        let span = ext * self.n;
        PolyView {
            data: &self.data[j * span..(j + 1) * span],
            basis: &self.ext_basis,
            ntt: true,
            n: self.n,
        }
    }
}

impl Drop for HoistedDigits {
    fn drop(&mut self) {
        release_buf(std::mem::take(&mut self.data));
    }
}

/// Fused key-switch inner product over hoisted digits: both accumulators
/// `(Σ_j d_j·b_j, Σ_j d_j·a_j)` are produced limb by limb in one pass
/// (each digit row is streamed once for both key products), and the
/// `2p`-redundant Shoup products are summed as **raw `u64`s** with a
/// single Barrett reduction per output element instead of one
/// canonicalization per digit. Runs longer than `⌊2^64/2p⌋` digits are
/// folded back below `p` by a mid-run Barrett flush, so the sum never
/// overflows.
///
/// Returns canonical NTT-form accumulators over the extended basis, equal
/// to the per-digit canonical inner product `Σ_j (d_j mod q)·k_j mod q`
/// (the unit tests' oracle).
///
/// With `perm`, digit rows are read through the NTT-domain automorphism
/// index map (`d[perm[k]]`, see [`crate::toy::ntt::automorphism_indices`])
/// — the hoisted-rotation inner product without materializing any
/// permuted digit.
///
/// Key rows are read by prime, not by position: the digits' level primes
/// must be a prefix of the keys' basis and the `k` special primes the last
/// limbs of both. Level limb `i` reads key row `i`, and special limb `t`
/// reads the key's special row `t`. A key generated over a longer level
/// chain therefore serves a lower level in place, with no restricted copy.
///
/// # Panics
///
/// Panics if the key count mismatches the digit count, the keys do not
/// share one basis covering the digits' extended basis, a permutation
/// has the wrong length, or the no-overflow bound fails.
#[must_use]
pub fn keyswitch_fused(
    digits: &HoistedDigits,
    keys: &[(&ShoupPoly, &ShoupPoly)],
    perm: Option<&[usize]>,
    ctx: &RnsContext,
) -> (RnsPoly, RnsPoly) {
    let nd = digits.digits();
    assert_eq!(keys.len(), nd, "one key pair per digit");
    assert!(nd >= 1, "at least one digit");
    let n = digits.n;
    let ext = digits.ext_basis.len();
    let basis: &[usize] = &digits.ext_basis;
    let key_basis: &[usize] = &keys[0].0.poly.basis;
    let rows = ext - ctx.special_primes().len();
    let (level_primes, special) = basis.split_at(rows);
    assert!(
        key_basis.starts_with(level_primes) && key_basis.ends_with(special),
        "key basis {key_basis:?} does not cover the digit basis {basis:?}"
    );
    for (kb, ka) in keys {
        assert_eq!(kb.poly.basis, key_basis, "key basis mismatch");
        assert_eq!(ka.poly.basis, key_basis, "key basis mismatch");
    }
    // Level limbs read their own key row; the special limbs read the
    // key's special suffix.
    let key_skip = key_basis.len() - ext;
    let key_row = |i: usize| if i < rows { i } else { i + key_skip };
    if let Some(p) = perm {
        assert_eq!(p.len(), n, "permutation length mismatch");
    }
    // Paired layout: chunk `i` holds [acc0 limb i | acc1 limb i], so one
    // job owns both output rows for its limb. The buffer is unzeroed;
    // digit 0 stores, later digits accumulate.
    let mut both = acquire_buf_raw(2 * ext * n);
    parallel::par_for_each_limb(&mut both, 2 * n, 2 * ext * n, |i, pair| {
        let m = ctx.moduli[basis[i]];
        let q = m.p;
        let (r0, r1) = pair.split_at_mut(n);
        // Overflow-free run length: `max_run` products of `< 2q` each fit
        // a `u64` sum. 59-bit primes allow 15 digits per run; when the
        // digit count exceeds it, a mid-run Barrett flush folds the sums
        // back below `q` (any representative of the partial sum is valid,
        // so bit-identity of the canonical result is unaffected).
        let max_run = (u64::MAX / (2 * q)).max(2) as usize;
        let mut run = 0usize;
        let ki = key_row(i);
        for (j, (kb, ka)) in keys.iter().enumerate() {
            let d = &digits.digit(j).limb(i)[..n];
            let b = &kb.poly.limb(ki)[..n];
            let bs = &kb.shoup_limb(ki)[..n];
            let a = &ka.poly.limb(ki)[..n];
            let asp = &ka.shoup_limb(ki)[..n];
            match (j == 0, perm) {
                (true, None) => {
                    for k in 0..n {
                        let yd = d[k];
                        r0[k] = mul_shoup_lazy(yd, b[k], bs[k], q);
                        r1[k] = mul_shoup_lazy(yd, a[k], asp[k], q);
                    }
                }
                (true, Some(p)) => {
                    for k in 0..n {
                        let yd = d[p[k]];
                        r0[k] = mul_shoup_lazy(yd, b[k], bs[k], q);
                        r1[k] = mul_shoup_lazy(yd, a[k], asp[k], q);
                    }
                }
                (false, None) => {
                    for k in 0..n {
                        let yd = d[k];
                        r0[k] += mul_shoup_lazy(yd, b[k], bs[k], q);
                        r1[k] += mul_shoup_lazy(yd, a[k], asp[k], q);
                    }
                }
                (false, Some(p)) => {
                    for k in 0..n {
                        let yd = d[p[k]];
                        r0[k] += mul_shoup_lazy(yd, b[k], bs[k], q);
                        r1[k] += mul_shoup_lazy(yd, a[k], asp[k], q);
                    }
                }
            }
            run += 1;
            if run == max_run && j + 1 < nd {
                for x in r0.iter_mut() {
                    *x = m.reduce_u64(*x);
                }
                for x in r1.iter_mut() {
                    *x = m.reduce_u64(*x);
                }
                // The flushed value (< q) occupies one product slot.
                run = 1;
            }
        }
        for x in r0.iter_mut() {
            *x = m.reduce_u64(*x);
        }
        for x in r1.iter_mut() {
            *x = m.reduce_u64(*x);
        }
        metrics::count(Counter::LazyReductionsSkipped, 2 * (n * nd) as u64);
    });
    let mut d0 = acquire_buf_raw(ext * n);
    let mut d1 = acquire_buf_raw(ext * n);
    for i in 0..ext {
        d0[i * n..(i + 1) * n].copy_from_slice(&both[2 * i * n..(2 * i + 1) * n]);
        d1[i * n..(i + 1) * n].copy_from_slice(&both[(2 * i + 1) * n..2 * (i + 1) * n]);
    }
    release_buf(both);
    let mk = |data| RnsPoly {
        data,
        n,
        basis: digits.ext_basis.clone(),
        ntt: true,
    };
    (mk(d0), mk(d1))
}

/// Asserts that every limb of a coefficient-form polynomial holds the
/// same integer in `[-bound, bound]` at each position. Exact: such an
/// integer is fixed by any one of its residues, so agreement on every
/// limb pins the CRT value.
#[cfg(test)]
pub(crate) fn assert_small_coeffs(p: &RnsPoly, ctx: &RnsContext, bound: i64) {
    assert!(!p.ntt);
    let centered = |x: u64, q: u64| {
        if x > q / 2 {
            -i64::try_from(q - x).unwrap()
        } else {
            i64::try_from(x).unwrap()
        }
    };
    let q0 = ctx.primes[p.basis[0]];
    let first: Vec<i64> = p.limb(0).iter().map(|&x| centered(x, q0)).collect();
    for (k, &v) in first.iter().enumerate() {
        assert!((-bound..=bound).contains(&v), "coefficient {k} = {v}");
    }
    for i in 1..p.limbs() {
        let q = ctx.primes[p.basis[i]];
        for (k, (&x, &v)) in p.limb(i).iter().zip(&first).enumerate() {
            assert_eq!(centered(x, q), v, "coefficient {k}, limb {i}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> RnsContext {
        RnsContext::new(32, 4)
    }

    /// Coefficient-domain division by the top prime with centered
    /// rounding — the textbook RNS rescale, and the oracle for
    /// [`RnsPoly::mod_down_top_ntt`].
    fn rescale_by_top(p: &mut RnsPoly, ctx: &RnsContext) {
        assert!(!p.ntt, "rescale requires coefficient form");
        assert!(p.limbs() >= 2);
        let n = p.n;
        let q_top = ctx.primes[p.basis.pop().expect("non-empty")];
        let split = p.data.len() - n;
        let (body, top) = p.data.split_at_mut(split);
        for (limb, &bi) in body.chunks_exact_mut(n).zip(&p.basis) {
            let q = ctx.primes[bi];
            let q_top_inv = invmod(q_top % q, q);
            for (x, &t) in limb.iter_mut().zip(top.iter()) {
                // Centered lift of the top residue into this prime.
                let t_centered = if t > q_top / 2 {
                    submod(t % q, q_top % q, q)
                } else {
                    t % q
                };
                *x = mulmod(submod(*x, t_centered, q), q_top_inv, q);
            }
        }
        p.data.truncate(split);
    }

    #[test]
    fn context_prime_chain() {
        let c = ctx();
        assert_eq!(c.primes.len(), 6, "base + 4 levels + special");
        assert!(c.primes[0] > 1 << 58);
        assert!(c.primes[c.special] > 1 << 58);
        for &q in &c.primes[1..=4] {
            assert!(q > (1 << 40) - (1 << 25) && q < (1 << 40) + (1 << 25));
        }
        // All distinct, with aligned Barrett constants.
        let mut sorted = c.primes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert_eq!(c.moduli.len(), c.primes.len());
        for (m, &p) in c.moduli.iter().zip(&c.primes) {
            assert_eq!(m.p, p);
        }
    }

    #[test]
    fn from_i64_and_centered_roundtrip() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..32).map(|i| (i - 16) * 1_000_003).collect();
        let p = RnsPoly::from_i64(&c, &coeffs, 3, false);
        let back = p.centered_coeffs(&c);
        for (a, b) in coeffs.iter().zip(&back) {
            assert_eq!(i128::from(*a), *b);
        }
    }

    #[test]
    fn ntt_roundtrip_and_ring_mul() {
        let c = ctx();
        // (1 + X) · (1 − X) = 1 − X².
        let mut a_coeffs = vec![0i64; 32];
        a_coeffs[0] = 1;
        a_coeffs[1] = 1;
        let mut b_coeffs = vec![0i64; 32];
        b_coeffs[0] = 1;
        b_coeffs[1] = -1;
        let mut a = RnsPoly::from_i64(&c, &a_coeffs, 2, false);
        let mut b = RnsPoly::from_i64(&c, &b_coeffs, 2, false);
        a.to_ntt(&c);
        b.to_ntt(&c);
        let mut prod = a.mul(&b, &c);
        prod.to_coeff(&c);
        let got = prod.centered_coeffs(&c);
        assert_eq!(got[0], 1);
        assert_eq!(got[1], 0);
        assert_eq!(got[2], -1);
        assert!(got[3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn rescale_divides_by_top_prime() {
        let c = ctx();
        let q_top = c.primes[2]; // limbs = 3 → top is index 2
                                 // Encode q_top · 7 so the division is exact.
        let coeffs: Vec<i64> = (0..32)
            .map(|i| if i == 0 { (q_top as i64) * 7 } else { 0 })
            .collect();
        let mut p = RnsPoly::from_i64(&c, &coeffs, 3, false);
        rescale_by_top(&mut p, &c);
        assert_eq!(p.limbs(), 2);
        let got = p.centered_coeffs(&c);
        assert_eq!(got[0], 7);
    }

    #[test]
    fn rescale_rounds_inexact_values_within_one() {
        let c = ctx();
        let q_top = c.primes[2] as i64;
        let val = q_top * 3 + 12_345; // not divisible
        let mut coeffs = vec![0i64; 32];
        coeffs[0] = val;
        let mut p = RnsPoly::from_i64(&c, &coeffs, 3, false);
        rescale_by_top(&mut p, &c);
        let got = p.centered_coeffs(&c)[0];
        assert!((got - 3).abs() <= 1, "got {got}");
    }

    #[test]
    fn mod_down_top_ntt_matches_coefficient_domain_division() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(41);
        // The special prime on top (key-switch mod-down), then a level
        // prime on top (rescale).
        for (rows, with_special) in [(3, true), (1, true), (4, false), (2, false)] {
            let x = RnsPoly::uniform(&c, rows, with_special, true, &mut rng);
            let mut want = x.clone();
            want.to_coeff(&c);
            rescale_by_top(&mut want, &c);
            want.to_ntt(&c);
            let mut got = x;
            got.mod_down_top_ntt(&c, 1);
            assert_eq!(got, want, "{rows} rows, special on top: {with_special}");
        }
    }

    #[test]
    fn special_primes_are_the_fewest_that_cover_the_widest_digit() {
        let bits = |q: u64| 64 - q.leading_zeros();
        let per_prime = RnsContext::new(64, 16);
        for alpha in 1..=5 {
            let c = RnsContext::with_alpha(64, 16, alpha);
            assert_eq!(c.alpha, alpha);
            // q₀, the level primes and the first special prime never move.
            assert_eq!(c.primes[..=c.special], per_prime.primes[..]);
            let k = c.special_primes().len();
            let widest = c.primes[..c.special]
                .chunks(alpha)
                .map(|g| g.iter().map(|&q| bits(q)).sum::<u32>())
                .max()
                .unwrap();
            let covered = |k: usize| {
                c.primes[c.special..c.special + k]
                    .iter()
                    .map(|&q| bits(q))
                    .sum::<u32>()
            };
            if alpha == 1 {
                assert_eq!(k, 1, "per-prime digits keep one special prime");
            } else {
                assert!(
                    covered(k) >= widest && covered(k - 1) < widest,
                    "α = {alpha}"
                );
            }
            assert_eq!(c.digits_at(17), 17usize.div_ceil(alpha));
            assert_eq!(c.digit_primes(17, 17 / alpha), 17 / alpha * alpha..17);
        }
    }

    #[test]
    fn mod_down_over_k_special_primes_stays_within_k_of_k_one_prime_divisions() {
        let mut rng = StdRng::seed_from_u64(43);
        for alpha in [2, 3] {
            let c = RnsContext::with_alpha(32, 4, alpha);
            let k = c.special_primes().len();
            assert_eq!(k, alpha, "32-degree chain, α = {alpha}");
            for rows in [1, 3, 5] {
                let x = RnsPoly::uniform(&c, rows, true, true, &mut rng);
                let mut want = x.clone();
                want.to_coeff(&c);
                for _ in 0..k {
                    rescale_by_top(&mut want, &c);
                }
                want.to_ntt(&c);
                let mut got = x;
                got.mod_down_top_ntt(&c, k);
                assert_eq!(got.basis, want.basis);
                let mut diff = got.sub(&want, &c);
                diff.to_coeff(&c);
                assert_small_coeffs(&diff, &c, k as i64);
            }
        }
    }

    #[test]
    fn conv_sum_matches_modular_sums_past_the_flush_point() {
        // Forty terms into the chain's largest (≈ 2^59) prime: more than
        // the ⌊2^64/2p⌋ plain or ⌊2^64/3p⌋ centred terms a `u64` holds,
        // so the result is only exact if the Barrett flush fires.
        let c = RnsContext::with_alpha(32, 4, 3);
        let j = (0..c.primes.len()).max_by_key(|&j| c.primes[j]).unwrap();
        let (m, p) = (c.moduli[j], c.primes[j]);
        assert!(40 > u64::MAX / m.twice_p);
        let mut rng = StdRng::seed_from_u64(5);
        let terms: Vec<(Vec<u64>, u64, u64)> = (0..40)
            .map(|t| {
                let q = c.primes[t % c.primes.len()];
                let ys = (0..c.n).map(|_| rng.gen_range(0..q)).collect();
                (ys, rng.gen_range(0..p), q / 2)
            })
            .collect();
        let neg_q = rng.gen_range(0..p);
        let feed = || {
            terms
                .iter()
                .map(|(ys, w, half)| (&ys[..], (*w, shoup_precompute(*w, p)), *half))
        };
        let mut plain = vec![0; c.n];
        conv_sum::<false>(&mut plain, m, neg_q, feed());
        let mut centred = vec![0; c.n];
        conv_sum::<true>(&mut centred, m, neg_q, feed());
        for k in 0..c.n {
            let (mut want_plain, mut want_centred) = (0, 0);
            for (ys, w, half) in &terms {
                let prod = mulmod(ys[k] % p, *w, p);
                want_plain = addmod(want_plain, prod, p);
                let lift = if ys[k] > *half { neg_q } else { 0 };
                want_centred = addmod(want_centred, addmod(prod, lift, p), p);
            }
            assert_eq!(m.reduce_u64(plain[k]), want_plain, "plain, coefficient {k}");
            assert_eq!(
                m.reduce_u64(centred[k]),
                want_centred,
                "centred, coefficient {k}"
            );
        }
    }

    #[test]
    fn drop_top_rows_preserves_small_values() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..32).map(|i| i * 17 - 100).collect();
        let mut p = RnsPoly::from_i64(&c, &coeffs, 4, false);
        p.drop_top_rows(2);
        let got = p.centered_coeffs(&c);
        for (a, b) in coeffs.iter().zip(&got) {
            assert_eq!(i128::from(*a), *b);
        }
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let a = RnsPoly::uniform(&c, 3, true, true, &mut rng);
        let b = RnsPoly::uniform(&c, 3, true, true, &mut rng);
        let d = RnsPoly::uniform(&c, 3, true, true, &mut rng);
        let mut x = a.clone();
        x.add_assign(&b, &c);
        assert_eq!(x, a.add(&b, &c));
        let mut y = a.clone();
        y.fma_assign(&b, &d, &c);
        assert_eq!(y, a.add(&b.mul(&d, &c), &c));
    }

    #[test]
    fn views_expose_limbs_and_primes() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(21);
        let p = RnsPoly::uniform(&c, 3, true, false, &mut rng);
        let v = p.view();
        assert_eq!(v.limbs(), 4);
        assert_eq!(v.n(), c.n);
        assert!(!v.ntt);
        for (i, limb) in v.limbs_iter(&c).enumerate() {
            assert_eq!(limb.index, i);
            assert_eq!(limb.prime, c.primes[p.basis[i]]);
            assert_eq!(limb.coeffs, p.limb(i));
            assert!(limb.coeffs.iter().all(|&x| x < limb.prime));
        }
        let mut p = p;
        let lm = p.limb_view_mut(&c, 2);
        assert_eq!(lm.index, 2);
        assert_eq!(lm.prime, c.primes[2]);
        assert_eq!(lm.coeffs.len(), c.n);
    }

    #[test]
    fn hoisted_digits_match_a_hand_lift() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(33);
        let d_coeff = RnsPoly::uniform(&c, 3, false, false, &mut rng);
        let mut d_ntt = d_coeff.clone();
        d_ntt.to_ntt(&c);
        let ext = [0, 1, 2, c.special];
        for input in [&d_ntt, &d_coeff] {
            let hoisted = HoistedDigits::new(&c, input);
            assert_eq!(hoisted.digits(), 3);
            for j in 0..3 {
                let digit = hoisted.digit(j);
                assert!(digit.ntt);
                assert_eq!(digit.basis(), ext.as_slice());
                for (i, &bi) in ext.iter().enumerate() {
                    // Residue row j reduced into q_i, then transformed.
                    let q = c.primes[bi];
                    let mut want: Vec<u64> = d_coeff.limb(j).iter().map(|&v| v % q).collect();
                    c.tables[bi].forward(&mut want);
                    // Digit rows may stay 4q-redundant: compare residues.
                    let got = digit.limb(i);
                    assert!(got.iter().all(|&x| x < 4 * q), "digit {j} limb {i} >= 4q");
                    let got: Vec<u64> = got.iter().map(|&x| x % q).collect();
                    assert_eq!(got, want, "digit {j} limb {i}, NTT input: {}", input.ntt);
                }
            }
        }
    }

    /// `Σ_j (d_j mod q)·k_j mod q` limb by limb, one canonical product and
    /// sum at a time — the textbook key-switch inner product, with digit
    /// rows optionally read through an automorphism index map.
    fn inner_product(
        digits: &HoistedDigits,
        keys: &[&ShoupPoly],
        perm: Option<&[usize]>,
        ctx: &RnsContext,
    ) -> RnsPoly {
        let mut acc = RnsPoly::with_basis(digits.n, digits.ext_basis.clone(), true);
        for i in 0..acc.limbs() {
            let q = ctx.primes[acc.basis[i]];
            let out = acc.limb_slice_mut(i);
            for (j, key) in keys.iter().enumerate() {
                let d = digits.digit(j).limb(i);
                let kw = key.poly.limb(i);
                for (k, o) in out.iter_mut().enumerate() {
                    let dk = d[perm.map_or(k, |p| p[k])] % q;
                    *o = addmod(*o, mulmod(dk, kw[k], q), q);
                }
            }
        }
        acc
    }

    #[test]
    fn keyswitch_fused_matches_the_per_digit_inner_product() {
        // 100 digits: on the 59-bit base and special limbs the raw sums
        // outgrow a u64 after about 64 lazy products, so the result is
        // only exact if the mid-run Barrett flush fires.
        let c = RnsContext::new(32, 99);
        let mut rng = StdRng::seed_from_u64(99);
        let d = RnsPoly::uniform(&c, 100, false, true, &mut rng);
        let digits = HoistedDigits::new(&c, &d);
        assert_eq!(digits.digits(), 100);
        let mut keys = Vec::with_capacity(100);
        for _ in 0..100 {
            let b = ShoupPoly::new(RnsPoly::uniform(&c, 100, true, true, &mut rng), &c);
            let a = ShoupPoly::new(RnsPoly::uniform(&c, 100, true, true, &mut rng), &c);
            keys.push((b, a));
        }
        let pairs: Vec<(&ShoupPoly, &ShoupPoly)> = keys.iter().map(|(b, a)| (b, a)).collect();
        let b_keys: Vec<&ShoupPoly> = keys.iter().map(|(b, _)| b).collect();
        let a_keys: Vec<&ShoupPoly> = keys.iter().map(|(_, a)| a).collect();
        let perm = crate::toy::ntt::automorphism_indices(c.n, 5);
        for perm in [None, Some(perm.as_slice())] {
            let (acc0, acc1) = keyswitch_fused(&digits, &pairs, perm, &c);
            let tag = if perm.is_some() { "with" } else { "without" };
            assert_eq!(
                acc0,
                inner_product(&digits, &b_keys, perm, &c),
                "b half, {tag} automorphism"
            );
            assert_eq!(
                acc1,
                inner_product(&digits, &a_keys, perm, &c),
                "a half, {tag} automorphism"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not cover the digit basis")]
    fn keyswitch_fused_rejects_a_key_that_misses_a_digit_prime() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let d = RnsPoly::uniform(&c, 3, false, true, &mut rng);
        let digits = HoistedDigits::new(&c, &d);
        // Keys over {q_0, q_1, P} cannot serve digits over {q_0…q_2, P}.
        let key = ShoupPoly::new(RnsPoly::uniform(&c, 2, true, true, &mut rng), &c);
        let _ = keyswitch_fused(&digits, &[(&key, &key); 3], None, &c);
    }

    /// `[x]_Q mod p` for `Q = Π primes`, from the residues of `x` at those
    /// primes, by Garner's mixed-radix CRT: `[x]_Q = Σ_i a_i·Π_{l<i} q_l`
    /// with `a_i < q_i`, every step modular, so no big integers.
    fn exact_residue_mod(residues: &[u64], primes: &[u64], p: u64) -> u64 {
        let mut mixed: Vec<u64> = Vec::with_capacity(primes.len());
        for (&x, &q) in residues.iter().zip(primes) {
            let (mut prefix, mut radix) = (0, 1 % q);
            for (&a, &ql) in mixed.iter().zip(primes) {
                prefix = addmod(prefix, mulmod(a % q, radix, q), q);
                radix = mulmod(radix, ql % q, q);
            }
            mixed.push(mulmod(submod(x, prefix, q), invmod(radix, q), q));
        }
        let (mut v, mut radix) = (0, 1 % p);
        for (&a, &q) in mixed.iter().zip(primes) {
            v = addmod(v, mulmod(a % p, radix, p), p);
            radix = mulmod(radix, q % p, p);
        }
        v
    }

    /// `[d]_{Q_g} + u·Q_g` over `basis`, coefficient form, for the level
    /// primes `group` of one digit and one `u` per coefficient.
    fn raise_exactly(
        c: &RnsContext,
        d_coeff: &RnsPoly,
        group: Range<usize>,
        basis: &[usize],
        u: &[u64],
    ) -> RnsPoly {
        let primes: Vec<u64> = group.clone().map(|t| c.primes[t]).collect();
        let mut out = RnsPoly::with_basis(c.n, basis.to_vec(), false);
        for (i, &bi) in basis.iter().enumerate() {
            let p = c.primes[bi];
            let q_g = primes.iter().fold(1 % p, |a, &q| mulmod(a, q % p, p));
            for (k, x) in out.limb_slice_mut(i).iter_mut().enumerate() {
                let residues: Vec<u64> = group.clone().map(|t| d_coeff.limb(t)[k]).collect();
                let exact = exact_residue_mod(&residues, &primes, p);
                *x = addmod(exact, mulmod(u[k], q_g, p), p);
            }
        }
        out
    }

    /// Digit `g` of the slab as a canonical coefficient-form polynomial.
    fn digit_coeffs(c: &RnsContext, digits: &HoistedDigits, g: usize) -> RnsPoly {
        let view = digits.digit(g);
        let mut out = RnsPoly::with_basis(c.n, view.basis().to_vec(), true);
        for i in 0..view.limbs() {
            let q = c.primes[view.basis()[i]];
            for (x, &v) in out.limb_slice_mut(i).iter_mut().zip(view.limb(i)) {
                *x = v % q;
            }
        }
        out.to_coeff(c);
        out
    }

    #[test]
    fn hybrid_keyswitch_matches_a_textbook_inner_product_over_exact_digits() {
        let mut rng = StdRng::seed_from_u64(77);
        for alpha in [2, 3] {
            let c = RnsContext::with_alpha(32, 4, alpha);
            let specials: Vec<usize> = c.special_primes().collect();
            // A top-level key chain over {q_0…q_4, p_0…p_{k−1}}.
            let keys: Vec<(ShoupPoly, ShoupPoly)> = (0..c.digits_at(5))
                .map(|_| {
                    let mut key =
                        || ShoupPoly::new(RnsPoly::uniform(&c, 5, true, true, &mut rng), &c);
                    (key(), key())
                })
                .collect();
            let mut nonzero_u = false;
            // Five rows end in a partial digit at α = 2 and α = 3; four
            // rows end in a partial one at α = 3.
            for rows in [5, 4] {
                let d = RnsPoly::uniform(&c, rows, false, true, &mut rng);
                let mut d_coeff = d.clone();
                d_coeff.to_coeff(&c);
                let basis: Vec<usize> = (0..rows).chain(specials.iter().copied()).collect();
                let digits = HoistedDigits::new(&c, &d);
                let nd = rows.div_ceil(alpha);
                assert_eq!(digits.digits(), nd);
                let mut raised = Vec::with_capacity(nd);
                for g in 0..nd {
                    let group = g * alpha..rows.min((g + 1) * alpha);
                    let fast = digit_coeffs(&c, &digits, g);
                    // Read u off the first special limb (outside every
                    // digit), where fast − exact must be u·Q_g, 0 ≤ u < α.
                    let first =
                        raise_exactly(&c, &d_coeff, group.clone(), &specials[..1], &vec![0; c.n]);
                    let p = c.primes[specials[0]];
                    let q_g = group
                        .clone()
                        .fold(1 % p, |a, t| mulmod(a, c.primes[t] % p, p));
                    let at = basis.len() - specials.len();
                    let u: Vec<u64> = (0..c.n)
                        .map(|k| {
                            let diff = submod(fast.limb(at)[k], first.limb(0)[k], p);
                            (0..alpha as u64)
                                .find(|&u| mulmod(u, q_g, p) == diff)
                                .unwrap_or_else(|| {
                                    panic!(
                                        "α = {alpha}, digit {g}, coefficient {k}: not [d]_Q + u·Q"
                                    )
                                })
                        })
                        .collect();
                    nonzero_u |= u.iter().any(|&u| u > 0);
                    // The same u on every limb, own primes included.
                    let exact = raise_exactly(&c, &d_coeff, group, &basis, &u);
                    assert_eq!(fast, exact, "α = {alpha}, {rows} rows, digit {g}");
                    raised.push(exact);
                }
                // Textbook inner product over the exact digits, key rows
                // read by prime: level limb i ↦ row i, special t ↦ row 5+t.
                let pairs: Vec<(&ShoupPoly, &ShoupPoly)> =
                    keys[..nd].iter().map(|(b, a)| (b, a)).collect();
                let (acc0, acc1) = keyswitch_fused(&digits, &pairs, None, &c);
                for (half, acc) in [(0, acc0), (1, acc1)] {
                    let mut want = RnsPoly::with_basis(c.n, basis.clone(), true);
                    for (digit, (kb, ka)) in raised.iter().zip(&keys) {
                        let mut digit = digit.clone();
                        digit.to_ntt(&c);
                        let key = if half == 0 { kb } else { ka };
                        for (i, &bi) in basis.iter().enumerate() {
                            let row = key.poly().basis.iter().position(|&x| x == bi).unwrap();
                            let q = c.primes[bi];
                            let kw = key.poly().limb(row);
                            for (k, o) in want.limb_slice_mut(i).iter_mut().enumerate() {
                                *o = addmod(*o, mulmod(digit.limb(i)[k], kw[k], q), q);
                            }
                        }
                    }
                    assert_eq!(acc, want, "α = {alpha}, {rows} rows, half {half}");
                }
            }
            assert!(nonzero_u, "α = {alpha}: some digit must overshoot by u ≥ 1");
        }
    }

    #[test]
    fn uniform_differs_between_draws() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let a = RnsPoly::uniform(&c, 2, false, true, &mut rng);
        let b = RnsPoly::uniform(&c, 2, false, true, &mut rng);
        assert_ne!(a, b);
    }
}
