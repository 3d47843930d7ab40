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
//! asserts.
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

use crate::metrics;
use crate::parallel;
use crate::toy::modular::{
    addmod, invmod, is_prime, mul_shoup_lazy, mulmod, shoup_precompute, submod, Modulus,
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
            metrics::count_pool_reuse();
            buf
        }
        None => {
            metrics::count_poly_alloc();
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
/// instance: the prime chain `[q₀ (base), q₁…q_L (level primes), P
/// (special)]`, their NTT tables, and Barrett constants.
#[derive(Debug)]
pub struct RnsContext {
    /// Ring degree.
    pub n: usize,
    /// The prime chain (base, levels…, special last).
    pub primes: Vec<u64>,
    /// Index of the special prime (always `primes.len() − 1`).
    pub special: usize,
    /// NTT tables, aligned with `primes` (shared process-wide per
    /// `(n, p)` via [`NttTable::shared`]).
    pub tables: Vec<Arc<NttTable>>,
    /// Barrett constants, aligned with `primes` — the variable×variable
    /// reduction of the pointwise products.
    pub moduli: Vec<Modulus>,
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
    /// Builds a context with `levels` 40-bit level primes plus a 59-bit
    /// base prime and a 59-bit special prime, for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn new(n: usize, levels: usize) -> RnsContext {
        assert!(n.is_power_of_two());
        let step = 2 * n as u64;
        let big = primes_near(1 << 59, step, 2);
        let level_primes = primes_near(1 << 40, step, levels);
        let mut primes = vec![big[0]];
        primes.extend(level_primes);
        primes.push(big[1]);
        let tables = primes.iter().map(|&p| NttTable::shared(n, p)).collect();
        let moduli = primes.iter().map(|&p| Modulus::new(p)).collect();
        RnsContext {
            n,
            primes,
            special: levels + 1,
            tables,
            moduli,
        }
    }

    /// Number of residue limbs for a ciphertext at `level` (base + level
    /// primes).
    #[must_use]
    pub fn rows_at_level(&self, level: u32) -> usize {
        level as usize + 1
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
/// extended by the special prime.
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
    /// The all-zero polynomial over `rows` level primes (+ special).
    #[must_use]
    pub fn zero(ctx: &RnsContext, rows: usize, with_special: bool, ntt: bool) -> RnsPoly {
        let mut basis: Vec<usize> = (0..rows).collect();
        if with_special {
            basis.push(ctx.special);
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

    /// Limb `i` as a tagged immutable view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn limb_view<'a>(&'a self, ctx: &RnsContext, i: usize) -> LimbRef<'a> {
        LimbRef {
            index: i,
            prime: ctx.primes[self.basis[i]],
            coeffs: self.limb(i),
        }
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
        metrics::count_ntt_forward_rows(self.limbs() as u64);
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
        metrics::count_ntt_inverse_rows(self.limbs() as u64);
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

    /// Exact RNS division by the top prime with centered rounding — the
    /// `rescale` kernel and (when the top limb is the special prime) the
    /// key-switch mod-down. Drops the top limb and folds its centered
    /// correction into the surviving limbs without leaving the evaluation
    /// domain: only the dropped limb is inverse-transformed, and each
    /// survivor gets one forward NTT of its lifted correction instead of a
    /// full inverse/forward round trip (`1 + (limbs−1)` rows instead of
    /// `limbs + (limbs−1)`).
    ///
    /// Bit-identical to the coefficient-domain division (the unit tests'
    /// oracle): the NTT is `Z_q`-linear and commutes with scalar
    /// multiplication, so `NTT((x − t̄)·q_top⁻¹) = (NTT(x) − NTT(t̄))·q_top⁻¹`
    /// holds exactly over canonical residues.
    ///
    /// # Panics
    ///
    /// Panics in coefficient form or with fewer than two limbs.
    pub fn mod_down_top_ntt(&mut self, ctx: &RnsContext) {
        assert!(self.ntt, "mod_down_top_ntt requires NTT form");
        assert!(self.limbs() >= 2);
        let n = self.n;
        let top_bi = self.basis.pop().expect("non-empty");
        let q_top = ctx.primes[top_bi];
        let half = q_top / 2;
        let split = self.data.len() - n;
        let mut top = acquire_buf_raw(n);
        top.copy_from_slice(&self.data[split..]);
        ctx.tables[top_bi].inverse(&mut top);
        metrics::count_ntt_inverse_rows(1);
        metrics::count_ntt_forward_rows((split / n) as u64);
        self.data.truncate(split);
        let top_ref: &[u64] = &top;
        let RnsPoly { data, basis, .. } = self;
        let basis: &[usize] = basis;
        parallel::par_for_each_limb(data, n, split, |i, limb| {
            let q = ctx.primes[basis[i]];
            let q_top_inv = invmod(q_top % q, q);
            let mut corr = acquire_buf_raw(n);
            for (c, &t) in corr.iter_mut().zip(top_ref) {
                // Centered lift of the dropped residue into this prime.
                *c = if t > half {
                    submod(t % q, q_top % q, q)
                } else {
                    t % q
                };
            }
            ctx.tables[basis[i]].forward(&mut corr);
            for (x, &u) in limb.iter_mut().zip(corr.iter()) {
                *x = mulmod(submod(*x, u, q), q_top_inv, q);
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

/// The GHS gadget decomposition of one polynomial, all digits in a single
/// flat buffer (digit-major, each digit limb-major over the extended basis
/// `{q_0…q_l, P}`): digit `j` is residue row `j` of the input lifted
/// across the extended basis and transformed to NTT form. This is the
/// Halevi–Shoup hoisting layout — every digit is lifted and transformed
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
    /// Decomposes `d` (level basis, either form).
    ///
    /// The shared work — the inverse NTT of the input — runs once. Digit
    /// rows stay in the `[0, 4p)` redundant form of
    /// [`NttTable::forward_redundant`]: their only consumers are the
    /// `mul_shoup_lazy` key products of [`keyswitch_fused`], whose single
    /// Barrett reduction canonicalizes any representative. For NTT-form
    /// input, digit `j` at its own prime `q_j` is the identity lift of a
    /// row already `< q_j`, so its transform is the input's own NTT row,
    /// copied instead of recomputed.
    #[must_use]
    pub fn new(ctx: &RnsContext, d: &RnsPoly) -> HoistedDigits {
        metrics::count_digit_decompose();
        let d_ntt = d.ntt.then_some(d);
        let mut d_coeff = d.clone();
        if d_coeff.ntt {
            d_coeff.to_coeff(ctx);
        }
        let digits = d.limbs();
        let n = d.n;
        let ext_basis: Vec<usize> = (0..digits).chain([ctx.special]).collect();
        let ext = ext_basis.len();
        let mut data = acquire_buf_raw(digits * ext * n);
        let basis: &[usize] = &ext_basis;
        parallel::par_for_each_limb(&mut data, n, digits * ext * n, |idx, limb| {
            let (j, i) = (idx / ext, idx % ext);
            if let Some(dn) = d_ntt {
                if basis[i] == dn.basis[j] {
                    limb.copy_from_slice(dn.limb(j));
                    return;
                }
            }
            let m = ctx.moduli[basis[i]];
            for (x, &v) in limb.iter_mut().zip(d_coeff.limb(j)) {
                *x = m.reduce_u64(v);
            }
            ctx.tables[basis[i]].forward_redundant(limb);
        });
        let transformed = (digits * ext - if d_ntt.is_some() { digits } else { 0 }) as u64;
        metrics::count_ntt_forward_rows(transformed);
        metrics::count_digit_ntt_rows(transformed);
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
/// must be a prefix of the keys' basis and the special prime the last
/// limb of both. A key generated over a longer level chain therefore
/// serves a lower level in place, with no restricted copy.
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
    let (level_primes, special) = basis.split_at(ext - 1);
    assert!(
        key_basis.starts_with(level_primes) && key_basis.ends_with(special),
        "key basis {key_basis:?} does not cover the digit basis {basis:?}"
    );
    for (kb, ka) in keys {
        assert_eq!(kb.poly.basis, key_basis, "key basis mismatch");
        assert_eq!(ka.poly.basis, key_basis, "key basis mismatch");
    }
    // Output limb `i` reads key row `i`, except the special limb, which
    // reads the key's last row.
    let key_top = key_basis.len() - 1;
    let key_row = |i: usize| if i + 1 == ext { key_top } else { i };
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
        metrics::count_lazy_reductions_skipped(2 * (n * nd) as u64);
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
            got.mod_down_top_ntt(&c);
            assert_eq!(got, want, "{rows} rows, special on top: {with_special}");
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

    #[test]
    fn uniform_differs_between_draws() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let a = RnsPoly::uniform(&c, 2, false, true, &mut rng);
        let b = RnsPoly::uniform(&c, 2, false, true, &mut rng);
        assert_ne!(a, b);
    }
}
