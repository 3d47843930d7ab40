//! Negacyclic number-theoretic transform over `Z_p[X]/(X^N + 1)`.
//!
//! The standard trick: multiply coefficient `i` by `ψ^i` (a primitive
//! 2N-th root of unity) before a cyclic NTT and by `ψ^{−i}` after the
//! inverse — turning cyclic convolution into negacyclic convolution.
//! The transform itself is iterative radix-2 Cooley–Tukey.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{self, Counter};
use crate::toy::modular::{
    csub, invmod, mul_shoup, mul_shoup_lazy, mulmod, primitive_root, shoup_precompute,
};

/// Cache key: `(ring degree, prime modulus)`.
type TableKey = (usize, u64);

/// Process-wide memoized tables: every scheme instance, key, and test
/// sharing a `(N, p)` pair reuses one immutable table.
static TABLE_CACHE: OnceLock<Mutex<HashMap<TableKey, Arc<NttTable>>>> = OnceLock::new();

/// Process-wide memoized automorphism permutations, keyed by
/// `(ring degree, exponent)` — shared across all primes of a basis
/// because the index map is modulus-independent.
type PermKey = (usize, usize);
static PERM_CACHE: OnceLock<Mutex<HashMap<PermKey, Arc<Vec<usize>>>>> = OnceLock::new();

/// The NTT-domain index permutation realizing the Galois automorphism
/// `X → X^t` (odd `t`): `ntt(a(X^t))[k] = ntt(a)[map[k]]`.
///
/// [`NttTable::forward`] pre-twists by `ψ^i` and runs a natural-order DIT
/// FFT, so output slot `k` holds the evaluation `a(ψ^{2k+1})`. Evaluating
/// `a(X^t)` at `ψ^{2k+1}` is evaluating `a` at `ψ^{t·(2k+1)}`, i.e.
/// reading slot `(t·(2k+1) mod 2N − 1)/2` — a pure index permutation, in
/// exact modular arithmetic. This is what lets hoisted rotation apply the
/// automorphism to already-NTT'd digits without any per-offset NTTs.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `t` is even (even exponents are
/// not Galois automorphisms of the 2N-th cyclotomic ring).
#[must_use]
pub fn automorphism_indices(n: usize, t: usize) -> Arc<Vec<usize>> {
    assert!(n.is_power_of_two(), "N must be a power of two");
    assert_eq!(t % 2, 1, "automorphism exponent must be odd");
    let cache = PERM_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("automorphism cache poisoned");
    Arc::clone(map.entry((n, t % (2 * n))).or_insert_with(|| {
        let m = 2 * n;
        Arc::new((0..n).map(|k| ((t * (2 * k + 1)) % m - 1) / 2).collect())
    }))
}

/// Precomputed twiddle tables for one `(N, p)` pair.
///
/// Every multiplicative constant carries a Shoup companion
/// (`⌊w·2^64/p⌋`, see [`shoup_precompute`]) so the Harvey butterflies
/// replace each `u128` Barrett product with one `mulhi` + one wrapping
/// `mul` and defer all range reduction to a single final pass.
#[derive(Debug, Clone)]
pub struct NttTable {
    /// Ring degree (power of two).
    pub n: usize,
    /// Prime modulus (`p ≡ 1 mod 2N`).
    pub p: u64,
    /// `2p`, the lazy-representation half-bound.
    twice_p: u64,
    /// `ψ^i` for the negacyclic pre-twist.
    psi_pows: Vec<u64>,
    /// Shoup companions of `psi_pows`.
    psi_shoup: Vec<u64>,
    /// `ω^i` (N-th root), natural order, indexed `k·step` by the butterfly.
    omega_pows: Vec<u64>,
    /// Shoup companions of `omega_pows`.
    omega_shoup: Vec<u64>,
    /// Inverse-omega powers.
    omega_inv_pows: Vec<u64>,
    /// Shoup companions of `omega_inv_pows`.
    omega_inv_shoup: Vec<u64>,
    /// Merged inverse post-twist: `N^{−1}·ψ^{−i} mod p` — the scaling by
    /// `N^{−1}` and the de-twist by `ψ^{−i}` in one product.
    inv_post: Vec<u64>,
    /// Shoup companions of `inv_post`.
    inv_post_shoup: Vec<u64>,
}

impl NttTable {
    /// Builds tables for degree `n` (power of two) and prime `p ≡ 1 mod 2n`.
    ///
    /// # Panics
    ///
    /// Panics if the preconditions fail, or if `p ≥ 2^62` (the Harvey
    /// lazy representation needs `4p` to fit in a `u64` word).
    #[must_use]
    pub fn new(n: usize, p: u64) -> NttTable {
        assert!(n.is_power_of_two(), "N must be a power of two");
        assert_eq!((p - 1) % (2 * n as u64), 0, "p must be ≡ 1 mod 2N");
        assert!(p < 1u64 << 62, "lazy NTT needs p < 2^62");
        let psi = primitive_root(2 * n as u64, p);
        let omega = mulmod(psi, psi, p);
        let psi_inv = invmod(psi, p);
        let omega_inv = invmod(omega, p);
        let pow_table = |base: u64, count: usize| -> Vec<u64> {
            let mut v = Vec::with_capacity(count);
            let mut cur = 1u64;
            for _ in 0..count {
                v.push(cur);
                cur = mulmod(cur, base, p);
            }
            v
        };
        let shoup_table =
            |ws: &[u64]| -> Vec<u64> { ws.iter().map(|&w| shoup_precompute(w, p)).collect() };
        let n_inv = invmod(n as u64, p);
        let psi_pows = pow_table(psi, n);
        let omega_pows = pow_table(omega, n);
        let omega_inv_pows = pow_table(omega_inv, n);
        let inv_post: Vec<u64> = pow_table(psi_inv, n)
            .iter()
            .map(|&w| mulmod(n_inv, w, p))
            .collect();
        NttTable {
            n,
            p,
            twice_p: 2 * p,
            psi_shoup: shoup_table(&psi_pows),
            omega_shoup: shoup_table(&omega_pows),
            omega_inv_shoup: shoup_table(&omega_inv_pows),
            inv_post_shoup: shoup_table(&inv_post),
            psi_pows,
            omega_pows,
            omega_inv_pows,
            inv_post,
        }
    }

    /// The shared table for `(n, p)`, built at most once per process.
    ///
    /// # Panics
    ///
    /// Panics if [`NttTable::new`] would (non-power-of-two `n` or
    /// `p ≢ 1 mod 2n`).
    #[must_use]
    pub fn shared(n: usize, p: u64) -> Arc<NttTable> {
        let cache = TABLE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("NTT cache poisoned");
        Arc::clone(
            map.entry((n, p))
                .or_insert_with(|| Arc::new(NttTable::new(n, p))),
        )
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation form):
    /// output slot `k` holds `a(ψ^{2k+1})`, canonical in `[0, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        self.forward_lazy(a);
        // One canonicalization pass for the whole transform instead of
        // one per butterfly.
        for x in a.iter_mut() {
            *x = csub(csub(*x, self.twice_p), self.p);
        }
        metrics::count(Counter::LazyReductionsSkipped, self.deferred_reductions());
    }

    /// [`NttTable::forward`] minus the final canonicalization pass: output
    /// stays in the `[0, 4p)` redundant representation. Only for rows
    /// whose every consumer accepts redundant values — the hoisted digit
    /// slab feeding `mul_shoup_lazy` key products, where the single
    /// downstream Barrett reduction restores the canonical result (any
    /// representative of `x mod p` yields a product `≡ x·w (mod p)`).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward_redundant(&self, a: &mut [u64]) {
        self.forward_lazy(a);
        metrics::count(
            Counter::LazyReductionsSkipped,
            self.deferred_reductions() + self.n as u64,
        );
    }

    /// Pre-twist plus butterflies, output in `[0, 4p)`.
    fn forward_lazy(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        // Pre-twist leaves values < 2p; butterflies keep them < 4p.
        for ((x, &w), &wp) in a.iter_mut().zip(&self.psi_pows).zip(&self.psi_shoup) {
            *x = mul_shoup_lazy(*x, w, wp, self.p);
        }
        self.fft_lazy(a, &self.omega_pows, &self.omega_shoup);
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient form),
    /// canonical output.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        self.fft_lazy(a, &self.omega_inv_pows, &self.omega_inv_shoup);
        // The merged post-twist `N^{−1}·ψ^{−i}` both de-twists and
        // canonicalizes: `mul_shoup` accepts the 4p-redundant input
        // directly, so no separate reduction pass is needed.
        for ((x, &w), &wp) in a.iter_mut().zip(&self.inv_post).zip(&self.inv_post_shoup) {
            *x = mul_shoup(*x, w, wp, self.p);
        }
        metrics::count(Counter::LazyReductionsSkipped, self.deferred_reductions());
    }

    /// Reductions one transform defers relative to canonicalizing every
    /// butterfly and twist multiply: `N/2·log₂N + N`.
    fn deferred_reductions(&self) -> u64 {
        let n = self.n as u64;
        n / 2 * u64::from(self.n.trailing_zeros()) + n
    }

    /// Iterative radix-2 DIT FFT with Harvey lazy butterflies over the
    /// given root-power table: values stay in the `[0, 4p)` redundant
    /// representation across all `log₂N` stages.
    ///
    /// Per butterfly: fold `u` into `[0, 2p)`, compute
    /// `v = x·w − ⌊x·w′/2^64⌋·p ∈ [0, 2p)` with the Shoup companion, then
    /// `(u + v, u + 2p − v)` — both `< 4p`, restoring the stage invariant
    /// without any conditional subtraction on the outputs.
    fn fft_lazy(&self, a: &mut [u64], omega_pows: &[u64], omega_shoup: &[u64]) {
        let n = self.n;
        let p = self.p;
        let two_p = self.twice_p;
        Self::bit_reverse(a);
        let mut len = 2;
        while len <= n {
            let step = n / len;
            // Slice-splitting iteration instead of indexed access: the
            // butterfly loop carries no bounds checks, which matters as
            // much as the lazy arithmetic itself at this loop's trip count.
            for chunk in a.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(len / 2);
                let tw = omega_pows.iter().step_by(step);
                let tws = omega_shoup.iter().step_by(step);
                for (((x, y), &w), &wp) in lo.iter_mut().zip(hi.iter_mut()).zip(tw).zip(tws) {
                    let u = csub(*x, two_p);
                    let v = mul_shoup_lazy(*y, w, wp, p);
                    *x = u + v;
                    *y = u + two_p - v;
                }
            }
            len *= 2;
        }
    }

    /// Bit-reverse permutation ahead of the DIT schedule.
    fn bit_reverse(a: &mut [u64]) {
        let n = a.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                a.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::modular::{addmod, ntt_primes, powmod, submod};

    fn table(n: usize) -> NttTable {
        let p = ntt_primes(1 << 40, 2 * n as u64, 1)[0];
        NttTable::new(n, p)
    }

    /// Schoolbook negacyclic product for verification.
    #[allow(clippy::needless_range_loop)] // index arithmetic carries the wrap logic
    fn negacyclic_mul_ref(a: &[u64], b: &[u64], p: u64) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let prod = mulmod(a[i], b[j], p);
                let k = i + j;
                if k < n {
                    out[k] = addmod(out[k], prod, p);
                } else {
                    out[k - n] = submod(out[k - n], prod, p);
                }
            }
        }
        out
    }

    #[test]
    fn roundtrip_identity() {
        let t = table(64);
        let a: Vec<u64> = (0..64).map(|i| (i * 37 + 11) % t.p).collect();
        let mut b = a.clone();
        t.forward(&mut b);
        assert_ne!(a, b, "transform must change the representation");
        t.inverse(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn pointwise_product_is_negacyclic_convolution() {
        let t = table(32);
        let a: Vec<u64> = (0..32).map(|i| (i * i + 3) % t.p).collect();
        let b: Vec<u64> = (0..32).map(|i| (7 * i + 1) % t.p).collect();
        let want = negacyclic_mul_ref(&a, &b, t.p);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| mulmod(x, y, t.p))
            .collect();
        t.inverse(&mut fc);
        assert_eq!(fc, want);
    }

    #[test]
    fn shared_tables_are_memoized_per_process() {
        let p = ntt_primes(1 << 40, 256, 1)[0];
        let a = NttTable::shared(128, p);
        let b = NttTable::shared(128, p);
        assert!(Arc::ptr_eq(&a, &b), "same (n, p) must reuse one table");
        let c = NttTable::shared(64, p);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn automorphism_permutation_matches_coefficient_domain() {
        // For every odd exponent: permuting NTT values must equal applying
        // X → X^t on coefficients and then transforming — bit-exactly.
        let n = 32;
        let t_tbl = table(n);
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i * 13 + 5) % t_tbl.p).collect();
        let mut ntt_a = a.clone();
        t_tbl.forward(&mut ntt_a);
        for t in [3usize, 5, 25, 63] {
            let perm = automorphism_indices(n, t);
            let via_perm: Vec<u64> = perm.iter().map(|&k| ntt_a[k]).collect();
            let mut want = crate::toy::encode::apply_automorphism(&a, t, t_tbl.p);
            t_tbl.forward(&mut want);
            assert_eq!(via_perm, want, "exponent {t}");
        }
    }

    #[test]
    fn automorphism_permutations_are_memoized() {
        let a = automorphism_indices(64, 5);
        let b = automorphism_indices(64, 5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_ne!(*automorphism_indices(64, 25), *a);
    }

    /// `a(ψ^{2k+1}) mod p` for every slot `k`, by Horner's rule — the
    /// textbook definition of the negacyclic transform.
    fn direct_eval(t: &NttTable, a: &[u64]) -> Vec<u64> {
        let psi = t.psi_pows[1];
        (0..t.n as u64)
            .map(|k| {
                let x = powmod(psi, 2 * k + 1, t.p);
                a.iter()
                    .rev()
                    .fold(0, |acc, &c| addmod(mulmod(acc, x, t.p), c, t.p))
            })
            .collect()
    }

    #[test]
    fn transforms_match_direct_evaluation() {
        for n in [16usize, 64, 256] {
            for bits in [40u32, 59] {
                let p = ntt_primes(1 << bits, 2 * n as u64, 1)[0];
                let t = NttTable::new(n, p);
                // Spread residues plus the extremes 0 and p − 1.
                let mut a: Vec<u64> = (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p)
                    .collect();
                a[0] = p - 1;
                a[1] = 0;
                let want = direct_eval(&t, &a);

                let mut fwd = a.clone();
                t.forward(&mut fwd);
                assert_eq!(fwd, want, "forward N={n} p={p}");

                let mut red = a.clone();
                t.forward_redundant(&mut red);
                assert!(
                    red.iter().all(|&x| x < 4 * p),
                    "redundant output must stay below 4p (N={n} p={p})"
                );
                let red: Vec<u64> = red.iter().map(|&x| x % p).collect();
                assert_eq!(red, want, "forward_redundant mod p, N={n} p={p}");

                let mut inv = want;
                t.inverse(&mut inv);
                assert_eq!(inv, a, "inverse N={n} p={p}");
            }
        }
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // Multiply X^{N/2} by itself: X^N ≡ −1.
        let t = table(16);
        let mut a = vec![0u64; 16];
        a[8] = 1;
        let mut fa = a.clone();
        t.forward(&mut fa);
        let mut sq: Vec<u64> = fa.iter().map(|&x| mulmod(x, x, t.p)).collect();
        t.inverse(&mut sq);
        let mut want = vec![0u64; 16];
        want[0] = t.p - 1;
        assert_eq!(sq, want);
    }
}
