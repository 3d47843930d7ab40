//! 64-bit modular arithmetic: the scalar substrate of the RNS backend.
//!
//! Hot kernels carry 2p/4p-redundant values through whole passes and
//! canonicalize once at the end, using precomputed Shoup companions
//! ([`shoup_precompute`] / [`mul_shoup_lazy`]) for fixed multiplicands
//! (twiddles, key material) and a precomputed Barrett [`Modulus`] for
//! variable×variable products. The widening-`%` helpers ([`mulmod`] and
//! friends) serve table construction and the cold paths.

/// A prime modulus with precomputed Barrett constants: reduces full
/// 128-bit products with five 64-bit multiplies instead of a 128-bit
/// division. Requires `p < 2^62` (all toy-chain primes are ≤ 2^59).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modulus {
    /// The prime.
    pub p: u64,
    /// `2p`, the lazy-representation bound for Shoup products.
    pub twice_p: u64,
    /// `⌊2^128 / p⌋`, low word.
    ratio_lo: u64,
    /// `⌊2^128 / p⌋`, high word.
    ratio_hi: u64,
}

impl Modulus {
    /// Precomputes Barrett constants for prime `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ p < 2^62`.
    #[must_use]
    pub fn new(p: u64) -> Modulus {
        assert!((2..1 << 62).contains(&p), "modulus {p} out of range");
        // p is odd (an NTT prime), so ⌊2^128/p⌋ = ⌊(2^128 − 1)/p⌋.
        let ratio = u128::MAX / u128::from(p);
        Modulus {
            p,
            twice_p: 2 * p,
            ratio_lo: ratio as u64,
            ratio_hi: (ratio >> 64) as u64,
        }
    }

    /// Barrett reduction of a full 128-bit value: `z mod p`, canonical.
    ///
    /// The quotient estimate `q = ⌊z·ratio/2^128⌋` undershoots the true
    /// quotient by at most 2, so the remainder lands in `[0, 3p)` and two
    /// conditional subtractions canonicalize it (`3p < 2^64` holds for
    /// `p < 2^62`).
    #[inline]
    #[must_use]
    pub fn reduce_u128(&self, z: u128) -> u64 {
        let z_lo = z as u64;
        let z_hi = (z >> 64) as u64;
        let carry = ((u128::from(z_lo) * u128::from(self.ratio_lo)) >> 64) as u64;
        let t_mid = u128::from(z_lo) * u128::from(self.ratio_hi);
        let t_mid2 = u128::from(z_hi) * u128::from(self.ratio_lo);
        let (low, c1) = (t_mid as u64).overflowing_add(t_mid2 as u64);
        let (_, c2) = low.overflowing_add(carry);
        let q = z_hi
            .wrapping_mul(self.ratio_hi)
            .wrapping_add((t_mid >> 64) as u64)
            .wrapping_add((t_mid2 >> 64) as u64)
            .wrapping_add(u64::from(c1))
            .wrapping_add(u64::from(c2));
        let r = z_lo.wrapping_sub(q.wrapping_mul(self.p));
        csub(csub(r, self.twice_p), self.p)
    }

    /// `a·b mod p`, canonical, via the precomputed Barrett constants.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(u128::from(a) * u128::from(b))
    }

    /// `x mod p` for an arbitrary `u64` (the digit-lift kernel).
    #[inline]
    #[must_use]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        self.reduce_u128(u128::from(x))
    }

    /// Canonicalizes a 4p-redundant lazy value into `[0, p)`.
    #[inline]
    #[must_use]
    pub fn canon_4p(&self, x: u64) -> u64 {
        csub(csub(x, self.twice_p), self.p)
    }
}

/// Branchless `if x >= m { x - m } else { x }`: a compare plus masked
/// add-back. The lazy kernels run this on uniformly random residues where
/// a real branch mispredicts half the time and costs more than the whole
/// Shoup product around it.
#[inline(always)]
#[must_use]
pub fn csub(x: u64, m: u64) -> u64 {
    let (d, borrow) = x.overflowing_sub(m);
    d.wrapping_add(m & (borrow as u64).wrapping_neg())
}

/// The Shoup companion of a fixed multiplicand `w < p`: `⌊w·2^64 / p⌋`.
/// Pairing `(w, w')` makes every later product against `w` two multiplies
/// and one subtraction ([`mul_shoup_lazy`]) — no division, no `%`.
///
/// # Panics
///
/// Panics unless `w < p`.
#[must_use]
pub fn shoup_precompute(w: u64, p: u64) -> u64 {
    assert!(w < p, "Shoup multiplicand must be reduced");
    ((u128::from(w) << 64) / u128::from(p)) as u64
}

/// `x·w mod p` in lazy form (`[0, 2p)`), given the Shoup companion
/// `w_shoup = shoup_precompute(w, p)`. Valid for **any** `x: u64` and
/// `w < p < 2^63`.
#[inline]
#[must_use]
pub fn mul_shoup_lazy(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((u128::from(x) * u128::from(w_shoup)) >> 64) as u64;
    x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p))
}

/// `x·w mod p`, canonical, via the Shoup companion.
#[inline]
#[must_use]
pub fn mul_shoup(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    csub(mul_shoup_lazy(x, w, w_shoup, p), p)
}

/// `(a + b) mod m` for `a, b < m < 2^63`.
#[inline]
#[must_use]
pub fn addmod(a: u64, b: u64, m: u64) -> u64 {
    let s = a + b;
    if s >= m {
        s - m
    } else {
        s
    }
}

/// `(a − b) mod m` for `a, b < m`.
#[inline]
#[must_use]
pub fn submod(a: u64, b: u64, m: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + m - b
    }
}

/// `(a · b) mod m` via 128-bit widening.
#[inline]
#[must_use]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

/// `a^e mod m` by square-and-multiply.
#[must_use]
pub fn powmod(mut a: u64, mut e: u64, m: u64) -> u64 {
    let mut r = 1u64 % m;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            r = mulmod(r, a, m);
        }
        a = mulmod(a, a, m);
        e >>= 1;
    }
    r
}

/// `a^{−1} mod m` for prime `m` (Fermat).
///
/// # Panics
///
/// Panics if `a ≡ 0 (mod m)`.
#[must_use]
pub fn invmod(a: u64, m: u64) -> u64 {
    assert!(!a.is_multiple_of(m), "zero has no inverse");
    powmod(a, m - 2, m)
}

/// Deterministic Miller–Rabin for u64 (the standard witness set).
#[must_use]
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// A primitive `order`-th root of unity mod prime `p` (requires
/// `order | p − 1`).
///
/// # Panics
///
/// Panics if `order` does not divide `p − 1` or no generator is found.
#[must_use]
pub fn primitive_root(order: u64, p: u64) -> u64 {
    assert_eq!((p - 1) % order, 0, "order must divide p−1");
    let cofactor = (p - 1) / order;
    // Try small candidates g: g^cofactor has order dividing `order`;
    // verify it is exactly `order` by checking all prime factors.
    let factors = prime_factors(order);
    for g in 2..p.min(1000) {
        let cand = powmod(g, cofactor, p);
        if cand == 1 {
            continue;
        }
        let mut ok = true;
        for &f in &factors {
            if powmod(cand, order / f, p) == 1 {
                ok = false;
                break;
            }
        }
        if ok {
            return cand;
        }
    }
    panic!("no primitive root found for order {order} mod {p}");
}

fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut fs = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            fs.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        fs.push(n);
    }
    fs
}

/// The first `count` primes `p ≡ 1 (mod modulus_step)` at or below
/// `start` (searching downward) — NTT-friendly prime chains.
///
/// # Panics
///
/// Panics if the search space is exhausted.
#[must_use]
pub fn ntt_primes(start: u64, modulus_step: u64, count: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(count);
    let mut cand = start - (start % modulus_step) + 1;
    while primes.len() < count {
        if cand < modulus_step {
            panic!("prime search exhausted");
        }
        if is_prime(cand) {
            primes.push(cand);
        }
        cand = cand.checked_sub(modulus_step).expect("search exhausted");
    }
    primes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let m = 97u64;
        assert_eq!(addmod(90, 10, m), 3);
        assert_eq!(submod(3, 10, m), 90);
        assert_eq!(mulmod(96, 96, m), 1);
        assert_eq!(powmod(3, 96, m), 1, "Fermat");
        assert_eq!(mulmod(invmod(5, m), 5, m), 1);
    }

    #[test]
    fn primality() {
        assert!(is_prime(2));
        assert!(is_prime(97));
        assert!(is_prime((1 << 61) - 1), "Mersenne 61");
        assert!(!is_prime(1));
        assert!(!is_prime(561), "Carmichael");
        assert!(!is_prime((1 << 61) - 3));
    }

    #[test]
    fn ntt_prime_chain_properties() {
        let n = 1u64 << 7; // ring degree 128, need p ≡ 1 mod 256
        let primes = ntt_primes(1 << 40, 2 * n, 5);
        assert_eq!(primes.len(), 5);
        for &p in &primes {
            assert!(is_prime(p));
            assert_eq!(p % (2 * n), 1);
            assert!(p <= 1 << 40);
            assert!(p > 1 << 39, "primes stay near the target size");
        }
        // Distinct and descending.
        for w in primes.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    /// A cheap deterministic value stream covering the full u64 range.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn barrett_matches_widening_remainder() {
        for &p in &[
            97u64,
            (1 << 40) + 117, // odd but composite: Barrett needs no primality
            ntt_primes(1 << 40, 64, 1)[0],
            ntt_primes(1 << 59, 64, 1)[0],
            (1 << 62) - 57, // largest supported size class
        ] {
            let m = Modulus::new(p);
            for i in 0..2000u64 {
                let a = mix(i);
                let b = mix(i ^ 0xABCD);
                let z = u128::from(a) * u128::from(b);
                assert_eq!(m.reduce_u128(z), (z % u128::from(p)) as u64, "p={p} z={z}");
                assert_eq!(m.reduce_u64(a), a % p);
                assert_eq!(m.mul(a % p, b % p), mulmod(a % p, b % p, p));
            }
            // Edge values.
            for z in [0u128, 1, u128::from(p) - 1, u128::from(p), u128::MAX] {
                assert_eq!(m.reduce_u128(z), (z % u128::from(p)) as u64);
            }
        }
    }

    #[test]
    fn shoup_products_are_exact_and_lazily_bounded() {
        for &p in &[ntt_primes(1 << 40, 64, 1)[0], ntt_primes(1 << 59, 64, 1)[0]] {
            for i in 0..2000u64 {
                let w = mix(i) % p;
                let w_shoup = shoup_precompute(w, p);
                // Any u64 operand, including unreduced lazy values.
                let x = mix(i ^ 0x5EED);
                let lazy = mul_shoup_lazy(x, w, w_shoup, p);
                assert!(lazy < 2 * p, "lazy product out of [0, 2p)");
                assert_eq!(lazy % p, mulmod(x % p, w, p), "p={p} w={w} x={x}");
                assert_eq!(mul_shoup(x, w, w_shoup, p), mulmod(x % p, w, p));
            }
        }
    }

    #[test]
    fn canon_4p_folds_redundant_values() {
        let p = 97u64;
        let m = Modulus::new(p);
        for x in 0..4 * p {
            assert_eq!(m.canon_4p(x), x % p);
        }
    }

    #[test]
    fn primitive_roots_have_exact_order() {
        let n = 1u64 << 6;
        let p = ntt_primes(1 << 40, 2 * n, 1)[0];
        let psi = primitive_root(2 * n, p);
        assert_eq!(powmod(psi, 2 * n, p), 1);
        assert_ne!(powmod(psi, n, p), 1, "order exactly 2N");
        // ψ^N = −1 in the negacyclic ring.
        assert_eq!(powmod(psi, n, p), p - 1);
    }
}
