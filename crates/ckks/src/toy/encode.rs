//! Canonical-embedding encoding: complex slot vectors ↔ integer
//! polynomial coefficients.
//!
//! CKKS identifies `R[X]/(X^N + 1)` with `C^{N/2}` through evaluation at
//! the primitive 2N-th roots `ζ^{5^j}` (one per conjugate pair). Encoding
//! inverts that evaluation and scales by `Δ` to integers; decoding
//! evaluates the (centered, descaled) polynomial back at the roots.
//!
//! Both directions run the special FFT over the slot orbit (HEAAN's
//! construction) in O(N log N). Since `ζ^{(N/2)·5^j} = i`, evaluating at
//! `ζ^{5^j}` folds the upper half of the coefficients into the imaginary
//! part of the lower half:
//! `m(ζ^{5^j}) = Σ_{k<N/2} (m_k + i·m_{k+N/2})·ζ^{k·5^j}`, a length-N/2
//! transform. Splitting `k` into even and odd halves gives radix-2
//! butterflies: the half-length-`h` stage multiplies by the `8h`-th root
//! of unity raised to `5^j mod 8h`, and the twiddles of every stage are
//! tabulated once in [`Encoder::new`]. The direct O(N²) transform is kept
//! only in the tests, as the oracle the FFT must agree with.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number, just enough for the butterflies.
#[derive(Debug, Clone, Copy)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    fn conj(self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// Precomputed embedding data for ring degree `n`.
#[derive(Debug, Clone)]
pub struct Encoder {
    n: usize,
    /// `rot[j] = 5^j mod 2N` — the slot orbit.
    rot: Vec<usize>,
    /// Butterfly twiddles, stage by stage: the stage of half-length `h`
    /// (a power of two below N/2) holds `exp(2πi·(5^j mod 8h)/8h)` for
    /// `j < h` at `twiddles[h − 1 + j]`.
    twiddles: Vec<Complex>,
}

impl Encoder {
    /// Builds an encoder for degree `n` (power of two ≥ 4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 4.
    #[must_use]
    pub fn new(n: usize) -> Encoder {
        assert!(n.is_power_of_two() && n >= 4);
        let slots = n / 2;
        let m = 2 * n;
        let mut rot = Vec::with_capacity(slots);
        let mut cur = 1usize;
        for _ in 0..slots {
            rot.push(cur);
            cur = cur * 5 % m;
        }
        let mut twiddles = Vec::with_capacity(slots - 1);
        let mut h = 1;
        while h < slots {
            for &r in &rot[..h] {
                let theta = 2.0 * PI * (r % (8 * h)) as f64 / (8 * h) as f64;
                twiddles.push(Complex {
                    re: theta.cos(),
                    im: theta.sin(),
                });
            }
            h *= 2;
        }
        Encoder { n, rot, twiddles }
    }

    /// Number of slots (`N/2`).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// Encodes real slot values at scale `delta` into integer
    /// coefficients: the inverse FFT of the slots gives `u_k` with
    /// `Σ_{k<N/2} u_k·ζ^{k·5^j} = z_j`, and `m_k = round(Δ·Re u_k)`,
    /// `m_{k+N/2} = round(Δ·Im u_k)`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != slots`.
    #[must_use]
    pub fn encode(&self, values: &[f64], delta: f64) -> Vec<i128> {
        let slots = self.slots();
        assert_eq!(values.len(), slots);
        let mut u: Vec<Complex> = values.iter().map(|&re| Complex { re, im: 0.0 }).collect();
        self.inverse_fft(&mut u);
        // The inverse transform's 1/(N/2) normalisation rides on Δ.
        let scale = delta / slots as f64;
        // i128 coefficients: plaintexts for degree-2 operands carry
        // scale Δ² ≈ 2^80, far beyond i64.
        let mut coeffs = vec![0i128; self.n];
        let (lo, hi) = coeffs.split_at_mut(slots);
        for ((c, c_hi), z) in lo.iter_mut().zip(hi).zip(&u) {
            *c = (z.re * scale).round() as i128;
            *c_hi = (z.im * scale).round() as i128;
        }
        coeffs
    }

    /// Decodes centered coefficients at scale `delta` back to real slot
    /// values: `z_j = (1/Δ)·Re m(ζ^{5^j})`, the forward FFT of
    /// `(m_k + i·m_{k+N/2})/Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    #[must_use]
    pub fn decode(&self, coeffs: &[i128], delta: f64) -> Vec<f64> {
        assert_eq!(coeffs.len(), self.n);
        let (lo, hi) = coeffs.split_at(self.slots());
        let mut v: Vec<Complex> = lo
            .iter()
            .zip(hi)
            .map(|(&re, &im)| Complex {
                re: re as f64 / delta,
                im: im as f64 / delta,
            })
            .collect();
        self.forward_fft(&mut v);
        v.iter().map(|z| z.re).collect()
    }

    /// `v_j ← Σ_k v_k·ζ^{k·5^j}`: decimation in time, bit-reversed input.
    fn forward_fft(&self, v: &mut [Complex]) {
        bit_reverse(v);
        let mut h = 1;
        while h < v.len() {
            let tw = &self.twiddles[h - 1..2 * h - 1];
            for block in v.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let t = *b * w;
                    (*a, *b) = (*a + t, *a - t);
                }
            }
            h *= 2;
        }
    }

    /// Undoes [`Encoder::forward_fft`] up to a factor of `N/2`: every
    /// butterfly inverted with the conjugate twiddle, in reverse stage
    /// order, without the halving.
    fn inverse_fft(&self, v: &mut [Complex]) {
        let mut h = v.len() / 2;
        while h >= 1 {
            let tw = &self.twiddles[h - 1..2 * h - 1];
            for block in v.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    (*a, *b) = (*a + *b, (*a - *b) * w.conj());
                }
            }
            h /= 2;
        }
        bit_reverse(v);
    }

    /// The Galois automorphism exponent rotating slots left by `r`:
    /// `X → X^{5^r mod 2N}`.
    #[must_use]
    pub fn rotation_exponent(&self, r: i64) -> usize {
        let slots = self.slots() as i64;
        let r = r.rem_euclid(slots) as usize;
        self.rot[r]
    }
}

/// Permutes `v` (power-of-two length) into bit-reversed index order.
fn bit_reverse(v: &mut [Complex]) {
    let bits = v.len().trailing_zeros();
    for i in 1..v.len() {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            v.swap(i, j);
        }
    }
}

/// Applies the automorphism `X → X^t` to signed-free coefficients mod `q`
/// (negacyclic sign handling): coefficient `k` lands at `k·t mod 2N`,
/// negated when it wraps past `N`.
#[must_use]
pub fn apply_automorphism(coeffs: &[u64], t: usize, q: u64) -> Vec<u64> {
    let n = coeffs.len();
    let m = 2 * n;
    let mut out = vec![0u64; n];
    for (k, &c) in coeffs.iter().enumerate() {
        let e = (k * t) % m;
        if e < n {
            out[e] = c;
        } else {
            out[e - n] = if c == 0 { 0 } else { q - c };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DELTA: f64 = (1u64 << 40) as f64;

    /// `Re ζ^e` with `ζ = exp(iπ/N)`.
    fn zeta_re(n: usize, e: usize) -> f64 {
        (PI * e as f64 / n as f64).cos()
    }

    /// The direct O(N²) canonical embedding inverse, the FFT's oracle:
    /// `m_k = round(Δ · (2/N)·Re Σ_j z_j·ζ^{−k·5^j})`.
    fn direct_encode(enc: &Encoder, values: &[f64], delta: f64) -> Vec<i128> {
        assert_eq!(values.len(), enc.slots());
        let m = 2 * enc.n;
        let mut coeffs = vec![0i128; enc.n];
        for (k, c) in coeffs.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for (j, &z) in values.iter().enumerate() {
                // Re(z_j · ζ^{−k·rot_j}) = z_j · Re ζ^{k·rot_j} for real z_j.
                acc += z * zeta_re(enc.n, (k * enc.rot[j]) % m);
            }
            *c = (delta * 2.0 * acc / enc.n as f64).round() as i128;
        }
        coeffs
    }

    /// The direct O(N²) embedding: `z_j = (1/Δ)·Re Σ_k m_k·ζ^{k·5^j}`.
    fn direct_decode(enc: &Encoder, coeffs: &[i128], delta: f64) -> Vec<f64> {
        assert_eq!(coeffs.len(), enc.n);
        let m = 2 * enc.n;
        (0..enc.slots())
            .map(|j| {
                let mut acc = 0.0f64;
                for (k, &c) in coeffs.iter().enumerate() {
                    acc += c as f64 * zeta_re(enc.n, (k * enc.rot[j]) % m);
                }
                acc / delta
            })
            .collect()
    }

    fn max_err(got: &[f64], want: &[f64]) -> f64 {
        got.iter()
            .zip(want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn random_slots(rng: &mut StdRng, slots: usize, bound: f64) -> Vec<f64> {
        (0..slots).map(|_| rng.gen_range(-bound..bound)).collect()
    }

    #[test]
    fn fft_coefficients_match_the_direct_transform() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001);
        for log_n in 3..=10 {
            let enc = Encoder::new(1 << log_n);
            for _ in 0..3 {
                let z = random_slots(&mut rng, enc.slots(), 4.0);
                let fft = enc.encode(&z, DELTA);
                let direct = direct_encode(&enc, &z, DELTA);
                for (k, (a, b)) in fft.iter().zip(&direct).enumerate() {
                    assert!(
                        (a - b).abs() <= 1,
                        "N = 2^{log_n}, coefficient {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn fft_round_trip_is_no_worse_than_the_direct_transform() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002);
        // Δ is the waterline; Δ² is the scale `add_plain` encodes a
        // degree-2 operand's plaintext at.
        for delta in [DELTA, DELTA * DELTA] {
            for log_n in 3..=10 {
                let enc = Encoder::new(1 << log_n);
                for _ in 0..2 {
                    let z = random_slots(&mut rng, enc.slots(), 1024.0);
                    let fft = enc.decode(&enc.encode(&z, delta), delta);
                    let direct = direct_decode(&enc, &direct_encode(&enc, &z, delta), delta);
                    let slack = 2f64.powi(-40) * z.iter().fold(0.0, |m, x| x.abs().max(m));
                    let (e_fft, e_direct) = (max_err(&fft, &z), max_err(&direct, &z));
                    assert!(
                        e_fft <= e_direct + slack,
                        "N = 2^{log_n}, Δ = {delta:e}: FFT error {e_fft:e} vs direct {e_direct:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn fft_round_trip_at_the_paper_ring_degree() {
        let enc = Encoder::new(1 << 17);
        let mut rng = StdRng::seed_from_u64(0x5EED_0003);
        let z = random_slots(&mut rng, enc.slots(), 1.0);
        let back = enc.decode(&enc.encode(&z, DELTA), DELTA);
        let err = max_err(&back, &z);
        assert!(err < 1e-7, "round-trip error {err:e} at N = 2^17");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = Encoder::new(32);
        let values: Vec<f64> = (0..16).map(|i| 0.1 * f64::from(i) - 0.8).collect();
        let coeffs = enc.encode(&values, DELTA);
        let back = enc.decode(&coeffs, DELTA);
        for (a, b) in values.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn encoding_is_additive() {
        let enc = Encoder::new(16);
        let a: Vec<f64> = (0..8).map(|i| f64::from(i) * 0.3).collect();
        let b: Vec<f64> = (0..8).map(|i| 1.0 - f64::from(i) * 0.1).collect();
        let ca = enc.encode(&a, DELTA);
        let cb = enc.encode(&b, DELTA);
        let sum: Vec<i128> = ca.iter().zip(&cb).map(|(&x, &y)| x + y).collect();
        let back = enc.decode(&sum, DELTA);
        for (i, z) in back.iter().enumerate() {
            assert!((z - (a[i] + b[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_encodes_on_coefficient_zero() {
        let enc = Encoder::new(16);
        let coeffs = enc.encode(&[1.5; 8], DELTA);
        assert_eq!(coeffs[0], (1.5 * DELTA).round() as i128);
        for &c in &coeffs[1..] {
            assert!(
                (c as f64 / DELTA).abs() < 1e-9,
                "non-constant coefficient {c}"
            );
        }
    }

    #[test]
    fn rotation_exponent_orbit() {
        let enc = Encoder::new(16);
        assert_eq!(enc.rotation_exponent(0), 1);
        assert_eq!(enc.rotation_exponent(1), 5);
        assert_eq!(enc.rotation_exponent(2), 25);
        // Negative rotations wrap around the slot count.
        assert_eq!(enc.rotation_exponent(-1), enc.rotation_exponent(7));
    }

    #[test]
    fn automorphism_rotates_decoded_slots() {
        let enc = Encoder::new(32);
        let values: Vec<f64> = (0..16).map(f64::from).collect();
        let coeffs = enc.encode(&values, DELTA);
        let q = 1u64 << 62; // any modulus comfortably above the coefficients
        let unsigned: Vec<u64> = coeffs
            .iter()
            .map(|&c| if c < 0 { q - ((-c) as u64) } else { c as u64 })
            .collect();
        let t = enc.rotation_exponent(1);
        let rotated = apply_automorphism(&unsigned, t, q);
        let centered: Vec<i128> = rotated
            .iter()
            .map(|&c| {
                if c > q / 2 {
                    i128::from(c) - i128::from(q)
                } else {
                    i128::from(c)
                }
            })
            .collect();
        let back = enc.decode(&centered, DELTA);
        // Slot j of the rotated ciphertext holds original slot j+1.
        for j in 0..15 {
            assert!(
                (back[j] - values[j + 1]).abs() < 1e-6,
                "slot {j}: {} vs {}",
                back[j],
                values[j + 1]
            );
        }
        assert!((back[15] - values[0]).abs() < 1e-6, "wraparound");
    }
}
