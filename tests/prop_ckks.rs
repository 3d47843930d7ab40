//! Property-based backend testing: the simulation backend and the exact
//! toy lattice backend must agree (within noise) on random homomorphic op
//! sequences — the simulation's semantics are anchored to real algebra.

use proptest::prelude::*;

use halo_fhe::ckks::snapshot::SnapReader;
use halo_fhe::prelude::*;

const N: usize = 32; // 16 slots
const LEVELS: u32 = 8;

/// A random homomorphic op over a two-ciphertext working set.
#[derive(Debug, Clone)]
enum HomOp {
    Add,
    Sub,
    MultRescale,
    MultPlain(f64),
    AddPlain(f64),
    Rotate(i64),
    Negate,
    Bootstrap,
}

fn op_strategy() -> impl Strategy<Value = HomOp> {
    prop_oneof![
        Just(HomOp::Add),
        Just(HomOp::Sub),
        Just(HomOp::MultRescale),
        (-1.5..1.5f64).prop_map(HomOp::MultPlain),
        (-1.5..1.5f64).prop_map(HomOp::AddPlain),
        (1..8i64).prop_map(HomOp::Rotate),
        Just(HomOp::Negate),
        Just(HomOp::Bootstrap),
    ]
}

/// Applies the op sequence over any backend, maintaining the waterline
/// discipline (every result is rescaled back to degree 1 before reuse).
fn run<B: Backend>(
    be: &B,
    ops: &[HomOp],
    a0: &[f64],
    b0: &[f64],
) -> Result<Vec<f64>, halo_fhe::ckks::BackendError> {
    be.decrypt(&run_ct(be, ops, a0, b0)?)
}

/// Like [`run`] but returns the final ciphertext instead of decrypting.
fn run_ct<B: Backend>(
    be: &B,
    ops: &[HomOp],
    a0: &[f64],
    b0: &[f64],
) -> Result<B::Ct, halo_fhe::ckks::BackendError> {
    let mut a = be.encrypt(a0, LEVELS)?;
    let b = be.encrypt(b0, LEVELS)?;
    for op in ops {
        // Keep a companion at `a`'s level for the binary ops.
        let lv_a = be.level(&a);
        let companion = if be.level(&b) > lv_a && lv_a > 0 {
            be.modswitch(&b, be.level(&b) - lv_a)?
        } else {
            b.clone()
        };
        a = match op {
            HomOp::Add => be.add(&a, &companion)?,
            HomOp::Sub => be.sub(&a, &companion)?,
            HomOp::MultRescale => {
                if be.level(&a) < 2 {
                    be.bootstrap(&a, LEVELS)?
                } else {
                    let m = be.mult(&a, &companion)?;
                    be.rescale(&m)?
                }
            }
            HomOp::MultPlain(k) => {
                if be.level(&a) < 2 {
                    be.bootstrap(&a, LEVELS)?
                } else {
                    let m = be.mult_plain(&a, &[*k])?;
                    be.rescale(&m)?
                }
            }
            HomOp::AddPlain(k) => be.add_plain(&a, &[*k])?,
            HomOp::Rotate(r) => be.rotate(&a, *r)?,
            HomOp::Negate => be.negate(&a)?,
            HomOp::Bootstrap => be.bootstrap(&a, LEVELS)?,
        };
    }
    Ok(a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sim_and_toy_backends_agree(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        a0 in proptest::collection::vec(-1.0..1.0f64, N / 2),
        b0 in proptest::collection::vec(-1.0..1.0f64, N / 2),
    ) {
        let sim = SimBackend::exact(CkksParams {
            poly_degree: N,
            max_level: LEVELS,
            rf_bits: 40,
        });
        let toy = ToyBackend::new(N, LEVELS, 0x70FF);
        let sim_out = run(&sim, &ops, &a0, &b0).expect("sim runs");
        let toy_out = run(&toy, &ops, &a0, &b0).expect("toy runs");
        for (slot, (s, t)) in sim_out.iter().zip(&toy_out).enumerate() {
            prop_assert!(
                (s - t).abs() < 1e-2 + 1e-3 * s.abs(),
                "slot {slot}: sim {s} vs toy {t} (ops: {ops:?})"
            );
        }
    }

    #[test]
    fn toy_decrypt_inverts_encrypt(
        values in proptest::collection::vec(-8.0..8.0f64, N / 2),
        level in 0u32..=LEVELS,
    ) {
        let toy = ToyBackend::new(N, LEVELS, 0x5EED);
        let ct = toy.encrypt(&values, level).expect("encrypts");
        let out = toy.decrypt(&ct).expect("decrypts");
        for (a, b) in values.iter().zip(&out) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn toy_homomorphic_add_matches_plain(
        a in proptest::collection::vec(-4.0..4.0f64, N / 2),
        b in proptest::collection::vec(-4.0..4.0f64, N / 2),
    ) {
        let toy = ToyBackend::new(N, LEVELS, 0xADD);
        let ca = toy.encrypt(&a, 4).expect("encrypts");
        let cb = toy.encrypt(&b, 4).expect("encrypts");
        let sum = toy.add(&ca, &cb).expect("adds");
        let out = toy.decrypt(&sum).expect("decrypts");
        for i in 0..a.len() {
            prop_assert!((out[i] - (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn toy_homomorphic_mult_matches_plain(
        a in proptest::collection::vec(-2.0..2.0f64, N / 2),
        b in proptest::collection::vec(-2.0..2.0f64, N / 2),
    ) {
        let toy = ToyBackend::new(N, LEVELS, 0x3317);
        let ca = toy.encrypt(&a, 4).expect("encrypts");
        let cb = toy.encrypt(&b, 4).expect("encrypts");
        let prod = toy.mult(&ca, &cb).expect("mults");
        let res = toy.rescale(&prod).expect("rescales");
        let out = toy.decrypt(&res).expect("decrypts");
        for i in 0..a.len() {
            prop_assert!(
                (out[i] - a[i] * b[i]).abs() < 1e-4,
                "slot {i}: {} vs {}",
                out[i],
                a[i] * b[i]
            );
        }
    }

    /// A ciphertext survives save → load → save with bit-identical bytes
    /// and bit-identical decryption, at any level and after any prefix of
    /// homomorphic ops.
    #[test]
    fn toy_ciphertext_snapshot_roundtrips_bit_identically(
        ops in proptest::collection::vec(op_strategy(), 0..5),
        values in proptest::collection::vec(-2.0..2.0f64, N / 2),
        b0 in proptest::collection::vec(-1.0..1.0f64, N / 2),
    ) {
        let toy = ToyBackend::new(N, LEVELS, 0x5A4E);
        // Drive the ciphertext through a random op prefix so the snapshot
        // covers arbitrary levels, not just freshly encrypted ones.
        let ct = run_ct(&toy, &ops, &values, &b0).expect("prefix runs");
        let mut bytes = Vec::new();
        toy.ct_save(&ct, &mut bytes);
        let loaded = toy
            .ct_load(&mut SnapReader::new(&bytes))
            .expect("loads");
        let mut bytes2 = Vec::new();
        toy.ct_save(&loaded, &mut bytes2);
        prop_assert!(bytes == bytes2, "re-serialization must be byte-identical");
        let d0 = toy.decrypt(&ct).expect("decrypts original");
        let d1 = toy.decrypt(&loaded).expect("decrypts loaded");
        for (slot, (a, b)) in d0.iter().zip(&d1).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "slot {} differs", slot);
        }
    }

    #[test]
    fn toy_rotation_matches_cyclic_shift(
        values in proptest::collection::vec(-2.0..2.0f64, N / 2),
        r in 1..15i64,
    ) {
        let toy = ToyBackend::new(N, LEVELS, 0x407);
        let ct = toy.encrypt(&values, 3).expect("encrypts");
        let rot = toy.rotate(&ct, r).expect("rotates");
        let out = toy.decrypt(&rot).expect("decrypts");
        let n = values.len();
        for i in 0..n {
            let want = values[(i + r as usize) % n];
            prop_assert!((out[i] - want).abs() < 1e-4, "slot {i}");
        }
    }
}

/// One op of a random *straight-line* (loop-free) traced program.
#[derive(Debug, Clone)]
enum SlOp {
    AddY,
    SubY,
    MulY,
    MulConst(f64),
    AddConst(f64),
    Rotate(i64),
    Negate,
}

fn sl_op_strategy() -> impl Strategy<Value = SlOp> {
    prop_oneof![
        Just(SlOp::AddY),
        Just(SlOp::SubY),
        Just(SlOp::MulY),
        (-1.2..1.2f64).prop_map(SlOp::MulConst),
        (-1.2..1.2f64).prop_map(SlOp::AddConst),
        (1..8i64).prop_map(SlOp::Rotate),
        Just(SlOp::Negate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end agreement through the *compiler*: a random straight-line
    /// program is traced, compiled (TypeMatched inserts every rescale,
    /// modswitch, and bootstrap), then executed on both the exact toy
    /// lattice backend and the exact simulation backend via the shared
    /// `&self` Executor. The two executions must agree within toy noise.
    #[test]
    fn compiled_straight_line_programs_agree_on_toy_and_sim(
        ops in proptest::collection::vec(sl_op_strategy(), 1..6),
        x0 in proptest::collection::vec(-1.0..1.0f64, N / 2),
        y0 in proptest::collection::vec(-1.0..1.0f64, N / 2),
    ) {
        let mut b = FunctionBuilder::new("sl", N / 2);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let mut v = x;
        for op in &ops {
            v = match op {
                SlOp::AddY => b.add(v, y),
                SlOp::SubY => b.sub(v, y),
                SlOp::MulY => b.mul(v, y),
                SlOp::MulConst(k) => {
                    let c = b.const_splat(*k);
                    b.mul(v, c)
                }
                SlOp::AddConst(k) => {
                    let c = b.const_splat(*k);
                    b.add(v, c)
                }
                SlOp::Rotate(r) => b.rotate(v, *r),
                SlOp::Negate => b.negate(v),
            };
        }
        b.ret(&[v]);
        let src = b.finish();

        let params = CkksParams { poly_degree: N, max_level: LEVELS, rf_bits: 40 };
        let compiled = compile(&src, CompilerConfig::TypeMatched, &CompileOptions::new(params.clone()))
            .expect("compiles");
        let inputs = Inputs::new().cipher("x", x0.clone()).cipher("y", y0.clone());

        let toy = ToyBackend::new(N, LEVELS, 0x51A7);
        let sim = SimBackend::exact(params);
        let toy_out = Executor::new(&toy).run(&compiled.function, &inputs).expect("toy runs");
        let sim_out = Executor::new(&sim).run(&compiled.function, &inputs).expect("sim runs");
        for (slot, (t, s)) in toy_out.outputs[0].iter().zip(&sim_out.outputs[0]).enumerate() {
            prop_assert!(
                (t - s).abs() < 1e-2 + 1e-3 * s.abs(),
                "slot {slot}: toy {t} vs sim {s} (ops: {ops:?})"
            );
        }
    }
}
