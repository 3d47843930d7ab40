//! Tentpole acceptance tests for the shared-state parallel execution
//! engine: the parallel toy backend is *bit-identical* to the serial one,
//! its ciphertext bytes match a pinned digest at every thread count, and
//! a single `Arc<ToyBackend>` serves many threads concurrently.

use std::sync::{Arc, Mutex};

use halo_fhe::ckks::parallel;
use halo_fhe::ckks::snapshot::SnapReader;
use halo_fhe::ckks::toy::encode::Encoder;
use halo_fhe::ckks::toy::ToyCt;
use halo_fhe::prelude::*;

/// Serializes the tests that flip the process-global thread-count
/// override so they never race each other. Other tests tolerate any
/// setting — the override is bit-identity-preserving.
static GLOBAL_KNOBS: Mutex<()> = Mutex::new(());

// Large enough that the per-limb loops cross `parallel::MIN_PAR_WORK`
// and genuinely fan out across threads.
const N: usize = 1024;
const LEVELS: u32 = 4;
const SLOTS: usize = N / 2;

fn input_a() -> Vec<f64> {
    (0..SLOTS).map(|i| (i as f64 / 97.0).sin()).collect()
}

fn input_b() -> Vec<f64> {
    (0..SLOTS).map(|i| (i as f64 / 53.0).cos()).collect()
}

/// Encrypt → multiply → rescale → rotate → add → bootstrap → decrypt,
/// exercising every parallelized code path (NTT, pointwise, rescale,
/// key-switch digit decomposition, modswitch).
fn workload(be: &ToyBackend) -> Vec<f64> {
    let a = be.encrypt(&input_a(), LEVELS).expect("encrypt a");
    let b = be.encrypt(&input_b(), LEVELS).expect("encrypt b");
    let m = be
        .rescale(&be.mult(&a, &b).expect("mult"))
        .expect("rescale");
    let r = be.rotate(&m, 3).expect("rotate");
    let s = be
        .add(&r, &be.modswitch(&b, 1).expect("modswitch"))
        .expect("add");
    let t = be.bootstrap(&s, LEVELS).expect("bootstrap");
    be.decrypt(&t).expect("decrypt")
}

/// What the workload computes, in plain `f64` slot arithmetic.
fn expected() -> Vec<f64> {
    let (a, b) = (input_a(), input_b());
    let prod: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
    (0..SLOTS).map(|i| prod[(i + 3) % SLOTS] + b[i]).collect()
}

/// The parallel engine's core requirement: with identical seeds, 2- and
/// 4-thread runs decrypt to *bit-identical* `f64` slots as a 1-thread
/// run. All runs live in one test function so the process-global thread
/// override is never raced by a sibling test.
#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let _g = GLOBAL_KNOBS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    parallel::set_threads(Some(1));
    let serial = workload(&ToyBackend::new(N, LEVELS, 0xB17));
    for threads in [2usize, 4] {
        parallel::set_threads(Some(threads));
        let parallel_out = workload(&ToyBackend::new(N, LEVELS, 0xB17));
        assert_eq!(serial.len(), parallel_out.len());
        for (slot, (s, p)) in serial.iter().zip(&parallel_out).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "slot {slot} differs between 1 and {threads} threads: {s} vs {p}"
            );
        }
    }
    parallel::set_threads(None);
    // Sanity: both are the *right* answer, not identically wrong.
    for (slot, (s, e)) in serial.iter().zip(&expected()).enumerate() {
        assert!((s - e).abs() < 1e-3, "slot {slot}: {s} vs expected {e}");
    }
}

/// The pinned digest of [`chain_digest`] at `L = 4`, where `dnum = 5`
/// puts one prime in each digit (`α = 1`, one special prime): per-prime
/// key switching. It moved from `0x7409_c28b_33e1_e447` when the toy
/// backend went from one key-switching chain per (kind, level) to one
/// chain per kind, generated at the top level from a per-kind RNG and
/// sliced per level: the key bytes behind every `mult` and rotation
/// changed. The value was derived from that change at 1, 2 and 4 threads,
/// which all produced it, and hybrid key switching reproduces it at this
/// setting. A change that alters toy ciphertexts on purpose derives it
/// again and says so.
const PINNED_DIGEST: u64 = 0xd22e_4b36_8020_3f20;

/// The level count of [`HYBRID_DIGEST`]: with `dnum = 5`, its 11 level
/// primes go `α = ⌈11/5⌉ = 3` to a digit (3 + 3 + 3 + 2, the last partial)
/// with `k = 3` special primes.
const HYBRID_LEVELS: u32 = 10;

/// The digest of [`chain_digest`] at [`HYBRID_LEVELS`], under hybrid key
/// switching. Derived when hybrid key switching landed, at 1, 2 and 4
/// threads, which all produced it.
const HYBRID_DIGEST: u64 = 0xf01f_d346_4ce7_6edc;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Dyadic constants: each encodes exactly to `m_0 = cΔ` with every other
/// coefficient zero, so no `sin`/`cos` rounding reaches a ciphertext.
const DYADIC: [f64; 3] = [1.0, 0.5, -0.25];

/// The FNV-1a digest of the `halo-ct-toy/1` bytes of every intermediate of
/// a fixed op chain, then of the RNG replay state. Nothing is decrypted or
/// bootstrapped, so the digest depends only on integer arithmetic and the
/// seeded RNG, not on the platform's floating-point library.
fn chain_digest(levels: u32) -> u64 {
    let be = ToyBackend::new(N, levels, 0xD16E57);
    let [one, half, minus_quarter] = DYADIC;
    let a = be.encrypt(&[one], levels).expect("encrypt a");
    let b = be.encrypt(&[half], levels).expect("encrypt b");
    let m = be.mult(&a, &b).expect("mult");
    let r = be.rescale(&m).expect("rescale");
    let rot = be.rotate(&r, 3).expect("rotate");
    // A repeated offset, and two identity offsets (0 and a full cycle).
    let batch = be
        .rotate_batch(&r, &[1, 0, 5, 1, SLOTS as i64])
        .expect("rotate_batch");
    let mp = be.mult_plain(&rot, &[minus_quarter]).expect("mult_plain");
    let ap = be.add_plain(&mp, &[half]).expect("add_plain");
    let ms = be.modswitch(&b, 1).expect("modswitch");
    let s = be.add(&rot, &ms).expect("add");
    let chain: Vec<&ToyCt> = [&a, &b, &m, &r, &rot]
        .into_iter()
        .chain(&batch)
        .chain([&mp, &ap, &ms, &s])
        .collect();
    let mut bytes = Vec::new();
    for ct in chain {
        be.ct_save(ct, &mut bytes);
    }
    be.rng_save(&mut bytes);
    fnv1a(0xcbf2_9ce4_8422_2325, &bytes)
}

/// Toy ciphertext bytes are pinned: the fixed chain hashes to the same
/// digest at 1, 2 and 4 threads, and that digest is [`PINNED_DIGEST`]
/// under per-prime digits and [`HYBRID_DIGEST`] under hybrid ones.
#[test]
fn ciphertext_bytes_match_the_pinned_digest_at_every_thread_count() {
    let _g = GLOBAL_KNOBS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let enc = Encoder::new(N);
    let delta = (1u64 << 40) as f64;
    for c in DYADIC {
        let m = enc.encode(&[c; SLOTS], delta);
        assert_eq!(m[0], (c * delta) as i128, "constant {c}");
        assert!(m[1..].iter().all(|&x| x == 0), "constant {c}");
    }
    for threads in [1usize, 2, 4] {
        parallel::set_threads(Some(threads));
        for (levels, pinned) in [(LEVELS, PINNED_DIGEST), (HYBRID_LEVELS, HYBRID_DIGEST)] {
            let digest = chain_digest(levels);
            assert_eq!(
                digest, pinned,
                "{threads} thread(s), L = {levels}: digest {digest:#018x} differs from the pinned one"
            );
        }
    }
    parallel::set_threads(None);
}

/// A save → load → resume round-trip of a ciphertext snapshot
/// (`halo-ct-toy/1`) plus RNG state is bit-identical to never having
/// snapshotted, even when the resumed half runs at another thread count.
#[test]
fn snapshots_resume_bit_identically_at_another_thread_count() {
    let _g = GLOBAL_KNOBS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    parallel::set_threads(Some(1));
    let be = ToyBackend::new(N, LEVELS, 0xD15C);
    let a = be.encrypt(&input_a(), LEVELS).expect("encrypt a");
    let b = be.encrypt(&input_b(), LEVELS).expect("encrypt b");
    let m = be
        .rescale(&be.mult(&a, &b).expect("mult"))
        .expect("rescale");
    let ct = be.rotate(&m, 3).expect("rotate");
    let mut bytes = Vec::new();
    be.ct_save(&ct, &mut bytes);
    be.rng_save(&mut bytes);

    // Resume: continue the computation on the original handle, then on the
    // reloaded one (with the RNG restored), at a different thread count.
    let resumed_orig = be
        .decrypt(&be.rotate(&ct, 1).expect("rotate"))
        .expect("decrypt");
    let mut r = SnapReader::new(&bytes);
    let loaded = be.ct_load(&mut r).expect("ct_load");
    be.rng_load(&mut r).expect("rng_load");
    parallel::set_threads(Some(4));
    let resumed_snap = be
        .decrypt(&be.rotate(&loaded, 1).expect("rotate"))
        .expect("decrypt");
    for (slot, (a, b)) in resumed_orig.iter().zip(&resumed_snap).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "slot {slot}: resumed-from-snapshot run diverged: {a} vs {b}"
        );
    }
    parallel::set_threads(None);
}

/// The redesigned `&self` Backend API in action: one backend behind an
/// `Arc`, four threads encrypting/multiplying/bootstrapping through it
/// at once — including concurrent lazy key-switching-key generation.
#[test]
fn one_arc_backend_serves_many_threads() {
    let be = Arc::new(ToyBackend::new(N, LEVELS, 0x5AFE));
    let outs: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let be = Arc::clone(&be);
                scope.spawn(move || workload(&be))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect()
    });
    let want = expected();
    for (thread, out) in outs.iter().enumerate() {
        for (slot, (got, exp)) in out.iter().zip(&want).enumerate() {
            assert!(
                (got - exp).abs() < 1e-3,
                "thread {thread} slot {slot}: {got} vs {exp}"
            );
        }
    }
}

/// An `Executor` borrows the backend, so several executors can share one
/// backend instance across threads for whole compiled programs.
#[test]
fn executors_share_one_backend_across_threads() {
    let mut b = FunctionBuilder::new("shared", SLOTS);
    let x = b.input_cipher("x");
    let y = b.input_cipher("y");
    let m = b.mul(x, y);
    let r = b.rotate(m, 1);
    b.ret(&[r]);
    let src = b.finish();
    let opts = CompileOptions::new(CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    });
    let compiled = compile(&src, CompilerConfig::TypeMatched, &opts).expect("compiles");

    let be = ToyBackend::new(N, LEVELS, 0xEC);
    let inputs = Inputs::new().cipher("x", input_a()).cipher("y", input_b());
    let want = reference_run(&src, &inputs, SLOTS).expect("reference");
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let out = Executor::new(&be)
                    .run(&compiled.function, &inputs)
                    .expect("runs");
                for (slot, (got, exp)) in out.outputs[0].iter().zip(&want[0]).enumerate() {
                    assert!((got - exp).abs() < 1e-3, "slot {slot}: {got} vs {exp}");
                }
            });
        }
    });
}
