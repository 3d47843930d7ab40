//! Op/alloc counter assertions for hoisted rotation and the exact
//! transform budget of the key-switching ops, each read from a scope of
//! its own. Only the limb-buffer pool is process-wide: sibling tests
//! running ciphertext ops concurrently would perturb the `poly_allocs`
//! and `pool_reuses` asserted here, so this lives in its own
//! integration-test binary (and one test function).

use halo_fhe::ckks::{MetricsSnapshot, ScopedCounters};
use halo_fhe::prelude::*;

const N: usize = 64;
const LEVELS: u32 = 6;

#[test]
fn hoisted_batch_decomposes_once_and_reuses_pooled_buffers() {
    let be = ToyBackend::new(N, LEVELS, 0xCAFE);
    let values: Vec<f64> = (0..N / 2).map(|i| (i as f64 / 5.0).cos()).collect();
    let ct = be.encrypt(&values, LEVELS).expect("encrypt");
    let offsets: Vec<i64> = (1..=8).collect();

    // Cold batch: generates every Galois key, builds NTT tables, and seeds
    // the limb-buffer pool. All fresh heap allocations happen here.
    let scope = ScopedCounters::begin();
    std::hint::black_box(be.rotate_batch(&ct, &offsets).expect("warm-up"));
    let cold = scope.finish();
    assert!(
        cold.poly_allocs > 3,
        "the cold batch must actually allocate (got {})",
        cold.poly_allocs
    );

    // Warm hoisted batch: exactly one digit decomposition, exactly the
    // per-digit NTT row count of a *single* rotation (that work is shared
    // across all eight offsets), and essentially zero fresh allocations —
    // every limb buffer is recycled through the pool.
    let scope = ScopedCounters::begin();
    let batch = be.rotate_batch(&ct, &offsets).expect("rotate_batch");
    let hoisted = scope.finish();
    assert_eq!(batch.len(), offsets.len());
    assert_eq!(
        hoisted.digit_decomposes, 1,
        "a hoisted batch must decompose exactly once"
    );
    assert_eq!(hoisted.keyswitch_calls, offsets.len() as u64);
    assert!(
        hoisted.poly_allocs <= 3,
        "a warm k=8 batch must run (near) zero-copy out of the buffer pool: \
         {} fresh allocations",
        hoisted.poly_allocs
    );
    assert!(
        hoisted.pool_reuses > 0,
        "a warm batch must draw its buffers from the pool"
    );
    assert!(
        hoisted.lazy_reductions_skipped > 0,
        "the lazy NTT/key-product path must be on by default and must \
         record its deferred reductions"
    );

    let scope = ScopedCounters::begin();
    std::hint::black_box(be.rotate(&ct, 1).expect("rotate"));
    let single = scope.finish();
    assert_eq!(
        hoisted.digit_ntt_rows, single.digit_ntt_rows,
        "the batch must run one per-digit forward-NTT set, same as one rotation"
    );

    // The transform budget, pinned exactly, from the closed form of hybrid
    // key switching. With dnum = 5, `ToyBackend::new` puts α = ⌈7/5⌉ = 2
    // of the L+1 = 7 level primes in each digit, with k = 2 special
    // primes. At level 6 (m = 7 limbs) one key switch has D = ⌈7/2⌉ = 4
    // digits over m+k = 9 limbs and runs:
    // - 7 inverse rows to decompose;
    // - D(m+k) − m = 36 − 7 = 29 digit rows (each digit's own-prime rows
    //   are the input's, copied rather than transformed);
    // - a mod-down of k = 2 inverse + m = 7 forward rows per half.
    // So forward = 29 + 2·7 = 43 and inverse = 7 + 2·2 = 11. A rescale
    // drops one limb from each component (1 inverse + 6 forward rows).
    // Deferred canonicalizations at N = 64: each transform defers
    // N/2·log₂N + N = 256, a redundant digit row N more (320), and the
    // fused inner product 2N per digit and output limb:
    // 7·256 + 29·320 + 2·64·4·9 + 2·(2 + 7)·256 = 20,288; a rescale defers
    // 2·7·256 = 3,584. Every deferred canonicalization is counted, so a
    // change that adds back a transform or a per-element reduction fails
    // here on any machine.
    std::hint::black_box(be.mult(&ct, &ct).expect("relin key warm-up"));
    let scope = ScopedCounters::begin();
    let prod = be.mult(&ct, &ct).expect("mult");
    let mult = scope.finish();
    let scope = ScopedCounters::begin();
    std::hint::black_box(be.rescale(&prod).expect("rescale"));
    let rescale = scope.finish();
    let budget = |m: &MetricsSnapshot| {
        (
            m.ntt_forward_rows,
            m.ntt_inverse_rows,
            m.digit_ntt_rows,
            m.lazy_reductions_skipped,
        )
    };
    assert_eq!(budget(&mult), (43, 11, 29, 20_288), "warm ct-ct multiply");
    assert_eq!(budget(&rescale), (12, 2, 0, 3_584), "rescale");
    assert_eq!(
        budget(&single),
        (43, 11, 29, 20_288),
        "single-offset rotate"
    );

    // The sequential path decomposes (and NTTs digits) once per rotation.
    let scope = ScopedCounters::begin();
    for &o in &offsets {
        std::hint::black_box(be.rotate(&ct, o).expect("rotate"));
    }
    let sequential = scope.finish();
    assert_eq!(sequential.digit_decomposes, offsets.len() as u64);
    assert_eq!(
        sequential.digit_ntt_rows,
        single.digit_ntt_rows * offsets.len() as u64
    );
    assert!(
        hoisted.ntt_forward_rows < sequential.ntt_forward_rows,
        "hoisting must run fewer forward NTT rows: {} vs {}",
        hoisted.ntt_forward_rows,
        sequential.ntt_forward_rows
    );

    // Duplicate offsets are memoized by Galois exponent: a batch with
    // repeats pays key switching only once per distinct offset, and the
    // cloned results are bit-identical to recomputing.
    let scope = ScopedCounters::begin();
    let dup = be.rotate_batch(&ct, &[3, 3, 5, 3]).expect("dup batch");
    let d = scope.finish();
    assert_eq!(
        d.keyswitch_calls, 2,
        "two distinct offsets, two key switches"
    );
    assert_eq!(dup.len(), 4);
    let three = be.rotate(&ct, 3).expect("rotate 3");
    for i in [0usize, 1, 3] {
        assert_eq!(
            be.decrypt(&dup[i]).expect("decrypt"),
            be.decrypt(&three).expect("decrypt"),
            "memoized duplicate at position {i} must match a direct rotation"
        );
    }
}
