//! Edge-case hardening for `rotate_batch`: empty and all-duplicate offset
//! batches must not pay for work they don't do. Counter-asserted, each
//! check in a scope of its own. Only the limb-buffer pool is
//! process-wide: sibling tests running ciphertext ops concurrently would
//! perturb the `poly_allocs` and `pool_reuses` asserted here, so this
//! lives in its own integration-test binary, in one test function.

use halo_fhe::ckks::ScopedCounters;
use halo_fhe::prelude::*;

const N: usize = 64;
const LEVELS: u32 = 6;

#[test]
fn degenerate_batches_skip_the_key_cache_and_decomposer() {
    let be = ToyBackend::new(N, LEVELS, 0xBEEF);
    let values: Vec<f64> = (0..N / 2).map(|i| (i as f64 / 7.0).sin()).collect();
    let ct = be.encrypt(&values, LEVELS).expect("encrypt");
    let slots = (N / 2) as i64;

    // --- Empty batch: literally free. No decomposition, no key-switch,
    // no key-cache fill, not even a buffer allocation. ---
    let scope = ScopedCounters::begin();
    let out = be.rotate_batch(&ct, &[]).expect("empty batch");
    let d = scope.finish();
    assert!(out.is_empty());
    assert_eq!(d.digit_decomposes, 0, "empty batch touched the decomposer");
    assert_eq!(d.digit_ntt_rows, 0);
    assert_eq!(d.keyswitch_calls, 0, "empty batch touched the key cache");
    assert_eq!(d.poly_allocs, 0, "empty batch allocated");
    assert_eq!(d.pool_reuses, 0);
    assert_eq!(d.ntt_forward_rows, 0);
    assert_eq!(d.ntt_inverse_rows, 0);

    // --- All-identity duplicates (offset ≡ 0 mod slots): clones only.
    // The Galois exponent is 1 for every entry, so neither the decomposer
    // nor the key cache is consulted. ---
    for offsets in [&[0i64, 0, 0][..], &[slots, -slots, 0, 2 * slots][..]] {
        let scope = ScopedCounters::begin();
        let out = be.rotate_batch(&ct, offsets).expect("identity batch");
        let d = scope.finish();
        assert_eq!(out.len(), offsets.len());
        assert_eq!(
            d.digit_decomposes, 0,
            "identity batch {offsets:?} touched the decomposer"
        );
        assert_eq!(
            d.keyswitch_calls, 0,
            "identity batch {offsets:?} touched the key cache"
        );
        for r in &out {
            assert_eq!(be.decrypt(r).unwrap(), be.decrypt(&ct).unwrap());
        }
    }

    // --- All-duplicate non-identity batch: exactly the cost of ONE
    // rotation (one decomposition, one key-switch), however long the
    // batch — the PR 6 memoization collapses the duplicates, and the
    // dedicated fast path never sizes the hoisting slab for more. ---
    let warm = be.rotate_batch(&ct, &[5]).expect("warm-up single rotate");
    let scope = ScopedCounters::begin();
    let single = be.rotate_batch(&ct, &[5]).expect("single rotate");
    let one = scope.finish();

    let scope = ScopedCounters::begin();
    let out = be.rotate_batch(&ct, &[5; 16]).expect("all-duplicate batch");
    let d = scope.finish();
    assert_eq!(out.len(), 16);
    assert_eq!(
        d.digit_decomposes, 1,
        "all-duplicate batch must decompose exactly once"
    );
    assert_eq!(
        d.keyswitch_calls, 1,
        "all-duplicate batch must key-switch exactly once"
    );
    assert_eq!(
        (d.digit_decomposes, d.digit_ntt_rows, d.keyswitch_calls),
        (
            one.digit_decomposes,
            one.digit_ntt_rows,
            one.keyswitch_calls
        ),
        "a batch of equal offsets must cost what a single rotation costs"
    );
    // And the duplicates decode bit-identically to the single rotation
    // (toy decryption is deterministic, so equal plaintexts ⇔ the clones
    // really are the memoized rotation).
    let single_pt = be.decrypt(&single[0]).unwrap();
    assert_eq!(single_pt, be.decrypt(&warm[0]).unwrap());
    for r in &out {
        assert_eq!(be.decrypt(r).unwrap(), single_pt);
    }

    // --- Offsets that only *differ* still pay per unique exponent: the
    // hardening must not have broken the general hoisted path. ---
    let scope = ScopedCounters::begin();
    let out = be.rotate_batch(&ct, &[1, 2, 1, 2, 3]).expect("mixed batch");
    let d = scope.finish();
    assert_eq!(out.len(), 5);
    assert_eq!(d.digit_decomposes, 1, "hoisting shares one decomposition");
    assert_eq!(d.keyswitch_calls, 3, "one key-switch per unique exponent");
    for (&o, r) in [1i64, 2, 1, 2, 3].iter().zip(&out) {
        let seq = be.rotate(&ct, o).unwrap();
        assert_eq!(
            be.decrypt(r).unwrap(),
            be.decrypt(&seq).unwrap(),
            "offset {o} differs from sequential rotate"
        );
    }

    // --- The default trait implementation (sim backend) honors the same
    // edges: empty in, empty out; duplicates collapse to clones. ---
    let sim = SimBackend::exact(CkksParams::test_small());
    let sct = sim.encrypt(&[1.0, -2.0, 3.0], 4).expect("sim encrypt");
    assert!(sim.rotate_batch(&sct, &[]).expect("sim empty").is_empty());
    let dups = sim.rotate_batch(&sct, &[3; 7]).expect("sim duplicates");
    assert_eq!(dups.len(), 7);
    let solo = sim.rotate(&sct, 3).expect("sim rotate");
    for r in &dups {
        assert_eq!(sim.decrypt(r).unwrap(), sim.decrypt(&solo).unwrap());
    }
}
