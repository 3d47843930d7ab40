//! Scope-safe metrics under concurrency: two sessions running different
//! ciphertext workloads on different threads of one shared backend must
//! each see *exactly* their own backend op counts through
//! [`ScopedCounters`] — that is the property the serving layer's
//! per-session accounting stands on.
//!
//! Counters land only in scopes; only the limb-buffer pool is
//! process-wide, and no pool counter is asserted here.

use halo_fhe::ckks::ScopedCounters;
use halo_fhe::prelude::*;

const N: usize = 64;
const LEVELS: u32 = 6;

#[test]
fn concurrent_scopes_each_see_only_their_own_work() {
    let be = ToyBackend::new(N, LEVELS, 0xA11CE);
    let values: Vec<f64> = (0..N / 2).map(|i| (i as f64 / 9.0).cos()).collect();
    let ct = be.encrypt(&values, LEVELS).expect("encrypt");

    // Warm the rotation key cache and measure single-op baselines inside
    // scopes of their own, so the threaded assertion below is exact even
    // where costs depend on cache temperature.
    for off in [1i64, 2, 3] {
        be.rotate(&ct, off).expect("warm-up rotate");
    }
    let scope = ScopedCounters::begin();
    be.rotate(&ct, 1).expect("baseline rotate");
    let base_rot = scope.finish();
    assert!(base_rot.keyswitch_calls > 0, "rotate must key-switch");

    let scope = ScopedCounters::begin();
    be.mult(&ct, &ct).expect("baseline mult");
    let base_mul = scope.finish();
    assert!(base_mul.keyswitch_calls > 0, "multcc must relinearize");

    // Two tenants on two threads, interleaving on the shared backend.
    // Thread A rotates 3×, thread B multiplies 5×; each scope must read
    // exactly 3× (resp. 5×) its single-op baseline, with nothing leaked
    // from the sibling thread.
    let (got_a, got_b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let scope = ScopedCounters::begin();
            for off in [1i64, 2, 3] {
                be.rotate(&ct, off).expect("rotate");
            }
            scope.finish()
        });
        let b = s.spawn(|| {
            let scope = ScopedCounters::begin();
            for _ in 0..5 {
                be.mult(&ct, &ct).expect("mult");
            }
            scope.finish()
        });
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });

    let want_a = base_rot.add(&base_rot).add(&base_rot);
    let mut want_b = base_mul;
    for _ in 0..4 {
        want_b = want_b.add(&base_mul);
    }
    assert_eq!(
        (got_a.digit_decomposes, got_a.keyswitch_calls),
        (want_a.digit_decomposes, want_a.keyswitch_calls),
        "scope A must count exactly its 3 rotations"
    );
    assert_eq!(
        (
            got_a.ntt_forward_rows,
            got_a.ntt_inverse_rows,
            got_a.digit_ntt_rows
        ),
        (
            want_a.ntt_forward_rows,
            want_a.ntt_inverse_rows,
            want_a.digit_ntt_rows
        ),
        "scope A NTT row counts must match 3 solo rotations"
    );
    assert_eq!(
        (got_b.digit_decomposes, got_b.keyswitch_calls),
        (want_b.digit_decomposes, want_b.keyswitch_calls),
        "scope B must count exactly its 5 multiplications"
    );
    // NTT rows are *not* asserted exactly for B: the relinearization
    // key's NTT-resident cache warms on first use, so the first mult in
    // any sequence pays rows the rest do not. The scope still must have
    // captured B's NTT work.
    assert!(got_b.ntt_forward_rows > 0);
}
