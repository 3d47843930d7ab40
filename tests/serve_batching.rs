//! The serving layer's core guarantee, property-tested: a job whose
//! execution was coalesced into a shared SIMD ciphertext returns output
//! **bit-identical** to what its solo execution returns, on the exact
//! backend, across batch sizes 2/4/16 and worker pools of 1/2/4 threads.
//!
//! The program under test is a *compiled* HALO function (type-matched
//! pipeline: per-iteration head bootstraps, rescales, modswitches), so
//! the identity holds through the full level-management machinery, not
//! just toy arithmetic.

use proptest::prelude::*;
use std::sync::Arc;

use halo_fhe::ckks::{MetricsSnapshot, ScopedCounters};
use halo_fhe::prelude::*;
use halo_fhe::runtime::serve;

const SLOTS: usize = 32;

/// Compiled squaring iteration `w ← w²` (`n` trips): slotwise after
/// compilation (no rotations, no masks), hence batchable.
fn compiled_program() -> Arc<Function> {
    let mut b = FunctionBuilder::new("square_iter", SLOTS);
    let x = b.input_cipher("x");
    let r = b.for_loop(TripCount::dynamic("n"), &[x], 2, |b, a| {
        vec![b.mul(a[0], a[0])]
    });
    b.ret(&r);
    let src = b.finish();
    let mut opts = CompileOptions::new(CkksParams::test_small());
    opts.params.poly_degree = 2 * SLOTS;
    let compiled = compile(&src, CompilerConfig::TypeMatched, &opts).expect("compiles");
    Arc::new(compiled.function)
}

fn backend() -> SimBackend {
    SimBackend::exact(CkksParams::test_small())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_jobs_are_bit_identical_to_solo(
        batch in prop_oneof![Just(2usize), Just(4), Just(16)],
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
        seed_vals in proptest::collection::vec(-0.9..0.9f64, 32),
        n in 1u64..4,
    ) {
        let be = backend();
        let prog = compiled_program();
        // `batch` jobs, each a 2-slot payload drawn from the random pool
        // (window width 2 ⇒ 16 windows ⇒ batch 16 fits in one ciphertext).
        let jobs: Vec<Vec<f64>> = (0..batch)
            .map(|j| vec![seed_vals[(2 * j) % 32], seed_vals[(2 * j + 1) % 32]])
            .collect();

        // Ground truth: each job alone on a fresh executor.
        let solo: Vec<Vec<Vec<f64>>> = jobs
            .iter()
            .map(|d| {
                Executor::new(&be)
                    .run(&prog, &Inputs::new().cipher("x", d.clone()).env("n", n))
                    .expect("solo run")
                    .outputs
            })
            .collect();

        let config = ServeConfig {
            workers,
            max_batch: batch,
            // Generous linger so coalescing is deterministic: whichever
            // worker grabs the head waits until the full compatible
            // batch is queued (it breaks out the moment that happens).
            batch_window_ms: 2_000,
            ..ServeConfig::default()
        };
        let (outcomes, report) = serve::serve(&be, config, |srv| {
            let sess = srv.session("prop");
            let tickets: Vec<_> = jobs
                .iter()
                .map(|d| {
                    srv.submit(sess, &prog, Inputs::new().cipher("x", d.clone()).env("n", n))
                        .expect("admit")
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("job ok"))
                .collect::<Vec<_>>()
        });

        prop_assert_eq!(report.jobs_done, batch as u64);
        prop_assert!(report.packed_batches >= 1, "jobs must have coalesced");
        for (j, (outcome, want)) in outcomes.iter().zip(&solo).enumerate() {
            prop_assert!(outcome.batch_size == batch, "job {} batch size", j);
            prop_assert!(
                &outcome.outputs == want,
                "job {} batched output differs from solo",
                j
            );
            // Accounting sanity: a shared run costs each job a fraction.
            prop_assert!(outcome.share_us < outcome.exec_us);
            prop_assert!(outcome.latency_us >= outcome.share_us);
        }
        // The shared run bootstraps once per iteration regardless of
        // batch size — that is the whole point.
        prop_assert!(outcomes[0].bootstrap_count > 0);
    }
}

/// Per-session accounting keeps a batch's totals: three sessions' jobs
/// coalesce into one packed toy-backend run of a program with a single
/// relinearizing `multcc`, and the sessions' counter shares sum to what
/// one scoped solo run of the program counts (a floor split would credit
/// nobody with the one key switch).
#[test]
fn session_counter_shares_sum_to_the_shared_run() {
    const N: usize = 32;
    const LEVELS: u32 = 4;
    let mut b = FunctionBuilder::new("square", N / 2);
    let x = b.input_cipher("x");
    let y = b.mul(x, x);
    b.ret(&[y]);
    let opts = CompileOptions::new(CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    });
    let prog = Arc::new(
        compile(&b.finish(), CompilerConfig::TypeMatched, &opts)
            .expect("compiles")
            .function,
    );
    let be = ToyBackend::new(N, LEVELS, 0x5E55);
    let inputs = |j: usize| Inputs::new().cipher("x", vec![0.1 * j as f64 - 0.2; 4]);

    // Warm-up: the relinearization key's NTT-resident cache fills on
    // first use, so only later runs cost the same.
    Executor::new(&be).run(&prog, &inputs(0)).expect("warm-up");
    let scope = ScopedCounters::begin();
    Executor::new(&be).run(&prog, &inputs(0)).expect("solo run");
    let solo = scope.finish();
    assert_eq!(solo.keyswitch_calls, 1, "one multcc, one relinearization");

    let config = ServeConfig {
        workers: 1,
        max_batch: 3,
        // Linger until all three jobs are queued, as `serving_rows` does.
        batch_window_ms: 2_000,
        ..ServeConfig::default()
    };
    let ((), report) = serve::serve(&be, config, |srv| {
        let tickets: Vec<_> = (0..3)
            .map(|j| {
                let sess = srv.session(&format!("tenant-{j}"));
                srv.submit(sess, &prog, inputs(j)).expect("admit")
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().expect("job ok").batch_size, 3);
        }
    });
    assert_eq!(report.packed_batches, 1);
    assert_eq!(report.sessions.len(), 3);
    let summed = report
        .sessions
        .iter()
        .fold(MetricsSnapshot::default(), |acc, s| acc.add(&s.ops));
    let compared = |m: &MetricsSnapshot| {
        (
            m.ntt_forward_rows,
            m.ntt_inverse_rows,
            m.digit_decomposes,
            m.digit_ntt_rows,
            m.keyswitch_calls,
        )
    };
    assert_eq!(compared(&summed), compared(&solo));
}
