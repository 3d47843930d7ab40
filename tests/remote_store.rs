//! Remote-store integration: durable execution through a [`RemoteStore`]
//! over the seeded flaky [`SimObjectStore`], end to end through the
//! executor. The invariants mirror `tests/durable_exec.rs` one network
//! away: every run and every resume completes bit-identically to the
//! uninterrupted run, durability failures degrade (retry → hedge →
//! breaker → spill → skipped snapshot / fresh start), and the
//! remote-resilience telemetry lands in [`RunStats`].

use halo_fhe::prelude::*;

const N: usize = 32; // 16 slots
const LEVELS: u32 = 8;
const ITERS: u64 = 6;

fn params() -> CkksParams {
    CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    }
}

/// `w ← w·x + 0.1` iterated dynamically — the same durable workload as
/// `tests/durable_exec.rs`, so snapshots carry real mid-loop ciphertexts.
fn program() -> Function {
    let mut b = FunctionBuilder::new("remote_loop", N / 2);
    let x = b.input_cipher("x");
    let w0 = b.input_cipher("w0");
    let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
        let p = b.mul(args[0], x);
        let c = b.const_splat(0.1);
        vec![b.add(p, c)]
    });
    b.ret(&r);
    let src = b.finish();
    compile(&src, CompilerConfig::Halo, &CompileOptions::new(params()))
        .expect("compiles")
        .function
}

fn inputs() -> Inputs {
    Inputs::new()
        .cipher("x", vec![0.8])
        .cipher("w0", vec![1.0])
        .env("n", ITERS)
}

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn baseline() -> Vec<Vec<u64>> {
    let be = SimBackend::new(params());
    bits(
        &Executor::with_policy(&be, ExecPolicy::resilient())
            .run_durable(&program(), &inputs(), &MemStore::new(0))
            .expect("baseline runs")
            .outputs,
    )
}

fn spill_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A healthy remote: run durably, then resume from the remote's objects
/// alone on a "different machine" (fresh store, no spill) — cross-machine
/// resume is bit-identical, and telemetry lands in `RunStats`.
#[test]
fn remote_run_and_cross_machine_resume_are_bit_identical() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let base = baseline();

    let store = RemoteStore::new(
        SimObjectStore::new(RemoteFaultSpec::none(), 1),
        RemotePolicy::default(),
        1,
    );
    let be = SimBackend::new(params());
    let out = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &store)
        .expect("durable run over the remote");
    assert_eq!(bits(&out.outputs), base);
    assert_eq!(out.stats.snapshot_writes, ITERS);
    assert_eq!(out.stats.remote.puts, ITERS, "telemetry reached RunStats");
    assert_eq!(out.stats.remote.spilled_snapshots, 0);

    // "Another machine": a fresh RemoteStore wrapping a remote that holds
    // the same objects (copied raw), no local spill, different jitter.
    let other = RemoteStore::new(
        SimObjectStore::new(RemoteFaultSpec::none(), 2),
        RemotePolicy::default(),
        2,
    );
    for (key, bytes) in store.remote().objects() {
        other.remote().insert_raw(&key, &bytes);
    }
    let be2 = SimBackend::new(params());
    let resumed = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &other)
        .expect("cross-machine resume");
    assert_eq!(bits(&resumed.outputs), base);
    assert_eq!(resumed.stats.resumes_from_disk, 1);
}

/// Chaos across seeds: every fault class at once. Runs and resumes
/// through the same flaky remote must never abort and never diverge;
/// across the seed sweep the resilience machinery must demonstrably
/// engage (retries with charged backoff at minimum).
#[test]
fn remote_chaos_never_aborts_and_stays_bit_identical() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let base = baseline();

    let mut total_retries = 0u64;
    let mut total_backoff = 0.0f64;
    let mut total_faults = 0u64;
    for seed in 0..8u64 {
        let store = RemoteStore::new(
            SimObjectStore::new(RemoteFaultSpec::chaos(), seed),
            RemotePolicy::default(),
            seed,
        )
        .with_spill(DiskStore::open(spill_dir(&format!("remote_chaos_{seed}")), 0).unwrap());

        let be = SimBackend::new(params());
        let out = Executor::with_policy(&be, policy.clone())
            .run_durable(&f, &inputs(), &store)
            .expect("chaos run never aborts");
        assert_eq!(bits(&out.outputs), base, "seed {seed}: run diverged");
        assert_eq!(
            out.stats.snapshot_writes, ITERS,
            "seed {seed}: with spill attached, every snapshot lands somewhere"
        );

        let be2 = SimBackend::new(params());
        let resumed = Executor::with_policy(&be2, policy.clone())
            .resume(&f, &inputs(), &store)
            .expect("chaos resume never aborts");
        assert_eq!(bits(&resumed.outputs), base, "seed {seed}: resume diverged");

        let t = store.telemetry();
        total_retries += t.retries;
        total_backoff += t.backoff_us;
        total_faults += store.remote().report().total();
    }
    assert!(total_faults > 0, "chaos spec must inject faults");
    assert!(total_retries > 0, "faults must force retries");
    assert!(total_backoff > 0.0, "retries must charge modeled backoff");
}

/// A remote that is down from the first byte: with a spill store
/// attached, the run completes with every snapshot spilled locally, the
/// breaker open, and resume served entirely from the spill — all
/// bit-identical.
#[test]
fn dead_remote_spills_locally_and_resumes_from_spill() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let base = baseline();

    let dead = RemoteFaultSpec {
        unavail: 1.0,
        unavail_window: 1,
        ..RemoteFaultSpec::none()
    };
    let store = RemoteStore::new(SimObjectStore::new(dead, 3), RemotePolicy::default(), 3)
        .with_spill(DiskStore::open(spill_dir("remote_dead_spill"), 0).unwrap());

    let be = SimBackend::new(params());
    let out = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &store)
        .expect("dead remote must not abort the run");
    assert_eq!(bits(&out.outputs), base);
    assert_eq!(out.stats.snapshot_writes, ITERS);
    assert_eq!(
        out.stats.remote.spilled_snapshots, ITERS,
        "everything spilled"
    );
    assert_eq!(out.stats.remote.puts, 0);
    assert!(
        out.stats.remote.breaker_opens >= 1,
        "dead remote opens the breaker"
    );

    let be2 = SimBackend::new(params());
    let resumed = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &store)
        .expect("resume from spill");
    assert_eq!(bits(&resumed.outputs), base);
    assert_eq!(resumed.stats.resumes_from_disk, 1);
}

/// A dead remote with *no* spill: puts fail, the executor degrades every
/// failure to a skipped snapshot, and resume (nothing listable, nothing
/// readable) degrades to a fresh start — never an abort.
#[test]
fn dead_remote_without_spill_degrades_to_skipped_snapshots() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let base = baseline();

    let dead = RemoteFaultSpec {
        unavail: 1.0,
        unavail_window: 1,
        ..RemoteFaultSpec::none()
    };
    let store = RemoteStore::new(SimObjectStore::new(dead, 4), RemotePolicy::default(), 4);

    let be = SimBackend::new(params());
    let out = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &store)
        .expect("run continues with zero durability");
    assert_eq!(bits(&out.outputs), base);
    assert_eq!(out.stats.snapshot_writes, 0, "every write skipped");

    let be2 = SimBackend::new(params());
    let resumed = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &store)
        .expect("resume degrades to fresh start");
    assert_eq!(bits(&resumed.outputs), base);
    assert_eq!(resumed.stats.resumes_from_disk, 0);
    assert_eq!(
        resumed.stats.resume_list_failures, 1,
        "unlistable remote without spill is a counted degradation"
    );
}
