//! Durable-execution integration: on-disk/in-memory snapshot stores,
//! `Executor::run_durable` / `Executor::resume` over the store they are
//! given, generation fallback on corruption, and storage-fault chaos.
//!
//! The central property mirrors the process-kill harness
//! (`crash_resume`): a run resumed from *any* snapshot prefix must
//! produce bit-identical outputs to the uninterrupted run — including on
//! the noisy simulation backend (RNG replay) and the exact toy lattice
//! backend (real RNS ciphertexts + encryption-RNG replay).

use halo_fhe::prelude::*;

const N: usize = 32; // 16 slots
const LEVELS: u32 = 8;
const ITERS: u64 = 6;

fn opts() -> CompileOptions {
    CompileOptions::new(CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    })
}

/// `w ← w·x + 0.1` iterated dynamically — mults, rescales, and bootstraps
/// in the loop body, so snapshots carry real mid-computation ciphertexts.
fn program() -> Function {
    let mut b = FunctionBuilder::new("durable_loop", N / 2);
    let x = b.input_cipher("x");
    let w0 = b.input_cipher("w0");
    let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
        let p = b.mul(args[0], x);
        let c = b.const_splat(0.1);
        vec![b.add(p, c)]
    });
    b.ret(&r);
    let src = b.finish();
    compile(&src, CompilerConfig::Halo, &opts())
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

/// Copies the first `gens` generations of `src` into a fresh store —
/// the state a SIGKILL at that point in the run would leave behind.
fn prefix_store(src: &MemStore, gens: usize) -> MemStore {
    let dst = MemStore::new(0);
    for g in src.generations().unwrap().into_iter().take(gens) {
        dst.put(&src.get(g).unwrap()).unwrap();
    }
    dst
}

/// Like [`prefix_store`], but flips one byte in the newest generation.
fn corrupt_newest(src: &MemStore, gens: usize) -> MemStore {
    let dst = MemStore::new(0);
    let keep: Vec<u64> = src.generations().unwrap().into_iter().take(gens).collect();
    for (i, g) in keep.iter().enumerate() {
        let mut bytes = src.get(*g).unwrap();
        if i + 1 == keep.len() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        dst.put(&bytes).unwrap();
    }
    dst
}

/// Resume from every possible kill point on the *noisy* sim backend:
/// outputs must be bit-identical to the uninterrupted run, proving both
/// ciphertext serialization and RNG-stream replay are exact.
#[test]
fn resume_from_any_prefix_is_bit_identical_sim() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let params = CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    };

    let full = MemStore::new(0);
    let be = SimBackend::new(params.clone());
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &full)
        .expect("baseline runs");
    let total_gens = full.generations().unwrap().len();
    assert_eq!(base.stats.snapshot_writes, ITERS);
    assert!(base.stats.snapshot_bytes > 0);
    assert!(total_gens as u64 >= ITERS);

    for kill_after in 1..=total_gens {
        let store = prefix_store(&full, kill_after);
        let be2 = SimBackend::new(params.clone());
        let out = Executor::with_policy(&be2, policy.clone())
            .resume(&f, &inputs(), &store)
            .expect("resume runs");
        assert_eq!(
            bits(&out.outputs),
            bits(&base.outputs),
            "kill after generation {kill_after}: resumed output diverged"
        );
        assert_eq!(out.stats.resumes_from_disk, 1);
        assert_eq!(out.stats.corrupt_snapshots_skipped, 0);
        assert!(
            out.stats.recovery_overhead_us() >= out.stats.disk_snapshot_us,
            "snapshot time must count toward recovery overhead"
        );
    }
}

/// The same property on the exact toy backend: resumed RLWE ciphertexts
/// and replayed encryption randomness reproduce the uninterrupted run
/// bit-for-bit.
#[test]
fn resume_is_bit_identical_toy() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let seed = 0xA11CE;

    let full = MemStore::new(0);
    let be = ToyBackend::new(N, LEVELS, seed);
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &full)
        .expect("baseline runs");
    let total_gens = full.generations().unwrap().len();

    for kill_after in [1, total_gens / 2 + 1, total_gens] {
        let store = prefix_store(&full, kill_after);
        let be2 = ToyBackend::new(N, LEVELS, seed);
        let out = Executor::with_policy(&be2, policy.clone())
            .resume(&f, &inputs(), &store)
            .expect("resume runs");
        assert_eq!(
            bits(&out.outputs),
            bits(&base.outputs),
            "kill after generation {kill_after}: resumed output diverged"
        );
        assert_eq!(out.stats.resumes_from_disk, 1);
    }
}

/// A corrupted newest generation must not abort the resume: the executor
/// falls back to the previous generation, reports the skip, and still
/// reproduces the uninterrupted output exactly.
#[test]
fn corrupt_newest_generation_falls_back_to_previous() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let params = CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    };

    let full = MemStore::new(0);
    let be = SimBackend::new(params.clone());
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &full)
        .expect("baseline runs");

    for kill_after in 2..=full.generations().unwrap().len() {
        let store = corrupt_newest(&full, kill_after);
        let be2 = SimBackend::new(params.clone());
        let out = Executor::with_policy(&be2, policy.clone())
            .resume(&f, &inputs(), &store)
            .expect("fallback resume runs");
        assert_eq!(bits(&out.outputs), bits(&base.outputs));
        assert_eq!(out.stats.corrupt_snapshots_skipped, 1, "newest was skipped");
        assert_eq!(out.stats.resumes_from_disk, 1, "previous generation used");
    }
}

/// Killed before the first snapshot landed (or every generation rotted
/// away): resume starts the run fresh instead of aborting.
#[test]
fn resume_with_empty_store_starts_fresh() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let params = CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    };
    let be = SimBackend::new(params.clone());
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &MemStore::new(0))
        .expect("baseline runs");

    let be2 = SimBackend::new(params);
    let out = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &MemStore::new(0))
        .expect("fresh start");
    assert_eq!(bits(&out.outputs), bits(&base.outputs));
    assert_eq!(out.stats.resumes_from_disk, 0);
}

/// A store whose `generations()` listing always fails (e.g. the remote
/// is unreachable and no spill is attached) must not make `resume`
/// error: the listing failure degrades to a fresh start, counted in
/// `resume_list_failures`.
#[test]
fn resume_with_unlistable_store_degrades_to_fresh_start() {
    /// `put`/`get` work (backed by a `MemStore`), `list` never does.
    struct UnlistableStore(MemStore);
    impl SnapshotStore for UnlistableStore {
        fn put(&self, bytes: &[u8]) -> std::io::Result<u64> {
            self.0.put(bytes)
        }
        fn generations(&self) -> std::io::Result<Vec<u64>> {
            Err(std::io::Error::other("injected fault: listing unavailable"))
        }
        fn get(&self, generation: u64) -> std::io::Result<Vec<u8>> {
            self.0.get(generation)
        }
    }

    let f = program();
    let policy = ExecPolicy::resilient();
    let params = CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    };
    let be = SimBackend::new(params.clone());
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &MemStore::new(0))
        .expect("baseline runs");

    // Seed the store with real snapshots so the *only* obstacle is the
    // failing listing — resume must not find them.
    let store = UnlistableStore(MemStore::new(0));
    let be1 = SimBackend::new(params.clone());
    Executor::with_policy(&be1, policy.clone())
        .run_durable(&f, &inputs(), &store)
        .expect("durable run tolerates an unlistable store");
    assert!(
        !store.0.generations().unwrap().is_empty(),
        "snapshots landed"
    );

    let be2 = SimBackend::new(params);
    let out = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &store)
        .expect("resume degrades instead of erroring");
    assert_eq!(bits(&out.outputs), bits(&base.outputs));
    assert_eq!(out.stats.resume_list_failures, 1, "degradation was counted");
    assert_eq!(out.stats.resumes_from_disk, 0, "fresh start, not a resume");
}

/// Storage-layer chaos: short writes, ENOSPC, and read-time bit flips
/// injected by `FaultyStore` across seeds. Every run and every resume
/// must complete with bit-identical outputs — corrupt generations are
/// skipped (fallback), failed writes degrade to skipped snapshots, and
/// nothing aborts.
#[test]
fn faulty_store_chaos_never_aborts_and_falls_back() {
    let f = program();
    let policy = ExecPolicy::resilient();
    let params = CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    };
    let be = SimBackend::new(params.clone());
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &MemStore::new(0))
        .expect("baseline runs");

    let mut fallbacks = 0u64;
    let mut degraded_writes = 0u64;
    for seed in 0..12u64 {
        let store = FaultyStore::new(MemStore::new(0), StoreFaultSpec::chaos(), seed);
        let be1 = SimBackend::new(params.clone());
        let out = Executor::with_policy(&be1, policy.clone())
            .run_durable(&f, &inputs(), &store)
            .expect("durable run survives storage faults");
        assert_eq!(bits(&out.outputs), bits(&base.outputs));
        let report = store.report();
        assert!(
            out.stats.snapshot_writes + report.enospc_failures == ITERS,
            "every header either persisted or hit injected ENOSPC"
        );
        degraded_writes += report.enospc_failures + report.short_writes;

        // Now resume through the same faulty store: truncated generations
        // (short writes) and read-time bit flips force fallback, never an
        // abort.
        let be2 = SimBackend::new(params.clone());
        let resumed = Executor::with_policy(&be2, policy.clone())
            .resume(&f, &inputs(), &store)
            .expect("resume survives storage faults");
        assert_eq!(
            bits(&resumed.outputs),
            bits(&base.outputs),
            "seed {seed}: chaos resume diverged"
        );
        fallbacks += resumed.stats.corrupt_snapshots_skipped;
    }
    assert!(
        degraded_writes > 0,
        "chaos spec must actually inject write faults"
    );
    assert!(
        fallbacks > 0,
        "across seeds, at least one resume must have fallen back past a corrupt generation"
    );
}

/// End-to-end through the real `DiskStore`: a durable run writes
/// generation files with atomic-rename names, prunes to `KEEP`, survives
/// an on-disk truncation of the newest file, and `Executor::resume` over
/// the reopened directory reproduces the uninterrupted output.
#[test]
fn disk_store_end_to_end_with_truncation_fallback() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("durable_exec_disk");
    let _ = std::fs::remove_dir_all(&dir);
    let f = program();
    let params = CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    };
    const KEEP: usize = 3;
    let policy = ExecPolicy::resilient();

    let be = SimBackend::new(params.clone());
    let base = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &DiskStore::open(&dir, KEEP).unwrap())
        .expect("durable run");
    assert!(base.stats.snapshot_writes > 0);

    // Pruning: only `KEEP` generation files remain.
    let store = DiskStore::open(&dir, KEEP).unwrap();
    let gens = store.generations().unwrap();
    assert_eq!(gens.len(), KEEP);

    // Truncate the newest generation on disk (torn write past rename —
    // e.g. a lying disk) and resume: fallback to the previous generation.
    let newest = gens.last().copied().unwrap();
    let blob = store.get(newest).unwrap();
    let path = dir.join(format!("snap-{newest:016x}.halosnap"));
    std::fs::write(&path, &blob[..blob.len() / 3]).unwrap();

    let be2 = SimBackend::new(params);
    let out = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &DiskStore::open(&dir, KEEP).unwrap())
        .expect("resume from disk");
    assert_eq!(bits(&out.outputs), bits(&base.outputs));
    assert_eq!(out.stats.corrupt_snapshots_skipped, 1);
    assert_eq!(out.stats.resumes_from_disk, 1);
}
