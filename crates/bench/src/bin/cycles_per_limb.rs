//! Toy-backend kernel microbenchmark: per-limb negacyclic transform cost
//! (lazy Harvey butterflies with Shoup twiddles) and ct-ct multiply
//! latency (tensor, fused key switch, NTT-domain mod-down).
//!
//! ```sh
//! cargo run --release -p halo-bench --bin cycles_per_limb
//! ```
//!
//! Writes `BENCH_NTT.json` (schema `halo-bench-ntt/2`, destination
//! `HALO_BENCH_JSON_DIR`, default `results/`). The timings are recorded,
//! not gated: `tests/hoist_counters.rs` pins the exact transform rows
//! and deferred reductions of each key-switching op, which catches an
//! added transform or per-element reduction on any machine.

use std::time::Instant;

use halo_bench::json::{self, num, Json};
use halo_ckks::backend::Backend;
use halo_ckks::toy::ntt::NttTable;
use halo_ckks::toy::poly::primes_near;
use halo_ckks::{ScopedCounters, ToyBackend};

const N: usize = 4096;
const LEVELS: u32 = 8;
const REPS: u32 = 50;

/// Batches per timing estimate: each batch of `REPS` iterations is timed
/// whole and the *minimum* batch is reported — the standard noise-robust
/// aggregate (scheduler preemption and frequency dips only ever add
/// time, so the minimum is the best estimate of the true cost).
const BATCHES: u32 = 8;

/// Best-batch nanoseconds per round-trip (forward + inverse) transform.
fn time_ntt(table: &NttTable, limb: &mut [u64]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..REPS {
            table.forward(limb);
            table.inverse(limb);
            std::hint::black_box(&mut *limb);
        }
        // Two transforms per rep.
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / (2.0 * f64::from(REPS)));
    }
    best
}

/// Best-batch microseconds per ct-ct multiply (+relinearization).
fn time_mult(be: &ToyBackend, a: &halo_ckks::toy::ToyCt, b: &halo_ckks::toy::ToyCt) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(be.mult(a, b).expect("mult"));
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
    }
    best
}

fn main() {
    // A 59-bit NTT-friendly prime (≡ 1 mod 2N), same search the scheme
    // itself uses for its special prime.
    let p = primes_near(1 << 58, 2 * N as u64, 1)[0];
    let table = NttTable::new(N, p);
    let mut limb: Vec<u64> = (0..N as u64).map(|i| (i * 2654435761) % p).collect();
    let ntt_ns = time_ntt(&table, &mut limb);

    let slots = N / 2;
    let va: Vec<f64> = (0..slots).map(|i| (i as f64 / 77.0).sin()).collect();
    let vb: Vec<f64> = (0..slots).map(|i| (i as f64 / 55.0).cos()).collect();
    let be = ToyBackend::new(N, LEVELS, 0x4CC);
    let ca = be.encrypt(&va, LEVELS).expect("encrypt a");
    let cb = be.encrypt(&vb, LEVELS).expect("encrypt b");
    std::hint::black_box(be.mult(&ca, &cb).expect("warm-up"));
    let scope = ScopedCounters::begin();
    let mult_us = time_mult(&be, &ca, &cb);
    let lazy_skipped = scope.finish().lazy_reductions_skipped;
    assert!(
        lazy_skipped > 0,
        "the lazy kernels must record deferred reductions"
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("NTT round-trip, N={N}, 59-bit prime, {BATCHES} batches of {REPS}, {cores} core(s)");
    println!("  transform          : {ntt_ns:10.1} ns/limb");
    println!("ct-ct multiply, toy backend, N={N}, L={LEVELS}");
    println!("  multiply           : {mult_us:10.1} us");

    let doc = json::obj(vec![
        ("schema", Json::Str("halo-bench-ntt/2".into())),
        ("n", num(N as f64)),
        ("levels", num(f64::from(LEVELS))),
        ("reps", num(f64::from(REPS))),
        ("threads", num(cores as f64)),
        ("ntt_ns_per_limb", num(ntt_ns)),
        ("mult_us", num(mult_us)),
        ("lazy_reductions_skipped", num(lazy_skipped as f64)),
    ]);
    json::validate("halo-bench-ntt/2", &doc).expect("emitted document must satisfy its own schema");
    let dir = halo_bench::bench_json_dir().expect("bench json dir");
    let path = dir.join("BENCH_NTT.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_NTT.json");
    println!("  wrote              : {}", path.display());
}
