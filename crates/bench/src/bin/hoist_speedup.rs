//! Hoisted-rotation speedup microbenchmark: rotating one ciphertext by
//! `BATCH` offsets on the exact toy RNS-CKKS backend, sequential
//! (`rotate` per offset — one digit decomposition each) vs hoisted
//! (`rotate_batch` — one shared decomposition).
//!
//! ```sh
//! cargo run --release -p halo-bench --bin hoist_speedup
//! ```
//!
//! Writes `BENCH_ROTATE.json` (schema `halo-bench-rotate/1`, destination
//! `HALO_BENCH_JSON_DIR`, default `results/`) with the timings and the
//! op/alloc counter snapshots proving the hoisting contract: exactly one
//! digit decomposition per batch.
//!
//! The two arms alternate within each rep (sequential first on even reps,
//! hoisted first on odd ones), so a host speed shift during the run lands
//! on both arms alike instead of skewing their ratio.
//!
//! The acceptance bar is ≥1.5× for a batch of 8; like `par_speedup` the
//! gate only arms on machines with ≥4 CPUs (a loaded single-core runner
//! times too noisily), and `HALO_HOIST_MIN` forces a bar anywhere.

use std::time::Instant;

use halo_bench::json::{self, num, Json};
use halo_ckks::backend::Backend;
use halo_ckks::{MetricsSnapshot, ScopedCounters, ToyBackend};

const N: usize = 4096;
const LEVELS: u32 = 8;
const REPS: u32 = 10;
const OFFSETS: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Mean microseconds per *batch* of each arm over `REPS` paired reps: the
/// first arm runs first on even reps, the second on odd ones.
fn time_paired(arms: [&mut dyn FnMut(); 2]) -> [f64; 2] {
    let mut secs = [0.0; 2];
    for rep in 0..REPS {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for arm in order {
            let start = Instant::now();
            arms[arm]();
            secs[arm] += start.elapsed().as_secs_f64();
        }
    }
    secs.map(|s| s * 1e6 / f64::from(REPS))
}

fn counters_json(s: MetricsSnapshot) -> Json {
    json::obj(vec![
        ("poly_allocs", num(s.poly_allocs as f64)),
        ("digit_decomposes", num(s.digit_decomposes as f64)),
        ("digit_ntt_rows", num(s.digit_ntt_rows as f64)),
    ])
}

fn main() {
    let be = ToyBackend::new(N, LEVELS, 0x4015);
    let slots = N / 2;
    let values: Vec<f64> = (0..slots).map(|i| (i as f64 / 77.0).sin()).collect();
    let ct = be.encrypt(&values, LEVELS).expect("encrypt");

    // Warm-up: generate every Galois key and touch every NTT table so the
    // timed loops measure steady-state key switching only.
    std::hint::black_box(be.rotate_batch(&ct, &OFFSETS).expect("warm-up"));

    // Counter scopes (one pass each) — the hoisting contract.
    let scope = ScopedCounters::begin();
    std::hint::black_box(
        OFFSETS
            .iter()
            .map(|&o| be.rotate(&ct, o).expect("rotate"))
            .collect::<Vec<_>>(),
    );
    let seq_counters = scope.finish();
    let scope = ScopedCounters::begin();
    std::hint::black_box(be.rotate_batch(&ct, &OFFSETS).expect("rotate_batch"));
    let hoist_counters = scope.finish();
    assert_eq!(
        hoist_counters.digit_decomposes, 1,
        "hoisted batch must decompose exactly once"
    );
    assert_eq!(
        seq_counters.digit_decomposes,
        OFFSETS.len() as u64,
        "sequential path must decompose per rotation"
    );

    let [sequential_us, hoisted_us] = time_paired([
        &mut || {
            for &o in &OFFSETS {
                std::hint::black_box(be.rotate(&ct, o).expect("rotate"));
            }
        },
        &mut || {
            std::hint::black_box(be.rotate_batch(&ct, &OFFSETS).expect("rotate_batch"));
        },
    ]);
    let speedup = sequential_us / hoisted_us;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let k = OFFSETS.len();

    println!("{k} rotations, toy backend, N={N}, L={LEVELS}, {REPS} reps, {cores} core(s)");
    println!(
        "  sequential: {sequential_us:10.1} us/batch ({} decompositions)",
        k
    );
    println!("  hoisted   : {hoisted_us:10.1} us/batch (1 decomposition)");
    println!("  speedup   : {speedup:.2}x");
    println!(
        "  allocs    : {} sequential vs {} hoisted",
        seq_counters.poly_allocs, hoist_counters.poly_allocs
    );

    let doc = json::obj(vec![
        ("schema", Json::Str("halo-bench-rotate/1".into())),
        ("n", num(N as f64)),
        ("levels", num(f64::from(LEVELS))),
        ("batch", num(k as f64)),
        ("reps", num(f64::from(REPS))),
        ("threads", num(cores as f64)),
        ("sequential_us", num(sequential_us)),
        ("hoisted_us", num(hoisted_us)),
        ("speedup", num(speedup)),
        ("sequential", counters_json(seq_counters)),
        ("hoisted", counters_json(hoist_counters)),
    ]);
    json::validate("halo-bench-rotate/1", &doc)
        .expect("emitted document must satisfy its own schema");
    let dir = halo_bench::bench_json_dir().expect("bench json dir");
    let path = dir.join("BENCH_ROTATE.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_ROTATE.json");
    println!("  wrote     : {}", path.display());

    let min: Option<f64> = match std::env::var("HALO_HOIST_MIN") {
        Ok(s) => s.parse().ok(),
        Err(_) if cores >= 4 => Some(1.5),
        Err(_) => {
            println!("  gate      : skipped ({cores} core(s) < 4 — timing too noisy to gate)");
            None
        }
    };
    if let Some(min) = min {
        if speedup < min {
            eprintln!("FAIL: speedup {speedup:.2}x below the {min:.1}x bar");
            std::process::exit(1);
        }
        println!("  gate      : PASS (>= {min:.1}x)");
    }
}
