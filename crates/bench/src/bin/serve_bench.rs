//! Serving-layer throughput campaign: a seeded closed-loop run of the
//! multi-tenant batcher (`runtime::serve`) over the exact backend —
//! 128 same-program jobs from 4 sessions on 4 workers, swept across
//! maximum batch sizes 1/4/16/64 — emitting `BENCH_SERVE.json` (schema
//! `halo-bench-serve/1`, destination `HALO_BENCH_JSON_DIR`, default
//! `results/`).
//!
//! ```sh
//! cargo run --release -p halo-bench --bin serve_bench
//! HALO_SERVE_SEED=2 cargo run --release -p halo-bench --bin serve_bench
//! ```
//!
//! Throughput and latency are *modeled* (cost-model accounted), so the
//! speedup column is machine-independent: batch-16 coalescing must model
//! ≥10× the solo throughput. The gate arms on machines with ≥4 CPUs
//! (below that, CI boxes are assumed too contended to trust even the
//! wall-clock-free run end-to-end); `HALO_SERVE_MIN` forces a bar on any
//! machine, or raises/lowers it.

use halo_bench::json::{self, num, Json};
use halo_bench::tables::{
    print_serving, serving_rows, serving_width, ServingRow, SERVING_ITERS, SERVING_JOBS,
    SERVING_SESSIONS, SERVING_WORKERS,
};
use halo_bench::Scale;

fn doc(scale: Scale, seed: u64, rows: &[ServingRow], speedup_at_16: f64) -> Json {
    let json_rows: Vec<Json> = rows.iter().map(ServingRow::to_json).collect();
    json::obj(vec![
        ("schema", Json::Str("halo-bench-serve/1".into())),
        ("bench", Json::Str("square_iter".into())),
        ("scale", Json::Str(format!("{scale:?}"))),
        ("seed", num(seed as f64)),
        ("jobs", num(SERVING_JOBS as f64)),
        ("sessions", num(SERVING_SESSIONS as f64)),
        ("workers", num(SERVING_WORKERS as f64)),
        ("iters", num(SERVING_ITERS as f64)),
        ("slots", num(scale.spec().slots as f64)),
        ("width", num(serving_width(scale) as f64)),
        ("rows", Json::Arr(json_rows)),
        ("speedup_at_16", num(speedup_at_16)),
    ])
}

fn main() {
    let scale = Scale::from_env();
    let seed: u64 = std::env::var("HALO_SERVE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let rows = serving_rows(scale, seed);
    print_serving(&rows, seed);

    let speedup_at_16 = rows
        .iter()
        .find(|r| r.batch == 16)
        .expect("batch-16 row")
        .speedup_vs_solo;

    let report = doc(scale, seed, &rows, speedup_at_16);
    json::validate("halo-bench-serve/1", &report)
        .expect("emitted document must satisfy its own schema");
    let dir = halo_bench::bench_json_dir().expect("bench json dir");
    let path = dir.join("BENCH_SERVE.json");
    std::fs::write(&path, report.pretty()).expect("write BENCH_SERVE.json");
    println!("\nwrote {}", path.display());

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let min: Option<f64> = match std::env::var("HALO_SERVE_MIN") {
        Ok(s) => s.parse().ok(),
        Err(_) if cores >= 4 => Some(10.0),
        Err(_) => {
            println!("gate: skipped ({cores} core(s) < 4)");
            None
        }
    };
    if let Some(min) = min {
        if speedup_at_16 < min {
            eprintln!("FAIL: batch-16 modeled speedup {speedup_at_16:.2}x below the {min:.1}x bar");
            std::process::exit(1);
        }
        println!("gate: PASS (batch-16 speedup {speedup_at_16:.2}x >= {min:.1}x)");
    }
}
