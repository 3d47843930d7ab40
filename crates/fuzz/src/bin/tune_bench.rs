//! Autotuner sweep over the seeded fuzz loop corpus: for each generated
//! program, compare the HALO heuristic's modeled cost against the
//! branch-and-bound autotuner's best plan, then write the
//! machine-readable `BENCH_TUNE.json` (schema `halo-bench-tune/1`,
//! destination `HALO_BENCH_JSON_DIR`, default `results/`). The emitted
//! document is round-tripped through its own validator before being
//! written, so a sweep that breaks the optimality contract (a tuned plan
//! costlier than HALO anywhere, or no strict improvement at all) fails
//! here rather than in CI.
//!
//! ```sh
//! cargo run --release -p halo-fuzz --bin tune_bench
//! cargo run --release -p halo-fuzz --bin tune_bench -- --seeds 48 --start 100
//! ```

use std::time::Instant;

use halo_bench::json::{self, num, Json};
use halo_bench::tables::{tune_geomean_gap, tune_improved, tune_row, TuneRow};
use halo_core::{CompileOptions, ASSUMED_TRIPS};
use halo_fuzz::diff::fuzz_params;
use halo_fuzz::gen::{build, gen_spec};

fn arg(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let wall = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds = arg(&args, "--seeds", 24);
    let start = arg(&args, "--start", 0);

    let opts = CompileOptions::new(fuzz_params());
    let rows: Vec<TuneRow> = (start..start + seeds)
        .map(|seed| {
            let spec = gen_spec(seed);
            let src = build(&spec, true);
            let row = tune_row(&format!("fuzz-{seed}"), &src, &opts);
            println!(
                "{:<10} HALO {:>12.1}us  tuned {:>12.1}us  gap {:>5.2}x  \
                 [{} evaluated / {} pruned / {} space]  {}",
                row.program,
                row.halo_us,
                row.tuned_us,
                row.gap(),
                row.evaluated,
                row.pruned,
                row.space,
                row.plan
            );
            row
        })
        .collect();

    println!(
        "\n{} corpus programs: geomean heuristic-vs-optimal gap {:.3}x, \
         {} strictly improved",
        rows.len(),
        tune_geomean_gap(&rows),
        tune_improved(&rows)
    );

    let doc = json::obj(vec![
        ("schema", Json::Str("halo-bench-tune/1".into())),
        ("tuner", Json::Str("branch-bound".into())),
        ("seeds", num(seeds as f64)),
        ("start_seed", num(start as f64)),
        ("assumed_trips", num(ASSUMED_TRIPS as f64)),
        ("wall_ms", num(wall.elapsed().as_secs_f64() * 1e3)),
        (
            "rows",
            Json::Arr(rows.iter().map(TuneRow::to_json).collect()),
        ),
        ("improved", num(tune_improved(&rows) as f64)),
        ("geomean_gap", num(tune_geomean_gap(&rows))),
    ]);
    json::validate("halo-bench-tune/1", &doc)
        .expect("emitted document must satisfy its own schema");
    let dir = halo_bench::bench_json_dir().expect("bench json dir");
    let path = dir.join("BENCH_TUNE.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_TUNE.json");
    println!("wrote {}", path.display());
}
