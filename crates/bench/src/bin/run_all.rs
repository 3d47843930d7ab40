//! Regenerates every table and figure in sequence (the source of
//! `EXPERIMENTS.md`'s measured columns), then writes the run's
//! machine-readable trajectory to `BENCH_RUN_ALL.json` (schema
//! `halo-bench-run-all/1`, destination `HALO_BENCH_JSON_DIR`, default
//! `results/`).
use std::time::Instant;

use halo_bench::json::{self, num, Json};
use halo_bench::tables::*;
use halo_ckks::metrics;

fn main() {
    let wall = Instant::now();
    metrics::reset();
    let scale = halo_bench::Scale::from_env();
    println!("== HALO evaluation, scale {scale:?} ==\n");
    print_table1(scale);
    println!();
    print_table2();
    println!();
    print_table3();
    println!();
    print_table4(scale, 12);
    println!();
    let rows = flat_config_rows(scale, PAPER_ITERS);
    print_table5(&rows, PAPER_ITERS);
    println!();
    print_fig4(&rows, PAPER_ITERS);
    println!();
    print_scaling("Table 6: compile time (s)", "compile time", &table6(scale));
    println!();
    print_scaling("Table 7: code size (KB)", "code size", &table7(scale));
    println!();
    let grid = pca_grid(scale, &[2, 4, 6, 8], &[2, 4, 6, 8]);
    print_fig5(&grid);
    println!();
    let t8: Vec<_> = grid
        .iter()
        .filter(|p| p.inner == 2 || p.inner == 8)
        .cloned()
        .collect();
    print_table8(&t8);
    println!();
    let seed = 1;
    print_recovery(&recovery_rows(scale, PAPER_ITERS, seed), seed);
    println!();
    let serving = serving_rows(scale, seed);
    print_serving(&serving, seed);
    println!();
    let tuning = tuned_rows(scale);
    print_tuned(&tuning);

    let benchmarks: Vec<Json> = rows
        .iter()
        .map(|r| {
            json::obj(vec![
                ("bench", Json::Str(r.bench.into())),
                ("config", Json::Str(format!("{:?}", r.config))),
                ("bootstraps", num(r.bootstraps as f64)),
                ("total_us", num(r.total_us)),
                ("bootstrap_us", num(r.bootstrap_us)),
            ])
        })
        .collect();
    let doc = json::obj(vec![
        ("schema", Json::Str("halo-bench-run-all/1".into())),
        ("scale", Json::Str(format!("{scale:?}"))),
        ("iters", num(PAPER_ITERS as f64)),
        ("wall_ms", num(wall.elapsed().as_secs_f64() * 1e3)),
        ("poly_allocs", num(metrics::snapshot().poly_allocs as f64)),
        ("benchmarks", Json::Arr(benchmarks)),
        (
            "serving",
            Json::Arr(serving.iter().map(ServingRow::to_json).collect()),
        ),
        (
            "tuning",
            Json::Arr(tuning.iter().map(TuneRow::to_json).collect()),
        ),
    ]);
    json::validate("halo-bench-run-all/1", &doc)
        .expect("emitted document must satisfy its own schema");
    let dir = halo_bench::bench_json_dir().expect("bench json dir");
    let path = dir.join("BENCH_RUN_ALL.json");
    std::fs::write(&path, doc.pretty()).expect("write BENCH_RUN_ALL.json");
    println!("\nwrote {}", path.display());
}
