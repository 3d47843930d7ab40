//! Row computation and printing for every table and figure of §7.

use std::time::Instant;

use halo_ckks::fault::splitmix64;
use halo_ckks::{CostModel, CostedOp, FaultSpec};
use halo_core::autotune::heuristic_cost_us;
use halo_core::{autotune, CompilerConfig, ASSUMED_TRIPS};
use halo_ir::print::code_size_bytes;
use halo_ml::bench::{all_benchmarks, flat_benchmarks, Pca};
use halo_runtime::ExecPolicy;

use crate::{bound_inputs, compile_bench, execute_chaos, rmse_per_output, run_bench, Scale};

/// The paper's iteration count for the flat-loop tables.
pub const PAPER_ITERS: u64 = 40;

/// Table 1: the FHE parameters in use.
pub fn print_table1(scale: Scale) {
    let p = scale.params();
    println!("Table 1: FHE parameters ({scale:?} scale)");
    println!(
        "  N  (polynomial modulus degree) = 2^{}",
        p.poly_degree.trailing_zeros()
    );
    println!("  Q  (coefficient modulus)       = 2^{}", p.log2_q());
    println!("  Rf (rescaling factor)          = 2^{}", p.rf_bits);
    println!("  L  (max level after bootstrap) = {}", p.max_level);
    println!("  slots                          = {}", p.slots());
}

/// Table 2: op latency (µs) at levels 1/5/10/15.
pub fn print_table2() {
    let m = CostModel::new();
    println!("Table 2: FHE op latency (µs) by operand level");
    println!(
        "  {:<10} {:>8} {:>8} {:>8} {:>8}",
        "op", "l=1", "l=5", "l=10", "l=15"
    );
    type MkOp = fn(u32) -> CostedOp;
    let rows: [(&str, MkOp); 3] = [
        ("multcc", |l| CostedOp::MultCC { level: l }),
        ("rescale", |l| CostedOp::Rescale { level: l }),
        ("modswitch", |l| CostedOp::ModSwitch { level: l }),
    ];
    for (name, mk) in rows {
        print!("  {name:<10}");
        for l in [1u32, 5, 10, 15] {
            print!(" {:>8.0}", m.latency_us(mk(l)));
        }
        println!();
    }
}

/// Table 3: bootstrap latency (µs) by target level.
pub fn print_table3() {
    let m = CostModel::new();
    println!("Table 3: bootstrap latency (µs) by target level");
    print!("  target:  ");
    for t in [4u32, 7, 10, 13, 16] {
        print!(" {t:>8}");
    }
    println!();
    print!("  latency: ");
    for t in [4u32, 7, 10, 13, 16] {
        print!(" {:>8.0}", m.latency_us(CostedOp::Bootstrap { target: t }));
    }
    println!();
}

/// Table 4 rows: benchmark characteristics + measured RMSE band.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Loop nesting depth.
    pub loop_depth: usize,
    /// Carried variables per level.
    pub carried: Vec<usize>,
    /// Approximated functions.
    pub approx: &'static str,
    /// Largest per-output RMSE.
    pub max_rmse: f64,
    /// Smallest per-output RMSE.
    pub min_rmse: f64,
}

/// Computes Table 4 (encrypted-vs-plain RMSE under the HALO pipeline).
#[must_use]
pub fn table4(scale: Scale, iters: u64) -> Vec<Table4Row> {
    all_benchmarks()
        .iter()
        .map(|b| {
            let trips: Vec<u64> = b.trip_symbols().iter().map(|_| iters).collect();
            let errs = rmse_per_output(b.as_ref(), &trips, scale).expect("compiles");
            Table4Row {
                name: b.name(),
                loop_depth: b.loop_depth(),
                carried: b.carried_vars(),
                approx: b.approx_functions(),
                max_rmse: errs.iter().copied().fold(0.0, f64::max),
                min_rmse: errs.iter().copied().fold(f64::INFINITY, f64::min),
            }
        })
        .collect()
}

/// Prints Table 4.
pub fn print_table4(scale: Scale, iters: u64) {
    println!("Table 4: benchmark characteristics and RMSE ({iters} iterations)");
    println!(
        "  {:<13} {:>5} {:>12} {:>9} {:>11} {:>11}",
        "benchmark", "depth", "carried", "approx", "max RMSE", "min RMSE"
    );
    for r in table4(scale, iters) {
        let carried = r
            .carried
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "  {:<13} {:>5} {:>12} {:>9} {:>11.2e} {:>11.2e}",
            r.name, r.loop_depth, carried, r.approx, r.max_rmse, r.min_rmse
        );
    }
}

/// Table 5 / Figure 4 rows: per benchmark × configuration.
#[derive(Debug, Clone)]
pub struct ConfigRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Configuration.
    pub config: CompilerConfig,
    /// Executed bootstrap count (Table 5).
    pub bootstraps: u64,
    /// Modeled end-to-end latency, µs (Figure 4 bar height).
    pub total_us: f64,
    /// Modeled bootstrap latency, µs (Figure 4 hatched part).
    pub bootstrap_us: f64,
}

/// Runs the six flat benchmarks under the five configurations at `iters`
/// iterations (Table 5 + Figure 4 data).
#[must_use]
pub fn flat_config_rows(scale: Scale, iters: u64) -> Vec<ConfigRow> {
    let mut rows = Vec::new();
    for bench in flat_benchmarks() {
        for config in CompilerConfig::ALL {
            let m = run_bench(bench.as_ref(), config, &[iters], scale)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", bench.name(), config.name()));
            rows.push(ConfigRow {
                bench: bench.name(),
                config,
                bootstraps: m.stats.bootstrap_count,
                total_us: m.stats.total_us,
                bootstrap_us: m.stats.bootstrap_us,
            });
        }
    }
    rows
}

/// Prints Table 5 from precomputed rows.
pub fn print_table5(rows: &[ConfigRow], iters: u64) {
    println!("Table 5: bootstrapping count at {iters} iterations");
    print!("  {:<13}", "benchmark");
    for c in CompilerConfig::ALL {
        print!(" {:>18}", c.name());
    }
    println!();
    for bench in flat_benchmarks() {
        print!("  {:<13}", bench.name());
        for c in CompilerConfig::ALL {
            let r = rows
                .iter()
                .find(|r| r.bench == bench.name() && r.config == c)
                .expect("row exists");
            print!(" {:>18}", r.bootstraps);
        }
        println!();
    }
}

/// Prints Figure 4's series (latency + bootstrap fraction).
pub fn print_fig4(rows: &[ConfigRow], iters: u64) {
    println!("Figure 4: end-to-end modeled latency (s) at {iters} iterations");
    println!("  (hatched = bootstrap share, as in the paper's bars)");
    for bench in flat_benchmarks() {
        println!("  {}:", bench.name());
        for c in CompilerConfig::ALL {
            let r = rows
                .iter()
                .find(|r| r.bench == bench.name() && r.config == c)
                .expect("row exists");
            println!(
                "    {:<18} total {:>9.3} s   bootstrap {:>9.3} s ({:>4.1}%)",
                c.name(),
                r.total_us / 1e6,
                r.bootstrap_us / 1e6,
                100.0 * r.bootstrap_us / r.total_us.max(1e-12)
            );
        }
    }
    // Paper headline: HALO vs DaCapo geometric-mean speedup.
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for bench in flat_benchmarks() {
        let da = rows
            .iter()
            .find(|r| r.bench == bench.name() && r.config == CompilerConfig::DaCapo)
            .expect("row");
        let halo = rows
            .iter()
            .find(|r| r.bench == bench.name() && r.config == CompilerConfig::Halo)
            .expect("row");
        log_sum += (da.total_us / halo.total_us).ln();
        n += 1;
    }
    println!(
        "  geometric-mean HALO speedup over DaCapo: {:.2}x",
        (log_sum / n as f64).exp()
    );
}

/// Table 6/7 rows: DaCapo at sweeping iteration counts vs HALO once.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// DaCapo compile time (s) / code size (KB) per iteration count.
    pub dacapo: Vec<f64>,
    /// HALO's single figure.
    pub halo: f64,
}

/// The iteration counts swept by Tables 6 and 7.
pub const SWEEP: [u64; 4] = [10, 20, 30, 40];

/// Computes Table 6 (compile time, seconds).
#[must_use]
pub fn table6(scale: Scale) -> Vec<ScalingRow> {
    flat_benchmarks()
        .iter()
        .map(|b| {
            let dacapo: Vec<f64> = SWEEP
                .iter()
                .map(|&n| {
                    let t = Instant::now();
                    compile_bench(b.as_ref(), CompilerConfig::DaCapo, &[n], scale)
                        .expect("DaCapo compiles constant trips");
                    t.elapsed().as_secs_f64()
                })
                .collect();
            let t = Instant::now();
            compile_bench(b.as_ref(), CompilerConfig::Halo, &[PAPER_ITERS], scale)
                .expect("HALO compiles");
            let halo = t.elapsed().as_secs_f64();
            ScalingRow {
                bench: b.name(),
                dacapo,
                halo,
            }
        })
        .collect()
}

/// Computes Table 7 (code size, kilobytes).
#[must_use]
pub fn table7(scale: Scale) -> Vec<ScalingRow> {
    flat_benchmarks()
        .iter()
        .map(|b| {
            let dacapo: Vec<f64> = SWEEP
                .iter()
                .map(|&n| {
                    let r = compile_bench(b.as_ref(), CompilerConfig::DaCapo, &[n], scale)
                        .expect("DaCapo compiles");
                    code_size_bytes(&r.function) as f64 / 1024.0
                })
                .collect();
            let r = compile_bench(b.as_ref(), CompilerConfig::Halo, &[PAPER_ITERS], scale)
                .expect("HALO compiles");
            let halo = code_size_bytes(&r.function) as f64 / 1024.0;
            ScalingRow {
                bench: b.name(),
                dacapo,
                halo,
            }
        })
        .collect()
}

/// Prints a scaling table (Table 6 or 7) with the geometric-mean
/// improvement at the largest sweep point.
pub fn print_scaling(title: &str, unit: &str, rows: &[ScalingRow]) {
    println!("{title}");
    print!("  {:<13}", "benchmark");
    for n in SWEEP {
        print!(" {:>10}", format!("DaCapo@{n}"));
    }
    println!(" {:>10} {:>12}", "HALO", "improvement");
    let mut log_sum = 0.0;
    for r in rows {
        print!("  {:<13}", r.bench);
        for d in &r.dacapo {
            print!(" {d:>10.3}");
        }
        let imp = r.dacapo.last().expect("sweep non-empty") / r.halo.max(1e-12);
        println!(" {:>10.3} {:>11.2}x", r.halo, imp);
        log_sum += imp.ln();
    }
    println!(
        "  geometric mean improvement ({unit}, at {} iters): {:.2}x",
        SWEEP[SWEEP.len() - 1],
        (log_sum / rows.len() as f64).exp()
    );
}

/// Figure 5 / Table 8 data point for PCA.
#[derive(Debug, Clone)]
pub struct PcaPoint {
    /// Outer iteration count.
    pub outer: u64,
    /// Inner iteration count.
    pub inner: u64,
    /// Configuration.
    pub config: CompilerConfig,
    /// Executed bootstraps (Table 8).
    pub bootstraps: u64,
    /// Modeled latency, µs (Figure 5).
    pub total_us: f64,
}

/// The three compilers in the PCA case study.
pub const PCA_CONFIGS: [CompilerConfig; 3] = [
    CompilerConfig::DaCapo,
    CompilerConfig::TypeMatched,
    CompilerConfig::Halo,
];

/// Runs the PCA grid (Figure 5: outer × inner ∈ {2,4,6,8}²; Table 8 uses
/// the inner ∈ {2,8} columns).
#[must_use]
pub fn pca_grid(scale: Scale, outers: &[u64], inners: &[u64]) -> Vec<PcaPoint> {
    let mut points = Vec::new();
    for &outer in outers {
        for &inner in inners {
            for config in PCA_CONFIGS {
                let m = run_bench(&Pca, config, &[outer, inner], scale)
                    .unwrap_or_else(|e| panic!("PCA {config:?} ({outer},{inner}): {e}"));
                points.push(PcaPoint {
                    outer,
                    inner,
                    config,
                    bootstraps: m.stats.bootstrap_count,
                    total_us: m.stats.total_us,
                });
            }
        }
    }
    points
}

/// Prints Figure 5's series.
pub fn print_fig5(points: &[PcaPoint]) {
    println!("Figure 5: PCA modeled latency (s) by (outer, inner) iterations");
    print!("  {:<18}", "(outer, inner)");
    for c in PCA_CONFIGS {
        print!(" {:>14}", c.name());
    }
    println!();
    let mut keys: Vec<(u64, u64)> = points.iter().map(|p| (p.outer, p.inner)).collect();
    keys.sort_unstable();
    keys.dedup();
    for (o, i) in keys {
        print!("  {:<18}", format!("({o}, {i})"));
        for c in PCA_CONFIGS {
            let p = points
                .iter()
                .find(|p| p.outer == o && p.inner == i && p.config == c)
                .expect("point");
            print!(" {:>14.3}", p.total_us / 1e6);
        }
        println!();
    }
}

/// Prints Table 8 (bootstrap counts on the inner ∈ {2,8} columns).
pub fn print_table8(points: &[PcaPoint]) {
    println!("Table 8: PCA bootstrapping count");
    print!("  {:<18}", "(outer, inner)");
    for c in PCA_CONFIGS {
        print!(" {:>14}", c.name());
    }
    println!();
    let mut keys: Vec<(u64, u64)> = points.iter().map(|p| (p.outer, p.inner)).collect();
    keys.sort_unstable();
    keys.dedup();
    for (o, i) in keys {
        print!("  {:<18}", format!("({o}, {i})"));
        for c in PCA_CONFIGS {
            let p = points
                .iter()
                .find(|p| p.outer == o && p.inner == i && p.config == c)
                .expect("point");
            print!(" {:>14}", p.bootstraps);
        }
        println!();
    }
}

/// Recovery-overhead table row: one flat benchmark executed fault-free
/// vs under seeded transient faults with the resilient policy.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Injected per-call transient fault rate.
    pub fault_rate: f64,
    /// Transient faults observed by the executor.
    pub transients: u64,
    /// Backend calls re-issued.
    pub retries: u64,
    /// Emergency bootstraps (degradation events).
    pub emergency_bootstraps: u64,
    /// Loop-header checkpoints taken.
    pub checkpoints: u64,
    /// Resumes from a checkpoint.
    pub resumes: u64,
    /// Fault-free modeled latency, µs.
    pub base_us: f64,
    /// Modeled latency under faults (includes backoff + checkpoint time).
    pub faulty_us: f64,
    /// Whether the recovered outputs matched the fault-free run exactly.
    pub outputs_exact: bool,
}

/// The transient rate used by the recovery-overhead table (the chaos
/// suite's acceptance rate: every benchmark must complete under it).
pub const RECOVERY_FAULT_RATE: f64 = 0.05;

/// Runs the six flat benchmarks fault-free and under seeded transient
/// faults with [`ExecPolicy::resilient`], producing recovery-overhead
/// rows. With the exact backend and transient-only faults the recovered
/// outputs must be *bit-identical* to the fault-free run — retried calls
/// recompute the same values.
///
/// # Panics
///
/// Panics if a benchmark fails to compile or recovery fails to complete
/// a run (both violate the fault-tolerance acceptance criteria).
#[must_use]
pub fn recovery_rows(scale: Scale, iters: u64, seed: u64) -> Vec<RecoveryRow> {
    let mut rows = Vec::new();
    for bench in flat_benchmarks() {
        let compiled = compile_bench(bench.as_ref(), CompilerConfig::Halo, &[iters], scale)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        let inputs = bound_inputs(bench.as_ref(), &[iters], scale);
        let base = crate::execute(&compiled.function, &inputs, scale, false);
        let (faulty, _report) = execute_chaos(
            &compiled.function,
            &inputs,
            scale,
            FaultSpec::transient_only(RECOVERY_FAULT_RATE),
            seed,
            ExecPolicy::resilient(),
        )
        .unwrap_or_else(|e| panic!("{}: recovery must complete: {e}", bench.name()));
        let outputs_exact = base.outputs == faulty.outputs;
        rows.push(RecoveryRow {
            bench: bench.name(),
            fault_rate: RECOVERY_FAULT_RATE,
            transients: faulty.stats.transient_faults,
            retries: faulty.stats.retries,
            emergency_bootstraps: faulty.stats.emergency_bootstraps,
            checkpoints: faulty.stats.checkpoints,
            resumes: faulty.stats.resumes,
            base_us: base.stats.total_us,
            faulty_us: faulty.stats.total_us,
            outputs_exact,
        });
    }
    rows
}

/// Prints the recovery-overhead table.
pub fn print_recovery(rows: &[RecoveryRow], seed: u64) {
    let rate = rows.first().map_or(RECOVERY_FAULT_RATE, |r| r.fault_rate);
    println!(
        "Recovery overhead: resilient executor under {:.0}% transient faults (seed {seed})",
        rate * 100.0
    );
    println!(
        "  {:<13} {:>7} {:>8} {:>7} {:>7} {:>7} {:>10} {:>10} {:>9} {:>6}",
        "benchmark",
        "faults",
        "retries",
        "eboots",
        "ckpts",
        "resumes",
        "base (s)",
        "chaos (s)",
        "overhead",
        "exact"
    );
    for r in rows {
        let overhead = 100.0 * (r.faulty_us - r.base_us) / r.base_us.max(1e-12);
        println!(
            "  {:<13} {:>7} {:>8} {:>7} {:>7} {:>7} {:>10.3} {:>10.3} {:>8.2}% {:>6}",
            r.bench,
            r.transients,
            r.retries,
            r.emergency_bootstraps,
            r.checkpoints,
            r.resumes,
            r.base_us / 1e6,
            r.faulty_us / 1e6,
            overhead,
            if r.outputs_exact { "yes" } else { "NO" }
        );
    }
}

// ----------------------------------------------------------------------
// Serving: cross-request SIMD batching throughput
// ----------------------------------------------------------------------

/// Batch sizes the serving campaign sweeps.
pub const SERVING_BATCHES: [usize; 4] = [1, 4, 16, 64];
/// Jobs per campaign (a multiple of every batch size, so every run
/// coalesces into full batches and rows are deterministic).
pub const SERVING_JOBS: usize = 128;
/// Concurrent tenant sessions submitting the jobs.
pub const SERVING_SESSIONS: usize = 4;
/// Worker threads (the modeled makespan divides total work by this).
pub const SERVING_WORKERS: usize = 4;
/// Loop trips of the serving workload (bootstraps per job).
pub const SERVING_ITERS: u64 = 6;

/// One row of the serving-throughput table: the same 128-job
/// same-program campaign at one maximum batch size.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Maximum coalesced batch size for this run.
    pub batch: usize,
    /// Jobs completed (always [`SERVING_JOBS`]).
    pub jobs: u64,
    /// Executions that coalesced ≥ 2 jobs.
    pub packed_batches: u64,
    /// Modeled throughput, completed jobs per modeled second.
    pub jobs_per_sec: f64,
    /// Modeled latency percentiles across jobs, µs.
    pub p50_us: f64,
    /// 99th percentile modeled latency, µs.
    pub p99_us: f64,
    /// Modeled campaign makespan, µs.
    pub makespan_us: f64,
    /// Throughput relative to the batch-1 (solo) run of the same jobs.
    pub speedup_vs_solo: f64,
}

impl ServingRow {
    /// The row's JSON form, shared by `BENCH_SERVE.json` and the
    /// `serving` section of `BENCH_RUN_ALL.json`.
    #[must_use]
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::{num, obj};
        obj(vec![
            ("batch", num(self.batch as f64)),
            ("jobs", num(self.jobs as f64)),
            ("packed_batches", num(self.packed_batches as f64)),
            ("jobs_per_sec", num(self.jobs_per_sec)),
            ("p50_us", num(self.p50_us)),
            ("p99_us", num(self.p99_us)),
            ("makespan_us", num(self.makespan_us)),
            ("speedup_vs_solo", num(self.speedup_vs_solo)),
        ])
    }
}

/// The serving workload: a compiled squaring iteration (`w ← w²`,
/// [`SERVING_ITERS`] trips) — slotwise after type-matched compilation
/// (no rotations, no masks), so jobs coalesce into slot windows.
fn serving_program(scale: Scale) -> halo_ir::Function {
    use halo_core::compile;
    use halo_ir::{FunctionBuilder, TripCount};
    let slots = scale.spec().slots;
    let mut b = FunctionBuilder::new("square_iter", slots);
    let x = b.input_cipher("x");
    let width = serving_width(scale);
    let r = b.for_loop(TripCount::dynamic("n"), &[x], width, |b, a| {
        vec![b.mul(a[0], a[0])]
    });
    b.ret(&r);
    let src = b.finish();
    compile(&src, CompilerConfig::TypeMatched, &crate::options(scale))
        .expect("serving workload compiles")
        .function
}

/// Per-job payload width: the slot-window size that fits the largest
/// swept batch ([`SERVING_BATCHES`]) into one ciphertext at any scale.
#[must_use]
pub fn serving_width(scale: Scale) -> usize {
    (scale.spec().slots / SERVING_BATCHES[SERVING_BATCHES.len() - 1]).max(1)
}

/// Runs the closed-loop serving campaign: [`SERVING_JOBS`] same-program
/// jobs from [`SERVING_SESSIONS`] tenants over [`SERVING_WORKERS`]
/// workers on the exact backend, once per batch size in
/// [`SERVING_BATCHES`]. Throughput and makespan are modeled (cost-model
/// accounted), so rows are machine-independent; `seed` varies the job
/// payloads only.
///
/// # Panics
///
/// Panics if the workload fails to compile or any job fails — the exact
/// backend is fault-free, so failure is a serving-layer bug.
#[must_use]
pub fn serving_rows(scale: Scale, seed: u64) -> Vec<ServingRow> {
    use halo_runtime::serve::{serve, ServeConfig};
    use halo_runtime::Inputs;
    use std::sync::Arc;

    let prog = Arc::new(serving_program(scale));
    let be = halo_ckks::SimBackend::exact(scale.params());
    let width = serving_width(scale);
    let mut rng = seed;
    let jobs: Vec<Vec<f64>> = (0..SERVING_JOBS)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let z = splitmix64(rng);
                    rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    (z as f64 / u64::MAX as f64) * 1.8 - 0.9
                })
                .collect()
        })
        .collect();

    let mut rows: Vec<ServingRow> = Vec::new();
    let mut solo_makespan = f64::NAN;
    for &batch in &SERVING_BATCHES {
        let config = ServeConfig {
            workers: SERVING_WORKERS,
            queue_cap: SERVING_JOBS.max(1),
            max_batch: batch,
            // Linger so every execution coalesces a full batch: the rows
            // become deterministic functions of the cost model.
            batch_window_ms: if batch > 1 { 500 } else { 0 },
            ..ServeConfig::default()
        };
        let ((), report) = serve(&be, config, |srv| {
            let sessions: Vec<_> = (0..SERVING_SESSIONS)
                .map(|i| srv.session(&format!("tenant-{i}")))
                .collect();
            let tickets: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    srv.submit(
                        sessions[i % SERVING_SESSIONS],
                        &prog,
                        Inputs::new().cipher("x", d.clone()).env("n", SERVING_ITERS),
                    )
                    .expect("admit")
                })
                .collect();
            for t in tickets {
                t.wait().expect("serving job must complete");
            }
        });
        assert_eq!(report.jobs_done, SERVING_JOBS as u64, "batch {batch}");
        if batch == 1 {
            solo_makespan = report.makespan_us;
        }
        rows.push(ServingRow {
            batch,
            jobs: report.jobs_done,
            packed_batches: report.packed_batches,
            jobs_per_sec: report.jobs_per_sec(),
            p50_us: report.latency_percentile_us(50.0),
            p99_us: report.latency_percentile_us(99.0),
            makespan_us: report.makespan_us,
            speedup_vs_solo: solo_makespan / report.makespan_us,
        });
    }
    rows
}

/// Prints the serving-throughput table (batched vs solo).
pub fn print_serving(rows: &[ServingRow], seed: u64) {
    println!(
        "Serving throughput: {SERVING_JOBS} same-program jobs, \
         {SERVING_SESSIONS} sessions, {SERVING_WORKERS} workers (seed {seed})"
    );
    println!(
        "  {:>5} {:>12} {:>12} {:>12} {:>14} {:>9}",
        "batch", "jobs/sec", "p50 (ms)", "p99 (ms)", "makespan (s)", "speedup"
    );
    for r in rows {
        println!(
            "  {:>5} {:>12.2} {:>12.2} {:>12.2} {:>14.3} {:>8.2}x",
            r.batch,
            r.jobs_per_sec,
            r.p50_us / 1e3,
            r.p99_us / 1e3,
            r.makespan_us / 1e6,
            r.speedup_vs_solo
        );
    }
}

// ----------------------------------------------------------------------
// Autotuning: HALO heuristic vs. optimal-placement search
// ----------------------------------------------------------------------

/// One row of the "HALO heuristic vs. tuned" comparison: a program's
/// modeled cost under the paper's HALO configuration against the
/// autotuner's best plan, plus the search accounting.
#[derive(Debug, Clone)]
pub struct TuneRow {
    /// Program name (benchmark name, or `fuzz-<seed>` for corpus rows).
    pub program: String,
    /// [`halo_core::TunePlan::describe`] of the winning plan.
    pub plan: String,
    /// Modeled cost (µs) under [`CompilerConfig::Halo`].
    pub halo_us: f64,
    /// Modeled cost (µs) of the autotuned plan.
    pub tuned_us: f64,
    /// Candidates the search compiled and scored.
    pub evaluated: usize,
    /// Candidates discarded without a full compile.
    pub pruned: usize,
    /// Total candidate-space size.
    pub space: usize,
}

impl TuneRow {
    /// Heuristic-over-tuned cost ratio (≥ 1 when the search did its job).
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.halo_us / self.tuned_us
    }

    /// The row's JSON form, shared by `BENCH_TUNE.json` and the `tuning`
    /// section of `BENCH_RUN_ALL.json`.
    #[must_use]
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::{num, obj, Json};
        obj(vec![
            ("program", Json::Str(self.program.clone())),
            ("plan", Json::Str(self.plan.clone())),
            ("halo_us", num(self.halo_us)),
            ("tuned_us", num(self.tuned_us)),
            ("gap", num(self.gap())),
            ("evaluated", num(self.evaluated as f64)),
            ("pruned", num(self.pruned as f64)),
            ("space", num(self.space as f64)),
        ])
    }
}

/// Builds one [`TuneRow`] for a traced program: the HALO heuristic's
/// modeled cost vs the autotuner's winner.
///
/// # Panics
///
/// Panics if the HALO heuristic or the whole search fails to compile the
/// program — both mean the corpus/benchmark is broken.
#[must_use]
pub fn tune_row(
    program: &str,
    src: &halo_ir::Function,
    opts: &halo_core::CompileOptions,
) -> TuneRow {
    let halo_us = heuristic_cost_us(src, CompilerConfig::Halo, opts, ASSUMED_TRIPS)
        .unwrap_or_else(|e| panic!("{program}: HALO heuristic: {e}"));
    let outcome =
        autotune::autotune(src, opts).unwrap_or_else(|e| panic!("{program}: autotune: {e}"));
    TuneRow {
        program: program.into(),
        plan: outcome.plan.describe(),
        halo_us,
        tuned_us: outcome.cost_us,
        evaluated: outcome.evaluated,
        pruned: outcome.pruned,
        space: outcome.space,
    }
}

/// Autotunes the six flat benchmarks (dynamic-trip traces) and compares
/// each against the HALO heuristic's modeled cost.
#[must_use]
pub fn tuned_rows(scale: Scale) -> Vec<TuneRow> {
    let spec = scale.spec();
    let opts = crate::options(scale);
    flat_benchmarks()
        .iter()
        .map(|b| tune_row(b.name(), &b.trace_dynamic(&spec), &opts))
        .collect()
}

/// Number of rows where the tuned plan strictly beats the heuristic.
#[must_use]
pub fn tune_improved(rows: &[TuneRow]) -> usize {
    rows.iter()
        .filter(|r| r.tuned_us < r.halo_us * (1.0 - 1e-9))
        .count()
}

/// Geometric-mean heuristic-over-tuned gap across rows.
#[must_use]
pub fn tune_geomean_gap(rows: &[TuneRow]) -> f64 {
    let log_sum: f64 = rows.iter().map(|r| r.gap().ln()).sum();
    (log_sum / rows.len().max(1) as f64).exp()
}

/// Prints the "HALO heuristic vs. tuned" table.
pub fn print_tuned(rows: &[TuneRow]) {
    println!(
        "Autotuning: HALO heuristic vs. optimal-placement search (modeled, {ASSUMED_TRIPS} iters)"
    );
    println!(
        "  {:<13} {:>12} {:>12} {:>7} {:>11} {:>7} {:<34}",
        "program", "HALO (s)", "tuned (s)", "gap", "evaluated", "pruned", "plan"
    );
    for r in rows {
        println!(
            "  {:<13} {:>12.3} {:>12.3} {:>6.2}x {:>11} {:>7} {:<34}",
            r.program,
            r.halo_us / 1e6,
            r.tuned_us / 1e6,
            r.gap(),
            r.evaluated,
            r.pruned,
            r.plan
        );
    }
    println!(
        "  geometric-mean heuristic-vs-optimal gap: {:.3}x ({} of {} strictly improved)",
        tune_geomean_gap(rows),
        tune_improved(rows),
        rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_rows_cover_the_grid() {
        let rows = flat_config_rows(Scale::Small, 4);
        assert_eq!(rows.len(), 6 * 5);
        // HALO never executes more bootstraps than Type-matched.
        for bench in flat_benchmarks() {
            let tm = rows
                .iter()
                .find(|r| r.bench == bench.name() && r.config == CompilerConfig::TypeMatched)
                .unwrap();
            let halo = rows
                .iter()
                .find(|r| r.bench == bench.name() && r.config == CompilerConfig::Halo)
                .unwrap();
            assert!(
                halo.bootstraps <= tm.bootstraps,
                "{}: {} > {}",
                bench.name(),
                halo.bootstraps,
                tm.bootstraps
            );
            assert!(halo.total_us <= tm.total_us * 1.02, "{}", bench.name());
        }
    }

    #[test]
    fn pca_grid_latency_scales_with_iterations_for_halo() {
        let points = pca_grid(Scale::Small, &[2, 4], &[2]);
        let at = |o: u64, c: CompilerConfig| {
            points
                .iter()
                .find(|p| p.outer == o && p.inner == 2 && p.config == c)
                .unwrap()
                .total_us
        };
        // Type-matched and HALO are iteration-proportional (§7.4).
        let ratio = at(4, CompilerConfig::Halo) / at(2, CompilerConfig::Halo);
        assert!((1.5..=2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn recovery_rows_complete_with_exact_outputs() {
        let rows = recovery_rows(Scale::Small, 4, 7);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // Exact backend + transient-only faults: recovery recomputes
            // identical values, so outputs must match bit-for-bit.
            assert!(r.outputs_exact, "{}", r.bench);
            // Recovery never makes the modeled run cheaper.
            assert!(r.faulty_us >= r.base_us, "{}", r.bench);
            // The resilient policy checkpoints every loop header.
            assert!(r.checkpoints > 0, "{}", r.bench);
        }
        // 5% across six benchmarks: some faults must fire and be retried.
        let faults: u64 = rows.iter().map(|r| r.transients).sum();
        let retries: u64 = rows.iter().map(|r| r.retries).sum();
        assert!(faults > 0, "5% rate must fire across six benchmarks");
        assert!(retries >= faults.min(1));
    }

    #[test]
    fn serving_rows_model_near_linear_batching_speedup() {
        let rows = serving_rows(Scale::Small, 7);
        assert_eq!(rows.len(), SERVING_BATCHES.len());
        for (r, &batch) in rows.iter().zip(&SERVING_BATCHES) {
            assert_eq!(r.batch, batch);
            assert_eq!(r.jobs, SERVING_JOBS as u64);
            assert!(r.p50_us <= r.p99_us, "batch {batch}");
            assert!(r.jobs_per_sec > 0.0, "batch {batch}");
            if batch > 1 {
                assert!(r.packed_batches >= 1, "batch {batch} never coalesced");
            }
        }
        // Solo baseline defines speedup 1; batch 16 must clear the
        // paper-level 10x modeled bar with margin (pack overhead is
        // negligible against bootstrap-heavy execution).
        assert!((rows[0].speedup_vs_solo - 1.0).abs() < 1e-9);
        let at16 = rows.iter().find(|r| r.batch == 16).unwrap();
        assert!(
            at16.speedup_vs_solo >= 10.0,
            "batch-16 modeled speedup {} below 10x",
            at16.speedup_vs_solo
        );
        // Rows are modeled, hence reproducible: same seed, same numbers.
        let again = serving_rows(Scale::Small, 7);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
            assert_eq!(a.packed_batches, b.packed_batches);
        }
    }

    #[test]
    fn tuned_rows_never_lose_to_the_halo_heuristic() {
        let rows = tuned_rows(Scale::Small);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.tuned_us <= r.halo_us * (1.0 + 1e-9),
                "{}: tuned {} vs HALO {}",
                r.program,
                r.tuned_us,
                r.halo_us
            );
            assert!(r.evaluated >= 1, "{}", r.program);
            assert_eq!(r.evaluated + r.pruned, r.space, "{}", r.program);
        }
        assert!(tune_geomean_gap(&rows) >= 1.0 - 1e-9);
    }

    #[test]
    fn table6_halo_time_is_iteration_independent_and_small() {
        let rows = table6(Scale::Small);
        for r in &rows {
            assert!(r.dacapo.iter().all(|&t| t > 0.0));
            assert!(r.halo > 0.0);
        }
        // DaCapo compile time grows along the sweep for the deep bodies.
        let kmeans = rows.iter().find(|r| r.bench == "K-means").unwrap();
        assert!(
            kmeans.dacapo[3] > kmeans.dacapo[0],
            "DaCapo compile time must grow with iterations: {:?}",
            kmeans.dacapo
        );
    }
}
