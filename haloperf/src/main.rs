//! Measured benchmark of the HALO compiler, executor and CKKS backends.
//!
//! ```sh
//! cargo run --release --quiet --manifest-path haloperf/Cargo.toml -- \
//!     --workload toy-exact --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints one row per program × configuration, the provenance and every
//! metric with its unit and kind, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate run of the same
//! workload that records spans and reports the per-layer metrics, writing
//! the spans to `.bench_trace/<workload>-seed<seed>.json`. The process
//! exits non-zero when any output misses its reference or any tuned plan
//! loses to the HALO heuristic. See README.md.

mod metrics;
mod replay;
mod timed;
mod toy;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use halo_bench::json::{self, Json};
use halo_ckks::{Backend, SimBackend, ToyBackend};

use crate::metrics::{Metric, Report};
use crate::trace::{Tracer, NONE};
use crate::workload::{Kind, Layers, PassStat, Perturb, Workload};

const USAGE: &str = "usage: halo-perf --workload <toy-exact|sim-paper|compile-tune> \
                     --seed <n> --seconds <n> --trace <0|1> [--perturb <output|cost>]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    perturb: Perturb,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let kind = Kind::parse(need("--workload")?).ok_or("unknown workload")?;
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let perturb = match get("--perturb") {
        None => Perturb::None,
        Some("output") => Perturb::Output,
        Some("cost") => Perturb::Cost,
        Some(_) => return Err("--perturb takes output or cost".into()),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        perturb,
    })
}

/// Everything a workload run measured.
pub struct Measured {
    pub setup_s: f64,
    pub backend_new_s: f64,
    pub warm: Option<PassStat>,
    pub passes: Vec<PassStat>,
    pub layers: Layers,
    pub toy: Option<ToyExtras>,
}

/// The toy-only traced diagnostics.
pub struct ToyExtras {
    pub units: toy::KernelUnits,
    pub speedup: f64,
    pub fidelity: Result<(), String>,
}

fn measure<B: Backend>(
    wl: &Workload,
    backends: &[B],
    args: &Args,
    tr: &mut Tracer,
    start: Instant,
) -> (f64, Option<PassStat>, Vec<PassStat>, Layers) {
    let warm = wl
        .warmup
        .then(|| workload::pass(wl, backends, args.perturb, tr, None));
    let setup_s = start.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut layers = Layers::default();
    let mut passes = Vec::new();
    loop {
        let traced = args.trace.then_some(&mut layers);
        passes.push(workload::pass(wl, backends, args.perturb, tr, traced));
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    (setup_s, warm, passes, layers)
}

fn run(args: &Args, start: Instant) -> (Workload, Measured, Tracer) {
    halo_ckks::parallel::set_threads(Some(1));
    let mut tr = Tracer::new(args.trace);
    let setup = tr.open("setup", NONE);
    let wl = workload::build(args.kind, args.seed, &mut tr);
    let span = tr.open("ckks.backend_new", NONE);
    let t = Instant::now();
    let measured = match args.kind {
        Kind::ToyExact => {
            let backends = [ToyBackend::new(
                workload::TOY_N,
                workload::LEVELS,
                workload::key_seed(args.seed),
            )];
            let backend_new_s = t.elapsed().as_secs_f64();
            tr.close(span);
            tr.close(setup);
            let (setup_s, warm, passes, layers) = measure(&wl, &backends, args, &mut tr, start);
            let compiled = &passes[0].compiled;
            let toy = (args.trace && compiled.len() == wl.programs.len()).then(|| {
                let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
                ToyExtras {
                    units: toy::kernel_units(&mut tr),
                    speedup: toy::thread_speedup(&wl, &backends, compiled, nproc),
                    // Multivariate: the rotation-heaviest toy row.
                    fidelity: toy::decorator_fidelity(
                        &wl,
                        compiled,
                        1,
                        workload::key_seed(args.seed),
                    ),
                }
            });
            Measured {
                setup_s,
                backend_new_s,
                warm,
                passes,
                layers,
                toy,
            }
        }
        Kind::SimPaper | Kind::CompileTune => {
            let mut backends = vec![SimBackend::exact(workload::medium(args.seed).1.params)];
            if args.kind == Kind::CompileTune {
                backends.push(SimBackend::exact(halo_fuzz::diff::fuzz_params()));
            }
            let backend_new_s = t.elapsed().as_secs_f64();
            tr.close(span);
            tr.close(setup);
            let (setup_s, warm, passes, layers) = measure(&wl, &backends, args, &mut tr, start);
            Measured {
                setup_s,
                backend_new_s,
                warm,
                passes,
                layers,
                toy: None,
            }
        }
    };
    (wl, measured, tr)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (wl, m, tr) = run(&args, start);
    let report = Report::new(&wl, &m, &tr, args.trace);

    let all = m.warm.iter().chain(&m.passes);
    let mut attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let mut failed: u64 = all.clone().map(|p| p.failed).sum();
    for f in all.flat_map(|p| &p.failures) {
        eprintln!("FAILED: {f}");
    }
    if let Some(t) = &m.toy {
        attempted += 1;
        if let Err(e) = &t.fidelity {
            failed += 1;
            eprintln!("FAILED: decorator fidelity: {e}");
        }
    }

    for line in report.rows(&wl, &m.passes) {
        println!("{line}");
    }
    for (i, p) in m.passes.iter().enumerate() {
        let [halo, dacapo] = &p.compile_sweeps;
        println!(
            "pass {i} compile_sweeps={} median_s={:.6} dacapo_compile_sweeps={} median_s={:.6} tune_s={:.6} run_s={:.6} dacapo_run_s={:.6}",
            halo.len(),
            metrics::median(halo.clone()),
            dacapo.len(),
            metrics::median(dacapo.clone()),
            p.tune_rows.iter().sum::<f64>(),
            p.run_halo_s,
            p.run_dacapo_s
        );
    }
    println!(
        "provenance workload={} seed={} commit={} rustc={:?} nproc={} threads=1 ring_degree={} passes={}",
        wl.kind.name(),
        args.seed,
        metrics::commit(),
        env!("HALOPERF_RUSTC"),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        wl.ring_degree,
        m.passes.len()
    );
    let metrics: &[Metric] = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for mt in metrics {
        println!(
            "metric {} = {} {} ({})",
            mt.name, mt.value, mt.unit, mt.kind
        );
    }
    for (name, why) in &report.absent {
        println!("absent {name}: {why}");
    }
    for p in &report.predictions {
        println!("prediction {p}");
    }
    if args.trace {
        match report.write_trace(&wl, args.seed, args.seconds, &tr) {
            Ok(path) => println!("trace written to {path}"),
            Err(e) => eprintln!("could not write the trace: {e}"),
        }
    }
    let result = json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", json::num(attempted as f64)),
        ("failed", json::num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|mt| {
                        (
                            mt.name.clone(),
                            json::obj(vec![
                                ("value", Json::Num(mt.value)),
                                ("unit", Json::Str(mt.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", metrics::one_line(&result));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
