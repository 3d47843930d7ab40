//! # halo-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7).
//! Each `table*`/`fig*` binary prints the same rows/series the paper
//! reports; `run_all` emits everything at once (and is what
//! `EXPERIMENTS.md` is generated from).
//!
//! Scale is selected with the `HALO_SCALE` environment variable:
//! `small` (64 slots — CI-fast), `medium` (8 192 slots, default), or
//! `paper` (131 072-degree ring, 65 536 slots, 4 096 samples — the paper's
//! Table 1 configuration; minutes of runtime).
//!
//! Latencies are *modeled* microseconds from the calibrated cost model
//! (`DESIGN.md` §4, substitution 1): the compiled op stream is real, the
//! stopwatch is the paper's published per-op numbers.

use halo_ckks::{CkksParams, FaultInjectingBackend, FaultReport, FaultSpec, SimBackend};
use halo_core::{compile, CompileError, CompileOptions, CompileResult, CompilerConfig};
use halo_ir::Function;
use halo_ml::bench::{BenchSpec, MlBenchmark};
use halo_runtime::{reference_run, rmse, ExecError, ExecPolicy, Executor, Inputs, RunStats};

pub mod campaign;
pub mod json;
pub mod tables;

/// Resolves the directory for machine-readable bench artifacts
/// (`HALO_BENCH_JSON_DIR`, default `results/`), creating it if needed.
///
/// # Errors
///
/// Propagates the create/canonicalize I/O error.
pub fn bench_json_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("HALO_BENCH_JSON_DIR").unwrap_or_else(|_| "results".into());
    let path = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

/// Evaluation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 64 slots, 4 samples — smoke-test speed.
    Small,
    /// 8 192 slots, 512 samples — seconds per table.
    Medium,
    /// The paper's Table 1 scale: 65 536 slots, 4 096 samples.
    Paper,
}

impl Scale {
    /// Reads `HALO_SCALE` (default: medium).
    #[must_use]
    pub fn from_env() -> Scale {
        match std::env::var("HALO_SCALE").unwrap_or_default().as_str() {
            "small" => Scale::Small,
            "paper" => Scale::Paper,
            _ => Scale::Medium,
        }
    }

    /// The benchmark sizing for this scale.
    #[must_use]
    pub fn spec(self) -> BenchSpec {
        match self {
            Scale::Small => BenchSpec::test_small(),
            Scale::Medium => BenchSpec {
                slots: 1 << 13,
                num_elems: 1 << 9,
                seed: 0xDA7A,
            },
            Scale::Paper => BenchSpec::paper(),
        }
    }

    /// The scheme parameters (level structure is the paper's at every
    /// scale; only the ring degree shrinks).
    #[must_use]
    pub fn params(self) -> CkksParams {
        CkksParams {
            poly_degree: self.spec().slots * 2,
            ..CkksParams::paper()
        }
    }
}

/// Compiler options for a scale.
#[must_use]
pub fn options(scale: Scale) -> CompileOptions {
    CompileOptions::new(scale.params())
}

/// Compiles `bench` under `config`. DaCapo gets constant trip counts
/// (it rejects symbolic ones); every other configuration compiles the
/// dynamic-trip program.
///
/// # Errors
///
/// Propagates [`CompileError`] from the pipeline.
pub fn compile_bench(
    bench: &dyn MlBenchmark,
    config: CompilerConfig,
    iters: &[u64],
    scale: Scale,
) -> Result<CompileResult, CompileError> {
    let spec = scale.spec();
    let src = if config == CompilerConfig::DaCapo {
        bench.trace_constant(&spec, iters)
    } else {
        bench.trace_dynamic(&spec)
    };
    compile(&src, config, &options(scale))
}

/// Inputs for `bench` with every trip symbol bound to the matching entry
/// of `iters`.
#[must_use]
pub fn bound_inputs(bench: &dyn MlBenchmark, iters: &[u64], scale: Scale) -> Inputs {
    let spec = scale.spec();
    let mut inputs = bench.inputs(&spec);
    for (sym, &n) in bench.trip_symbols().iter().zip(iters) {
        inputs = inputs.env(*sym, n);
    }
    inputs
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Execution statistics (bootstrap counts, modeled latency).
    pub stats: RunStats,
    /// Decrypted outputs.
    pub outputs: Vec<Vec<f64>>,
}

/// Executes a compiled function on the simulation backend (exact or
/// noise-calibrated).
///
/// # Panics
///
/// Panics if execution fails (a compiled program must run).
#[must_use]
pub fn execute(f: &Function, inputs: &Inputs, scale: Scale, noisy: bool) -> Measured {
    let be = if noisy {
        SimBackend::new(scale.params())
    } else {
        SimBackend::exact(scale.params())
    };
    let out = Executor::new(&be)
        .run(f, inputs)
        .expect("compiled program must execute");
    Measured {
        stats: out.stats,
        outputs: out.outputs,
    }
}

/// Executes a compiled function on the *exact* simulation backend wrapped
/// in a seeded [`FaultInjectingBackend`], under the given recovery
/// policy. Returns the measurement plus the injected-fault report so
/// callers can assert the schedule (the recovery-overhead table and the
/// chaos suite both do).
///
/// # Errors
///
/// Returns the executor's error when recovery could not absorb the
/// injected faults (e.g. retry budget exhausted outside any loop).
pub fn execute_chaos(
    f: &Function,
    inputs: &Inputs,
    scale: Scale,
    spec: FaultSpec,
    seed: u64,
    policy: ExecPolicy,
) -> Result<(Measured, FaultReport), ExecError> {
    let be = FaultInjectingBackend::new(SimBackend::exact(scale.params()), spec, seed);
    let out = Executor::with_policy(&be, policy).run(f, inputs)?;
    Ok((
        Measured {
            stats: out.stats,
            outputs: out.outputs,
        },
        be.report(),
    ))
}

/// Compile + execute in one step.
///
/// # Errors
///
/// Propagates compile errors (e.g. DaCapo on dynamic trips).
pub fn run_bench(
    bench: &dyn MlBenchmark,
    config: CompilerConfig,
    iters: &[u64],
    scale: Scale,
) -> Result<Measured, CompileError> {
    let compiled = compile_bench(bench, config, iters, scale)?;
    let inputs = bound_inputs(bench, iters, scale);
    Ok(execute(&compiled.function, &inputs, scale, false))
}

/// RMSE of a noisy encrypted run against the plaintext reference, per
/// output (Table 4's metric).
///
/// # Errors
///
/// Propagates compile errors.
///
/// # Panics
///
/// Panics if the reference execution fails.
pub fn rmse_per_output(
    bench: &dyn MlBenchmark,
    iters: &[u64],
    scale: Scale,
) -> Result<Vec<f64>, CompileError> {
    let spec = scale.spec();
    let src = bench.trace_dynamic(&spec);
    let inputs = bound_inputs(bench, iters, scale);
    let want = reference_run(&src, &inputs, spec.slots).expect("reference");
    let compiled = compile(&src, CompilerConfig::Halo, &options(scale))?;
    let got = execute(&compiled.function, &inputs, scale, true);
    Ok(got
        .outputs
        .iter()
        .zip(&want)
        .map(|(g, w)| {
            rmse(
                &g[..spec.num_elems.min(g.len())],
                &w[..spec.num_elems.min(w.len())],
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ml::bench::Linear;

    #[test]
    fn small_scale_round_trips() {
        let m = run_bench(&Linear, CompilerConfig::Halo, &[4], Scale::Small).unwrap();
        assert!(m.stats.bootstrap_count > 0);
        assert!(m.stats.total_us > 0.0);
    }

    #[test]
    fn scale_shapes() {
        assert_eq!(Scale::Small.spec().slots, 64);
        assert_eq!(Scale::Paper.spec(), BenchSpec::paper());
        assert_eq!(Scale::Paper.params().poly_degree, 1 << 17);
    }

    #[test]
    fn rmse_is_finite_and_positive_with_noise() {
        let e = rmse_per_output(&Linear, &[4], Scale::Small).unwrap();
        assert!(!e.is_empty());
        assert!(e.iter().all(|x| x.is_finite() && *x > 0.0));
    }
}
