//! The harness under the three chaos campaigns (`crash_resume`,
//! `remote_chaos`, `fleet_chaos`). A campaign runs the `linear`
//! benchmark on the exact backend through its own fault profiles and
//! legs, compares each leg's output bits with an uninterrupted baseline,
//! and writes one report whose schema is its exit gate. The binaries keep
//! only their profiles and legs; everything they share lives here.
//!
//! `HALO_CAMPAIGN_SEED` runs one dataset seed instead of seeds 1 and 2
//! (one CI matrix cell); `HALO_CAMPAIGN_DIR` moves the work directories
//! from `target/`, one subdirectory per campaign.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use halo_ckks::SimBackend;
use halo_core::{compile, CompilerConfig};
use halo_ir::Function;
use halo_ml::bench::{BenchSpec, Linear, MlBenchmark};
use halo_runtime::{Executor, Inputs};

use crate::json::{num, obj, Json, Schema};
use crate::Scale;

/// The `linear` benchmark compiled under HALO, with the inputs of dataset
/// `seed` and every trip symbol bound to `iters`. Each campaign has its
/// own `salt`, so campaigns encrypt different data.
#[must_use]
pub fn workload(salt: u64, seed: u64, iters: u64) -> (Function, Inputs) {
    let spec = BenchSpec {
        seed: salt ^ seed,
        ..Scale::Small.spec()
    };
    let compiled = compile(
        &Linear.trace_dynamic(&spec),
        CompilerConfig::Halo,
        &crate::options(Scale::Small),
    )
    .expect("linear benchmark compiles");
    let inputs = Linear
        .trip_symbols()
        .into_iter()
        .fold(Linear.inputs(&spec), |inputs, sym| inputs.env(sym, iters));
    (compiled.function, inputs)
}

/// The backend of every leg and baseline. It is exact (zero noise), so
/// bit-identity is the only acceptable outcome.
#[must_use]
pub fn backend() -> SimBackend {
    SimBackend::exact(Scale::Small.params())
}

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The output bits of one uninterrupted run: what every leg must
/// reproduce.
///
/// # Panics
///
/// If the uninterrupted run fails; no campaign can judge its legs then.
#[must_use]
pub fn baseline(f: &Function, inputs: &Inputs) -> Vec<Vec<u64>> {
    let out = Executor::new(&backend()).run(f, inputs);
    bits(&out.expect("baseline run").outputs)
}

/// The dataset seeds: `HALO_CAMPAIGN_SEED` alone when set, else 1 and 2.
/// Each seed changes the encrypted inputs, so bit-identity is proven
/// again on different ciphertext contents.
#[must_use]
pub fn seeds() -> Vec<u64> {
    match std::env::var("HALO_CAMPAIGN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![1, 2],
    }
}

/// Campaign `name`'s work directory: `$HALO_CAMPAIGN_DIR/<name>`, by
/// default `target/<name>`.
#[must_use]
pub fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(std::env::var("HALO_CAMPAIGN_DIR").unwrap_or_else(|_| "target".into())).join(name)
}

/// One trial: its report row and its verdict.
pub struct Trial {
    fields: Vec<(&'static str, Json)>,
    bit_identical: bool,
    aborted: bool,
}

impl Trial {
    /// The trial whose leg ended in `outcome`, reported as `fields` (the
    /// row without its verdict). It is bit-identical when the outputs
    /// match `baseline`, and aborted, with the error logged, when the leg
    /// failed.
    pub fn new<E: Display>(
        fields: Vec<(&'static str, Json)>,
        outcome: Result<&[Vec<f64>], E>,
        baseline: &[Vec<u64>],
    ) -> Trial {
        let (bit_identical, aborted) = match outcome {
            Ok(outputs) => (bits(outputs) == baseline, false),
            Err(e) => {
                eprintln!("ABORT {}: {e}", line(&fields));
                (false, true)
            }
        };
        Trial {
            fields,
            bit_identical,
            aborted,
        }
    }
}

/// A row as `key=value` pairs.
fn line(fields: &[(&str, Json)]) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}={s}"),
            v => format!("{k}={}", v.pretty().trim_end()),
        })
        .collect();
    pairs.join(" ")
}

/// Ends campaign `id`: prints one OK/FAIL line per trial and writes the
/// report (`schema`, `bench`, `scale`, `iters`, `seeds`, the campaign's
/// own `header` fields, `wall_ms` since `start`, the totals and the trial
/// rows) to its file in the bench JSON directory. The exit code is
/// non-zero iff the report fails its schema, which a failed or aborted
/// trial always does.
///
/// # Panics
///
/// If `id` has no schema, or the report cannot be written.
#[must_use]
pub fn finish(
    id: &str,
    iters: u64,
    seeds: &[u64],
    header: Vec<(&'static str, Json)>,
    trials: Vec<Trial>,
    start: Instant,
) -> ExitCode {
    for t in &trials {
        let verdict = if t.bit_identical { "OK  " } else { "FAIL" };
        println!("{verdict} {}", line(&t.fields));
    }
    let passed = trials.iter().filter(|t| t.bit_identical).count();
    let aborts = trials.iter().filter(|t| t.aborted).count();
    let failed = trials.len() - passed;
    let mut fields = vec![
        ("schema", Json::Str(id.into())),
        ("bench", Json::Str(Linear.name().into())),
        ("scale", Json::Str("small".into())),
        ("iters", num(iters as f64)),
        ("seeds", num(seeds.len() as f64)),
    ];
    fields.extend(header);
    fields.extend([
        ("wall_ms", num(start.elapsed().as_secs_f64() * 1e3)),
        ("passed", num(passed as f64)),
        ("failed", num(failed as f64)),
        ("aborts", num(aborts as f64)),
    ]);
    let rows = trials.into_iter().map(|t| {
        let mut row = t.fields;
        row.push(("bit_identical", Json::Bool(t.bit_identical)));
        obj(row)
    });
    fields.push(("trials", Json::Arr(rows.collect())));
    let doc = obj(fields);

    let schema = Schema::by_id(id).expect("campaign schema is registered");
    let path = crate::bench_json_dir()
        .expect("bench json dir")
        .join(schema.file);
    std::fs::write(&path, doc.pretty()).expect("write report");
    println!(
        "wrote {} ({passed} passed, {failed} failed, {aborts} aborts)",
        path.display()
    );
    match schema.check(&doc) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL {}: {e}", schema.file);
            ExitCode::FAILURE
        }
    }
}
