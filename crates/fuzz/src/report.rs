//! The machine-readable failure artifact (`results/FUZZ_REPORT.json`,
//! schema `halo-fuzz-report/1`).
//!
//! Every fuzzer invocation writes one — a green run records the coverage
//! (seeds run/skipped); a red run additionally carries, per failure, the
//! seed, stage, configuration, diagnosis, the shrunk spec, and a
//! command line that reproduces it. CI round-trips the file through
//! `halo_bench::json::parse` and its schema table before accepting it.

use halo_bench::json::{num, obj, Json};

use crate::diff::{FuzzFailure, Stage};
use crate::gen::ProgramSpec;

/// One reported failure.
#[derive(Debug, Clone)]
pub struct ReportedFailure {
    /// The differential failure itself.
    pub failure: FuzzFailure,
    /// The shrunk reproducer.
    pub shrunk: ProgramSpec,
    /// Accepted shrinking steps.
    pub shrink_steps: usize,
}

/// A full fuzzing-run report.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds requested.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Cases actually executed through the differential pipeline.
    pub ran: u64,
    /// Cases skipped (degenerate magnitude).
    pub skipped: u64,
    /// Whether the per-pass verifier was enabled.
    pub pass_verify: bool,
    /// All failures, already shrunk.
    pub failures: Vec<ReportedFailure>,
}

impl FuzzReport {
    /// Serializes to the `halo-fuzz-report/1` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let failures: Vec<Json> = self
            .failures
            .iter()
            .map(|rf| {
                let f = &rf.failure;
                let mut members = vec![
                    ("seed", num(f.seed as f64)),
                    ("stage", Json::Str(f.stage.name().into())),
                ];
                if let Stage::PassVerify { pass } = &f.stage {
                    members.push(("pass", Json::Str(pass.clone())));
                }
                if let Some(config) = f.config {
                    members.push(("config", Json::Str(config.into())));
                }
                members.extend([
                    ("detail", Json::Str(f.detail.clone())),
                    (
                        "repro",
                        Json::Str(format!("cargo run -p halo-fuzz -- --seed {}", f.seed)),
                    ),
                    ("shrink_steps", num(rf.shrink_steps as f64)),
                    ("shrunk_size", num(rf.shrunk.size() as f64)),
                    ("shrunk_spec", Json::Str(format!("{:?}", rf.shrunk))),
                ]);
                obj(members)
            })
            .collect();
        obj(vec![
            ("schema", Json::Str("halo-fuzz-report/1".into())),
            ("seeds", num(self.seeds as f64)),
            ("start_seed", num(self.start_seed as f64)),
            ("ran", num(self.ran as f64)),
            ("skipped", num(self.skipped as f64)),
            ("pass_verify", Json::Bool(self.pass_verify)),
            ("failures", Json::Arr(failures)),
        ])
    }

    /// Writes the report to `FUZZ_REPORT.json` under the bench JSON
    /// directory (`HALO_BENCH_JSON_DIR`, default `results/`), returning
    /// the path written.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = halo_bench::bench_json_dir()?.join("FUZZ_REPORT.json");
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_bench::json::{parse, validate};

    fn sample_report() -> FuzzReport {
        FuzzReport {
            seeds: 8,
            start_seed: 0,
            ran: 7,
            skipped: 1,
            pass_verify: true,
            failures: vec![ReportedFailure {
                failure: FuzzFailure {
                    seed: 3,
                    stage: Stage::PassVerify {
                        pass: "peel".into(),
                    },
                    config: Some("halo"),
                    detail: "op #4 (for in block b0): arity".into(),
                },
                shrunk: crate::gen::gen_spec(3),
                shrink_steps: 11,
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_parser_and_validator() {
        let text = sample_report().to_json().pretty();
        let parsed = parse(&text).expect("parses");
        validate("halo-fuzz-report/1", &parsed).expect("validates");
        assert_eq!(parsed.get("ran").and_then(Json::as_num), Some(7.0));
        let failures = parsed.get("failures").and_then(Json::as_arr).unwrap();
        assert_eq!(failures[0].get("pass").and_then(Json::as_str), Some("peel"));
        assert!(failures[0]
            .get("repro")
            .and_then(Json::as_str)
            .unwrap()
            .contains("--seed 3"));
    }

    #[test]
    fn green_report_validates_too() {
        let green = FuzzReport {
            seeds: 32,
            ran: 30,
            skipped: 2,
            pass_verify: true,
            ..FuzzReport::default()
        };
        let parsed = parse(&green.to_json().pretty()).unwrap();
        validate("halo-fuzz-report/1", &parsed).expect("empty failures array is valid");
    }
}
