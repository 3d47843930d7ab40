//! Integration surface of the differential fuzzing subsystem
//! (DESIGN.md §11): a seed batch runs clean end-to-end, injected
//! known-bad pass mutations are caught *and localized* by the per-pass
//! verifier, the shrinker reduces failing cases, and the failure artifact
//! round-trips through the bench JSON schema validator.

use halo_core::{CompileError, CompileOptions, CompilerConfig, Pass, PipelineHooks};
use halo_fuzz::diff::{fuzz_params, run_case, DiffOptions, Stage, Verdict};
use halo_fuzz::{gen_spec, known_bad_mutation, shrink};

/// The CI smoke contract in miniature: a batch of seeds, per-pass
/// verification on, all oracles (reference, exact sim, noisy determinism,
/// toy lattice) agreeing. Zero failures, and not everything skipped.
#[test]
fn seed_batch_runs_clean_with_all_oracles() {
    let opts = DiffOptions::default();
    let mut ran = 0;
    for seed in 0..16u64 {
        match run_case(&gen_spec(seed), &opts) {
            Ok(Verdict::Ok) => ran += 1,
            Ok(Verdict::Skipped(_)) => {}
            Err(f) => panic!(
                "seed {seed}: {} ({}): {}",
                f.stage.name(),
                f.config.unwrap_or("-"),
                f.detail
            ),
        }
    }
    assert!(ran >= 12, "only {ran}/16 cases actually ran");
}

/// An injected structural bug after peeling is localized to "peel" — not
/// reported as a generic verify failure at the end of the pipeline.
#[test]
fn injected_peel_bug_is_localized() {
    let opts = DiffOptions {
        inject: Some(Pass::Peel),
        check_toy: false,
        ..DiffOptions::default()
    };
    for seed in 0..8u64 {
        let failure =
            run_case(&gen_spec(seed), &opts).expect_err("an injected arity bug must be caught");
        assert_eq!(
            failure.stage,
            Stage::PassVerify {
                pass: "peel".into()
            },
            "seed {seed}: {}",
            failure.detail
        );
    }
}

/// An injected typed bug after level assignment is localized to "levels".
#[test]
fn injected_levels_bug_is_localized() {
    let opts = DiffOptions {
        inject: Some(Pass::AssignLevels),
        check_toy: false,
        ..DiffOptions::default()
    };
    for seed in 0..8u64 {
        let failure =
            run_case(&gen_spec(seed), &opts).expect_err("an injected level bug must be caught");
        assert_eq!(
            failure.stage,
            Stage::PassVerify {
                pass: "levels".into()
            },
            "seed {seed}: {}",
            failure.detail
        );
    }
}

/// Without per-pass verification the same injected bug surfaces late (or
/// not as a localized error) — the hooks are what buy the localization.
#[test]
fn localization_requires_the_per_pass_verifier() {
    let spec = gen_spec(0);
    let src = halo_fuzz::build(&spec, true);
    let copts = CompileOptions::new(fuzz_params());
    let mut mutation = known_bad_mutation(Pass::Peel);
    let mut hooks = PipelineHooks {
        verify_each_pass: false,
        mutate_after: Some((Pass::Peel, mutation.as_mut())),
        trace: Vec::new(),
    };
    let err = halo_core::compile_with_hooks(&src, CompilerConfig::Halo, &copts, &mut hooks)
        .expect_err("the broken program cannot compile");
    assert!(
        !matches!(err, CompileError::PassVerify { .. }),
        "without per-pass verification there is nothing to localize: {err}"
    );
}

/// The shrinker produces a strictly smaller spec that still fails at the
/// same stage.
#[test]
fn shrinker_reduces_failing_cases() {
    // Impossible tolerance: every case fails at Mismatch, so shrinking
    // exercises the full candidate enumeration deterministically.
    let opts = DiffOptions {
        exact_rmse: -1.0,
        check_toy: false,
        ..DiffOptions::default()
    };
    let spec = gen_spec(11);
    let failure = run_case(&spec, &opts).expect_err("negative tolerance fails");
    assert_eq!(failure.stage.name(), "mismatch");
    let (small, steps) = shrink(&spec, &failure, &opts, 300);
    assert!(steps > 0, "shrinker accepted no reduction");
    assert!(small.size() < spec.size());
    let again = run_case(&small, &opts).expect_err("shrunk case still fails");
    assert_eq!(again.stage.name(), failure.stage.name());
}

/// The failure artifact validates against the bench JSON schema — the
/// exact check CI's `bench_json_check FUZZ_REPORT.json` performs.
#[test]
fn failure_artifact_round_trips_through_the_schema() {
    use halo_bench::json::{parse, validate, Json};
    use halo_fuzz::report::{FuzzReport, ReportedFailure};
    use halo_fuzz::FuzzFailure;

    let opts = DiffOptions {
        inject: Some(Pass::Peel),
        check_toy: false,
        ..DiffOptions::default()
    };
    let spec = gen_spec(2);
    let failure: FuzzFailure = run_case(&spec, &opts).expect_err("injected bug");
    let report = FuzzReport {
        seeds: 1,
        start_seed: 2,
        ran: 1,
        skipped: 0,
        pass_verify: true,
        failures: vec![ReportedFailure {
            failure,
            shrunk: spec,
            shrink_steps: 0,
        }],
    };
    let text = report.to_json().pretty();
    let doc = parse(&text).expect("parses");
    validate("halo-fuzz-report/1", &doc).expect("validates");
    let failures = doc.get("failures").and_then(Json::as_arr).unwrap();
    assert_eq!(
        failures[0].get("pass").and_then(Json::as_str),
        Some("peel"),
        "the artifact names the localized pass"
    );
    assert_eq!(
        failures[0].get("repro").and_then(Json::as_str),
        Some("cargo run -p halo-fuzz -- --seed 2")
    );
}
