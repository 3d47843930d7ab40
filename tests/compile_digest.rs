//! Compiled-program digest: pins the exact output of the compiler over a
//! fixed corpus, so a change that claims to leave compiled programs alone
//! (a faster pass, a shared autotuner prefix) is checked byte for byte.
//!
//! The digest is FNV-1a over `halo_ir::print` of every compile below, in
//! order, on fuzz-corpus programs 0–23 at `fuzz_params()`:
//!
//! - every `CompilerConfig::ALL` configuration (DaCapo on the
//!   constant-trip twin, the others on the dynamic-trip program);
//! - every plan of `SearchSpace::for_program(..).capped(4, 1)`, compiled
//!   as `CompilerConfig::Tuned(plan)`.
//!
//! A second digest, [`ML_DIGEST`], pins the paper's seven programs under
//! every `CompilerConfig::ALL` configuration at `Scale::Small`, compiled
//! through `halo_bench::compile_bench` (DaCapo on constant trips,
//! `ASSUMED_TRIPS` for each symbol). It folds each result's counters as
//! well as its printed program, and covers what the fuzz corpus does not:
//! K-means and SVM, where the cost-aware packing choice declines to pack,
//! and PCA's nested loops.
//!
//! A compile that fails folds its error text instead, so the digest is
//! total. A change that alters compiler output on purpose derives both
//! digests again: set one to a wrong value, run
//! `cargo test --test compile_digest`, and pin the digest the failure
//! prints.

use halo_bench::{compile_bench, Scale};
use halo_core::{compile, CompileOptions, CompilerConfig, SearchSpace, ASSUMED_TRIPS};
use halo_fuzz::diff::fuzz_params;
use halo_fuzz::gen::{build, gen_spec};
use halo_ir::Function;
use halo_ml::bench::all_benchmarks;

/// The digest of the corpus below (822 compiles). Derived before the
/// autotuner shared one level assignment per plan prefix and placement,
/// rescale renaming and target tuning became linear in block size, and
/// unchanged by that work.
const PINNED_DIGEST: u64 = 0x8f6f_f824_b56e_1a17;

/// The digest of the seven ML programs × five configurations (35
/// compiles) at small scale, counters included. Derived before every
/// configuration compiled down one plan path, and unchanged by that work.
const ML_DIGEST: u64 = 0xe339_6b66_efc1_e096;

/// Fuzz-corpus programs compiled.
const PROGRAMS: u64 = 24;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds one compile's label and printed program (or error) into `hash`.
fn fold(
    hash: u64,
    label: &str,
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
) -> u64 {
    let text = match compile(src, config, opts) {
        Ok(r) => halo_ir::print::print(&r.function),
        Err(e) => format!("error: {e}"),
    };
    fnv1a(fnv1a(hash, label.as_bytes()), text.as_bytes())
}

#[test]
fn compiled_programs_match_the_pinned_digest() {
    let opts = CompileOptions::new(fuzz_params());
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut compiles = 0;
    for k in 0..PROGRAMS {
        let spec = gen_spec(k);
        let dynamic = build(&spec, true);
        let constant = build(&spec, false);
        for config in CompilerConfig::ALL {
            let src = if config == CompilerConfig::DaCapo {
                &constant
            } else {
                &dynamic
            };
            hash = fold(hash, &format!("{k} {}", config.name()), src, config, &opts);
            compiles += 1;
        }
        for plan in SearchSpace::for_program(&dynamic, &opts)
            .capped(4, 1)
            .plans()
        {
            let label = format!("{k} {}", plan.describe());
            hash = fold(hash, &label, &dynamic, CompilerConfig::Tuned(plan), &opts);
            compiles += 1;
        }
    }
    assert!(compiles > 5 * PROGRAMS as usize, "{compiles} compiles");
    assert_eq!(
        hash, PINNED_DIGEST,
        "digest {hash:#018x} over {compiles} compiles differs from the pinned one"
    );
}

#[test]
fn ml_programs_match_the_pinned_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut compiles = 0;
    for bench in all_benchmarks() {
        let iters = vec![ASSUMED_TRIPS; bench.trip_symbols().len()];
        for config in CompilerConfig::ALL {
            let text = match compile_bench(bench.as_ref(), config, &iters, Scale::Small) {
                Ok(r) => format!(
                    "peeled {} packed {} unrolled {} tuned {} bootstraps {}\n{}",
                    r.peeled,
                    r.packed,
                    r.unrolled,
                    r.tuned,
                    r.static_bootstraps,
                    halo_ir::print::print(&r.function)
                ),
                Err(e) => format!("error: {e}"),
            };
            let label = format!("{} {}", bench.name(), config.name());
            hash = fnv1a(fnv1a(hash, label.as_bytes()), text.as_bytes());
            compiles += 1;
        }
    }
    assert_eq!(compiles, 35);
    assert_eq!(
        hash, ML_DIGEST,
        "digest {hash:#018x} over {compiles} compiles differs from the pinned one"
    );
}
