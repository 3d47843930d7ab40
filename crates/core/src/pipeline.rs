//! Compilation: one path that every configuration's plan
//! ([`CompilerConfig::plan`]) takes.

use std::time::Instant;

use halo_ir::op::Opcode;
use halo_ir::Function;

use crate::autotune::{TunePlan, UnrollChoice};
use crate::config::{CompileOptions, CompilerConfig};
use crate::cost_est::estimate_cost_us;
use crate::dacapo::full_unroll;
use crate::dce;
use crate::error::CompileError;
use crate::pack::pack_loops;
use crate::peel::{peel_constant_iterations, peel_loops};
use crate::scale::assign_levels;
use crate::tune::tune_bootstrap_targets;
use crate::unroll::{unroll_loops, unroll_loops_with_factor};

/// Dynamic trip counts are assumed to run this many iterations when the
/// pipeline (and the autotuner) estimates costs — the paper's evaluation
/// iteration count.
pub const ASSUMED_TRIPS: u64 = 40;

/// A named compiler pass, as observed by per-pass pipeline hooks.
///
/// `Dce` is the clean-up run before scale management (the program is still
/// *traced* — no levels); `FinalDce` is the post-everything clean-up on the
/// fully *typed* program. [`Pass::is_typed`] picks the verifier that
/// applies at each boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// First-iteration loop peeling (§5.1).
    Peel,
    /// Level-aware loop unrolling (§6.2).
    Unroll,
    /// Loop-carried ciphertext packing (§6.1).
    Pack,
    /// DaCapo's full loop unrolling (§2.4).
    FullUnroll,
    /// Dead-code elimination on the traced program.
    Dce,
    /// Scale management: level assignment, modswitch floors, bootstrap
    /// placement (§5.2–5.3).
    AssignLevels,
    /// Bootstrap target-level tuning (§6.3).
    Tune,
    /// Final dead-code elimination on the typed program.
    FinalDce,
}

impl Pass {
    /// Every pass, in pipeline order.
    pub const ALL: [Pass; 8] = [
        Pass::Peel,
        Pass::Unroll,
        Pass::Pack,
        Pass::FullUnroll,
        Pass::Dce,
        Pass::AssignLevels,
        Pass::Tune,
        Pass::FinalDce,
    ];

    /// Stable name used in errors and failure artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Peel => "peel",
            Pass::Unroll => "unroll",
            Pass::Pack => "pack",
            Pass::FullUnroll => "full-unroll",
            Pass::Dce => "dce",
            Pass::AssignLevels => "levels",
            Pass::Tune => "tune",
            Pass::FinalDce => "final-dce",
        }
    }

    /// Looks a pass up by its [`Pass::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether the program carries concrete levels after this pass (so
    /// the typed verifier applies instead of the traced one).
    #[must_use]
    pub fn is_typed(self) -> bool {
        matches!(self, Pass::AssignLevels | Pass::Tune | Pass::FinalDce)
    }
}

/// One entry of the per-pass execution trace.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Which pass ran.
    pub pass: Pass,
    /// Static op count after the pass.
    pub ops_after: usize,
    /// Whether the inter-pass verifier ran (and passed) at this boundary.
    pub verified: bool,
}

/// A test-only program mutation fired right after a named pass runs.
pub type PassMutation<'a> = &'a mut dyn FnMut(&mut Function);

/// Debug-mode instrumentation threaded through [`compile_with_hooks`].
///
/// With `verify_each_pass` the structural verifier (and, once levels are
/// assigned, the typed verifier) runs after every pass, so an invariant
/// violation is attributed to the *first* pass that introduced it
/// ([`CompileError::PassVerify`]) instead of surfacing at the end of the
/// pipeline — or worse, as a silent miscompile. `mutate_after` is a
/// test-only fault-injection point: the differential fuzzer uses it to
/// prove a known-bad pass mutation is caught and localized correctly.
///
/// The default hooks are inert; [`compile`] uses them, so the plain entry
/// point stays overhead-free apart from trace bookkeeping.
#[derive(Default)]
pub struct PipelineHooks<'a> {
    /// Verify the program at every pass boundary.
    pub verify_each_pass: bool,
    /// Mutate the program right after the named pass runs (before that
    /// boundary's verification). Fires in every pipeline variant that
    /// executes the pass (the cost-aware packing driver builds two).
    pub mutate_after: Option<(Pass, PassMutation<'a>)>,
    /// Record of the passes that ran, in execution order.
    pub trace: Vec<PassRecord>,
}

impl PipelineHooks<'_> {
    /// Hooks with per-pass verification enabled and no injection.
    #[must_use]
    pub fn verifying() -> Self {
        PipelineHooks {
            verify_each_pass: true,
            ..PipelineHooks::default()
        }
    }
}

/// The outcome of compiling a traced program under one configuration.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The fully typed, executable program.
    pub function: Function,
    /// Which configuration produced it.
    pub config: CompilerConfig,
    /// Loops peeled for status matching.
    pub peeled: usize,
    /// Loops whose carried ciphertexts were packed.
    pub packed: usize,
    /// Loops unrolled by the level-aware factor.
    pub unrolled: usize,
    /// Bootstraps whose target level was tuned down.
    pub tuned: usize,
    /// Static count of `bootstrap` ops in the emitted code (the *dynamic*
    /// count of Table 5 comes from executing the program).
    pub static_bootstraps: usize,
    /// Wall-clock compilation time (Table 6's metric).
    pub compile_time: std::time::Duration,
}

/// Compiles `src` under `config`.
///
/// Every configuration takes one path, that of its plan
/// ([`CompilerConfig::plan`]): the traced prefix, level assignment,
/// optional target tuning, then the final clean-up and verifier. The
/// paper's packing configurations also build their plan with packing off
/// and keep the statically cheaper program.
///
/// # Errors
///
/// [`CompileError::DynamicTripNotSupported`] when a full-unrolling plan
/// (DaCapo's) meets a dynamic trip count;
/// [`CompileError::DepthInfeasible`] when no bootstrap plan can level the
/// program; verification errors on internal invariant violations. A panic
/// inside a pass (an internal-invariant `expect` tripped by a malformed
/// source program) is caught at this boundary and surfaced as
/// [`CompileError::Internal`] so callers never unwind through the
/// compiler.
pub fn compile(
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
) -> Result<CompileResult, CompileError> {
    compile_with_hooks(src, config, opts, &mut PipelineHooks::default())
}

/// Compiles `src` under `config` with debug-mode instrumentation.
///
/// Identical to [`compile`] except that `hooks` observe (and can verify or
/// perturb) the program at every pass boundary; `hooks.trace` records the
/// passes that ran.
///
/// # Errors
///
/// Everything [`compile`] raises, plus [`CompileError::PassVerify`] when
/// `hooks.verify_each_pass` is set and a pass boundary fails verification.
pub fn compile_with_hooks(
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
    hooks: &mut PipelineHooks<'_>,
) -> Result<CompileResult, CompileError> {
    catch_pass_panics(|| compile_inner(src, config, opts, hooks))
}

/// Runs compiler passes, converting a panic into
/// [`CompileError::Internal`] — the boundary of [`compile`], which the
/// autotuner keeps when it completes a leaf itself.
pub(crate) fn catch_pass_panics<T>(
    run: impl FnOnce() -> Result<T, CompileError>,
) -> Result<T, CompileError> {
    // The passes are pure over (&Function, &CompileOptions), so resuming
    // after a caught unwind cannot observe broken state in the caller's
    // data; the hooks' trace may miss the panicking pass's record, which
    // is fine for a diagnostic artifact: AssertUnwindSafe is sound here.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(CompileError::Internal(format!(
            "compiler pass panicked: {msg}"
        )))
    })
}

/// Runs the hook protocol at one pass boundary: apply any injected
/// mutation, verify (traced or typed per [`Pass::is_typed`]), and record
/// the trace entry. Verification failures are attributed to `pass`.
fn pass_boundary(
    f: &mut Function,
    pass: Pass,
    opts: &CompileOptions,
    hooks: &mut PipelineHooks<'_>,
) -> Result<(), CompileError> {
    if let Some((target, mutate)) = hooks.mutate_after.as_mut() {
        if *target == pass {
            mutate(f);
        }
    }
    if hooks.verify_each_pass {
        let check = if pass.is_typed() {
            halo_ir::verify::verify_typed(f, opts.params.max_level)
        } else {
            halo_ir::verify::verify_traced(f)
        };
        check.map_err(|err| CompileError::PassVerify {
            pass: pass.name(),
            err,
        })?;
    }
    hooks.trace.push(PassRecord {
        pass,
        ops_after: f.num_ops(),
        verified: hooks.verify_each_pass,
    });
    Ok(())
}

/// Runs the *traced* prefix of a [`TunePlan`]'s pipeline — everything
/// before level assignment — and returns the traced program plus the
/// (peeled, packed, unrolled) counters.
///
/// Every compile starts here: [`compile`] runs [`CompilerConfig::plan`]'s
/// prefix for each configuration, the paper's five included. The
/// autotuner's branch-and-bound strategy calls it directly: plans that
/// agree on (unroll, pack, peel) share this prefix, and its
/// `traced_floor_us` is an admissible bound on every typed completion.
///
/// `UnrollChoice::Full` is DaCapo's plan: full unrolling with *no* peel
/// (peeling first would change the unrolled shape).
///
/// # Errors
///
/// Same pass errors as [`compile`]'s corresponding prefix (e.g.
/// [`CompileError::DynamicTripNotSupported`] for `Full` on dynamic
/// trips), plus hook verification failures.
pub(crate) fn plan_traced(
    src: &Function,
    plan: TunePlan,
    opts: &CompileOptions,
    hooks: &mut PipelineHooks<'_>,
) -> Result<(Function, usize, usize, usize), CompileError> {
    let mut f = src.clone();
    if plan.unroll == UnrollChoice::Full {
        full_unroll(&mut f)?;
        pass_boundary(&mut f, Pass::FullUnroll, opts, hooks)?;
        dce::run(&mut f);
        pass_boundary(&mut f, Pass::Dce, opts, hooks)?;
        return Ok((f, 0, 0, 0));
    }
    let mut peeled = peel_loops(&mut f);
    peeled += peel_constant_iterations(&mut f, u32::from(plan.peel_extra));
    pass_boundary(&mut f, Pass::Peel, opts, hooks)?;
    let mut unrolled = 0;
    match plan.unroll {
        UnrollChoice::None | UnrollChoice::Full => {}
        UnrollChoice::Heuristic => {
            unrolled = unroll_loops(&mut f, opts.params.max_level, plan.pack);
            pass_boundary(&mut f, Pass::Unroll, opts, hooks)?;
        }
        UnrollChoice::Factor(k) => {
            unrolled = unroll_loops_with_factor(&mut f, u64::from(k));
            pass_boundary(&mut f, Pass::Unroll, opts, hooks)?;
        }
    }
    let mut packed = 0;
    if plan.pack {
        packed = pack_loops(&mut f);
        pass_boundary(&mut f, Pass::Pack, opts, hooks)?;
    }
    dce::run(&mut f);
    pass_boundary(&mut f, Pass::Dce, opts, hooks)?;
    Ok((f, peeled, packed, unrolled))
}

/// Bootstrap target tuning (§6.3) on a typed program, checked by the
/// typed verifier. Returns the number of bootstraps tuned.
pub(crate) fn tune_targets(
    f: &mut Function,
    opts: &CompileOptions,
    hooks: &mut PipelineHooks<'_>,
) -> Result<usize, CompileError> {
    let tuned = tune_bootstrap_targets(f);
    halo_ir::verify::verify_typed(f, opts.params.max_level)?;
    pass_boundary(f, Pass::Tune, opts, hooks)?;
    Ok(tuned)
}

/// The end of every compile: the final clean-up and the typed verifier.
pub(crate) fn final_dce(
    f: &mut Function,
    opts: &CompileOptions,
    hooks: &mut PipelineHooks<'_>,
) -> Result<(), CompileError> {
    dce::run(f);
    halo_ir::verify::verify_typed(f, opts.params.max_level)?;
    pass_boundary(f, Pass::FinalDce, opts, hooks)
}

fn compile_inner(
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
    hooks: &mut PipelineHooks<'_>,
) -> Result<CompileResult, CompileError> {
    let start = Instant::now();
    let plan = config.plan();
    let typed = |pack: bool, hooks: &mut PipelineHooks<'_>| {
        let plan = TunePlan { pack, ..plan };
        let (mut f, peeled, packed, unrolled) = plan_traced(src, plan, opts, hooks)?;
        assign_levels(&mut f, opts)?;
        pass_boundary(&mut f, Pass::AssignLevels, opts, hooks)?;
        let tuned = if plan.tune_targets {
            tune_targets(&mut f, opts, hooks)?
        } else {
            0
        };
        Ok::<_, CompileError>((f, peeled, packed, unrolled, tuned))
    };
    let mut built = typed(plan.pack, hooks)?;
    // The paper's packing configurations are cost-aware: packing trades m
    // head bootstraps for one, but its two extra multiplicative levels can
    // force extra in-body resets on deep bodies (the paper's K-means
    // observation, §7.1). So when one of them packed a loop, the unpacked
    // build is made too and the statically cheaper one wins (ties favor
    // packing). A `Tuned` plan's search already chose.
    if built.2 > 0 && !matches!(config, CompilerConfig::Tuned(_)) {
        let unpacked = typed(false, hooks)?;
        let cost = |f: &Function| estimate_cost_us(f, ASSUMED_TRIPS);
        if cost(&unpacked.0) < cost(&built.0) {
            built = unpacked;
        }
    }
    let (mut f, peeled, packed, unrolled, tuned) = built;
    final_dce(&mut f, opts, hooks)?;

    let static_bootstraps = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
    Ok(CompileResult {
        function: f,
        config,
        peeled,
        packed,
        unrolled,
        tuned,
        static_bootstraps,
        compile_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::CkksParams;
    use halo_ir::op::TripCount;
    use halo_ir::FunctionBuilder;

    fn opts() -> CompileOptions {
        let mut o = CompileOptions::new(CkksParams::test_small());
        o.params.poly_degree = 64; // 32 slots
        o
    }

    /// Figure-2-style program: 2 carried vars, one plain init, depth 2.
    fn sample(trip: TripCount) -> Function {
        let mut b = FunctionBuilder::new("fig2", 32);
        let x = b.input_cipher("x");
        let y0 = b.input_cipher("y");
        let a0 = b.const_splat(1.0);
        let r = b.for_loop(trip, &[y0, a0], 4, |b, args| {
            let x2 = b.mul(x, args[0]);
            let y2 = b.mul(x2, x2);
            let a2 = b.add(args[1], y2);
            vec![y2, a2]
        });
        b.ret(&r);
        b.finish()
    }

    #[test]
    fn all_configs_compile_constant_trip() {
        // 12 iterations × depth 2 = 24 > L: even DaCapo needs bootstraps.
        for config in CompilerConfig::ALL {
            let r = compile(&sample(TripCount::Constant(12)), config, &opts())
                .unwrap_or_else(|e| panic!("{}: {e}", config.name()));
            assert!(r.static_bootstraps > 0, "{}", config.name());
        }
    }

    #[test]
    fn dacapo_rejects_dynamic_trip_halo_accepts() {
        let src = sample(TripCount::dynamic("n"));
        let err = compile(&src, CompilerConfig::DaCapo, &opts()).unwrap_err();
        assert!(matches!(err, CompileError::DynamicTripNotSupported { .. }));
        for config in [
            CompilerConfig::TypeMatched,
            CompilerConfig::Packing,
            CompilerConfig::PackingUnrolling,
            CompilerConfig::Halo,
        ] {
            compile(&src, config, &opts()).unwrap_or_else(|e| panic!("{}: {e}", config.name()));
        }
    }

    #[test]
    fn pass_counters_reflect_configuration() {
        let src = sample(TripCount::dynamic("n"));
        let tm = compile(&src, CompilerConfig::TypeMatched, &opts()).unwrap();
        assert_eq!(tm.peeled, 1);
        assert_eq!(tm.packed, 0);
        assert_eq!(tm.unrolled, 0);
        assert_eq!(tm.tuned, 0);
        // Two carried cipher vars → 2 head bootstraps.
        assert_eq!(tm.static_bootstraps, 2);

        let pk = compile(&src, CompilerConfig::Packing, &opts()).unwrap();
        assert_eq!(pk.packed, 1);
        // One head bootstrap in the loop + one entry reset for the
        // post-loop unpack.
        assert_eq!(pk.static_bootstraps, 2);

        let pu = compile(&src, CompilerConfig::PackingUnrolling, &opts()).unwrap();
        assert_eq!(pu.packed, 2, "main and epilogue loops both packed");
        assert_eq!(pu.unrolled, 1);
        // A head bootstrap per loop plus entry resets for the inter-loop
        // and post-loop unpacks.
        assert!(
            pu.static_bootstraps >= 3 && pu.static_bootstraps <= 4,
            "got {}",
            pu.static_bootstraps
        );

        let halo = compile(&src, CompilerConfig::Halo, &opts()).unwrap();
        assert!(halo.tuned >= 1, "shallow body leaves slack to tune");
    }

    #[test]
    fn every_configuration_compiles_as_its_plan() {
        // On the fuzz corpus, each configuration prints what its plan
        // does, or, for a packing configuration that declined to pack,
        // what its plan with packing off does.
        let opts = CompileOptions::new(halo_fuzz::diff::fuzz_params());
        let text = |src: &Function, config| match compile(src, config, &opts) {
            Ok(r) => halo_ir::print::print(&r.function),
            Err(e) => format!("error: {e}"),
        };
        let mut declined = 0;
        for seed in 0..24 {
            let spec = halo_fuzz::gen::gen_spec(seed);
            for config in CompilerConfig::ALL {
                let src = halo_fuzz::gen::build(&spec, config != CompilerConfig::DaCapo);
                let plan = config.plan();
                let got = text(&src, config);
                if got != text(&src, CompilerConfig::Tuned(plan)) {
                    let unpacked = TunePlan {
                        pack: false,
                        ..plan
                    };
                    assert!(plan.pack, "{seed} {}", config.name());
                    assert_eq!(got, text(&src, CompilerConfig::Tuned(unpacked)));
                    declined += 1;
                }
            }
        }
        assert!(declined > 0, "the corpus meets both sides of the choice");
    }

    #[test]
    fn pass_panics_surface_as_internal_errors() {
        use halo_ir::func::BlockId;
        use halo_ir::types::{CtType, LEVEL_UNSET};
        // A malformed source program the verifier never saw: a loop whose
        // body block id dangles. Passes indexing that block panic; the
        // `compile` boundary must convert the unwind into an error.
        let mut f = Function::new("bad", 32);
        let entry = f.entry;
        let cipher = CtType::cipher(LEVEL_UNSET);
        let x = f.push_op1(entry, Opcode::Input { name: "x".into() }, vec![], cipher);
        f.push_op(
            entry,
            Opcode::For {
                trip: TripCount::Constant(3),
                body: BlockId(99),
                num_elems: 1,
            },
            vec![x],
            &[cipher],
        );
        f.push_op(entry, Opcode::Return, vec![], &[]);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let results: Vec<_> = CompilerConfig::ALL
            .into_iter()
            .map(|config| compile(&f, config, &opts()))
            .collect();
        std::panic::set_hook(prev);
        for (config, r) in CompilerConfig::ALL.into_iter().zip(results) {
            let err = r.expect_err(config.name());
            assert!(
                matches!(err, CompileError::Internal(_) | CompileError::Verify(_)),
                "{}: {err}",
                config.name()
            );
        }
    }

    #[test]
    fn hooks_trace_records_passes_in_order() {
        let src = sample(TripCount::dynamic("n"));
        let mut hooks = PipelineHooks::verifying();
        compile_with_hooks(&src, CompilerConfig::Halo, &opts(), &mut hooks).unwrap();
        let passes: Vec<Pass> = hooks.trace.iter().map(|r| r.pass).collect();
        // The cost-aware packing driver builds the packed variant first;
        // the prefix must be the loop-aware pipeline in order, ending with
        // the final clean-up.
        assert_eq!(
            &passes[..6],
            &[
                Pass::Peel,
                Pass::Unroll,
                Pass::Pack,
                Pass::Dce,
                Pass::AssignLevels,
                Pass::Tune
            ]
        );
        assert_eq!(*passes.last().unwrap(), Pass::FinalDce);
        assert!(hooks.trace.iter().all(|r| r.verified && r.ops_after > 0));

        // DaCapo's plan unrolls fully instead of peeling.
        let mut hooks = PipelineHooks::verifying();
        compile_with_hooks(
            &sample(TripCount::Constant(4)),
            CompilerConfig::DaCapo,
            &opts(),
            &mut hooks,
        )
        .unwrap();
        let passes: Vec<Pass> = hooks.trace.iter().map(|r| r.pass).collect();
        assert_eq!(
            passes,
            vec![
                Pass::FullUnroll,
                Pass::Dce,
                Pass::AssignLevels,
                Pass::FinalDce
            ]
        );
    }

    #[test]
    fn injected_bad_mutation_is_localized_to_the_offending_pass() {
        use halo_ir::func::OpId;
        let src = sample(TripCount::dynamic("n"));

        // Break the traced program right after peeling: drop an operand
        // from the first `For` op, an arity mismatch the structural
        // verifier must attribute to "peel".
        let mut drop_for_operand = |f: &mut Function| {
            let mut target: Option<OpId> = None;
            f.walk_ops(|_, id| {
                if target.is_none() && matches!(f.op(id).opcode, Opcode::For { .. }) {
                    target = Some(id);
                }
            });
            let id = target.expect("generated program has a loop");
            f.op_mut(id).operands.pop();
        };
        let mut hooks = PipelineHooks {
            verify_each_pass: true,
            mutate_after: Some((Pass::Peel, &mut drop_for_operand)),
            trace: Vec::new(),
        };
        let err = compile_with_hooks(&src, CompilerConfig::Halo, &opts(), &mut hooks).unwrap_err();
        match err {
            CompileError::PassVerify { pass, .. } => assert_eq!(pass, "peel"),
            other => panic!("expected PassVerify, got {other}"),
        }

        // Break the typed program after level assignment: corrupt the
        // first op result's level. The typed verifier must attribute the
        // failure to "levels".
        let mut corrupt_level = |f: &mut Function| {
            let mut target: Option<OpId> = None;
            f.walk_ops(|_, id| {
                if target.is_none() && !f.op(id).results.is_empty() {
                    target = Some(id);
                }
            });
            let id = target.expect("program has a result-producing op");
            let v = f.op(id).results[0];
            f.value_mut(v).ty.level = 999;
        };
        let mut hooks = PipelineHooks {
            verify_each_pass: true,
            mutate_after: Some((Pass::AssignLevels, &mut corrupt_level)),
            trace: Vec::new(),
        };
        let err = compile_with_hooks(&src, CompilerConfig::Halo, &opts(), &mut hooks).unwrap_err();
        match err {
            CompileError::PassVerify { pass, .. } => assert_eq!(pass, "levels"),
            other => panic!("expected PassVerify, got {other}"),
        }
    }

    #[test]
    fn pass_names_round_trip() {
        for p in Pass::ALL {
            assert_eq!(Pass::from_name(p.name()), Some(p));
        }
        assert_eq!(Pass::from_name("nonsense"), None);
    }

    #[test]
    fn dacapo_code_grows_with_iterations_halo_stays_constant() {
        // Table 7's structure: DaCapo recompiles (and grows) per iteration
        // count; HALO compiles the dynamic-trip program once, so its code
        // size is independent of the iteration count by construction.
        use halo_ir::print::code_size_bytes;
        let mut dacapo_sizes = Vec::new();
        for n in [4u64, 8, 12] {
            let src = sample(TripCount::Constant(n));
            dacapo_sizes.push(code_size_bytes(
                &compile(&src, CompilerConfig::DaCapo, &opts())
                    .unwrap()
                    .function,
            ));
        }
        assert!(
            dacapo_sizes[2] > dacapo_sizes[1] && dacapo_sizes[1] > dacapo_sizes[0],
            "{dacapo_sizes:?}"
        );
        // DaCapo grows roughly linearly in the iteration count.
        assert!(
            dacapo_sizes[2] * 10 > dacapo_sizes[0] * 25,
            "expected ~linear growth: {dacapo_sizes:?}"
        );
        // HALO's size is a single constant for the dynamic-trip program —
        // the crossover vs DaCapo comes at larger iteration counts (the
        // paper uses 40; Table 7 is regenerated by the bench harness).
        let halo = compile(
            &sample(TripCount::dynamic("n")),
            CompilerConfig::Halo,
            &opts(),
        )
        .unwrap();
        assert!(code_size_bytes(&halo.function) > 0);
    }
}
