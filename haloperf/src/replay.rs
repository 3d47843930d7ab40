//! Replays `halo_core::compile` through the public pass functions, one
//! timed call per pass, so the traced run can attribute compile time and
//! IR size to each `Pass::name()`. The replay mirrors the pipeline's
//! configuration arms, including the cost-aware choice between packing
//! and not packing; [`check_fidelity`] proves each replay prints the same
//! program as `compile` before any `core.*` number is reported.

use std::time::Instant;

use halo_core::pack::pack_loops;
use halo_core::peel::peel_loops;
use halo_core::scale::assign_levels;
use halo_core::tune::tune_bootstrap_targets;
use halo_core::unroll::unroll_loops;
use halo_core::{
    cost_est, dacapo, dce, CompileError, CompileOptions, CompileResult, CompilerConfig, Pass,
    ASSUMED_TRIPS,
};
use halo_ir::op::Opcode;
use halo_ir::Function;

use crate::trace::{SpanId, Tracer};

/// One pass invocation.
#[derive(Debug, Clone, Copy)]
pub struct PassStat {
    pub pass: Pass,
    pub ns: u64,
    /// IR size (`Function::num_ops`) after the pass.
    pub ops_after: usize,
    /// Whether the pass ran on the variant `compile` returns (the
    /// cost-aware packing choice builds two and keeps one).
    pub chosen: bool,
}

/// A replayed compile: the program plus the `CompileResult` counters and
/// the per-pass record.
#[derive(Debug)]
pub struct Replay {
    pub function: Function,
    pub peeled: usize,
    pub packed: usize,
    pub unrolled: usize,
    pub tuned: usize,
    pub static_bootstraps: usize,
    pub passes: Vec<PassStat>,
    pub verify_ns: u64,
    pub cost_est_ns: u64,
}

struct Ctx<'t> {
    tr: &'t mut Tracer,
    parent: SpanId,
    row: u32,
    passes: Vec<(PassStat, u8)>,
    verify_ns: u64,
    cost_est_ns: u64,
}

impl Ctx<'_> {
    fn timed<T>(&mut self, name: &str, run: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = run();
        let t1 = Instant::now();
        self.tr.record(name, self.parent, self.row, t0, t1);
        (out, (t1 - t0).as_nanos() as u64)
    }

    /// Runs one pass on `f` and records it under `variant` (0 = shared by
    /// every variant).
    fn pass<T>(
        &mut self,
        pass: Pass,
        variant: u8,
        f: &mut Function,
        run: impl FnOnce(&mut Function) -> T,
    ) -> T {
        let (out, ns) = self.timed(&format!("core.pass.{}", pass.name()), || run(f));
        let stat = PassStat {
            pass,
            ns,
            ops_after: f.num_ops(),
            chosen: false,
        };
        self.passes.push((stat, variant));
        out
    }

    fn verify(&mut self, f: &Function, opts: &CompileOptions) -> Result<(), CompileError> {
        let (r, ns) = self.timed("ir.verify", || {
            halo_ir::verify::verify_typed(f, opts.params.max_level)
        });
        self.verify_ns += ns;
        Ok(r?)
    }

    fn cost(&mut self, f: &Function) -> f64 {
        let (c, ns) = self.timed("core.cost_est", || {
            cost_est::estimate_cost_us(f, ASSUMED_TRIPS)
        });
        self.cost_est_ns += ns;
        c
    }
}

type Built = (Function, usize, usize, usize, usize);

/// Replays `compile(src, config, opts)`; pass spans go under `parent`.
///
/// # Panics
///
/// Panics on `CompilerConfig::Tuned`, which no workload replays.
pub fn replay(
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
    tr: &mut Tracer,
    parent: SpanId,
    row: u32,
) -> Result<Replay, CompileError> {
    let mut cx = Ctx {
        tr,
        parent,
        row,
        passes: Vec::new(),
        verify_ns: 0,
        cost_est_ns: 0,
    };
    let ((mut f, peeled, packed, unrolled, tuned), chosen) = match config {
        CompilerConfig::Tuned(_) => panic!("tuned plans are not replayed"),
        CompilerConfig::DaCapo => {
            let mut f = src.clone();
            cx.pass(Pass::FullUnroll, 0, &mut f, dacapo::full_unroll)?;
            cx.pass(Pass::Dce, 0, &mut f, dce::run);
            cx.pass(Pass::AssignLevels, 0, &mut f, |f| assign_levels(f, opts))?;
            ((f, 0, 0, 0, 0), 0)
        }
        _ => {
            let build = |do_pack: bool, v: u8, cx: &mut Ctx<'_>| -> Result<Built, CompileError> {
                let mut f = src.clone();
                let peeled = cx.pass(Pass::Peel, v, &mut f, peel_loops);
                let mut unrolled = 0;
                if config.unrolls() {
                    unrolled = cx.pass(Pass::Unroll, v, &mut f, |f| {
                        unroll_loops(f, opts.params.max_level, do_pack)
                    });
                }
                let mut packed = 0;
                if do_pack {
                    packed = cx.pass(Pass::Pack, v, &mut f, pack_loops);
                }
                cx.pass(Pass::Dce, v, &mut f, dce::run);
                cx.pass(Pass::AssignLevels, v, &mut f, |f| assign_levels(f, opts))?;
                let mut tuned = 0;
                if config.tunes() {
                    tuned = cx.pass(Pass::Tune, v, &mut f, tune_bootstrap_targets);
                    cx.verify(&f, opts)?;
                }
                Ok((f, peeled, packed, unrolled, tuned))
            };
            if config.packs() {
                let with_pack = build(true, 1, &mut cx)?;
                if with_pack.2 == 0 {
                    (with_pack, 1)
                } else {
                    let without = build(false, 2, &mut cx)?;
                    let cp = cx.cost(&with_pack.0);
                    let cu = cx.cost(&without.0);
                    if cp <= cu {
                        (with_pack, 1)
                    } else {
                        (without, 2)
                    }
                }
            } else {
                (build(false, 1, &mut cx)?, 1)
            }
        }
    };
    cx.pass(Pass::FinalDce, 0, &mut f, dce::run);
    cx.verify(&f, opts)?;
    let static_bootstraps = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
    let passes = cx
        .passes
        .iter()
        .map(|&(stat, v)| PassStat {
            chosen: v == 0 || v == chosen,
            ..stat
        })
        .collect();
    Ok(Replay {
        function: f,
        peeled,
        packed,
        unrolled,
        tuned,
        static_bootstraps,
        passes,
        verify_ns: cx.verify_ns,
        cost_est_ns: cx.cost_est_ns,
    })
}

/// Whether `replay` is the program `compile` produced: identical printed
/// IR and identical `CompileResult` counters.
pub fn check_fidelity(replay: &Replay, compiled: &CompileResult) -> Result<(), String> {
    let (a, b) = (
        halo_ir::print::print(&replay.function),
        halo_ir::print::print(&compiled.function),
    );
    if a != b {
        return Err(format!(
            "printed IR differs ({} vs {} bytes)",
            a.len(),
            b.len()
        ));
    }
    let got = [
        replay.peeled,
        replay.packed,
        replay.unrolled,
        replay.tuned,
        replay.static_bootstraps,
    ];
    let want = [
        compiled.peeled,
        compiled.packed,
        compiled.unrolled,
        compiled.tuned,
        compiled.static_bootstraps,
    ];
    if got != want {
        return Err(format!(
            "counters (peeled, packed, unrolled, tuned, static_bootstraps) {got:?} vs {want:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NONE;
    use halo_ckks::CkksParams;
    use halo_core::compile;
    use halo_ml::bench::{all_benchmarks, BenchSpec};

    #[test]
    fn replay_matches_compile_on_every_ml_program() {
        let spec = BenchSpec::test_small();
        let opts = CompileOptions::new(CkksParams {
            poly_degree: spec.slots * 2,
            ..CkksParams::paper()
        });
        let mut tr = Tracer::new(true);
        for b in all_benchmarks() {
            let iters = vec![3; b.loop_depth()];
            for (config, src) in [
                (CompilerConfig::Halo, b.trace_dynamic(&spec)),
                (CompilerConfig::DaCapo, b.trace_constant(&spec, &iters)),
            ] {
                let r = replay(&src, config, &opts, &mut tr, NONE, 0).expect("replays");
                let c = compile(&src, config, &opts).expect("compiles");
                check_fidelity(&r, &c).unwrap_or_else(|e| panic!("{} {config:?}: {e}", b.name()));
                assert!(r.passes.iter().any(|p| p.chosen));
            }
        }
    }

    #[test]
    fn a_changed_program_fails_the_fidelity_check() {
        let spec = BenchSpec::test_small();
        let opts = CompileOptions::new(CkksParams {
            poly_degree: spec.slots * 2,
            ..CkksParams::paper()
        });
        let b = &all_benchmarks()[0];
        let src = b.trace_dynamic(&spec);
        let mut tr = Tracer::new(false);
        let r = replay(&src, CompilerConfig::Halo, &opts, &mut tr, NONE, 0).expect("replays");
        let other = compile(&src, CompilerConfig::TypeMatched, &opts).expect("compiles");
        assert!(check_fidelity(&r, &other).is_err());
    }
}
