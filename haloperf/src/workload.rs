//! The three workloads and the closed-loop pass that measures them.
//!
//! Every workload is one client running the same cycle over its program
//! set, one step after another: compile each program under HALO (dynamic
//! trips) and DaCapo (its constant-trip twin), autotune it, then run both
//! outputs and check them against `reference_run`. The workloads differ
//! in the programs, their scale, the backend and the tuning space, which
//! is what makes each one stress a different layer (see README.md).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use halo_ckks::{Backend, CkksParams, MetricsSnapshot, ScopedCounters};
use halo_core::autotune::{
    heuristic_cost_us, BranchBoundTuner, DefaultPolicy, SearchSpace, TuneOutcome, Tuner,
};
use halo_core::{autotune, compile, CompileOptions, CompileResult, CompilerConfig, ASSUMED_TRIPS};
use halo_ir::Function;
use halo_ml::bench::{all_benchmarks, BenchSpec, Logistic, MlBenchmark, Multivariate, Pca};
use halo_runtime::{reference_run, Executor, Inputs, RunOutput};

use crate::metrics::median;
use crate::replay::{check_fidelity, replay};
use crate::timed::{Timed, MNEMONICS};
use crate::trace::{Tracer, NONE};

/// Toy ring degree of `toy-exact` (256 slots).
pub const TOY_N: usize = 1 << 9;
/// Level budget of every workload (the paper's L).
pub const LEVELS: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ToyExact,
    SimPaper,
    CompileTune,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "toy-exact" => Some(Kind::ToyExact),
            "sim-paper" => Some(Kind::SimPaper),
            "compile-tune" => Some(Kind::CompileTune),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ToyExact => "toy-exact",
            Kind::SimPaper => "sim-paper",
            Kind::CompileTune => "compile-tune",
        }
    }
}

/// A deliberate fault for the correctness-gate self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    None,
    /// Shift one decrypted output value.
    Output,
    /// Report one tuned plan as costlier than the HALO heuristic.
    Cost,
}

/// How the tune step searches: the full derived space (`autotune`), or
/// the same branch-and-bound search over a space capped at unroll factor
/// `.0` and `.1` extra peels.
#[derive(Debug, Clone, Copy)]
pub enum Space {
    Full,
    Capped(u8, u8),
}

/// One program: both traced forms, its bound inputs and the plaintext
/// reference of the uncompiled program.
pub struct Program {
    pub name: String,
    pub dynamic: Function,
    pub constant: Function,
    pub inputs: Inputs,
    pub reference: Vec<Vec<f64>>,
    /// Valid samples per output (the rest of the slots are padding).
    pub valid: usize,
    pub opts: CompileOptions,
    /// Index of the backend that runs it.
    pub backend: usize,
}

pub struct Workload {
    pub kind: Kind,
    pub programs: Vec<Program>,
    pub space: Space,
    /// Run one untimed pass before timing (lazy keys, NTT tables, pool).
    pub warmup: bool,
    /// Absolute tolerance (toy) or tolerance relative to max(1, |ref|).
    pub tolerance: f64,
    pub relative: bool,
    /// Ring degree recorded in the provenance line.
    pub ring_degree: usize,
    /// Set-up spent tracing and in `reference_run` (seconds).
    pub trace_s: f64,
    pub reference_s: f64,
}

impl Program {
    /// The HALO source (`cfg` 0) or the DaCapo twin (`cfg` 1).
    fn source(&self, cfg: usize) -> &Function {
        if cfg == 0 {
            &self.dynamic
        } else {
            &self.constant
        }
    }
}

/// SplitMix64: derives the independent seeds of one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the dataset, of the toy keys and of the fuzz input data.
pub fn data_seed(seed: u64) -> u64 {
    mix(seed, 1)
}
pub fn key_seed(seed: u64) -> u64 {
    mix(seed, 2)
}

/// Medium scale (EXPERIMENTS.md): 8192 slots, 512 samples.
pub fn medium(seed: u64) -> (BenchSpec, CompileOptions) {
    let spec = BenchSpec {
        slots: 1 << 13,
        num_elems: 1 << 9,
        seed: data_seed(seed),
    };
    let opts = CompileOptions::new(CkksParams {
        poly_degree: spec.slots * 2,
        ..CkksParams::paper()
    });
    (spec, opts)
}

pub fn toy_params() -> CkksParams {
    CkksParams {
        poly_degree: TOY_N,
        max_level: LEVELS,
        rf_bits: 40,
    }
}

struct Timer {
    trace_s: f64,
    reference_s: f64,
}

fn ml_program(
    b: &dyn MlBenchmark,
    spec: &BenchSpec,
    opts: &CompileOptions,
    iters: u64,
    inner: u64,
    timer: &mut Timer,
    tr: &mut Tracer,
) -> Program {
    let trips: Vec<u64> = if b.loop_depth() == 2 {
        vec![inner, inner]
    } else {
        vec![iters]
    };
    let span = tr.open("ml.trace", NONE);
    let t = Instant::now();
    let dynamic = b.trace_dynamic(spec);
    let constant = b.trace_constant(spec, &trips);
    timer.trace_s += t.elapsed().as_secs_f64();
    tr.close(span);
    let mut inputs = b.inputs(spec);
    for (sym, &n) in b.trip_symbols().iter().zip(&trips) {
        inputs = inputs.env(*sym, n);
    }
    let span = tr.open("runtime.reference", NONE);
    let t = Instant::now();
    let reference = reference_run(&dynamic, &inputs, spec.slots).expect("reference run");
    timer.reference_s += t.elapsed().as_secs_f64();
    tr.close(span);
    Program {
        name: b.name().to_string(),
        dynamic,
        constant,
        inputs,
        reference,
        valid: spec.num_elems,
        opts: opts.clone(),
        backend: 0,
    }
}

/// Builds a workload's programs and references (the tracing and
/// reference part of set-up).
pub fn build(kind: Kind, seed: u64, tr: &mut Tracer) -> Workload {
    let mut timer = Timer {
        trace_s: 0.0,
        reference_s: 0.0,
    };
    let (programs, space, warmup, tolerance, relative, ring_degree) = match kind {
        Kind::ToyExact => {
            let spec = BenchSpec {
                slots: TOY_N / 2,
                num_elems: 16,
                seed: data_seed(seed),
            };
            let opts = CompileOptions::new(toy_params());
            let set: [&dyn MlBenchmark; 3] = [&Logistic, &Multivariate, &Pca];
            let programs = set
                .iter()
                .map(|b| ml_program(*b, &spec, &opts, 4, 4, &mut timer, tr))
                .collect();
            // Absolute, as tests/toy_backend_e2e.rs.
            (programs, Space::Capped(4, 1), true, 1e-3, false, TOY_N)
        }
        Kind::SimPaper | Kind::CompileTune => {
            let (spec, opts) = medium(seed);
            let mut programs: Vec<Program> = all_benchmarks()
                .iter()
                .map(|b| ml_program(b.as_ref(), &spec, &opts, 40, 8, &mut timer, tr))
                .collect();
            if kind == Kind::SimPaper {
                (
                    programs,
                    Space::Capped(4, 1),
                    true,
                    1e-6,
                    true,
                    opts.params.poly_degree,
                )
            } else {
                programs.extend(fuzz_programs(seed, &mut timer, tr));
                (
                    programs,
                    Space::Full,
                    false,
                    1e-6,
                    true,
                    opts.params.poly_degree,
                )
            }
        }
    };
    Workload {
        kind,
        programs,
        space,
        warmup,
        tolerance,
        relative,
        ring_degree,
        trace_s: timer.trace_s,
        reference_s: timer.reference_s,
    }
}

/// Compile sweeps repeat until they have taken this long and at least
/// this many have run: one HALO sweep of the toy set takes about 40 ms,
/// too short to time once, and the run reports an upper decile over its
/// sweeps (`metrics::upper`).
const COMPILE_SWEEP_S: f64 = 1.0;
const MIN_COMPILE_SWEEPS: usize = 3;

/// Corpus size of `compile-tune`'s fuzz share.
pub const FUZZ_PROGRAMS: u64 = 24;

/// The first 24 programs of the seeded fuzz corpus (the set
/// `results/BENCH_TUNE.json` sweeps), with their input data redrawn from
/// the seed. The program shapes stay fixed: a fresh draw of shapes per
/// seed moves `code_kb` by about ±25% and `compile_s` by about ±10%,
/// which would drown the changes the benchmark exists to see.
fn fuzz_programs(seed: u64, timer: &mut Timer, tr: &mut Tracer) -> Vec<Program> {
    use halo_fuzz::gen::{bind_inputs, build, gen_spec, NUM_ELEMS, SLOTS};
    let opts = CompileOptions::new(halo_fuzz::diff::fuzz_params());
    (0..FUZZ_PROGRAMS)
        .map(|k| {
            let span = tr.open("ml.trace", NONE);
            let t = Instant::now();
            let mut spec = gen_spec(k);
            let mut state = mix(data_seed(seed), k);
            let mut draw = || {
                state = mix(state, 3);
                // The generator's own data range: bounded away from 0 and 1.
                0.3 + 0.6 * (state >> 11) as f64 / (1u64 << 53) as f64
            };
            spec.input_x = (0..NUM_ELEMS).map(|_| draw()).collect();
            spec.input_y = (0..NUM_ELEMS).map(|_| draw()).collect();
            let dynamic = build(&spec, true);
            let constant = build(&spec, false);
            timer.trace_s += t.elapsed().as_secs_f64();
            tr.close(span);
            let inputs = bind_inputs(&spec);
            let span = tr.open("runtime.reference", NONE);
            let t = Instant::now();
            let reference = reference_run(&dynamic, &inputs, SLOTS).expect("reference run");
            timer.reference_s += t.elapsed().as_secs_f64();
            tr.close(span);
            Program {
                name: format!("fuzz-{k}"),
                dynamic,
                constant,
                inputs,
                reference,
                valid: NUM_ELEMS,
                opts: opts.clone(),
                backend: 1,
            }
        })
        .collect()
}

/// Outcome of checking one run against its reference.
pub struct Check {
    pub ok: bool,
    /// −log2 of the worst error relative to max(1, |reference|), capped
    /// at 64 bits.
    pub bits: f64,
}

/// Compares every output with the reference over the valid samples.
pub fn check_outputs(
    got: &[Vec<f64>],
    want: &[Vec<f64>],
    valid: usize,
    tolerance: f64,
    relative: bool,
) -> Check {
    if got.len() != want.len() {
        return Check {
            ok: false,
            bits: 0.0,
        };
    }
    let mut ok = true;
    let mut bits = 64.0f64;
    for (g, w) in got.iter().zip(want) {
        let n = valid.min(g.len()).min(w.len());
        let scale = w[..n].iter().fold(1.0f64, |m, x| m.max(x.abs()));
        let err = g[..n]
            .iter()
            .zip(&w[..n])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, |m, e| {
                if e.is_nan() || m.is_nan() {
                    f64::NAN
                } else {
                    m.max(e)
                }
            });
        let limit = if relative {
            tolerance * scale
        } else {
            tolerance
        };
        if err.is_nan() || err > limit || n == 0 {
            ok = false;
        }
        let rel = err / scale;
        bits = bits.min(if err.is_nan() {
            0.0
        } else if rel > 0.0 {
            (-rel.log2()).min(64.0)
        } else {
            64.0
        });
    }
    Check { ok, bits }
}

/// Whether a tuned plan keeps the autotuner's contract: never costlier
/// than the HALO heuristic it searches around.
pub fn tune_ok(tuned_us: f64, heuristic_us: f64) -> bool {
    tuned_us <= heuristic_us * (1.0 + 1e-9)
}

/// Per-layer accumulators of the traced run (summed over traced passes).
#[derive(Default)]
pub struct Layers {
    /// Per pass name: (ns, ops_after on the chosen variant).
    pub pass: BTreeMap<&'static str, (u64, u64)>,
    pub verify_ns: u64,
    pub cost_est_ns: u64,
    pub compile_span_ns: u64,
    pub replay_mismatches: Vec<String>,
    pub evaluated: u64,
    pub pruned: u64,
    pub space: u64,
    /// Σ of the HALO outputs' (peeled, packed, unrolled, tuned,
    /// static_bootstraps).
    pub halo_counters: [u64; 5],
    pub exec_span_ns: u64,
    pub exec_self_ns: i128,
    pub backend_calls: u64,
    pub hoist_batches: u64,
    pub hoist_rotations: u64,
    /// (mnemonic index, level) → (calls, ns).
    pub ops: BTreeMap<(u8, u32), (u64, u64)>,
    pub kernel: MetricsSnapshot,
}

/// One row (program × configuration) of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowStat {
    pub compile_s: f64,
    pub run_s: f64,
    pub bootstraps: u64,
    pub modeled_us: f64,
    pub bits: f64,
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassStat {
    /// Every timed compile sweep of the pass: HALO, then DaCapo.
    pub compile_sweeps: [Vec<f64>; 2],
    /// Autotune time per program.
    pub tune_rows: Vec<f64>,
    pub run_halo_s: f64,
    pub run_dacapo_s: f64,
    pub bootstraps: u64,
    pub modeled_us: f64,
    pub tuned_us: f64,
    pub code_bytes: u64,
    pub bits: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Indexed by program × 2 + (0 = HALO, 1 = DaCapo).
    pub rows: Vec<RowStat>,
    /// The (HALO, DaCapo) outputs per program, when every compile
    /// succeeded (kept for the toy probes).
    pub compiled: Vec<(CompileResult, CompileResult)>,
}

fn tune(p: &Program, space: Space) -> Result<TuneOutcome, halo_core::CompileError> {
    match space {
        Space::Full => autotune(&p.dynamic, &p.opts),
        Space::Capped(factor, peel) => BranchBoundTuner.tune(
            &p.dynamic,
            &p.opts,
            &SearchSpace::for_program(&p.dynamic, &p.opts).capped(factor, peel),
            ASSUMED_TRIPS,
            &mut DefaultPolicy,
        ),
    }
}

/// Compiles `src`; in a traced pass the compile is also replayed pass by
/// pass under a `core.compile` span and checked against the real output.
fn compile_row(
    src: &Function,
    config: CompilerConfig,
    p: &Program,
    row: u32,
    tr: &mut Tracer,
    layers: &mut Option<&mut Layers>,
) -> Result<(CompileResult, f64), String> {
    let t = Instant::now();
    let compiled = compile(src, config, &p.opts).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    if let Some(l) = layers.as_deref_mut() {
        let span = tr.open("core.compile", row);
        let r = replay(src, config, &p.opts, tr, span, row);
        tr.close(span);
        l.compile_span_ns += tr.span(span).ns();
        match r {
            Ok(r) => {
                if let Err(e) = check_fidelity(&r, &compiled) {
                    l.replay_mismatches
                        .push(format!("{} {}: {e}", p.name, config.name()));
                }
                for s in &r.passes {
                    let e = l.pass.entry(s.pass.name()).or_default();
                    e.0 += s.ns;
                    if s.chosen {
                        e.1 += s.ops_after as u64;
                    }
                }
                l.verify_ns += r.verify_ns;
                l.cost_est_ns += r.cost_est_ns;
            }
            Err(e) => l.replay_mismatches.push(format!(
                "{} {}: replay failed: {e}",
                p.name,
                config.name()
            )),
        }
    }
    Ok((compiled, secs))
}

/// Runs one compiled program; in a traced pass through the timing
/// decorator, under a `runtime.exec` span with one child per backend op.
fn run_row<B: Backend>(
    be: &B,
    f: &Function,
    inputs: &Inputs,
    row: u32,
    tr: &mut Tracer,
    layers: &mut Option<&mut Layers>,
) -> Result<(RunOutput, f64), String> {
    let Some(l) = layers.as_deref_mut() else {
        let t = Instant::now();
        let out = Executor::new(be)
            .run(f, inputs)
            .map_err(|e| e.to_string())?;
        return Ok((out, t.elapsed().as_secs_f64()));
    };
    let timed = Timed::new(be);
    let counters = ScopedCounters::begin();
    let span = tr.open("runtime.exec", row);
    let t = Instant::now();
    let out = Executor::new(&timed).run(f, inputs);
    let secs = t.elapsed().as_secs_f64();
    tr.close(span);
    l.kernel = l.kernel.add(&counters.finish());
    let events = timed.drain();
    let mut busy = 0u64;
    for e in &events {
        let ns = (e.end - e.start).as_nanos() as u64;
        busy += ns;
        let slot = l.ops.entry((e.op, e.level)).or_default();
        slot.0 += 1;
        slot.1 += ns;
        tr.record(
            &format!("ckks.op.{}", MNEMONICS[e.op as usize]),
            span,
            row,
            e.start,
            e.end,
        );
    }
    let span_ns = tr.span(span).ns();
    l.exec_span_ns += span_ns;
    l.exec_self_ns += i128::from(span_ns) - i128::from(busy);
    l.backend_calls += events.len() as u64;
    let out = out.map_err(|e| e.to_string())?;
    l.hoist_batches += out.stats.hoisted_batches;
    l.hoist_rotations += out.stats.hoisted_rotations;
    Ok((out, secs))
}

/// One closed-loop pass over the workload. `layers` is `Some` in a traced
/// pass.
pub fn pass<B: Backend>(
    wl: &Workload,
    backends: &[B],
    perturb: Perturb,
    tr: &mut Tracer,
    mut layers: Option<&mut Layers>,
) -> PassStat {
    let pass_span = tr.open("pass", NONE);
    let mut st = PassStat {
        bits: 64.0,
        rows: vec![RowStat::default(); wl.programs.len() * 2],
        ..PassStat::default()
    };
    let fail = |st: &mut PassStat, what: String| {
        st.failed += 1;
        st.failures.push(what);
    };

    // Compile: HALO over the set, then DaCapo over the set. The first
    // sweep's outputs are kept (and, traced, replayed); later sweeps repeat
    // the same compiles for timing only, until COMPILE_SWEEP_S has passed.
    let mut compiled: Vec<Option<CompileResult>> = vec![None; wl.programs.len() * 2];
    for (cfg, config) in [(0usize, CompilerConfig::Halo), (1, CompilerConfig::DaCapo)] {
        let mut row_times: Vec<Vec<f64>> = vec![Vec::new(); wl.programs.len()];
        let mut sweeps = vec![0.0];
        for (i, p) in wl.programs.iter().enumerate() {
            let row = (i * 2 + cfg) as u32;
            st.attempted += 1;
            match compile_row(p.source(cfg), config, p, row, tr, &mut layers) {
                Ok((c, secs)) => {
                    if cfg == 0 {
                        st.code_bytes += halo_ir::print::code_size_bytes(&c.function) as u64;
                    }
                    sweeps[0] += secs;
                    row_times[i].push(secs);
                    compiled[row as usize] = Some(c);
                }
                Err(e) => fail(
                    &mut st,
                    format!("{} {}: compile: {e}", p.name, config.name()),
                ),
            }
        }
        while sweeps.len() < MIN_COMPILE_SWEEPS || sweeps.iter().sum::<f64>() < COMPILE_SWEEP_S {
            let mut sweep = 0.0;
            for (i, p) in wl.programs.iter().enumerate() {
                if compiled[i * 2 + cfg].is_some() {
                    let t = Instant::now();
                    let _ = black_box(compile(p.source(cfg), config, &p.opts));
                    let secs = t.elapsed().as_secs_f64();
                    sweep += secs;
                    row_times[i].push(secs);
                }
            }
            sweeps.push(sweep);
        }
        for (i, times) in row_times.into_iter().enumerate() {
            st.rows[i * 2 + cfg].compile_s = median(times);
        }
        st.compile_sweeps[cfg] = sweeps;
    }

    // Tune: every program's dynamic form; the plan must not lose to HALO.
    let tune_span = tr.open("core.autotune", NONE);
    for (i, p) in wl.programs.iter().enumerate() {
        st.attempted += 1;
        let t = Instant::now();
        let outcome = tune(p, wl.space);
        st.tune_rows.push(t.elapsed().as_secs_f64());
        let heuristic = heuristic_cost_us(&p.dynamic, CompilerConfig::Halo, &p.opts, ASSUMED_TRIPS);
        match (outcome, heuristic) {
            (Ok(mut o), Ok(h)) => {
                if perturb == Perturb::Cost && i == 0 {
                    o.cost_us = h * 2.0 + 1.0;
                }
                st.tuned_us += o.cost_us;
                if let Some(l) = layers.as_deref_mut() {
                    l.evaluated += o.evaluated as u64;
                    l.pruned += o.pruned as u64;
                    l.space += o.space as u64;
                }
                if !tune_ok(o.cost_us, h) {
                    fail(
                        &mut st,
                        format!("{}: tuned {} us > HALO {} us", p.name, o.cost_us, h),
                    );
                }
            }
            (Err(e), _) | (_, Err(e)) => fail(&mut st, format!("{}: tune: {e}", p.name)),
        }
    }
    tr.close(tune_span);

    // Run: HALO outputs, then DaCapo outputs, each checked.
    for cfg in [0usize, 1] {
        for (i, p) in wl.programs.iter().enumerate() {
            let row = i * 2 + cfg;
            let Some(c) = &compiled[row] else { continue };
            st.attempted += 1;
            let be = &backends[p.backend];
            match run_row(be, &c.function, &p.inputs, row as u32, tr, &mut layers) {
                Ok((mut out, secs)) => {
                    if perturb == Perturb::Output && row == 0 {
                        out.outputs[0][0] += 1.0;
                    }
                    let check = check_outputs(
                        &out.outputs,
                        &p.reference,
                        p.valid,
                        wl.tolerance,
                        wl.relative,
                    );
                    let r = &mut st.rows[row];
                    r.run_s = secs;
                    r.bits = check.bits;
                    r.bootstraps = out.stats.bootstrap_count;
                    r.modeled_us = out.stats.total_us;
                    st.bits = st.bits.min(check.bits);
                    if cfg == 0 {
                        st.run_halo_s += secs;
                        st.bootstraps += out.stats.bootstrap_count;
                        st.modeled_us += out.stats.total_us;
                    } else {
                        st.run_dacapo_s += secs;
                    }
                    if !check.ok {
                        let which = if cfg == 0 { "HALO" } else { "DaCapo" };
                        fail(
                            &mut st,
                            format!(
                                "{} {which}: output misses the reference ({:.1} bits)",
                                p.name, check.bits
                            ),
                        );
                    }
                }
                Err(e) => fail(&mut st, format!("{}: run: {e}", p.name)),
            }
        }
    }
    if let Some(l) = layers {
        // Even rows are the HALO outputs.
        for c in compiled.iter().step_by(2).flatten() {
            let add = [c.peeled, c.packed, c.unrolled, c.tuned, c.static_bootstraps];
            for (acc, v) in l.halo_counters.iter_mut().zip(add) {
                *acc += v as u64;
            }
        }
    }
    if compiled.iter().all(Option::is_some) {
        let mut outputs = compiled.into_iter().flatten();
        while let (Some(h), Some(d)) = (outputs.next(), outputs.next()) {
            st.compiled.push((h, d));
        }
    }
    tr.close(pass_span);
    st
}

/// The HALO rows' run time of one pass, through `run_row` without
/// tracing (used by the thread-scaling diagnostic).
pub fn run_halo_rows<B: Backend>(
    wl: &Workload,
    backends: &[B],
    compiled: &[(CompileResult, CompileResult)],
) -> f64 {
    let mut tr = Tracer::new(false);
    wl.programs
        .iter()
        .zip(compiled)
        .map(|(p, (h, _))| {
            run_row(
                &backends[p.backend],
                &h.function,
                &p.inputs,
                NONE,
                &mut tr,
                &mut None,
            )
            .map(|(_, s)| s)
            .expect("compiled program runs")
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_exact_outputs_and_fails_perturbed_ones() {
        let want = vec![vec![0.5, -0.25, 9.0]];
        let ok = check_outputs(&want, &want, 2, 1e-3, false);
        assert!(ok.ok);
        assert_eq!(ok.bits, 64.0);
        let mut bad = want.clone();
        bad[0][0] += 1.0;
        assert!(!check_outputs(&bad, &want, 2, 1e-3, false).ok);
        // Outside the valid samples nothing is compared.
        let mut pad = want.clone();
        pad[0][2] = 0.0;
        assert!(check_outputs(&pad, &want, 2, 1e-3, false).ok);
        let mut nan = want.clone();
        nan[0][1] = f64::NAN;
        assert!(!check_outputs(&nan, &want, 2, 1e-3, false).ok);
        assert!(!check_outputs(&[], &want, 2, 1e-3, false).ok);
    }

    #[test]
    fn relative_tolerance_scales_with_the_reference() {
        let want = vec![vec![1e6]];
        let got = vec![vec![1e6 + 0.5]];
        assert!(check_outputs(&got, &want, 1, 1e-6, true).ok);
        assert!(!check_outputs(&got, &want, 1, 1e-6, false).ok);
    }

    #[test]
    fn a_plan_costlier_than_the_heuristic_fails() {
        assert!(tune_ok(10.0, 10.0));
        assert!(tune_ok(9.0, 10.0));
        assert!(!tune_ok(10.5, 10.0));
    }
}
