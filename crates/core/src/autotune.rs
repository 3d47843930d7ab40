//! Optimal-placement autotuning: per-program search over the joint
//! configuration space the paper fixes by heuristic.
//!
//! HALO's five [`CompilerConfig`] variants hard-wire their decisions: the
//! unroll factor comes from the §6.2 formula, packing is always attempted,
//! peeling stops at status matching, and target tuning is all-or-nothing.
//! Each is one fixed point of a joint space ([`CompilerConfig::plan`]),
//! which this module searches instead —
//!
//! * **unroll** — none, the heuristic factor, any factor `2..=L`, or
//!   DaCapo-style full unrolling (constant trips only);
//! * **packing** — on or off (subsumes the cost-aware pack choice);
//! * **peel depth** — extra constant-trip first-iteration peels;
//! * **bootstrap target tuning** — whether §6.3 target lowering runs.
//!
//! Every candidate [`TunePlan`] is scored as it compiles down the one
//! pipeline path every configuration takes
//! (`compile(src, CompilerConfig::Tuned(plan), opts)`), with the
//! calibrated static estimate [`estimate_cost_us`] — the modeled time the
//! sim backend charges, which the calibration suite ties together. So the
//! five configurations are points of the space by construction, and the
//! search can never lose to one of them. Two strategies implement one
//! [`Tuner`] trait so tests can assert they agree:
//!
//! * [`ExhaustiveTuner`] compiles every point — the ground truth;
//! * [`BranchBoundTuner`] shares work: plans that agree on (unroll, pack,
//!   peel) share one traced prefix, whose admissible floor
//!   ([`traced_floor_us`]) prunes both `tune` leaves once it meets the
//!   incumbent, and one level assignment, which scores both leaves
//!   exactly as `compile` would. The agreement proptest in
//!   `tests/autotune_optimal.rs` is the proof harness for pruning.
//!
//! The [`PolicyHook`] seam lets a learned policy (CHEHAB-style RL,
//! PAPERS.md) reorder candidates — better-first orders prune more — and
//! observe every evaluation, without touching the optimality argument.

use std::collections::HashMap;

use halo_ir::func::{BlockId, Function};
use halo_ir::op::{Opcode, TripCount};

use crate::config::{CompileOptions, CompilerConfig};
use crate::cost_est::{estimate_cost_us, traced_floor_us};
use crate::error::CompileError;
use crate::pipeline::{
    catch_pass_panics, compile, final_dce, plan_traced, tune_targets, PipelineHooks, ASSUMED_TRIPS,
};
use crate::scale::assign_levels;

/// How a tuned plan unrolls loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum UnrollChoice {
    /// Leave loops as written.
    #[default]
    None,
    /// The paper's level-aware factor formula (§6.2).
    Heuristic,
    /// Force this factor on every eligible loop (clamped per constant
    /// trip; epilogue loops are never re-split).
    Factor(u8),
    /// DaCapo-style full unrolling — only in spaces without dynamic trips.
    Full,
}

/// One point of the joint search space. `Copy` (and tiny) so it embeds
/// directly in the [`CompilerConfig::Tuned`] arm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TunePlan {
    /// Unroll treatment.
    pub unroll: UnrollChoice,
    /// Run the loop-carried packing pass (§6.1).
    pub pack: bool,
    /// Extra constant-trip first-iteration peels beyond status matching.
    pub peel_extra: u8,
    /// Run bootstrap target-level tuning (§6.3).
    pub tune_targets: bool,
}

impl TunePlan {
    /// The plain type-matched pipeline: no unrolling, no packing, no
    /// extra peeling, no target tuning. Always compiles when the source
    /// is valid — the search's fallback point.
    #[must_use]
    pub fn baseline() -> TunePlan {
        TunePlan::default()
    }

    /// Compact human-readable form for tables and reports.
    #[must_use]
    pub fn describe(&self) -> String {
        let unroll = match self.unroll {
            UnrollChoice::None => "none".to_string(),
            UnrollChoice::Heuristic => "heur".to_string(),
            UnrollChoice::Factor(k) => format!("x{k}"),
            UnrollChoice::Full => "full".to_string(),
        };
        format!(
            "unroll={unroll} pack={} peel=+{} tune={}",
            if self.pack { "on" } else { "off" },
            self.peel_extra,
            if self.tune_targets { "on" } else { "off" },
        )
    }
}

/// The concrete candidate grid for one program, derived from its loop
/// structure so structurally equivalent plans are enumerated once.
///
/// Collapsing invariants (each removes provably duplicate plans):
/// * no undivided loop with ≥ 2 achievable iterations → no factor plans,
///   and the heuristic choice collapses into `None`;
/// * any dynamic trip anywhere → no `Full` plans (DaCapo rejects them);
/// * no constant-trip loop → no extra-peel plans;
/// * no loop at all → the pack dimension collapses (nothing to pack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Explicit unroll factors to try (each ≥ 2).
    pub factors: Vec<u8>,
    /// Whether DaCapo-style full unrolling is in the space.
    pub allow_full: bool,
    /// Largest `peel_extra` to try.
    pub max_peel_extra: u8,
    /// Whether the pack on/off dimension is explored.
    pub try_pack: bool,
}

/// Default cap on the extra-peel dimension: peeling more than two extra
/// iterations duplicates the body past any observed saving.
const PEEL_EXTRA_CAP: u64 = 2;

impl SearchSpace {
    /// Derives the space from `src`'s loop structure and the level budget.
    #[must_use]
    pub fn for_program(src: &Function, opts: &CompileOptions) -> SearchSpace {
        let mut scan = LoopScan::default();
        scan.visit(src, src.entry);
        let max_level = u64::from(opts.params.max_level);
        let cap = scan.factor_cap.min(max_level);
        SearchSpace {
            factors: (2..=cap).map(|k| k as u8).collect(),
            allow_full: scan.any_loop && !scan.any_dynamic,
            max_peel_extra: scan.max_const_trip.min(PEEL_EXTRA_CAP) as u8,
            try_pack: scan.any_loop,
        }
    }

    /// Shrinks the space for cheap tests: factors capped at `max_factor`,
    /// extra peels at `max_peel`.
    #[must_use]
    pub fn capped(mut self, max_factor: u8, max_peel: u8) -> SearchSpace {
        self.factors.retain(|&k| k <= max_factor);
        self.max_peel_extra = self.max_peel_extra.min(max_peel);
        self
    }

    /// Enumerates every candidate plan, in a deterministic order. `Full`
    /// plans are canonical (no pack, no extra peel — full unrolling
    /// leaves no loops for either), as are no-loop spaces.
    #[must_use]
    pub fn plans(&self) -> Vec<TunePlan> {
        let mut choices = vec![UnrollChoice::None];
        if !self.factors.is_empty() {
            choices.push(UnrollChoice::Heuristic);
            choices.extend(self.factors.iter().map(|&k| UnrollChoice::Factor(k)));
        }
        if self.allow_full {
            choices.push(UnrollChoice::Full);
        }
        let mut plans = Vec::new();
        for &unroll in &choices {
            let full = unroll == UnrollChoice::Full;
            let packs: &[bool] = if full || !self.try_pack {
                &[false]
            } else {
                &[false, true]
            };
            let max_peel = if full { 0 } else { self.max_peel_extra };
            for &pack in packs {
                for peel_extra in 0..=max_peel {
                    for tune_targets in [false, true] {
                        plans.push(TunePlan {
                            unroll,
                            pack,
                            peel_extra,
                            tune_targets,
                        });
                    }
                }
            }
        }
        plans
    }

    /// Number of candidate plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans().len()
    }

    /// Whether the space is empty (it never is: the baseline remains).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans().is_empty()
    }
}

#[derive(Default)]
struct LoopScan {
    any_loop: bool,
    any_dynamic: bool,
    max_const_trip: u64,
    /// Largest useful explicit factor: the largest
    /// [`TripCount::unroll_cap`] of any loop (later capped by the level
    /// budget).
    factor_cap: u64,
}

impl LoopScan {
    fn visit(&mut self, f: &Function, block: BlockId) {
        for op_id in f.loops_in_block(block) {
            self.any_loop = true;
            if let Opcode::For { trip, .. } = &f.op(op_id).opcode {
                if let TripCount::Constant(n) = trip {
                    self.max_const_trip = self.max_const_trip.max(*n);
                }
                self.any_dynamic |= trip.symbol().is_some();
                self.factor_cap = self.factor_cap.max(trip.unroll_cap().unwrap_or(0));
            }
            self.visit(f, f.for_body(op_id));
        }
    }
}

/// The best plan a search found, with the search's own accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// The winning plan.
    pub plan: TunePlan,
    /// Its modeled cost (µs) under the assumed trip count.
    pub cost_us: f64,
    /// Candidates actually compiled and scored.
    pub evaluated: usize,
    /// Candidates discarded without a full compile (bound or failed prefix).
    pub pruned: usize,
    /// Total size of the candidate space.
    pub space: usize,
}

/// Seam for a learned search policy (CHEHAB-style RL, PAPERS.md): order
/// the candidates (better-first orderings tighten the branch-and-bound
/// incumbent sooner) and observe every evaluation as a training signal.
/// A policy can only *reorder* the space, never shrink it, so it cannot
/// break the optimality argument.
pub trait PolicyHook {
    /// Reorders `plans` in place before the search visits them.
    fn order(&mut self, src: &Function, plans: &mut Vec<TunePlan>);
    /// Observes one scored candidate.
    fn observe(&mut self, plan: TunePlan, cost_us: f64);
}

/// Default policy: visit HALO-shaped plans first (heuristic unroll, then
/// full unrolling, each with tuning before not), since the paper's
/// heuristics are usually close to optimal and make tight incumbents.
/// Learns nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefaultPolicy;

impl PolicyHook for DefaultPolicy {
    fn order(&mut self, _src: &Function, plans: &mut Vec<TunePlan>) {
        plans.sort_by_key(|p| {
            let family = match p.unroll {
                UnrollChoice::Heuristic => 0,
                UnrollChoice::Full => 1,
                UnrollChoice::None => 2,
                UnrollChoice::Factor(_) => 3,
            };
            (family, !p.tune_targets, !p.pack)
        });
    }

    fn observe(&mut self, _plan: TunePlan, _cost_us: f64) {}
}

/// A search strategy over one program's [`SearchSpace`].
pub trait Tuner {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Searches `space` and returns the cheapest plan by modeled cost.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`] when *no* candidate compiles
    /// (an individual failing candidate is skipped, not fatal).
    fn tune(
        &self,
        src: &Function,
        opts: &CompileOptions,
        space: &SearchSpace,
        assumed_trip: u64,
        policy: &mut dyn PolicyHook,
    ) -> Result<TuneOutcome, CompileError>;
}

/// One search's incumbent and accounting.
#[derive(Default)]
struct Search {
    best: Option<(TunePlan, f64)>,
    evaluated: usize,
    pruned: usize,
    first_err: Option<CompileError>,
}

impl Search {
    /// Whether `floor` already meets the incumbent's cost.
    fn beats(&self, floor: f64) -> bool {
        self.best.is_some_and(|(_, inc)| floor >= inc)
    }

    /// Counts one scored candidate. A failing one is skipped, not fatal;
    /// only a strictly cheaper one replaces the incumbent, so the first
    /// plan found wins a tie.
    fn score(
        &mut self,
        plan: TunePlan,
        cost: Result<f64, CompileError>,
        policy: &mut dyn PolicyHook,
    ) {
        match cost {
            Ok(cost) => {
                policy.observe(plan, cost);
                self.evaluated += 1;
                if self.best.is_none_or(|(_, b)| cost < b) {
                    self.best = Some((plan, cost));
                }
            }
            Err(e) => {
                self.first_err.get_or_insert(e);
            }
        }
    }

    fn finish(self, space: usize) -> Result<TuneOutcome, CompileError> {
        let (plan, cost_us) = self.best.ok_or_else(|| {
            self.first_err
                .unwrap_or_else(|| CompileError::Internal("empty autotune search space".into()))
        })?;
        Ok(TuneOutcome {
            plan,
            cost_us,
            evaluated: self.evaluated,
            pruned: self.pruned,
            space,
        })
    }
}

/// Ground-truth strategy: compiles and scores every candidate. Cost is
/// linear in the space; use on small spaces and as the oracle the
/// branch-and-bound strategy is tested against.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExhaustiveTuner;

impl Tuner for ExhaustiveTuner {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn tune(
        &self,
        src: &Function,
        opts: &CompileOptions,
        space: &SearchSpace,
        assumed_trip: u64,
        policy: &mut dyn PolicyHook,
    ) -> Result<TuneOutcome, CompileError> {
        let mut plans = space.plans();
        policy.order(src, &mut plans);
        let mut search = Search::default();
        for &plan in &plans {
            let cost = heuristic_cost_us(src, CompilerConfig::Tuned(plan), opts, assumed_trip);
            search.score(plan, cost, policy);
        }
        // Nothing is bounded away: the candidates that failed count as pruned.
        search.pruned = plans.len() - search.evaluated;
        search.finish(plans.len())
    }
}

/// Branch-and-bound strategy with shared prefixes.
///
/// Plans that agree on `(unroll, pack, peel_extra)` share their traced
/// pipeline and their level assignment; only target tuning differs. The
/// first visit to a prefix traces it once and computes its
/// [`traced_floor_us`], an *admissible* lower bound on every typed
/// completion (level assignment only raises levels and inserts management
/// ops). A leaf whose floor meets the incumbent is pruned, so optimality
/// holds; a failed prefix bounds at +∞. Otherwise one level assignment
/// scores both leaves, and the sibling's score waits until the policy
/// order reaches it: only then is it evaluated or pruned.
#[derive(Debug, Default, Clone, Copy)]
pub struct BranchBoundTuner;

impl Tuner for BranchBoundTuner {
    fn name(&self) -> &'static str {
        "branch-bound"
    }

    fn tune(
        &self,
        src: &Function,
        opts: &CompileOptions,
        space: &SearchSpace,
        assumed_trip: u64,
        policy: &mut dyn PolicyHook,
    ) -> Result<TuneOutcome, CompileError> {
        let mut plans = space.plans();
        policy.order(src, &mut plans);
        // Per prefix: its floor and, unless that pruned it, its leaves' scores.
        let mut prefixes: HashMap<(UnrollChoice, bool, u8), (f64, Leaves)> = HashMap::new();
        let mut search = Search::default();
        for &plan in &plans {
            let key = (plan.unroll, plan.pack, plan.peel_extra);
            let (floor, leaves) = prefixes.entry(key).or_insert_with(|| {
                match prefix_floor(src, plan, opts, assumed_trip) {
                    // A prefix the floor prunes now is pruned at both leaves.
                    Ok((floor, _)) if search.beats(floor) => (floor, None),
                    Ok((floor, traced)) => (floor, score_leaves(traced, opts, assumed_trip)),
                    Err(e) => {
                        search.first_err.get_or_insert(e);
                        (f64::INFINITY, None)
                    }
                }
            });
            if floor.is_infinite() || search.beats(*floor) {
                search.pruned += 1;
                continue;
            }
            let leaves = leaves.as_ref().expect("scored unless pruned");
            search.score(plan, leaves[usize::from(plan.tune_targets)].clone(), policy);
        }
        search.finish(plans.len())
    }
}

/// The scores of a prefix's `tune = off` and `tune = on` leaves, or `None`
/// when its floor pruned it before level assignment.
type Leaves = Option<[Result<f64, CompileError>; 2]>;

/// Runs one plan's traced prefix and returns its admissible cost floor
/// with the traced program. Pass panics (malformed sources) are converted
/// to errors, matching `compile`'s boundary.
fn prefix_floor(
    src: &Function,
    plan: TunePlan,
    opts: &CompileOptions,
    assumed_trip: u64,
) -> Result<(f64, Function), CompileError> {
    let run = || plan_traced(src, plan, opts, &mut PipelineHooks::default());
    let panicked = |_| CompileError::Internal("traced prefix panicked during autotuning".into());
    let (f, ..) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(panicked)??;
    Ok((traced_floor_us(&f, assumed_trip), f))
}

/// Scores both `tune` leaves of a traced prefix from one level
/// assignment. Each leaf then runs what `compile(Tuned(plan))` runs, so
/// its score is bit-identical to a whole compile's, errors included.
fn score_leaves(mut f: Function, opts: &CompileOptions, assumed_trip: u64) -> Leaves {
    let hooks = &mut PipelineHooks::default();
    let typed = catch_pass_panics(|| assign_levels(&mut f, opts));
    let mut score = |mut f: Function, tune: bool| {
        catch_pass_panics(|| {
            if tune {
                tune_targets(&mut f, opts, hooks)?;
            }
            final_dce(&mut f, opts, hooks)?;
            Ok(estimate_cost_us(&f, assumed_trip))
        })
    };
    match typed {
        Ok(()) => Some([score(f.clone(), false), score(f, true)]),
        Err(e) => Some([Err(e.clone()), Err(e)]),
    }
}

/// Autotunes `src` with the default strategy ([`BranchBoundTuner`]), the
/// derived [`SearchSpace`], the paper's 40-iteration trip assumption, and
/// the default policy.
///
/// # Errors
///
/// Propagates the first [`CompileError`] when no candidate compiles.
pub fn autotune(src: &Function, opts: &CompileOptions) -> Result<TuneOutcome, CompileError> {
    BranchBoundTuner.tune(
        src,
        opts,
        &SearchSpace::for_program(src, opts),
        ASSUMED_TRIPS,
        &mut DefaultPolicy,
    )
}

/// Modeled cost (µs) of compiling `src` under one configuration: one of
/// the paper's heuristics, the baseline the tuned plan is compared against
/// in benches and tests, or a `Tuned` plan, as the exhaustive search
/// scores it.
///
/// # Errors
///
/// Propagates the configuration's [`CompileError`] (e.g. DaCapo on
/// dynamic trips).
pub fn heuristic_cost_us(
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
    assumed_trip: u64,
) -> Result<f64, CompileError> {
    let r = compile(src, config, opts)?;
    Ok(estimate_cost_us(&r.function, assumed_trip))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::CkksParams;
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
    fn space_derivation_collapses_structural_duplicates_and_caps() {
        let o = opts();
        // Dynamic trip: full unrolling is out, factors run to L.
        let dynamic = SearchSpace::for_program(&sample(TripCount::dynamic("n")), &o);
        assert!(!dynamic.allow_full);
        assert!(dynamic.try_pack);
        assert_eq!(dynamic.max_peel_extra, 0, "no constant-trip loop");
        let to_l = o.params.max_level as usize - 1;
        assert_eq!(dynamic.factors.len(), to_l, "2..=L");

        // Constant trip 12: full unrolling allowed, factor cap = 12.
        let constant = SearchSpace::for_program(&sample(TripCount::Constant(12)), &o);
        assert!(constant.allow_full);
        assert_eq!(constant.max_peel_extra, 2);
        assert_eq!(*constant.factors.last().unwrap(), 12);
        let capped = constant.clone().capped(3, 1);
        assert!(capped.factors.iter().all(|&k| k <= 3));
        assert_eq!(capped.max_peel_extra, 1);
        assert!(capped.len() < constant.len());

        // No loops at all: only the pack-collapsed baseline dimensions.
        let mut b = FunctionBuilder::new("straight", 32);
        let x = b.input_cipher("x");
        let y = b.mul(x, x);
        b.ret(&[y]);
        let straight = b.finish();
        let space = SearchSpace::for_program(&straight, &o);
        assert!(space.factors.is_empty() && !space.allow_full && !space.try_pack);
        // unroll=None × pack=off × peel=0 × tune∈{off,on}.
        assert_eq!(space.len(), 2);
    }

    /// Records every observation; `.0` reverses the default order.
    struct Recording(bool, Vec<(TunePlan, u64)>);

    impl PolicyHook for Recording {
        fn order(&mut self, src: &Function, plans: &mut Vec<TunePlan>) {
            DefaultPolicy.order(src, plans);
            if self.0 {
                plans.reverse();
            }
        }
        fn observe(&mut self, plan: TunePlan, cost_us: f64) {
            self.1.push((plan, cost_us.to_bits()));
        }
    }

    type Outcome = Result<TuneOutcome, CompileError>;

    /// Branch-and-bound with every unpruned leaf compiled from scratch.
    fn compile_each_leaf(src: &Function, o: &CompileOptions, policy: &mut Recording) -> Outcome {
        let mut plans = SearchSpace::for_program(src, o).capped(4, 1).plans();
        policy.order(src, &mut plans);
        let mut search = Search::default();
        for &plan in &plans {
            let floor = match prefix_floor(src, plan, o, ASSUMED_TRIPS) {
                Ok((floor, _)) => floor,
                Err(e) => {
                    search.first_err.get_or_insert(e);
                    f64::INFINITY
                }
            };
            if floor.is_infinite() || search.beats(floor) {
                search.pruned += 1;
                continue;
            }
            let cost = heuristic_cost_us(src, CompilerConfig::Tuned(plan), o, ASSUMED_TRIPS);
            search.score(plan, cost, policy);
        }
        search.finish(plans.len())
    }

    /// Shared leaves against compiling each leaf, in both orders, on the
    /// fuzz corpus and then `extra`: the same outcome and observe stream,
    /// one observation per evaluated plan with the cheapest one the
    /// outcome, every observed cost `compile`'s, bit for bit, the
    /// exhaustive oracle's plan, cost and space, and no heuristic cheaper.
    fn check_shared_leaves(o: &CompileOptions, extra: Option<Function>) -> Vec<Outcome> {
        let corpus =
            (0..24).map(|seed| halo_fuzz::gen::build(&halo_fuzz::gen::gen_spec(seed), true));
        let mut outcomes = Vec::new();
        for src in corpus.chain(extra) {
            let space = SearchSpace::for_program(&src, o).capped(4, 1);
            for reverse in [false, true] {
                let (mut shared, mut each) =
                    (Recording(reverse, vec![]), Recording(reverse, vec![]));
                let got = BranchBoundTuner.tune(&src, o, &space, ASSUMED_TRIPS, &mut shared);
                let n = outcomes.len();
                assert_eq!(got, compile_each_leaf(&src, o, &mut each), "run {n}");
                assert_eq!(shared.1, each.1, "run {n}");
                // Costs are positive, so their bit order is their value order.
                let summary = got
                    .as_ref()
                    .ok()
                    .map(|t| (t.evaluated, t.cost_us.to_bits()));
                let min = shared.1.iter().map(|p| p.1).min();
                assert_eq!(summary, min.map(|c| (shared.1.len(), c)), "run {n}");
                for &(plan, bits) in &shared.1 {
                    let r = compile(&src, CompilerConfig::Tuned(plan), o).unwrap();
                    assert_eq!(r.config, CompilerConfig::Tuned(plan));
                    assert_eq!(estimate_cost_us(&r.function, ASSUMED_TRIPS).to_bits(), bits);
                }
                let ex = ExhaustiveTuner.tune(&src, o, &space, ASSUMED_TRIPS, &mut each);
                let best = |r: &Outcome| r.as_ref().map(|t| (t.plan, t.cost_us, t.space)).ok();
                assert_eq!(best(&got), best(&ex), "run {n}");
                for config in CompilerConfig::ALL {
                    let h = heuristic_cost_us(&src, config, o, ASSUMED_TRIPS);
                    let beaten = |t: &TuneOutcome| h.as_ref().is_ok_and(|&h| h < t.cost_us - 1e-6);
                    assert!(!got.as_ref().is_ok_and(beaten), "run {n}: {config:?}");
                }
                outcomes.push(got);
            }
        }
        outcomes
    }

    #[test]
    fn shared_leaves_score_every_plan_as_compiling_each_leaf_does() {
        let mut o = CompileOptions::new(halo_fuzz::diff::fuzz_params());
        let covered = |t: &TuneOutcome| t.evaluated > 0 && t.evaluated + t.pruned == t.space;
        let outcomes = check_shared_leaves(&o, None);
        assert!(outcomes.iter().all(|r| r.as_ref().is_ok_and(covered)));

        // At L = 0 level assignment fails on most of the corpus, by error
        // or by pass panic. On an add-only loop it fails only where the
        // loop survives (its head bootstrap has no level to restore): the
        // reversed order meets those leaves before any incumbent.
        o.params.max_level = 0;
        let mut b = FunctionBuilder::new("adds", 32);
        let x = b.input_cipher("x");
        let r = b.for_loop(TripCount::Constant(2), &[x], 4, |b, a| vec![b.add(a[0], x)]);
        b.ret(&r);
        let outcomes = check_shared_leaves(&o, Some(b.finish()));
        assert!(outcomes[..48].iter().filter(|r| r.is_err()).count() >= 40);
        let t = outcomes[49].as_ref().expect("unrolling levels the adds");
        assert!(t.evaluated + t.pruned < t.space, "a failed leaf is neither");
    }

    #[test]
    fn describe_is_compact_and_total() {
        let plan = TunePlan {
            unroll: UnrollChoice::Factor(4),
            pack: true,
            peel_extra: 1,
            tune_targets: true,
        };
        assert_eq!(plan.describe(), "unroll=x4 pack=on peel=+1 tune=on");
        let base = TunePlan::baseline().describe();
        assert_eq!(base, "unroll=none pack=off peel=+0 tune=off");
    }
}
