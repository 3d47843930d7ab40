//! DaCapo-style bootstrap placement for straight-line op sequences
//! (paper §5.3 and \[13\]).
//!
//! Given a block whose entry values are already typed, this pass decides
//! *where* to insert bootstraps so that no multiplication underflows:
//!
//! 1. compute backward **liveness** at every program point;
//! 2. **filter candidates** to the points with the fewest live ciphertexts
//!    (bootstrapping at a point means bootstrapping *every* live ciphertext,
//!    so fewer live values = cheaper reset — DaCapo's heuristic);
//! 3. run a **dynamic program** over candidate points: a segment between
//!    consecutive reset points is feasible iff the pure level simulation
//!    ([`crate::levelsim`]) traverses it without underflow when every
//!    live-in enters at the maximum level; segment cost is the simulated
//!    latency, reset cost is one maximum-level bootstrap per live
//!    ciphertext.
//!
//! The paper notes this filtering "can miss better solutions" (§7.1) — that
//! imperfection is part of the baseline being reproduced. If the filtered
//! DP is infeasible the filter is widened (×2) until it covers every point,
//! and only then is the program declared depth-infeasible.
//!
//! The pass is linear in the work it keeps: each op's uses (operands plus a
//! nested body's live-ins) are listed once per block, first uses are
//! counted with one stamp array indexed by value, and each reset point's
//! segment is simulated once per block and reused when the filter widens.

use std::collections::HashSet;

use halo_ckks::{CostModel, CostedOp};
use halo_ir::analysis::liveness;
use halo_ir::func::{BlockId, Function, OpId, ValueId};
use halo_ir::op::Opcode;
use halo_ir::types::{CtType, Status};

use crate::config::CompileOptions;
use crate::error::CompileError;
use crate::levelsim::{sim_range, RangeSim, SimTypes};

/// Ensures `block` can be leveled without underflow, inserting bootstraps
/// at DP-chosen points if necessary. Entry values (block args, live-ins)
/// must already carry concrete types. Returns the number of bootstrap ops
/// inserted.
///
/// # Errors
///
/// Returns [`CompileError::DepthInfeasible`] when even unfiltered placement
/// cannot level the block (a single op chain deeper than the level budget).
pub fn ensure_feasible(
    f: &mut Function,
    block: BlockId,
    opts: &CompileOptions,
) -> Result<usize, CompileError> {
    let cost = CostModel::new();
    let max_level = opts.params.max_level;
    let ops = f.block(block).ops.clone();

    // Fast path: already feasible. The same simulation is the DP's entry
    // segment.
    let entry = sim_range(f, &ops, &mut SimTypes::new(f), &cost, max_level);
    if entry.underflow_at.is_none() {
        return Ok(0);
    }

    let live = liveness(f, block, &HashSet::new());
    // Values whose type is already pinned at the full level (function
    // inputs, results of earlier max-level bootstraps) gain nothing from a
    // reset; exclude them so live-ins at L are not pointlessly re-bootstrapped.
    let already_full = |v: ValueId| {
        let t = f.ty(v);
        t.has_level() && t.level == max_level && t.degree == 1
    };
    let live_cipher: Vec<Vec<ValueId>> = live
        .iter()
        .map(|set| {
            let mut v: Vec<ValueId> = set
                .iter()
                .copied()
                .filter(|&v| f.ty(v).status == Status::Cipher && !already_full(v))
                .collect();
            v.sort_unstable();
            v
        })
        .collect();

    // The filter scales with program size (one candidate window per ~24
    // ops at least) — this is what makes DaCapo's compile time grow with
    // the unrolled program (Table 6) while keeping plans competitive.
    let mut filter = opts.placement_filter.max(ops.len() / 24).max(1);
    let mut planner = Planner::new(f, &ops, &live_cipher, entry, &cost, max_level);
    let work = loop {
        match planner.plan(filter) {
            Some(points) => {
                // Per segment (point → next point/end), bootstrap only the
                // live values the segment uses.
                let ends = points.iter().skip(1).copied().chain([ops.len()]);
                let work: Vec<(usize, Vec<ValueId>)> = points
                    .iter()
                    .zip(ends)
                    .map(|(&k, next)| {
                        let mut used = Vec::new();
                        planner.first_uses(k, next, |_, v| used.push(v));
                        used.sort_unstable();
                        (k, used)
                    })
                    .collect();
                break work;
            }
            None if filter > ops.len() => {
                return Err(CompileError::DepthInfeasible {
                    op: ops.first().copied(),
                    detail: format!(
                        "no bootstrap plan exists for a {}-op block at level budget {max_level}",
                        ops.len()
                    ),
                });
            }
            None => filter *= 2,
        }
    };
    // Insert in descending order so earlier insertions see (and re-route)
    // later bootstraps' operands.
    let mut inserted = 0;
    for (k, values) in work.into_iter().rev() {
        inserted += insert_reset(f, block, k, &values, max_level);
    }
    Ok(inserted)
}

/// The segment simulated from one reset point: every live ciphertext
/// enters at the maximum level.
struct Segment {
    /// Ops simulated before the first underflow (or to the block's end).
    reach: usize,
    /// `cum_cost[k]`: modeled cost of the segment's first `k` ops.
    cum_cost: Vec<f64>,
    /// `first_uses[k]`: live values first used by the segment's first `k`
    /// ops — the bootstraps a reset serving them must place.
    first_uses: Vec<u32>,
}

/// The placement DP over one block. Each op's uses are listed once, and
/// each reset point's segment is simulated once and reused when the
/// candidate filter widens.
struct Planner<'a> {
    f: &'a Function,
    ops: &'a [OpId],
    live_cipher: &'a [Vec<ValueId>],
    cost: &'a CostModel,
    max_level: u32,
    /// Op `k` uses `uses[use_start[k]..use_start[k + 1]]`: its operands,
    /// then a nested loop body's live-ins.
    use_start: Vec<usize>,
    uses: Vec<ValueId>,
    /// Per value: `tag - 1` while it waits for its first use in the
    /// current walk, `tag` once used (a dense set that clears by bumping
    /// `tag`).
    stamp: Vec<u32>,
    tag: u32,
    /// The segment from the block's entry, where values keep their types.
    entry: RangeSim,
    segments: Vec<Option<Segment>>,
}

impl<'a> Planner<'a> {
    fn new(
        f: &'a Function,
        ops: &'a [OpId],
        live_cipher: &'a [Vec<ValueId>],
        entry: RangeSim,
        cost: &'a CostModel,
        max_level: u32,
    ) -> Planner<'a> {
        let mut use_start = Vec::with_capacity(ops.len() + 1);
        let mut uses = Vec::new();
        for &op_id in ops {
            use_start.push(uses.len());
            let op = f.op(op_id);
            uses.extend_from_slice(&op.operands);
            if let Opcode::For { body, .. } = op.opcode {
                uses.extend(halo_ir::analysis::live_ins(f, body));
            }
        }
        use_start.push(uses.len());
        Planner {
            f,
            ops,
            live_cipher,
            cost,
            max_level,
            use_start,
            uses,
            stamp: vec![0; f.num_values()],
            tag: 0,
            entry,
            segments: (0..ops.len()).map(|_| None).collect(),
        }
    }

    /// Walks ops `from..to`, calling `first(k, v)` at op `k`'s first use of
    /// each value live before op `from`.
    fn first_uses(&mut self, from: usize, to: usize, mut first: impl FnMut(usize, ValueId)) {
        self.tag += 2;
        let (waiting, used) = (self.tag - 1, self.tag);
        for &v in &self.live_cipher[from] {
            self.stamp[v.0 as usize] = waiting;
        }
        for k in from..to {
            for &v in &self.uses[self.use_start[k]..self.use_start[k + 1]] {
                let s = &mut self.stamp[v.0 as usize];
                if *s == waiting {
                    *s = used;
                    first(k, v);
                }
            }
        }
    }

    /// The segment from a reset at point `i`, simulated on first request.
    fn segment(&mut self, i: usize) -> &Segment {
        if self.segments[i].is_none() {
            let mut types = SimTypes::new(self.f);
            for &v in &self.live_cipher[i] {
                types.set(v, CtType::cipher(self.max_level));
            }
            let sim = sim_range(
                self.f,
                &self.ops[i..],
                &mut types,
                self.cost,
                self.max_level,
            );
            let reach = sim.underflow_at.unwrap_or(self.ops.len() - i);
            let mut first_uses = vec![0u32; reach + 1];
            self.first_uses(i, i + reach, |k, _| first_uses[k - i + 1] += 1);
            for k in 1..=reach {
                first_uses[k] += first_uses[k - 1];
            }
            #[cfg(test)]
            assert_eq!(
                first_uses,
                tests::oracle_first_uses(self.f, &self.ops[i..i + reach], &self.live_cipher[i]),
                "stamped first-use counts differ from per-candidate counting"
            );
            self.segments[i] = Some(Segment {
                reach,
                cum_cost: sim.cum_cost,
                first_uses,
            });
        }
        self.segments[i].as_ref().expect("segment simulated above")
    }

    /// Runs the DP with the given candidate-filter width. Returns the
    /// chosen reset points, or `None` if infeasible under this filter.
    fn plan(&mut self, filter: usize) -> Option<Vec<usize>> {
        let p = self.ops.len();

        // Candidate points, filtered by live-ciphertext count (DaCapo
        // §5.3). One candidate per program window (the min-live point in
        // it), so the filtered set covers the whole op stream instead of
        // clustering where ties sort first.
        let windows = filter.min(p);
        let mut candidates: Vec<usize> = (0..windows)
            .map(|w| {
                let lo = w * p / windows;
                let hi = ((w + 1) * p / windows).max(lo + 1);
                (lo..hi)
                    .min_by_key(|&k| self.live_cipher[k].len())
                    .expect("window non-empty")
            })
            .collect();
        candidates.dedup();

        let bs_unit = self.cost.latency_us(CostedOp::Bootstrap {
            target: self.max_level,
        });

        // dp[j]: (cost, predecessor candidate) for executing ops[0..j) with
        // j a reset point or the end. A reset at i serving segment (i, j)
        // only bootstraps the live values actually *used* in (i, j) —
        // values merely passing through are reset later, where (and if)
        // they are consumed.
        let entry_reach = self.entry.underflow_at.unwrap_or(p);
        let mut dp: Vec<Option<(f64, Option<usize>)>> = vec![None; p + 1];
        let positions: Vec<usize> = candidates.iter().copied().chain([p]).collect();
        for &j in &positions {
            if j <= entry_reach {
                dp[j] = Some((self.entry.cum_cost[j], None));
            }
        }
        for (ci, &i) in candidates.iter().enumerate() {
            let Some((base, _)) = dp[i] else { continue };
            let seg = self.segment(i);
            for &j in positions.iter().skip_while(|&&j| j <= i) {
                if j > i + seg.reach {
                    break;
                }
                let bc = f64::from(seg.first_uses[j - i]) * bs_unit;
                let c = base + bc + seg.cum_cost[j - i];
                if dp[j].is_none_or(|(best, _)| c < best) {
                    dp[j] = Some((c, Some(ci)));
                }
            }
        }

        let (_, mut pred) = dp[p]?;
        let mut points = Vec::new();
        while let Some(ci) = pred {
            let i = candidates[ci];
            points.push(i);
            pred = dp[i].and_then(|(_, pr)| pr);
        }
        points.reverse();
        Some(points)
    }
}

/// Inserts, before op index `k` of `block`, one `bootstrap` per live
/// ciphertext, re-routing all later uses. Returns the number inserted.
fn insert_reset(
    f: &mut Function,
    block: BlockId,
    k: usize,
    live: &[ValueId],
    max_level: u32,
) -> usize {
    let mut at = k;
    for &v in live {
        let bs = f.insert_op(
            block,
            at,
            Opcode::Bootstrap { target: max_level },
            vec![v],
            &[CtType {
                status: Status::Cipher,
                ..CtType::cipher_unset()
            }],
        );
        at += 1;
        let new_v = f.op(bs).results[0];
        f.replace_uses_from(block, at, v, new_v);
    }
    live.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::CkksParams;
    use halo_ir::FunctionBuilder;

    fn opts() -> CompileOptions {
        CompileOptions::new(CkksParams::test_small())
    }

    /// A chain of `depth` squarings starting from a fresh input at L.
    fn chain(depth: usize) -> (Function, ValueId) {
        let mut b = FunctionBuilder::new("chain", 8);
        let x = b.input_cipher("x");
        let mut v = x;
        for _ in 0..depth {
            v = b.mul(v, v);
        }
        b.ret(&[v]);
        (b.finish(), x)
    }

    /// Per-candidate first-use counting with hash sets, as placement did
    /// before stamps: the oracle every test-build segment checks against.
    pub(super) fn oracle_first_uses(f: &Function, ops: &[OpId], live: &[ValueId]) -> Vec<u32> {
        let live_set: HashSet<ValueId> = live.iter().copied().collect();
        let mut first_use_count = vec![0u32; ops.len() + 1];
        let mut seen: HashSet<ValueId> = HashSet::new();
        for (k, &op_id) in ops.iter().enumerate() {
            let mut uses = Vec::new();
            let op = f.op(op_id);
            for &v in &op.operands {
                uses.push(v);
            }
            if let Opcode::For { body, .. } = op.opcode {
                uses.extend(halo_ir::analysis::live_ins(f, body));
            }
            let mut newly = 0;
            for v in uses {
                if live_set.contains(&v) && seen.insert(v) {
                    newly += 1;
                }
            }
            first_use_count[k + 1] = first_use_count[k] + newly;
        }
        first_use_count
    }

    /// Levels the fuzz corpus unrolled ×2…×8 and fully unrolled, at the
    /// default filter and at a narrow one that must widen. Every simulated
    /// segment asserts its first-use counts equal the oracle's
    /// (`Planner::segment`), so every DP run sees the inputs, and places
    /// the reset points, that per-candidate counting would.
    #[test]
    fn stamped_first_uses_match_the_oracle_on_unrolled_programs() {
        use halo_fuzz::gen::{build, gen_spec};
        let mut placed = 0;
        // The corpus is shallow: at the paper's L = 16 nothing needs a
        // reset, so the budget drops to 3 and 2.
        for (filter, max_level) in [(96, 3), (2, 3), (96, 2), (2, 2)] {
            let mut o = CompileOptions::new(halo_fuzz::diff::fuzz_params());
            o.placement_filter = filter;
            o.params.max_level = max_level;
            for seed in 0..48 {
                let spec = gen_spec(seed);
                for k in 2..=8 {
                    let mut f = build(&spec, true);
                    crate::peel::peel_loops(&mut f);
                    crate::unroll::unroll_loops_with_factor(&mut f, k);
                    crate::dce::run(&mut f);
                    crate::scale::assign_levels(&mut f, &o).expect("unrolled program levels");
                }
                let mut f = build(&spec, false);
                crate::dacapo::full_unroll(&mut f).expect("constant trips unroll");
                crate::dce::run(&mut f);
                crate::scale::assign_levels(&mut f, &o).expect("unrolled program levels");
                placed += f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
            }
        }
        assert!(
            placed >= 100,
            "only {placed} resets placed on straight-line programs"
        );
    }

    fn prep(f: &mut Function, x: ValueId, level: u32) {
        f.set_ty(x, CtType::cipher(level));
        // Normalize plain values so sim sees concrete types.
    }

    #[test]
    fn shallow_block_needs_no_bootstraps() {
        let (mut f, x) = chain(5);
        prep(&mut f, x, 16);
        let e = f.entry;
        let n = ensure_feasible(&mut f, e, &opts()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn deep_chain_gets_minimal_resets() {
        // Depth 20 at budget 16: one reset suffices (16 + 16 ≥ 20), and
        // exactly one value is live at every point of a pure chain.
        let (mut f, x) = chain(20);
        prep(&mut f, x, 16);
        let e = f.entry;
        let n = ensure_feasible(&mut f, e, &opts()).unwrap();
        assert_eq!(n, 1, "a single live value needs a single bootstrap");
        // The block must now simulate cleanly.
        let ops = f.block(f.entry).ops.clone();
        let mut types = SimTypes::new(&f);
        let sim = sim_range(&f, &ops, &mut types, &CostModel::new(), 16);
        assert_eq!(sim.underflow_at, None);
    }

    #[test]
    fn very_deep_chain_gets_multiple_resets() {
        let (mut f, x) = chain(50);
        prep(&mut f, x, 16);
        let e = f.entry;
        let n = ensure_feasible(&mut f, e, &opts()).unwrap();
        // 50 levels of depth at a 16-level budget: ≥ ⌈(50−16)/16⌉ = 3.
        assert!(n >= 3, "need at least 3 resets, got {n}");
        assert!(n <= 4, "should not over-place, got {n}");
    }

    #[test]
    fn placement_prefers_points_with_fewer_live_values() {
        // Two parallel deep chains that merge: points inside one chain have
        // 2 live values; the point after the merge has 1. A reset after the
        // merge costs half as much.
        let mut b = FunctionBuilder::new("merge", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let mut u = x;
        let mut v = y;
        for _ in 0..6 {
            u = b.mul(u, u);
            v = b.mul(v, v);
        }
        let mut m = b.mul(u, v); // depth 7
        for _ in 0..6 {
            m = b.mul(m, m); // depth 13 total
        }
        b.ret(&[m]);
        let mut f = b.finish();
        f.set_ty(x, CtType::cipher(8));
        f.set_ty(y, CtType::cipher(8));
        // Budget 8: the chains need a reset somewhere; after the merge only
        // one value is live.
        let mut o = opts();
        o.params.max_level = 8;
        let e = f.entry;
        let n = ensure_feasible(&mut f, e, &o).unwrap();
        // The cheap plan bootstraps the single merged value once (plus
        // possibly nothing else); bootstrapping inside the parallel zone
        // would cost 2 per reset.
        assert!(n <= 2, "expected cheap post-merge reset(s), got {n}");
        let boots = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
        assert_eq!(boots, n);
    }

    #[test]
    fn impossible_depth_reports_infeasible() {
        // depth budget 2, but a single mult chain of depth 40 with BOTH
        // operands of every mult being the (single) live value is still
        // segmentable... a truly infeasible case needs one op that itself
        // exceeds the budget — impossible for mult (depth 1). So instead:
        // budget 0 — no mult is ever legal and no bootstrap target ≥ 1
        // exists... ensure the widened filter terminates with an error.
        let (mut f, x) = chain(3);
        prep(&mut f, x, 0);
        let mut o = opts();
        o.params.max_level = 0;
        let e = f.entry;
        let err = ensure_feasible(&mut f, e, &o).unwrap_err();
        assert!(matches!(err, CompileError::DepthInfeasible { .. }));
    }
}
