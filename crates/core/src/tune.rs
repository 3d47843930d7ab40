//! Bootstrap target-level tuning (paper §6.3, Solution B-3).
//!
//! A `modswitch` downstream of a `bootstrap` means the bootstrap restored
//! levels nobody used; since bootstrap latency grows with the target level
//! (Table 3), lowering the target to what the consumers actually need is a
//! pure win. The pass:
//!
//! 1. traces the dataflow region *affected* by each bootstrap's result,
//!    stopping where a `modswitch` (which can absorb the reduction by
//!    shrinking its `down`) or another `bootstrap` (level-agnostic input)
//!    ends the chain;
//! 2. computes the largest uniform level reduction `δ` (the paper's
//!    `downFactor`) the region tolerates: every absorbed `modswitch`
//!    bounds it by its `down`, every `rescale`/`mult` in the region by
//!    `level − 1`, and region boundaries that cannot absorb anything
//!    (yields/returns/loop inits fed directly) force `δ = 0`;
//! 3. bootstraps whose regions meet at a binary op are *grouped* (their
//!    targets must drop in lockstep) via union-find;
//! 4. applies the reduction: targets, affected levels, and the absorbing
//!    modswitch `down`s all shift by `δ`; where the unaffected side of a
//!    binary op arrives through its own single-use `modswitch`, that
//!    modswitch's `down` grows by `δ` instead.
//!
//! Runs on fully typed IR and preserves typedness (re-verified by the
//! pipeline).

use std::collections::HashMap;

use halo_ir::analysis::def_op;
use halo_ir::func::{BlockId, Function, OpId, ValueId};
use halo_ir::op::Opcode;
use halo_ir::types::Status;

/// How the unaffected side of a binary op follows a lowered partner level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OtherSide {
    /// Its defining single-use `modswitch` grows its `down` by δ.
    Boost(OpId),
    /// A fresh `modswitch down δ` is inserted feeding this operand slot.
    Insert {
        /// The binary op consuming the unaffected value.
        consumer: OpId,
        /// Which operand slot to rewire.
        operand_index: usize,
    },
}

/// Union-find over tuning groups with per-root metadata.
struct Groups {
    parent: Vec<usize>,
    slack: Vec<u32>,
    bootstraps: Vec<Vec<OpId>>,
    affected: Vec<Vec<ValueId>>,
    absorb_ms: Vec<Vec<OpId>>,
    others: Vec<Vec<OtherSide>>,
}

impl Groups {
    fn new() -> Groups {
        Groups {
            parent: Vec::new(),
            slack: Vec::new(),
            bootstraps: Vec::new(),
            affected: Vec::new(),
            absorb_ms: Vec::new(),
            others: Vec::new(),
        }
    }

    fn make(&mut self, bootstrap: OpId, initial_slack: u32) -> usize {
        let g = self.parent.len();
        self.parent.push(g);
        self.slack.push(initial_slack);
        self.bootstraps.push(vec![bootstrap]);
        self.affected.push(Vec::new());
        self.absorb_ms.push(Vec::new());
        self.others.push(Vec::new());
        g
    }

    fn find(&mut self, mut g: usize) -> usize {
        while self.parent[g] != g {
            self.parent[g] = self.parent[self.parent[g]];
            g = self.parent[g];
        }
        g
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (keep, merge) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[merge] = keep;
        self.slack[keep] = self.slack[keep].min(self.slack[merge]);
        let moved = std::mem::take(&mut self.bootstraps[merge]);
        self.bootstraps[keep].extend(moved);
        let moved = std::mem::take(&mut self.affected[merge]);
        self.affected[keep].extend(moved);
        let moved = std::mem::take(&mut self.absorb_ms[merge]);
        self.absorb_ms[keep].extend(moved);
        let moved = std::mem::take(&mut self.others[merge]);
        self.others[keep].extend(moved);
        keep
    }

    fn cut(&mut self, g: usize, bound: u32) {
        let r = self.find(g);
        self.slack[r] = self.slack[r].min(bound);
    }
}

/// Tunes bootstrap targets across the function. Returns the number of
/// bootstraps whose target was lowered.
pub fn tune_bootstrap_targets(f: &mut Function) -> usize {
    let mut groups = Groups::new();
    let mut group_of: HashMap<ValueId, usize> = HashMap::new();
    let uses = use_counts(f);
    analyze_block(f, f.entry, &uses, &mut groups, &mut group_of);

    // Apply each root group's reduction.
    let mut tuned = 0;
    let roots: Vec<usize> = (0..groups.parent.len())
        .filter(|&g| groups.parent[g] == g)
        .collect();
    for r in roots {
        let delta = groups.slack[r];
        if delta == 0 {
            continue;
        }
        for &b in &groups.bootstraps[r] {
            if let Opcode::Bootstrap { target } = &mut f.op_mut(b).opcode {
                *target -= delta;
                tuned += 1;
            }
            let res = f.op(b).results[0];
            let t = f.ty(res);
            f.set_ty(res, t.at_level(t.level - delta));
        }
        for &v in &groups.affected[r] {
            let t = f.ty(v);
            f.set_ty(v, t.at_level(t.level - delta));
        }
        for &m in &groups.absorb_ms[r] {
            if let Opcode::ModSwitch { down } = &mut f.op_mut(m).opcode {
                *down -= delta;
            }
        }
        let others = groups.others[r].clone();
        for other in others {
            match other {
                OtherSide::Boost(m) => {
                    if let Opcode::ModSwitch { down } = &mut f.op_mut(m).opcode {
                        *down += delta;
                    }
                    let res = f.op(m).results[0];
                    let t = f.ty(res);
                    f.set_ty(res, t.at_level(t.level - delta));
                }
                OtherSide::Insert {
                    consumer,
                    operand_index,
                } => {
                    let v = f.op(consumer).operands[operand_index];
                    let t = f.ty(v);
                    let (block, pos) = find_op(f, consumer).expect("consumer op reachable");
                    let ms = f.insert_op1(
                        block,
                        pos,
                        Opcode::ModSwitch { down: delta },
                        vec![v],
                        t.at_level(t.level - delta),
                    );
                    f.op_mut(consumer).operands[operand_index] = ms;
                }
            }
        }
    }
    if tuned > 0 {
        remove_zero_modswitches(f, f.entry);
    }
    tuned + elide_bootstraps(f, f.entry)
}

/// Removes bootstraps whose operand already has at least the (tuned)
/// target level: `bootstrap(v, T)` with `level(v) ≥ T` is equivalent to a
/// `modswitch` (or to `v` itself at equality). These arise when a
/// placement reset conservatively bootstrapped every live ciphertext,
/// including ones still near the top of the modulus chain.
fn elide_bootstraps(f: &mut Function, block: BlockId) -> usize {
    let mut elided = 0;
    let ops = f.block(block).ops.clone();
    for op_id in ops {
        match f.op(op_id).opcode.clone() {
            Opcode::Bootstrap { target } => {
                let v = f.op(op_id).operands[0];
                let t = f.ty(v);
                if t.status != Status::Cipher || t.degree != 1 || t.level < target {
                    continue;
                }
                if t.level == target {
                    let result = f.op(op_id).results[0];
                    f.replace_uses(result, v, None);
                    let pos = f.position_in_block(block, op_id).expect("op in block");
                    f.block_mut(block).ops.remove(pos);
                } else {
                    f.op_mut(op_id).opcode = Opcode::ModSwitch {
                        down: t.level - target,
                    };
                }
                elided += 1;
            }
            Opcode::For { body, .. } => elided += elide_bootstraps(f, body),
            _ => {}
        }
    }
    elided
}

/// Operand slots per value over every reachable op, counted in one walk:
/// `uses[v]` is `f.uses_of(v).len()`.
fn use_counts(f: &Function) -> Vec<u32> {
    let mut uses = vec![0u32; f.num_values()];
    f.walk_ops(|_, op| {
        for &v in &f.op(op).operands {
            uses[v.0 as usize] += 1;
        }
    });
    uses
}

/// Walks one block in execution order, growing the affected regions.
/// `uses` holds [`use_counts`] of `f`.
fn analyze_block(
    f: &Function,
    block: BlockId,
    uses: &[u32],
    groups: &mut Groups,
    group_of: &mut HashMap<ValueId, usize>,
) {
    let ops = f.block(block).ops.clone();
    for op_id in ops {
        let op = f.op(op_id).clone();
        let operand_groups: Vec<Option<usize>> = op
            .operands
            .iter()
            .map(|v| group_of.get(v).map(|&g| groups.find(g)))
            .collect();
        match &op.opcode {
            Opcode::Bootstrap { target } => {
                // An affected operand is absorbed (bootstrap accepts any
                // level ≥ 0): the group may drop by up to the operand level.
                if let Some(g) = operand_groups[0] {
                    groups.cut(g, f.ty(op.operands[0]).level);
                }
                // The result roots a fresh group; the target itself bounds
                // the reduction (target must stay ≥ 1).
                let g = groups.make(op_id, target.saturating_sub(1));
                group_of.insert(op.results[0], g);
            }
            Opcode::ModSwitch { down } => {
                if let Some(g) = operand_groups[0] {
                    // Absorbing modswitch: shrinks by δ; result unaffected.
                    groups.cut(g, *down);
                    let r = groups.find(g);
                    groups.absorb_ms[r].push(op_id);
                }
            }
            Opcode::Rescale => {
                if let Some(g) = operand_groups[0] {
                    groups.cut(g, f.ty(op.operands[0]).level - 1);
                    mark(groups, group_of, g, op.results[0]);
                }
            }
            Opcode::Negate | Opcode::Rotate { .. } => {
                if let Some(g) = operand_groups[0] {
                    mark(groups, group_of, g, op.results[0]);
                }
            }
            Opcode::AddCC | Opcode::SubCC | Opcode::MultCC => {
                let is_mult = op.opcode.is_mult();
                match (operand_groups[0], operand_groups[1]) {
                    (None, None) => {}
                    (Some(ga), Some(gb)) => {
                        let g = groups.union(ga, gb);
                        if is_mult {
                            groups.cut(g, f.ty(op.operands[0]).level.saturating_sub(1));
                        }
                        mark(groups, group_of, g, op.results[0]);
                    }
                    (Some(g), None) | (None, Some(g)) => {
                        // The unaffected side follows the lowered level:
                        // either its own single-use modswitch deepens, or a
                        // fresh per-use modswitch is inserted.
                        let other_idx = usize::from(operand_groups[0].is_some());
                        let other = op.operands[other_idx];
                        if f.ty(other).status == Status::Cipher {
                            let r = groups.find(g);
                            groups.cut(r, f.ty(other).level);
                            match boostable_modswitch(f, uses, other) {
                                Some(ms) => groups.others[r].push(OtherSide::Boost(ms)),
                                None => groups.others[r].push(OtherSide::Insert {
                                    consumer: op_id,
                                    operand_index: other_idx,
                                }),
                            }
                            if is_mult {
                                groups.cut(g, f.ty(op.operands[0]).level.saturating_sub(1));
                            }
                            mark(groups, group_of, g, op.results[0]);
                        } else {
                            groups.cut(g, 0);
                        }
                    }
                }
            }
            Opcode::AddCP | Opcode::SubCP | Opcode::MultCP => {
                if let Some(g) = operand_groups[0] {
                    if op.opcode.is_mult() {
                        groups.cut(g, f.ty(op.operands[0]).level.saturating_sub(1));
                    }
                    mark(groups, group_of, g, op.results[0]);
                }
            }
            Opcode::Yield | Opcode::Return => {
                // Region reached a boundary with no absorbing modswitch:
                // the boundary's level is part of the loop/function type
                // and must not move.
                for g in operand_groups.into_iter().flatten() {
                    groups.cut(g, 0);
                }
            }
            Opcode::For { body, .. } => {
                for g in operand_groups.into_iter().flatten() {
                    groups.cut(g, 0);
                }
                analyze_block(f, *body, uses, groups, group_of);
            }
            Opcode::Input { .. } | Opcode::Const(_) | Opcode::Encrypt => {}
        }
    }
}

fn mark(groups: &mut Groups, group_of: &mut HashMap<ValueId, usize>, g: usize, v: ValueId) {
    let r = groups.find(g);
    groups.affected[r].push(v);
    group_of.insert(v, r);
}

/// Locates the block and position of a reachable op.
fn find_op(f: &Function, target: OpId) -> Option<(BlockId, usize)> {
    let mut found = None;
    f.walk_ops(|block, op| {
        if op == target && found.is_none() {
            found = Some(block);
        }
    });
    let block = found?;
    f.position_in_block(block, target).map(|pos| (block, pos))
}

/// The defining `modswitch` of `v`, if it is single-use and cipher (so its
/// `down` can safely grow to meet a lowered partner level). `uses` holds
/// [`use_counts`] of `f`.
fn boostable_modswitch(f: &Function, uses: &[u32], v: ValueId) -> Option<OpId> {
    if f.ty(v).status != Status::Cipher {
        return None;
    }
    let d = def_op(f, v)?;
    if !matches!(f.op(d).opcode, Opcode::ModSwitch { .. }) {
        return None;
    }
    (uses[v.0 as usize] == 1).then_some(d)
}

/// Removes `modswitch` ops whose `down` was tuned to zero.
fn remove_zero_modswitches(f: &mut Function, block: BlockId) {
    let ops = f.block(block).ops.clone();
    for op_id in ops {
        match f.op(op_id).opcode.clone() {
            Opcode::ModSwitch { down: 0 } => {
                let operand = f.op(op_id).operands[0];
                let result = f.op(op_id).results[0];
                f.replace_uses(result, operand, None);
                let pos = f.position_in_block(block, op_id).expect("op in block");
                f.block_mut(block).ops.remove(pos);
            }
            Opcode::For { body, .. } => remove_zero_modswitches(f, body),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompileOptions;
    use crate::scale::assign_levels;
    use halo_ckks::CkksParams;
    use halo_ir::op::TripCount;
    use halo_ir::verify::verify_typed;
    use halo_ir::FunctionBuilder;

    fn opts() -> CompileOptions {
        CompileOptions::new(CkksParams::test_small())
    }

    fn bootstrap_targets(f: &Function) -> Vec<u32> {
        let mut t = Vec::new();
        f.walk_ops(|_, o| {
            if let Opcode::Bootstrap { target } = f.op(o).opcode {
                t.push(target);
            }
        });
        t
    }

    #[test]
    fn shallow_loop_body_tunes_head_bootstrap_to_its_depth() {
        // Paper Figure 3, Challenge/Solution B-3: body needs 7 levels but
        // bootstrap restores L; tuning drops the target to the need.
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
            let mut v = args[0];
            for _ in 0..7 {
                v = b.mul(v, x);
            }
            vec![v]
        });
        b.ret(&r);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        assert_eq!(bootstrap_targets(&f), vec![16]);
        let tuned = tune_bootstrap_targets(&mut f);
        assert_eq!(tuned, 1);
        // Body multiplies w (carried) by x (live-in at 16): x forces the
        // mult levels via its own modswitches, which the pass boosts.
        // depth 7 → target 7... but the chain's last value is floored by a
        // modswitch, giving slack L − 7 = 9: target 16 − 9 = 7.
        assert_eq!(bootstrap_targets(&f), vec![7]);
        verify_typed(&f, 16).unwrap();
    }

    #[test]
    fn fully_consumed_budget_is_not_tuned() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
            let mut v = args[0];
            for _ in 0..16 {
                v = b.mul(v, x);
            }
            vec![v]
        });
        b.ret(&r);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        let tuned = tune_bootstrap_targets(&mut f);
        assert_eq!(tuned, 0, "no wasted levels, nothing to tune");
        assert_eq!(bootstrap_targets(&f), vec![16]);
    }

    #[test]
    fn grouped_bootstraps_tune_in_lockstep() {
        // Two carried variables whose chains meet at an add: both head
        // bootstraps must drop together.
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y0 = b.input_cipher("y0");
        let a0 = b.input_cipher("a0");
        let r = b.for_loop(TripCount::dynamic("n"), &[y0, a0], 4, |b, args| {
            let y2 = b.mul(args[0], x); // depth 1
            let a2 = b.mul(args[1], x); // depth 1
            let s = b.add(y2, a2);
            let s2 = b.mul(s, s); // depth 2
            vec![s2, a2]
        });
        b.ret(&r);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        assert_eq!(bootstrap_targets(&f), vec![16, 16]);
        let tuned = tune_bootstrap_targets(&mut f);
        assert_eq!(tuned, 2);
        let targets = bootstrap_targets(&f);
        assert_eq!(targets[0], targets[1], "grouped targets move together");
        assert!(targets[0] < 16 && targets[0] >= 2, "targets = {targets:?}");
        verify_typed(&f, 16).unwrap();
    }

    #[test]
    fn a_modswitch_feeding_both_operands_of_one_op_counts_two_uses() {
        use halo_ir::types::CtType;
        let mut f = Function::new("t", 8);
        let e = f.entry;
        let x = f.push_op1(
            e,
            Opcode::Input { name: "x".into() },
            vec![],
            CtType::cipher(16),
        );
        let twice = f.push_op1(
            e,
            Opcode::ModSwitch { down: 2 },
            vec![x],
            CtType::cipher(14),
        );
        let once = f.push_op1(
            e,
            Opcode::ModSwitch { down: 2 },
            vec![x],
            CtType::cipher(14),
        );
        let s = f.push_op1(e, Opcode::AddCC, vec![twice, twice], CtType::cipher(14));
        let r = f.push_op1(e, Opcode::AddCC, vec![s, once], CtType::cipher(14));
        f.push_op(e, Opcode::Return, vec![r], &[]);
        let uses = use_counts(&f);
        assert_eq!(uses[twice.0 as usize], 2, "one op, two operand slots");
        assert_eq!(boostable_modswitch(&f, &uses, twice), None);
        assert_eq!(uses[once.0 as usize], 1);
        assert_eq!(
            boostable_modswitch(&f, &uses, once),
            def_op(&f, once),
            "a single-use modswitch can deepen"
        );
    }

    #[test]
    fn tuning_preserves_types_on_straight_line_resets() {
        // An in-body placement bootstrap near the end of a body wastes
        // levels (the paper's Logistic/K-means/SVM case).
        let mut b = FunctionBuilder::new("t", 8);
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
            let mut v = args[0];
            for _ in 0..18 {
                v = b.mul(v, v); // depth 18 > 16 → one in-body reset
            }
            vec![v]
        });
        b.ret(&r);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        let before = bootstrap_targets(&f);
        assert_eq!(before.len(), 2);
        let tuned = tune_bootstrap_targets(&mut f);
        assert!(tuned >= 1, "the late reset has unused slack");
        verify_typed(&f, 16).unwrap();
        let after = bootstrap_targets(&f);
        assert!(after.iter().sum::<u32>() < before.iter().sum::<u32>());
    }
}
