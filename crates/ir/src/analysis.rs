//! Dataflow analyses: def-use, live-ins, liveness, status propagation,
//! multiplicative depth, and rotation fan-outs.

use std::collections::{HashMap, HashSet};

use crate::func::{BlockId, Function, OpId, ValueId, ValueKind};
use crate::op::Opcode;
use crate::types::Status;

/// The op defining `v`, or `None` for block arguments.
#[must_use]
pub fn def_op(f: &Function, v: ValueId) -> Option<OpId> {
    match f.value(v).kind {
        ValueKind::OpResult { op, .. } => Some(op),
        ValueKind::BlockArg { .. } => None,
    }
}

/// Values used inside `block` (recursively) but defined outside it — the
/// loop's *live-in* set when `block` is a loop body.
#[must_use]
pub fn live_ins(f: &Function, block: BlockId) -> Vec<ValueId> {
    let mut defined: HashSet<ValueId> = HashSet::new();
    let mut used: Vec<ValueId> = Vec::new();
    let mut seen_used: HashSet<ValueId> = HashSet::new();
    collect_block(f, block, &mut defined, &mut used, &mut seen_used);
    used.into_iter().filter(|v| !defined.contains(v)).collect()
}

fn collect_block(
    f: &Function,
    block: BlockId,
    defined: &mut HashSet<ValueId>,
    used: &mut Vec<ValueId>,
    seen_used: &mut HashSet<ValueId>,
) {
    for &a in &f.block(block).args {
        defined.insert(a);
    }
    for &op_id in &f.block(block).ops {
        let op = f.op(op_id);
        for &operand in &op.operands {
            if seen_used.insert(operand) {
                used.push(operand);
            }
        }
        if let Opcode::For { body, .. } = op.opcode {
            collect_block(f, body, defined, used, seen_used);
        }
        for &r in &op.results {
            defined.insert(r);
        }
    }
}

/// Backward liveness over one straight-line block (loops treated as opaque
/// ops): `live[i]` is the set of values live *before* op `i`, and
/// `live[n]` (one past the end) is the live-out seed.
///
/// `live_out` seeds the values needed after the block (e.g. nothing for a
/// terminated block, since the terminator's operands are handled like any
/// op's).
#[must_use]
pub fn liveness(
    f: &Function,
    block: BlockId,
    live_out: &HashSet<ValueId>,
) -> Vec<HashSet<ValueId>> {
    let ops = &f.block(block).ops;
    let mut live = vec![HashSet::new(); ops.len() + 1];
    live[ops.len()] = live_out.clone();
    for i in (0..ops.len()).rev() {
        let op = f.op(ops[i]);
        let mut set = live[i + 1].clone();
        for &r in &op.results {
            set.remove(&r);
        }
        for &operand in &op.operands {
            set.insert(operand);
        }
        // Values referenced inside a nested loop body from the outer scope
        // must stay live across the loop op.
        if let Opcode::For { body, .. } = op.opcode {
            for v in live_ins(f, body) {
                // Exclude the loop's own inits (already counted as operands).
                set.insert(v);
            }
        }
        live[i] = set;
    }
    live
}

/// Propagates encryption statuses to a fixpoint across the whole function.
///
/// Rules: arithmetic results take the join of operand statuses; loop body
/// arguments take the join of the corresponding init and yield statuses
/// (a plain-in/cipher-out carried variable is the paper's Challenge A-1);
/// loop results take the body-arg status. Level-management op results keep
/// their operand's status. Returns `true` if anything changed.
pub fn propagate_statuses(f: &mut Function) -> bool {
    let mut changed_any = false;
    loop {
        let mut changed = false;
        propagate_block(f, f.entry, &mut changed);
        changed_any |= changed;
        if !changed {
            break;
        }
    }
    changed_any
}

fn set_status(f: &mut Function, v: ValueId, s: Status, changed: &mut bool) {
    let mut ty = f.ty(v);
    if ty.status != s {
        ty.status = s;
        f.set_ty(v, ty);
        *changed = true;
    }
}

fn propagate_block(f: &mut Function, block: BlockId, changed: &mut bool) {
    let ops = f.block(block).ops.clone();
    for op_id in ops {
        let op = f.op(op_id).clone();
        match &op.opcode {
            o if o.is_arith() => {
                let s = op
                    .operands
                    .iter()
                    .map(|&v| f.ty(v).status)
                    .fold(Status::Plain, Status::join);
                set_status(f, op.results[0], s, changed);
            }
            Opcode::Rescale | Opcode::ModSwitch { .. } | Opcode::Bootstrap { .. } => {
                let s = f.ty(op.operands[0]).status;
                set_status(f, op.results[0], s, changed);
            }
            Opcode::Encrypt => {
                set_status(f, op.results[0], Status::Cipher, changed);
            }
            Opcode::For { body, .. } => {
                let body = *body;
                // args ← join(init, yield); results ← arg.
                let args = f.block(body).args.clone();
                let yields = f
                    .terminator(body)
                    .map(|t| f.op(t).operands.clone())
                    .unwrap_or_default();
                for (k, &arg) in args.iter().enumerate() {
                    let mut s = f.ty(op.operands[k]).status;
                    if let Some(&y) = yields.get(k) {
                        s = s.join(f.ty(y).status);
                    }
                    s = s.join(f.ty(arg).status);
                    set_status(f, arg, s, changed);
                }
                propagate_block(f, body, changed);
                let yields = f
                    .terminator(body)
                    .map(|t| f.op(t).operands.clone())
                    .unwrap_or_default();
                for (k, &arg) in args.iter().enumerate() {
                    let mut s = f.ty(arg).status;
                    if let Some(&y) = yields.get(k) {
                        s = s.join(f.ty(y).status);
                    }
                    set_status(f, arg, s, changed);
                    set_status(f, op.results[k], s, changed);
                }
            }
            _ => {}
        }
    }
}

/// Multiplicative depth of every value in `block` (recursively), counted
/// from the block's leaves (args, live-ins, constants) along def-use chains:
/// a multiplication's depth is `max(operand depths) + 1`; every other op
/// passes the max through. This is the paper's §6.2 depth metric.
#[must_use]
pub fn mult_depth(f: &Function, block: BlockId) -> HashMap<ValueId, u32> {
    let mut depth: HashMap<ValueId, u32> = HashMap::new();
    depth_block(f, block, &mut depth);
    depth
}

fn value_depth(depth: &HashMap<ValueId, u32>, v: ValueId) -> u32 {
    depth.get(&v).copied().unwrap_or(0)
}

fn depth_block(f: &Function, block: BlockId, depth: &mut HashMap<ValueId, u32>) {
    for &op_id in &f.block(block).ops {
        let op = f.op(op_id);
        let operand_max = op
            .operands
            .iter()
            .map(|&v| value_depth(depth, v))
            .max()
            .unwrap_or(0);
        match &op.opcode {
            Opcode::MultCC | Opcode::MultCP => {
                // Plain-only multiplications fold at encode time and never
                // consume ciphertext levels.
                if f.ty(op.results[0]).status == Status::Cipher {
                    let cipher_max = op
                        .operands
                        .iter()
                        .filter(|&&v| f.ty(v).status == Status::Cipher)
                        .map(|&v| value_depth(depth, v))
                        .max()
                        .unwrap_or(0);
                    depth.insert(op.results[0], cipher_max + 1);
                } else {
                    depth.insert(op.results[0], 0);
                }
            }
            Opcode::Bootstrap { .. } | Opcode::Encrypt => {
                // Bootstrapping (or fresh encryption) resets the
                // consumable-depth clock.
                depth.insert(op.results[0], 0);
            }
            Opcode::For { body, .. } => {
                // Inner loops are level-resetting black boxes (§5.3): their
                // results start a fresh chain.
                depth_block(f, *body, depth);
                for &r in &op.results {
                    depth.insert(r, 0);
                }
            }
            _ => {
                for &r in &op.results {
                    if f.ty(r).status == Status::Cipher {
                        depth.insert(r, operand_max);
                    } else {
                        depth.insert(r, 0);
                    }
                }
            }
        }
    }
}

/// The maximum multiplicative depth reached anywhere in `block` — the
/// `depth_max` of the paper's unrolling-factor formula
/// `factor = ⌊depth_limit / depth_max⌋`.
#[must_use]
pub fn max_mult_depth(f: &Function, block: BlockId) -> u32 {
    mult_depth(f, block).values().copied().max().unwrap_or(0)
}

/// Rotation fan-outs of `block`: `rotate` ops that share a cipher-typed
/// source value, in block order, one group per source (ordered by the
/// group's first op). Only groups of two or more are kept — a lone
/// rotation gains nothing from hoisting. The executor runs each group as
/// one hoisted `rotate_batch`, and the cost estimate prices it at the
/// amortized batch cost, so both read the groups from here.
///
/// Uses only the checked accessors: the executor calls it before it has
/// validated the block's ops, so a dangling id is skipped, never a panic.
#[must_use]
pub fn rotation_fanouts(f: &Function, block: BlockId) -> Vec<Vec<OpId>> {
    let mut groups: Vec<Vec<OpId>> = Vec::new();
    let mut by_src: HashMap<ValueId, usize> = HashMap::new();
    let ops = f.try_block(block).map_or(&[][..], |b| &b.ops[..]);
    for &id in ops {
        let Some(op) = f.try_op(id) else { continue };
        if !matches!(op.opcode, Opcode::Rotate { .. }) {
            continue;
        }
        let Some(&src) = op.operands.first() else {
            continue;
        };
        if f.try_ty(src).is_some_and(|t| t.status == Status::Cipher) {
            let g = *by_src.entry(src).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(id);
        }
    }
    groups.retain(|g| g.len() >= 2);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FunctionBuilder;
    use crate::op::TripCount;

    #[test]
    fn live_ins_of_loop_body() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let w = b.input_cipher("w");
        let r = b.for_loop(TripCount::Constant(3), &[w], 4, |b, a| {
            let p = b.mul(x, a[0]);
            vec![b.add(p, y)]
        });
        b.ret(&r);
        let f = b.finish();
        let body = f.for_body(f.loops_in_block(f.entry)[0]);
        let li = live_ins(&f, body);
        assert!(li.contains(&x));
        assert!(li.contains(&y));
        assert!(!li.contains(&w), "init arg is not a live-in of the body");
        assert_eq!(li.len(), 2);
    }

    #[test]
    fn status_propagation_finds_challenge_a1() {
        // Paper Figure 2, Challenge A-1: `a` enters plain, leaves cipher.
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let a0 = b.const_splat(1.0); // plain initial value of `a`
        let r = b.for_loop(TripCount::Constant(4), &[y, a0], 4, |b, args| {
            let (y, a) = (args[0], args[1]);
            let x2 = b.mul(x, y);
            let y2 = b.mul(x2, x2);
            let a2 = b.add(a, y2); // `a` becomes cipher here
            vec![b.mul(y2, y2), a2]
        });
        b.ret(&r);
        let mut f = b.finish();
        let body = f.for_body(f.loops_in_block(f.entry)[0]);
        // Before propagation, `a`'s body arg is plain (as traced).
        assert_eq!(f.ty(f.block(body).args[1]).status, Status::Plain);
        propagate_statuses(&mut f);
        // After propagation, the join reveals the mismatch: arg is cipher
        // while the init is still plain — exactly what peeling must fix.
        assert_eq!(f.ty(f.block(body).args[1]).status, Status::Cipher);
        assert_eq!(f.ty(f.inputs()[0]).status, Status::Cipher);
    }

    #[test]
    fn mult_depth_matches_paper_example() {
        // Paper §6.2: x2 = x*y has depth 1; y' = x2*x2 depth 2; a' = a+y'
        // depth 2 → loop depth_max = 2.
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let a = b.input_cipher("a");
        let r = b.for_loop(TripCount::Constant(4), &[y, a], 4, |b, args| {
            let x2 = b.mul(x, args[0]);
            let y2 = b.mul(x2, x2);
            let a2 = b.add(args[1], y2);
            vec![y2, a2]
        });
        b.ret(&r);
        let f = b.finish();
        let body = f.for_body(f.loops_in_block(f.entry)[0]);
        assert_eq!(max_mult_depth(&f, body), 2);
    }

    #[test]
    fn bootstrap_resets_depth() {
        let mut f = Function::new("t", 8);
        let e = f.entry;
        let x = f.push_op1(
            e,
            Opcode::Input { name: "x".into() },
            vec![],
            crate::types::CtType::cipher_unset(),
        );
        let m1 = f.push_op1(
            e,
            Opcode::MultCC,
            vec![x, x],
            crate::types::CtType::cipher_unset(),
        );
        let bs = f.push_op1(
            e,
            Opcode::Bootstrap { target: 16 },
            vec![m1],
            crate::types::CtType::cipher_unset(),
        );
        let m2 = f.push_op1(
            e,
            Opcode::MultCC,
            vec![bs, bs],
            crate::types::CtType::cipher_unset(),
        );
        f.push_op(e, Opcode::Return, vec![m2], &[]);
        let d = mult_depth(&f, e);
        assert_eq!(d[&m1], 1);
        assert_eq!(d[&bs], 0);
        assert_eq!(d[&m2], 1);
        assert_eq!(max_mult_depth(&f, e), 1);
    }

    #[test]
    fn rotation_fanouts_group_cipher_sources_in_block_order() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let p = b.input_plain("p");
        let ry1 = b.rotate(y, 1);
        let rx1 = b.rotate(x, 1);
        let lone = b.rotate(ry1, 2); // the only rotation of its source
        let rx2 = b.rotate(x, 2);
        let rp1 = b.rotate(p, 1); // plaintext sources fold at run time
        let rp2 = b.rotate(p, 2);
        let ry2 = b.rotate(y, 3);
        let s = b.add(rx1, rx2);
        let s = b.add(s, lone);
        let s = b.add(s, ry2);
        let s = b.mul(s, rp1);
        let s = b.mul(s, rp2);
        b.ret(&[s]);
        let f = b.finish();
        let def = |v| def_op(&f, v).unwrap();
        assert_eq!(
            rotation_fanouts(&f, f.entry),
            vec![vec![def(ry1), def(ry2)], vec![def(rx1), def(rx2)]]
        );
        // A dangling block has no fan-outs.
        assert!(rotation_fanouts(&f, BlockId(99)).is_empty());
    }

    #[test]
    fn liveness_straight_line() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let s = b.add(x, y);
        let t = b.mul(s, s);
        b.ret(&[t]);
        let f = b.finish();
        let live = liveness(&f, f.entry, &HashSet::new());
        // Before the return, t is live; before the mul, s; before the add,
        // x and y.
        let ops = &f.block(f.entry).ops;
        assert_eq!(ops.len(), 5);
        assert!(live[4].contains(&t));
        assert!(live[3].contains(&s) && !live[3].contains(&t));
        assert!(live[2].contains(&x) && live[2].contains(&y));
    }
}
