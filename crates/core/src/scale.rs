//! Materializing scale management + loop type matching (Algorithm 1).
//!
//! [`assign_levels`] turns a traced (level-free) program into a fully typed
//! one by walking every block in execution order and, per op, applying the
//! [`crate::levelsim::plan_op`] plan: inserting `rescale`/`modswitch` ops,
//! rewriting operands, and stamping result types.
//!
//! `For` ops get the paper's loop-enabled code generation (§5.2):
//!
//! 1. cipher init operands are coerced to the floor `(level 0, degree 1)`
//!    — the "modswitch the loop inputs" of Algorithm 1 lines 6–8;
//! 2. loop-carried body arguments are typed at the floor and a
//!    `bootstrap(L)` is inserted for each at the body head — lines 13–16;
//! 3. the body is materialized recursively (with DaCapo-style in-body
//!    placement first, §5.3, if its depth exceeds the budget);
//! 4. yields are coerced back to the floor — lines 9–11;
//! 5. the loop results are typed at the floor, making the loop
//!    *type-matched*: init ≡ arg ≡ yield ≡ result for every carried
//!    variable.

use std::collections::HashMap;

use halo_ckks::CostModel;
use halo_ir::analysis::{live_ins, propagate_statuses};
use halo_ir::func::{BlockId, Function, OpId, ValueId};
use halo_ir::op::Opcode;
use halo_ir::types::{CtType, Status};
use halo_ir::verify::verify_typed;

use crate::config::CompileOptions;
use crate::error::CompileError;
use crate::levelsim::{plan_op, StepPlan, TypeEnv, FLOOR_LEVEL};
use crate::placement::ensure_feasible;

struct FnTypes<'a>(&'a Function);

impl TypeEnv for FnTypes<'_> {
    fn get(&self, v: ValueId) -> CtType {
        self.0.ty(v)
    }
}

/// Assigns levels to the whole function: normalizes statuses and plaintext
/// types, types cipher inputs at the maximum level, materializes every
/// block (inserting all level-management ops), and verifies the result.
///
/// # Errors
///
/// Returns [`CompileError::DepthInfeasible`] if some block cannot be
/// leveled even with bootstrap placement, or a verification error on an
/// internal invariant violation.
pub fn assign_levels(f: &mut Function, opts: &CompileOptions) -> Result<(), CompileError> {
    propagate_statuses(f);
    normalize_plain_types(f);
    let max_level = opts.params.max_level;
    for input in f.inputs() {
        if f.ty(input).status == Status::Cipher {
            f.set_ty(input, CtType::cipher(max_level));
        }
    }
    let entry = f.entry;
    materialize_block(f, entry, opts)?;
    verify_typed(f, max_level)?;
    Ok(())
}

/// Gives every plain-status value the canonical plaintext type
/// `(plain, level 0, degree 1)` so type equality at loop boundaries works.
pub fn normalize_plain_types(f: &mut Function) {
    for i in 0..f.num_values() {
        let v = ValueId(i as u32);
        if f.value(v).ty.status == Status::Plain {
            f.set_ty(v, CtType::plain(0));
        }
    }
}

/// The renames a block's rescales leave for the ops after them: a rescale
/// of `old` at op `i` renames `old` in every later op of the block,
/// nested bodies included. Each op picks its renames up when the block's
/// walk reaches it, so a rescale costs nothing per later op.
#[derive(Default)]
struct Renames(HashMap<ValueId, ValueId>);

impl Renames {
    fn record(&mut self, old: ValueId, new: ValueId) {
        self.0.insert(old, new);
    }

    /// The current name of `v`, following renames of renames.
    fn resolve(&self, mut v: ValueId) -> ValueId {
        while let Some(&new) = self.0.get(&v) {
            v = new;
        }
        v
    }

    /// Renames the operands of `op_id` and, for a `For` op, of every op
    /// in its body.
    fn apply(&self, f: &mut Function, op_id: OpId) {
        if self.0.is_empty() {
            return;
        }
        for k in 0..f.op(op_id).operands.len() {
            let v = self.resolve(f.op(op_id).operands[k]);
            f.op_mut(op_id).operands[k] = v;
        }
        if let Opcode::For { body, .. } = f.op(op_id).opcode {
            for inner in f.block(body).ops.clone() {
                self.apply(f, inner);
            }
        }
    }
}

/// Materializes one block: placement (if needed) then per-op leveling.
fn materialize_block(
    f: &mut Function,
    block: BlockId,
    opts: &CompileOptions,
) -> Result<(), CompileError> {
    ensure_feasible(f, block, opts)?;
    let cost = CostModel::new();
    let max_level = opts.params.max_level;

    let mut renames = Renames::default();
    let mut i = 0usize;
    while i < f.block(block).ops.len() {
        let op_id = f.block(block).ops[i];
        renames.apply(f, op_id);
        if let Opcode::For { .. } = f.op(op_id).opcode {
            i = materialize_loop(f, block, i, opts, &mut renames)?;
            continue;
        }
        let op = f.op(op_id).clone();
        let plan = plan_op(op_id, &op, &FnTypes(f), &cost, max_level).map_err(|u| {
            CompileError::DepthInfeasible {
                op: Some(u.op),
                detail: "underflow after placement — internal invariant violation".into(),
            }
        })?;
        i = apply_plan(f, block, i, op_id, &plan, &mut renames);
        i += 1;
    }
    Ok(())
}

/// Applies a step plan at `block[i]` (which holds `op_id`): inserts
/// coercion ops before it, rewrites operands, stamps result types, and
/// records each rescale in `renames` for the block's later ops.
/// Returns the (possibly shifted) index of `op_id`.
fn apply_plan(
    f: &mut Function,
    block: BlockId,
    mut i: usize,
    op_id: OpId,
    plan: &StepPlan,
    renames: &mut Renames,
) -> usize {
    for c in &plan.coercions {
        let mut cur = renames.resolve(c.value);
        if c.rescale {
            let t = f.ty(cur);
            debug_assert_eq!(t.degree, 2);
            let v2 = f.insert_op1(
                block,
                i,
                Opcode::Rescale,
                vec![cur],
                CtType::cipher(t.level - 1),
            );
            i += 1;
            renames.record(cur, v2);
            for operand in &mut f.op_mut(op_id).operands {
                if *operand == cur {
                    *operand = v2;
                }
            }
            cur = v2;
        }
        if let Some(target) = c.modswitch_to {
            let t = f.ty(cur);
            if t.level > target {
                let v3 = f.insert_op1(
                    block,
                    i,
                    Opcode::ModSwitch {
                        down: t.level - target,
                    },
                    vec![cur],
                    CtType {
                        status: Status::Cipher,
                        level: target,
                        degree: t.degree,
                    },
                );
                i += 1;
                // Per-use: rewrite only this op's operand slot.
                f.op_mut(op_id).operands[c.operand_index] = v3;
            }
        }
    }
    let results = f.op(op_id).results.clone();
    for (&r, &t) in results.iter().zip(&plan.result_tys) {
        f.set_ty(r, t);
    }
    i
}

/// Coerces the value at `block[.. pos]`'s scope to `(floor, degree 1)`,
/// inserting ops at `pos` and returning `(new_value, ops_inserted)`. A
/// rescale renames `v` in the rest of the block at once and records the
/// rename, so ops still holding a stale name resolve through it.
fn coerce_to_floor(
    f: &mut Function,
    block: BlockId,
    pos: usize,
    v: ValueId,
    renames: &mut Renames,
) -> (ValueId, usize) {
    let mut cur = v;
    let mut inserted = 0usize;
    let t = f.ty(cur);
    if t.degree == 2 {
        cur = f.insert_op1(
            block,
            pos + inserted,
            Opcode::Rescale,
            vec![cur],
            CtType::cipher(t.level - 1),
        );
        inserted += 1;
        f.replace_uses_from(block, pos + inserted, v, cur);
        renames.record(v, cur);
    }
    let t = f.ty(cur);
    if t.level > FLOOR_LEVEL {
        cur = f.insert_op1(
            block,
            pos + inserted,
            Opcode::ModSwitch {
                down: t.level - FLOOR_LEVEL,
            },
            vec![cur],
            CtType::cipher(FLOOR_LEVEL),
        );
        inserted += 1;
    }
    (cur, inserted)
}

/// Materializes a `For` op at `block[i]`: Algorithm 1 plus recursion.
/// The op and its body already carry `renames`; the rescales inserted
/// before the op rename eagerly and record in `renames` too. Returns the
/// index just past the loop op.
fn materialize_loop(
    f: &mut Function,
    block: BlockId,
    mut i: usize,
    opts: &CompileOptions,
    renames: &mut Renames,
) -> Result<usize, CompileError> {
    let max_level = opts.params.max_level;
    let op_id = f.block(block).ops[i];
    let body = f.for_body(op_id);

    // Rescale any degree-2 cipher live-in once, outside the loop, so the
    // body never re-rescales it per iteration.
    for li in live_ins(f, body) {
        let t = f.ty(li);
        if t.status == Status::Cipher && t.degree == 2 {
            let v2 = f.insert_op1(
                block,
                i,
                Opcode::Rescale,
                vec![li],
                CtType::cipher(t.level - 1),
            );
            i += 1;
            f.replace_uses_from(block, i, li, v2);
            renames.record(li, v2);
        }
    }

    // 1. Floor the cipher init operands (Algorithm 1, lines 6–8).
    let n_inits = f.op(op_id).operands.len();
    for k in 0..n_inits {
        let init = f.op(op_id).operands[k];
        if f.ty(init).status == Status::Cipher {
            let (new_v, inserted) = coerce_to_floor(f, block, i, init, renames);
            i += inserted;
            f.op_mut(op_id).operands[k] = new_v;
        }
    }

    // 2. Type the body args at the floor; insert head bootstraps
    //    (lines 13–16).
    let args = f.block(body).args.clone();
    let mut head = 0usize;
    for &arg in &args {
        if f.ty(arg).status == Status::Cipher {
            f.set_ty(arg, CtType::cipher(FLOOR_LEVEL));
            let bs = f.insert_op(
                body,
                head,
                Opcode::Bootstrap { target: max_level },
                vec![arg],
                &[CtType::cipher(max_level)],
            );
            head += 1;
            // The bootstraps before `head` read the other arguments.
            let new_v = f.op(bs).results[0];
            f.replace_uses_from(body, head, arg, new_v);
        } else {
            f.set_ty(arg, CtType::plain(0));
        }
    }

    // 3. Materialize the body (placement first if its depth exceeds L).
    materialize_block(f, body, opts)?;

    // 4. Coerce yields back to the floor (lines 9–11).
    let term = f
        .terminator(body)
        .ok_or_else(|| CompileError::Internal("loop body lost its terminator".into()))?;
    let n_yields = f.op(term).operands.len();
    for k in 0..n_yields {
        let y = f.op(term).operands[k];
        if f.ty(y).status == Status::Cipher {
            let pos = f.block(body).ops.len() - 1;
            let (new_v, _) = coerce_to_floor(f, body, pos, y, &mut Renames::default());
            let term = f.terminator(body).expect("still terminated");
            f.op_mut(term).operands[k] = new_v;
        }
    }

    // 5. Type the loop results at the floor (type-matched loop complete).
    let results = f.op(op_id).results.clone();
    for (&r, &arg) in results.iter().zip(&args) {
        let t = f.ty(arg);
        f.set_ty(r, t);
    }

    Ok(f.position_in_block(block, op_id)
        .expect("loop op still in block")
        + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::CkksParams;
    use halo_ir::op::TripCount;
    use halo_ir::FunctionBuilder;

    fn opts() -> CompileOptions {
        CompileOptions::new(CkksParams::test_small())
    }

    #[test]
    fn straight_line_program_levels() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let m = b.mul(x, y);
        let k = b.const_splat(2.0);
        let s = b.mul(m, k);
        let r = b.add(s, y);
        b.ret(&[r]);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        // m = x*y at (16,2); rescaled to (15,1) for s = m*k at (15,2);
        // add with y requires rescale of s to (14,1) and modswitch of y.
        assert_eq!(f.ty(r), CtType::cipher(14));
    }

    #[test]
    fn simple_loop_becomes_type_matched() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w = b.input_cipher("w");
        let res = b.for_loop(TripCount::dynamic("n"), &[w], 4, |b, a| {
            let p = b.mul(x, a[0]);
            vec![b.add(a[0], p)]
        });
        b.ret(&res);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        // The verifier inside assign_levels already checks the
        // type-matched property; spot-check the shape too.
        let loop_op = f.loops_in_block(f.entry)[0];
        let body = f.for_body(loop_op);
        assert_eq!(f.ty(f.block(body).args[0]), CtType::cipher(0));
        assert_eq!(f.ty(f.op(loop_op).results[0]), CtType::cipher(0));
        // Exactly one head bootstrap for the one carried variable.
        let boots = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
        assert_eq!(boots, 1);
        // Yield floored by a modswitch at the end of the body.
        let term = f.terminator(body).unwrap();
        let y = f.op(term).operands[0];
        assert_eq!(f.ty(y), CtType::cipher(0));
    }

    #[test]
    fn two_carried_vars_get_two_head_bootstraps() {
        // Paper Challenge B-1: one bootstrap per loop-carried ciphertext.
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y0 = b.input_cipher("y0");
        let a0 = b.input_cipher("a0");
        let res = b.for_loop(TripCount::dynamic("n"), &[y0, a0], 4, |b, args| {
            let x2 = b.mul(x, args[0]);
            let y2 = b.mul(x2, x2);
            let a2 = b.add(args[1], y2);
            vec![y2, a2]
        });
        b.ret(&res);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        assert_eq!(f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. })), 2);
    }

    #[test]
    fn deep_loop_body_gets_in_body_placement() {
        // Body depth 20 > L = 16: one extra in-body bootstrap (§5.3).
        let mut b = FunctionBuilder::new("t", 8);
        let w = b.input_cipher("w");
        let res = b.for_loop(TripCount::dynamic("n"), &[w], 4, |b, a| {
            let mut v = a[0];
            for _ in 0..20 {
                v = b.mul(v, v);
            }
            vec![v]
        });
        b.ret(&res);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        let boots = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
        assert_eq!(boots, 2, "one head bootstrap + one in-body reset");
    }

    #[test]
    fn nested_loops_level_recursively() {
        let mut b = FunctionBuilder::new("t", 8);
        let w = b.input_cipher("w");
        let res = b.for_loop(TripCount::dynamic("outer"), &[w], 4, |b, outer| {
            let inner = b.for_loop(TripCount::dynamic("inner"), &[outer[0]], 4, |b, a| {
                let sq = b.mul(a[0], a[0]);
                vec![sq]
            });
            let half = b.const_splat(0.5);
            vec![b.mul(inner[0], half)]
        });
        b.ret(&res);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        // Outer carried var + inner carried var ⇒ 2 head bootstraps, plus
        // possibly one after the inner loop (its result is at level 0 and
        // is multiplied afterwards).
        let boots = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. }));
        assert!(
            boots >= 3,
            "outer head + inner head + post-inner, got {boots}"
        );
    }

    #[test]
    fn plain_carried_variable_stays_plain() {
        // A carried variable never touched by cipher ops stays plain and
        // needs no bootstrap (paper §5.1's dead-code observation).
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let c0 = b.const_splat(1.0);
        let res = b.for_loop(TripCount::dynamic("n"), &[x, c0], 4, |b, args| {
            let two = b.const_splat(2.0);
            let c2 = b.mul(args[1], two); // plain × plain
            let x2 = b.mul(args[0], args[0]);
            vec![x2, c2]
        });
        b.ret(&res);
        let mut f = b.finish();
        assign_levels(&mut f, &opts()).unwrap();
        let loop_op = f.loops_in_block(f.entry)[0];
        let body = f.for_body(loop_op);
        assert_eq!(f.ty(f.block(body).args[1]).status, Status::Plain);
        assert_eq!(f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. })), 1);
    }
}
