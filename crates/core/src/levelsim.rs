//! Pure level/latency simulation: plans the `rescale`/`modswitch` coercions
//! every op needs, without mutating the IR.
//!
//! The materializing scale pass ([`crate::scale`]) and the bootstrap
//! placement DP ([`crate::placement`]) both consume [`plan_op`], so the
//! levels the DP reasons about are *by construction* the levels the emitted
//! code will have — there is no separate model to drift out of sync.
//!
//! ## The waterline discipline
//!
//! Every cipher value is at scale degree 1 (`Rf`) or 2 (`Rf²`, a rescale
//! pending). Multiplication requires degree-1 operands at a common level
//! ≥ 1 and produces degree 2; `rescale` is inserted *lazily*, at the first
//! use that needs degree 1 (EVA-style), so sums of products rescale once.
//! Additions align operand degrees (rescaling the pending side) and levels
//! (modswitching the higher side down). A multiplication whose aligned
//! level would be 0 is an *underflow* — the signal that a bootstrap must be
//! placed upstream.

use std::collections::HashMap;

use halo_ckks::{CostModel, CostedOp};
use halo_ir::func::{Function, OpId, ValueId};
use halo_ir::op::{Op, Opcode};
use halo_ir::types::{CtType, Status};

/// The level every loop-carried variable is floored to at loop boundaries
/// (paper §5.2: "the levels of the loop inputs and outputs are matched to
/// the minimum").
pub const FLOOR_LEVEL: u32 = 0;

/// A multiplicative-depth underflow at `op`: the operand chain ran out of
/// levels and a bootstrap is required upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Underflow {
    /// The op that could not be leveled.
    pub op: OpId,
}

/// One operand coercion: an optional global rescale of the value followed
/// by an optional per-use modswitch down to a target level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coercion {
    /// Which operand slot of the op this applies to.
    pub operand_index: usize,
    /// The (pre-coercion) value being adjusted.
    pub value: ValueId,
    /// Rescale first (degree 2 → 1, level − 1). Global: later uses of the
    /// value see the rescaled version.
    pub rescale: bool,
    /// Then modswitch down to this absolute level (per-use).
    pub modswitch_to: Option<u32>,
}

/// The planned effect of executing one op: operand coercions, result types,
/// and modeled latency (µs) including the coercions.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    /// Operand coercions in application order.
    pub coercions: Vec<Coercion>,
    /// Types of the op's results after execution.
    pub result_tys: Vec<CtType>,
    /// Modeled latency of the op plus its coercions.
    pub cost_us: f64,
}

/// Read access to the current type of each value.
pub trait TypeEnv {
    /// The current type of `v`.
    fn get(&self, v: ValueId) -> CtType;
}

/// Computes the coercions, result types, and cost of executing `op` in the
/// environment `env`.
///
/// `For` ops are treated as loop boundaries: cipher inits are coerced to
/// the floor `(level 0, degree 1)` and cipher results emerge there too; the
/// body's internal cost is *not* included (it is identical across placement
/// plans, which is all this function is used to compare).
///
/// # Errors
///
/// Returns [`Underflow`] when a multiplication cannot find level ≥ 1, when
/// a pre-existing `rescale`/`modswitch` is illegal at the operand's level.
#[allow(clippy::too_many_lines)]
pub fn plan_op(
    op_id: OpId,
    op: &Op,
    env: &dyn TypeEnv,
    cost: &CostModel,
    max_level: u32,
) -> Result<StepPlan, Underflow> {
    // Local operand types, tracking intra-op effects of global rescales on
    // duplicated operands.
    let mut tys: Vec<CtType> = op.operands.iter().map(|&v| env.get(v)).collect();
    let mut coercions: Vec<Coercion> = Vec::new();
    let mut cost_us = 0.0;

    // Plans a rescale of operand `i` (global), updating duplicates.
    macro_rules! rescale_operand {
        ($i:expr) => {{
            let i = $i;
            let v = op.operands[i];
            debug_assert_eq!(tys[i].degree, 2);
            debug_assert!(tys[i].level >= 1, "degree-2 values always have level >= 1");
            cost_us += cost.latency_us(CostedOp::Rescale {
                level: tys[i].level,
            });
            let new_ty = CtType::cipher(tys[i].level - 1);
            for (j, &w) in op.operands.iter().enumerate() {
                if w == v {
                    tys[j] = new_ty;
                }
            }
            coercions.push(Coercion {
                operand_index: i,
                value: v,
                rescale: true,
                modswitch_to: None,
            });
        }};
    }

    // Plans a per-use modswitch of operand `i` down to `target`.
    macro_rules! modswitch_operand {
        ($i:expr, $target:expr) => {{
            let i = $i;
            let target: u32 = $target;
            if tys[i].level > target {
                cost_us += cost.modswitch_chain_us(tys[i].level, tys[i].level - target);
                // Attach to an existing coercion for this slot if present.
                if let Some(c) = coercions
                    .iter_mut()
                    .find(|c| c.operand_index == i && c.modswitch_to.is_none())
                {
                    c.modswitch_to = Some(target);
                } else {
                    coercions.push(Coercion {
                        operand_index: i,
                        value: op.operands[i],
                        rescale: false,
                        modswitch_to: Some(target),
                    });
                }
                tys[i].level = target;
            }
        }};
    }

    let result_tys: Vec<CtType> = match &op.opcode {
        Opcode::Input { .. } => vec![env.get(op.results[0])],
        Opcode::Const(_) => {
            cost_us += cost.latency_us(CostedOp::Encode);
            vec![CtType::plain(0)]
        }
        Opcode::Encrypt => {
            // Trivial encryption arrives fresh at the maximum level.
            cost_us += cost.latency_us(CostedOp::Encode);
            vec![CtType::cipher(max_level)]
        }
        Opcode::AddCC | Opcode::SubCC => {
            if tys[0].status == Status::Plain && tys[1].status == Status::Plain {
                vec![CtType::plain(0)]
            } else {
                debug_assert!(tys[0].is_cipher() && tys[1].is_cipher());
                if tys[0].degree != tys[1].degree {
                    let hi = if tys[0].degree == 2 { 0 } else { 1 };
                    rescale_operand!(hi);
                }
                let lv = tys[0].level.min(tys[1].level);
                modswitch_operand!(0, lv);
                modswitch_operand!(1, lv);
                cost_us += cost.latency_us(CostedOp::AddCC { level: lv });
                vec![CtType::cipher(lv).with_degree(tys[0].degree)]
            }
        }
        Opcode::MultCC => {
            if tys[0].status == Status::Plain && tys[1].status == Status::Plain {
                vec![CtType::plain(0)]
            } else {
                for i in 0..2 {
                    if tys[i].degree == 2 {
                        rescale_operand!(i);
                    }
                }
                let lv = tys[0].level.min(tys[1].level);
                if lv < 1 {
                    return Err(Underflow { op: op_id });
                }
                modswitch_operand!(0, lv);
                modswitch_operand!(1, lv);
                cost_us += cost.latency_us(CostedOp::MultCC { level: lv });
                vec![CtType::cipher(lv).with_degree(2)]
            }
        }
        Opcode::AddCP | Opcode::SubCP => {
            if tys[0].status == Status::Plain {
                // Plain–plain leftovers fold at runtime (normalization
                // rewrites them to CC forms; this is belt-and-braces).
                vec![CtType::plain(0)]
            } else {
                cost_us += cost.latency_us(CostedOp::AddCP {
                    level: tys[0].level,
                });
                cost_us += cost.latency_us(CostedOp::Encode);
                vec![tys[0]]
            }
        }
        Opcode::MultCP => {
            if tys[0].status == Status::Plain {
                vec![CtType::plain(0)]
            } else {
                if tys[0].degree == 2 {
                    rescale_operand!(0);
                }
                if tys[0].level < 1 {
                    return Err(Underflow { op: op_id });
                }
                cost_us += cost.latency_us(CostedOp::MultCP {
                    level: tys[0].level,
                });
                cost_us += cost.latency_us(CostedOp::Encode);
                vec![CtType::cipher(tys[0].level).with_degree(2)]
            }
        }
        Opcode::Negate => {
            if tys[0].is_cipher() {
                cost_us += cost.latency_us(CostedOp::Negate {
                    level: tys[0].level,
                });
                vec![tys[0]]
            } else {
                vec![CtType::plain(0)]
            }
        }
        Opcode::Rotate { .. } => {
            if tys[0].is_cipher() {
                cost_us += cost.latency_us(CostedOp::Rotate {
                    level: tys[0].level,
                });
                vec![tys[0]]
            } else {
                vec![CtType::plain(0)]
            }
        }
        Opcode::Rescale => {
            if tys[0].degree != 2 || tys[0].level < 1 {
                return Err(Underflow { op: op_id });
            }
            cost_us += cost.latency_us(CostedOp::Rescale {
                level: tys[0].level,
            });
            vec![CtType::cipher(tys[0].level - 1)]
        }
        Opcode::ModSwitch { down } => {
            if *down == 0 || *down > tys[0].level {
                return Err(Underflow { op: op_id });
            }
            cost_us += cost.modswitch_chain_us(tys[0].level, *down);
            vec![CtType::cipher(tys[0].level - down).with_degree(tys[0].degree)]
        }
        Opcode::Bootstrap { target } => {
            debug_assert!(*target >= 1 && *target <= max_level);
            if tys[0].degree == 2 {
                rescale_operand!(0);
            }
            cost_us += cost.latency_us(CostedOp::Bootstrap { target: *target });
            vec![CtType::cipher(*target)]
        }
        Opcode::For { .. } => {
            // Loop boundary: cipher inits floor to (0, 1); results emerge
            // there. Body cost excluded (see function docs).
            for i in 0..op.operands.len() {
                if tys[i].is_cipher() {
                    if tys[i].degree == 2 {
                        rescale_operand!(i);
                    }
                    modswitch_operand!(i, FLOOR_LEVEL);
                }
            }
            op.results
                .iter()
                .map(|&r| {
                    if env.get(r).is_cipher() {
                        CtType::cipher(FLOOR_LEVEL)
                    } else {
                        CtType::plain(0)
                    }
                })
                .collect()
        }
        Opcode::Yield | Opcode::Return => Vec::new(),
    };

    Ok(StepPlan {
        coercions,
        result_tys,
        cost_us,
    })
}

/// A pure type environment backed by the function's stored types plus an
/// override map.
#[derive(Debug, Clone)]
pub struct SimTypes<'f> {
    f: &'f Function,
    map: HashMap<ValueId, CtType>,
}

impl<'f> SimTypes<'f> {
    /// Creates an environment reading base types from `f`.
    #[must_use]
    pub fn new(f: &'f Function) -> SimTypes<'f> {
        SimTypes {
            f,
            map: HashMap::new(),
        }
    }

    /// Overrides the type of `v`.
    pub fn set(&mut self, v: ValueId, ty: CtType) {
        self.map.insert(v, ty);
    }

    /// Applies a step plan's effects: global rescales and result types.
    pub fn apply(&mut self, op: &Op, plan: &StepPlan) {
        for c in &plan.coercions {
            if c.rescale {
                let t = self.get(c.value);
                self.set(c.value, CtType::cipher(t.level - 1));
            }
        }
        for (&r, &t) in op.results.iter().zip(&plan.result_tys) {
            self.set(r, t);
        }
    }
}

impl TypeEnv for SimTypes<'_> {
    fn get(&self, v: ValueId) -> CtType {
        self.map.get(&v).copied().unwrap_or_else(|| self.f.ty(v))
    }
}

/// Outcome of simulating a contiguous op range.
#[derive(Debug, Clone)]
pub struct RangeSim {
    /// `cum_cost[k]` = total modeled cost of the first `k` simulated ops.
    pub cum_cost: Vec<f64>,
    /// Index (relative to the start) of the first op that underflowed, or
    /// `None` if the whole range was feasible.
    pub underflow_at: Option<usize>,
}

/// Simulates ops `block[start..]` in `types`, accumulating cost until the
/// end or the first underflow.
#[must_use]
pub fn sim_range(
    f: &Function,
    ops: &[OpId],
    types: &mut SimTypes<'_>,
    cost: &CostModel,
    max_level: u32,
) -> RangeSim {
    // Grown as ops simulate: a segment that underflows early stays small.
    let mut cum = vec![0.0];
    let mut total = 0.0;
    for (k, &op_id) in ops.iter().enumerate() {
        let op = f.op(op_id);
        match plan_op(op_id, op, types, cost, max_level) {
            Ok(plan) => {
                total += plan.cost_us;
                types.apply(op, &plan);
                cum.push(total);
            }
            Err(_) => {
                return RangeSim {
                    cum_cost: cum,
                    underflow_at: Some(k),
                };
            }
        }
    }
    RangeSim {
        cum_cost: cum,
        underflow_at: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ir::FunctionBuilder;

    fn cost() -> CostModel {
        CostModel::new()
    }

    #[test]
    fn mult_chain_consumes_levels_lazily() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let m1 = b.mul(x, x); // (L, 2)
        let m2 = b.mul(m1, m1); // rescale m1 -> (L-1,1); mult -> (L-1,2)
        b.ret(&[m2]);
        let f = b.finish();
        let mut types = SimTypes::new(&f);
        types.set(x, CtType::cipher(16));
        let ops = f.block(f.entry).ops.clone();
        let sim = sim_range(&f, &ops, &mut types, &cost(), 16);
        assert_eq!(sim.underflow_at, None);
        assert_eq!(types.get(m1), CtType::cipher(15)); // globally rescaled
        assert_eq!(types.get(m2), CtType::cipher(15).with_degree(2));
    }

    #[test]
    fn depth_budget_is_exactly_max_level() {
        // A chain of D squarings needs D levels; from level L the L-th
        // mult succeeds and the (L+1)-th underflows (depth_limit = L, §6.2).
        for budget in [2u32, 4, 16] {
            let mut b = FunctionBuilder::new("t", 8);
            let x = b.input_cipher("x");
            let mut v = x;
            for _ in 0..budget + 1 {
                v = b.mul(v, v);
            }
            b.ret(&[v]);
            let f = b.finish();
            let mut types = SimTypes::new(&f);
            types.set(x, CtType::cipher(budget));
            let ops = f.block(f.entry).ops.clone();
            let sim = sim_range(&f, &ops, &mut types, &cost(), budget);
            // ops: input, then budget+1 mults, return. The mult at index
            // 1 + budget (0-based within ops) is the first infeasible one.
            assert_eq!(sim.underflow_at, Some(1 + budget as usize));
        }
    }

    #[test]
    fn add_aligns_degrees_and_levels() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let m = b.mul(x, x); // (10, 2)
        let s = b.add(m, y); // y at (7,1): rescale m -> (9,1), modswitch to 7
        b.ret(&[s]);
        let f = b.finish();
        let mut types = SimTypes::new(&f);
        types.set(x, CtType::cipher(10));
        types.set(y, CtType::cipher(7));
        let ops = f.block(f.entry).ops.clone();
        let sim = sim_range(&f, &ops, &mut types, &cost(), 16);
        assert_eq!(sim.underflow_at, None);
        assert_eq!(types.get(s), CtType::cipher(7));
    }

    #[test]
    fn sum_of_products_rescales_lazily_at_degree_2() {
        // a*b + c*d: both products stay degree 2 through the add.
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let p1 = b.mul(x, y);
        let p2 = b.mul(y, y);
        let s = b.add(p1, p2);
        b.ret(&[s]);
        let f = b.finish();
        let mut types = SimTypes::new(&f);
        types.set(x, CtType::cipher(10));
        types.set(y, CtType::cipher(10));
        let ops = f.block(f.entry).ops.clone();
        let sim = sim_range(&f, &ops, &mut types, &cost(), 16);
        assert_eq!(sim.underflow_at, None);
        assert_eq!(
            types.get(s),
            CtType::cipher(10).with_degree(2),
            "no rescale inserted"
        );
    }

    #[test]
    fn plain_arithmetic_is_free_and_unleveled() {
        let mut b = FunctionBuilder::new("t", 8);
        let p = b.const_splat(2.0);
        let q = b.const_splat(3.0);
        let m = b.mul(p, q);
        b.ret(&[m]);
        let f = b.finish();
        let mut types = SimTypes::new(&f);
        let ops = f.block(f.entry).ops.clone();
        let sim = sim_range(&f, &ops, &mut types, &cost(), 16);
        assert_eq!(sim.underflow_at, None);
        assert_eq!(types.get(m).status, Status::Plain);
        // Only the two encodes cost anything.
        assert!(sim.cum_cost.last().unwrap() < &50.0);
    }

    #[test]
    fn squaring_uses_one_rescale_for_duplicated_operand() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let m = b.mul(x, x); // (10, 2)
        let sq = b.mul(m, m); // m duplicated: exactly one rescale coercion
        b.ret(&[sq]);
        let f = b.finish();
        let mut types = SimTypes::new(&f);
        types.set(x, CtType::cipher(10));
        // Plan the second mult directly.
        let ops = f.block(f.entry).ops.clone();
        let first = sim_range(&f, &ops[..2], &mut types, &cost(), 16);
        assert_eq!(first.underflow_at, None);
        let second_op = ops[2];
        let plan = plan_op(second_op, f.op(second_op), &types, &cost(), 16).unwrap();
        let rescales = plan.coercions.iter().filter(|c| c.rescale).count();
        assert_eq!(rescales, 1);
        assert_eq!(plan.result_tys[0], CtType::cipher(9).with_degree(2));
    }

    #[test]
    fn for_op_floors_cipher_inits() {
        use halo_ir::op::TripCount;
        let mut b = FunctionBuilder::new("t", 8);
        let w = b.input_cipher("w");
        let r = b.for_loop(TripCount::Constant(2), &[w], 4, |b, a| {
            vec![b.mul(a[0], a[0])]
        });
        b.ret(&r);
        let f = b.finish();
        let loop_op = f.loops_in_block(f.entry)[0];
        let mut types = SimTypes::new(&f);
        types.set(w, CtType::cipher(9));
        let plan = plan_op(loop_op, f.op(loop_op), &types, &cost(), 16).unwrap();
        assert_eq!(plan.coercions.len(), 1);
        assert_eq!(plan.coercions[0].modswitch_to, Some(FLOOR_LEVEL));
        assert_eq!(plan.result_tys[0], CtType::cipher(FLOOR_LEVEL));
    }
}
