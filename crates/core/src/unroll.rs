//! Level-aware loop unrolling (paper §6.2, Solution B-2).
//!
//! When a loop body consumes fewer levels than a bootstrap restores, the
//! restored levels are wasted: the type-matched loop modswitches them away
//! at the iteration boundary. Unrolling by
//! `factor = ⌊depth_limit / depth_max⌋` packs `factor` iterations of work
//! between consecutive bootstraps, where `depth_max` is the body's
//! multiplicative depth (def-use chain analysis) and `depth_limit` is the
//! level budget: `L`, minus 2 when packing will add its own `multcp` on
//! each side of the body.
//!
//! A dynamic trip count `n` splits into a main loop of `⌊n/factor⌋`
//! iterations and an epilogue loop of `n mod factor` iterations — both
//! still symbolic, so the program need not be recompiled when `n` changes
//! (this is exactly what the DaCapo baseline cannot do).

use std::collections::HashMap;

use halo_ir::analysis::max_mult_depth;
use halo_ir::func::{BlockId, Function, OpId};
use halo_ir::op::{Opcode, TripCount};
use halo_ir::subst::{clone_body_ops, deep_clone_block};

use crate::pack::packable_indices;

/// Unrolls every profitable loop. `assume_packing` reserves two levels of
/// the budget for the pack/unpack multiplications when the loop will also
/// be packed. Returns the number of loops unrolled.
pub fn unroll_loops(f: &mut Function, max_level: u32, assume_packing: bool) -> usize {
    let mut count = 0;
    unroll_in_block(f, f.entry, max_level, assume_packing, &mut count);
    count
}

fn unroll_in_block(
    f: &mut Function,
    block: BlockId,
    max_level: u32,
    assume_packing: bool,
    count: &mut usize,
) {
    let mut i = 0;
    while i < f.block(block).ops.len() {
        let op_id = f.block(block).ops[i];
        if let Opcode::For { body, .. } = f.op(op_id).opcode {
            unroll_in_block(f, body, max_level, assume_packing, count);
            if let Some(factor) = unroll_factor(f, op_id, max_level, assume_packing) {
                unroll_one(f, block, op_id, factor);
                *count += 1;
            }
        }
        i += 1;
    }
}

/// Unrolls every structurally eligible loop by an explicit `factor` — the
/// autotuner's unroll knob, bypassing the paper's profitability formula.
/// Eligibility and clamping follow [`TripCount::unroll_cap`], as in
/// [`unroll_factor`]; an effective factor ≤ 1 is a no-op. Returns the
/// number of loops unrolled.
pub fn unroll_loops_with_factor(f: &mut Function, factor: u64) -> usize {
    if factor <= 1 {
        return 0;
    }
    let mut count = 0;
    factor_in_block(f, f.entry, factor, &mut count);
    count
}

fn factor_in_block(f: &mut Function, block: BlockId, factor: u64, count: &mut usize) {
    // Snapshot the loops first: unroll_one inserts epilogue loops right
    // after their main loop, and a freshly minted epilogue must not be
    // unrolled again in the same sweep.
    let loops = f.loops_in_block(block);
    for op_id in loops {
        let body = f.for_body(op_id);
        factor_in_block(f, body, factor, count);
        let eff = match &f.op(op_id).opcode {
            Opcode::For { trip, .. } => trip.unroll_cap().map_or(0, |cap| factor.min(cap)),
            _ => 0,
        };
        if eff > 1 {
            unroll_one(f, block, op_id, eff);
            *count += 1;
        }
    }
}

/// The paper's unroll-factor formula, or `None` when unrolling is not
/// profitable (`factor ≤ 1`) or not applicable.
#[must_use]
pub fn unroll_factor(
    f: &Function,
    op_id: OpId,
    max_level: u32,
    assume_packing: bool,
) -> Option<u64> {
    let Opcode::For { body, trip, .. } = &f.op(op_id).opcode else {
        return None;
    };
    let cap = trip.unroll_cap()?;
    let depth_max = u64::from(max_mult_depth(f, *body));
    if depth_max == 0 {
        return None;
    }
    let will_pack = assume_packing && packable_indices(f, op_id).is_some();
    let depth_limit = u64::from(max_level) - if will_pack { 2 } else { 0 };
    let factor = (depth_limit / depth_max).min(cap);
    (factor > 1).then_some(factor)
}

/// Replaces the loop with a main loop whose body is `factor` concatenated
/// copies (trip `⌊n/factor⌋`) followed by an epilogue loop with the
/// original body (trip `n mod factor`).
fn unroll_one(f: &mut Function, block: BlockId, op_id: OpId, factor: u64) {
    let (old_body, trip, num_elems) = match &f.op(op_id).opcode {
        Opcode::For {
            body,
            trip,
            num_elems,
        } => (*body, trip.clone(), *num_elems),
        _ => unreachable!(),
    };
    let (main_trip, epi_trip) = trip.split_for_unroll(factor);
    let old_args = f.block(old_body).args.clone();

    // Main body: `factor` copies chained through the carried values.
    let new_body = f.add_block();
    let mut carried: Vec<_> = old_args
        .iter()
        .map(|&a| {
            let ty = f.ty(a);
            let name = f.value(a).name.clone();
            f.add_block_arg(new_body, ty, name)
        })
        .collect();
    for _ in 0..factor {
        let mut map: HashMap<_, _> = old_args
            .iter()
            .copied()
            .zip(carried.iter().copied())
            .collect();
        let at = f.block(new_body).ops.len();
        carried = clone_body_ops(f, old_body, new_body, at, &mut map);
    }
    f.push_op(new_body, Opcode::Yield, carried, &[]);

    // Swap the loop's body and trip in place (operands/results unchanged).
    if let Opcode::For { trip, body, .. } = &mut f.op_mut(op_id).opcode {
        *trip = main_trip;
        *body = new_body;
    }

    // Epilogue: original body, remainder trip, fed by the main loop.
    let needs_epilogue = match &epi_trip {
        TripCount::Constant(0) => false,
        TripCount::Constant(_) | TripCount::DynamicRem { .. } => true,
        TripCount::Dynamic { .. } => true,
    };
    if needs_epilogue {
        let mut map = HashMap::new();
        let epi_body = deep_clone_block(f, old_body, &mut map);
        let main_results = f.op(op_id).results.clone();
        let result_tys: Vec<_> = main_results.iter().map(|&r| f.ty(r)).collect();
        let pos = f.position_in_block(block, op_id).expect("loop in block");
        let epi = f.insert_op(
            block,
            pos + 1,
            Opcode::For {
                trip: epi_trip,
                body: epi_body,
                num_elems,
            },
            main_results.clone(),
            &result_tys,
        );
        let epi_results = f.op(epi).results.clone();
        for (&old, &new) in main_results.iter().zip(&epi_results) {
            f.replace_uses(old, new, Some(epi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ir::verify::verify_traced;
    use halo_ir::FunctionBuilder;

    /// Depth-5 body over one carried var (cipher init, no peel needed).
    fn depth5_loop(trip: TripCount) -> Function {
        let mut b = FunctionBuilder::new("t", 16);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(trip, &[w0], 4, |b, args| {
            let mut v = args[0];
            for _ in 0..5 {
                v = b.mul(v, x);
            }
            vec![v]
        });
        b.ret(&r);
        b.finish()
    }

    #[test]
    fn factor_matches_paper_formula() {
        let f = depth5_loop(TripCount::dynamic("n"));
        let op = f.loops_in_block(f.entry)[0];
        // depth_max = 5, L = 16 → ⌊16/5⌋ = 3; with packing reserve,
        // ⌊14/5⌋ = 2 — but a single carried var never packs, so 3.
        assert_eq!(unroll_factor(&f, op, 16, false), Some(3));
        assert_eq!(unroll_factor(&f, op, 16, true), Some(3));
        // Deep body: factor 1 → no unroll.
        assert_eq!(unroll_factor(&f, op, 5, false), None);
    }

    #[test]
    fn dynamic_loop_splits_into_main_and_epilogue() {
        let mut f = depth5_loop(TripCount::dynamic("n"));
        assert_eq!(unroll_loops(&mut f, 16, false), 1);
        verify_traced(&f).unwrap();
        let loops = f.loops_in_block(f.entry);
        assert_eq!(loops.len(), 2, "main + epilogue");
        let trips: Vec<String> = loops
            .iter()
            .map(|&l| match &f.op(l).opcode {
                Opcode::For { trip, .. } => trip.to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(trips, vec!["(%n)/3", "(%n)%3"]);
        // Main body has 3 copies of the depth-5 chain = 15 mults.
        let main_body = f.for_body(loops[0]);
        let mults = f
            .block(main_body)
            .ops
            .iter()
            .filter(|&&o| f.op(o).opcode.is_mult())
            .count();
        assert_eq!(mults, 15);
        // Epilogue keeps the original 5.
        let epi_body = f.for_body(loops[1]);
        let epi_mults = f
            .block(epi_body)
            .ops
            .iter()
            .filter(|&&o| f.op(o).opcode.is_mult())
            .count();
        assert_eq!(epi_mults, 5);
    }

    #[test]
    fn constant_trip_divisible_has_no_epilogue() {
        let mut f = depth5_loop(TripCount::Constant(9));
        assert_eq!(unroll_loops(&mut f, 16, false), 1);
        let loops = f.loops_in_block(f.entry);
        assert_eq!(loops.len(), 1);
        if let Opcode::For { trip, .. } = &f.op(loops[0]).opcode {
            assert_eq!(*trip, TripCount::Constant(3));
        }
    }

    #[test]
    fn constant_trip_with_remainder_gets_constant_epilogue() {
        let mut f = depth5_loop(TripCount::Constant(10));
        assert_eq!(unroll_loops(&mut f, 16, false), 1);
        let loops = f.loops_in_block(f.entry);
        assert_eq!(loops.len(), 2);
        if let Opcode::For { trip, .. } = &f.op(loops[1]).opcode {
            assert_eq!(*trip, TripCount::Constant(1));
        }
        verify_traced(&f).unwrap();
    }

    #[test]
    fn explicit_factor_overrides_the_formula_and_clamps_to_constant_trips() {
        // The formula would pick 3 (⌊16/5⌋); the explicit knob forces 2.
        let mut f = depth5_loop(TripCount::dynamic("n"));
        assert_eq!(unroll_loops_with_factor(&mut f, 2), 1);
        verify_traced(&f).unwrap();
        let loops = f.loops_in_block(f.entry);
        let trips: Vec<String> = loops
            .iter()
            .map(|&l| match &f.op(l).opcode {
                Opcode::For { trip, .. } => trip.to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(trips, vec!["(%n)/2", "(%n)%2"]);

        // A constant trip clamps the factor; trip 3 with factor 8 unrolls
        // fully into a single-trip loop.
        let mut f = depth5_loop(TripCount::Constant(3));
        assert_eq!(unroll_loops_with_factor(&mut f, 8), 1);
        verify_traced(&f).unwrap();
        let loops = f.loops_in_block(f.entry);
        assert_eq!(loops.len(), 1);
        if let Opcode::For { trip, .. } = &f.op(loops[0]).opcode {
            assert_eq!(*trip, TripCount::Constant(1));
        }

        // Factors of 0 and 1 are no-ops.
        let mut f = depth5_loop(TripCount::dynamic("n"));
        assert_eq!(unroll_loops_with_factor(&mut f, 1), 0);
        assert_eq!(unroll_loops_with_factor(&mut f, 0), 0);
        // A fresh epilogue is never re-unrolled in the same sweep.
        let mut f = depth5_loop(TripCount::dynamic("n"));
        unroll_loops_with_factor(&mut f, 3);
        let loops = f.loops_in_block(f.entry);
        assert_eq!(loops.len(), 2, "main + one epilogue, not a cascade");
    }

    #[test]
    fn deep_body_is_left_alone() {
        // depth 20 > L: no unrolling (PCA's case in §7.4).
        let mut b = FunctionBuilder::new("t", 16);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
            let mut v = args[0];
            for _ in 0..20 {
                v = b.mul(v, x);
            }
            vec![v]
        });
        b.ret(&r);
        let mut f = b.finish();
        assert_eq!(unroll_loops(&mut f, 16, false), 0);
    }

    #[test]
    fn unrolled_loop_levels_and_counts_bootstraps_per_unrolled_iteration() {
        use crate::config::CompileOptions;
        use crate::scale::assign_levels;
        use halo_ckks::CkksParams;
        let mut f = depth5_loop(TripCount::dynamic("n"));
        unroll_loops(&mut f, 16, false);
        let mut opts = CompileOptions::new(CkksParams::test_small());
        opts.params.poly_degree = 32;
        assign_levels(&mut f, &opts).unwrap();
        // One head bootstrap in the main body, one in the epilogue body.
        assert_eq!(f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. })), 2);
    }
}
