//! Full loop unrolling — how the DaCapo baseline "supports" loops
//! (paper §2.4).
//!
//! Every constant-trip loop is expanded into straight-line code; dynamic
//! trip counts are rejected with
//! [`CompileError::DynamicTripNotSupported`], reproducing the baseline's
//! documented limitation. After unrolling, the standard straight-line
//! machinery (status normalization, scale management, DP bootstrap
//! placement) compiles the program — so compile time and code size grow
//! with the iteration count, which is exactly what Tables 6 and 7 measure.

use std::collections::HashMap;

use halo_ir::analysis::propagate_statuses;
use halo_ir::func::{BlockId, Function, OpId};
use halo_ir::op::{Opcode, TripCount};
use halo_ir::subst::clone_body_ops;

use crate::error::CompileError;
use crate::peel::normalize_arith_opcodes;

/// Fully unrolls every loop in the function (innermost included, since
/// cloned inner loops are re-scanned). Returns the number of loop ops
/// expanded.
///
/// # Errors
///
/// Returns [`CompileError::DynamicTripNotSupported`] on the first loop
/// whose trip count is not a compile-time constant.
pub fn full_unroll(f: &mut Function) -> Result<usize, CompileError> {
    let mut expanded = 0;
    // Outer loops expand first; cloned inner loops are found on the next
    // scan.
    while let Some(&op_id) = f.loops_in_block(f.entry).first() {
        let Opcode::For {
            trip: TripCount::Constant(n),
            ..
        } = f.op(op_id).opcode
        else {
            return Err(CompileError::DynamicTripNotSupported { op: op_id });
        };
        expand(f, f.entry, op_id, n);
        expanded += 1;
    }
    propagate_statuses(f);
    normalize_arith_opcodes(f);
    Ok(expanded)
}

fn expand(f: &mut Function, block: BlockId, op_id: OpId, n: u64) {
    let body = f.for_body(op_id);
    let args = f.block(body).args.clone();
    let inits = f.op(op_id).operands.clone();
    let results = f.op(op_id).results.clone();

    let mut carried = inits;
    for _ in 0..n {
        let mut map: HashMap<_, _> = args.iter().copied().zip(carried.iter().copied()).collect();
        let at = f.position_in_block(block, op_id).expect("loop in block");
        carried = clone_body_ops(f, body, block, at, &mut map);
    }
    for (&r, &c) in results.iter().zip(&carried) {
        f.replace_uses(r, c, None);
    }
    let pos = f.position_in_block(block, op_id).expect("loop in block");
    f.block_mut(block).ops.remove(pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ir::verify::verify_traced;
    use halo_ir::FunctionBuilder;

    #[test]
    fn unrolls_flat_loop_to_straight_line() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w = b.input_cipher("w");
        let r = b.for_loop(TripCount::Constant(4), &[w], 4, |b, a| vec![b.mul(a[0], x)]);
        b.ret(&r);
        let mut f = b.finish();
        assert_eq!(full_unroll(&mut f).unwrap(), 1);
        verify_traced(&f).unwrap();
        assert!(f.loops_in_block(f.entry).is_empty());
        assert_eq!(f.count_ops(Opcode::is_mult), 4);
    }

    #[test]
    fn unrolls_nested_loops_multiplicatively() {
        let mut b = FunctionBuilder::new("t", 8);
        let w = b.input_cipher("w");
        let r = b.for_loop(TripCount::Constant(3), &[w], 4, |b, outer| {
            let inner = b.for_loop(TripCount::Constant(2), &[outer[0]], 4, |b, a| {
                vec![b.mul(a[0], a[0])]
            });
            vec![inner[0]]
        });
        b.ret(&r);
        let mut f = b.finish();
        assert_eq!(
            full_unroll(&mut f).unwrap(),
            1 + 3,
            "outer once, 3 cloned inners"
        );
        verify_traced(&f).unwrap();
        assert_eq!(f.count_ops(Opcode::is_mult), 6);
    }

    #[test]
    fn zero_trip_loop_forwards_inits() {
        let mut b = FunctionBuilder::new("t", 8);
        let w = b.input_cipher("w");
        let r = b.for_loop(TripCount::Constant(0), &[w], 4, |b, a| {
            vec![b.mul(a[0], a[0])]
        });
        b.ret(&r);
        let mut f = b.finish();
        full_unroll(&mut f).unwrap();
        assert_eq!(f.outputs(), vec![w]);
    }

    #[test]
    fn dynamic_trip_is_rejected() {
        let mut b = FunctionBuilder::new("t", 8);
        let w = b.input_cipher("w");
        let r = b.for_loop(TripCount::dynamic("n"), &[w], 4, |b, a| {
            vec![b.mul(a[0], a[0])]
        });
        b.ret(&r);
        let mut f = b.finish();
        let err = full_unroll(&mut f).unwrap_err();
        assert!(matches!(err, CompileError::DynamicTripNotSupported { .. }));
    }

    #[test]
    fn unrolled_plain_init_becomes_cipher_chain_with_fixed_opcodes() {
        // iteration 1 uses the plain init (addcp); iterations 2+ use the
        // previous iteration's cipher result (normalized to addcc).
        let mut b = FunctionBuilder::new("t", 8);
        let y = b.input_cipher("y");
        let a0 = b.const_splat(0.0);
        let r = b.for_loop(TripCount::Constant(3), &[a0], 4, |b, args| {
            vec![b.add(args[0], y)]
        });
        b.ret(&r);
        let mut f = b.finish();
        full_unroll(&mut f).unwrap();
        verify_traced(&f).unwrap();
        let kinds: Vec<_> = f
            .block(f.entry)
            .ops
            .iter()
            .map(|&o| f.op(o).opcode.mnemonic())
            .filter(|k| k.starts_with("add"))
            .collect();
        assert_eq!(kinds, vec!["addcp", "addcc", "addcc"]);
    }
}
