//! Static whole-program cost estimation over typed IR.
//!
//! Walks the compiled function pricing every op at its operand level with
//! the calibrated cost model, multiplying loop bodies by their trip counts
//! (dynamic trips are assumed to run `assumed_trip` iterations — the
//! paper's evaluation uses 40). The pipeline uses this to make the packing
//! decision cost-aware: packing trades `m` head bootstraps for one, but on
//! deep bodies the two extra multiplicative levels can force extra in-body
//! resets that outweigh the saving (the paper observes exactly this on
//! K-means, §7.1). The autotuner (`autotune`) uses the same estimate as
//! its search oracle.
//!
//! Rotation fan-outs — same-source `rotate` ops within one block, the
//! groups `halo_ir::analysis::rotation_fanouts` finds and the executor
//! hoists — are priced at the amortized hoisted-batch cost, so plans that
//! concentrate rotations (e.g. unrolled bodies) are not over-charged
//! relative to how they execute.

use std::collections::HashMap;

use halo_ckks::{CostModel, CostedOp};
use halo_ir::analysis::rotation_fanouts;
use halo_ir::func::{BlockId, Function, OpId};
use halo_ir::op::Opcode;
use halo_ir::types::Status;

/// Estimated execution latency (µs) of a typed function, assuming dynamic
/// trip counts run `assumed_trip` iterations.
#[must_use]
pub fn estimate_cost_us(f: &Function, assumed_trip: u64) -> f64 {
    block_cost(f, f.entry, assumed_trip, &CostModel::new(), false)
}

/// Admissible lower bound (µs) on the modeled cost of **any** typed
/// completion of a traced (pre-level) program.
///
/// Level assignment only *raises* op levels (the model's per-op latency is
/// monotone in level, floored at level 1) and *inserts* management ops
/// (rescale / modswitch / bootstrap), and splitting a rotation fan-out
/// with an inserted rescale only reduces amortization — so pricing every
/// compute op at level 1 with maximal fan-out amortization and zero
/// management cost can never exceed the estimate of the compiled program.
/// The branch-and-bound tuner uses this to discard whole plan prefixes
/// without running level assignment.
#[must_use]
pub fn traced_floor_us(f: &Function, assumed_trip: u64) -> f64 {
    block_cost(f, f.entry, assumed_trip, &CostModel::new(), true)
}

/// Rotation fan-out group sizes for one block ([`rotation_fanouts`]):
/// the whole group prices at the amortized [`CostModel::rotate_batch_us`]
/// cost, carried on the group's *first* op (which pays the whole batch);
/// later members map to 0 (free). Lone rotations are absent.
fn rotation_fanout_sizes(f: &Function, block: BlockId) -> HashMap<OpId, u32> {
    let mut sizes = HashMap::new();
    for g in rotation_fanouts(f, block) {
        sizes.extend(g.iter().map(|&id| (id, 0)));
        sizes.insert(g[0], g.len() as u32);
    }
    sizes
}

/// Prices `block`, loop bodies times their trip at `assumed`. With
/// `floor`, every compute op prices at level 1 and management ops are
/// free: [`traced_floor_us`]'s bound.
fn block_cost(f: &Function, block: BlockId, assumed: u64, cost: &CostModel, floor: bool) -> f64 {
    let fanouts = rotation_fanout_sizes(f, block);
    let mut total = 0.0;
    for &op_id in &f.block(block).ops {
        let op = f.op(op_id);
        let level = |i: usize| if floor { 1 } else { f.ty(op.operands[i]).level };
        let cipher = |i: usize| f.ty(op.operands[i]).status == Status::Cipher;
        total += match &op.opcode {
            Opcode::For { trip, body, .. } => {
                block_cost(f, *body, assumed, cost, floor) * trip.at(assumed) as f64
            }
            Opcode::MultCC if cipher(0) => cost.latency_us(CostedOp::MultCC { level: level(0) }),
            Opcode::MultCP => {
                cost.latency_us(CostedOp::MultCP { level: level(0) })
                    + cost.latency_us(CostedOp::Encode)
            }
            Opcode::AddCC | Opcode::SubCC if cipher(0) => {
                cost.latency_us(CostedOp::AddCC { level: level(0) })
            }
            Opcode::AddCP | Opcode::SubCP => {
                cost.latency_us(CostedOp::AddCP { level: level(0) })
                    + cost.latency_us(CostedOp::Encode)
            }
            Opcode::Negate if cipher(0) => cost.latency_us(CostedOp::Negate { level: level(0) }),
            Opcode::Rotate { .. } if cipher(0) => match fanouts.get(&op_id) {
                // First member of a fan-out pays the whole amortized batch;
                // the remaining members already hoisted their decompose.
                Some(&k) if k > 0 => cost.rotate_batch_us(level(0), k),
                Some(_) => 0.0,
                None => cost.latency_us(CostedOp::Rotate { level: level(0) }),
            },
            Opcode::Rescale if !floor => cost.latency_us(CostedOp::Rescale { level: level(0) }),
            Opcode::ModSwitch { down } if !floor => cost.modswitch_chain_us(level(0), *down),
            Opcode::Bootstrap { target } if !floor => {
                cost.latency_us(CostedOp::Bootstrap { target: *target })
            }
            Opcode::Const(_) | Opcode::Encrypt => cost.latency_us(CostedOp::Encode),
            _ => 0.0,
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompileOptions;
    use crate::scale::assign_levels;
    use halo_ckks::CkksParams;
    use halo_ir::op::TripCount;
    use halo_ir::FunctionBuilder;

    #[test]
    fn loop_cost_scales_with_assumed_trips() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w = b.input_cipher("w");
        let r = b.for_loop(
            TripCount::dynamic("n"),
            &[w],
            4,
            |b, a| vec![b.mul(a[0], x)],
        );
        b.ret(&r);
        let mut f = b.finish();
        assign_levels(&mut f, &CompileOptions::new(CkksParams::test_small())).unwrap();
        let c10 = estimate_cost_us(&f, 10);
        let c40 = estimate_cost_us(&f, 40);
        assert!(c40 > 3.5 * c10 && c40 < 4.5 * c10, "{c10} vs {c40}");
    }

    #[test]
    fn rotation_fanouts_price_at_the_amortized_batch_cost() {
        // Four rotations of one source in one block hoist a shared digit
        // decomposition at execution time (the PR 3 peephole); the static
        // estimate must price them the same way or the search is biased
        // against rotation-heavy (unrolled) plans. A chained variant with
        // four *distinct* sources is the control: same op mix, no fan-out.
        let build = |fanout: bool| {
            let mut b = FunctionBuilder::new("t", 8);
            let x = b.input_cipher("x");
            let mut acc = b.input_cipher("acc");
            let mut src = x;
            for k in 0..4 {
                let r = b.rotate(src, k + 1);
                if !fanout {
                    src = r; // chain: every rotation gets its own source
                }
                acc = b.add(acc, r);
            }
            b.ret(&[acc]);
            let mut f = b.finish();
            assign_levels(&mut f, &CompileOptions::new(CkksParams::test_small())).unwrap();
            f
        };
        let fanned = build(true);
        let chained = build(false);
        let est_fan = estimate_cost_us(&fanned, 1);
        let est_chain = estimate_cost_us(&chained, 1);
        // Rotations preserve their operand level, so all eight rotations
        // across the two programs run at one common level.
        let mut level = None;
        fanned.walk_ops(|_, id| {
            if level.is_none() && matches!(fanned.op(id).opcode, Opcode::Rotate { .. }) {
                level = Some(fanned.ty(fanned.op(id).operands[0]).level);
            }
        });
        let level = level.expect("program has rotations");
        let cost = halo_ckks::CostModel::new();
        let per_rot = cost.latency_us(halo_ckks::CostedOp::Rotate { level });
        let expected_saving = 4.0 * per_rot - cost.rotate_batch_us(level, 4);
        assert!(expected_saving > 0.0);
        assert!(
            (est_chain - est_fan - expected_saving).abs() < 1e-6,
            "fan-out saving must equal the hoisted decomposes: \
             chain {est_chain} vs fan {est_fan}, expected {expected_saving}"
        );
    }

    #[test]
    fn bootstraps_dominate_the_estimate() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w = b.input_cipher("w");
        let r = b.for_loop(
            TripCount::dynamic("n"),
            &[w],
            4,
            |b, a| vec![b.mul(a[0], x)],
        );
        b.ret(&r);
        let mut f = b.finish();
        assign_levels(&mut f, &CompileOptions::new(CkksParams::test_small())).unwrap();
        let total = estimate_cost_us(&f, 40);
        let boots = f.count_ops(|o| matches!(o, Opcode::Bootstrap { .. })) as f64;
        let boot_us = boots * 40.0 * 463_171.0;
        assert!(boot_us / total > 0.9, "bootstraps should dominate: {total}");
    }
}
