//! Exact plaintext reference execution.
//!
//! Evaluates a (typically *traced*, pre-compilation) program with plain
//! `f64` slot vectors: arithmetic is exact, level-management ops are
//! identities. The paper's Table 4 RMSE compares encrypted runs against
//! exactly this kind of non-encrypted ground truth.

use std::collections::HashMap;

use halo_ckks::backend::expand_to_slots;
use halo_ir::func::{BlockId, Function, ValueId};
use halo_ir::op::{ConstValue, Opcode};

use crate::exec::{Inputs, RunError};

/// Runs `f` on plaintext vectors. Both traced and compiled programs are
/// accepted (management ops pass values through unchanged).
///
/// # Errors
///
/// [`RunError::MissingInput`] for unbound inputs or trip symbols, and
/// [`RunError::Backend`] with `SlotOverflow` for an input or constant
/// longer than `slots`, which the encrypted run rejects as well.
pub fn reference_run(
    f: &Function,
    inputs: &Inputs,
    slots: usize,
) -> Result<Vec<Vec<f64>>, RunError> {
    let mut values: HashMap<ValueId, Vec<f64>> = HashMap::new();
    run_block(f, f.entry, inputs, slots, &mut values)?;
    let term = f
        .terminator(f.entry)
        .ok_or_else(|| RunError::Malformed("missing return".into()))?;
    f.op(term)
        .operands
        .iter()
        .map(|v| {
            values
                .get(v)
                .cloned()
                .ok_or_else(|| RunError::Malformed(format!("output {v} never computed")))
        })
        .collect()
}

fn run_block(
    f: &Function,
    block: BlockId,
    inputs: &Inputs,
    slots: usize,
    values: &mut HashMap<ValueId, Vec<f64>>,
) -> Result<(), RunError> {
    for &op_id in &f.block(block).ops {
        let op = f.op(op_id);
        let get = |values: &HashMap<ValueId, Vec<f64>>, v: ValueId| {
            values
                .get(&v)
                .cloned()
                .ok_or_else(|| RunError::Malformed(format!("value {v} used before computed")))
        };
        match &op.opcode {
            Opcode::Input { name } => {
                let data = inputs
                    .cipher_data(name)
                    .or_else(|| inputs.plain_data(name))
                    .ok_or_else(|| RunError::MissingInput(name.clone()))?;
                values.insert(op.results[0], expand_to_slots(data, slots)?.into_owned());
            }
            Opcode::Const(c) => {
                let data = match c {
                    ConstValue::Splat(x) => vec![*x; slots],
                    ConstValue::Vector(v) => expand_to_slots(v, slots)?.into_owned(),
                    ConstValue::Mask { lo, hi } => (0..slots)
                        .map(|i| if i >= *lo && i < *hi { 1.0 } else { 0.0 })
                        .collect(),
                };
                values.insert(op.results[0], data);
            }
            Opcode::AddCC | Opcode::AddCP => {
                let (a, b) = (get(values, op.operands[0])?, get(values, op.operands[1])?);
                values.insert(
                    op.results[0],
                    a.iter().zip(&b).map(|(x, y)| x + y).collect(),
                );
            }
            Opcode::SubCC | Opcode::SubCP => {
                let (a, b) = (get(values, op.operands[0])?, get(values, op.operands[1])?);
                values.insert(
                    op.results[0],
                    a.iter().zip(&b).map(|(x, y)| x - y).collect(),
                );
            }
            Opcode::MultCC | Opcode::MultCP => {
                let (a, b) = (get(values, op.operands[0])?, get(values, op.operands[1])?);
                values.insert(
                    op.results[0],
                    a.iter().zip(&b).map(|(x, y)| x * y).collect(),
                );
            }
            Opcode::Negate => {
                let a = get(values, op.operands[0])?;
                values.insert(op.results[0], a.iter().map(|x| -x).collect());
            }
            Opcode::Rotate { offset } => {
                let a = get(values, op.operands[0])?;
                let n = a.len() as i64;
                let s = offset.rem_euclid(n) as usize;
                values.insert(
                    op.results[0],
                    (0..a.len()).map(|i| a[(i + s) % a.len()]).collect(),
                );
            }
            Opcode::Rescale
            | Opcode::ModSwitch { .. }
            | Opcode::Bootstrap { .. }
            | Opcode::Encrypt => {
                // Level management (and trivial encryption) is
                // semantically the identity.
                let a = get(values, op.operands[0])?;
                values.insert(op.results[0], a);
            }
            Opcode::For { trip, body, .. } => {
                let n = trip
                    .eval(inputs.env_map())
                    .map_err(RunError::MissingInput)?;
                let args = f.block(*body).args.clone();
                let mut carried: Vec<Vec<f64>> = op
                    .operands
                    .iter()
                    .map(|&v| get(values, v))
                    .collect::<Result<_, _>>()?;
                for _ in 0..n {
                    for (&a, c) in args.iter().zip(&carried) {
                        values.insert(a, c.clone());
                    }
                    run_block(f, *body, inputs, slots, values)?;
                    let term = f
                        .terminator(*body)
                        .ok_or_else(|| RunError::Malformed("loop body missing yield".into()))?;
                    carried = f
                        .op(term)
                        .operands
                        .iter()
                        .map(|&v| get(values, v))
                        .collect::<Result<_, _>>()?;
                }
                for (&r, c) in op.results.iter().zip(carried) {
                    values.insert(r, c);
                }
            }
            Opcode::Yield | Opcode::Return => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ir::op::TripCount;
    use halo_ir::FunctionBuilder;

    #[test]
    fn reference_matches_hand_computation() {
        let mut b = FunctionBuilder::new("t", 8);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, a| {
            let p = b.mul(a[0], x);
            vec![p]
        });
        b.ret(&r);
        let f = b.finish();
        let out = reference_run(
            &f,
            &Inputs::new()
                .cipher("x", vec![3.0])
                .cipher("w0", vec![1.0])
                .env("n", 4),
            8,
        )
        .unwrap();
        assert_eq!(out[0][0], 81.0);
    }

    #[test]
    fn reference_and_exact_backend_agree() {
        use crate::exec::Executor;
        use halo_ckks::{CkksParams, SimBackend};
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let s = b.sub(x, y);
        let rot = b.rotate(s, 3);
        let m = b.mul(rot, rot);
        b.ret(&[m]);
        let f = b.finish();
        let inputs = Inputs::new()
            .cipher("x", (0..32).map(f64::from).collect())
            .cipher("y", vec![1.0; 32]);
        let ref_out = reference_run(&f, &inputs, 32).unwrap();
        let be = SimBackend::exact(CkksParams::test_small());
        let enc_out = Executor::new(&be).run(&f, &inputs).unwrap();
        assert_eq!(ref_out[0], enc_out.outputs[0]);
    }
}
