//! The arena-based function container: blocks, ops, and SSA values.
//!
//! A [`Function`] owns three arenas (values, ops, blocks) addressed by the
//! copyable ids [`ValueId`], [`OpId`], [`BlockId`]. Blocks hold an ordered
//! list of op ids; the [`crate::op::Opcode::For`] op owns a nested body
//! block, giving the IR its region structure. Ops removed from a block stay
//! in the arena (ids remain valid) but become unreachable; the printer and
//! verifier only walk reachable ops.

use std::fmt;

use crate::op::{Op, Opcode};
use crate::types::CtType;

/// Identifier of an SSA value within one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifier of an operation within one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Identifier of a block within one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// How a value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// The `index`-th argument of `block` (a loop-carried variable).
    BlockArg { block: BlockId, index: usize },
    /// The `index`-th result of `op`.
    OpResult { op: OpId, index: usize },
}

/// An SSA value: its defining site and its [`CtType`].
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Defining site.
    pub kind: ValueKind,
    /// Status / level / scale degree.
    pub ty: CtType,
    /// Optional human-readable name (inputs, loop-carried variables).
    pub name: Option<String>,
}

/// A straight-line sequence of ops with block arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Block arguments (loop-carried variables for loop bodies).
    pub args: Vec<ValueId>,
    /// Ordered op list; the last op must be a terminator once complete.
    pub ops: Vec<OpId>,
}

/// A single-function RNS-CKKS program.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (used in the printed form).
    pub name: String,
    /// Slot count of a ciphertext (`N/2`).
    pub slots: usize,
    values: Vec<Value>,
    ops: Vec<Op>,
    blocks: Vec<Block>,
    /// The entry (top-level) block.
    pub entry: BlockId,
}

impl Function {
    /// Creates an empty function with an entry block.
    #[must_use]
    pub fn new(name: impl Into<String>, slots: usize) -> Function {
        Function {
            name: name.into(),
            slots,
            values: Vec::new(),
            ops: Vec::new(),
            blocks: vec![Block::default()],
            entry: BlockId(0),
        }
    }

    // ------------------------------------------------------------------
    // Arena accessors
    // ------------------------------------------------------------------

    /// The op behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is from a different function.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.0 as usize]
    }

    /// Mutable access to the op behind `id`.
    pub fn op_mut(&mut self, id: OpId) -> &mut Op {
        &mut self.ops[id.0 as usize]
    }

    /// The op behind `id`, or `None` for a dangling id — the
    /// non-panicking accessor the runtime uses on untrusted programs.
    #[must_use]
    pub fn try_op(&self, id: OpId) -> Option<&Op> {
        self.ops.get(id.0 as usize)
    }

    /// The block behind `id`, or `None` for a dangling id.
    #[must_use]
    pub fn try_block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.0 as usize)
    }

    /// The type of value `id`, or `None` for a dangling id.
    #[must_use]
    pub fn try_ty(&self, id: ValueId) -> Option<CtType> {
        self.values.get(id.0 as usize).map(|v| v.ty)
    }

    /// The value behind `id`.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.0 as usize]
    }

    /// Mutable access to the value behind `id`.
    pub fn value_mut(&mut self, id: ValueId) -> &mut Value {
        &mut self.values[id.0 as usize]
    }

    /// Shorthand for the type of a value.
    #[must_use]
    pub fn ty(&self, id: ValueId) -> CtType {
        self.values[id.0 as usize].ty
    }

    /// Sets the type of a value.
    pub fn set_ty(&mut self, id: ValueId, ty: CtType) {
        self.values[id.0 as usize].ty = ty;
    }

    /// The block behind `id`.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to the block behind `id`.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Number of values in the arena (including unreachable ones).
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of ops in the arena (including unreachable ones).
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a fresh empty block.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Adds an argument of type `ty` to `block`, returning its value.
    pub fn add_block_arg(&mut self, block: BlockId, ty: CtType, name: Option<String>) -> ValueId {
        let index = self.blocks[block.0 as usize].args.len();
        let v = self.new_value(ValueKind::BlockArg { block, index }, ty, name);
        self.blocks[block.0 as usize].args.push(v);
        v
    }

    fn new_value(&mut self, kind: ValueKind, ty: CtType, name: Option<String>) -> ValueId {
        self.values.push(Value { kind, ty, name });
        ValueId((self.values.len() - 1) as u32)
    }

    /// Creates an op (not yet placed in any block) with `result_tys.len()`
    /// results, returning its id.
    pub fn create_op(
        &mut self,
        opcode: Opcode,
        operands: Vec<ValueId>,
        result_tys: &[CtType],
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let mut results = Vec::with_capacity(result_tys.len());
        for (i, ty) in result_tys.iter().enumerate() {
            results.push(self.new_value(ValueKind::OpResult { op: id, index: i }, *ty, None));
        }
        self.ops.push(Op {
            opcode,
            operands,
            results,
        });
        id
    }

    /// Creates an op and appends it to `block`. Returns the op id.
    pub fn push_op(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        operands: Vec<ValueId>,
        result_tys: &[CtType],
    ) -> OpId {
        let id = self.create_op(opcode, operands, result_tys);
        self.blocks[block.0 as usize].ops.push(id);
        id
    }

    /// Creates an op and inserts it into `block` at position `index`.
    pub fn insert_op(
        &mut self,
        block: BlockId,
        index: usize,
        opcode: Opcode,
        operands: Vec<ValueId>,
        result_tys: &[CtType],
    ) -> OpId {
        let id = self.create_op(opcode, operands, result_tys);
        self.blocks[block.0 as usize].ops.insert(index, id);
        id
    }

    /// Single-result shorthand for [`Function::push_op`]: returns the result.
    pub fn push_op1(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        operands: Vec<ValueId>,
        ty: CtType,
    ) -> ValueId {
        let id = self.push_op(block, opcode, operands, &[ty]);
        self.ops[id.0 as usize].results[0]
    }

    /// Single-result shorthand for [`Function::insert_op`].
    pub fn insert_op1(
        &mut self,
        block: BlockId,
        index: usize,
        opcode: Opcode,
        operands: Vec<ValueId>,
        ty: CtType,
    ) -> ValueId {
        let id = self.insert_op(block, index, opcode, operands, &[ty]);
        self.ops[id.0 as usize].results[0]
    }

    // ------------------------------------------------------------------
    // Structure helpers
    // ------------------------------------------------------------------

    /// The terminator op of `block`, if the block is non-empty and ends in
    /// one.
    #[must_use]
    pub fn terminator(&self, block: BlockId) -> Option<OpId> {
        let last = *self.blocks[block.0 as usize].ops.last()?;
        self.op(last).opcode.is_terminator().then_some(last)
    }

    /// The body block of a `For` op.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `For` op.
    #[must_use]
    pub fn for_body(&self, id: OpId) -> BlockId {
        match &self.op(id).opcode {
            Opcode::For { body, .. } => *body,
            other => panic!("for_body on {:?}", other.mnemonic()),
        }
    }

    /// Position of op `op` within `block`, if present.
    #[must_use]
    pub fn position_in_block(&self, block: BlockId, op: OpId) -> Option<usize> {
        self.blocks[block.0 as usize]
            .ops
            .iter()
            .position(|&o| o == op)
    }

    /// All `For` ops directly inside `block` (non-recursive), in order.
    #[must_use]
    pub fn loops_in_block(&self, block: BlockId) -> Vec<OpId> {
        self.blocks[block.0 as usize]
            .ops
            .iter()
            .copied()
            .filter(|&o| matches!(self.op(o).opcode, Opcode::For { .. }))
            .collect()
    }

    /// Walks all reachable ops depth-first (entering loop bodies after the
    /// `For` op itself), invoking `f` with the containing block and op id.
    pub fn walk_ops(&self, mut f: impl FnMut(BlockId, OpId)) {
        self.walk_block(self.entry, &mut f);
    }

    fn walk_block(&self, block: BlockId, f: &mut impl FnMut(BlockId, OpId)) {
        for &op in &self.blocks[block.0 as usize].ops {
            f(block, op);
            if let Opcode::For { body, .. } = self.op(op).opcode {
                self.walk_block(body, f);
            }
        }
    }

    /// Counts reachable ops satisfying `pred` (recursively, *statically* —
    /// loop bodies are counted once, not per iteration).
    #[must_use]
    pub fn count_ops(&self, mut pred: impl FnMut(&Opcode) -> bool) -> usize {
        let mut n = 0;
        self.walk_ops(|_, op| {
            if pred(&self.op(op).opcode) {
                n += 1;
            }
        });
        n
    }

    /// All uses of `value` among reachable ops: `(block, op, operand index)`.
    #[must_use]
    pub fn uses_of(&self, value: ValueId) -> Vec<(BlockId, OpId, usize)> {
        let mut uses = Vec::new();
        self.walk_ops(|block, op| {
            for (i, &operand) in self.op(op).operands.iter().enumerate() {
                if operand == value {
                    uses.push((block, op, i));
                }
            }
        });
        uses
    }

    /// Replaces every reachable operand reference to `old` with `new`,
    /// except inside the op `except` (typically the op defining `new`).
    pub fn replace_uses(&mut self, old: ValueId, new: ValueId, except: Option<OpId>) {
        let uses = self.uses_of(old);
        for (_, op, idx) in uses {
            if Some(op) == except {
                continue;
            }
            self.ops[op.0 as usize].operands[idx] = new;
        }
    }

    /// Replaces uses of `old` with `new` in ops `block[from..]` and their
    /// nested bodies.
    pub fn replace_uses_from(&mut self, block: BlockId, from: usize, old: ValueId, new: ValueId) {
        let tail = self.blocks[block.0 as usize].ops[from..].to_vec();
        for op in tail {
            self.replace_in_op_rec(op, old, new);
        }
    }

    fn replace_in_op_rec(&mut self, op: OpId, old: ValueId, new: ValueId) {
        for operand in &mut self.ops[op.0 as usize].operands {
            if *operand == old {
                *operand = new;
            }
        }
        if let Opcode::For { body, .. } = self.op(op).opcode {
            self.replace_uses_from(body, 0, old, new);
        }
    }

    /// The function inputs: results of `Input` ops in the entry block.
    #[must_use]
    pub fn inputs(&self) -> Vec<ValueId> {
        self.blocks[self.entry.0 as usize]
            .ops
            .iter()
            .filter_map(|&op| match &self.op(op).opcode {
                Opcode::Input { .. } => Some(self.op(op).results[0]),
                _ => None,
            })
            .collect()
    }

    /// The function outputs (operands of the entry block's `Return`).
    #[must_use]
    pub fn outputs(&self) -> Vec<ValueId> {
        match self.terminator(self.entry) {
            Some(t) if matches!(self.op(t).opcode, Opcode::Return) => self.op(t).operands.clone(),
            _ => Vec::new(),
        }
    }

    /// All distinct trip-count symbols referenced by reachable loops.
    #[must_use]
    pub fn trip_symbols(&self) -> Vec<String> {
        let mut syms = Vec::new();
        self.walk_ops(|_, op| {
            if let Opcode::For { trip, .. } = &self.op(op).opcode {
                if let Some(s) = trip.symbol() {
                    if !syms.iter().any(|x| x == s) {
                        syms.push(s.to_string());
                    }
                }
            }
        });
        syms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::TripCount;
    use crate::types::CtType;

    fn tiny() -> (Function, ValueId, ValueId) {
        let mut f = Function::new("t", 8);
        let e = f.entry;
        let x = f.push_op1(
            e,
            Opcode::Input { name: "x".into() },
            vec![],
            CtType::cipher_unset(),
        );
        let y = f.push_op1(
            e,
            Opcode::Input { name: "y".into() },
            vec![],
            CtType::cipher_unset(),
        );
        (f, x, y)
    }

    #[test]
    fn push_and_access() {
        let (mut f, x, y) = tiny();
        let e = f.entry;
        let z = f.push_op1(e, Opcode::MultCC, vec![x, y], CtType::cipher_unset());
        f.push_op(e, Opcode::Return, vec![z], &[]);
        assert_eq!(f.block(e).ops.len(), 4);
        assert_eq!(f.outputs(), vec![z]);
        assert_eq!(f.inputs(), vec![x, y]);
        let term = f.terminator(e).unwrap();
        assert!(matches!(f.op(term).opcode, Opcode::Return));
    }

    #[test]
    fn uses_and_replace() {
        let (mut f, x, y) = tiny();
        let e = f.entry;
        let a = f.push_op1(e, Opcode::AddCC, vec![x, y], CtType::cipher_unset());
        let b = f.push_op1(e, Opcode::MultCC, vec![x, a], CtType::cipher_unset());
        f.push_op(e, Opcode::Return, vec![b], &[]);
        assert_eq!(f.uses_of(x).len(), 2);
        f.replace_uses(x, y, None);
        assert_eq!(f.uses_of(x).len(), 0);
        assert_eq!(f.uses_of(y).len(), 3);
    }

    #[test]
    fn loop_structure() {
        let (mut f, x, _) = tiny();
        let e = f.entry;
        let body = f.add_block();
        let arg = f.add_block_arg(body, CtType::cipher_unset(), Some("w".into()));
        let w2 = f.push_op1(body, Opcode::MultCC, vec![arg, arg], CtType::cipher_unset());
        f.push_op(body, Opcode::Yield, vec![w2], &[]);
        let fo = f.push_op(
            e,
            Opcode::For {
                trip: TripCount::Constant(3),
                body,
                num_elems: 4,
            },
            vec![x],
            &[CtType::cipher_unset()],
        );
        let res = f.op(fo).results[0];
        f.push_op(e, Opcode::Return, vec![res], &[]);
        assert_eq!(f.for_body(fo), body);
        assert_eq!(f.loops_in_block(e), vec![fo]);
        let mut seen = Vec::new();
        f.walk_ops(|_, op| seen.push(f.op(op).opcode.mnemonic()));
        assert_eq!(
            seen,
            vec!["input", "input", "for", "multcc", "yield", "return"]
        );
        assert_eq!(f.count_ops(|o| o.is_mult()), 1);
    }

    #[test]
    fn replace_uses_respects_except() {
        let (mut f, x, _) = tiny();
        let e = f.entry;
        let m = f.push_op(e, Opcode::Negate, vec![x], &[CtType::cipher_unset()]);
        let n = f.op(m).results[0];
        let a = f.push_op1(e, Opcode::AddCC, vec![x, n], CtType::cipher_unset());
        f.push_op(e, Opcode::Return, vec![a], &[]);
        // Replace x by n everywhere except in the negate that defines n.
        f.replace_uses(x, n, Some(m));
        assert_eq!(f.op(m).operands, vec![x]);
        let add_uses: Vec<_> = f.uses_of(n);
        assert_eq!(add_uses.len(), 2);
    }
}
