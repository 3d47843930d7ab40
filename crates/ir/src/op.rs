//! Opcodes, trip counts, and per-opcode structural facts.

use std::collections::HashMap;
use std::fmt;

use crate::func::BlockId;
use crate::types::Level;

/// Trip count of a [`Opcode::For`] loop.
///
/// HALO's headline capability is compiling loops whose trip count is a
/// run-time symbol; full-unrolling compilers (DaCapo) require
/// [`TripCount::Constant`]. The dynamic forms are affine in one symbol so
/// that loop peeling (`n − 1`) and level-aware unrolling (`⌊n/f⌋` main loop
/// plus `n mod f` epilogue) stay representable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TripCount {
    /// A compile-time constant trip count.
    Constant(u64),
    /// `max(0, ⌊(sym + add) / div⌋)`, resolved from the runtime environment.
    Dynamic { sym: String, add: i64, div: u64 },
    /// `(sym + add) mod div` (non-negative), for unrolling epilogues.
    DynamicRem { sym: String, add: i64, div: u64 },
}

impl TripCount {
    /// A plain dynamic trip count reading symbol `sym`.
    #[must_use]
    pub fn dynamic(sym: impl Into<String>) -> TripCount {
        TripCount::Dynamic {
            sym: sym.into(),
            add: 0,
            div: 1,
        }
    }

    /// Evaluates the trip count against a symbol environment.
    ///
    /// # Errors
    ///
    /// Returns the missing symbol name if the environment lacks it.
    pub fn eval(&self, env: &HashMap<String, u64>) -> Result<u64, String> {
        let n = match self.symbol() {
            Some(sym) => *env.get(sym).ok_or_else(|| sym.to_string())?,
            None => 0,
        };
        Ok(self.at(n))
    }

    /// The trip count when its symbol (if any) holds `n`.
    #[must_use]
    pub fn at(&self, n: u64) -> u64 {
        let num = |add: i64| u64::try_from(n as i64 + add).unwrap_or(0);
        match self {
            TripCount::Constant(c) => *c,
            TripCount::Dynamic { add, div, .. } => num(*add) / div,
            TripCount::DynamicRem { add, div, .. } => num(*add) % div,
        }
    }

    /// The largest factor this loop may be unrolled by: a constant trip
    /// caps it at the trip count, an undivided dynamic trip leaves it
    /// unbounded, and a divided trip or an epilogue is never re-split.
    #[must_use]
    pub fn unroll_cap(&self) -> Option<u64> {
        match self {
            TripCount::Constant(n) => Some(*n),
            TripCount::Dynamic { div: 1, .. } => Some(u64::MAX),
            TripCount::Dynamic { .. } | TripCount::DynamicRem { .. } => None,
        }
    }

    /// The trip count after peeling one iteration off the front.
    #[must_use]
    pub fn minus_one(&self) -> TripCount {
        match self {
            TripCount::Constant(n) => TripCount::Constant(n.saturating_sub(1)),
            TripCount::Dynamic { sym, add, div } => {
                debug_assert_eq!(*div, 1, "peel before unroll");
                TripCount::Dynamic {
                    sym: sym.clone(),
                    add: add - 1,
                    div: *div,
                }
            }
            TripCount::DynamicRem { .. } => {
                unreachable!("epilogue loops are never peeled")
            }
        }
    }

    /// Splits the trip count for unrolling by `factor`: returns the main
    /// loop's trip count (`⌊n/factor⌋`) and the epilogue's (`n mod factor`).
    ///
    /// # Panics
    ///
    /// Panics if called on an already-divided dynamic trip count or on an
    /// epilogue ([`TripCount::DynamicRem`]) trip count, or if `factor == 0`.
    #[must_use]
    pub fn split_for_unroll(&self, factor: u64) -> (TripCount, TripCount) {
        assert!(factor > 0, "unroll factor must be positive");
        match self {
            TripCount::Constant(n) => (
                TripCount::Constant(n / factor),
                TripCount::Constant(n % factor),
            ),
            TripCount::Dynamic { sym, add, div } => {
                assert_eq!(*div, 1, "cannot unroll an already-divided trip count");
                (
                    TripCount::Dynamic {
                        sym: sym.clone(),
                        add: *add,
                        div: factor,
                    },
                    TripCount::DynamicRem {
                        sym: sym.clone(),
                        add: *add,
                        div: factor,
                    },
                )
            }
            TripCount::DynamicRem { .. } => panic!("cannot unroll an epilogue loop"),
        }
    }

    /// The symbol this trip count depends on, if any.
    #[must_use]
    pub fn symbol(&self) -> Option<&str> {
        match self {
            TripCount::Constant(_) => None,
            TripCount::Dynamic { sym, .. } | TripCount::DynamicRem { sym, .. } => Some(sym),
        }
    }
}

impl fmt::Display for TripCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripCount::Constant(n) => write!(f, "{n}"),
            TripCount::Dynamic { sym, add, div } => {
                write!(f, "(%{sym}")?;
                if *add != 0 {
                    write!(f, "{add:+}")?;
                }
                write!(f, ")")?;
                if *div != 1 {
                    write!(f, "/{div}")?;
                }
                Ok(())
            }
            TripCount::DynamicRem { sym, add, div } => {
                write!(f, "(%{sym}")?;
                if *add != 0 {
                    write!(f, "{add:+}")?;
                }
                write!(f, ")%{div}")
            }
        }
    }
}

/// Constant payload of a [`Opcode::Const`] op.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstValue {
    /// A scalar replicated to every slot.
    Splat(f64),
    /// An explicit slot vector (cyclically repeated to fill the ciphertext).
    Vector(Vec<f64>),
    /// A 0/1 mask selecting slots `lo..hi` (used by the packing pass).
    Mask { lo: usize, hi: usize },
}

impl ConstValue {
    /// Approximate serialized size in bytes, used for code-size accounting
    /// (the paper's Table 7 includes constant sizes).
    #[must_use]
    pub fn encoded_size(&self) -> usize {
        match self {
            ConstValue::Splat(_) => 8,
            ConstValue::Vector(v) => 8 * v.len(),
            // Masks serialize as two offsets, not as a dense vector.
            ConstValue::Mask { .. } => 16,
        }
    }
}

/// The operation set of the IR.
///
/// The homomorphic ops mirror the RNS-CKKS API surface of §2 of the paper:
/// ciphertext–ciphertext and ciphertext–plaintext addition/multiplication,
/// rotation, and the level-management ops `rescale`, `modswitch`, and
/// `bootstrap`. `For`/`Yield`/`Return` provide MLIR-`scf`-style structure.
#[derive(Debug, Clone, PartialEq)]
pub enum Opcode {
    /// A function input (ciphertext or plaintext, fixed by its result type).
    Input { name: String },
    /// An encoded plaintext constant.
    Const(ConstValue),
    /// Trivial encryption of a plaintext value (plain → cipher). Used by
    /// the compiler when a loop-carried variable's initial value stays
    /// plain after peeling while its steady state is cipher.
    Encrypt,
    /// Ciphertext + ciphertext. Operands must share level and scale degree.
    AddCC,
    /// Ciphertext + plaintext (plaintext encodes at the ciphertext's type).
    AddCP,
    /// Ciphertext − ciphertext.
    SubCC,
    /// Ciphertext − plaintext (or plaintext − ciphertext via `Negate`).
    SubCP,
    /// Ciphertext × ciphertext. Operands must share level; degrees add.
    MultCC,
    /// Ciphertext × plaintext. Degrees add (plaintext contributes 1).
    MultCP,
    /// Plaintext-only arithmetic folded at trace time lives outside the IR;
    /// `Negate` flips the sign of a ciphertext (free: no level effect).
    Negate,
    /// Cyclic rotation of the slot vector by `offset` (positive = left).
    Rotate { offset: i64 },
    /// Divide the scale by `Rf`: degree 2 → 1, level `l → l−1`.
    Rescale,
    /// Drop `down` moduli: level `l → l−down`, scale unchanged.
    ModSwitch { down: u32 },
    /// Recover the level to `target` (paper §2.3); the most expensive op.
    Bootstrap { target: Level },
    /// Structured loop: operands are init args, results are loop results,
    /// `body` holds one block whose args are the loop-carried variables and
    /// whose terminator is `Yield`. `num_elems` is the programmer-declared
    /// valid element count per carried ciphertext (packing input, §6.1).
    For {
        trip: TripCount,
        body: BlockId,
        num_elems: usize,
    },
    /// Loop-body terminator; operands become the next iteration's args.
    Yield,
    /// Function terminator; operands are the program outputs.
    Return,
}

impl Opcode {
    /// Short mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Opcode::Input { .. } => "input",
            Opcode::Const(_) => "const",
            Opcode::Encrypt => "encrypt",
            Opcode::AddCC => "addcc",
            Opcode::AddCP => "addcp",
            Opcode::SubCC => "subcc",
            Opcode::SubCP => "subcp",
            Opcode::MultCC => "multcc",
            Opcode::MultCP => "multcp",
            Opcode::Negate => "negate",
            Opcode::Rotate { .. } => "rotate",
            Opcode::Rescale => "rescale",
            Opcode::ModSwitch { .. } => "modswitch",
            Opcode::Bootstrap { .. } => "bootstrap",
            Opcode::For { .. } => "for",
            Opcode::Yield => "yield",
            Opcode::Return => "return",
        }
    }

    /// Whether this op is a loop-body or function terminator.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Opcode::Yield | Opcode::Return)
    }

    /// Whether this op performs arithmetic whose result status is the join
    /// of its operand statuses.
    #[must_use]
    pub fn is_arith(&self) -> bool {
        matches!(
            self,
            Opcode::AddCC
                | Opcode::AddCP
                | Opcode::SubCC
                | Opcode::SubCP
                | Opcode::MultCC
                | Opcode::MultCP
                | Opcode::Negate
                | Opcode::Rotate { .. }
        )
    }

    /// Whether this op is a multiplication (contributes to scale degree).
    #[must_use]
    pub fn is_mult(&self) -> bool {
        matches!(self, Opcode::MultCC | Opcode::MultCP)
    }

    /// Whether this is one of the level-management ops of §2.3.
    #[must_use]
    pub fn is_level_management(&self) -> bool {
        matches!(
            self,
            Opcode::Rescale | Opcode::ModSwitch { .. } | Opcode::Bootstrap { .. }
        )
    }
}

/// An operation instance: opcode plus operand/result value lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// What the op does.
    pub opcode: Opcode,
    /// SSA operands (order matters).
    pub operands: Vec<crate::func::ValueId>,
    /// SSA results (most ops have one; `For` has one per carried variable,
    /// terminators have none).
    pub results: Vec<crate::func::ValueId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(n: u64) -> HashMap<String, u64> {
        let mut m = HashMap::new();
        m.insert("n".to_string(), n);
        m
    }

    #[test]
    fn constant_trip_eval() {
        assert_eq!(TripCount::Constant(40).eval(&env(0)).unwrap(), 40);
    }

    #[test]
    fn dynamic_trip_eval() {
        let t = TripCount::dynamic("n");
        assert_eq!(t.eval(&env(40)).unwrap(), 40);
        assert_eq!(t.minus_one().eval(&env(40)).unwrap(), 39);
        assert_eq!(t.minus_one().eval(&env(0)).unwrap(), 0);
    }

    #[test]
    fn dynamic_trip_missing_symbol() {
        let t = TripCount::dynamic("iters");
        assert_eq!(t.eval(&env(40)).unwrap_err(), "iters");
    }

    #[test]
    fn trip_value_and_unroll_cap() {
        let peeled = TripCount::dynamic("n").minus_one();
        let (main, epi) = peeled.split_for_unroll(3);
        assert_eq!(
            (peeled.at(0), main.at(11), epi.at(11), epi.at(0)),
            (0, 3, 1, 0)
        );
        assert_eq!(TripCount::Constant(7).at(40), 7);
        assert_eq!(TripCount::Constant(7).unroll_cap(), Some(7));
        assert_eq!(peeled.unroll_cap(), Some(u64::MAX));
        assert_eq!((main.unroll_cap(), epi.unroll_cap()), (None, None));
    }

    #[test]
    fn unroll_split_constant() {
        let (main, epi) = TripCount::Constant(39).split_for_unroll(2);
        assert_eq!(main, TripCount::Constant(19));
        assert_eq!(epi, TripCount::Constant(1));
    }

    #[test]
    fn unroll_split_dynamic_matches_paper_linear_counts() {
        // Linear regression, 40 iterations: peel → 39, unroll by 2 →
        // 19 main + 1 epilogue = 20 head bootstraps (paper Table 5).
        let t = TripCount::dynamic("n").minus_one();
        let (main, epi) = t.split_for_unroll(2);
        assert_eq!(main.eval(&env(40)).unwrap(), 19);
        assert_eq!(epi.eval(&env(40)).unwrap(), 1);
        assert_eq!(
            main.eval(&env(40)).unwrap() * 2 + epi.eval(&env(40)).unwrap(),
            39
        );
    }

    #[test]
    fn trip_display() {
        assert_eq!(TripCount::Constant(8).to_string(), "8");
        assert_eq!(TripCount::dynamic("n").to_string(), "(%n)");
        assert_eq!(TripCount::dynamic("n").minus_one().to_string(), "(%n-1)");
        let (main, epi) = TripCount::dynamic("n").minus_one().split_for_unroll(3);
        assert_eq!(main.to_string(), "(%n-1)/3");
        assert_eq!(epi.to_string(), "(%n-1)%3");
    }

    #[test]
    fn mask_const_size_is_compact() {
        assert_eq!(ConstValue::Mask { lo: 0, hi: 64 }.encoded_size(), 16);
        assert_eq!(ConstValue::Vector(vec![0.0; 100]).encoded_size(), 800);
        assert_eq!(ConstValue::Splat(1.5).encoded_size(), 8);
    }

    #[test]
    fn opcode_classification() {
        assert!(Opcode::MultCC.is_mult());
        assert!(Opcode::MultCP.is_mult());
        assert!(!Opcode::AddCC.is_mult());
        assert!(Opcode::Rescale.is_level_management());
        assert!(Opcode::Yield.is_terminator());
        assert!(Opcode::Rotate { offset: 4 }.is_arith());
        assert!(!Opcode::Bootstrap { target: 16 }.is_arith());
    }
}
