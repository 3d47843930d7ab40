//! The backend trait: the op surface an RNS-CKKS library exposes.
//!
//! The HALO runtime executes compiled IR against any [`Backend`]. Two
//! implementations ship in this crate: the fast [`crate::sim::SimBackend`]
//! (slot-vector semantics, calibrated noise, full-size parameters) and the
//! exact [`crate::toy::ToyBackend`] (real polynomial arithmetic at reduced
//! ring degree).
//!
//! Plaintext operands are passed as slot vectors (`&[f64]`); backends
//! expand them to the slot count with [`expand_to_slots`] and encode them
//! internally at the ciphertext operand's level and scale.

use std::borrow::Cow;
use std::fmt;

use crate::params::CkksParams;

/// An error raised by a backend: level/scale constraint violations,
/// capacity overflows, transient faults, or genuinely unsupported requests.
///
/// Structured by kind so callers (notably the runtime's `RunError`) can
/// match on *what* went wrong instead of parsing strings. The enum is
/// `#[non_exhaustive]`: future backends may report new failure classes,
/// so downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendError {
    /// Binary-op operands sit at different levels.
    LevelMismatch {
        /// Level of the first operand.
        expected: u32,
        /// Level of the second operand.
        got: u32,
    },
    /// An operand's scale degree violates the op's contract (e.g. `multcc`
    /// on a pending-rescale operand, or `rescale` at waterline).
    ScaleDegreeMismatch {
        /// The degree the op requires.
        expected: u32,
        /// The degree the operand carries.
        got: u32,
    },
    /// More values than the parameter set has slots.
    SlotOverflow {
        /// Provided value count.
        len: usize,
        /// Available slot count.
        slots: usize,
    },
    /// No levels left for an op that must consume one (mult/rescale at
    /// level 0, modswitch below level 0).
    LevelExhausted {
        /// The op that needed a level.
        op: &'static str,
        /// The operand's current level.
        level: u32,
        /// The level the op needs the operand to hold.
        needed: u32,
    },
    /// A transient, retryable fault: the op failed for reasons unrelated
    /// to its arguments (a device hiccup, an injected chaos fault, a lost
    /// RPC in a remote backend) and may succeed if simply re-issued.
    Transient {
        /// The op that faulted.
        op: &'static str,
    },
    /// Anything the backend cannot express (out-of-range encrypt or
    /// bootstrap targets, zero-step modswitch, …).
    Unsupported(String),
}

impl BackendError {
    /// Whether retrying the exact same op may succeed.
    ///
    /// Level/scale violations are deterministic — the same call will fail
    /// the same way forever — while [`BackendError::Transient`] faults are
    /// worth re-issuing.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, BackendError::Transient { .. })
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::LevelMismatch { expected, got } => {
                write!(
                    f,
                    "operand levels differ: left operand at level {expected}, right at level {got}"
                )
            }
            BackendError::ScaleDegreeMismatch { expected, got } => {
                write!(
                    f,
                    "operand carries scale degree {got} where degree {expected} \
                     (1 = waterline Rf, 2 = pending rescale) is required"
                )
            }
            BackendError::SlotOverflow { len, slots } => {
                write!(f, "{len} values exceed the {slots} available slots")
            }
            BackendError::LevelExhausted { op, level, needed } => write!(
                f,
                "no levels left: {op} needs its operand at level >= {needed} but it sits at \
                 level {level}"
            ),
            BackendError::Transient { op } => {
                write!(f, "transient backend fault during {op} (retryable)")
            }
            BackendError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Result alias for backend operations.
pub type Result<T> = std::result::Result<T, BackendError>;

/// An RNS-CKKS evaluation backend.
///
/// All binary ops require operand ciphertexts at equal levels (and, for
/// additions, equal scale degrees) per §2.2 of the paper; implementations
/// must reject violations rather than silently coerce, because the whole
/// point of the compiler under test is to make such coercions explicit.
///
/// Evaluation ops take `&self`: a backend is logically immutable per op
/// (keys and parameters are fixed at construction) and any genuinely
/// mutable state — the noise/encryption RNG, lazily generated keys — lives
/// behind interior mutability. Together with the `Send + Sync` bound this
/// makes every backend shareable across threads (e.g. `Arc<ToyBackend>`),
/// which is what lets the toy backend parallelize its limb loops and lets
/// future work shard whole programs.
pub trait Backend: Send + Sync {
    /// Ciphertext handle.
    type Ct: Clone;

    /// Scheme parameters.
    fn params(&self) -> &CkksParams;

    /// Encrypts a slot vector at the given level (waterline scale).
    ///
    /// # Errors
    ///
    /// Fails if `values.len()` exceeds the slot count or `level` exceeds
    /// the parameter maximum.
    fn encrypt(&self, values: &[f64], level: u32) -> Result<Self::Ct>;

    /// Decrypts to a slot vector.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is malformed (e.g. pending rescale in
    /// backends that require waterline scale for decryption).
    fn decrypt(&self, ct: &Self::Ct) -> Result<Vec<f64>>;

    /// Current level of a ciphertext.
    fn level(&self, ct: &Self::Ct) -> u32;

    /// Current scale degree (1 = waterline, 2 = pending rescale).
    fn degree(&self, ct: &Self::Ct) -> u32;

    /// Ciphertext + ciphertext (`addcc`).
    ///
    /// # Errors
    ///
    /// Fails on level or scale-degree mismatch.
    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Ciphertext − ciphertext (`subcc`).
    ///
    /// # Errors
    ///
    /// Fails on level or scale-degree mismatch.
    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Ciphertext + plaintext (`addcp`).
    ///
    /// # Errors
    ///
    /// Fails if the plaintext cannot be encoded at the operand's type,
    /// including [`BackendError::SlotOverflow`] when `p` is longer than the
    /// slot count.
    fn add_plain(&self, a: &Self::Ct, p: &[f64]) -> Result<Self::Ct>;

    /// Ciphertext − plaintext (`subcp`).
    ///
    /// # Errors
    ///
    /// Fails if the plaintext cannot be encoded at the operand's type,
    /// including [`BackendError::SlotOverflow`] when `p` is longer than the
    /// slot count.
    fn sub_plain(&self, a: &Self::Ct, p: &[f64]) -> Result<Self::Ct>;

    /// Ciphertext × ciphertext (`multcc`), with relinearization. The result
    /// has scale degree 2 (a rescale is pending).
    ///
    /// # Errors
    ///
    /// Fails on level mismatch, non-waterline operands, or level 0.
    fn mult(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Ciphertext × plaintext (`multcp`). Result scale degree 2.
    ///
    /// # Errors
    ///
    /// Fails on non-waterline operand or level 0, and with
    /// [`BackendError::SlotOverflow`] when `p` is longer than the slot count.
    fn mult_plain(&self, a: &Self::Ct, p: &[f64]) -> Result<Self::Ct>;

    /// Sign flip.
    ///
    /// # Errors
    ///
    /// Infallible for well-formed inputs; implementations may still report
    /// malformed ciphertexts.
    fn negate(&self, a: &Self::Ct) -> Result<Self::Ct>;

    /// Cyclic slot rotation by `offset` (positive = left).
    ///
    /// # Errors
    ///
    /// Fails if the backend lacks a rotation key for `offset`.
    fn rotate(&self, a: &Self::Ct, offset: i64) -> Result<Self::Ct>;

    /// Rotates one ciphertext by every offset in `offsets`, returning one
    /// result per offset in order.
    ///
    /// The default implementation is a sequential [`Backend::rotate`]
    /// loop, so every backend works unchanged. Backends with hoisted
    /// (Halevi–Shoup) key switching override this to share the digit
    /// decomposition and per-digit NTTs across the whole batch; overrides
    /// must stay *bit-identical* to the sequential loop — hoisting is a
    /// latency optimization, never a semantic one.
    ///
    /// # Errors
    ///
    /// Fails if any single rotation would.
    fn rotate_batch(&self, a: &Self::Ct, offsets: &[i64]) -> Result<Vec<Self::Ct>> {
        // An empty batch is a no-op: no key material, no decomposition,
        // not even a clone of the operand.
        if offsets.is_empty() {
            return Ok(Vec::new());
        }
        // Duplicate offsets reuse the first result instead of paying the
        // full rotation again — rotations are deterministic, so the clone
        // is bit-identical to recomputing. An all-duplicate batch
        // therefore costs exactly one rotation regardless of its length.
        let mut out: Vec<Self::Ct> = Vec::with_capacity(offsets.len());
        let mut seen: Vec<(i64, usize)> = Vec::new();
        for &o in offsets {
            if let Some(&(_, i)) = seen.iter().find(|&&(prev, _)| prev == o) {
                out.push(out[i].clone());
            } else {
                seen.push((o, out.len()));
                out.push(self.rotate(a, o)?);
            }
        }
        Ok(out)
    }

    /// Rescale: divide the scale by `Rf`, dropping one level (degree 2→1).
    ///
    /// # Errors
    ///
    /// Fails unless the operand has degree 2 and level ≥ 1.
    fn rescale(&self, a: &Self::Ct) -> Result<Self::Ct>;

    /// Modswitch: drop `down` levels without changing the scale.
    ///
    /// # Errors
    ///
    /// Fails if `down` is 0 or exceeds the operand level.
    fn modswitch(&self, a: &Self::Ct, down: u32) -> Result<Self::Ct>;

    /// Bootstrap: recover the level to `target` (paper §2.3).
    ///
    /// # Errors
    ///
    /// Fails unless the operand is at waterline scale and `target` is
    /// within `1..=max_level`.
    fn bootstrap(&self, a: &Self::Ct, target: u32) -> Result<Self::Ct>;
}

/// Expands a plaintext payload to `slots` values. A short payload repeats
/// cyclically (the paper replicates short value vectors across the
/// ciphertext, §6.1), an empty one reads as zeros, and a full-length one
/// is borrowed as it is.
///
/// # Errors
///
/// [`BackendError::SlotOverflow`] when the payload is longer than `slots`:
/// it cannot be encoded without dropping values.
pub fn expand_to_slots(values: &[f64], slots: usize) -> Result<Cow<'_, [f64]>> {
    match values.len() {
        len if len == slots => Ok(Cow::Borrowed(values)),
        len if len > slots => Err(BackendError::SlotOverflow { len, slots }),
        0 => Ok(Cow::Owned(vec![0.0; slots])),
        len => {
            let mut out = Vec::with_capacity(slots);
            while out.len() < slots {
                out.extend_from_slice(&values[..len.min(slots - out.len())]);
            }
            Ok(Cow::Owned(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_repeats_short_payloads_cyclically() {
        assert_eq!(
            *expand_to_slots(&[1.0, 2.0], 5).unwrap(),
            [1.0, 2.0, 1.0, 2.0, 1.0]
        );
        assert_eq!(*expand_to_slots(&[], 3).unwrap(), [0.0; 3]);
        assert!(matches!(
            expand_to_slots(&[1.0; 4], 4).unwrap(),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn expand_rejects_payloads_longer_than_the_slots() {
        assert_eq!(
            expand_to_slots(&[1.0; 5], 4),
            Err(BackendError::SlotOverflow { len: 5, slots: 4 })
        );
    }
}
