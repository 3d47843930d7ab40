//! Ciphertext and RNG-state serialization for durable execution.
//!
//! The runtime's crash-safe snapshot layer (`halo-runtime`, DESIGN.md §12)
//! needs to persist backend state across *process* boundaries: the
//! ciphertexts carried by a loop and the stream position of the backend's
//! deterministic RNG, so a resumed run replays the exact noise (sim) or
//! encryption randomness (toy) the crashed run would have drawn. This
//! module provides the byte-level plumbing:
//!
//! - [`SnapWriter`]-style append helpers and the bounds-checked
//!   [`SnapReader`] cursor — a fixed little-endian wire format, hand-rolled
//!   like `halo-bench`'s JSON module (no serde).
//! - [`SnapshotBackend`] — the extra capability a backend implements to be
//!   durable: save/load one ciphertext, save/load the RNG state.
//!
//! The sim backend saves its seed plus the generator's four xoshiro256++
//! state words, so a restore costs the same whatever the stream position.
//! The toy backend records its seed plus the per-encryption event log;
//! reseeding and replaying the logged draws restores the stream.

use crate::backend::Backend;
use crate::fault::FaultInjectingBackend;

/// A malformed or truncated snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The payload ended before a field could be read.
    Truncated {
        /// Bytes the reader needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A field decoded to an impossible value (bad tag, absurd length,
    /// wrong format name, seed mismatch…).
    Malformed(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit checksum — the integrity check appended to every
/// snapshot. Not cryptographic; it exists to catch torn writes and bad
/// disks, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ----------------------------------------------------------------------
// Append-side helpers (little-endian throughout).
// ----------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bit pattern
/// (bit-exact round-trip, NaN included).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, u32::try_from(b.len()).expect("blob fits u32"));
    out.extend_from_slice(b);
}

// ----------------------------------------------------------------------
// Read-side cursor.
// ----------------------------------------------------------------------

/// Sanity cap on decoded collection lengths: a corrupt length prefix must
/// produce a [`SnapError`], not a multi-gigabyte allocation.
const MAX_LEN: usize = 1 << 28;

/// A bounds-checked little-endian cursor over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of input.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix, validated against remaining input and
    /// [`MAX_LEN`]. Every element a length counts takes at least one
    /// byte, so a length above the bytes that remain is corrupt, and a
    /// caller may reserve capacity for any length this returns.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, a length above the remaining input, or
    /// an absurd length.
    pub fn read_len(&mut self) -> Result<usize, SnapError> {
        let n = self.u32()? as usize;
        if n > MAX_LEN {
            return Err(SnapError::Malformed(format!(
                "length {n} exceeds sanity cap"
            )));
        }
        if n > self.remaining() {
            return Err(SnapError::Malformed(format!(
                "length {n} exceeds the {} bytes that remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        let n = self.read_len()?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapError::Malformed("string is not UTF-8".into()))
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.read_len()?;
        self.take(n)
    }
}

// ----------------------------------------------------------------------
// The durable-backend capability.
// ----------------------------------------------------------------------

/// A [`Backend`] whose ciphertexts and RNG stream can be persisted and
/// restored byte-exactly — the capability the runtime's durable entry
/// points require (`Executor::run_durable` / `Executor::resume`, which
/// persist to and restore from the snapshot store they are given).
///
/// Contract: for a backend `b` and any ciphertext `ct` it produced,
/// `b.ct_load(&mut SnapReader::new(&saved))` where `saved` came from
/// `b.ct_save(&ct, …)` yields a ciphertext that decrypts bit-identically
/// and behaves identically under every op. `rng_save`/`rng_load` restore
/// the backend's randomness stream to the exact position it held at save
/// time, so the sequence of draws after a restore equals the sequence the
/// saving process would have drawn. Loading requires a backend constructed
/// with the *same* parameters and seed as the saving one; mismatches are
/// reported, not silently accepted.
pub trait SnapshotBackend: Backend {
    /// Version tag of this backend's ciphertext wire format (e.g.
    /// `"halo-ct-sim/2"`). Stored in the snapshot header and checked on
    /// load so a sim snapshot can never be fed to a toy backend.
    fn ct_format(&self) -> &'static str;

    /// Serializes one ciphertext (self-delimiting: `ct_load` consumes
    /// exactly what `ct_save` appended).
    fn ct_save(&self, ct: &Self::Ct, out: &mut Vec<u8>);

    /// Deserializes one ciphertext.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or a structurally invalid payload.
    fn ct_load(&self, r: &mut SnapReader<'_>) -> Result<Self::Ct, SnapError>;

    /// Serializes the RNG state (seed + stream position).
    fn rng_save(&self, out: &mut Vec<u8>);

    /// Restores the RNG stream to the saved position.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, a seed that does not match this
    /// backend's construction seed, or a stream position no generator
    /// reaches.
    fn rng_load(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// The fault decorator passes durability straight through to the wrapped
/// backend. Its own fault-schedule RNG is *not* part of the snapshot: the
/// schedule belongs to the chaos harness, not to program state, and a
/// resumed run is expected to face a fresh fault sequence.
impl<B: SnapshotBackend> SnapshotBackend for FaultInjectingBackend<B> {
    fn ct_format(&self) -> &'static str {
        self.inner().ct_format()
    }

    fn ct_save(&self, ct: &Self::Ct, out: &mut Vec<u8>) {
        self.inner().ct_save(ct, out);
    }

    fn ct_load(&self, r: &mut SnapReader<'_>) -> Result<Self::Ct, SnapError> {
        self.inner().ct_load(r)
    }

    fn rng_save(&self, out: &mut Vec<u8>) {
        self.inner().rng_save(out);
    }

    fn rng_load(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner().rng_load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.125);
        put_str(&mut out, "halo");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut r = SnapReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(r.str().unwrap(), "halo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        for cut in 0..out.len() {
            let mut r = SnapReader::new(&out[..cut]);
            assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
        }
    }

    #[test]
    fn absurd_length_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        let mut r = SnapReader::new(&out);
        assert!(matches!(r.read_len(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn a_length_above_the_remaining_input_is_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, 5);
        out.extend_from_slice(&[1, 2, 3, 4]);
        assert!(matches!(
            SnapReader::new(&out).read_len(),
            Err(SnapError::Malformed(_))
        ));
        out.push(5);
        assert_eq!(SnapReader::new(&out).read_len().unwrap(), 5);
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        // A single flipped bit changes the checksum.
        assert_ne!(
            fnv1a64(&[0u8; 64]),
            fnv1a64(&{
                let mut v = [0u8; 64];
                v[31] ^= 1;
                v
            })
        );
    }
}
