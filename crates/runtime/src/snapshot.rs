//! The `halo-snap/1` snapshot codec: one durable checkpoint of a running
//! program, serialized to a single self-verifying byte blob.
//!
//! A snapshot captures everything `Executor::resume` needs to continue a
//! loop from a header crossing in a *new process*:
//!
//! - the execution cursor — function name, the `for` op being executed,
//!   and the iteration about to run;
//! - the full value environment and the loop-carried values, ciphertexts
//!   serialized through the backend's [`SnapshotBackend`] codec;
//! - the backend's RNG replay state, so resumed noise/encryption draws are
//!   bit-identical to the draws the crashed process would have made.
//!
//! Wire layout (little-endian, hand-rolled like `halo-bench`'s JSON):
//!
//! ```text
//! "HALOSNAP" | version u32 | ct_format str | function str |
//! poly_degree u64 | max_level u32 | loop_op u32 | iteration u64 |
//! rng blob (len-prefixed) | value count u32 | { id u32, RtValue }… |
//! carried count u32 | RtValue… | FNV-1a-64 checksum u64
//! ```
//!
//! An `RtValue` is a tag byte (`0` plaintext, `1` ciphertext) followed by
//! the payload. The trailing checksum covers every preceding byte, so a
//! truncated file or a single flipped bit is detected before any state is
//! restored; decoding is side-effect-free until
//! [`DecodedSnapshot::apply_rng`] is explicitly invoked.
//!
//! The framing — magic, version, body, checksum — is shared with the
//! fleet's lease and result records: `seal` writes it and `open`
//! checks it.

use std::collections::HashMap;

use halo_ckks::snapshot::{
    fnv1a64, put_bytes, put_f64, put_str, put_u32, put_u64, put_u8, SnapError, SnapReader,
    SnapshotBackend,
};
use halo_ir::func::{OpId, ValueId};

use crate::exec::RtValue;

/// The snapshot format name, embedded in crash reports and logs.
pub const SNAP_FORMAT: &str = "halo-snap/1";

const MAGIC: &[u8; 8] = b"HALOSNAP";
const VERSION: u32 = 1;

const TAG_PT: u8 = 0;
const TAG_CT: u8 = 1;

/// Seals a record: `magic | version u32 | body | checksum u64`, where
/// `body` appends the record's fields and the checksum is FNV-1a-64 over
/// every byte before it.
pub(crate) fn seal(magic: &[u8; 8], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    body(&mut out);
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Opens a record [`seal`] wrote: checks its length, checksum, magic and
/// version, and returns a reader over its body.
///
/// # Errors
///
/// [`SnapError`] naming the first check that fails.
pub(crate) fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<SnapReader<'a>, SnapError> {
    let need = magic.len() + 4 + 8;
    if bytes.len() < need {
        return Err(SnapError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    let (sealed, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let computed = fnv1a64(sealed);
    if stored != computed {
        return Err(SnapError::Malformed(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let mut r = SnapReader::new(sealed);
    if r.take(magic.len())? != magic {
        return Err(SnapError::Malformed("bad magic".into()));
    }
    let found = r.u32()?;
    if found != version {
        return Err(SnapError::Malformed(format!(
            "record version {found}, this runtime reads {version}"
        )));
    }
    Ok(r)
}

/// A decoded, checksum-verified snapshot. RNG state is carried as a raw
/// blob and only applied to a backend via [`DecodedSnapshot::apply_rng`],
/// so a snapshot that later fails structural validation (e.g. its loop op
/// does not exist in the function) can be discarded without having
/// disturbed the backend.
pub struct DecodedSnapshot<C> {
    /// The `for` op the snapshot was taken in.
    pub loop_op: OpId,
    /// The iteration about to execute when the snapshot was taken.
    pub iter: u64,
    /// The full value environment at the loop header.
    pub values: HashMap<ValueId, RtValue<C>>,
    /// The loop-carried values at the header.
    pub carried: Vec<RtValue<C>>,
    rng: Vec<u8>,
}

impl<C> DecodedSnapshot<C> {
    /// Restores the backend's RNG stream to the snapshot position.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the saved replay state is malformed or was taken
    /// under a different seed.
    pub fn apply_rng<B: SnapshotBackend<Ct = C>>(&self, backend: &B) -> Result<(), SnapError> {
        let mut r = SnapReader::new(&self.rng);
        backend.rng_load(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::Malformed(
                "trailing bytes after RNG state".into(),
            ));
        }
        Ok(())
    }
}

fn put_rtvalue<B: SnapshotBackend>(backend: &B, v: &RtValue<B::Ct>, out: &mut Vec<u8>) {
    match v {
        RtValue::Pt(p) => {
            put_u8(out, TAG_PT);
            put_u32(out, u32::try_from(p.len()).expect("slots fit u32"));
            for &x in p {
                put_f64(out, x);
            }
        }
        RtValue::Ct(c) => {
            put_u8(out, TAG_CT);
            backend.ct_save(c, out);
        }
    }
}

fn read_rtvalue<B: SnapshotBackend>(
    backend: &B,
    r: &mut SnapReader<'_>,
) -> Result<RtValue<B::Ct>, SnapError> {
    match r.u8()? {
        TAG_PT => {
            let n = r.read_len()?;
            let mut p = Vec::with_capacity(n);
            for _ in 0..n {
                p.push(r.f64()?);
            }
            Ok(RtValue::Pt(p))
        }
        TAG_CT => Ok(RtValue::Ct(backend.ct_load(r)?)),
        t => Err(SnapError::Malformed(format!("value tag byte {t}"))),
    }
}

/// Serializes one loop-header checkpoint to a `halo-snap/1` blob.
///
/// The value map is written in ascending `ValueId` order, so identical
/// program states always produce identical bytes regardless of hash-map
/// iteration order.
#[must_use]
pub fn encode_snapshot<B: SnapshotBackend>(
    backend: &B,
    function: &str,
    loop_op: OpId,
    iter: u64,
    values: &HashMap<ValueId, RtValue<B::Ct>>,
    carried: &[RtValue<B::Ct>],
) -> Vec<u8> {
    seal(MAGIC, VERSION, |out| {
        put_str(out, backend.ct_format());
        put_str(out, function);
        put_u64(out, backend.params().poly_degree as u64);
        put_u32(out, backend.params().max_level);
        put_u32(out, loop_op.0);
        put_u64(out, iter);
        let mut rng = Vec::new();
        backend.rng_save(&mut rng);
        put_bytes(out, &rng);
        let mut ids: Vec<ValueId> = values.keys().copied().collect();
        ids.sort_by_key(|v| v.0);
        put_u32(out, u32::try_from(ids.len()).expect("values fit u32"));
        for id in ids {
            put_u32(out, id.0);
            put_rtvalue(backend, &values[&id], out);
        }
        put_u32(out, u32::try_from(carried.len()).expect("carried fit u32"));
        for v in carried {
            put_rtvalue(backend, v, out);
        }
    })
}

/// Verifies and decodes a `halo-snap/1` blob for resuming `function` on
/// `backend`.
///
/// The framing is verified first (`open`: length, checksum over the
/// whole payload, magic, version), then every header field is checked against the resuming backend (ciphertext
/// format, parameters) and function name — a snapshot from a different
/// program, backend, or parameter set is rejected, never half-applied.
///
/// # Errors
///
/// [`SnapError`] on truncation, checksum mismatch, or any header/payload
/// field that fails validation.
pub fn decode_snapshot<B: SnapshotBackend>(
    backend: &B,
    function: &str,
    bytes: &[u8],
) -> Result<DecodedSnapshot<B::Ct>, SnapError> {
    let mut r = open(bytes, MAGIC, VERSION)?;
    let fmt = r.str()?;
    if fmt != backend.ct_format() {
        return Err(SnapError::Malformed(format!(
            "ciphertext format {fmt:?} does not match backend {:?}",
            backend.ct_format()
        )));
    }
    let func = r.str()?;
    if func != function {
        return Err(SnapError::Malformed(format!(
            "snapshot is for function {func:?}, resuming {function:?}"
        )));
    }
    let poly_degree = r.u64()?;
    let max_level = r.u32()?;
    if poly_degree != backend.params().poly_degree as u64 || max_level != backend.params().max_level
    {
        return Err(SnapError::Malformed(format!(
            "snapshot parameters (N={poly_degree}, L={max_level}) do not match backend (N={}, L={})",
            backend.params().poly_degree,
            backend.params().max_level
        )));
    }
    let loop_op = OpId(r.u32()?);
    let iter = r.u64()?;
    let rng = r.bytes()?.to_vec();
    let nvalues = r.read_len()?;
    let mut values = HashMap::with_capacity(nvalues);
    for _ in 0..nvalues {
        let id = ValueId(r.u32()?);
        let v = read_rtvalue(backend, &mut r)?;
        if values.insert(id, v).is_some() {
            return Err(SnapError::Malformed(format!("duplicate value id {}", id.0)));
        }
    }
    let ncarried = r.read_len()?;
    let mut carried = Vec::with_capacity(ncarried);
    for _ in 0..ncarried {
        carried.push(read_rtvalue(backend, &mut r)?);
    }
    if r.remaining() != 0 {
        return Err(SnapError::Malformed(format!(
            "{} trailing bytes after snapshot payload",
            r.remaining()
        )));
    }
    Ok(DecodedSnapshot {
        loop_op,
        iter,
        values,
        carried,
        rng,
    })
}

/// Reads just the cursor — `(loop_op, iter)` — of a `halo-snap/1` blob
/// without a backend: the whole-blob checksum, magic, version, and
/// function name are verified, but the ciphertext payload is neither
/// decoded nor validated against any parameter set.
///
/// This is the cheap *frontier probe* the fleet layer uses to map a
/// snapshot to its position in the program's loop-header sequence;
/// resuming still goes through [`decode_snapshot`]'s full validation.
#[must_use]
pub fn peek_snapshot_cursor(function: &str, bytes: &[u8]) -> Option<(OpId, u64)> {
    let mut r = open(bytes, MAGIC, VERSION).ok()?;
    let _fmt = r.str().ok()?;
    if r.str().ok()? != function {
        return None;
    }
    let _poly_degree = r.u64().ok()?;
    let _max_level = r.u32().ok()?;
    let loop_op = OpId(r.u32().ok()?);
    let iter = r.u64().ok()?;
    Some((loop_op, iter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{decode_lease, decode_result, encode_lease, encode_result, LeaseRecord};
    use halo_ckks::{Backend, CkksParams, SimBackend, ToyBackend};
    use proptest::prelude::*;

    /// Applies `edit` to the body of a sealed record and seals it again
    /// under the record's own magic and version, so the mutation passes
    /// the checksum and reaches the field decoders.
    fn reseal_with(bytes: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let magic: [u8; 8] = bytes[..8].try_into().expect("magic");
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("version"));
        let mut body = bytes[12..bytes.len() - 8].to_vec();
        edit(&mut body);
        seal(&magic, version, |out| out.extend_from_slice(&body))
    }

    /// XORs `mask` into body byte `at` of a sealed record, sealed again.
    fn reseal(bytes: &[u8], at: usize, mask: u8) -> Vec<u8> {
        reseal_with(bytes, |body| body[at] ^= mask)
    }

    /// Replaces the first `from` in a sealed record's body with `to` (of
    /// the same length), sealed again.
    fn reseal_replacing(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        reseal_with(bytes, |body| {
            let at = body
                .windows(from.len())
                .position(|w| w == from)
                .expect("pattern in the body");
            body[at..at + from.len()].copy_from_slice(to);
        })
    }

    fn body_len(bytes: &[u8]) -> usize {
        bytes.len() - 12 - 8
    }

    fn sim() -> SimBackend {
        SimBackend::new(CkksParams {
            poly_degree: 32,
            max_level: 8,
            rf_bits: 40,
        })
    }

    fn sim_snapshot(be: &SimBackend) -> Vec<u8> {
        let mut values = HashMap::new();
        values.insert(ValueId(0), RtValue::Pt(vec![1.0, -2.0]));
        let ct = be.encrypt(&[0.5, 0.25], 5).expect("encrypt");
        values.insert(ValueId(3), RtValue::Ct(ct));
        let carried = vec![
            RtValue::Ct(be.encrypt(&[1.5], 8).expect("encrypt")),
            RtValue::Pt(vec![3.0]),
        ];
        encode_snapshot(be, "prog", OpId(7), 3, &values, &carried)
    }

    /// A toy record: N = 16, L = 2, one carried ciphertext.
    fn toy_snapshot(be: &ToyBackend) -> Vec<u8> {
        let carried = vec![RtValue::Ct(be.encrypt(&[0.5, -0.25], 2).expect("encrypt"))];
        encode_snapshot(be, "prog", OpId(1), 2, &HashMap::new(), &carried)
    }

    #[test]
    fn open_checks_the_framing_seal_writes() {
        let sealed = seal(b"TESTTEST", 2, |out| out.extend_from_slice(b"body"));
        let mut r = open(&sealed, b"TESTTEST", 2).expect("opens");
        assert_eq!(r.take(4).unwrap(), b"body");
        assert_eq!(r.remaining(), 0);
        assert!(open(&sealed, b"OTHEROTH", 2).is_err(), "magic");
        assert!(open(&sealed, b"TESTTEST", 3).is_err(), "version");
        assert!(open(&sealed[..sealed.len() - 1], b"TESTTEST", 2).is_err());
        assert!(matches!(
            open(&sealed[..19], b"TESTTEST", 2),
            Err(SnapError::Truncated { need: 20, .. })
        ));
    }

    #[test]
    fn resealed_sim_rng_state_restores_at_once() {
        let be = sim();
        let snap = sim_snapshot(&be);
        let mut saved = Vec::new();
        be.rng_save(&mut saved);
        // Seed, then the four state words: set every word to u64::MAX.
        let mut max = saved.clone();
        max[8..].fill(0xff);
        let restored =
            decode_snapshot(&be, "prog", &reseal_replacing(&snap, &saved, &max)).expect("decodes");
        restored.apply_rng(&be).expect("any nonzero state restores");
        let mut now = Vec::new();
        be.rng_save(&mut now);
        assert_eq!(now, max);
        // The next draw is that state's: a backend given the same words
        // directly perturbs an encryption identically.
        let twin = sim();
        twin.rng_load(&mut SnapReader::new(&max)).expect("loads");
        let enc = |b: &SimBackend| b.decrypt(&b.encrypt(&[0.5], 3).expect("encrypt"));
        assert_eq!(enc(&be).expect("decrypt"), enc(&twin).expect("decrypt"));
        // The noise is live: a freshly seeded stream draws differently.
        assert_ne!(enc(&be).expect("decrypt"), enc(&sim()).expect("decrypt"));

        // The all-zero state is rejected with a typed error.
        let mut zero = saved.clone();
        zero[8..].fill(0);
        let restored =
            decode_snapshot(&be, "prog", &reseal_replacing(&snap, &saved, &zero)).expect("decodes");
        assert!(matches!(
            restored.apply_rng(&be),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn sim_snapshots_of_the_draw_count_format_are_rejected() {
        let be = sim();
        let old = reseal_replacing(&sim_snapshot(&be), b"halo-ct-sim/2", b"halo-ct-sim/1");
        let err = decode_snapshot(&be, "prog", &old).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("ciphertext format"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every single-byte body mutation of a lease, a result, a sim and
        /// a toy `halo-snap/1` record, sealed again, decodes to a value or
        /// a typed error — never a panic. A snapshot that decodes also
        /// applies its RNG state and decrypts every restored ciphertext.
        #[test]
        fn resealed_body_mutations_decode_or_fail_typed(mask in 1u8..=255) {
            let lease = encode_lease(&LeaseRecord {
                leg: 2,
                epoch: 5,
                holder: 1,
                granted_tick: 10,
                expires_tick: 14,
                fence: 5 << 20,
            });
            for at in 0..body_len(&lease) {
                let _ = decode_lease(&reseal(&lease, at, mask));
            }
            let result = encode_result(9, &[vec![1.0, -0.5], vec![], vec![2.25]]);
            for at in 0..body_len(&result) {
                let _ = decode_result(&reseal(&result, at, mask));
            }
            let be = sim();
            let snap = sim_snapshot(&be);
            for at in 0..body_len(&snap) {
                let mutated = reseal(&snap, at, mask);
                let _ = peek_snapshot_cursor("prog", &mutated);
                restore_all(&be, &mutated);
            }
            let toy = ToyBackend::new(16, 2, 0x7E57);
            let snap = toy_snapshot(&toy);
            for at in 0..body_len(&snap) {
                restore_all(&toy, &reseal(&snap, at, mask));
            }
        }
    }

    /// Decodes `bytes`, applies its RNG state and decrypts every restored
    /// ciphertext, ignoring every typed error.
    fn restore_all<B: SnapshotBackend>(be: &B, bytes: &[u8]) {
        let Ok(restored) = decode_snapshot(be, "prog", bytes) else {
            return;
        };
        let _ = restored.apply_rng(be);
        for v in restored.values.values().chain(&restored.carried) {
            if let RtValue::Ct(ct) = v {
                let _ = be.decrypt(ct);
            }
        }
    }
}
