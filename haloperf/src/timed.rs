//! A timing decorator over any [`Backend`]: every op is forwarded to the
//! wrapped backend unchanged and timed from outside, so the traced run
//! sees backend busy time per (mnemonic, level) without touching the
//! backend's code.

use std::sync::Mutex;
use std::time::Instant;

use halo_ckks::backend::Result;
use halo_ckks::{Backend, CkksParams};

/// The 14 backend mnemonics, in a fixed order (an [`OpEvent`] stores the
/// index).
pub const MNEMONICS: [&str; 14] = [
    "encrypt",
    "decrypt",
    "addcc",
    "subcc",
    "addcp",
    "subcp",
    "multcc",
    "multcp",
    "negate",
    "rotate",
    "rotate_batch",
    "rescale",
    "modswitch",
    "bootstrap",
];

fn mnemonic_index(name: &str) -> u8 {
    MNEMONICS
        .iter()
        .position(|m| *m == name)
        .expect("known mnemonic") as u8
}

/// One timed backend call.
#[derive(Debug, Clone, Copy)]
pub struct OpEvent {
    /// Index into [`MNEMONICS`].
    pub op: u8,
    /// Level of the (first) operand; the requested level for `encrypt`.
    pub level: u32,
    /// When the call entered the wrapped backend.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// Wraps a borrowed backend, so the decorated and the bare run share keys
/// and warm state.
pub struct Timed<'b, B: Backend> {
    inner: &'b B,
    events: Mutex<Vec<OpEvent>>,
}

impl<'b, B: Backend> Timed<'b, B> {
    pub fn new(inner: &'b B) -> Self {
        Timed {
            inner,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Removes and returns the calls recorded so far.
    pub fn drain(&self) -> Vec<OpEvent> {
        std::mem::take(&mut *self.events.lock().expect("event log lock"))
    }

    fn timed<T>(&self, name: &str, level: u32, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.events.lock().expect("event log lock").push(OpEvent {
            op: mnemonic_index(name),
            level,
            start,
            end,
        });
        out
    }
}

impl<B: Backend> Backend for Timed<'_, B> {
    type Ct = B::Ct;

    fn params(&self) -> &CkksParams {
        self.inner.params()
    }

    fn encrypt(&self, values: &[f64], level: u32) -> Result<Self::Ct> {
        self.timed("encrypt", level, || self.inner.encrypt(values, level))
    }

    fn decrypt(&self, ct: &Self::Ct) -> Result<Vec<f64>> {
        let level = self.inner.level(ct);
        self.timed("decrypt", level, || self.inner.decrypt(ct))
    }

    fn level(&self, ct: &Self::Ct) -> u32 {
        self.inner.level(ct)
    }

    fn degree(&self, ct: &Self::Ct) -> u32 {
        self.inner.degree(ct)
    }

    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("addcc", level, || self.inner.add(a, b))
    }

    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("subcc", level, || self.inner.sub(a, b))
    }

    fn add_plain(&self, a: &Self::Ct, p: &[f64]) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("addcp", level, || self.inner.add_plain(a, p))
    }

    fn sub_plain(&self, a: &Self::Ct, p: &[f64]) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("subcp", level, || self.inner.sub_plain(a, p))
    }

    fn mult(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("multcc", level, || self.inner.mult(a, b))
    }

    fn mult_plain(&self, a: &Self::Ct, p: &[f64]) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("multcp", level, || self.inner.mult_plain(a, p))
    }

    fn negate(&self, a: &Self::Ct) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("negate", level, || self.inner.negate(a))
    }

    fn rotate(&self, a: &Self::Ct, offset: i64) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("rotate", level, || self.inner.rotate(a, offset))
    }

    // Forwarded, not inherited: the trait default would turn one hoisted
    // batch into sequential rotations, and the traced run would time a
    // different program than the untraced one.
    fn rotate_batch(&self, a: &Self::Ct, offsets: &[i64]) -> Result<Vec<Self::Ct>> {
        let level = self.inner.level(a);
        self.timed("rotate_batch", level, || {
            self.inner.rotate_batch(a, offsets)
        })
    }

    fn rescale(&self, a: &Self::Ct) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("rescale", level, || self.inner.rescale(a))
    }

    fn modswitch(&self, a: &Self::Ct, down: u32) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("modswitch", level, || self.inner.modswitch(a, down))
    }

    fn bootstrap(&self, a: &Self::Ct, target: u32) -> Result<Self::Ct> {
        let level = self.inner.level(a);
        self.timed("bootstrap", level, || self.inner.bootstrap(a, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::{metrics::MetricsSnapshot, ScopedCounters, ToyBackend};
    use halo_core::{compile, CompileOptions, CompilerConfig};
    use halo_ir::FunctionBuilder;
    use halo_runtime::{Executor, Inputs};

    fn work(m: &MetricsSnapshot) -> [u64; 3] {
        [m.ntt_forward_rows, m.digit_decomposes, m.keyswitch_calls]
    }

    #[test]
    fn decorated_fan_out_is_one_hoisted_batch_and_bit_identical() {
        // Three rotations of one value: the executor routes them through a
        // single `rotate_batch`, which the decorator must forward whole.
        let mut b = FunctionBuilder::new("fanout", 16);
        let x = b.input_cipher("x");
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 2);
        let r3 = b.rotate(x, 5);
        let s = b.add(r1, r2);
        let s = b.add(s, r3);
        b.ret(&[s]);
        let params = CkksParams {
            poly_degree: 32,
            max_level: 4,
            rf_bits: 40,
        };
        let f = compile(
            &b.finish(),
            CompilerConfig::TypeMatched,
            &CompileOptions::new(params),
        )
        .expect("compiles")
        .function;
        let inputs = Inputs::new().cipher("x", (0..16).map(|i| f64::from(i) / 16.0).collect());

        let bare = ToyBackend::new(32, 4, 7);
        let scope = ScopedCounters::begin();
        let want = Executor::new(&bare).run(&f, &inputs).expect("runs");
        let want_work = work(&scope.finish());

        let fresh = ToyBackend::new(32, 4, 7);
        let timed = Timed::new(&fresh);
        let scope = ScopedCounters::begin();
        let got = Executor::new(&timed).run(&f, &inputs).expect("runs");
        let got_work = work(&scope.finish());

        assert_eq!(got.stats.hoisted_batches, 1);
        let bits =
            |o: &[Vec<f64>]| -> Vec<u64> { o.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&got.outputs), bits(&want.outputs));
        // The trait's default `rotate_batch` would decompose three times.
        assert_eq!(got_work, want_work);
        let batches = timed
            .drain()
            .iter()
            .filter(|e| MNEMONICS[e.op as usize] == "rotate_batch")
            .count();
        assert_eq!(batches, 1);
    }
}
