//! Deterministic fault injection for chaos testing.
//!
//! [`FaultInjectingBackend`] wraps any [`Backend`] and injects seeded,
//! reproducible faults per op class:
//!
//! - **transient failures** — the op returns [`BackendError::Transient`]
//!   instead of executing (retrying re-rolls the dice);
//! - **bootstrap failures** — a separately tunable transient rate on
//!   `bootstrap`, the longest and most fragile op on real accelerators;
//! - **noise bursts** — the op executes but its result is perturbed by a
//!   small extra relative error, applied *through the backend API itself*
//!   (`add_plain` with a tiny splat) so the wrapper stays generic over the
//!   inner ciphertext type;
//! - **spurious level loss** — the result silently loses one level (an
//!   extra `modswitch`), modelling level-accounting divergence between the
//!   compiler's plan and the device; downstream ops then see level
//!   mismatches or imminent [`BackendError::LevelExhausted`] that the
//!   self-healing executor must absorb;
//! - **executor kill points** — an exact (not probabilistic) switch that
//!   refuses every call after the *n*-th, modelling a SIGKILLed executor
//!   process mid-leg for the fleet chaos campaign (see
//!   [`FaultInjectingBackend::kill_after_ops`]).
//!
//! All randomness flows from one seeded [`StdRng`] (the vendored
//! `compat/rand`), so a (program, spec, seed) triple replays the exact
//! same fault schedule. Per-class counters are exposed via
//! [`FaultInjectingBackend::report`] for test assertions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::{Backend, BackendError, Result};
use crate::params::CkksParams;

/// One round of SplitMix64, the workspace's seeded mixer: it derives the
/// toy backend's key RNGs and drives the store, remote and fleet fault
/// schedules.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances a [`splitmix64`] stream and returns its next draw in
/// `[0, 1)` (53 bits).
pub fn unit_draw(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-op-class fault probabilities. All rates are per backend call in
/// `[0, 1]`; `0.0` disables the class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that any evaluation op fails with
    /// [`BackendError::Transient`] before executing.
    pub transient: f64,
    /// Additional transient-failure probability on `bootstrap` only.
    pub bootstrap_fail: f64,
    /// Probability that a successful op's result receives an extra noise
    /// burst.
    pub noise_burst: f64,
    /// Relative magnitude of an injected noise burst.
    pub burst_magnitude: f64,
    /// Probability that a successful op's result spuriously drops one
    /// level. Only applied to waterline (degree-1) results above level 1,
    /// so the fault is always recoverable by a bootstrap.
    pub level_loss: f64,
}

impl FaultSpec {
    /// No faults at all (the wrapper becomes a transparent proxy).
    #[must_use]
    pub fn none() -> FaultSpec {
        FaultSpec {
            transient: 0.0,
            bootstrap_fail: 0.0,
            noise_burst: 0.0,
            burst_magnitude: 0.0,
            level_loss: 0.0,
        }
    }

    /// Transient failures only, at rate `p` (plus the same rate of
    /// dedicated bootstrap failures).
    #[must_use]
    pub fn transient_only(p: f64) -> FaultSpec {
        FaultSpec {
            transient: p,
            bootstrap_fail: p,
            ..FaultSpec::none()
        }
    }

    /// Spurious level losses only, at rate `p`.
    #[must_use]
    pub fn level_loss_only(p: f64) -> FaultSpec {
        FaultSpec {
            level_loss: p,
            ..FaultSpec::none()
        }
    }

    /// Every fault class enabled at rate `p` (noise bursts at `1e-7`
    /// relative magnitude).
    #[must_use]
    pub fn chaos(p: f64) -> FaultSpec {
        FaultSpec {
            transient: p,
            bootstrap_fail: p,
            noise_burst: p,
            burst_magnitude: 1e-7,
            level_loss: p,
        }
    }
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec::none()
    }
}

/// A snapshot of the faults a [`FaultInjectingBackend`] has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Transient failures injected on non-bootstrap ops.
    pub transients: u64,
    /// Transient failures injected on `bootstrap` via the dedicated rate.
    pub bootstrap_failures: u64,
    /// Noise bursts applied to op results.
    pub noise_bursts: u64,
    /// Spurious one-level losses applied to op results.
    pub level_losses: u64,
    /// Calls refused because the kill switch had fired (see
    /// [`FaultInjectingBackend::kill_after_ops`]).
    pub killed_calls: u64,
}

impl FaultReport {
    /// Total injected faults across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.transients
            + self.bootstrap_failures
            + self.noise_bursts
            + self.level_losses
            + self.killed_calls
    }

    /// Faults that surface to the caller as [`BackendError::Transient`]
    /// (the ones a retrying executor observes as errors).
    #[must_use]
    pub fn observable_transients(&self) -> u64 {
        self.transients + self.bootstrap_failures
    }
}

/// A [`Backend`] decorator that injects deterministic faults. See the
/// [module docs](self).
#[derive(Debug)]
pub struct FaultInjectingBackend<B> {
    inner: B,
    spec: FaultSpec,
    rng: Mutex<StdRng>,
    transients: AtomicU64,
    bootstrap_failures: AtomicU64,
    noise_bursts: AtomicU64,
    level_losses: AtomicU64,
    /// Backend calls that have passed the kill gate so far.
    calls: AtomicU64,
    /// Call number after which every call is refused (`u64::MAX` =
    /// disarmed).
    kill_at: AtomicU64,
    killed_calls: AtomicU64,
}

impl<B: Backend> FaultInjectingBackend<B> {
    /// Wraps `inner`, drawing the fault schedule from `seed`.
    #[must_use]
    pub fn new(inner: B, spec: FaultSpec, seed: u64) -> FaultInjectingBackend<B> {
        FaultInjectingBackend {
            inner,
            spec,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            transients: AtomicU64::new(0),
            bootstrap_failures: AtomicU64::new(0),
            noise_bursts: AtomicU64::new(0),
            level_losses: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            kill_at: AtomicU64::new(u64::MAX),
            killed_calls: AtomicU64::new(0),
        }
    }

    /// Arms the executor-level kill point: after `n` more backend calls,
    /// every subsequent call fails with a *non-transient*
    /// [`BackendError::Unsupported`] — modelling a SIGKILLed executor
    /// process whose in-flight leg simply stops making progress (no
    /// cleanup, no error handling, no further snapshots). Unlike the
    /// probabilistic fault classes the kill point is exact: the fleet
    /// chaos campaign uses it to cut executors down mid-leg at a seeded,
    /// reproducible op index.
    pub fn kill_after_ops(&self, n: u64) {
        let at = self.calls.load(Ordering::SeqCst).saturating_add(n);
        self.kill_at.store(at, Ordering::SeqCst);
    }

    /// Disarms a previously armed kill point.
    pub fn disarm_kill(&self) {
        self.kill_at.store(u64::MAX, Ordering::SeqCst);
    }

    /// The wrapped backend.
    #[must_use]
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Snapshot of the per-class fault counters.
    #[must_use]
    pub fn report(&self) -> FaultReport {
        FaultReport {
            transients: self.transients.load(Ordering::SeqCst),
            bootstrap_failures: self.bootstrap_failures.load(Ordering::SeqCst),
            noise_bursts: self.noise_bursts.load(Ordering::SeqCst),
            level_losses: self.level_losses.load(Ordering::SeqCst),
            killed_calls: self.killed_calls.load(Ordering::SeqCst),
        }
    }

    /// One Bernoulli draw at probability `p`. A poisoned RNG lock is
    /// recovered rather than propagated — a chaos tool must not itself be
    /// a panic source.
    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut rng = self
            .rng
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rng.gen_range(0.0..1.0) < p
    }

    /// Pre-execution fault point: the kill gate first (a dead process
    /// performs no further work of any kind), then a transient failure at
    /// the global rate.
    fn fail_point(&self, op: &'static str) -> Result<()> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call > self.kill_at.load(Ordering::SeqCst) {
            self.killed_calls.fetch_add(1, Ordering::SeqCst);
            return Err(BackendError::Unsupported(format!(
                "executor killed at injected kill point (call {call} was {op})"
            )));
        }
        if self.roll(self.spec.transient) {
            self.transients.fetch_add(1, Ordering::SeqCst);
            return Err(BackendError::Transient { op });
        }
        Ok(())
    }

    /// Post-execution corruption: noise bursts and spurious level loss,
    /// both expressed through the inner backend's own op surface so the
    /// wrapper works for any ciphertext representation.
    fn corrupt(&self, ct: B::Ct) -> Result<B::Ct> {
        let mut ct = ct;
        if self.inner.degree(&ct) == 1 && self.roll(self.spec.noise_burst) {
            let eps = {
                let mut rng = self
                    .rng
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                rng.gen_range(-1.0..1.0) * self.spec.burst_magnitude
            };
            self.noise_bursts.fetch_add(1, Ordering::SeqCst);
            // A degree-preserving additive perturbation splatted across
            // all slots.
            ct = self.inner.add_plain(&ct, &[eps])?;
        }
        if self.inner.degree(&ct) == 1
            && self.inner.level(&ct) >= 2
            && self.roll(self.spec.level_loss)
        {
            self.level_losses.fetch_add(1, Ordering::SeqCst);
            ct = self.inner.modswitch(&ct, 1)?;
        }
        Ok(ct)
    }
}

impl<B: Backend> Backend for FaultInjectingBackend<B> {
    type Ct = B::Ct;

    fn params(&self) -> &CkksParams {
        self.inner.params()
    }

    fn encrypt(&self, values: &[f64], level: u32) -> Result<B::Ct> {
        self.fail_point("encrypt")?;
        self.corrupt(self.inner.encrypt(values, level)?)
    }

    fn decrypt(&self, ct: &B::Ct) -> Result<Vec<f64>> {
        self.fail_point("decrypt")?;
        self.inner.decrypt(ct)
    }

    fn level(&self, ct: &B::Ct) -> u32 {
        self.inner.level(ct)
    }

    fn degree(&self, ct: &B::Ct) -> u32 {
        self.inner.degree(ct)
    }

    fn add(&self, a: &B::Ct, b: &B::Ct) -> Result<B::Ct> {
        self.fail_point("addcc")?;
        self.corrupt(self.inner.add(a, b)?)
    }

    fn sub(&self, a: &B::Ct, b: &B::Ct) -> Result<B::Ct> {
        self.fail_point("subcc")?;
        self.corrupt(self.inner.sub(a, b)?)
    }

    fn add_plain(&self, a: &B::Ct, p: &[f64]) -> Result<B::Ct> {
        self.fail_point("addcp")?;
        self.corrupt(self.inner.add_plain(a, p)?)
    }

    fn sub_plain(&self, a: &B::Ct, p: &[f64]) -> Result<B::Ct> {
        self.fail_point("subcp")?;
        self.corrupt(self.inner.sub_plain(a, p)?)
    }

    fn mult(&self, a: &B::Ct, b: &B::Ct) -> Result<B::Ct> {
        self.fail_point("multcc")?;
        self.corrupt(self.inner.mult(a, b)?)
    }

    fn mult_plain(&self, a: &B::Ct, p: &[f64]) -> Result<B::Ct> {
        self.fail_point("multcp")?;
        self.corrupt(self.inner.mult_plain(a, p)?)
    }

    fn negate(&self, a: &B::Ct) -> Result<B::Ct> {
        self.fail_point("negate")?;
        self.corrupt(self.inner.negate(a)?)
    }

    fn rotate(&self, a: &B::Ct, offset: i64) -> Result<B::Ct> {
        self.fail_point("rotate")?;
        self.corrupt(self.inner.rotate(a, offset)?)
    }

    fn rotate_batch(&self, a: &B::Ct, offsets: &[i64]) -> Result<Vec<B::Ct>> {
        // One fail point guards the whole batch — a hoisted rotation is
        // one backend call, so it faults (and retries) as one unit.
        self.fail_point("rotate")?;
        let outs = self.inner.rotate_batch(a, offsets)?;
        outs.into_iter().map(|ct| self.corrupt(ct)).collect()
    }

    fn rescale(&self, a: &B::Ct) -> Result<B::Ct> {
        self.fail_point("rescale")?;
        self.corrupt(self.inner.rescale(a)?)
    }

    fn modswitch(&self, a: &B::Ct, down: u32) -> Result<B::Ct> {
        self.fail_point("modswitch")?;
        self.corrupt(self.inner.modswitch(a, down)?)
    }

    fn bootstrap(&self, a: &B::Ct, target: u32) -> Result<B::Ct> {
        self.fail_point("bootstrap")?;
        if self.roll(self.spec.bootstrap_fail) {
            self.bootstrap_failures.fetch_add(1, Ordering::SeqCst);
            return Err(BackendError::Transient { op: "bootstrap" });
        }
        self.corrupt(self.inner.bootstrap(a, target)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use crate::sim::SimBackend;

    fn wrapped(spec: FaultSpec, seed: u64) -> FaultInjectingBackend<SimBackend> {
        FaultInjectingBackend::new(SimBackend::exact(CkksParams::test_small()), spec, seed)
    }

    #[test]
    fn no_faults_is_a_transparent_proxy() {
        let b = wrapped(FaultSpec::none(), 7);
        let x = b.encrypt(&[2.0], 5).unwrap();
        let y = b.encrypt(&[3.0], 5).unwrap();
        let m = b.mult(&x, &y).unwrap();
        let r = b.rescale(&m).unwrap();
        assert_eq!(b.decrypt(&r).unwrap()[0], 6.0);
        assert_eq!(b.level(&r), 4);
        assert_eq!(b.report(), FaultReport::default());
    }

    #[test]
    fn transient_faults_are_seeded_and_counted() {
        let run = |seed: u64| {
            let b = wrapped(FaultSpec::transient_only(0.5), seed);
            let x = b.encrypt(&[1.0], 5).unwrap_or_else(|_| {
                // Retry until the fault point lets the encrypt through.
                loop {
                    if let Ok(ct) = b.encrypt(&[1.0], 5) {
                        break ct;
                    }
                }
            });
            let mut outcomes = Vec::new();
            for _ in 0..32 {
                outcomes.push(b.add(&x, &x).is_ok());
            }
            (outcomes, b.report())
        };
        let (o1, r1) = run(42);
        let (o2, r2) = run(42);
        assert_eq!(o1, o2, "same seed, same fault schedule");
        assert_eq!(r1, r2);
        assert!(r1.transients > 0, "50% rate must fire in 32 draws");
        let (o3, _) = run(43);
        assert_ne!(o1, o3, "different seed, different schedule");
    }

    #[test]
    fn transient_errors_are_flagged_retryable() {
        let b = wrapped(FaultSpec::transient_only(1.0), 1);
        let err = b.encrypt(&[1.0], 5).unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("encrypt"));
    }

    #[test]
    fn level_loss_drops_exactly_one_level_and_stays_recoverable() {
        let b = wrapped(FaultSpec::level_loss_only(1.0), 3);
        let x = b.encrypt(&[1.0], 10).unwrap();
        // Every corruptible result at level >= 2 loses exactly one level.
        assert_eq!(b.level(&x), 9);
        let s = b.add(&x, &x).unwrap();
        assert_eq!(b.level(&s), 8);
        // At level 1 the fault gate closes: the value never becomes
        // un-bootstrappable.
        let low = b.modswitch(&s, 7).unwrap();
        assert_eq!(b.level(&low), 1);
        let healed = b.bootstrap(&low, 16).unwrap();
        assert_eq!(b.level(&healed), 15, "bootstrap result itself lost one");
    }

    #[test]
    fn noise_bursts_perturb_within_magnitude() {
        let spec = FaultSpec {
            noise_burst: 1.0,
            burst_magnitude: 1e-6,
            ..FaultSpec::none()
        };
        let b = wrapped(spec, 9);
        let x = b.encrypt(&[1.0], 5).unwrap();
        let got = b.decrypt(&x).unwrap()[0];
        assert!(got != 1.0, "burst must perturb");
        assert!((got - 1.0).abs() < 1e-5, "burst bounded: {got}");
        assert_eq!(b.report().noise_bursts, 1);
    }

    #[test]
    fn kill_point_is_exact_and_permanent() {
        let b = wrapped(FaultSpec::none(), 5);
        let x = b.encrypt(&[1.0], 5).unwrap();
        // Arm: exactly 3 more calls succeed, then everything dies.
        b.kill_after_ops(3);
        assert!(b.add(&x, &x).is_ok());
        assert!(b.add(&x, &x).is_ok());
        assert!(b.add(&x, &x).is_ok());
        let err = b.add(&x, &x).unwrap_err();
        assert!(!err.is_transient(), "a killed process never recovers");
        assert!(err.to_string().contains("kill point"));
        // Permanent: later calls of any kind keep failing.
        assert!(b.decrypt(&x).is_err());
        assert!(b.bootstrap(&x, 16).is_err());
        assert_eq!(b.report().killed_calls, 3);
        // Disarm resurrects the backend (a fresh executor on the same
        // machine).
        b.disarm_kill();
        assert!(b.add(&x, &x).is_ok());
        assert_eq!(b.report().killed_calls, 3);
    }

    #[test]
    fn bootstrap_failures_use_the_dedicated_counter() {
        let spec = FaultSpec {
            bootstrap_fail: 1.0,
            ..FaultSpec::none()
        };
        let b = wrapped(spec, 11);
        let x = b.encrypt(&[1.0], 2).unwrap();
        let err = b.bootstrap(&x, 16).unwrap_err();
        assert!(err.is_transient());
        let r = b.report();
        assert_eq!(r.bootstrap_failures, 1);
        assert_eq!(r.transients, 0);
        assert_eq!(r.observable_transients(), 1);
    }
}
