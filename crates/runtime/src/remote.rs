//! Remote snapshot storage: an S3/GCS-shaped object store behind the
//! full resilience stack.
//!
//! The durable-execution layer (DESIGN.md §12) is programmed against
//! [`SnapshotStore`], so making crash-resume work *across machines* only
//! needs a store whose bytes live somewhere remote. A network is a much
//! worse disk, though: requests time out, servers return transient
//! errors, uploads tear mid-body, payloads bit-rot in flight, and whole
//! endpoints disappear for windows at a time. This module keeps the PR 5
//! invariant — durability failures degrade to skipped snapshots or local
//! recomputation, **never** to aborts — in the face of all of that:
//!
//! - [`ObjectStore`] — the minimal remote surface (put / get / list /
//!   delete, each with a per-op deadline), small enough that a real
//!   HTTP implementation is a thin adapter (see the `remote-http`
//!   feature).
//! - [`SimObjectStore`] — a deterministic in-process model of a flaky
//!   remote: seeded injected latency, timeouts, transient "5xx" errors,
//!   torn uploads, read bit-flips, and unavailability windows, in the
//!   same seeded-SplitMix64 discipline as [`FaultyStore`].
//! - [`RemoteStore`] — the [`SnapshotStore`] adapter with the resilience
//!   stack: per-op deadlines, bounded retry with exponential backoff and
//!   decorrelated jitter, hedged reads, a circuit breaker with half-open
//!   probing, and write-behind spill to a local [`DiskStore`] when the
//!   remote is down. Telemetry flows into `RunStats` through
//!   [`SnapshotStore::remote_telemetry`].
//!
//! All delays are *modeled*, not slept (the PR 2 retry-backoff
//! discipline): a run under the simulated remote is deterministic and
//! fast, and the chaos campaign (`remote_chaos`) can assert exact
//! telemetry across seeds.
//!
//! [`FaultyStore`]: crate::store::FaultyStore

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::io;
use std::sync::Mutex;

use halo_ckks::fault::{splitmix64, unit_draw};

use crate::store::{DiskStore, SnapshotStore};

// ----------------------------------------------------------------------
// The object-store surface.
// ----------------------------------------------------------------------

/// Why a remote operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectErrorKind {
    /// The operation did not complete within the caller's deadline.
    Timeout,
    /// A transient server-side failure (the "5xx" class): safe to retry.
    Transient(String),
    /// The endpoint is down (connection refused, outage window).
    Unavailable,
    /// The key does not exist.
    NotFound,
    /// A permanent client-side failure (the "4xx" class): retrying the
    /// identical request cannot succeed.
    Permanent(String),
}

/// A failed remote operation: the kind plus the modeled time the attempt
/// consumed before failing (a timeout costs its full deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectError {
    /// What went wrong.
    pub kind: ObjectErrorKind,
    /// Modeled time the failed attempt took, in µs.
    pub latency_us: f64,
}

impl ObjectError {
    /// Whether re-issuing the identical request may succeed.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.kind,
            ObjectErrorKind::Timeout | ObjectErrorKind::Transient(_) | ObjectErrorKind::Unavailable
        )
    }
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ObjectErrorKind::Timeout => write!(f, "deadline exceeded ({} us)", self.latency_us),
            ObjectErrorKind::Transient(m) => write!(f, "transient remote error: {m}"),
            ObjectErrorKind::Unavailable => write!(f, "remote unavailable"),
            ObjectErrorKind::NotFound => write!(f, "no such object"),
            ObjectErrorKind::Permanent(m) => write!(f, "permanent remote error: {m}"),
        }
    }
}

impl std::error::Error for ObjectError {}

/// A successful remote operation: the value plus the modeled (or, for a
/// real backend, measured) time it took.
#[derive(Debug, Clone)]
pub struct ObjectReply<T> {
    /// The operation's result.
    pub value: T,
    /// Time the operation took, in µs.
    pub latency_us: f64,
}

/// Result of one remote operation.
pub type ObjectResult<T> = Result<ObjectReply<T>, ObjectError>;

/// A remote object store: flat keys, whole-object reads and writes, and
/// prefix listing — the least-common-denominator surface of S3-style
/// services. Every operation takes the caller's per-op deadline in µs;
/// an implementation that cannot finish in time reports
/// [`ObjectErrorKind::Timeout`] rather than blocking past it.
///
/// `Send + Sync` so one store can serve concurrent executors.
pub trait ObjectStore: Send + Sync {
    /// Stores one object, overwriting any existing value under `key`.
    ///
    /// # Errors
    ///
    /// Any [`ObjectError`]; after a retryable failure the caller may not
    /// know whether the object was (partially) stored — a torn upload is
    /// indistinguishable from a lost acknowledgement.
    fn put(&self, key: &str, bytes: &[u8], deadline_us: f64) -> ObjectResult<()>;

    /// Reads one object back.
    ///
    /// # Errors
    ///
    /// Any [`ObjectError`]; [`ObjectErrorKind::NotFound`] for a missing
    /// key.
    fn get(&self, key: &str, deadline_us: f64) -> ObjectResult<Vec<u8>>;

    /// All keys starting with `prefix`, in ascending order.
    ///
    /// # Errors
    ///
    /// Any [`ObjectError`].
    fn list(&self, prefix: &str, deadline_us: f64) -> ObjectResult<Vec<String>>;

    /// Deletes one object (idempotent: deleting a missing key succeeds).
    ///
    /// # Errors
    ///
    /// Any [`ObjectError`].
    fn delete(&self, key: &str, deadline_us: f64) -> ObjectResult<()>;
}

/// A shared reference to an object store is itself an object store, so
/// several per-machine [`RemoteStore`] stacks (each with its own retry
/// RNG, breaker, and generation counter) can share one remote — the
/// topology the fleet layer (`crate::fleet`) models.
impl<S: ObjectStore + ?Sized> ObjectStore for &S {
    fn put(&self, key: &str, bytes: &[u8], deadline_us: f64) -> ObjectResult<()> {
        (**self).put(key, bytes, deadline_us)
    }

    fn get(&self, key: &str, deadline_us: f64) -> ObjectResult<Vec<u8>> {
        (**self).get(key, deadline_us)
    }

    fn list(&self, prefix: &str, deadline_us: f64) -> ObjectResult<Vec<String>> {
        (**self).list(prefix, deadline_us)
    }

    fn delete(&self, key: &str, deadline_us: f64) -> ObjectResult<()> {
        (**self).delete(key, deadline_us)
    }
}

// ----------------------------------------------------------------------
// The deterministic flaky-remote model.
// ----------------------------------------------------------------------

/// Fault model of the simulated remote, probabilities in `[0, 1]` —
/// the network analogue of [`StoreFaultSpec`]. Latency is drawn per
/// operation: `base_latency_us` plus uniform jitter up to
/// `jitter_latency_us`, multiplied by 50 on a `stall` draw (the tail
/// that blows deadlines).
///
/// [`StoreFaultSpec`]: crate::store::StoreFaultSpec
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteFaultSpec {
    /// Base modeled latency of every operation, in µs.
    pub base_latency_us: f64,
    /// Upper bound of the uniform extra latency, in µs.
    pub jitter_latency_us: f64,
    /// Probability an operation stalls (latency × 50 — typically a
    /// deadline blow-through, surfacing as [`ObjectErrorKind::Timeout`]).
    pub stall: f64,
    /// Probability of a transient server error (the "5xx" class).
    pub transient: f64,
    /// Probability a `put` tears mid-body: a *prefix* of the object is
    /// persisted and the client sees a transient connection error.
    pub torn_upload: f64,
    /// Probability a `get` returns the payload with one bit flipped.
    pub read_bitflip: f64,
    /// Probability an operation opens an unavailability window.
    pub unavail: f64,
    /// Operations an unavailability window lasts (every op inside the
    /// window fails fast with [`ObjectErrorKind::Unavailable`]).
    pub unavail_window: u32,
}

impl RemoteFaultSpec {
    /// A healthy remote: realistic latency, no faults.
    #[must_use]
    pub fn none() -> RemoteFaultSpec {
        RemoteFaultSpec {
            base_latency_us: 800.0,
            jitter_latency_us: 400.0,
            stall: 0.0,
            transient: 0.0,
            torn_upload: 0.0,
            read_bitflip: 0.0,
            unavail: 0.0,
            unavail_window: 0,
        }
    }

    /// Tail-latency blowups: stalls that exceed any sane deadline.
    #[must_use]
    pub fn timeouts() -> RemoteFaultSpec {
        RemoteFaultSpec {
            stall: 0.2,
            ..RemoteFaultSpec::none()
        }
    }

    /// Transient "5xx" failures.
    #[must_use]
    pub fn transients() -> RemoteFaultSpec {
        RemoteFaultSpec {
            transient: 0.25,
            ..RemoteFaultSpec::none()
        }
    }

    /// Uploads that tear mid-body, leaving truncated objects behind.
    #[must_use]
    pub fn torn_uploads() -> RemoteFaultSpec {
        RemoteFaultSpec {
            torn_upload: 0.25,
            ..RemoteFaultSpec::none()
        }
    }

    /// Read-path bit rot.
    #[must_use]
    pub fn bit_rot() -> RemoteFaultSpec {
        RemoteFaultSpec {
            read_bitflip: 0.25,
            ..RemoteFaultSpec::none()
        }
    }

    /// Unavailability windows: the endpoint goes dark for stretches of
    /// operations at a time.
    #[must_use]
    pub fn outages() -> RemoteFaultSpec {
        RemoteFaultSpec {
            unavail: 0.12,
            unavail_window: 6,
            ..RemoteFaultSpec::none()
        }
    }

    /// Everything at once — the chaos-campaign mix.
    #[must_use]
    pub fn chaos() -> RemoteFaultSpec {
        RemoteFaultSpec {
            stall: 0.08,
            transient: 0.1,
            torn_upload: 0.1,
            read_bitflip: 0.1,
            unavail: 0.05,
            unavail_window: 4,
            ..RemoteFaultSpec::none()
        }
    }
}

/// What a [`SimObjectStore`] actually injected (for test and campaign
/// assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteFaultReport {
    /// Operations whose drawn latency exceeded the caller's deadline.
    pub timeouts: u64,
    /// Injected transient ("5xx") failures.
    pub transients: u64,
    /// Puts that persisted a truncated object.
    pub torn_uploads: u64,
    /// Gets whose payload came back with a flipped bit.
    pub read_bitflips: u64,
    /// Operations rejected inside an unavailability window.
    pub outage_rejections: u64,
}

impl RemoteFaultReport {
    /// Total injected faults across every class.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.timeouts
            + self.transients
            + self.torn_uploads
            + self.read_bitflips
            + self.outage_rejections
    }
}

#[derive(Debug)]
struct SimState {
    rng: u64,
    /// Operations issued so far (the clock unavailability windows tick on).
    ops: u64,
    /// Operations up to (exclusive) which the endpoint is dark.
    down_until: u64,
    report: RemoteFaultReport,
}

/// A deterministic in-process model of a flaky remote object store.
/// Faults are drawn from a seeded SplitMix64 stream, so a given (seed,
/// spec, call sequence) always injects the same faults — which is what
/// lets the chaos campaign re-run bit-identically per seed.
#[derive(Debug)]
pub struct SimObjectStore {
    spec: RemoteFaultSpec,
    objects: Mutex<BTreeMap<String, Vec<u8>>>,
    state: Mutex<SimState>,
}

impl SimObjectStore {
    /// An empty simulated remote with the given fault spec and seed.
    #[must_use]
    pub fn new(spec: RemoteFaultSpec, seed: u64) -> SimObjectStore {
        SimObjectStore {
            spec,
            objects: Mutex::new(BTreeMap::new()),
            state: Mutex::new(SimState {
                rng: splitmix64(seed ^ 0x5245_4D4F_5445_5F53),
                ops: 0,
                down_until: 0,
                report: RemoteFaultReport::default(),
            }),
        }
    }

    /// Faults injected so far.
    #[must_use]
    pub fn report(&self) -> RemoteFaultReport {
        self.state.lock().expect("sim state lock").report
    }

    /// Fault-free snapshot of the stored objects (test/campaign
    /// introspection — bypasses the fault model entirely).
    #[must_use]
    pub fn objects(&self) -> Vec<(String, Vec<u8>)> {
        self.objects
            .lock()
            .expect("sim objects lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Stores an object without the fault model (test/campaign setup —
    /// e.g. building the prefix state a mid-run crash leaves behind).
    pub fn insert_raw(&self, key: &str, bytes: &[u8]) {
        self.objects
            .lock()
            .expect("sim objects lock")
            .insert(key.to_string(), bytes.to_vec());
    }

    /// The shared per-operation front half: availability check, latency
    /// draw, deadline check, transient draw. Returns the modeled latency
    /// for the op to charge on success.
    fn admit(&self, deadline_us: f64) -> Result<f64, ObjectError> {
        let mut s = self.state.lock().expect("sim state lock");
        s.ops += 1;
        if s.ops < s.down_until {
            s.report.outage_rejections += 1;
            // Connection refused is fast — no deadline burned.
            return Err(ObjectError {
                kind: ObjectErrorKind::Unavailable,
                latency_us: self.spec.base_latency_us.min(100.0),
            });
        }
        if self.spec.unavail > 0.0 && unit_draw(&mut s.rng) < self.spec.unavail {
            s.down_until = s.ops + u64::from(self.spec.unavail_window);
            s.report.outage_rejections += 1;
            return Err(ObjectError {
                kind: ObjectErrorKind::Unavailable,
                latency_us: self.spec.base_latency_us.min(100.0),
            });
        }
        let mut latency =
            self.spec.base_latency_us + unit_draw(&mut s.rng) * self.spec.jitter_latency_us;
        if self.spec.stall > 0.0 && unit_draw(&mut s.rng) < self.spec.stall {
            latency *= 50.0;
        }
        if latency > deadline_us {
            s.report.timeouts += 1;
            return Err(ObjectError {
                kind: ObjectErrorKind::Timeout,
                latency_us: deadline_us,
            });
        }
        if self.spec.transient > 0.0 && unit_draw(&mut s.rng) < self.spec.transient {
            s.report.transients += 1;
            return Err(ObjectError {
                kind: ObjectErrorKind::Transient("injected 503".into()),
                latency_us: latency,
            });
        }
        Ok(latency)
    }
}

impl ObjectStore for SimObjectStore {
    fn put(&self, key: &str, bytes: &[u8], deadline_us: f64) -> ObjectResult<()> {
        let latency = self.admit(deadline_us)?;
        let torn = {
            let mut s = self.state.lock().expect("sim state lock");
            if self.spec.torn_upload > 0.0
                && !bytes.is_empty()
                && unit_draw(&mut s.rng) < self.spec.torn_upload
            {
                s.report.torn_uploads += 1;
                let cut = 1 + (unit_draw(&mut s.rng) * (bytes.len() - 1) as f64) as usize;
                Some(cut.min(bytes.len() - 1))
            } else {
                None
            }
        };
        let mut objects = self.objects.lock().expect("sim objects lock");
        match torn {
            Some(cut) => {
                // The connection died mid-body: a truncated object is
                // left behind and the client sees a transient error — it
                // cannot know how much (if anything) was stored.
                objects.insert(key.to_string(), bytes[..cut].to_vec());
                Err(ObjectError {
                    kind: ObjectErrorKind::Transient("connection reset mid-upload".into()),
                    latency_us: latency,
                })
            }
            None => {
                objects.insert(key.to_string(), bytes.to_vec());
                Ok(ObjectReply {
                    value: (),
                    latency_us: latency,
                })
            }
        }
    }

    fn get(&self, key: &str, deadline_us: f64) -> ObjectResult<Vec<u8>> {
        let latency = self.admit(deadline_us)?;
        let mut bytes = self
            .objects
            .lock()
            .expect("sim objects lock")
            .get(key)
            .cloned()
            .ok_or(ObjectError {
                kind: ObjectErrorKind::NotFound,
                latency_us: latency,
            })?;
        let mut s = self.state.lock().expect("sim state lock");
        if self.spec.read_bitflip > 0.0
            && !bytes.is_empty()
            && unit_draw(&mut s.rng) < self.spec.read_bitflip
        {
            s.report.read_bitflips += 1;
            let pos = ((unit_draw(&mut s.rng) * bytes.len() as f64) as usize).min(bytes.len() - 1);
            let bit = ((unit_draw(&mut s.rng) * 8.0) as u32).min(7);
            bytes[pos] ^= 1u8 << bit;
        }
        Ok(ObjectReply {
            value: bytes,
            latency_us: latency,
        })
    }

    fn list(&self, prefix: &str, deadline_us: f64) -> ObjectResult<Vec<String>> {
        let latency = self.admit(deadline_us)?;
        let keys = self
            .objects
            .lock()
            .expect("sim objects lock")
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        Ok(ObjectReply {
            value: keys,
            latency_us: latency,
        })
    }

    fn delete(&self, key: &str, deadline_us: f64) -> ObjectResult<()> {
        let latency = self.admit(deadline_us)?;
        self.objects.lock().expect("sim objects lock").remove(key);
        Ok(ObjectReply {
            value: (),
            latency_us: latency,
        })
    }
}

// ----------------------------------------------------------------------
// The resilient SnapshotStore adapter.
// ----------------------------------------------------------------------

/// Resilience policy of a [`RemoteStore`]. Every delay is modeled, not
/// slept; every threshold is in deterministic units (operations), so a
/// run under a seeded [`SimObjectStore`] is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct RemotePolicy {
    /// Per-attempt deadline for remote operations, in µs.
    pub op_deadline_us: f64,
    /// First-read deadline for hedged reads, in µs: the first `get`
    /// attempt runs under this *tighter* deadline, and blowing it
    /// immediately fires a full-deadline hedge attempt (no backoff,
    /// no retry consumed). `0` disables hedging.
    pub hedge_after_us: f64,
    /// Retry budget per logical operation for retryable failures.
    pub max_retries: u32,
    /// Base of the decorrelated-jitter backoff, in µs.
    pub backoff_base_us: f64,
    /// Cap of the decorrelated-jitter backoff, in µs.
    pub backoff_cap_us: f64,
    /// Consecutive logical-operation failures that open the circuit
    /// breaker.
    pub breaker_threshold: u32,
    /// Remote attempts the open breaker fails fast for before allowing a
    /// half-open probe.
    pub breaker_cooldown_ops: u32,
    /// Remote generations retained (older ones are deleted after a
    /// successful put; clamped to ≥ 2 so corruption fallback always has
    /// an older generation to fall to). `0` retains everything.
    pub keep: usize,
}

impl Default for RemotePolicy {
    fn default() -> RemotePolicy {
        RemotePolicy {
            op_deadline_us: 50_000.0,
            hedge_after_us: 10_000.0,
            max_retries: 4,
            backoff_base_us: 2_000.0,
            backoff_cap_us: 200_000.0,
            breaker_threshold: 3,
            breaker_cooldown_ops: 8,
            keep: 3,
        }
    }
}

/// Remote-operation telemetry of a [`RemoteStore`]: monotone counters
/// over the store's lifetime. The executor samples this before and after
/// a durable run and absorbs the delta into `RunStats::remote`, so
/// per-run numbers stay correct even when one store serves many runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RemoteTelemetry {
    /// Snapshot generations successfully persisted to the remote
    /// (spilled generations count only once drained).
    pub puts: u64,
    /// Remote attempts re-issued after a retryable failure (timeouts,
    /// transient "5xx" errors, unavailability; hedge attempts not
    /// included).
    pub retries: u64,
    /// Modeled backoff charged between retries, in µs (decorrelated
    /// jitter; counted in `RunStats::recovery_overhead_us`).
    pub backoff_us: f64,
    /// Reads whose tight first deadline expired and fired a
    /// full-deadline hedge attempt.
    pub hedged_reads: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_opens: u64,
    /// Snapshots spilled to the local write-behind store because the
    /// remote was unreachable.
    pub spilled_snapshots: u64,
}

impl RemoteTelemetry {
    /// Counter-wise `self - earlier` (both sampled from the same store).
    #[must_use]
    pub fn delta(&self, earlier: &RemoteTelemetry) -> RemoteTelemetry {
        RemoteTelemetry {
            puts: self.puts - earlier.puts,
            retries: self.retries - earlier.retries,
            backoff_us: self.backoff_us - earlier.backoff_us,
            hedged_reads: self.hedged_reads - earlier.hedged_reads,
            breaker_opens: self.breaker_opens - earlier.breaker_opens,
            spilled_snapshots: self.spilled_snapshots - earlier.spilled_snapshots,
        }
    }

    /// Counter-wise `self += other`: how a run folds in its store's delta,
    /// a fleet executor banks each store stack it discards, and
    /// `RunStats::absorb` merges runs. Destructured exhaustively, like
    /// `RunStats::absorb`, so a new counter cannot be left out.
    pub fn absorb(&mut self, other: &RemoteTelemetry) {
        let RemoteTelemetry {
            puts,
            retries,
            backoff_us,
            hedged_reads,
            breaker_opens,
            spilled_snapshots,
        } = other;
        self.puts += puts;
        self.retries += retries;
        self.backoff_us += backoff_us;
        self.hedged_reads += hedged_reads;
        self.breaker_opens += breaker_opens;
        self.spilled_snapshots += spilled_snapshots;
    }
}

/// Circuit-breaker state machine: `Closed` (counting consecutive
/// failures) → `Open` (fail fast until a cooldown of remote attempts
/// passes) → `HalfOpen` (one probe decides: success closes, failure
/// re-opens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed { fails: u32 },
    Open { until_attempt: u64 },
    HalfOpen,
}

#[derive(Debug)]
struct RemoteInner {
    rng: u64,
    /// Remote attempts issued (the clock breaker cooldowns tick on).
    attempts: u64,
    breaker: Breaker,
    /// Next generation number to hand out (`None` until first use).
    next_gen: Option<u64>,
    /// Modeled backoff of the previous retry, for decorrelated jitter.
    prev_backoff_us: f64,
    /// Spilled generations already drained back to the remote.
    drained: HashSet<u64>,
    telemetry: RemoteTelemetry,
}

/// Object key of one snapshot generation.
fn gen_key(generation: u64) -> String {
    format!("snap/{generation:016x}")
}

fn parse_gen_key(key: &str) -> Option<u64> {
    let hex = key.strip_prefix("snap/")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Outcome of one resilient remote call.
enum Guarded<T> {
    Ok(T),
    /// The breaker was open: the remote was never contacted.
    FastFail,
    /// All attempts failed; the last error.
    Err(ObjectError),
}

/// Collapses a [`Guarded`] outcome into a plain result: a breaker
/// fast-fail reads as an unavailability error (that is what the caller
/// would have observed had the breaker let the call through).
fn flatten<T>(g: Guarded<T>) -> Result<T, ObjectError> {
    match g {
        Guarded::Ok(v) => Ok(v),
        Guarded::Err(e) => Err(e),
        Guarded::FastFail => Err(ObjectError {
            kind: ObjectErrorKind::Unavailable,
            latency_us: 0.0,
        }),
    }
}

/// A [`SnapshotStore`] over any [`ObjectStore`], wrapping every remote
/// operation in the resilience stack (deadlines, retry with decorrelated
/// jitter, hedged reads, circuit breaker) and optionally spilling writes
/// to a local [`DiskStore`] while the remote is down.
///
/// Degradation ladder, in order: retry (transient faults) → hedge
/// (slow reads) → breaker (stop hammering a dead endpoint) → spill
/// (keep durability local) → and, at the [`SnapshotStore`] boundary, a
/// failed `put` is a skipped generation and a failed `get`/`generations`
/// is a resume fallback — the executor never aborts on any of it.
///
/// Operations are serialized on an internal mutex: the resilience state
/// machine (breaker, retry RNG, generation counter) is deterministic for
/// a given call sequence, which the seeded chaos campaign relies on.
pub struct RemoteStore<O> {
    remote: O,
    spill: Option<DiskStore>,
    policy: RemotePolicy,
    inner: Mutex<RemoteInner>,
}

impl<O: ObjectStore> RemoteStore<O> {
    /// Wraps a remote with the given resilience policy. `seed` drives
    /// the backoff jitter (and only that — determinism of everything
    /// else comes from the call sequence).
    #[must_use]
    pub fn new(remote: O, policy: RemotePolicy, seed: u64) -> RemoteStore<O> {
        let policy = RemotePolicy {
            keep: if policy.keep == 0 {
                0
            } else {
                policy.keep.max(2)
            },
            ..policy
        };
        RemoteStore {
            remote,
            spill: None,
            policy,
            inner: Mutex::new(RemoteInner {
                rng: splitmix64(seed ^ 0x4845_4447_4a49_5454),
                attempts: 0,
                breaker: Breaker::Closed { fails: 0 },
                next_gen: None,
                prev_backoff_us: 0.0,
                drained: HashSet::new(),
                telemetry: RemoteTelemetry::default(),
            }),
        }
    }

    /// Attaches a local write-behind spill store: while the remote is
    /// unreachable, `put` persists the generation to `spill` instead of
    /// failing, and later successful puts opportunistically drain the
    /// spilled generations back to the remote.
    #[must_use]
    pub fn with_spill(mut self, spill: DiskStore) -> RemoteStore<O> {
        self.spill = Some(spill);
        self
    }

    /// The wrapped remote.
    #[must_use]
    pub fn remote(&self) -> &O {
        &self.remote
    }

    /// The local spill store, if attached.
    #[must_use]
    pub fn spill(&self) -> Option<&DiskStore> {
        self.spill.as_ref()
    }

    /// Telemetry counters accumulated over this store's lifetime.
    #[must_use]
    pub fn telemetry(&self) -> RemoteTelemetry {
        self.inner.lock().expect("remote store lock").telemetry
    }

    /// Runs one logical remote operation through the resilience stack:
    /// breaker fast-fail, per-attempt deadline, hedged first read, and
    /// bounded retry with decorrelated-jitter backoff. `op` receives the
    /// deadline for each attempt.
    fn guarded<T>(&self, hedged_read: bool, op: impl Fn(f64) -> ObjectResult<T>) -> Guarded<T> {
        let mut inner = self.inner.lock().expect("remote store lock");
        let mut probing = false;
        match inner.breaker {
            Breaker::Open { until_attempt } if inner.attempts < until_attempt => {
                // Fail fast without touching the remote; the tick still
                // advances the cooldown clock so the breaker eventually
                // reaches half-open.
                inner.attempts += 1;
                return Guarded::FastFail;
            }
            Breaker::Open { .. } => {
                inner.breaker = Breaker::HalfOpen;
                probing = true;
            }
            Breaker::HalfOpen => probing = true,
            Breaker::Closed { .. } => {}
        }

        let hedging = hedged_read
            && self.policy.hedge_after_us > 0.0
            && self.policy.hedge_after_us < self.policy.op_deadline_us;
        let mut hedge_pending = hedging;
        // A half-open probe is a single attempt: one failure re-opens
        // immediately instead of hammering a barely-recovered endpoint
        // with a full retry budget.
        let mut retries_left = if probing { 0 } else { self.policy.max_retries };
        inner.prev_backoff_us = 0.0;
        loop {
            let deadline = if hedge_pending {
                self.policy.hedge_after_us
            } else {
                self.policy.op_deadline_us
            };
            inner.attempts += 1;
            match op(deadline) {
                Ok(reply) => {
                    inner.breaker = Breaker::Closed { fails: 0 };
                    return Guarded::Ok(reply.value);
                }
                Err(e) if hedge_pending && e.kind == ObjectErrorKind::Timeout => {
                    // The tight first deadline expired: fire the hedge
                    // attempt immediately (no backoff, no retry spent).
                    inner.telemetry.hedged_reads += 1;
                    hedge_pending = false;
                }
                Err(e) if e.is_retryable() && retries_left > 0 => {
                    hedge_pending = false;
                    retries_left -= 1;
                    inner.telemetry.retries += 1;
                    // Decorrelated jitter: sleep ∈ [base, prev·3], capped.
                    let base = self.policy.backoff_base_us;
                    let hi = (inner.prev_backoff_us * 3.0).max(base);
                    let roll = unit_draw(&mut inner.rng);
                    let backoff = (base + roll * (hi - base)).min(self.policy.backoff_cap_us);
                    inner.prev_backoff_us = backoff;
                    inner.telemetry.backoff_us += backoff;
                }
                Err(e) => {
                    if e.is_retryable() {
                        // Budget exhausted on a service failure: advance
                        // the breaker.
                        let opened = match inner.breaker {
                            Breaker::HalfOpen => true,
                            Breaker::Closed { fails } => fails + 1 >= self.policy.breaker_threshold,
                            Breaker::Open { .. } => false,
                        };
                        if opened {
                            inner.breaker = Breaker::Open {
                                until_attempt: inner.attempts
                                    + u64::from(self.policy.breaker_cooldown_ops),
                            };
                            inner.telemetry.breaker_opens += 1;
                        } else if let Breaker::Closed { fails } = inner.breaker {
                            inner.breaker = Breaker::Closed { fails: fails + 1 };
                        }
                    }
                    return Guarded::Err(e);
                }
            }
        }
    }

    /// Raises the generation counter so every future [`SnapshotStore::put`]
    /// allocates at `floor` or above. The fleet layer calls this with a
    /// lease's fencing token: each lease epoch gets its own generation
    /// band, so a write from an older epoch can never out-number (and
    /// therefore never shadow, at resume's newest-first scan) a write
    /// from the current one. Lowering is a no-op — the counter only moves
    /// forward.
    pub fn bump_generation_floor(&self, floor: u64) {
        let mut inner = self.inner.lock().expect("remote store lock");
        inner.next_gen = Some(inner.next_gen.unwrap_or(0).max(floor));
    }

    /// One raw-key write through the full resilience stack (retry,
    /// jitter, breaker; no hedging — writes are not idempotent under
    /// torn uploads). This is the surface the fleet layer's lease and
    /// result records use; snapshot generations keep going through
    /// [`SnapshotStore::put`].
    ///
    /// # Errors
    ///
    /// The last [`ObjectError`] once the retry budget is exhausted, or a
    /// synthesized [`ObjectErrorKind::Unavailable`] when the breaker
    /// fast-failed without contacting the remote.
    pub fn object_put(&self, key: &str, bytes: &[u8]) -> Result<(), ObjectError> {
        flatten(self.guarded(false, |d| self.remote.put(key, bytes, d)))
    }

    /// One raw-key read through the resilience stack, with hedging.
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::object_put`].
    pub fn object_get(&self, key: &str) -> Result<Vec<u8>, ObjectError> {
        flatten(self.guarded(true, |d| self.remote.get(key, d)))
    }

    /// One raw-prefix listing through the resilience stack.
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::object_put`].
    pub fn object_list(&self, prefix: &str) -> Result<Vec<String>, ObjectError> {
        flatten(self.guarded(false, |d| self.remote.list(prefix, d)))
    }

    /// One raw-key delete through the resilience stack.
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::object_put`].
    pub fn object_delete(&self, key: &str) -> Result<(), ObjectError> {
        flatten(self.guarded(false, |d| self.remote.delete(key, d)))
    }

    /// Remote generation listing through the stack; `None` when the
    /// remote could not be listed.
    fn remote_generations(&self) -> Option<Vec<u64>> {
        match self.guarded(false, |d| self.remote.list("snap/", d)) {
            Guarded::Ok(keys) => {
                let mut gens: Vec<u64> = keys.iter().filter_map(|k| parse_gen_key(k)).collect();
                gens.sort_unstable();
                Some(gens)
            }
            _ => None,
        }
    }

    /// Generations currently in the spill store (empty without one).
    fn spill_generations(&self) -> Vec<u64> {
        self.spill
            .as_ref()
            .and_then(|s| s.generations().ok())
            .unwrap_or_default()
    }

    /// Allocates the next generation number, initializing the counter
    /// from the union of remote and spill listings on first use. If the
    /// remote cannot be listed the counter starts above the spill's
    /// newest — reusing a remote number then overwrites that generation
    /// with a *newer* snapshot, which resume handles (it validates
    /// whatever it reads), so durability still degrades instead of
    /// failing.
    fn allocate_generation(&self) -> u64 {
        let cached = self.inner.lock().expect("remote store lock").next_gen;
        let next = match cached {
            Some(g) => g,
            None => {
                let remote_max = self
                    .remote_generations()
                    .and_then(|g| g.last().copied())
                    .unwrap_or(0);
                let spill_max = self.spill_generations().last().copied().unwrap_or(0);
                remote_max.max(spill_max) + 1
            }
        };
        self.inner.lock().expect("remote store lock").next_gen = Some(next + 1);
        next
    }

    /// After a successful remote put: push spilled generations back to
    /// the remote (one opportunistic attempt each, no retries — the next
    /// put tries again) and prune remote generations beyond the
    /// retention policy.
    fn drain_and_prune(&self) {
        if let Some(spill) = &self.spill {
            let spilled = spill.generations().unwrap_or_default();
            for g in spilled {
                if self
                    .inner
                    .lock()
                    .expect("remote store lock")
                    .drained
                    .contains(&g)
                {
                    continue;
                }
                let Ok(bytes) = spill.get(g) else { continue };
                let done = {
                    let mut inner = self.inner.lock().expect("remote store lock");
                    inner.attempts += 1;
                    drop(inner);
                    self.remote
                        .put(&gen_key(g), &bytes, self.policy.op_deadline_us)
                        .is_ok()
                };
                if done {
                    let mut inner = self.inner.lock().expect("remote store lock");
                    inner.drained.insert(g);
                    inner.telemetry.puts += 1;
                }
            }
        }
        if self.policy.keep > 0 {
            if let Some(gens) = self.remote_generations() {
                for &old in gens
                    .iter()
                    .take(gens.len().saturating_sub(self.policy.keep))
                {
                    // Housekeeping: a surviving old generation is
                    // harmless, so one attempt, errors ignored.
                    self.inner.lock().expect("remote store lock").attempts += 1;
                    let _ = self
                        .remote
                        .delete(&gen_key(old), self.policy.op_deadline_us);
                }
            }
        }
    }
}

impl<O: ObjectStore> SnapshotStore for RemoteStore<O> {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        let generation = self.allocate_generation();
        match self.guarded(false, |d| self.remote.put(&gen_key(generation), bytes, d)) {
            Guarded::Ok(()) => {
                self.inner.lock().expect("remote store lock").telemetry.puts += 1;
                self.drain_and_prune();
                Ok(generation)
            }
            fail => {
                // Remote down or erroring: spill locally (write-behind)
                // if we can, otherwise report the failure — the executor
                // degrades it to a skipped generation either way.
                if let Some(spill) = &self.spill {
                    spill.put_at(generation, bytes)?;
                    self.inner
                        .lock()
                        .expect("remote store lock")
                        .telemetry
                        .spilled_snapshots += 1;
                    return Ok(generation);
                }
                Err(match fail {
                    Guarded::Err(e) => io::Error::other(format!("remote put failed: {e}")),
                    _ => io::Error::other("remote put failed: circuit breaker open"),
                })
            }
        }
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        let remote = self.remote_generations();
        let mut gens = match (remote, &self.spill) {
            (Some(r), _) => r,
            (None, Some(_)) => Vec::new(), // degraded: spill-only view
            (None, None) => {
                return Err(io::Error::other(
                    "remote list failed and no spill store is attached",
                ))
            }
        };
        gens.extend(self.spill_generations());
        gens.sort_unstable();
        gens.dedup();
        Ok(gens)
    }

    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        match self.guarded(true, |d| self.remote.get(&gen_key(generation), d)) {
            Guarded::Ok(bytes) => Ok(bytes),
            fail => match self.spill.as_ref().and_then(|s| s.get(generation).ok()) {
                Some(bytes) => Ok(bytes),
                None => Err(match fail {
                    Guarded::Err(e) => io::Error::other(format!("remote get failed: {e}")),
                    _ => io::Error::other("remote get failed: circuit breaker open"),
                }),
            },
        }
    }

    fn remote_telemetry(&self) -> Option<RemoteTelemetry> {
        Some(self.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DL: f64 = 50_000.0;

    #[test]
    fn sim_store_is_deterministic_per_seed() {
        let run = || {
            let s = SimObjectStore::new(RemoteFaultSpec::chaos(), 11);
            for i in 0..60u8 {
                let _ = s.put(&format!("k{i}"), &[i; 48], DL);
            }
            for i in 0..60u8 {
                let _ = s.get(&format!("k{i}"), DL);
            }
            s.report()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "seeded faults must be deterministic");
        assert!(a.total() > 0, "chaos spec must inject something");
    }

    #[test]
    fn sim_store_none_is_transparent() {
        let s = SimObjectStore::new(RemoteFaultSpec::none(), 1);
        s.put("a", b"hello", DL).unwrap();
        assert_eq!(s.get("a", DL).unwrap().value, b"hello");
        assert_eq!(s.list("", DL).unwrap().value, vec!["a".to_string()]);
        s.delete("a", DL).unwrap();
        assert_eq!(
            s.get("a", DL).unwrap_err().kind,
            ObjectErrorKind::NotFound,
            "deleted object is gone"
        );
        assert_eq!(s.report(), RemoteFaultReport::default());
    }

    #[test]
    fn sim_store_times_out_against_tight_deadlines() {
        let s = SimObjectStore::new(RemoteFaultSpec::none(), 3);
        // Base latency ~800 µs against a 10 µs deadline: always late.
        let e = s.put("a", b"x", 10.0).unwrap_err();
        assert_eq!(e.kind, ObjectErrorKind::Timeout);
        assert!(s.report().timeouts >= 1);
    }

    #[test]
    fn remote_store_happy_path_round_trips_and_prunes() {
        let store = RemoteStore::new(
            SimObjectStore::new(RemoteFaultSpec::none(), 5),
            RemotePolicy::default(),
            5,
        );
        for i in 0..5u8 {
            let g = store.put(&[i; 32]).unwrap();
            assert_eq!(g, u64::from(i) + 1);
        }
        // Retention: only the newest `keep` generations survive remotely.
        assert_eq!(store.generations().unwrap(), vec![3, 4, 5]);
        assert_eq!(store.get(5).unwrap(), vec![4u8; 32]);
        let t = store.telemetry();
        assert_eq!(t.puts, 5);
        assert_eq!(t.spilled_snapshots, 0);
        assert_eq!(t.breaker_opens, 0);
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let store = RemoteStore::new(
            SimObjectStore::new(RemoteFaultSpec::transients(), 7),
            RemotePolicy::default(),
            7,
        );
        for i in 0..10u8 {
            store.put(&[i; 32]).expect("retries absorb 25% transients");
        }
        let t = store.telemetry();
        assert!(t.retries > 0, "transient spec must force retries");
        assert!(t.backoff_us > 0.0, "retries must charge backoff");
    }

    #[test]
    fn hedged_reads_fire_on_stalls() {
        let store = RemoteStore::new(
            SimObjectStore::new(RemoteFaultSpec::timeouts(), 2),
            RemotePolicy {
                // Tight first-read deadline, roomy full deadline: stalls
                // blow the former, the hedge attempt absorbs them.
                hedge_after_us: 1_500.0,
                op_deadline_us: 5_000_000.0,
                ..RemotePolicy::default()
            },
            2,
        );
        let mut gens = Vec::new();
        for i in 0..12u8 {
            gens.push(store.put(&[i; 32]).expect("puts retry through stalls"));
        }
        // Reads draw the stall distribution on their tight first deadline;
        // over 12 gets at a 20% stall rate the seeded stream must blow it
        // at least once (even pruned generations draw latency before the
        // NotFound).
        for &g in &gens {
            let _ = store.get(g);
        }
        assert!(
            store.telemetry().hedged_reads > 0,
            "tight first deadline + 20% stalls must hedge at least once"
        );
    }

    #[test]
    fn outage_opens_breaker_and_spills_then_drains() {
        let dir = std::env::temp_dir().join("halo_remote_spill_drain");
        let _ = std::fs::remove_dir_all(&dir);
        // A remote that is dark from the start for a long window: the
        // first puts must exhaust retries, open the breaker, and spill.
        let sim = SimObjectStore::new(
            RemoteFaultSpec {
                unavail: 1.0,
                unavail_window: 200,
                ..RemoteFaultSpec::none()
            },
            9,
        );
        let store = RemoteStore::new(sim, RemotePolicy::default(), 9)
            .with_spill(DiskStore::open(&dir, 0).unwrap());
        for i in 0..4u8 {
            store.put(&[i; 32]).expect("spill absorbs the outage");
        }
        let t = store.telemetry();
        assert_eq!(t.spilled_snapshots, 4, "every put spilled");
        assert!(t.breaker_opens >= 1, "dead remote must open the breaker");
        assert_eq!(t.puts, 0);
        // The spill serves reads and listings while the remote is dark.
        assert_eq!(store.generations().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(store.get(3).unwrap(), vec![2u8; 32]);

        // Remote recovers (fresh sim, no faults) — model the endpoint
        // coming back: swap in a healthy remote sharing no state. The
        // next successful put drains the spilled generations.
        let healthy = RemoteStore::new(
            SimObjectStore::new(RemoteFaultSpec::none(), 9),
            RemotePolicy {
                keep: 0,
                ..RemotePolicy::default()
            },
            9,
        )
        .with_spill(DiskStore::open(&dir, 0).unwrap());
        let g = healthy.put(&[9u8; 32]).unwrap();
        assert_eq!(g, 5, "generation counter continues above the spill");
        let remote_keys: Vec<u64> = healthy
            .remote()
            .objects()
            .iter()
            .filter_map(|(k, _)| parse_gen_key(k))
            .collect();
        assert!(
            remote_keys.contains(&1) && remote_keys.contains(&4) && remote_keys.contains(&5),
            "spilled generations drained to the remote: {remote_keys:?}"
        );
        assert_eq!(healthy.telemetry().puts, 5, "1 put + 4 drained");
    }

    #[test]
    fn breaker_opens_fast_fails_then_probes_half_open() {
        // A remote that is dark for good: every attempt is rejected.
        let sim = SimObjectStore::new(
            RemoteFaultSpec {
                unavail: 1.0,
                unavail_window: 1,
                ..RemoteFaultSpec::none()
            },
            13,
        );
        let store = RemoteStore::new(sim, RemotePolicy::default(), 13);
        for i in 0..3u8 {
            assert!(store.put(&[i; 16]).is_err(), "no spill: puts fail");
        }
        assert!(
            store.telemetry().breaker_opens >= 1,
            "consecutive failures past the threshold must open the breaker"
        );
        // While open, calls fail fast: one cooldown tick, zero remote
        // attempts (the sim sees no new operations).
        let ops_before = store.remote().state.lock().unwrap().ops;
        assert!(store.put(&[9u8; 16]).is_err());
        assert_eq!(
            store.remote().state.lock().unwrap().ops,
            ops_before,
            "open breaker must not touch the remote"
        );
        // Once the cooldown elapses the breaker half-opens: a single
        // probe reaches the (still dead) remote and re-opens.
        let opens_before = store.telemetry().breaker_opens;
        for i in 0..40u8 {
            let _ = store.put(&[i; 16]);
        }
        assert!(
            store.telemetry().breaker_opens > opens_before,
            "half-open probes against a dead remote must re-open"
        );
    }

    #[test]
    fn gen_key_round_trips() {
        assert_eq!(parse_gen_key(&gen_key(42)), Some(42));
        assert_eq!(parse_gen_key("snap/zz"), None);
        assert_eq!(parse_gen_key("other/0000000000000001"), None);
    }
}
