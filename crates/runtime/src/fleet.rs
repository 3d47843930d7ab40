//! Fenced lease-based fleet execution: one compiled loop job sharded
//! across a fleet of crash-prone executors that share one object store.
//!
//! PR 5 made a single machine's run durable (snapshot every loop header,
//! resume after a kill); PR 7 moved the snapshots to a remote object
//! store behind retry/hedge/breaker machinery. This module climbs the
//! next rung of that ladder: *any* machine may finish *any* leg of the
//! job, and the contract is proven by bit-identity, not hoped for
//! operationally.
//!
//! # The model
//!
//! A *leg* is a loop-header-delimited iteration range (`leg_len`
//! headers). The `halo-snap/1` snapshot at a leg boundary *is* the
//! inter-leg handoff format — nothing new is invented for the fleet; a
//! leg's deliverable is exactly the snapshot the next leg resumes from.
//!
//! Executors claim legs via **leases** stored in the same object store
//! as the snapshots:
//!
//! - A claim is a put of a `lease/<leg>` record carrying a fresh,
//!   globally monotone **epoch**, followed by a read-back confirm. An
//!   unconfirmed claim (torn upload, outage, lost read-back) is *not
//!   acquired* — the claimant never acts on it.
//! - Leases expire on the **modeled clock** (one tick per scheduler
//!   round, like every other delay in this codebase). An executor that
//!   crashes or stalls stops renewing; the coordinator observes the
//!   expiry and the next idle executor re-claims the leg under a higher
//!   epoch (`legs_reassigned`).
//! - Epochs double as **fencing tokens**. Every snapshot or result
//!   publish re-reads the lease first: if the record now carries a
//!   different epoch/holder — or the publisher's own lease has expired —
//!   the write is refused and counted in `zombie_writes_fenced`. As a
//!   second belt, each claim bumps the publisher's snapshot-generation
//!   floor to `epoch × FENCE_STRIDE`, so generation numbers from
//!   successive epochs live in disjoint ascending bands and a stale
//!   generation can never sort newest. The fencing invariant: **a
//!   snapshot generation published under an expired lease is never
//!   newest-intact** — because it is never published at all.
//!
//! The coordinator holds no load-bearing in-memory state: it watches
//! lease records for expiries and result records for completion, and a
//! restart (`coordinator_resumes`) simply rebuilds that view from the
//! store. Executor scheduling is likewise derived purely from the store:
//! an idle executor probes the newest intact snapshot to find the
//! frontier, maps it to a leg, and tries to claim it.
//!
//! # Execution
//!
//! The fleet is simulated deterministically: one scheduler round per
//! tick, coordinator first, then executors in id order. Each running
//! executor performs one *time slice* per tick — a durable resume of the
//! **full job** (the trip symbols are always bound to the job's real
//! iteration count; HALO compilation restructures loops as a function of
//! the trip, so a partial binding would execute a *different program*).
//! The slice is bounded by an ops quantum on a [`FaultInjectingBackend`]
//! kill point: after `slice_ops` backend calls the run is preempted,
//! exactly as remote-chaos kills are, and the next slice resumes from
//! the newest snapshot the previous one published. Progress is measured
//! by the **global header index**: the program's top-level loops are
//! flattened (in entry-block order, trips evaluated under the full
//! environment) into one sequence of `total_headers` loop headers, and a
//! snapshot at iteration `i` of loop `k` sits at index
//! `Σ trips[0..k] + i` ([`LoopSchedule`]). A leg is `leg_len`
//! consecutive headers; the fenced store trips a preemption as soon as
//! the leg's boundary header is published, so an interior leg hands off
//! and releases instead of running to the end.
//!
//! Crashes are modeled by the same kill point with a smaller, seeded ops
//! budget (the machine loses all in-memory state and reboots later);
//! stalls freeze an executor for several ticks while it keeps a stale
//! view of the store. A stalled executor whose lease expired wakes up as
//! a **zombie** and every publish it attempts is fenced. Because every
//! slice replays from a checksummed snapshot with restored RNG state
//! under the identical environment, the surviving schedule's outputs are
//! bit-identical to a solo uninterrupted run — the `fleet_chaos`
//! campaign asserts exactly that across fault profiles and seeds.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use halo_ckks::fault::{splitmix64, unit_draw, FaultInjectingBackend, FaultSpec};
use halo_ckks::snapshot::{put_u32, put_u64, SnapError, SnapshotBackend};
use halo_ir::func::{Function, OpId};
use halo_ir::op::Opcode;

use crate::exec::{Executor, Inputs};
use crate::remote::{ObjectErrorKind, ObjectStore, RemotePolicy, RemoteStore};
use crate::snapshot::{open, peek_snapshot_cursor, seal};
use crate::stats::RunStats;
use crate::store::SnapshotStore;

// ----------------------------------------------------------------------
// Lease records.
// ----------------------------------------------------------------------

/// Key prefix of lease records.
pub const LEASE_PREFIX: &str = "lease/";
/// Key prefix of job-result records.
pub const RESULT_PREFIX: &str = "result/";

const LEASE_MAGIC: &[u8; 8] = b"HALOLEAS";
const RESULT_MAGIC: &[u8; 8] = b"HALORSLT";
const LEASE_VERSION: u32 = 1;

/// Generation-band stride per lease epoch: each claim bumps the
/// holder's snapshot-generation floor to `epoch × FENCE_STRIDE`, so
/// generations minted under later epochs always sort above earlier ones
/// even if a zombie's write slipped past every other defense.
pub const FENCE_STRIDE: u64 = 1 << 20;

/// Object key of one leg's lease record.
#[must_use]
pub fn lease_key(leg: u32) -> String {
    format!("{LEASE_PREFIX}{leg:08x}")
}

/// Object key of the job result published under `epoch`.
#[must_use]
pub fn result_key(epoch: u64) -> String {
    format!("{RESULT_PREFIX}{epoch:016x}")
}

/// One leg's lease: who may publish snapshots for the leg, until when,
/// and under which fencing epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The leg this lease covers.
    pub leg: u32,
    /// Globally monotone claim epoch — the fencing token. A publish
    /// under epoch `e` is refused once the leg's record carries `e' > e`.
    pub epoch: u64,
    /// Executor id of the holder.
    pub holder: u32,
    /// Tick the lease was granted (or last renewed) at.
    pub granted_tick: u64,
    /// First tick the lease no longer covers: the leg is reclaimable at
    /// `now >= expires_tick`.
    pub expires_tick: u64,
    /// Snapshot-generation floor of this epoch (`epoch × FENCE_STRIDE`).
    pub fence: u64,
}

/// Serializes a lease record (`HALOLEAS`, version, fields, FNV-1a
/// checksum — the framing of `halo-snap/1`).
#[must_use]
pub fn encode_lease(r: &LeaseRecord) -> Vec<u8> {
    seal(LEASE_MAGIC, LEASE_VERSION, |out| {
        put_u32(out, r.leg);
        put_u64(out, r.epoch);
        put_u32(out, r.holder);
        put_u64(out, r.granted_tick);
        put_u64(out, r.expires_tick);
        put_u64(out, r.fence);
    })
}

/// Decodes and checksum-verifies a lease record. Any malformed record —
/// torn upload prefix, flipped bit, wrong magic — is an error; callers
/// treat an undecodable record as *unknown ownership*, never as a valid
/// claim.
///
/// # Errors
///
/// [`SnapError`] naming the first framing, checksum or field violation.
pub fn decode_lease(bytes: &[u8]) -> Result<LeaseRecord, SnapError> {
    let mut r = open(bytes, LEASE_MAGIC, LEASE_VERSION)?;
    let lease = LeaseRecord {
        leg: r.u32()?,
        epoch: r.u64()?,
        holder: r.u32()?,
        granted_tick: r.u64()?,
        expires_tick: r.u64()?,
        fence: r.u64()?,
    };
    if r.remaining() != 0 {
        return Err(SnapError::Malformed(
            "lease record has trailing bytes".into(),
        ));
    }
    Ok(lease)
}

/// Serializes a job-result record: the decrypted output vectors as raw
/// `f64` bit patterns under the publishing epoch, sealed like every
/// other record in the store.
#[must_use]
pub fn encode_result(epoch: u64, outputs: &[Vec<f64>]) -> Vec<u8> {
    seal(RESULT_MAGIC, LEASE_VERSION, |out| {
        put_u64(out, epoch);
        put_u32(out, u32::try_from(outputs.len()).unwrap_or(u32::MAX));
        for v in outputs {
            put_u64(out, v.len() as u64);
            for &x in v {
                put_u64(out, x.to_bits());
            }
        }
    })
}

/// Decodes and checksum-verifies a job-result record.
///
/// # Errors
///
/// [`SnapError`] naming the first framing, checksum or field violation.
pub fn decode_result(bytes: &[u8]) -> Result<(u64, Vec<Vec<f64>>), SnapError> {
    let mut r = open(bytes, RESULT_MAGIC, LEASE_VERSION)?;
    let epoch = r.u64()?;
    // Every output takes at least its 8-byte length, so `read_len`'s
    // bound by the remaining bytes also bounds this allocation.
    let count = r.read_len()?;
    let mut outputs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u64()?;
        if len > (r.remaining() / 8) as u64 {
            return Err(SnapError::Malformed(
                "result vector length exceeds record".into(),
            ));
        }
        let mut v = Vec::with_capacity(len as usize);
        for _ in 0..len {
            v.push(f64::from_bits(r.u64()?));
        }
        outputs.push(v);
    }
    if r.remaining() != 0 {
        return Err(SnapError::Malformed(
            "result record has trailing bytes".into(),
        ));
    }
    Ok((epoch, outputs))
}

// ----------------------------------------------------------------------
// Claiming.
// ----------------------------------------------------------------------

/// Outcome of a lease-claim attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The claim was written *and confirmed by read-back*: the caller
    /// now holds the leg under `lease.epoch`.
    Claimed {
        /// The confirmed lease record.
        lease: LeaseRecord,
        /// Whether a prior record (expired or corrupt) existed for the
        /// leg — i.e. this claim reassigns work a previous holder lost.
        reassigned: bool,
    },
    /// Another executor holds an unexpired lease on the leg.
    Held,
    /// The claim could not be confirmed (store unreachable, torn
    /// upload, lost read-back). The caller holds **nothing** — a lease
    /// is acquired only on confirmed read-back, never optimistically.
    NotAcquired,
}

/// Attempts to claim `leg` for `holder` at tick `now` with a `ttl`-tick
/// lease.
///
/// The claim protocol: scan all lease records for the global epoch
/// high-water mark and the target leg's current state; refuse if the leg
/// is actively held; otherwise write a record under `max_epoch + 1` and
/// confirm it by read-back. Every failure path — unreadable store, torn
/// upload, unconfirmed read-back — degrades to [`ClaimOutcome::NotAcquired`]:
/// the protocol can leave a *corrupt* record behind (the next claimant
/// treats it as claimable), but never a half-claimed leg.
///
/// A still-active record carrying this holder's own id is adopted as-is
/// (the usual cause: a previous claim's read-back was lost in transit).
pub fn try_claim<O: ObjectStore>(
    store: &RemoteStore<O>,
    leg: u32,
    holder: u32,
    now: u64,
    ttl: u64,
) -> ClaimOutcome {
    let Ok(keys) = store.object_list(LEASE_PREFIX) else {
        return ClaimOutcome::NotAcquired;
    };
    let target_key = lease_key(leg);
    let mut max_epoch = 0u64;
    let mut prior = false;
    for key in &keys {
        let bytes = match store.object_get(key) {
            Ok(b) => b,
            Err(e) if e.kind == ObjectErrorKind::NotFound => continue,
            // An unreadable record means the epoch high-water mark (and
            // possibly the target leg's holder) is unknown: claiming
            // blindly could mint a stale epoch, so don't.
            Err(_) => return ClaimOutcome::NotAcquired,
        };
        match decode_lease(&bytes) {
            Ok(r) => {
                max_epoch = max_epoch.max(r.epoch);
                if *key == target_key {
                    if now < r.expires_tick {
                        if r.holder == holder {
                            return ClaimOutcome::Claimed {
                                lease: r,
                                reassigned: false,
                            };
                        }
                        return ClaimOutcome::Held;
                    }
                    prior = true;
                }
            }
            Err(_) => {
                if *key == target_key {
                    prior = true;
                }
            }
        }
    }
    let lease = LeaseRecord {
        leg,
        epoch: max_epoch + 1,
        holder,
        granted_tick: now,
        expires_tick: now + ttl,
        fence: (max_epoch + 1).saturating_mul(FENCE_STRIDE),
    };
    if store
        .object_put(&target_key, &encode_lease(&lease))
        .is_err()
    {
        return ClaimOutcome::NotAcquired;
    }
    match store.object_get(&target_key) {
        Ok(bytes) => match decode_lease(&bytes) {
            Ok(r) if r.epoch == lease.epoch && r.holder == holder => ClaimOutcome::Claimed {
                lease,
                reassigned: prior,
            },
            _ => ClaimOutcome::NotAcquired,
        },
        Err(_) => ClaimOutcome::NotAcquired,
    }
}

/// What a lease record says about one publisher's claim, re-read at
/// publish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseView {
    /// The record carries our epoch and holder id and has not expired.
    Mine,
    /// Ownership is definitively gone: the record carries another
    /// epoch/holder, has expired, or was deleted.
    Lost,
    /// Ownership cannot be determined (store unreachable, record
    /// corrupt). Writes are refused, but this is not a fencing event.
    Unknown,
}

fn lease_view<O: ObjectStore>(
    store: &RemoteStore<O>,
    key: &str,
    epoch: u64,
    holder: u32,
    now: u64,
) -> LeaseView {
    match store.object_get(key) {
        Ok(bytes) => match decode_lease(&bytes) {
            Ok(r) if r.epoch == epoch && r.holder == holder && now < r.expires_tick => {
                LeaseView::Mine
            }
            Ok(_) => LeaseView::Lost,
            Err(_) => LeaseView::Unknown,
        },
        Err(e) if e.kind == ObjectErrorKind::NotFound => LeaseView::Lost,
        Err(_) => LeaseView::Unknown,
    }
}

// ----------------------------------------------------------------------
// The loop schedule: flattening a program's headers into one index.
// ----------------------------------------------------------------------

/// The program's top-level loops flattened into one global sequence of
/// loop headers, trips evaluated under the *full* environment.
///
/// HALO compilation restructures a dynamic-trip source loop into several
/// top-level loops (e.g. a bootstrap-interval chunk loop plus a
/// remainder loop), so "iteration `i`" alone does not identify a point
/// of progress — `(loop_op, i)` does. This schedule maps that pair to a
/// scalar **global header index** in `0..total_headers`, which is what
/// legs, frontiers, and leg-boundary targets are measured in.
#[derive(Debug, Clone)]
pub struct LoopSchedule {
    /// `(loop op, headers before this loop, this loop's trip)` in
    /// entry-block order.
    entries: Vec<(OpId, u64, u64)>,
    total: u64,
}

impl LoopSchedule {
    /// Evaluates the schedule of `function`'s entry-block loops under
    /// `env`.
    ///
    /// # Errors
    ///
    /// The name of the first trip-count symbol missing from `env`.
    pub fn of(function: &Function, env: &HashMap<String, u64>) -> Result<LoopSchedule, String> {
        let mut entries = Vec::new();
        let mut total = 0u64;
        for &op_id in &function.block(function.entry).ops {
            if let Opcode::For { trip, .. } = &function.op(op_id).opcode {
                let t = trip.eval(env)?;
                entries.push((op_id, total, t));
                total += t;
            }
        }
        Ok(LoopSchedule { entries, total })
    }

    /// Total loop headers the job executes (the unit legs are cut in).
    #[must_use]
    pub fn total_headers(&self) -> u64 {
        self.total
    }

    /// The global index of header `iter` of loop `loop_op`, or `None`
    /// for a loop that is not a top-level loop of the scheduled program.
    #[must_use]
    pub fn header_index(&self, loop_op: OpId, iter: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|&&(op, _, _)| op == loop_op)
            .map(|&(_, before, _)| before + iter)
    }
}

// ----------------------------------------------------------------------
// The fenced store.
// ----------------------------------------------------------------------

/// A [`SnapshotStore`] decorator that re-reads the publisher's lease on
/// every `put` and refuses the write unless the lease is still provably
/// held. This is the primary fencing mechanism: a zombie executor — one
/// whose lease expired while it was stalled — can run as much stale
/// compute as it likes, but its snapshots never reach the store.
///
/// `cap` models the zombie's *stale view*: a stalled executor resumes
/// from the newest generation it had seen before the stall, not from
/// generations its successor published since.
///
/// The store doubles as the **leg-boundary guard**: once a snapshot at
/// global header index ≥ `target` is published (the leg's deliverable —
/// the handoff its successor resumes from), `tripped` is set and
/// `on_boundary` preempts the run, so an interior leg stops at its
/// boundary instead of running to the end of the job.
struct FencedStore<'a, O: ObjectStore> {
    rstore: &'a RemoteStore<O>,
    lease_key: String,
    epoch: u64,
    holder: u32,
    clock: &'a AtomicU64,
    cap: Option<u64>,
    fenced: &'a AtomicU64,
    /// Snapshots the remote put accepted: counted here, where they land,
    /// so a slice that ends preempted still reports its writes.
    landed: &'a AtomicU64,
    function: &'a str,
    sched: &'a LoopSchedule,
    /// Global header index whose publication completes the leg.
    target: u64,
    tripped: &'a AtomicBool,
    on_boundary: &'a (dyn Fn() + Sync),
}

impl<O: ObjectStore> SnapshotStore for FencedStore<'_, O> {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        let now = self.clock.load(Ordering::SeqCst);
        match lease_view(self.rstore, &self.lease_key, self.epoch, self.holder, now) {
            LeaseView::Mine => {
                let res = self.rstore.put(bytes);
                if res.is_ok() {
                    self.landed.fetch_add(1, Ordering::SeqCst);
                }
                if let Some(p) = peek_snapshot_cursor(self.function, bytes)
                    .and_then(|(op, iter)| self.sched.header_index(op, iter))
                {
                    // The boundary trips whether or not the put landed:
                    // if the handoff snapshot was lost to a store fault,
                    // the leg releases undelivered and the next claimant
                    // (frontier probe finds the older snapshot) redoes it.
                    if p >= self.target {
                        self.tripped.store(true, Ordering::SeqCst);
                        (self.on_boundary)();
                    }
                }
                res
            }
            LeaseView::Lost => {
                self.fenced.fetch_add(1, Ordering::SeqCst);
                Err(io::Error::other(
                    "fenced: lease lost or expired — stale write refused",
                ))
            }
            LeaseView::Unknown => Err(io::Error::other(
                "fenced: lease state unreadable — write refused",
            )),
        }
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = self.rstore.generations()?;
        if let Some(cap) = self.cap {
            gens.retain(|&g| g <= cap);
        }
        Ok(gens)
    }

    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        SnapshotStore::get(self.rstore, generation)
    }

    // Remote telemetry is banked once per executor lifetime (claims and
    // renewals go through the same RemoteStore), not per micro-run.
}

// ----------------------------------------------------------------------
// Configuration.
// ----------------------------------------------------------------------

/// One loop job to shard across the fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetJob<'a> {
    /// The compiled function (must carry a dynamic-trip top-level loop).
    pub function: &'a Function,
    /// Inputs *without* the trip bindings — the fleet binds every trip
    /// symbol to `iters`, always: HALO compilation restructures loops as
    /// a function of the trip, so every slice must run the identical
    /// program the solo baseline runs.
    pub inputs: &'a Inputs,
    /// Trip-count symbols of the job's dynamic loop.
    pub trip_symbols: &'a [&'a str],
    /// Total source-loop iterations the job runs (the value every trip
    /// symbol is bound to).
    pub iters: u64,
}

/// Fleet topology and timing.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Executor machines in the fleet.
    pub executors: u32,
    /// Global loop headers per leg (see [`LoopSchedule`]).
    pub leg_len: u64,
    /// Lease time-to-live in ticks; a holder renews every tick it acts.
    pub lease_ticks: u64,
    /// Ticks a crashed executor stays down before rebooting empty.
    pub reboot_ticks: u64,
    /// Scheduler-round budget before the run is declared stuck.
    pub max_ticks: u64,
    /// Backend-call quantum of one execution slice: a running executor
    /// is preempted (and resumes next tick from its newest snapshot)
    /// after this many backend calls. Must comfortably exceed the calls
    /// between two consecutive loop headers or the fleet cannot make
    /// progress.
    pub slice_ops: u64,
    /// Resilience policy of every per-machine [`RemoteStore`] stack.
    pub remote_policy: RemotePolicy,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            executors: 3,
            leg_len: 2,
            lease_ticks: 4,
            reboot_ticks: 2,
            max_ticks: 600,
            slice_ops: 256,
            remote_policy: RemotePolicy::default(),
        }
    }
}

/// Fleet-level fault plan (store-level faults live in the
/// [`SimObjectStore`]'s own [`RemoteFaultSpec`]).
///
/// [`SimObjectStore`]: crate::remote::SimObjectStore
/// [`RemoteFaultSpec`]: crate::remote::RemoteFaultSpec
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultSpec {
    /// Probability a running executor's micro-step is SIGKILLed mid-leg
    /// (modeled as a non-transient backend error at an injected kill
    /// point; the machine loses all in-memory state and reboots later).
    pub p_kill: f64,
    /// Upper bound of the uniform backend-call count before an injected
    /// kill fires.
    pub kill_ops_max: u64,
    /// Probability a running executor stalls (GC/VM pause): it freezes
    /// for [`FleetFaultSpec::stall_ticks`] while keeping a stale view of
    /// the store, then resumes as if nothing happened — the zombie
    /// scenario when the stall outlives the lease.
    pub p_stall: f64,
    /// Ticks a probabilistic stall lasts.
    pub stall_ticks: u64,
    /// Probability per tick that the coordinator process restarts and
    /// must rebuild its view from the store.
    pub p_coord_restart: f64,
    /// Deterministically stall the first mid-leg running executor at
    /// this tick, until one tick past its lease expiry — the scripted
    /// zombie drill.
    pub scripted_stall_tick: Option<u64>,
    /// Deterministically restart the coordinator at this tick.
    pub scripted_restart_tick: Option<u64>,
}

impl FleetFaultSpec {
    /// A healthy fleet: no kills, stalls, or restarts.
    #[must_use]
    pub fn none() -> FleetFaultSpec {
        FleetFaultSpec {
            p_kill: 0.0,
            kill_ops_max: 0,
            p_stall: 0.0,
            stall_ticks: 0,
            p_coord_restart: 0.0,
            scripted_stall_tick: None,
            scripted_restart_tick: None,
        }
    }

    /// Everything at once: kills, zombie-length stalls, coordinator
    /// restarts.
    #[must_use]
    pub fn mixed() -> FleetFaultSpec {
        FleetFaultSpec {
            p_kill: 0.06,
            kill_ops_max: 60,
            p_stall: 0.06,
            stall_ticks: 6,
            p_coord_restart: 0.04,
            ..FleetFaultSpec::none()
        }
    }

    /// Frequent SIGKILLs mid-leg, nothing else. The ops budget is kept
    /// small so a drawn kill lands *before* the leg's boundary header —
    /// mid-leg, where recovery is hardest.
    #[must_use]
    pub fn kill_storm() -> FleetFaultSpec {
        FleetFaultSpec {
            p_kill: 0.5,
            kill_ops_max: 20,
            ..FleetFaultSpec::none()
        }
    }

    /// The deterministic zombie drill: stall the lease holder mid-leg
    /// until just past its lease expiry (so a successor claims the leg),
    /// and restart the coordinator while the stall is in flight. Every
    /// seed of this profile demonstrates a fenced zombie write, a lease
    /// expiry, a leg reassignment, and a coordinator resume.
    #[must_use]
    pub fn zombie_drill() -> FleetFaultSpec {
        FleetFaultSpec {
            scripted_stall_tick: Some(2),
            scripted_restart_tick: Some(6),
            ..FleetFaultSpec::none()
        }
    }
}

/// Why a fleet run failed structurally (individual machine failures
/// never surface here — they are the point of the exercise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The job or config is unusable as specified.
    BadConfig(String),
    /// The fleet did not finish within the tick budget.
    TicksExhausted {
        /// The exhausted budget.
        max_ticks: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::BadConfig(m) => write!(f, "bad fleet config: {m}"),
            FleetError::TicksExhausted { max_ticks } => {
                write!(f, "fleet made no result within {max_ticks} ticks")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// What a completed fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Decrypted job outputs (bit-identical to a solo uninterrupted run).
    pub outputs: Vec<Vec<f64>>,
    /// Aggregated stats of the coordinator and every executor,
    /// including the fleet telemetry counters.
    pub stats: RunStats,
    /// Scheduler rounds the job took.
    pub ticks: u64,
    /// Legs the job was sharded into.
    pub legs: u32,
    /// Epoch the winning result record was published under.
    pub final_epoch: u64,
    /// Executor machines that died mid-leg (and later rebooted).
    pub executor_crashes: u64,
    /// Executor stalls injected (scripted and probabilistic).
    pub executor_stalls: u64,
}

// ----------------------------------------------------------------------
// The simulated fleet.
// ----------------------------------------------------------------------

/// What a running executor knows about its current leg.
#[derive(Debug, Clone, Copy)]
struct Assignment {
    leg: u32,
    epoch: u64,
    /// The global header index that completes the leg:
    /// `(leg + 1) × leg_len` for interior legs (the boundary guard
    /// preempts the slice once it is published), `u64::MAX` for the
    /// final leg (run to completion and publish the result).
    target: u64,
}

#[derive(Debug)]
enum ExecState {
    Idle,
    Running(Assignment),
    /// Frozen mid-flight; `view_gen` is the newest snapshot generation
    /// the executor had seen before freezing — its stale view on wake.
    Stalled {
        until: u64,
        resume: Assignment,
        view_gen: u64,
    },
    Crashed {
        until: u64,
    },
}

/// Per-round fault draws for one executor (drawn unconditionally every
/// round so the RNG stream stays aligned across states).
#[derive(Debug, Clone, Copy)]
struct FaultDraws {
    kill: Option<u64>,
    stall: bool,
}

#[derive(Debug, Default)]
struct FleetMeta {
    crashes: u64,
    stalls: u64,
}

struct ActCtx<'a, F> {
    job: &'a FleetJob<'a>,
    store: &'a dyn ObjectStore,
    cfg: &'a FleetConfig,
    faults: &'a FleetFaultSpec,
    clock: &'a AtomicU64,
    tick: u64,
    total_legs: u32,
    sched: &'a LoopSchedule,
    make_backend: &'a F,
}

struct ExecutorSim<'a> {
    id: u32,
    seed: u64,
    rstore: RemoteStore<&'a dyn ObjectStore>,
    state: ExecState,
    stats: RunStats,
    /// Outputs of a completed run, awaiting result publish.
    pending_result: Option<Vec<Vec<f64>>>,
    /// Newest snapshot generation this machine has observed.
    last_seen_gen: u64,
    /// Stale-view cap consumed by the next slice (set on zombie wake).
    stale_view: Option<u64>,
    reboots: u64,
}

impl<'a> ExecutorSim<'a> {
    fn new(
        id: u32,
        seed: u64,
        store: &'a dyn ObjectStore,
        policy: &RemotePolicy,
    ) -> ExecutorSim<'a> {
        ExecutorSim {
            id,
            seed,
            rstore: RemoteStore::new(store, policy.clone(), splitmix64(seed ^ u64::from(id) << 8)),
            state: ExecState::Idle,
            stats: RunStats::default(),
            pending_result: None,
            last_seen_gen: 0,
            stale_view: None,
            reboots: 0,
        }
    }

    /// Folds the current store stack's remote telemetry into this
    /// executor's stats (call before discarding the stack, and once at
    /// the end of the run).
    fn bank_telemetry(&mut self) {
        if let Some(t) = self.rstore.remote_telemetry() {
            self.stats.remote.absorb(&t);
        }
    }

    fn go_idle(&mut self) {
        self.pending_result = None;
        self.state = ExecState::Idle;
    }

    /// Reboot after a crash: a fresh machine with empty memory — new
    /// store stack (fresh breaker/RNG), no view of prior snapshots or
    /// half-computed results.
    fn reboot<F>(&mut self, ctx: &ActCtx<'a, F>) {
        self.bank_telemetry();
        self.reboots += 1;
        self.rstore = RemoteStore::new(
            ctx.store,
            ctx.cfg.remote_policy.clone(),
            splitmix64(self.seed ^ (u64::from(self.id) << 8) ^ self.reboots),
        );
        self.last_seen_gen = 0;
        self.stale_view = None;
        self.go_idle();
    }

    /// One scheduler-round action.
    fn act<B: SnapshotBackend, F: Fn() -> B>(
        &mut self,
        ctx: &ActCtx<'a, F>,
        draws: FaultDraws,
        meta: &mut FleetMeta,
    ) {
        match std::mem::replace(&mut self.state, ExecState::Idle) {
            ExecState::Crashed { until } if ctx.tick < until => {
                self.state = ExecState::Crashed { until };
            }
            ExecState::Crashed { .. } => self.reboot(ctx),
            ExecState::Stalled {
                until,
                resume,
                view_gen,
            } if ctx.tick < until => {
                self.state = ExecState::Stalled {
                    until,
                    resume,
                    view_gen,
                };
            }
            ExecState::Stalled {
                resume, view_gen, ..
            } => {
                // Wake from the stall with the pre-stall view of the
                // store: if the lease expired meanwhile, this is now a
                // zombie and its next publish gets fenced.
                self.stale_view = Some(view_gen);
                self.step_running(resume, ctx, draws, meta);
            }
            ExecState::Idle => self.step_idle(ctx),
            ExecState::Running(a) => self.step_running(a, ctx, draws, meta),
        }
    }

    /// Probes the newest intact snapshot's global header index — the job
    /// frontier. `Err` means the store could not even be listed.
    fn probe_frontier<F>(&self, ctx: &ActCtx<'a, F>) -> Result<Option<u64>, ()> {
        let gens = self.rstore.generations().map_err(|_| ())?;
        for &g in gens.iter().rev() {
            if let Ok(bytes) = SnapshotStore::get(&self.rstore, g) {
                if let Some(p) = peek_snapshot_cursor(&ctx.job.function.name, &bytes)
                    .and_then(|(op, iter)| ctx.sched.header_index(op, iter))
                {
                    return Ok(Some(p));
                }
            }
        }
        Ok(None)
    }

    fn refresh_last_seen(&mut self) {
        if let Ok(gens) = self.rstore.generations() {
            if let Some(&g) = gens.last() {
                self.last_seen_gen = g;
            }
        }
    }

    fn step_idle<F>(&mut self, ctx: &ActCtx<'a, F>) {
        let Ok(frontier) = self.probe_frontier(ctx) else {
            return; // store unreachable — try again next tick
        };
        // The frontier header is *replayed* by the next resume, so the
        // leg containing it is the leg with work remaining.
        let next_header = frontier.unwrap_or(0);
        let leg_u64 = (next_header / ctx.cfg.leg_len).min(u64::from(ctx.total_legs) - 1);
        let leg = u32::try_from(leg_u64).expect("total_legs fits in u32");
        match try_claim(&self.rstore, leg, self.id, ctx.tick, ctx.cfg.lease_ticks) {
            ClaimOutcome::Claimed { lease, reassigned } => {
                self.stats.legs_claimed += 1;
                if reassigned {
                    self.stats.legs_reassigned += 1;
                }
                self.rstore.bump_generation_floor(lease.fence);
                let final_leg = leg_u64 == u64::from(ctx.total_legs) - 1;
                let target = if final_leg {
                    u64::MAX
                } else {
                    (leg_u64 + 1) * ctx.cfg.leg_len
                };
                self.state = ExecState::Running(Assignment {
                    leg,
                    epoch: lease.epoch,
                    target,
                });
            }
            ClaimOutcome::Held | ClaimOutcome::NotAcquired => {}
        }
    }

    fn step_running<B: SnapshotBackend, F: Fn() -> B>(
        &mut self,
        a: Assignment,
        ctx: &ActCtx<'a, F>,
        draws: FaultDraws,
        meta: &mut FleetMeta,
    ) {
        if draws.stall {
            meta.stalls += 1;
            self.state = ExecState::Stalled {
                until: ctx.tick + ctx.faults.stall_ticks.max(1),
                resume: a,
                view_gen: self.last_seen_gen,
            };
            return;
        }
        // A computed result awaiting publish (the previous attempt hit
        // an unreadable lease or store): retry before running anything.
        if self.pending_result.is_some() {
            self.publish_result(a, ctx);
            return;
        }

        // One execution slice: resume the full job (trip symbols bound
        // to the real iteration count — always) from the newest visible
        // snapshot, preempted after an ops quantum. An injected kill is
        // the same mechanism with a smaller budget; the leg-boundary
        // guard in the fenced store preempts as soon as the leg's
        // deliverable header is published.
        let stale = self.stale_view.take();
        let fenced = AtomicU64::new(0);
        let landed = AtomicU64::new(0);
        let tripped = AtomicBool::new(false);
        let backend = FaultInjectingBackend::new(
            (ctx.make_backend)(),
            FaultSpec::none(),
            splitmix64(self.seed ^ ctx.tick ^ (u64::from(self.id) << 32)),
        );
        let slice = ctx.cfg.slice_ops.max(1);
        backend.kill_after_ops(draws.kill.map_or(slice, |k| k.min(slice)));
        let run = {
            let on_boundary = || backend.kill_after_ops(0);
            let store = FencedStore {
                rstore: &self.rstore,
                lease_key: lease_key(a.leg),
                epoch: a.epoch,
                holder: self.id,
                clock: ctx.clock,
                cap: stale,
                fenced: &fenced,
                landed: &landed,
                function: &ctx.job.function.name,
                sched: ctx.sched,
                target: a.target,
                tripped: &tripped,
                on_boundary: &on_boundary,
            };
            // No in-memory checkpoint resumes: an injected kill surfaces
            // as a machine crash instead of being healed inside the run.
            let executor = Executor::new(&backend);
            let mut inputs = ctx.job.inputs.clone();
            for sym in ctx.job.trip_symbols {
                inputs = inputs.env(*sym, ctx.job.iters);
            }
            executor.resume(ctx.job.function, &inputs, &store)
        };
        self.stats.zombie_writes_fenced += fenced.load(Ordering::SeqCst);
        self.stats.snapshot_writes += landed.load(Ordering::SeqCst);
        let preempted = backend.report().killed_calls > 0;
        match run {
            Ok(mut out) => {
                // Ran to the end of the job: decrypted outputs in hand.
                // Its snapshot writes are already counted above.
                out.stats.snapshot_writes = 0;
                self.stats.absorb(&out.stats);
                self.pending_result = Some(out.outputs);
                self.refresh_last_seen();
                self.publish_result(a, ctx);
            }
            Err(_) if tripped.load(Ordering::SeqCst) => {
                // Leg boundary reached: the handoff snapshot is (modulo
                // store faults, which the next claimant heals) on the
                // store. Hand the leg off.
                self.refresh_last_seen();
                self.release(&a, ctx);
                self.go_idle();
            }
            Err(_) if draws.kill.is_none() && preempted => {
                // End of the time slice: keep the leg, resume next tick
                // from whatever snapshots this slice published.
                self.refresh_last_seen();
                self.renew(a, ctx);
            }
            Err(_) => {
                // The machine died mid-leg (injected kill or
                // unrecoverable backend state): all in-memory state is
                // gone until reboot.
                meta.crashes += 1;
                self.pending_result = None;
                self.state = ExecState::Crashed {
                    until: ctx.tick + ctx.cfg.reboot_ticks.max(1),
                };
            }
        }
    }

    /// Publishes the completed job result under the lease epoch —
    /// lease-checked like every other publish, so a zombie's stale
    /// result is fenced exactly like a stale snapshot.
    fn publish_result<F>(&mut self, a: Assignment, ctx: &ActCtx<'a, F>) {
        match lease_view(&self.rstore, &lease_key(a.leg), a.epoch, self.id, ctx.tick) {
            LeaseView::Mine => {
                let outputs = self.pending_result.as_ref().expect("checked by caller");
                let bytes = encode_result(a.epoch, outputs);
                if self.rstore.object_put(&result_key(a.epoch), &bytes).is_ok() {
                    self.release(&a, ctx);
                    self.go_idle();
                } else {
                    // Keep the computed outputs and retry next tick.
                    self.state = ExecState::Running(a);
                }
            }
            LeaseView::Lost => {
                self.stats.zombie_writes_fenced += 1;
                self.go_idle();
            }
            LeaseView::Unknown => self.state = ExecState::Running(a),
        }
    }

    /// Extends the lease if it is provably still ours; drops to idle if
    /// it is provably lost. An unknown lease state keeps the leg —
    /// fencing protects every write, so optimism is safe.
    fn renew<F>(&mut self, a: Assignment, ctx: &ActCtx<'a, F>) {
        match lease_view(&self.rstore, &lease_key(a.leg), a.epoch, self.id, ctx.tick) {
            LeaseView::Mine => {
                let rec = LeaseRecord {
                    leg: a.leg,
                    epoch: a.epoch,
                    holder: self.id,
                    granted_tick: ctx.tick,
                    expires_tick: ctx.tick + ctx.cfg.lease_ticks,
                    fence: a.epoch.saturating_mul(FENCE_STRIDE),
                };
                // A failed renewal is survivable: the lease may lapse,
                // but every subsequent write is still fenced.
                let _ = self
                    .rstore
                    .object_put(&lease_key(a.leg), &encode_lease(&rec));
                self.state = ExecState::Running(a);
            }
            LeaseView::Lost => self.go_idle(),
            LeaseView::Unknown => self.state = ExecState::Running(a),
        }
    }

    /// Deletes the lease record — only if it is still provably ours, so
    /// a release can never erase a successor's claim.
    fn release<F>(&mut self, a: &Assignment, ctx: &ActCtx<'a, F>) {
        if lease_view(&self.rstore, &lease_key(a.leg), a.epoch, self.id, ctx.tick)
            == LeaseView::Mine
        {
            let _ = self.rstore.object_delete(&lease_key(a.leg));
        }
    }
}

/// The coordinator: a pure observer whose whole state is rebuildable
/// from the store — it detects lease expiries (so operators see them)
/// and job completion, and survives restarts by construction.
struct CoordinatorSim<'a> {
    store: &'a dyn ObjectStore,
    policy: RemotePolicy,
    seed: u64,
    rstore: RemoteStore<&'a dyn ObjectStore>,
    /// Epochs whose expiry has been counted (advisory cache — wiped on
    /// restart, so expiry counts are at-least-once, not exactly-once).
    counted: HashSet<u64>,
    stats: RunStats,
    result: Option<(u64, Vec<Vec<f64>>)>,
    restarts: u64,
}

impl<'a> CoordinatorSim<'a> {
    fn new(store: &'a dyn ObjectStore, policy: RemotePolicy, seed: u64) -> CoordinatorSim<'a> {
        let rstore = RemoteStore::new(store, policy.clone(), splitmix64(seed ^ 0xC0C0));
        CoordinatorSim {
            store,
            policy,
            seed,
            rstore,
            counted: HashSet::new(),
            stats: RunStats::default(),
            result: None,
            restarts: 0,
        }
    }

    fn bank_telemetry(&mut self) {
        if let Some(t) = self.rstore.remote_telemetry() {
            self.stats.remote.absorb(&t);
        }
    }

    /// Process restart: every cache is wiped and the next
    /// [`CoordinatorSim::observe`] rebuilds the view from the store
    /// records alone.
    fn restart(&mut self) {
        self.bank_telemetry();
        self.restarts += 1;
        self.rstore = RemoteStore::new(
            self.store,
            self.policy.clone(),
            splitmix64(self.seed ^ 0xC0C0 ^ self.restarts),
        );
        self.counted.clear();
        self.result = None;
        self.stats.coordinator_resumes += 1;
    }

    /// One watchdog round: scan result records for completion (newest
    /// epoch wins; corrupt records are skipped and retried next round)
    /// and lease records for expiries.
    fn observe(&mut self, now: u64) {
        if self.result.is_none() {
            if let Ok(keys) = self.rstore.object_list(RESULT_PREFIX) {
                for key in keys.iter().rev() {
                    if let Ok(bytes) = self.rstore.object_get(key) {
                        if let Ok((epoch, outputs)) = decode_result(&bytes) {
                            self.result = Some((epoch, outputs));
                            break;
                        }
                    }
                }
            }
        }
        if let Ok(keys) = self.rstore.object_list(LEASE_PREFIX) {
            for key in keys {
                if let Ok(bytes) = self.rstore.object_get(&key) {
                    if let Ok(r) = decode_lease(&bytes) {
                        if now >= r.expires_tick && self.counted.insert(r.epoch) {
                            self.stats.leases_expired += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Runs one loop job across a simulated fleet of executors sharing
/// `store`, under the given fleet-level fault plan.
///
/// The simulation is deterministic in `(job, cfg, faults, seed)` and
/// whatever seed the shared store was built with: one scheduler round
/// per tick, coordinator first, then executors in id order, with all
/// fault draws from a seeded stream. Completion means an intact result
/// record exists; its outputs are returned along with aggregated fleet
/// telemetry.
///
/// # Errors
///
/// [`FleetError::BadConfig`] for an unusable job/config,
/// [`FleetError::TicksExhausted`] if no result record appears within
/// `cfg.max_ticks` rounds. Machine-level failures never error — they
/// are absorbed by reassignment and fencing.
pub fn run_fleet<B, F>(
    job: &FleetJob<'_>,
    store: &dyn ObjectStore,
    cfg: &FleetConfig,
    faults: &FleetFaultSpec,
    seed: u64,
    make_backend: F,
) -> Result<FleetReport, FleetError>
where
    B: SnapshotBackend,
    F: Fn() -> B,
{
    if job.iters == 0 {
        return Err(FleetError::BadConfig("job has zero iterations".into()));
    }
    if job.trip_symbols.is_empty() {
        return Err(FleetError::BadConfig(
            "job has no dynamic trip symbols — the fleet cannot bound legs".into(),
        ));
    }
    if cfg.executors == 0 || cfg.leg_len == 0 || cfg.lease_ticks == 0 || cfg.slice_ops == 0 {
        return Err(FleetError::BadConfig(
            "executors, leg_len, lease_ticks and slice_ops must be nonzero".into(),
        ));
    }
    let mut env = job.inputs.env_map().clone();
    for sym in job.trip_symbols {
        env.insert((*sym).to_string(), job.iters);
    }
    let sched = LoopSchedule::of(job.function, &env)
        .map_err(|sym| FleetError::BadConfig(format!("unbound trip symbol {sym:?}")))?;
    if sched.total_headers() == 0 {
        return Err(FleetError::BadConfig(
            "program publishes no loop headers under this trip — nothing to shard".into(),
        ));
    }
    let total_legs = u32::try_from(sched.total_headers().div_ceil(cfg.leg_len))
        .map_err(|_| FleetError::BadConfig("too many legs".into()))?;

    let clock = AtomicU64::new(0);
    let mut rng = splitmix64(seed ^ 0xF1EE_7000);
    let mut meta = FleetMeta::default();
    let mut coordinator = CoordinatorSim::new(store, cfg.remote_policy.clone(), seed);
    let mut executors: Vec<ExecutorSim<'_>> = (0..cfg.executors)
        .map(|id| ExecutorSim::new(id, seed, store, &cfg.remote_policy))
        .collect();

    let mut pending_stall = false;
    let mut pending_restart = false;
    for tick in 0..cfg.max_ticks {
        clock.store(tick, Ordering::SeqCst);
        let ctx = ActCtx {
            job,
            store,
            cfg,
            faults,
            clock: &clock,
            tick,
            total_legs,
            sched: &sched,
            make_backend: &make_backend,
        };

        // Coordinator phase.
        let restart_roll = unit_draw(&mut rng);
        if faults.scripted_restart_tick == Some(tick) {
            pending_restart = true;
        }
        if pending_restart
            || (faults.p_coord_restart > 0.0 && restart_roll < faults.p_coord_restart)
        {
            pending_restart = false;
            coordinator.restart();
        }
        coordinator.observe(tick);
        if let Some((final_epoch, outputs)) = coordinator.result.take() {
            coordinator.bank_telemetry();
            let mut stats = RunStats::default();
            stats.absorb(&coordinator.stats);
            for ex in &mut executors {
                ex.bank_telemetry();
                stats.absorb(&ex.stats);
            }
            return Ok(FleetReport {
                outputs,
                stats,
                ticks: tick,
                legs: total_legs,
                final_epoch,
                executor_crashes: meta.crashes,
                executor_stalls: meta.stalls,
            });
        }

        // Scripted zombie drill: freeze the first mid-leg holder until
        // one tick past its lease expiry — by then a successor holds the
        // leg (idle executors claim at the expiry tick, one tick before
        // the wake), so the zombie's first publish on wake is fenced.
        if faults.scripted_stall_tick == Some(tick) {
            pending_stall = true;
        }
        if pending_stall {
            let victim = executors
                .iter_mut()
                .find(|e| matches!(&e.state, ExecState::Running(_)));
            if let Some(ex) = victim {
                pending_stall = false;
                meta.stalls += 1;
                let ExecState::Running(a) = &ex.state else {
                    unreachable!("matched Running above");
                };
                let a = *a;
                let until = coordinator
                    .rstore
                    .object_get(&lease_key(a.leg))
                    .ok()
                    .and_then(|bytes| decode_lease(&bytes).ok())
                    .map_or(tick + cfg.lease_ticks + 2, |r| r.expires_tick + 1)
                    .max(tick + 1);
                ex.state = ExecState::Stalled {
                    until,
                    resume: a,
                    view_gen: ex.last_seen_gen,
                };
            }
        }

        // Executor phase (fault draws are unconditional per executor per
        // round, so the stream stays aligned regardless of state).
        for ex in &mut executors {
            let kill_roll = unit_draw(&mut rng);
            let ops_roll = unit_draw(&mut rng);
            let stall_roll = unit_draw(&mut rng);
            let draws = FaultDraws {
                kill: (faults.p_kill > 0.0 && kill_roll < faults.p_kill)
                    .then(|| 1 + (ops_roll * faults.kill_ops_max.max(1) as f64) as u64),
                stall: faults.p_stall > 0.0 && stall_roll < faults.p_stall,
            };
            ex.act(&ctx, draws, &mut meta);
        }
    }
    Err(FleetError::TicksExhausted {
        max_ticks: cfg.max_ticks,
    })
}

// ----------------------------------------------------------------------
// Tests.
// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{RemoteFaultSpec, SimObjectStore};

    fn healthy_store() -> SimObjectStore {
        SimObjectStore::new(RemoteFaultSpec::none(), 7)
    }

    fn rstore(sim: &SimObjectStore) -> RemoteStore<&SimObjectStore> {
        RemoteStore::new(sim, RemotePolicy::default(), 11)
    }

    fn lease(leg: u32, epoch: u64, holder: u32, expires: u64) -> LeaseRecord {
        LeaseRecord {
            leg,
            epoch,
            holder,
            granted_tick: expires.saturating_sub(4),
            expires_tick: expires,
            fence: epoch * FENCE_STRIDE,
        }
    }

    #[test]
    fn lease_codec_round_trips() {
        let r = lease(3, 17, 2, 42);
        let bytes = encode_lease(&r);
        assert_eq!(decode_lease(&bytes).unwrap(), r);
    }

    #[test]
    fn lease_codec_rejects_corruption() {
        let bytes = encode_lease(&lease(1, 2, 3, 10));
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_lease(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_lease(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn result_codec_round_trips() {
        let outputs = vec![vec![1.5, -0.0, f64::MIN_POSITIVE], vec![], vec![42.0]];
        let bytes = encode_result(9, &outputs);
        let (epoch, decoded) = decode_result(&bytes).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(decoded.len(), outputs.len());
        for (a, b) in decoded.iter().zip(&outputs) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn result_codec_rejects_corruption() {
        let bytes = encode_result(1, &[vec![3.25, 7.0]]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_result(&bad).is_err(), "flip at byte {i}");
        }
        assert!(decode_result(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn claim_confirm_hold_expire_reclaim() {
        let sim = healthy_store();
        let store = rstore(&sim);
        // Fresh leg: claimed under epoch 1, no prior record.
        let ClaimOutcome::Claimed { lease, reassigned } = try_claim(&store, 0, 7, 10, 4) else {
            panic!("fresh claim must succeed");
        };
        assert_eq!(lease.epoch, 1);
        assert_eq!(lease.expires_tick, 14);
        assert!(!reassigned);
        // Another executor: held while unexpired.
        assert_eq!(try_claim(&store, 0, 8, 12, 4), ClaimOutcome::Held);
        // The holder itself re-claims: adopted, not re-minted.
        assert!(matches!(
            try_claim(&store, 0, 7, 12, 4),
            ClaimOutcome::Claimed { reassigned: false, lease } if lease.epoch == 1
        ));
        // Expired: reassigned under a strictly higher epoch.
        let ClaimOutcome::Claimed { lease, reassigned } = try_claim(&store, 0, 8, 14, 4) else {
            panic!("expired leg must be reclaimable");
        };
        assert_eq!(lease.epoch, 2);
        assert!(reassigned);
    }

    #[test]
    fn epoch_watermark_spans_all_legs() {
        let sim = healthy_store();
        let store = rstore(&sim);
        sim.insert_raw(&lease_key(5), &encode_lease(&lease(5, 40, 1, 100)));
        let ClaimOutcome::Claimed { lease, .. } = try_claim(&store, 0, 2, 0, 4) else {
            panic!("claim of a free leg must succeed");
        };
        assert_eq!(lease.epoch, 41, "epoch must dominate every live lease");
    }

    #[test]
    fn torn_claim_is_never_half_acquired() {
        let spec = RemoteFaultSpec {
            torn_upload: 1.0,
            ..RemoteFaultSpec::none()
        };
        let sim = SimObjectStore::new(spec, 3);
        let store = rstore(&sim);
        assert_eq!(try_claim(&store, 0, 1, 0, 4), ClaimOutcome::NotAcquired);
        // Whatever the torn upload left behind must not decode as a
        // valid claim.
        for (key, bytes) in sim.objects() {
            if key.starts_with(LEASE_PREFIX) {
                assert!(decode_lease(&bytes).is_err(), "torn record decoded: {key}");
            }
        }
    }

    #[test]
    fn corrupt_record_is_claimable_but_unknown_ownership() {
        let sim = healthy_store();
        let store = rstore(&sim);
        sim.insert_raw(&lease_key(0), b"HALOLEASgarbage");
        let clock = AtomicU64::new(0);
        // Publish-time check: corrupt record = unknown, not a fence event.
        assert_eq!(
            lease_view(&store, &lease_key(0), 1, 0, clock.load(Ordering::SeqCst)),
            LeaseView::Unknown
        );
        // Claim-time: the corrupt record is claimable, and counts as a
        // reassignment (someone's claim was lost).
        assert!(matches!(
            try_claim(&store, 0, 4, 0, 4),
            ClaimOutcome::Claimed {
                reassigned: true,
                ..
            }
        ));
    }

    #[test]
    fn lease_view_trichotomy() {
        let sim = healthy_store();
        let store = rstore(&sim);
        let key = lease_key(2);
        sim.insert_raw(&key, &encode_lease(&lease(2, 5, 9, 20)));
        // Mine: matching epoch + holder, unexpired.
        assert_eq!(lease_view(&store, &key, 5, 9, 19), LeaseView::Mine);
        // Expired — even for the original holder — is Lost.
        assert_eq!(lease_view(&store, &key, 5, 9, 20), LeaseView::Lost);
        // Superseded epoch or foreign holder is Lost.
        assert_eq!(lease_view(&store, &key, 4, 9, 19), LeaseView::Lost);
        assert_eq!(lease_view(&store, &key, 5, 8, 19), LeaseView::Lost);
        // Deleted record is Lost.
        assert_eq!(lease_view(&store, &lease_key(3), 1, 1, 0), LeaseView::Lost);
        // Corrupt record is Unknown.
        sim.insert_raw(&key, &[1, 2, 3]);
        assert_eq!(lease_view(&store, &key, 5, 9, 19), LeaseView::Unknown);
    }

    #[test]
    fn fenced_store_caps_stale_views_and_fences_lost_leases() {
        let sim = healthy_store();
        let store = rstore(&sim);
        let clock = AtomicU64::new(0);
        let fenced = AtomicU64::new(0);
        let landed = AtomicU64::new(0);
        let sched = LoopSchedule {
            entries: vec![],
            total: 0,
        };
        let tripped = AtomicBool::new(false);
        let noop = || {};
        sim.insert_raw(&lease_key(0), &encode_lease(&lease(0, 1, 0, 10)));
        let fs = FencedStore {
            rstore: &store,
            lease_key: lease_key(0),
            epoch: 1,
            holder: 0,
            clock: &clock,
            cap: None,
            fenced: &fenced,
            landed: &landed,
            function: "f",
            sched: &sched,
            target: u64::MAX,
            tripped: &tripped,
            on_boundary: &noop,
        };
        let g1 = fs.put(b"one").unwrap();
        let g2 = fs.put(b"two").unwrap();
        assert!(g2 > g1);
        // A capped view hides generations published after the stall.
        let capped = FencedStore {
            cap: Some(g1),
            lease_key: lease_key(0),
            rstore: &store,
            epoch: 1,
            holder: 0,
            clock: &clock,
            fenced: &fenced,
            landed: &landed,
            function: "f",
            sched: &sched,
            target: u64::MAX,
            tripped: &tripped,
            on_boundary: &noop,
        };
        assert_eq!(capped.generations().unwrap(), vec![g1]);
        // Losing the lease fences the write and counts it.
        sim.insert_raw(&lease_key(0), &encode_lease(&lease(0, 2, 1, 10)));
        assert!(fs.put(b"stale").is_err());
        assert_eq!(fenced.load(Ordering::SeqCst), 1);
        // Lease expiry alone — same epoch, same holder — also fences.
        sim.insert_raw(&lease_key(0), &encode_lease(&lease(0, 1, 0, 10)));
        clock.store(10, Ordering::SeqCst);
        assert!(fs.put(b"expired").is_err());
        assert_eq!(fenced.load(Ordering::SeqCst), 2);
        // The fenced writes never reached the store, and only the writes
        // that landed were counted.
        assert_eq!(fs.generations().unwrap(), vec![g1, g2]);
        assert_eq!(landed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn generation_floor_separates_epoch_bands() {
        let sim = healthy_store();
        let store = rstore(&sim);
        let g = SnapshotStore::put(&store, b"old").unwrap();
        assert!(g < FENCE_STRIDE);
        store.bump_generation_floor(2 * FENCE_STRIDE);
        let g2 = SnapshotStore::put(&store, b"new").unwrap();
        assert!(g2 >= 2 * FENCE_STRIDE, "banded generation, got {g2}");
    }

    #[test]
    fn bad_configs_are_rejected() {
        use halo_ckks::{CkksParams, SimBackend};
        let func = Function::new("f", 8);
        let inputs = Inputs::new();
        let sim = healthy_store();
        let make = || SimBackend::exact(CkksParams::test_small());
        let job = FleetJob {
            function: &func,
            inputs: &inputs,
            trip_symbols: &["n"],
            iters: 0,
        };
        let err = run_fleet(
            &job,
            &sim,
            &FleetConfig::default(),
            &FleetFaultSpec::none(),
            1,
            make,
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::BadConfig(_)));
        let job = FleetJob {
            trip_symbols: &[],
            iters: 4,
            ..job
        };
        let err = run_fleet(
            &job,
            &sim,
            &FleetConfig::default(),
            &FleetFaultSpec::none(),
            1,
            make,
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::BadConfig(_)));
    }
}
