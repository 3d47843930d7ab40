//! The interpreter: runs a function over a CKKS backend.
//!
//! Beyond plain execution, the executor is *self-healing*: an
//! [`ExecPolicy`] can enable bounded retry with deterministic backoff for
//! transient backend faults, an emergency-bootstrap guard that absorbs
//! imminent level exhaustion (a compile-time placement bug or an injected
//! fault surfaces as telemetry in [`RunStats`] instead of a crash), and
//! checkpointing of the loop-carried values at every loop header so a
//! non-retryable fault resumes from the last completed iteration instead
//! of restarting the program. With [`ExecPolicy::default`] every recovery
//! mechanism is off and execution is bit-identical to the plain
//! interpreter.
//!
//! Every priced backend call goes through one choke point, which records
//! the op in [`RunStats`] at its modeled latency and issues the call under
//! the retry policy.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use halo_ckks::backend::{expand_to_slots, Backend, BackendError};
use halo_ckks::snapshot::SnapshotBackend;
use halo_ckks::{CostModel, CostedOp};
use halo_ir::analysis::rotation_fanouts;
use halo_ir::func::{BlockId, Function, OpId, ValueId};
use halo_ir::op::{ConstValue, Op, Opcode, TripCount};
use halo_ir::types::{CtType, Status, LEVEL_UNSET};

use crate::snapshot::{decode_snapshot, encode_snapshot, DecodedSnapshot};
use crate::stats::RunStats;
use crate::store::SnapshotStore;

/// A runtime value: a backend ciphertext or a plaintext slot vector.
/// Public so the `halo-snap/1` codec ([`crate::snapshot`]) can serialize
/// the executor's value environment.
#[derive(Clone)]
pub enum RtValue<C> {
    /// A backend ciphertext.
    Ct(C),
    /// A plaintext slot vector.
    Pt(Vec<f64>),
}

/// Program inputs: named cipher/plain vectors plus the trip-count symbol
/// environment.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    cipher: HashMap<String, Vec<f64>>,
    plain: HashMap<String, Vec<f64>>,
    env: HashMap<String, u64>,
}

impl Inputs {
    /// Empty inputs.
    #[must_use]
    pub fn new() -> Inputs {
        Inputs::default()
    }

    /// Binds an encrypted input.
    #[must_use]
    pub fn cipher(mut self, name: impl Into<String>, values: Vec<f64>) -> Inputs {
        self.cipher.insert(name.into(), values);
        self
    }

    /// Binds a plaintext input.
    #[must_use]
    pub fn plain(mut self, name: impl Into<String>, values: Vec<f64>) -> Inputs {
        self.plain.insert(name.into(), values);
        self
    }

    /// Binds a trip-count symbol (e.g. the dynamic iteration count).
    #[must_use]
    pub fn env(mut self, sym: impl Into<String>, value: u64) -> Inputs {
        self.env.insert(sym.into(), value);
        self
    }

    /// Read access to the symbol environment.
    #[must_use]
    pub fn env_map(&self) -> &HashMap<String, u64> {
        &self.env
    }

    /// The bound cipher input named `name`, if any.
    #[must_use]
    pub fn cipher_data(&self, name: &str) -> Option<&[f64]> {
        self.cipher.get(name).map(Vec::as_slice)
    }

    /// The bound plain input named `name`, if any.
    #[must_use]
    pub fn plain_data(&self, name: &str) -> Option<&[f64]> {
        self.plain.get(name).map(Vec::as_slice)
    }
}

/// A finished run: decrypted outputs plus statistics.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Decrypted output slot vectors, in `return` operand order.
    pub outputs: Vec<Vec<f64>>,
    /// Execution statistics.
    pub stats: RunStats,
}

/// The kind of a runtime failure (see [`ExecError`] for the full error
/// with op/block context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A named input or trip symbol was not provided.
    MissingInput(String),
    /// The backend rejected an op (level/scale violation — indicates a
    /// miscompiled program — or a transient fault that survived the retry
    /// budget). Carries the structured backend error.
    Backend(BackendError),
    /// The program is malformed (should have been caught by the verifier).
    Malformed(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingInput(n) => write!(f, "missing input or symbol: {n}"),
            RunError::Backend(m) => write!(f, "backend rejected op: {m}"),
            RunError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<BackendError> for RunError {
    fn from(e: BackendError) -> RunError {
        RunError::Backend(e)
    }
}

/// A structured runtime failure: the [`RunError`] kind plus the op, its
/// mnemonic, and the block the executor was evaluating when it failed.
///
/// Compares equal to a bare [`RunError`] of the same kind, so existing
/// call sites that assert on kinds keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// What went wrong.
    pub kind: RunError,
    /// The op being executed when the failure surfaced, if known.
    pub op: Option<OpId>,
    /// The mnemonic of that op.
    pub mnemonic: Option<&'static str>,
    /// The block containing that op.
    pub block: Option<BlockId>,
}

impl ExecError {
    /// Attaches op/block context unless an inner frame already did.
    fn contextualize(mut self, op: OpId, mnemonic: &'static str, block: BlockId) -> ExecError {
        if self.op.is_none() {
            self.op = Some(op);
            self.mnemonic = Some(mnemonic);
            self.block = Some(block);
        }
        self
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.op, self.mnemonic, self.block) {
            (Some(op), Some(m), Some(b)) => {
                write!(f, "op #{} ({m}) in block b{}: {}", op.0, b.0, self.kind)
            }
            _ => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.kind)
    }
}

impl From<RunError> for ExecError {
    fn from(kind: RunError) -> ExecError {
        ExecError {
            kind,
            op: None,
            mnemonic: None,
            block: None,
        }
    }
}

impl From<BackendError> for ExecError {
    fn from(e: BackendError) -> ExecError {
        ExecError::from(RunError::Backend(e))
    }
}

impl PartialEq<RunError> for ExecError {
    fn eq(&self, other: &RunError) -> bool {
        &self.kind == other
    }
}

impl PartialEq<ExecError> for RunError {
    fn eq(&self, other: &ExecError) -> bool {
        self == &other.kind
    }
}

/// Recovery policy for the executor. Every mechanism defaults to *off*:
/// a default-policy run performs exactly the same backend calls as the
/// plain interpreter (bit-identical outputs and stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Retry budget per backend call for [`BackendError::Transient`]
    /// faults. `0` fails fast on the first fault. Retry *k* charges a
    /// modeled `50 µs · 2^(k−1)` backoff to [`RunStats::retry_backoff_us`]:
    /// the delay is accounted, not slept, so runs stay deterministic and
    /// fast.
    pub max_retries: u32,
    /// Noise-budget guard: when a multiply (or a modswitch) is about to
    /// exhaust the operand's remaining levels, or binary operands arrive
    /// at mismatched levels, repair the operands with an emergency
    /// bootstrap / level-aligning modswitch instead of failing. Each
    /// repair is a *degradation event* in [`RunStats`].
    pub emergency_bootstrap: bool,
    /// Checkpoint resumes allowed per loop. A nonzero budget checkpoints
    /// the loop-carried values at every loop header; a non-retryable
    /// backend fault inside the loop body then resumes from the last
    /// checkpoint instead of aborting the program. `0` takes no
    /// checkpoints.
    pub max_resumes: u32,
}

impl ExecPolicy {
    /// A production-style policy with every recovery mechanism enabled:
    /// 4 retries, the emergency-bootstrap guard, and a checkpoint at every
    /// loop header with up to 32 resumes.
    #[must_use]
    pub fn resilient() -> ExecPolicy {
        ExecPolicy {
            max_retries: 4,
            emergency_bootstrap: true,
            max_resumes: 32,
        }
    }
}

/// Base of the modeled exponential retry backoff, in microseconds.
const BACKOFF_US: f64 = 50.0;

/// Upper bound on repair rounds per guard site: under fault injection an
/// emergency bootstrap's own result can be corrupted again, so the guards
/// re-check and re-repair — but never unboundedly.
const MAX_HEAL_ATTEMPTS: u32 = 4;

/// Serializes one `halo-snap/1` blob for the current program state: the
/// loop op, the iteration about to run, the value environment and the
/// carried values.
type Encode<'a, C> = &'a dyn Fn(OpId, u64, &HashMap<ValueId, RtValue<C>>, &[RtValue<C>]) -> Vec<u8>;

/// Where a durable run persists its loop-header snapshots. Built only by
/// the [`SnapshotBackend`]-bounded entry points — the `encode` closure
/// captures the concrete backend there, so the generic `Backend` interior
/// of the executor never needs the stronger bound.
struct Durable<'a, C> {
    store: &'a dyn SnapshotStore,
    encode: Encode<'a, C>,
}

/// Whether a snapshot's loop op is a structurally valid resume target for
/// `f`: an existing `for` op of the entry block whose carried-value count
/// matches. Anything else means the snapshot belongs to a different (or
/// corrupted) program and is skipped like a checksum failure.
fn loop_op_resumable<C>(f: &Function, snap: &DecodedSnapshot<C>) -> bool {
    let Some(op) = f.try_op(snap.loop_op) else {
        return false;
    };
    if !matches!(op.opcode, Opcode::For { .. }) || op.operands.len() != snap.carried.len() {
        return false;
    }
    f.try_block(f.entry)
        .is_some_and(|b| b.ops.contains(&snap.loop_op))
}

/// The interpreter. Borrows a backend *shared*; create one per program
/// run or reuse across runs (keys and noise state persist in the backend
/// behind its interior mutability). Because ops take `&self` end to end,
/// several executors can drive one backend concurrently.
pub struct Executor<'b, B: Backend> {
    backend: &'b B,
    cost: CostModel,
    policy: ExecPolicy,
}

impl<'b, B: Backend> Executor<'b, B> {
    /// Wraps a backend with recovery disabled ([`ExecPolicy::default`]).
    pub fn new(backend: &'b B) -> Executor<'b, B> {
        Executor::with_policy(backend, ExecPolicy::default())
    }

    /// Wraps a backend with an explicit recovery policy.
    pub fn with_policy(backend: &'b B, policy: ExecPolicy) -> Executor<'b, B> {
        Executor {
            backend,
            cost: CostModel::new(),
            policy,
        }
    }

    /// Runs `f` with the given inputs.
    ///
    /// # Errors
    ///
    /// See [`ExecError`] / [`RunError`]. With recovery enabled, transient
    /// backend faults are retried and loop failures resume from the last
    /// checkpoint before an error is surfaced.
    pub fn run(&self, f: &Function, inputs: &Inputs) -> Result<RunOutput, ExecError> {
        Run::new(self, f, inputs, None).finish()
    }
}

/// Durable execution: available when the backend supports ciphertext and
/// RNG-state serialization ([`SnapshotBackend`] — both shipped backends
/// and the fault decorator do).
impl<B: SnapshotBackend> Executor<'_, B> {
    /// Runs `f` with durable snapshots: every top-level loop-header
    /// crossing persists a `halo-snap/1` checkpoint to `store` (a
    /// [`crate::store::DiskStore`], a [`crate::store::MemStore`], a
    /// remote…). Outputs are identical to [`Executor::run`] under the same
    /// policy — the snapshots are pure observers; only the durable
    /// telemetry in [`RunStats`] differs.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`]. Individual snapshot-write failures are
    /// tolerated (the generation is skipped).
    pub fn run_durable(
        &self,
        f: &Function,
        inputs: &Inputs,
        store: &dyn SnapshotStore,
    ) -> Result<RunOutput, ExecError> {
        self.run_with_store(f, inputs, store, false)
    }

    /// Resumes a killed durable run from `store`.
    ///
    /// Generations are scanned newest-first; the first one that passes
    /// checksum verification, structural validation against `f`, and RNG
    /// restoration wins. Corrupt generations (truncated file, flipped
    /// bit, foreign snapshot) are counted in
    /// [`RunStats::corrupt_snapshots_skipped`] and skipped. If no usable
    /// generation exists — including an empty store — the run starts
    /// fresh, so `resume` is always safe to call. The resumed run keeps
    /// persisting new snapshots as it progresses.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn resume(
        &self,
        f: &Function,
        inputs: &Inputs,
        store: &dyn SnapshotStore,
    ) -> Result<RunOutput, ExecError> {
        self.run_with_store(f, inputs, store, true)
    }

    /// The one durable run behind both entry points: restores the newest
    /// usable generation when `resume` is set, runs with `store` as the
    /// snapshot sink, and folds the store's remote-telemetry delta into
    /// the stats (a no-op for stores without a remote).
    fn run_with_store(
        &self,
        f: &Function,
        inputs: &Inputs,
        store: &dyn SnapshotStore,
        resume: bool,
    ) -> Result<RunOutput, ExecError> {
        let remote_before = store.remote_telemetry();
        let encode = |loop_op: OpId,
                      iter: u64,
                      values: &HashMap<ValueId, RtValue<B::Ct>>,
                      carried: &[RtValue<B::Ct>]| {
            encode_snapshot(self.backend, &f.name, loop_op, iter, values, carried)
        };
        let mut run = Run::new(
            self,
            f,
            inputs,
            Some(Durable {
                store,
                encode: &encode,
            }),
        );
        if resume {
            // A store we cannot even list is the resume-time analogue of a
            // failed snapshot write: durability degrades (fresh start,
            // counted in `resume_list_failures`), the run never aborts.
            let gens = store.generations().unwrap_or_else(|_| {
                run.stats.resume_list_failures += 1;
                Vec::new()
            });
            let restored = gens.iter().rev().find_map(|&g| {
                let usable = store
                    .get(g)
                    .ok()
                    .and_then(|bytes| decode_snapshot(self.backend, &f.name, &bytes).ok())
                    .filter(|snap| loop_op_resumable(f, snap))
                    // RNG restoration is all-or-nothing: a failed load
                    // leaves the backend untouched, so the generation can
                    // be skipped.
                    .filter(|snap| snap.apply_rng(self.backend).is_ok());
                if usable.is_none() {
                    run.stats.corrupt_snapshots_skipped += 1;
                }
                usable
            });
            // Nothing usable (e.g. killed before the first snapshot, or
            // every generation corrupt) starts over from scratch.
            if let Some(mut snap) = restored {
                run.stats.resumes_from_disk += 1;
                run.values = std::mem::take(&mut snap.values);
                run.resume = Some(snap);
            }
        }
        let mut out = run.finish()?;
        if let Some(after) = store.remote_telemetry() {
            out.stats
                .remote
                .absorb(&after.delta(&remote_before.unwrap_or_default()));
        }
        Ok(out)
    }
}

/// The level an `input`/`encrypt` result is encrypted at: its typed
/// level, or the parameter maximum for an untyped program.
fn encrypt_level<B: Backend>(be: &B, ty: CtType) -> u32 {
    match ty.level {
        LEVEL_UNSET => be.params().max_level,
        l => l,
    }
}

/// One run of one function: everything the run mutates, with the
/// interpreter, the recovery guards and the durable hooks as methods.
struct Run<'r, B: Backend> {
    exec: &'r Executor<'r, B>,
    f: &'r Function,
    inputs: &'r Inputs,
    values: HashMap<ValueId, RtValue<B::Ct>>,
    stats: RunStats,
    /// A restored snapshot whose loop the run re-enters: the entry block
    /// fast-forwards to its loop op, and that loop's header takes it.
    resume: Option<DecodedSnapshot<B::Ct>>,
    /// The snapshot sink of a durable run. Only *top-level* loops (ops of
    /// the entry block) write to it: a nested loop's state is
    /// reconstructed by re-running its enclosing iteration, which the
    /// enclosing loop's snapshot already covers.
    durable: Option<Durable<'r, B::Ct>>,
    /// Loop nesting depth of the block being run (0 = the entry block).
    depth: u32,
}

impl<'r, B: Backend> Run<'r, B> {
    fn new(
        exec: &'r Executor<'r, B>,
        f: &'r Function,
        inputs: &'r Inputs,
        durable: Option<Durable<'r, B::Ct>>,
    ) -> Run<'r, B> {
        Run {
            exec,
            f,
            inputs,
            values: HashMap::new(),
            stats: RunStats::default(),
            resume: None,
            durable,
            depth: 0,
        }
    }

    /// Runs the entry block and decrypts the returned values.
    fn finish(mut self) -> Result<RunOutput, ExecError> {
        let f = self.f;
        self.run_block(f.entry)?;
        let term = f
            .terminator(f.entry)
            .ok_or_else(|| ExecError::from(RunError::Malformed("missing return".into())))?;
        let ret = f
            .try_op(term)
            .ok_or_else(|| ExecError::from(dangling_op(term)))?;
        let values = std::mem::take(&mut self.values);
        let mut outputs = Vec::new();
        for &v in &ret.operands {
            match values.get(&v) {
                Some(RtValue::Ct(c)) => {
                    outputs.push(self.call("decrypt", 0, 0.0, |be| be.decrypt(c))?)
                }
                Some(RtValue::Pt(p)) => outputs.push(p.clone()),
                None => {
                    return Err(ExecError::from(RunError::Malformed(format!(
                        "output {v} never computed"
                    ))))
                }
            }
        }
        Ok(RunOutput {
            outputs,
            stats: self.stats,
        })
    }

    fn be(&self) -> &'r B {
        self.exec.backend
    }

    fn price(&self, op: CostedOp) -> f64 {
        self.exec.cost.latency_us(op)
    }

    /// The choke point of every backend call: records `count` ops named
    /// `mnemonic` at `us` modeled µs each (0 for the unpriced input
    /// encryptions and output decryptions), then issues the call under the
    /// retry policy: transient faults are counted, charged deterministic
    /// exponential backoff, and re-issued up to
    /// [`ExecPolicy::max_retries`] times.
    fn call<T>(
        &mut self,
        mnemonic: &'static str,
        count: u32,
        us: f64,
        op: impl Fn(&B) -> Result<T, BackendError>,
    ) -> Result<T, ExecError> {
        for _ in 0..count {
            self.stats.record(mnemonic, us, mnemonic == "bootstrap");
        }
        let be = self.be();
        let mut attempt = 0u32;
        loop {
            match op(be) {
                Err(e) if e.is_transient() => {
                    self.stats.transient_faults += 1;
                    if attempt >= self.exec.policy.max_retries {
                        return Err(ExecError::from(e));
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    // 2^(attempt-1), capped to keep the modeled delay sane.
                    let backoff = BACKOFF_US * f64::from(1u32 << (attempt - 1).min(16));
                    self.stats.retry_backoff_us += backoff;
                    self.stats.total_us += backoff;
                }
                r => return r.map_err(ExecError::from),
            }
        }
    }

    fn lookup(&self, v: ValueId) -> Result<RtValue<B::Ct>, ExecError> {
        self.values.get(&v).cloned().ok_or_else(|| {
            ExecError::from(RunError::Malformed(format!(
                "value {v} used before computed"
            )))
        })
    }

    // ------------------------------------------------------------------
    // Recovery guards
    // ------------------------------------------------------------------

    /// Emergency rescale: normalize a pending-rescale (degree-2) value so
    /// it can be bootstrapped or degree-matched, recording a degradation
    /// event. The plan's own later rescale of the value then passes
    /// through as a no-op (see the `Rescale` arm).
    fn emergency_rescale(&mut self, x: &B::Ct) -> Result<B::Ct, ExecError> {
        let us = self.price(CostedOp::Rescale {
            level: self.be().level(x),
        });
        let r = self.call("rescale", 1, us, |be| be.rescale(x))?;
        self.stats.emergency_rescales += 1;
        Ok(r)
    }

    /// Emergency bootstrap: restore a ciphertext to the parameter
    /// maximum level, recording a degradation event.
    fn emergency_bootstrap(&mut self, x: &B::Ct) -> Result<B::Ct, ExecError> {
        let target = self.be().params().max_level;
        let us = self.price(CostedOp::Bootstrap { target });
        let r = self.call("bootstrap", 1, us, |be| be.bootstrap(x, target))?;
        self.stats.emergency_bootstraps += 1;
        Ok(r)
    }

    /// Noise-budget guard for unary consumers: if `x` sits below `need`
    /// levels (imminent `LevelExhausted`), bootstrap it back up. A
    /// pending-rescale (degree-2) value cannot be bootstrapped directly,
    /// so it is first normalized with an emergency rescale — the plan's
    /// own later rescale of that value then passes through as a no-op
    /// (see the `Rescale` arm). The repair is re-checked and re-issued up
    /// to [`MAX_HEAL_ATTEMPTS`] times, because under fault injection the
    /// repair's own result can be corrupted again.
    fn guard_level(&mut self, mut x: B::Ct, need: u32) -> Result<B::Ct, ExecError> {
        if !self.exec.policy.emergency_bootstrap {
            return Ok(x);
        }
        let be = self.be();
        let mut tries = 0;
        while be.level(&x) < need && tries < MAX_HEAL_ATTEMPTS {
            if be.degree(&x) == 2 {
                if be.level(&x) == 0 {
                    return Ok(x); // unrescalable: let the op fail naturally
                }
                x = self.emergency_rescale(&x)?;
            }
            x = self.emergency_bootstrap(&x)?;
            tries += 1;
        }
        Ok(x)
    }

    /// Noise-budget guard for binary ops: realign mismatched operand
    /// levels with a modswitch (degradation event), and — for
    /// level-consuming ops — bootstrap both operands if the shared level
    /// is exhausted. Bounded like [`Run::guard_level`]: each repair can
    /// itself be corrupted, so re-check until healthy or the attempt
    /// budget runs out (the op then fails with its natural error).
    fn guard_pair(
        &mut self,
        mut x: B::Ct,
        mut y: B::Ct,
        consumes_level: bool,
    ) -> Result<(B::Ct, B::Ct), ExecError> {
        if !self.exec.policy.emergency_bootstrap {
            return Ok((x, y));
        }
        let be = self.be();
        let healthy = |lx: u32, ly: u32| lx == ly && (!consumes_level || lx >= 1);
        let mut tries = 0;
        loop {
            // Degree harmonization first: an emergency repair upstream may
            // have normalized one side of a pending-rescale pair early.
            // Rescale the still-pending side to match (its own planned
            // rescale then passes through as a no-op).
            let (dx, dy) = (be.degree(&x), be.degree(&y));
            if dx != dy && tries < MAX_HEAL_ATTEMPTS {
                let pending = if dx == 2 { &x } else { &y };
                if be.level(pending) == 0 {
                    return Ok((x, y)); // unrescalable: let the op fail naturally
                }
                tries += 1;
                if dx == 2 {
                    x = self.emergency_rescale(&x)?;
                } else {
                    y = self.emergency_rescale(&y)?;
                }
                continue;
            }
            let (lx, ly) = (be.level(&x), be.level(&y));
            if healthy(lx, ly) || tries >= MAX_HEAL_ATTEMPTS {
                return Ok((x, y));
            }
            tries += 1;
            if lx != ly {
                let down = lx.abs_diff(ly);
                let us = self.exec.cost.modswitch_chain_us(lx.max(ly), down);
                if lx > ly {
                    x = self.call("modswitch", 1, us, |be| be.modswitch(&x, down))?;
                } else {
                    y = self.call("modswitch", 1, us, |be| be.modswitch(&y, down))?;
                }
                self.stats.level_aligns += 1;
            } else if be.degree(&x) == 1 {
                x = self.emergency_bootstrap(&x)?;
                y = self.emergency_bootstrap(&y)?;
            } else {
                return Ok((x, y));
            }
        }
    }

    // ------------------------------------------------------------------
    // Program execution
    // ------------------------------------------------------------------

    fn run_block(&mut self, block: BlockId) -> Result<(), ExecError> {
        let f = self.f;
        let blk = f
            .try_block(block)
            .ok_or_else(|| ExecError::from(dangling_block(block)))?;
        // Rotation-hoisting peephole: rotations fanning out from one SSA
        // value execute as a single `rotate_batch`, sharing the digit
        // decomposition. Groups are recomputed per call so loop bodies
        // re-batch on every iteration.
        let hoist: HashMap<OpId, Vec<OpId>> = rotation_fanouts(f, block)
            .into_iter()
            .map(|g| (g[0], g))
            .collect();
        let mut done: HashSet<OpId> = HashSet::new();
        for &op_id in &blk.ops {
            if done.remove(&op_id) {
                continue; // already served by an earlier batch this pass
            }
            // Resuming from a snapshot: the restored value environment
            // already holds every result computed before the snapshot's
            // loop header, so fast-forward to the target loop op.
            if self.resume.as_ref().is_some_and(|s| s.loop_op != op_id) {
                continue;
            }
            let op = f
                .try_op(op_id)
                .ok_or_else(|| ExecError::from(dangling_op(op_id)))?;
            let context = |e: ExecError| e.contextualize(op_id, op.opcode.mnemonic(), block);
            if let Some(group) = hoist.get(&op_id) {
                if self.exec_rotate_group(group).map_err(context)? {
                    done.extend(group.iter().skip(1).copied());
                    continue;
                }
            }
            self.exec_op(op_id, op).map_err(context)?;
        }
        Ok(())
    }

    /// Executes one rotation fan-out group through
    /// [`Backend::rotate_batch`], amortizing the hoisted decomposition
    /// across the whole group in both the backend and the cost model.
    ///
    /// Returns `Ok(false)` (caller falls back to per-op execution) when
    /// the group turns out not to be batchable: the source is a plaintext
    /// or not yet computed, or an op is not a ciphertext rotation.
    fn exec_rotate_group(&mut self, group: &[OpId]) -> Result<bool, ExecError> {
        let mut offsets = Vec::with_capacity(group.len());
        let mut results = Vec::with_capacity(group.len());
        let mut src = None;
        for &id in group {
            let op = self
                .f
                .try_op(id)
                .ok_or_else(|| ExecError::from(dangling_op(id)))?;
            let Opcode::Rotate { offset } = op.opcode else {
                return Ok(false);
            };
            src = Some(operand(op, 0)?);
            offsets.push(offset);
            results.push(result(op, 0)?);
        }
        let Some(src) = src else { return Ok(false) };
        let Some(RtValue::Ct(x)) = self.values.get(&src) else {
            return Ok(false); // plaintext (or missing) source: no key switch to hoist
        };
        let x = x.clone();
        let level = self.be().level(&x);
        let k = offsets.len() as u32;
        let batch_us = self.exec.cost.rotate_batch_us(level, k);
        let single_us = self.price(CostedOp::Rotate { level });
        // Each rotation stays visible in op_counts; the amortized price is
        // spread evenly across the group.
        let outs = self.call("rotate", k, batch_us / f64::from(k), |be| {
            be.rotate_batch(&x, &offsets)
        })?;
        if outs.len() != results.len() {
            return Err(ExecError::from(RunError::Malformed(format!(
                "rotate_batch returned {} results for {} offsets",
                outs.len(),
                results.len()
            ))));
        }
        self.stats.hoisted_batches += 1;
        self.stats.hoisted_rotations += u64::from(k);
        self.stats.hoist_saved_us += (single_us * f64::from(k) - batch_us).max(0.0);
        for (r, ct) in results.into_iter().zip(outs) {
            self.values.insert(r, RtValue::Ct(ct));
        }
        Ok(true)
    }

    /// A ciphertext operand, or a [`RunError::Malformed`] naming `what`.
    fn cipher(&self, op: &Op, i: usize, what: &str) -> Result<B::Ct, ExecError> {
        match self.lookup(operand(op, i)?)? {
            RtValue::Ct(x) => Ok(x),
            RtValue::Pt(_) => Err(ExecError::from(RunError::Malformed(format!(
                "{} {what}",
                op.opcode.mnemonic()
            )))),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_op(&mut self, op_id: OpId, op: &Op) -> Result<(), ExecError> {
        let be = self.be();
        let f = self.f;
        let slots = be.params().slots();
        let mnemonic = op.opcode.mnemonic();
        let rt = match &op.opcode {
            Opcode::Input { name } => {
                let r = result(op, 0)?;
                let ty = f
                    .try_ty(r)
                    .ok_or_else(|| ExecError::from(dangling_value(r)))?;
                let bound = if ty.status == Status::Cipher {
                    &self.inputs.cipher
                } else {
                    &self.inputs.plain
                };
                let data = bound
                    .get(name)
                    .ok_or_else(|| ExecError::from(RunError::MissingInput(name.clone())))?;
                if ty.status == Status::Cipher {
                    let level = encrypt_level(be, ty);
                    RtValue::Ct(self.call(mnemonic, 0, 0.0, |be| be.encrypt(data, level))?)
                } else {
                    RtValue::Pt(expand_to_slots(data, slots)?.into_owned())
                }
            }
            Opcode::Const(c) => {
                let data = match c {
                    ConstValue::Splat(x) => vec![*x; slots],
                    ConstValue::Vector(v) => expand_to_slots(v, slots)?.into_owned(),
                    ConstValue::Mask { lo, hi } => (0..slots)
                        .map(|i| if i >= *lo && i < *hi { 1.0 } else { 0.0 })
                        .collect(),
                };
                self.stats
                    .record(mnemonic, self.price(CostedOp::Encode), false);
                RtValue::Pt(data)
            }
            Opcode::AddCC | Opcode::SubCC | Opcode::MultCC => {
                let a = self.lookup(operand(op, 0)?)?;
                let b = self.lookup(operand(op, 1)?)?;
                match (a, b) {
                    (RtValue::Ct(x), RtValue::Ct(y)) => {
                        let mult = matches!(op.opcode, Opcode::MultCC);
                        let (x, y) = self.guard_pair(x, y, mult)?;
                        let level = be.level(&x);
                        RtValue::Ct(match op.opcode {
                            Opcode::MultCC => {
                                let us = self.price(CostedOp::MultCC { level });
                                self.call(mnemonic, 1, us, |be| be.mult(&x, &y))?
                            }
                            Opcode::SubCC => {
                                let us = self.price(CostedOp::AddCC { level });
                                self.call(mnemonic, 1, us, |be| be.sub(&x, &y))?
                            }
                            _ => {
                                let us = self.price(CostedOp::AddCC { level });
                                self.call(mnemonic, 1, us, |be| be.add(&x, &y))?
                            }
                        })
                    }
                    // Plain–plain arithmetic folds at runtime.
                    (RtValue::Pt(x), RtValue::Pt(y)) => RtValue::Pt(
                        x.iter()
                            .zip(&y)
                            .map(|(a, b)| match op.opcode {
                                Opcode::MultCC => a * b,
                                Opcode::SubCC => a - b,
                                _ => a + b,
                            })
                            .collect(),
                    ),
                    _ => {
                        return Err(ExecError::from(RunError::Malformed(format!(
                            "{mnemonic} with mixed plain/cipher operands"
                        ))))
                    }
                }
            }
            Opcode::AddCP | Opcode::SubCP | Opcode::MultCP => {
                let x = self.cipher(op, 0, "cipher operand is plain")?;
                let RtValue::Pt(p) = self.lookup(operand(op, 1)?)? else {
                    return Err(ExecError::from(RunError::Malformed(format!(
                        "{mnemonic} plain operand is cipher"
                    ))));
                };
                RtValue::Ct(if matches!(op.opcode, Opcode::MultCP) {
                    let x = self.guard_level(x, 1)?;
                    let us = self.price(CostedOp::MultCP {
                        level: be.level(&x),
                    });
                    self.call(mnemonic, 1, us, |be| be.mult_plain(&x, &p))?
                } else {
                    let us = self.price(CostedOp::AddCP {
                        level: be.level(&x),
                    });
                    if matches!(op.opcode, Opcode::SubCP) {
                        self.call(mnemonic, 1, us, |be| be.sub_plain(&x, &p))?
                    } else {
                        self.call(mnemonic, 1, us, |be| be.add_plain(&x, &p))?
                    }
                })
            }
            Opcode::Negate => match self.lookup(operand(op, 0)?)? {
                RtValue::Ct(x) => {
                    let us = self.price(CostedOp::Negate {
                        level: be.level(&x),
                    });
                    RtValue::Ct(self.call(mnemonic, 1, us, |be| be.negate(&x))?)
                }
                RtValue::Pt(v) => RtValue::Pt(v.iter().map(|x| -x).collect()),
            },
            Opcode::Rotate { offset } => match self.lookup(operand(op, 0)?)? {
                RtValue::Ct(x) => {
                    let us = self.price(CostedOp::Rotate {
                        level: be.level(&x),
                    });
                    RtValue::Ct(self.call(mnemonic, 1, us, |be| be.rotate(&x, *offset))?)
                }
                RtValue::Pt(v) if v.is_empty() => RtValue::Pt(v),
                RtValue::Pt(v) => {
                    let s = offset.rem_euclid(v.len() as i64) as usize;
                    RtValue::Pt((0..v.len()).map(|i| v[(i + s) % v.len()]).collect())
                }
            },
            Opcode::Rescale => {
                let x = self.cipher(op, 0, "of plaintext")?;
                // An emergency repair (`guard_level`) may have rescaled
                // this value already; the planned rescale is then a no-op.
                if self.exec.policy.emergency_bootstrap && be.degree(&x) == 1 {
                    RtValue::Ct(x)
                } else {
                    let us = self.price(CostedOp::Rescale {
                        level: be.level(&x),
                    });
                    RtValue::Ct(self.call(mnemonic, 1, us, |be| be.rescale(&x))?)
                }
            }
            Opcode::ModSwitch { down } => {
                let x = self.cipher(op, 0, "of plaintext")?;
                // A pending-rescale (degree-2) operand needs one level
                // beyond the switch itself, or its rescale can never fire.
                let need = *down + u32::from(be.degree(&x) == 2);
                let x = self.guard_level(x, need)?;
                let us = self.exec.cost.modswitch_chain_us(be.level(&x), *down);
                RtValue::Ct(self.call(mnemonic, 1, us, |be| be.modswitch(&x, *down))?)
            }
            Opcode::Bootstrap { target } => {
                let x = self.cipher(op, 0, "of plaintext")?;
                let us = self.price(CostedOp::Bootstrap { target: *target });
                RtValue::Ct(self.call(mnemonic, 1, us, |be| be.bootstrap(&x, *target))?)
            }
            Opcode::For { trip, body, .. } => return self.run_loop(op_id, op, trip, *body),
            Opcode::Encrypt => {
                let RtValue::Pt(v) = self.lookup(operand(op, 0)?)? else {
                    return Err(ExecError::from(RunError::Malformed(
                        "encrypt of a ciphertext".into(),
                    )));
                };
                let r = result(op, 0)?;
                let ty = f
                    .try_ty(r)
                    .ok_or_else(|| ExecError::from(dangling_value(r)))?;
                let level = encrypt_level(be, ty);
                let us = self.price(CostedOp::Encode);
                RtValue::Ct(self.call(mnemonic, 1, us, |be| be.encrypt(&v, level))?)
            }
            Opcode::Yield | Opcode::Return => return Ok(()),
        };
        self.values.insert(result(op, 0)?, rt);
        Ok(())
    }

    /// Executes a `for` loop, checkpointing the carried values at every
    /// loop header when the policy allows resumes, and resuming from the
    /// last checkpoint when an iteration dies to a non-retryable backend
    /// fault. In a durable run, top-level loop headers additionally
    /// persist `halo-snap/1` snapshots to the store, and a pending resume
    /// point re-enters the loop at its saved iteration.
    fn run_loop(
        &mut self,
        op_id: OpId,
        op: &Op,
        trip: &TripCount,
        body: BlockId,
    ) -> Result<(), ExecError> {
        let n = trip
            .eval(&self.inputs.env)
            .map_err(|s| ExecError::from(RunError::MissingInput(s)))?;
        let f = self.f;
        let args = &f
            .try_block(body)
            .ok_or_else(|| ExecError::from(dangling_block(body)))?
            .args;
        let mut carried: Vec<RtValue<B::Ct>> = op
            .operands
            .iter()
            .map(|&v| self.lookup(v))
            .collect::<Result<_, _>>()?;
        if args.len() != carried.len() {
            return Err(ExecError::from(RunError::Malformed(format!(
                "loop binds {} init values to {} block args",
                carried.len(),
                args.len()
            ))));
        }

        let mut checkpoint: Option<(u64, Vec<RtValue<B::Ct>>)> = None;
        let mut resumes_left = self.exec.policy.max_resumes;
        let mut i = 0u64;
        // A pending resume point for *this* loop re-enters at the saved
        // iteration with the saved carried values. The header it resumes
        // at is not re-persisted — the store already holds it.
        let mut last_persisted: Option<u64> = None;
        if let Some(snap) = self.resume.take_if(|s| s.loop_op == op_id) {
            i = snap.iter.min(n);
            carried = snap.carried;
            last_persisted = Some(snap.iter);
        }
        while i < n {
            if self.exec.policy.max_resumes > 0
                && checkpoint.as_ref().is_none_or(|(at, _)| *at != i)
            {
                // Snapshot the carried environment at the loop header.
                // Cost model: one encode-equivalent per carried ciphertext
                // (serializing a ciphertext is an encode-sized memcpy).
                let cts = carried
                    .iter()
                    .filter(|c| matches!(c, RtValue::Ct(_)))
                    .count();
                let us = cts as f64 * self.price(CostedOp::Encode);
                self.stats.checkpoints += 1;
                self.stats.checkpoint_us += us;
                self.stats.total_us += us;
                checkpoint = Some((i, carried.clone()));
            }
            match &self.durable {
                Some(d) if self.depth == 0 && last_persisted != Some(i) => {
                    // Persist a durable snapshot at this header. A failed
                    // write (full disk, injected fault) skips this
                    // generation and the run continues — durability
                    // degrades to the previous generation.
                    let t0 = Instant::now();
                    let bytes = (d.encode)(op_id, i, &self.values, &carried);
                    let written = d.store.put(&bytes).is_ok();
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    if written {
                        self.stats.snapshot_writes += 1;
                        self.stats.snapshot_bytes += bytes.len() as u64;
                    }
                    self.stats.disk_snapshot_us += us;
                    self.stats.total_us += us;
                    last_persisted = Some(i);
                }
                _ => {}
            }
            match self.run_iteration(body, args, &carried) {
                Ok(next) => {
                    carried = next;
                    i += 1;
                }
                Err(e) => match &checkpoint {
                    Some((at, saved))
                        if resumes_left > 0 && matches!(e.kind, RunError::Backend(_)) =>
                    {
                        resumes_left -= 1;
                        self.stats.resumes += 1;
                        carried = saved.clone();
                        i = *at;
                    }
                    _ => return Err(e),
                },
            }
        }
        for (&r, c) in op.results.iter().zip(carried) {
            self.values.insert(r, c);
        }
        Ok(())
    }

    /// One loop iteration: bind block args, run the body, read the yields.
    fn run_iteration(
        &mut self,
        body: BlockId,
        args: &[ValueId],
        carried: &[RtValue<B::Ct>],
    ) -> Result<Vec<RtValue<B::Ct>>, ExecError> {
        for (&a, c) in args.iter().zip(carried) {
            self.values.insert(a, c.clone());
        }
        self.depth += 1;
        let ran = self.run_block(body);
        self.depth -= 1;
        ran?;
        let term = self.f.terminator(body).ok_or_else(|| {
            ExecError::from(RunError::Malformed("loop body missing yield".into()))
        })?;
        let yield_op = self
            .f
            .try_op(term)
            .ok_or_else(|| ExecError::from(dangling_op(term)))?;
        yield_op.operands.iter().map(|&v| self.lookup(v)).collect()
    }
}

// ----------------------------------------------------------------------
// Checked access helpers (the executor must not panic on malformed
// programs — every structural assumption is validated and reported as a
// structured error instead).
// ----------------------------------------------------------------------

fn operand(op: &Op, i: usize) -> Result<ValueId, ExecError> {
    op.operands.get(i).copied().ok_or_else(|| {
        ExecError::from(RunError::Malformed(format!(
            "{} is missing operand #{i}",
            op.opcode.mnemonic()
        )))
    })
}

fn result(op: &Op, i: usize) -> Result<ValueId, ExecError> {
    op.results.get(i).copied().ok_or_else(|| {
        ExecError::from(RunError::Malformed(format!(
            "{} is missing result #{i}",
            op.opcode.mnemonic()
        )))
    })
}

fn dangling_op(id: OpId) -> RunError {
    RunError::Malformed(format!("op #{} does not exist in this function", id.0))
}

fn dangling_block(id: BlockId) -> RunError {
    RunError::Malformed(format!("block b{} does not exist in this function", id.0))
}

fn dangling_value(id: ValueId) -> RunError {
    RunError::Malformed(format!("value {id} does not exist in this function"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::{CkksParams, FaultInjectingBackend, FaultSpec, SimBackend};
    use halo_ir::op::TripCount;
    use halo_ir::FunctionBuilder;

    fn exact_backend() -> SimBackend {
        SimBackend::exact(CkksParams::test_small())
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let k = b.const_splat(10.0);
        let s = b.add(x, y);
        let m = b.mul(s, k);
        b.ret(&[m]);
        let f = b.finish();
        let be = exact_backend();
        let out = Executor::new(&be)
            .run(
                &f,
                &Inputs::new().cipher("x", vec![2.0]).cipher("y", vec![3.0]),
            )
            .unwrap();
        assert_eq!(out.outputs[0][0], 50.0);
        assert_eq!(out.stats.op_counts["addcc"], 1);
        assert_eq!(out.stats.op_counts["multcp"], 1);
        assert!(out.stats.total_us > 0.0);
    }

    #[test]
    fn dynamic_loop_runs_env_iterations() {
        // w ← w + x, n times ⇒ w = n·x.
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, a| {
            vec![b.add(a[0], x)]
        });
        b.ret(&r);
        let f = b.finish();
        for n in [0u64, 1, 7] {
            let be = exact_backend();
            let out = Executor::new(&be)
                .run(
                    &f,
                    &Inputs::new()
                        .cipher("x", vec![2.0])
                        .cipher("w0", vec![1.0])
                        .env("n", n),
                )
                .unwrap();
            assert_eq!(out.outputs[0][0], 1.0 + 2.0 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn rotation_fanout_is_hoisted_into_one_batch() {
        // Three rotations of the same SSA value must route through one
        // rotate_batch call, be recorded as three `rotate` ops, and save
        // modeled latency versus three individual rotations.
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 2);
        let r3 = b.rotate(x, 5);
        let s = b.add(r1, r2);
        let s = b.add(s, r3);
        b.ret(&[s]);
        let f = b.finish();
        let values: Vec<f64> = (0..32).map(f64::from).collect();
        let be = exact_backend();
        let out = Executor::new(&be)
            .run(&f, &Inputs::new().cipher("x", values.clone()))
            .unwrap();
        let want: Vec<f64> = (0..32)
            .map(|i| values[(i + 1) % 32] + values[(i + 2) % 32] + values[(i + 5) % 32])
            .collect();
        for (got, want) in out.outputs[0].iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_eq!(out.stats.op_counts["rotate"], 3);
        assert_eq!(out.stats.hoisted_batches, 1);
        assert_eq!(out.stats.hoisted_rotations, 3);
        assert!(out.stats.hoist_saved_us > 0.0);
    }

    #[test]
    fn plaintexts_longer_than_the_slots_fail_instead_of_truncating() {
        let long = vec![1.0; 33];
        let overflow = RunError::Backend(BackendError::SlotOverflow { len: 33, slots: 32 });
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let p = b.input_plain("p");
        let s = b.add(x, p);
        b.ret(&[s]);
        let plain_input = b.finish();
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let k = b.const_vector(long.clone());
        let s = b.add(x, k);
        b.ret(&[s]);
        let const_vector = b.finish();
        let inputs = Inputs::new().cipher("x", vec![1.0]).plain("p", long);
        for f in [&plain_input, &const_vector] {
            let be = exact_backend();
            let err = Executor::new(&be).run(f, &inputs).unwrap_err();
            assert_eq!(err, overflow);
            assert!(err.op.is_some(), "the failing op is named: {err}");
            assert_eq!(
                crate::reference::reference_run(f, &inputs, 32).unwrap_err(),
                overflow
            );
        }
    }

    #[test]
    fn lone_and_plaintext_rotations_are_not_batched() {
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let p = b.input_plain("p");
        let r = b.rotate(x, 1); // lone cipher rotation: no fan-out
        let q1 = b.rotate(p, 1); // plaintext fan-out: rotates fold at runtime
        let q2 = b.rotate(p, 2);
        let m1 = b.mul(r, q1);
        let m2 = b.mul(r, q2);
        let s = b.add(m1, m2);
        b.ret(&[s]);
        let f = b.finish();
        let be = exact_backend();
        let out = Executor::new(&be)
            .run(
                &f,
                &Inputs::new()
                    .cipher("x", vec![1.0; 32])
                    .plain("p", (0..32).map(f64::from).collect()),
            )
            .unwrap();
        assert_eq!(out.stats.hoisted_batches, 0);
        assert_eq!(out.stats.hoisted_rotations, 0);
        assert_eq!(out.stats.hoist_saved_us, 0.0);
        // The lone cipher rotation is still priced as a plain rotate.
        assert_eq!(out.stats.op_counts["rotate"], 1);
    }

    #[test]
    fn hoisted_groups_rebatch_every_loop_iteration() {
        // A fan-out inside a loop body must re-batch per iteration: the
        // done-set is per-pass, not per-function.
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let r = b.for_loop(TripCount::Constant(3), &[x], 4, |b, a| {
            let r1 = b.rotate(a[0], 1);
            let r2 = b.rotate(a[0], 2);
            vec![b.add(r1, r2)]
        });
        b.ret(&r);
        let f = b.finish();
        let be = exact_backend();
        let out = Executor::new(&be)
            .run(&f, &Inputs::new().cipher("x", vec![1.0; 32]))
            .unwrap();
        assert_eq!(out.stats.hoisted_batches, 3);
        assert_eq!(out.stats.hoisted_rotations, 6);
        assert_eq!(out.stats.op_counts["rotate"], 6);
    }

    #[test]
    fn missing_symbol_is_reported() {
        let mut b = FunctionBuilder::new("t", 32);
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("iters"), &[w0], 4, |b, a| {
            vec![b.add(a[0], a[0])]
        });
        b.ret(&r);
        let f = b.finish();
        let be = exact_backend();
        let err = Executor::new(&be)
            .run(&f, &Inputs::new().cipher("w0", vec![1.0]))
            .unwrap_err();
        assert_eq!(err, RunError::MissingInput("iters".into()));
    }

    #[test]
    fn plain_plain_arithmetic_folds() {
        let mut b = FunctionBuilder::new("t", 32);
        let p = b.const_splat(3.0);
        let q = b.const_vector(vec![1.0, 2.0]);
        let m = b.mul(p, q);
        let x = b.input_cipher("x");
        let r = b.add(x, m);
        b.ret(&[r]);
        let f = b.finish();
        let be = exact_backend();
        let out = Executor::new(&be)
            .run(&f, &Inputs::new().cipher("x", vec![0.0]))
            .unwrap();
        assert_eq!(out.outputs[0][0], 3.0);
        assert_eq!(out.outputs[0][1], 6.0);
        assert_eq!(out.outputs[0][2], 3.0, "vector constant repeats cyclically");
    }

    #[test]
    fn compiled_program_executes_with_level_ops_counted() {
        use halo_core::{compile, CompileOptions, CompilerConfig};
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, a| {
            let p = b.mul(a[0], x);
            vec![p]
        });
        b.ret(&r);
        let src = b.finish();
        let mut opts = CompileOptions::new(CkksParams::test_small());
        opts.params.poly_degree = 64;
        let compiled = compile(&src, CompilerConfig::TypeMatched, &opts).unwrap();
        let be = exact_backend();
        let out = Executor::new(&be)
            .run(
                &compiled.function,
                &Inputs::new()
                    .cipher("x", vec![2.0])
                    .cipher("w0", vec![1.0])
                    .env("n", 5),
            )
            .unwrap();
        assert_eq!(out.outputs[0][0], 32.0, "w = 2^5");
        // One head bootstrap per iteration.
        assert_eq!(out.stats.bootstrap_count, 5);
        assert!(out.stats.bootstrap_us > 0.5 * out.stats.total_us);
        assert!(out.stats.op_counts.contains_key("rescale"));
        assert!(out.stats.op_counts.contains_key("modswitch"));
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn loop_program() -> Function {
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, a| {
            vec![b.add(a[0], x)]
        });
        b.ret(&r);
        b.finish()
    }

    fn loop_inputs(n: u64) -> Inputs {
        Inputs::new()
            .cipher("x", vec![2.0])
            .cipher("w0", vec![1.0])
            .env("n", n)
    }

    #[test]
    fn default_policy_disables_all_recovery() {
        let p = ExecPolicy::default();
        assert_eq!(p.max_retries, 0);
        assert!(!p.emergency_bootstrap);
        assert_eq!(p.max_resumes, 0);
        let r = ExecPolicy::resilient();
        assert!(r.max_retries > 0 && r.emergency_bootstrap && r.max_resumes > 0);
    }

    #[test]
    fn checkpoints_follow_the_resume_budget_and_snapshots_every_top_level_header() {
        let f = loop_program();
        let inputs = loop_inputs(5);
        let run = |policy: ExecPolicy| {
            let be = exact_backend();
            Executor::with_policy(&be, policy).run(&f, &inputs).unwrap()
        };
        // No resume budget: no in-memory checkpoints.
        assert_eq!(run(ExecPolicy::default()).stats.checkpoints, 0);
        // A budget checkpoints every loop header.
        let budget = ExecPolicy {
            max_resumes: 1,
            ..Default::default()
        };
        assert_eq!(run(budget).stats.checkpoints, 5);
        // A durable run persists every top-level header and takes no
        // in-memory checkpoint under the default policy.
        let be = exact_backend();
        let store = crate::store::MemStore::new(0);
        let out = Executor::new(&be).run_durable(&f, &inputs, &store).unwrap();
        assert_eq!(out.outputs[0][0], 11.0);
        assert_eq!(out.stats.snapshot_writes, 5);
        assert_eq!(store.generations().unwrap().len(), 5);
        assert_eq!(out.stats.checkpoints, 0);
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        let f = loop_program();
        let be =
            FaultInjectingBackend::new(exact_backend(), FaultSpec::transient_only(0.3), 0xFA_57);
        let out = Executor::with_policy(&be, ExecPolicy::resilient())
            .run(&f, &loop_inputs(8))
            .expect("recovery must absorb 30% transients");
        assert_eq!(out.outputs[0][0], 17.0);
        let report = be.report();
        assert!(report.observable_transients() > 0, "30% rate must fire");
        assert_eq!(out.stats.transient_faults, report.observable_transients());
        assert!(out.stats.retries > 0);
        assert!(out.stats.retry_backoff_us > 0.0);
    }

    #[test]
    fn fail_fast_without_retry_policy() {
        let f = loop_program();
        let be =
            FaultInjectingBackend::new(exact_backend(), FaultSpec::transient_only(0.5), 0xFA_57);
        let err = Executor::new(&be)
            .run(&f, &loop_inputs(8))
            .expect_err("50% transients must kill an unprotected run");
        assert!(matches!(
            err.kind,
            RunError::Backend(BackendError::Transient { .. })
        ));
        assert!(err.op.is_some(), "error carries op context");
    }

    #[test]
    fn checkpoint_resume_survives_exhausted_retries() {
        let f = loop_program();
        // Zero retries: every transient inside the loop body kills its
        // iteration, so only checkpoint/resume can finish the run. Faults
        // outside any loop (the input encrypts, the final decrypt) stay
        // fatal by design, so scan seeds and require that at least one run
        // both finishes and actually exercised resume.
        let policy = ExecPolicy {
            max_retries: 0,
            max_resumes: 64,
            ..ExecPolicy::resilient()
        };
        let mut resumed_ok = 0;
        for seed in 0..8u64 {
            let be = FaultInjectingBackend::new(
                exact_backend(),
                FaultSpec {
                    bootstrap_fail: 0.0,
                    ..FaultSpec::transient_only(0.25)
                },
                seed,
            );
            if let Ok(out) = Executor::with_policy(&be, policy.clone()).run(&f, &loop_inputs(10)) {
                assert_eq!(out.outputs[0][0], 21.0, "seed {seed}");
                assert!(out.stats.checkpoints >= 10, "seed {seed}");
                assert!(out.stats.checkpoint_us > 0.0, "seed {seed}");
                if out.stats.resumes > 0 {
                    resumed_ok += 1;
                }
            }
        }
        assert!(
            resumed_ok > 0,
            "some seeded run must finish via checkpoint resume"
        );
    }

    #[test]
    fn emergency_bootstrap_heals_spurious_level_loss() {
        use halo_core::{compile, CompileOptions, CompilerConfig};
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let w0 = b.input_cipher("w0");
        let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, a| {
            vec![b.mul(a[0], x)]
        });
        b.ret(&r);
        let src = b.finish();
        let mut opts = CompileOptions::new(CkksParams::test_small());
        opts.params.poly_degree = 64;
        let compiled = compile(&src, CompilerConfig::Halo, &opts).unwrap();
        let inputs = Inputs::new()
            .cipher("x", vec![2.0])
            .cipher("w0", vec![1.0])
            .env("n", 6);
        // Level loss only fires on waterline results above level 1, so in
        // this small program eligible results are sparse; scan seeds and
        // require that injected losses were healed at least once. The rate
        // stays moderate: the guard re-repairs corrupted repairs at most
        // MAX_HEAL_ATTEMPTS times, and this plan modswitches straight to
        // level 0, where any residual loss is fatal by design.
        let mut healed = 0;
        for seed in 0..8u64 {
            let be = FaultInjectingBackend::new(
                SimBackend::exact(opts.params.clone()),
                FaultSpec::level_loss_only(0.2),
                seed,
            );
            let out = Executor::with_policy(&be, ExecPolicy::resilient())
                .run(&compiled.function, &inputs)
                .expect("level guard must absorb spurious losses");
            assert_eq!(out.outputs[0][0], 64.0, "w = 2^6 survives level chaos");
            // A loss right before a planned bootstrap heals silently; only
            // count runs where the guard visibly repaired the plan.
            if be.report().level_losses > 0 && out.stats.degradations() > 0 {
                healed += 1;
            }
        }
        assert!(
            healed > 0,
            "some seeded run must show guard repairs in telemetry"
        );
    }

    #[test]
    fn malformed_programs_error_instead_of_panicking() {
        use halo_ir::types::CtType;
        let cipher = CtType::cipher(LEVEL_UNSET);
        let be = exact_backend();

        // An op with no operands where two are required.
        let mut f = Function::new("bad", 32);
        let entry = f.entry;
        f.push_op(entry, Opcode::AddCC, vec![], &[cipher]);
        f.push_op(entry, Opcode::Return, vec![], &[]);
        let err = Executor::new(&be).run(&f, &Inputs::new()).unwrap_err();
        assert!(matches!(err.kind, RunError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("addcc"), "{err}");

        // A loop whose body block id dangles.
        let mut f = Function::new("bad2", 32);
        let entry = f.entry;
        let x = f.push_op(entry, Opcode::Input { name: "x".into() }, vec![], &[cipher]);
        let x = f.op(x).results[0];
        f.push_op(
            entry,
            Opcode::For {
                trip: TripCount::Constant(3),
                body: BlockId(99),
                num_elems: 1,
            },
            vec![x],
            &[cipher],
        );
        f.push_op(entry, Opcode::Return, vec![], &[]);
        let err = Executor::new(&be)
            .run(&f, &Inputs::new().cipher("x", vec![1.0]))
            .unwrap_err();
        assert!(matches!(err.kind, RunError::Malformed(_)), "{err}");

        // A function with no terminator at all.
        let f = Function::new("empty", 32);
        let err = Executor::new(&be).run(&f, &Inputs::new()).unwrap_err();
        assert_eq!(err, RunError::Malformed("missing return".into()));
    }

    #[test]
    fn exec_error_display_names_op_and_block() {
        let mut b = FunctionBuilder::new("t", 32);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let m = b.mul(x, y);
        b.ret(&[m]);
        let f = b.finish();
        let be = exact_backend();
        // Mismatched operand levels only materialize from a hand-typed
        // program; here the missing input is enough to exercise context.
        let err = Executor::new(&be)
            .run(&f, &Inputs::new().cipher("x", vec![1.0]))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("input"), "{msg}");
        assert!(msg.contains("op #"), "{msg}");
    }
}
