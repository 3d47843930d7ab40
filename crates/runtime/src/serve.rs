//! Multi-tenant serving with cross-request SIMD slot batching.
//!
//! The paper treats bootstrapping as a throughput problem inside one
//! program; this module applies the same argument across *requests*: a
//! ciphertext has `slots` SIMD lanes and a typical job uses a handful,
//! so the single largest serving lever is to coalesce compatible jobs
//! into one execution over disjoint slot windows.
//!
//! Architecture (DESIGN.md §15):
//!
//! - **Sessions** ([`Server::session`]) own quotas and per-op accounting.
//!   Accounting is race-free under concurrency: each batch executes
//!   inside a [`ScopedCounters`] guard (`ckks::metrics`), and the scope's
//!   private counts are split across the batch's participants so that
//!   the shares sum to the batch's total.
//! - **Admission control** degrades, never aborts: [`Server::submit`]
//!   applies backpressure (blocks while the bounded queue is full);
//!   [`Server::try_submit`] rejects *only* at the explicit queue cap or
//!   an exhausted session quota. Per-job deadlines are modeled (PR 2
//!   idiom — accounted, not slept) and a missed deadline flags the
//!   outcome, it does not cancel the job.
//! - **The batcher**: a scoped-thread worker pool over one shared
//!   backend pops the queue head and coalesces up to `max_batch` queued
//!   jobs with the same [`CompatKey`] — same program hash, same
//!   environment and plain inputs, same slot-window width (same program
//!   ⇒ inputs encrypt at the same level/scale). Their cipher inputs are
//!   packed into disjoint `width`-sized slot windows with the compiler
//!   packing pass's mask/rotate algebra ([`halo_core::pack`]), the
//!   program executes **once**, and each job's output window is unpacked
//!   and re-replicated. On the exact backend the unpacked outputs are
//!   bit-identical to solo execution (test-enforced), because a
//!   batchable program is slotwise: no rotations, no absolute-position
//!   mask constants, and every constant/plain period divides the window.
//! - **Resilience**: execution runs under the configured [`ExecPolicy`]
//!   (bounded retry of transient faults); if a *packed* run still fails,
//!   the batch degrades to per-job solo execution so one poisoned input
//!   cannot sink its neighbors.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use halo_ckks::metrics::{MetricsSnapshot, ScopedCounters};
use halo_ckks::{Backend, CostModel, CostedOp};
use halo_core::pack::{pack_windows, unpack_window};
use halo_ir::func::Function;
use halo_ir::op::{ConstValue, Opcode};
use halo_ir::print;
use halo_ir::types::Status;

use crate::exec::{ExecError, ExecPolicy, Executor, Inputs};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded queue capacity: `submit` blocks and `try_submit` rejects
    /// at this depth. This is the *only* point where admission control
    /// rejects on load.
    pub queue_cap: usize,
    /// Most jobs one execution may coalesce (1 disables batching).
    pub max_batch: usize,
    /// How long (wall-clock, milliseconds) a worker lingers for
    /// compatible peers when the queue's head is batchable but a full
    /// batch has not yet accumulated. 0 = grab-and-go: coalesce whatever
    /// is already queued. The linger breaks out the moment a full batch
    /// is available, so it trades worst-case idle latency for
    /// deterministic coalescing under bursty arrivals.
    pub batch_window_ms: u64,
    /// Deadline applied to jobs submitted without their own, in modeled
    /// microseconds from admission. `None` = no deadline.
    pub default_deadline_us: Option<f64>,
    /// Execution policy for every run (retry budget, noise guards, …).
    pub policy: ExecPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 256,
            max_batch: 16,
            batch_window_ms: 0,
            default_deadline_us: None,
            policy: ExecPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// A config with the PR 2 self-healing policy — what a server facing
    /// an unreliable backend should run.
    #[must_use]
    pub fn resilient() -> ServeConfig {
        ServeConfig {
            policy: ExecPolicy::resilient(),
            ..ServeConfig::default()
        }
    }
}

/// Why a submission was not admitted. Rejection happens only at the
/// explicit queue cap or quota — never from load alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity (`try_submit` only; `submit`
    /// blocks instead).
    QueueFull {
        /// The configured capacity.
        cap: usize,
    },
    /// The session spent its modeled-microsecond quota.
    QuotaExhausted {
        /// Session name.
        session: String,
    },
    /// The server is shutting down and accepts no new work.
    ShutDown,
    /// The session handle does not belong to this server.
    UnknownSession,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { cap } => write!(f, "queue full (cap {cap})"),
            AdmissionError::QuotaExhausted { session } => {
                write!(f, "session {session}: quota exhausted")
            }
            AdmissionError::ShutDown => write!(f, "server shutting down"),
            AdmissionError::UnknownSession => write!(f, "unknown session"),
        }
    }
}

/// A job that failed to execute (after the policy's bounded retries and
/// the solo-fallback degradation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The executor gave up.
    Exec(ExecError),
    /// The server shut down before the job produced a result (defensive;
    /// workers drain the queue on shutdown, so this indicates a bug).
    Abandoned,
}

/// What a completed job returns.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Decrypted output slot vectors, exactly as solo execution would
    /// return them (per-job windows unpacked and re-replicated).
    pub outputs: Vec<Vec<f64>>,
    /// How many jobs shared this execution (1 = solo).
    pub batch_size: usize,
    /// Modeled execution time of the whole (possibly shared) run, µs.
    pub exec_us: f64,
    /// This job's accounted share: `(exec + pack overhead) / batch`, µs.
    pub share_us: f64,
    /// Modeled queue-to-completion latency, µs.
    pub latency_us: f64,
    /// The modeled latency exceeded the job's deadline. The job still
    /// ran to completion — deadlines degrade to telemetry, not aborts.
    pub deadline_missed: bool,
    /// Bootstrap count of the (shared) execution.
    pub bootstrap_count: u64,
}

/// Per-job result: the outcome, or why execution failed.
pub type JobResult = Result<JobOutcome, JobError>;

/// Handle to a submitted job; [`Ticket::wait`] blocks for its result.
pub struct Ticket {
    cell: Arc<TicketCell>,
}

struct TicketCell {
    slot: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl Ticket {
    /// Blocks until the job completes (or fails) and returns its result.
    pub fn wait(self) -> JobResult {
        let mut slot = self.cell.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.cell.cv.wait(slot).unwrap();
        }
    }

    /// Non-blocking poll: the result if the job already finished.
    #[must_use]
    pub fn poll(&self) -> Option<JobResult> {
        self.cell.slot.lock().unwrap().take()
    }
}

/// Member `j`'s share of a count `n` split over a `k`-job batch: `⌊n/k⌋`,
/// plus one for the first `n mod k` members, so the shares sum to `n` (a
/// plain floor would zero out counts smaller than the batch).
fn share(n: u64, k: usize, j: usize) -> u64 {
    let k = k as u64;
    n / k + u64::from((j as u64) < n % k)
}

fn deliver(cell: &TicketCell, r: JobResult) {
    *cell.slot.lock().unwrap() = Some(r);
    cell.cv.notify_all();
}

/// A session handle returned by [`Server::session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionId(usize);

/// Per-session accounting, reported in [`ServeReport::sessions`].
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Session name (tenant identity).
    pub name: String,
    /// Modeled-µs quota, if any; admission rejects once spent.
    pub quota_us: Option<f64>,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed execution.
    pub failed: u64,
    /// Submissions rejected by admission control (cap or quota).
    pub rejected: u64,
    /// Completed jobs whose modeled latency exceeded their deadline.
    pub deadline_misses: u64,
    /// Accounted modeled time: Σ `share_us` of this session's jobs.
    pub modeled_us: f64,
    /// Backend op counters accounted to this session: each batch's
    /// [`ScopedCounters`] reading, split across participants like
    /// [`SessionStats::op_counts`].
    pub ops: MetricsSnapshot,
    /// Executed-op counts accounted to this session (batch counts split
    /// evenly, remainder spread over the first members so batch totals
    /// are conserved).
    pub op_counts: BTreeMap<&'static str, u64>,
}

/// Aggregate serving telemetry, returned by [`serve`].
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Jobs completed successfully.
    pub jobs_done: u64,
    /// Jobs that failed execution (delivered as [`JobError`]).
    pub jobs_failed: u64,
    /// Submissions rejected by admission control.
    pub jobs_rejected: u64,
    /// Executions performed (a batch of k jobs counts once).
    pub batches: u64,
    /// Executions that coalesced ≥ 2 jobs.
    pub packed_batches: u64,
    /// Packed executions that failed and degraded to per-job solo runs.
    pub batch_fallbacks: u64,
    /// Completed jobs whose modeled latency exceeded their deadline.
    pub deadline_misses: u64,
    /// Σ modeled execution µs across all batches.
    pub exec_us: f64,
    /// Σ modeled pack/unpack overhead µs.
    pub pack_us: f64,
    /// Modeled wall-clock of the whole campaign: total work spread over
    /// the worker pool.
    pub makespan_us: f64,
    /// Deepest the bounded queue ever got.
    pub peak_queue_depth: usize,
    /// Modeled per-job latencies (completed jobs, completion order).
    pub latencies_us: Vec<f64>,
    /// Per-session accounting.
    pub sessions: Vec<SessionStats>,
}

impl ServeReport {
    /// Nearest-rank percentile of the modeled job latencies; `p` in 0–100.
    #[must_use]
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Modeled throughput: completed jobs per modeled second.
    #[must_use]
    pub fn jobs_per_sec(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.jobs_done as f64 / (self.makespan_us / 1e6)
    }
}

/// FNV-1a over the printed IR plus the slot count: the program identity
/// the batcher groups by. Two jobs may share slots only if they run the
/// same compiled function.
#[must_use]
pub fn program_hash(f: &Function) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, print::print(f).as_bytes());
    fnv(&mut h, &(f.slots as u64).to_le_bytes());
    h
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Why a program (or a job over it) cannot share a ciphertext with other
/// jobs. Unbatchable jobs still run — solo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unbatchable {
    /// The program rotates slots: windows would bleed into each other.
    Rotates,
    /// The program uses an absolute-position mask constant.
    MaskConst,
    /// The program returns a plaintext value (shared, not windowed).
    PlainOutput,
    /// The program has no ciphertext inputs to pack.
    NoCipherInputs,
    /// A vector constant's period does not divide the window width.
    ConstPeriod(usize),
    /// A plain input's period does not divide the window width.
    PlainPeriod(String),
    /// A cipher input's length does not divide the window width.
    InputPeriod(String),
    /// Fewer than two windows fit in the ciphertext.
    WindowTooWide,
    /// The slot count is not a power of two (replication ladder).
    SlotsNotPow2,
}

/// What the batcher needs to know about a program, computed once per
/// submitted `Arc<Function>` and cached.
struct ProgInfo {
    hash: u64,
    cipher_inputs: Vec<String>,
    plain_inputs: Vec<String>,
    rotates: bool,
    mask_const: bool,
    plain_output: bool,
    vec_const_lens: Vec<usize>,
}

fn profile(f: &Function) -> ProgInfo {
    let mut info = ProgInfo {
        hash: program_hash(f),
        cipher_inputs: Vec::new(),
        plain_inputs: Vec::new(),
        rotates: false,
        mask_const: false,
        plain_output: false,
        vec_const_lens: Vec::new(),
    };
    f.walk_ops(|_, op_id| {
        let op = f.op(op_id);
        match &op.opcode {
            Opcode::Input { name } => {
                let cipher = op
                    .results
                    .first()
                    .is_some_and(|&r| f.ty(r).status == Status::Cipher);
                if cipher {
                    info.cipher_inputs.push(name.clone());
                } else {
                    info.plain_inputs.push(name.clone());
                }
            }
            Opcode::Rotate { .. } => info.rotates = true,
            Opcode::Const(ConstValue::Mask { .. }) => info.mask_const = true,
            Opcode::Const(ConstValue::Vector(v)) => info.vec_const_lens.push(v.len().max(1)),
            Opcode::Return if op.operands.iter().any(|&v| f.ty(v).status == Status::Plain) => {
                info.plain_output = true;
            }
            _ => {}
        }
    });
    info
}

impl ProgInfo {
    /// Checks whether a job with the given input bindings may share slots
    /// with compatible peers, and at which window width.
    fn batchable_width(&self, f: &Function, inputs: &Inputs) -> Result<usize, Unbatchable> {
        if self.rotates {
            return Err(Unbatchable::Rotates);
        }
        if self.mask_const {
            return Err(Unbatchable::MaskConst);
        }
        if self.plain_output {
            return Err(Unbatchable::PlainOutput);
        }
        if self.cipher_inputs.is_empty() {
            return Err(Unbatchable::NoCipherInputs);
        }
        if !f.slots.is_power_of_two() {
            return Err(Unbatchable::SlotsNotPow2);
        }
        let mut width = 1usize;
        for name in &self.cipher_inputs {
            let len = inputs.cipher_data(name).map_or(0, <[f64]>::len).max(1);
            width = width.max(len.next_power_of_two());
        }
        // Every period inside the program must divide the window, or a
        // window's content would differ from the solo run's cyclic
        // expansion at absolute slot positions.
        for name in &self.cipher_inputs {
            let len = inputs.cipher_data(name).map_or(1, <[f64]>::len).max(1);
            if !width.is_multiple_of(len) {
                return Err(Unbatchable::InputPeriod(name.clone()));
            }
        }
        for name in &self.plain_inputs {
            let len = inputs.plain_data(name).map_or(1, <[f64]>::len).max(1);
            if !width.is_multiple_of(len) {
                return Err(Unbatchable::PlainPeriod(name.clone()));
            }
        }
        for &len in &self.vec_const_lens {
            if !width.is_multiple_of(len) {
                return Err(Unbatchable::ConstPeriod(len));
            }
        }
        if 2 * width > f.slots {
            return Err(Unbatchable::WindowTooWide);
        }
        Ok(width)
    }

    /// The compatibility key of a job: program, environment, plain
    /// inputs, and window width. Jobs with equal keys compute the same
    /// slotwise function over different cipher windows, so one packed
    /// execution serves them all (same program ⇒ same input levels and
    /// scales by construction).
    fn compat_key(&self, inputs: &Inputs, width: usize) -> CompatKey {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut env: Vec<(&String, &u64)> = inputs.env_map().iter().collect();
        env.sort();
        for (k, v) in env {
            fnv(&mut h, k.as_bytes());
            fnv(&mut h, &v.to_le_bytes());
        }
        let mut ph = 0xcbf2_9ce4_8422_2325u64;
        for name in &self.plain_inputs {
            fnv(&mut ph, name.as_bytes());
            if let Some(data) = inputs.plain_data(name) {
                for x in data {
                    fnv(&mut ph, &x.to_bits().to_le_bytes());
                }
            }
        }
        CompatKey {
            prog: self.hash,
            env: h,
            plain: ph,
            width,
        }
    }
}

/// The batcher's grouping key — see [`ProgInfo::compat_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CompatKey {
    prog: u64,
    env: u64,
    plain: u64,
    /// Slot-window width; 0 marks a solo-only (unbatchable) job.
    width: usize,
}

struct Pending {
    session: usize,
    key: CompatKey,
    program: Arc<Function>,
    cipher_inputs: Arc<Vec<String>>,
    inputs: Inputs,
    deadline_us: Option<f64>,
    admit_us: f64,
    ticket: Arc<TicketCell>,
}

struct QueueState {
    open: bool,
    q: VecDeque<Pending>,
    peak: usize,
}

struct ServerState {
    /// Modeled campaign clock: total accounted work spread over the pool.
    clock_us: f64,
    sessions: Vec<SessionStats>,
    jobs_done: u64,
    jobs_failed: u64,
    jobs_rejected: u64,
    batches: u64,
    packed_batches: u64,
    batch_fallbacks: u64,
    deadline_misses: u64,
    exec_us: f64,
    pack_us: f64,
    latencies_us: Vec<f64>,
}

struct CachedProg {
    /// Keeps the profiled function alive so the cache key (its address)
    /// cannot be recycled by a different allocation.
    _keep: Arc<Function>,
    info: Arc<ProgInfo>,
}

/// The serving core. Construct via [`serve`], which runs the worker pool
/// in a thread scope; sessions then [`Server::submit`] jobs from any
/// thread inside the scope.
pub struct Server<'e, B: Backend> {
    backend: &'e B,
    config: ServeConfig,
    cost: CostModel,
    queue: Mutex<QueueState>,
    cv_jobs: Condvar,
    cv_space: Condvar,
    progs: Mutex<HashMap<usize, CachedProg>>,
    state: Mutex<ServerState>,
}

impl<'e, B: Backend> Server<'e, B> {
    fn new(backend: &'e B, mut config: ServeConfig) -> Server<'e, B> {
        config.workers = config.workers.max(1);
        config.queue_cap = config.queue_cap.max(1);
        config.max_batch = config.max_batch.max(1);
        Server {
            backend,
            config,
            cost: CostModel::default(),
            queue: Mutex::new(QueueState {
                open: true,
                q: VecDeque::new(),
                peak: 0,
            }),
            cv_jobs: Condvar::new(),
            cv_space: Condvar::new(),
            progs: Mutex::new(HashMap::new()),
            state: Mutex::new(ServerState {
                clock_us: 0.0,
                sessions: Vec::new(),
                jobs_done: 0,
                jobs_failed: 0,
                jobs_rejected: 0,
                batches: 0,
                packed_batches: 0,
                batch_fallbacks: 0,
                deadline_misses: 0,
                exec_us: 0.0,
                pack_us: 0.0,
                latencies_us: Vec::new(),
            }),
        }
    }

    /// Registers a session with no quota.
    pub fn session(&self, name: &str) -> SessionId {
        self.session_with_quota(name, None)
    }

    /// Registers a session with a modeled-µs quota; once its accounted
    /// `modeled_us` reaches the quota, further submissions are rejected.
    pub fn session_with_quota(&self, name: &str, quota_us: Option<f64>) -> SessionId {
        let mut st = self.state.lock().unwrap();
        st.sessions.push(SessionStats {
            name: name.to_string(),
            quota_us,
            submitted: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            deadline_misses: 0,
            modeled_us: 0.0,
            ops: MetricsSnapshot::default(),
            op_counts: BTreeMap::new(),
        });
        SessionId(st.sessions.len() - 1)
    }

    /// Submits a job with backpressure: blocks while the bounded queue
    /// is at capacity, then enqueues. Rejects only on quota exhaustion
    /// or shutdown — load alone never rejects here.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QuotaExhausted`], [`AdmissionError::ShutDown`],
    /// or [`AdmissionError::UnknownSession`].
    pub fn submit(
        &self,
        session: SessionId,
        program: &Arc<Function>,
        inputs: Inputs,
    ) -> Result<Ticket, AdmissionError> {
        self.admit(session, program, inputs, None, true)
    }

    /// [`Server::submit`] with an explicit modeled-µs deadline.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`].
    pub fn submit_with_deadline(
        &self,
        session: SessionId,
        program: &Arc<Function>,
        inputs: Inputs,
        deadline_us: f64,
    ) -> Result<Ticket, AdmissionError> {
        self.admit(session, program, inputs, Some(deadline_us), true)
    }

    /// Non-blocking submission: rejects with [`AdmissionError::QueueFull`]
    /// when the bounded queue is at its explicit cap.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`], plus [`AdmissionError::QueueFull`].
    pub fn try_submit(
        &self,
        session: SessionId,
        program: &Arc<Function>,
        inputs: Inputs,
    ) -> Result<Ticket, AdmissionError> {
        self.admit(session, program, inputs, None, false)
    }

    fn admit(
        &self,
        session: SessionId,
        program: &Arc<Function>,
        inputs: Inputs,
        deadline_us: Option<f64>,
        block_on_full: bool,
    ) -> Result<Ticket, AdmissionError> {
        let info = self.prog_info(program);
        // Quota gate + admission stamp.
        let admit_us = {
            let mut st = self.state.lock().unwrap();
            let Some(sess) = st.sessions.get_mut(session.0) else {
                return Err(AdmissionError::UnknownSession);
            };
            if let Some(q) = sess.quota_us {
                if sess.modeled_us >= q {
                    sess.rejected += 1;
                    st.jobs_rejected += 1;
                    return Err(AdmissionError::QuotaExhausted {
                        session: st.sessions[session.0].name.clone(),
                    });
                }
            }
            st.clock_us
        };
        let width = info.batchable_width(program, &inputs).unwrap_or(0);
        let key = if width > 0 {
            info.compat_key(&inputs, width)
        } else {
            CompatKey {
                prog: info.hash,
                env: 0,
                plain: 0,
                width: 0,
            }
        };
        let cell = Arc::new(TicketCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let pending = Pending {
            session: session.0,
            key,
            program: program.clone(),
            cipher_inputs: Arc::new(info.cipher_inputs.clone()),
            inputs,
            deadline_us: deadline_us.or(self.config.default_deadline_us),
            admit_us,
            ticket: cell.clone(),
        };
        {
            let mut q = self.queue.lock().unwrap();
            loop {
                if !q.open {
                    return Err(AdmissionError::ShutDown);
                }
                if q.q.len() < self.config.queue_cap {
                    break;
                }
                if !block_on_full {
                    let mut st = self.state.lock().unwrap();
                    st.jobs_rejected += 1;
                    st.sessions[session.0].rejected += 1;
                    return Err(AdmissionError::QueueFull {
                        cap: self.config.queue_cap,
                    });
                }
                q = self.cv_space.wait(q).unwrap();
            }
            q.q.push_back(pending);
            q.peak = q.peak.max(q.q.len());
        }
        self.state.lock().unwrap().sessions[session.0].submitted += 1;
        self.cv_jobs.notify_one();
        Ok(Ticket { cell })
    }

    fn prog_info(&self, program: &Arc<Function>) -> Arc<ProgInfo> {
        let ptr = Arc::as_ptr(program) as usize;
        let mut cache = self.progs.lock().unwrap();
        cache
            .entry(ptr)
            .or_insert_with(|| CachedProg {
                _keep: program.clone(),
                info: Arc::new(profile(program)),
            })
            .info
            .clone()
    }

    fn close(&self) {
        self.queue.lock().unwrap().open = false;
        self.cv_jobs.notify_all();
        self.cv_space.notify_all();
    }

    fn worker(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock().unwrap();
                'refill: loop {
                    loop {
                        if !q.q.is_empty() {
                            break;
                        }
                        if !q.open {
                            return;
                        }
                        q = self.cv_jobs.wait(q).unwrap();
                    }
                    // Optional linger: the head is batchable but its
                    // batch is not yet full — wait (bounded, wall-clock)
                    // for compatible peers to arrive before committing.
                    if self.config.batch_window_ms == 0 {
                        break 'refill;
                    }
                    let deadline = std::time::Instant::now()
                        + std::time::Duration::from_millis(self.config.batch_window_ms);
                    loop {
                        match q.q.front() {
                            None => continue 'refill,
                            Some(head) if head.key.width == 0 => break 'refill,
                            Some(head) => {
                                let cap = (head.program.slots / head.key.width)
                                    .min(self.config.max_batch);
                                let have = q.q.iter().filter(|p| p.key == head.key).count();
                                if have >= cap {
                                    break 'refill;
                                }
                            }
                        }
                        let now = std::time::Instant::now();
                        if now >= deadline || !q.open {
                            break 'refill;
                        }
                        q = self.cv_jobs.wait_timeout(q, deadline - now).unwrap().0;
                    }
                }
                let head = q.q.pop_front().expect("nonempty");
                let mut batch = vec![head];
                if batch[0].key.width > 0 && self.config.max_batch > 1 {
                    let cap =
                        (batch[0].program.slots / batch[0].key.width).min(self.config.max_batch);
                    let mut i = 0;
                    while batch.len() < cap && i < q.q.len() {
                        if q.q[i].key == batch[0].key {
                            batch.push(q.q.remove(i).expect("in range"));
                        } else {
                            i += 1;
                        }
                    }
                }
                self.cv_space.notify_all();
                batch
            };
            self.execute(batch);
        }
    }

    /// Runs one batch (k = 1 ⇒ solo) and delivers per-job results.
    fn execute(&self, batch: Vec<Pending>) {
        let k = batch.len();
        let scope = ScopedCounters::begin();
        let executor = Executor::with_policy(self.backend, self.config.policy.clone());
        if k == 1 {
            let p = &batch[0];
            let run = executor.run(&p.program, &p.inputs);
            let ops = scope.finish();
            match run {
                Ok(out) => {
                    let outputs = vec![out.outputs.clone()];
                    self.settle(&batch, &outputs, &out.stats, 0.0, &ops, false);
                }
                Err(e) => self.fail(&batch, &e, &ops),
            }
            return;
        }

        // --- Packed execution: mask/rotate each job's cipher inputs into
        // its own slot window, run once, unpack per-job windows. ---
        let head = &batch[0];
        let width = head.key.width;
        let slots = head.program.slots;
        let mut inputs = head.inputs.clone();
        for name in head.cipher_inputs.iter() {
            let windows: Vec<&[f64]> = batch
                .iter()
                .map(|p| p.inputs.cipher_data(name).unwrap_or(&[]))
                .collect();
            inputs = inputs.cipher(name.clone(), pack_windows(&windows, width, slots));
        }
        let run = executor.run(&head.program, &inputs);
        let ops = scope.finish();
        match run {
            Ok(out) => {
                // Modeled pack/unpack overhead: one encode-sized charge
                // per cipher input and per output, per job.
                let per_job = (head.cipher_inputs.len() + out.outputs.len()) as f64
                    * self.cost.latency_us(CostedOp::Encode);
                let pack_us = per_job * k as f64;
                let outputs: Vec<Vec<Vec<f64>>> = (0..k)
                    .map(|j| {
                        out.outputs
                            .iter()
                            .map(|o| unpack_window(o, j, width))
                            .collect()
                    })
                    .collect();
                self.settle(&batch, &outputs, &out.stats, pack_us, &ops, true);
            }
            Err(_) => {
                // Degrade, don't abort: a failed shared run falls back to
                // per-job solo execution so one poisoned input cannot
                // sink its batch peers.
                self.state.lock().unwrap().batch_fallbacks += 1;
                for p in batch {
                    self.execute(vec![p]);
                }
            }
        }
    }

    /// Accounts a successful batch and delivers each job's outcome.
    fn settle(
        &self,
        batch: &[Pending],
        outputs: &[Vec<Vec<f64>>],
        stats: &crate::stats::RunStats,
        pack_us: f64,
        ops: &MetricsSnapshot,
        packed: bool,
    ) {
        let k = batch.len();
        let exec_us = stats.total_us;
        let share_us = (exec_us + pack_us) / k as f64;
        let mut st = self.state.lock().unwrap();
        st.batches += 1;
        if packed {
            st.packed_batches += 1;
        }
        st.exec_us += exec_us;
        st.pack_us += pack_us;
        st.clock_us += (exec_us + pack_us) / self.config.workers as f64;
        let now = st.clock_us;
        for (j, (p, out)) in batch.iter().zip(outputs).enumerate() {
            let latency_us = (now - p.admit_us).max(share_us);
            let missed = p.deadline_us.is_some_and(|d| latency_us > d);
            st.jobs_done += 1;
            st.latencies_us.push(latency_us);
            if missed {
                st.deadline_misses += 1;
            }
            let sess = &mut st.sessions[p.session];
            sess.completed += 1;
            sess.modeled_us += share_us;
            sess.ops = sess.ops.add(&ops.map(|n| share(n, k, j)));
            if missed {
                sess.deadline_misses += 1;
            }
            for (&m, &n) in &stats.op_counts {
                *sess.op_counts.entry(m).or_insert(0) += share(n, k, j);
            }
            deliver(
                &p.ticket,
                Ok(JobOutcome {
                    outputs: out.clone(),
                    batch_size: k,
                    exec_us,
                    share_us,
                    latency_us,
                    deadline_missed: missed,
                    bootstrap_count: stats.bootstrap_count,
                }),
            );
        }
    }

    /// Accounts and delivers a failed (solo) run.
    fn fail(&self, batch: &[Pending], e: &ExecError, ops: &MetricsSnapshot) {
        let k = batch.len();
        let mut st = self.state.lock().unwrap();
        for (j, p) in batch.iter().enumerate() {
            st.jobs_failed += 1;
            let sess = &mut st.sessions[p.session];
            sess.failed += 1;
            sess.ops = sess.ops.add(&ops.map(|n| share(n, k, j)));
            deliver(&p.ticket, Err(JobError::Exec(e.clone())));
        }
    }

    fn report(&self) -> ServeReport {
        let st = self.state.lock().unwrap();
        let q = self.queue.lock().unwrap();
        ServeReport {
            jobs_done: st.jobs_done,
            jobs_failed: st.jobs_failed,
            jobs_rejected: st.jobs_rejected,
            batches: st.batches,
            packed_batches: st.packed_batches,
            batch_fallbacks: st.batch_fallbacks,
            deadline_misses: st.deadline_misses,
            exec_us: st.exec_us,
            pack_us: st.pack_us,
            makespan_us: st.clock_us,
            peak_queue_depth: q.peak,
            latencies_us: st.latencies_us.clone(),
            sessions: st.sessions.clone(),
        }
    }
}

/// Runs a serving scope: spawns `config.workers` scoped worker threads
/// over the shared backend, hands `body` the [`Server`] to register
/// sessions and submit jobs from any thread in the scope, then drains
/// the queue and joins the pool when `body` returns. Returns `body`'s
/// result and the aggregate [`ServeReport`].
pub fn serve<B, R>(
    backend: &B,
    config: ServeConfig,
    body: impl FnOnce(&Server<'_, B>) -> R,
) -> (R, ServeReport)
where
    B: Backend,
{
    let server = Server::new(backend, config);
    let result = std::thread::scope(|s| {
        for _ in 0..server.config.workers {
            s.spawn(|| server.worker());
        }
        // Close on a drop guard, not after `body`: if `body` panics the
        // workers must still be told to drain and exit, or the scope
        // would join them forever and turn the panic into a deadlock.
        struct CloseGuard<'a, 'e, B: Backend>(&'a Server<'e, B>);
        impl<B: Backend> Drop for CloseGuard<'_, '_, B> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseGuard(&server);
        body(&server)
    });
    let report = server.report();
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ckks::{CkksParams, SimBackend};
    use halo_ir::op::TripCount;
    use halo_ir::FunctionBuilder;

    /// A compiled slotwise squaring-iteration program (`w ← w²`, `n`
    /// iterations): the type-matched pipeline inserts the rescales,
    /// modswitches, and head bootstraps, and the result has no rotations
    /// or mask constants, so it is batchable.
    fn slotwise_program(slots: usize, num_elems: usize) -> Arc<Function> {
        use halo_core::{compile, CompileOptions, CompilerConfig};
        let mut b = FunctionBuilder::new("square_iter", slots);
        let x = b.input_cipher("x");
        let r = b.for_loop(TripCount::dynamic("n"), &[x], num_elems, |b, args| {
            vec![b.mul(args[0], args[0])]
        });
        b.ret(&r);
        let src = b.finish();
        let mut opts = CompileOptions::new(CkksParams::test_small());
        opts.params.poly_degree = 2 * slots;
        let compiled = compile(&src, CompilerConfig::TypeMatched, &opts).expect("compiles");
        Arc::new(compiled.function)
    }

    /// An uncompiled level-free doubling loop (`w ← w + w`): cheap to
    /// execute, still batchable.
    fn cheap_program(slots: usize, num_elems: usize) -> Arc<Function> {
        let mut b = FunctionBuilder::new("double_iter", slots);
        let x = b.input_cipher("x");
        let r = b.for_loop(TripCount::dynamic("n"), &[x], num_elems, |b, args| {
            vec![b.add(args[0], args[0])]
        });
        b.ret(&r);
        Arc::new(b.finish())
    }

    /// A program with a rotation: never batchable.
    fn rotating_program(slots: usize) -> Arc<Function> {
        let mut b = FunctionBuilder::new("rotsum", slots);
        let x = b.input_cipher("x");
        let r = b.rotate(x, 1);
        let s = b.add(x, r);
        b.ret(&[s]);
        Arc::new(b.finish())
    }

    fn backend() -> SimBackend {
        SimBackend::exact(CkksParams::test_small())
    }

    #[test]
    fn profile_classifies_batchability() {
        let f = slotwise_program(32, 4);
        let info = profile(&f);
        let inputs = Inputs::new().cipher("x", vec![1.0; 4]).env("n", 2);
        assert_eq!(info.batchable_width(&f, &inputs), Ok(4));
        let rot = rotating_program(32);
        let rinfo = profile(&rot);
        assert_eq!(
            rinfo.batchable_width(&rot, &inputs),
            Err(Unbatchable::Rotates)
        );
    }

    #[test]
    fn same_program_jobs_coalesce_and_match_solo() {
        let be = backend();
        let prog = slotwise_program(32, 4);
        let jobs: Vec<Vec<f64>> = (0..8)
            .map(|j| (0..4).map(|t| 0.1 * (j * 4 + t) as f64 - 0.5).collect())
            .collect();
        // Solo references.
        let solo: Vec<Vec<Vec<f64>>> = jobs
            .iter()
            .map(|data| {
                Executor::new(&be)
                    .run(&prog, &Inputs::new().cipher("x", data.clone()).env("n", 3))
                    .expect("solo run")
                    .outputs
            })
            .collect();
        // One worker with a generous linger window: the worker waits for
        // the full compatible batch to accumulate, so coalescing is
        // deterministic (it breaks out the instant all 8 are queued).
        let config = ServeConfig {
            workers: 1,
            max_batch: 8,
            batch_window_ms: 2_000,
            ..ServeConfig::default()
        };
        let (tickets, report) = serve(&be, config, |srv| {
            let sess = srv.session("tenant-a");
            let tickets: Vec<Ticket> = jobs
                .iter()
                .map(|data| {
                    srv.submit(
                        sess,
                        &prog,
                        Inputs::new().cipher("x", data.clone()).env("n", 3),
                    )
                    .expect("admit")
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("job ok"))
                .collect::<Vec<_>>()
        });
        assert_eq!(report.jobs_done, 8);
        assert!(
            report.packed_batches >= 1,
            "same-program jobs must coalesce: {report:?}"
        );
        for (outcome, want) in tickets.iter().zip(&solo) {
            assert_eq!(
                &outcome.outputs, want,
                "batched output must be bit-identical to solo"
            );
        }
        // The linger window makes the coalesce deterministic: one batch
        // of all 8, each accounted a fraction of the shared execution.
        for o in &tickets {
            assert_eq!(o.batch_size, 8);
            assert!(o.share_us < o.exec_us);
        }
    }

    #[test]
    fn incompatible_jobs_do_not_coalesce() {
        let be = backend();
        let prog = cheap_program(32, 4);
        let config = ServeConfig {
            workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        };
        let (outcomes, report) = serve(&be, config, |srv| {
            let sess = srv.session("t");
            // Different env (trip count) ⇒ different compat key.
            let a = srv
                .submit(
                    sess,
                    &prog,
                    Inputs::new().cipher("x", vec![0.1; 4]).env("n", 2),
                )
                .unwrap();
            let b = srv
                .submit(
                    sess,
                    &prog,
                    Inputs::new().cipher("x", vec![0.2; 4]).env("n", 5),
                )
                .unwrap();
            (a.wait().unwrap(), b.wait().unwrap())
        });
        assert_eq!(outcomes.0.batch_size, 1);
        assert_eq!(outcomes.1.batch_size, 1);
        assert_eq!(report.packed_batches, 0);
    }

    #[test]
    fn quota_exhaustion_rejects_without_aborting() {
        let be = backend();
        let prog = cheap_program(32, 4);
        let (rejections, report) = serve(&be, ServeConfig::default(), |srv| {
            let sess = srv.session_with_quota("metered", Some(1.0));
            let t = srv
                .submit(
                    sess,
                    &prog,
                    Inputs::new().cipher("x", vec![0.1; 4]).env("n", 2),
                )
                .expect("first job fits the quota gate");
            let out = t.wait().expect("runs fine");
            assert!(out.share_us > 1.0, "the job overspends the tiny quota");
            // Now the quota is spent: admission rejects, cleanly.
            let mut rejections = 0;
            for _ in 0..3 {
                match srv.submit(
                    sess,
                    &prog,
                    Inputs::new().cipher("x", vec![0.1; 4]).env("n", 2),
                ) {
                    Err(AdmissionError::QuotaExhausted { .. }) => rejections += 1,
                    Err(other) => panic!("expected quota rejection, got {other}"),
                    Ok(_) => panic!("expected quota rejection, got admission"),
                }
            }
            rejections
        });
        assert_eq!(rejections, 3);
        assert_eq!(report.jobs_rejected, 3);
        assert_eq!(report.jobs_done, 1);
        assert_eq!(report.sessions[0].rejected, 3);
    }

    #[test]
    fn try_submit_rejects_only_at_queue_cap() {
        let be = backend();
        let prog = cheap_program(32, 4);
        // No workers draining while we fill: submit from inside `body`
        // with workers=1 but a queue we can outrun via cap=2.
        let config = ServeConfig {
            workers: 1,
            queue_cap: 2,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let ((), report) = serve(&be, config, |srv| {
            let sess = srv.session("bursty");
            let mut full = 0;
            let mut tickets = Vec::new();
            for _ in 0..50 {
                match srv.try_submit(
                    sess,
                    &prog,
                    Inputs::new().cipher("x", vec![0.3; 4]).env("n", 1),
                ) {
                    Ok(t) => tickets.push(t),
                    Err(AdmissionError::QueueFull { cap }) => {
                        assert_eq!(cap, 2);
                        full += 1;
                    }
                    Err(e) => panic!("unexpected admission error {e}"),
                }
            }
            for t in tickets {
                t.wait().expect("queued jobs complete");
            }
            // With a cap of 2 and 50 rapid-fire submissions, at least one
            // must have been bounced by the explicit cap (the worker
            // cannot drain that fast), and every admitted one completed.
            assert!(full > 0, "cap never hit");
        });
        assert_eq!(
            report.jobs_done + report.jobs_rejected,
            50,
            "every submission either completed or was rejected at the cap"
        );
        assert!(report.peak_queue_depth <= 2);
    }

    #[test]
    fn deadlines_flag_but_do_not_cancel() {
        let be = backend();
        let prog = cheap_program(32, 4);
        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let (outcome, report) = serve(&be, config, |srv| {
            let sess = srv.session("impatient");
            let t = srv
                .submit_with_deadline(
                    sess,
                    &prog,
                    Inputs::new().cipher("x", vec![0.2; 4]).env("n", 4),
                    0.5, // modeled µs — hopeless
                )
                .unwrap();
            t.wait().expect("deadline miss is not an error")
        });
        assert!(outcome.deadline_missed);
        assert!(!outcome.outputs.is_empty(), "the job still completed");
        assert_eq!(report.deadline_misses, 1);
        assert_eq!(report.jobs_done, 1);
    }

    #[test]
    fn program_hash_distinguishes_programs() {
        let a = slotwise_program(32, 4);
        let b = slotwise_program(32, 8);
        let c = rotating_program(32);
        assert_eq!(program_hash(&a), program_hash(&slotwise_program(32, 4)));
        assert_ne!(program_hash(&a), program_hash(&b));
        assert_ne!(program_hash(&a), program_hash(&c));
    }

    #[test]
    fn report_percentiles_are_ordered() {
        let r = ServeReport {
            latencies_us: vec![5.0, 1.0, 9.0, 3.0, 7.0],
            ..ServeReport::default()
        };
        assert_eq!(r.latency_percentile_us(50.0), 5.0);
        assert_eq!(r.latency_percentile_us(99.0), 9.0);
        assert!(r.latency_percentile_us(50.0) <= r.latency_percentile_us(99.0));
    }
}
