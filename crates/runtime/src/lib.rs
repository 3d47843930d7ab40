//! # halo-runtime — executing compiled HALO programs
//!
//! - [`exec`] — the interpreter: runs a (typed or traced) function over any
//!   [`halo_ckks::Backend`], resolving dynamic trip counts from a symbol
//!   environment and accounting modeled latency per executed op at one
//!   choke point. An [`ExecPolicy`] (retries, the emergency-bootstrap
//!   noise-budget guard, the loop-header resume budget) turns on
//!   self-healing, and the durable entry points
//!   ([`Executor::run_durable`], [`Executor::resume`]) persist and
//!   restore loop-header snapshots through the [`SnapshotStore`] they are
//!   given.
//! - [`reference`](mod@reference) — an exact plaintext executor for the traced source
//!   program, used as ground truth for RMSE measurements (Table 4).
//! - [`stats`] — per-run op counts, bootstrap counts (Tables 5 and 8), and
//!   modeled latency split into bootstrap vs other (Figure 4's hatched
//!   bars).
//! - [`serve`] — the multi-tenant serving layer: a bounded job queue and
//!   scoped worker pool over one shared backend that coalesces
//!   same-program requests into disjoint SIMD slot windows (one packed
//!   execution per batch), with per-session quotas, scope-safe per-op
//!   accounting, modeled deadlines, and degrade-don't-abort admission
//!   control (DESIGN.md §15).
//! - [`snapshot`] — the `halo-snap/1` codec: versioned, checksummed binary
//!   snapshots of a running program (cursor, value environment, RNG replay
//!   state) for durable crash-safe execution (DESIGN.md §12).
//! - [`store`] — where snapshots live: the atomic-rename [`DiskStore`]
//!   keeping K generations, the in-memory [`MemStore`], and the
//!   fault-injecting [`FaultyStore`] chaos decorator.
//! - [`remote`] — snapshots across machines: the [`ObjectStore`] surface,
//!   the deterministic flaky [`SimObjectStore`], and the resilient
//!   [`RemoteStore`] adapter (retry/backoff, hedged reads, circuit
//!   breaker, write-behind spill — DESIGN.md §14). A real-HTTP
//!   [`ObjectStore`] lives behind the off-by-default `remote-http`
//!   feature (the workspace builds offline).
//! - [`fleet`] — fenced lease-based fleet execution: one loop job sharded
//!   into snapshot-delimited legs across crash-prone executors sharing
//!   one object store, with lease claims, epoch fencing tokens, zombie
//!   write refusal, and bit-identical recovery (DESIGN.md §17).

pub mod exec;
pub mod fleet;
pub mod reference;
pub mod remote;
pub mod serve;
pub mod snapshot;
pub mod stats;
pub mod store;

#[cfg(feature = "remote-http")]
pub mod http;

pub use exec::{ExecError, ExecPolicy, Executor, Inputs, RtValue, RunError, RunOutput};
pub use fleet::{
    run_fleet, ClaimOutcome, FleetConfig, FleetError, FleetFaultSpec, FleetJob, FleetReport,
    LeaseRecord, LoopSchedule,
};
pub use reference::reference_run;
pub use remote::{
    ObjectError, ObjectErrorKind, ObjectReply, ObjectResult, ObjectStore, RemoteFaultReport,
    RemoteFaultSpec, RemotePolicy, RemoteStore, RemoteTelemetry, SimObjectStore,
};
pub use serve::{
    serve, AdmissionError, JobError, JobOutcome, JobResult, ServeConfig, ServeReport, Server,
    SessionId, SessionStats, Ticket, Unbatchable,
};
pub use snapshot::{
    decode_snapshot, encode_snapshot, peek_snapshot_cursor, DecodedSnapshot, SNAP_FORMAT,
};
pub use stats::{rmse, RunStats};
pub use store::{
    DiskStore, FaultyStore, MemStore, SnapshotStore, StoreFaultReport, StoreFaultSpec,
};

#[cfg(feature = "remote-http")]
pub use http::HttpObjectStore;
