//! # halo-fhe — facade crate for the HALO reproduction
//!
//! Re-exports the workspace crates so that examples and integration tests
//! can address the whole system through one dependency:
//!
//! - [`ir`] — the region-based SSA IR and tracing frontend.
//! - [`ckks`] — the RNS-CKKS substrate (exact toy backend, simulation
//!   backend, noise and latency cost models).
//! - [`compiler`] — the HALO passes and the DaCapo baseline.
//! - [`runtime`] — the interpreter with latency accounting.
//! - [`ml`] — the seven ML benchmark programs and approximation library.
//!
//! See `README.md` for a tour and `examples/quickstart.rs` for a complete
//! compile-and-run walkthrough.

pub use halo_ckks as ckks;
pub use halo_core as compiler;
pub use halo_ir as ir;
pub use halo_ml as ml;
pub use halo_runtime as runtime;

/// The one-stop API: everything a typical compile-and-run program needs.
///
/// ```no_run
/// use halo_fhe::prelude::*;
/// ```
pub mod prelude {
    pub use halo_ckks::backend::{Backend, BackendError};
    pub use halo_ckks::fault::{FaultInjectingBackend, FaultReport, FaultSpec};
    pub use halo_ckks::params::CkksParams;
    pub use halo_ckks::sim::{NoiseProfile, SimBackend};
    pub use halo_ckks::snapshot::SnapshotBackend;
    pub use halo_ckks::toy::{
        reduction_mode, set_reduction_mode, Decomposer, HoistedDigits, LimbMut, LimbRef, PolyView,
        ReductionMode, RnsContext, RnsPoly, ShoupPoly, ToyBackend,
    };
    pub use halo_core::{compile, CompileOptions, CompileResult, CompilerConfig};
    pub use halo_ir::op::TripCount;
    pub use halo_ir::{Function, FunctionBuilder};
    pub use halo_runtime::{
        reference_run, rmse, run_fleet, serve, AdmissionError, ClaimOutcome, DiskStore, ExecError,
        ExecPolicy, Executor, FaultyStore, FleetConfig, FleetError, FleetFaultSpec, FleetJob,
        FleetReport, Inputs, JobError, JobOutcome, LeaseRecord, LoopSchedule, MemStore,
        ObjectStore, RemoteFaultSpec, RemotePolicy, RemoteStore, RemoteTelemetry, RunError,
        RunStats, ServeConfig, ServeReport, Server, SessionId, SimObjectStore, SnapshotStore,
        StoreFaultSpec, Ticket,
    };
}
