//! # halo-core — the HALO compiler
//!
//! Implements the paper's contribution: loop-aware automatic bootstrapping
//! management for RNS-CKKS programs, plus the DaCapo full-unrolling baseline
//! it is evaluated against.
//!
//! ## Pipeline (paper §4.3)
//!
//! ```text
//! traced IR
//!   └─ peel          §5.1  encryption-status matching (Challenge A-1)
//!   └─ unroll        §6.2  level-aware unrolling       (Challenge B-2)
//!   └─ pack          §6.1  loop-carried packing        (Challenge B-1)
//!   └─ scale/levels  §5.2  modswitch floors + head bootstraps (A-2),
//!                    §5.3  in-body DaCapo placement on deep bodies
//!   └─ tune          §6.3  bootstrap target-level tuning (Challenge B-3)
//!   └─ dce + verify
//! ```
//!
//! The five evaluation configurations of §7 ([`config::CompilerConfig`])
//! are each a plan of these passes (`CompilerConfig::plan`), and
//! [`pipeline::compile`] compiles every plan down one path.
//!
//! ## Module map
//!
//! - [`config`] — compiler configurations and options.
//! - [`mod@autotune`] — per-program optimal-placement search over the joint
//!   (unroll × pack × peel × tune) space the heuristics fix by rule.
//! - [`levelsim`] — pure level/latency simulator (no IR mutation), used by
//!   bootstrap placement to evaluate candidate plans.
//! - [`scale`] — materializing scale management: inserts `rescale` and
//!   `modswitch`, performs the loop type-matching of Algorithm 1, and hooks
//!   in-body bootstrap placement.
//! - [`placement`] — DaCapo-style straight-line bootstrap placement
//!   (liveness, candidate filtering, dynamic programming).
//! - [`peel`] — first-iteration loop peeling.
//! - [`pack`] — loop-carried ciphertext packing.
//! - [`unroll`] — level-aware loop unrolling.
//! - [`tune`] — bootstrap target-level tuning.
//! - [`dacapo`] — full unrolling (the baseline's loop "support").
//! - [`dce`] — dead-code elimination.
//! - [`pipeline`] — configuration-driven driver + compile statistics.

pub mod autotune;
pub mod config;
pub mod cost_est;
pub mod dacapo;
pub mod dce;
pub mod error;
pub mod levelsim;
pub mod pack;
pub mod peel;
pub mod pipeline;
pub mod placement;
pub mod scale;
pub mod tune;
pub mod unroll;

pub use autotune::{
    autotune, BranchBoundTuner, DefaultPolicy, ExhaustiveTuner, PolicyHook, SearchSpace,
    TuneOutcome, TunePlan, Tuner, UnrollChoice,
};
pub use config::{CompileOptions, CompilerConfig};
pub use error::CompileError;
pub use pipeline::{
    compile, compile_with_hooks, CompileResult, Pass, PassRecord, PipelineHooks, ASSUMED_TRIPS,
};
