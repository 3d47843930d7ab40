//! Remote-fault campaign: runs the `linear` benchmark durably through a
//! `RemoteStore` over a seeded flaky `SimObjectStore`, one fault profile
//! at a time (timeouts, transient errors, torn uploads, read bit-rot,
//! unavailability windows, and the combined chaos mix), then resumes —
//! both from the store the run left behind and from a remote seeded with
//! only a *prefix* of the uploaded objects (the state a mid-run machine
//! loss strands in the object store). Every leg must complete with zero
//! aborts and decrypt bit-identically (exact backend) to an
//! uninterrupted run.
//!
//! ```sh
//! cargo run --release -p halo-bench --bin remote_chaos
//! HALO_CAMPAIGN_SEED=3 cargo run --release -p halo-bench --bin remote_chaos
//! ```
//!
//! Emits `results/REMOTE_REPORT.json` (schema `halo-remote-report/1`) and
//! exits non-zero unless the report passes its schema (see
//! `halo_bench::campaign`). Spill directories live under
//! `target/remote_chaos/`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use halo_bench::campaign::{self, Trial};
use halo_bench::json::{num, Json};
use halo_runtime::{
    DiskStore, ExecPolicy, Executor, RemoteFaultSpec, RemotePolicy, RemoteStore, RunStats,
    SimObjectStore,
};

/// Loop iterations the benchmark runs (one snapshot generation each).
const ITERS: u64 = 12;
/// Salt of this campaign's dataset seeds.
const SALT: u64 = 0x5E07;

/// The fault profiles, each exercising one failure class in isolation
/// plus the combined chaos mix (and a healthy control). `blackout` makes
/// outages long enough to exhaust retry budgets, so the circuit breaker
/// and the write-behind spill provably engage.
fn profiles() -> Vec<(&'static str, RemoteFaultSpec)> {
    vec![
        ("none", RemoteFaultSpec::none()),
        ("timeouts", RemoteFaultSpec::timeouts()),
        ("transients", RemoteFaultSpec::transients()),
        ("torn_uploads", RemoteFaultSpec::torn_uploads()),
        ("bit_rot", RemoteFaultSpec::bit_rot()),
        ("outages", RemoteFaultSpec::outages()),
        (
            "blackout",
            RemoteFaultSpec {
                unavail: 0.25,
                unavail_window: 40,
                ..RemoteFaultSpec::none()
            },
        ),
        ("chaos", RemoteFaultSpec::chaos()),
    ]
}

/// The campaign's resilience policy: defaults, but with the hedge
/// deadline tightened to the latency distribution's tail (base 800 µs +
/// up to 400 µs jitter) so slow-but-not-stalled first reads also hedge.
fn remote_policy() -> RemotePolicy {
    RemotePolicy {
        hedge_after_us: 1_000.0,
        ..RemotePolicy::default()
    }
}

/// Builds the resilient store for one campaign leg: flaky simulated
/// remote plus a fresh local spill directory.
fn build_store(
    spec: RemoteFaultSpec,
    sim_seed: u64,
    jitter_seed: u64,
    spill_dir: &Path,
) -> RemoteStore<SimObjectStore> {
    let _ = std::fs::remove_dir_all(spill_dir);
    RemoteStore::new(
        SimObjectStore::new(spec, sim_seed),
        remote_policy(),
        jitter_seed,
    )
    .with_spill(DiskStore::open(spill_dir, 0).expect("open spill store"))
}

/// One fault profile × one seed: the durable run plus both resume legs.
/// Returns the faults the remote injected across the three legs.
fn run_profile(
    profile: &str,
    spec: RemoteFaultSpec,
    seed: u64,
    base: &Path,
    baseline: &[Vec<u64>],
    trials: &mut Vec<Trial>,
) -> u64 {
    let (f, inputs) = campaign::workload(SALT, seed, ITERS);
    let dir = base.join(format!("{profile}-s{seed}"));
    let mut faults = 0;
    let mut leg = |kind: &str, store: &RemoteStore<SimObjectStore>| {
        let before = store.remote().report().total();
        let be = campaign::backend();
        let exec = Executor::with_policy(&be, ExecPolicy::resilient());
        let out = if kind == "run" {
            exec.run_durable(&f, &inputs, store)
        } else {
            exec.resume(&f, &inputs, store)
        };
        let injected = store.remote().report().total() - before;
        faults += injected;
        let none = RunStats::default();
        let stats = out.as_ref().map_or(&none, |o| &o.stats);
        let remote = &stats.remote;
        let fields = vec![
            ("profile", Json::Str(profile.into())),
            ("seed", num(seed as f64)),
            ("kind", Json::Str(kind.into())),
            ("faults_injected", num(injected as f64)),
            ("snapshot_writes", num(stats.snapshot_writes as f64)),
            ("remote_puts", num(remote.puts as f64)),
            ("remote_retries", num(remote.retries as f64)),
            ("remote_backoff_us", num(remote.backoff_us)),
            ("hedged_reads", num(remote.hedged_reads as f64)),
            ("breaker_opens", num(remote.breaker_opens as f64)),
            ("spilled_snapshots", num(remote.spilled_snapshots as f64)),
        ];
        let outputs = out.as_ref().map(|o| &o.outputs[..]);
        trials.push(Trial::new(fields, outputs, baseline));
    };

    // "run": the full durable run through the flaky remote; "resume":
    // continue from everything it left behind (remote objects + local
    // spill), as the same machine would after a crash.
    let store = build_store(spec, seed, seed, &dir.join("run-spill"));
    leg("run", &store);
    leg("resume", &store);

    // "resume_prefix": a *different* machine resumes with only the
    // oldest half of the run's uploaded objects present (the state a
    // mid-run machine loss strands in the object store) and an empty
    // local spill. Torn or missing newer generations must degrade to
    // fallback or a fresh start, never an abort.
    let objects = store.remote().objects();
    let prefix_store = build_store(
        spec,
        seed ^ 0x00D1_F00D,
        seed ^ 0x00D1_F00D,
        &dir.join("prefix-spill"),
    );
    for (key, bytes) in objects.iter().take(objects.len() / 2) {
        prefix_store.remote().insert_raw(key, bytes);
    }
    leg("resume_prefix", &prefix_store);
    faults
}

fn main() -> ExitCode {
    let start = Instant::now();
    let base = campaign::work_dir("remote_chaos");
    let seeds = campaign::seeds();
    let mut trials = Vec::new();
    let mut faults = 0;
    for &seed in &seeds {
        let (f, inputs) = campaign::workload(SALT, seed, ITERS);
        let baseline = campaign::baseline(&f, &inputs);
        for (profile, spec) in profiles() {
            faults += run_profile(profile, spec, seed, &base, &baseline, &mut trials);
        }
    }
    let header = vec![
        ("profiles", num(profiles().len() as f64)),
        ("faults_injected", num(faults as f64)),
    ];
    campaign::finish("halo-remote-report/1", ITERS, &seeds, header, trials, start)
}
