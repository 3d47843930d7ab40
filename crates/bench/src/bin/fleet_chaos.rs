//! Fleet-fault campaign: shards the `linear` benchmark's loop job across
//! a simulated fleet of three crash-prone executors sharing one seeded
//! flaky `SimObjectStore`, one fault profile at a time — store faults in
//! isolation (timeouts, transients, torn uploads, bit-rot, outages, the
//! chaos mix), fleet faults in isolation (the mid-leg kill storm, the
//! scripted zombie drill), and the combined worst case (chaotic store
//! plus mixed fleet faults). Every surviving schedule must decrypt
//! bit-identically (exact backend) to a solo uninterrupted run of the
//! same program, and the campaign as a whole must provably exercise the
//! failure machinery: a fenced zombie write, a lease expiry with
//! reassignment, an executor crash, and a coordinator resume.
//!
//! ```sh
//! cargo run --release -p halo-bench --bin fleet_chaos
//! HALO_CAMPAIGN_SEED=3 cargo run --release -p halo-bench --bin fleet_chaos
//! ```
//!
//! Emits `results/FLEET_REPORT.json` (schema `halo-fleet-report/1`) and
//! exits non-zero unless the report passes its schema (see
//! `halo_bench::campaign`).

use std::process::ExitCode;
use std::time::Instant;

use halo_bench::campaign::{self, Trial};
use halo_bench::json::{num, Json};
use halo_runtime::{
    run_fleet, FleetConfig, FleetFaultSpec, FleetJob, FleetReport, RemoteFaultSpec, SimObjectStore,
};

/// Source-loop iterations the job runs. HALO splits the dynamic loop at
/// the bootstrap interval, so the compiled program carries a chunk loop
/// plus a remainder loop; the fleet's leg schedule straddles both.
const ITERS: u64 = 20;
/// Salt of this campaign's dataset seeds.
const SALT: u64 = 0xF1EE;

/// The fault profiles: store faults alone, fleet faults alone, and the
/// combined worst case. `zombie_drill` deterministically produces a
/// fenced zombie write, a lease expiry, a leg reassignment, and a
/// coordinator resume on every seed; `kill_storm` supplies the executor
/// crashes.
fn profiles() -> Vec<(&'static str, RemoteFaultSpec, FleetFaultSpec)> {
    vec![
        ("healthy", RemoteFaultSpec::none(), FleetFaultSpec::none()),
        (
            "store_timeouts",
            RemoteFaultSpec::timeouts(),
            FleetFaultSpec::none(),
        ),
        (
            "store_transients",
            RemoteFaultSpec::transients(),
            FleetFaultSpec::none(),
        ),
        (
            "store_torn_uploads",
            RemoteFaultSpec::torn_uploads(),
            FleetFaultSpec::none(),
        ),
        (
            "store_bit_rot",
            RemoteFaultSpec::bit_rot(),
            FleetFaultSpec::none(),
        ),
        (
            "store_outages",
            RemoteFaultSpec::outages(),
            FleetFaultSpec::none(),
        ),
        (
            "store_chaos",
            RemoteFaultSpec::chaos(),
            FleetFaultSpec::none(),
        ),
        (
            "kill_storm",
            RemoteFaultSpec::none(),
            FleetFaultSpec::kill_storm(),
        ),
        (
            "mixed_chaos",
            RemoteFaultSpec::chaos(),
            FleetFaultSpec::mixed(),
        ),
        (
            "zombie_drill",
            RemoteFaultSpec::none(),
            FleetFaultSpec::zombie_drill(),
        ),
    ]
}

/// Fleet topology of the campaign: three executors, two global loop
/// headers per leg, and a slice quantum wide enough that any executor
/// can cross a leg boundary of the `linear` workload in one tick.
fn config() -> FleetConfig {
    FleetConfig {
        slice_ops: 4096,
        ..FleetConfig::default()
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let seeds = campaign::seeds();
    let cfg = config();
    let mut trials = Vec::new();
    for &seed in &seeds {
        // The fleet binds every trip symbol to ITERS itself, so every
        // slice runs the program the baseline runs.
        let (f, inputs) = campaign::workload(SALT, seed, ITERS);
        let baseline = campaign::baseline(&f, &inputs);
        for (idx, (profile, store_spec, fleet_spec)) in profiles().into_iter().enumerate() {
            let store = SimObjectStore::new(store_spec, 0xF1EE7 ^ seed ^ ((idx as u64) << 8));
            let job = FleetJob {
                function: &f,
                inputs: &inputs,
                trip_symbols: &["iters"],
                iters: ITERS,
            };
            let out = run_fleet(&job, &store, &cfg, &fleet_spec, seed, campaign::backend);
            let report = out.as_ref().ok();
            let count = |get: fn(&FleetReport) -> u64| num(report.map_or(0, get) as f64);
            let fields = vec![
                ("profile", Json::Str(profile.into())),
                ("seed", num(seed as f64)),
                ("legs", count(|r| u64::from(r.legs))),
                ("ticks", count(|r| r.ticks)),
                ("legs_claimed", count(|r| r.stats.legs_claimed)),
                ("leases_expired", count(|r| r.stats.leases_expired)),
                (
                    "zombie_writes_fenced",
                    count(|r| r.stats.zombie_writes_fenced),
                ),
                ("legs_reassigned", count(|r| r.stats.legs_reassigned)),
                (
                    "coordinator_resumes",
                    count(|r| r.stats.coordinator_resumes),
                ),
                ("executor_crashes", count(|r| r.executor_crashes)),
                ("executor_stalls", count(|r| r.executor_stalls)),
                ("snapshot_writes", count(|r| r.stats.snapshot_writes)),
                ("remote_puts", count(|r| r.stats.remote_puts)),
                ("store_faults", num(store.report().total() as f64)),
            ];
            let outputs = out.as_ref().map(|r| &r.outputs[..]);
            trials.push(Trial::new(fields, outputs, &baseline));
        }
    }
    let header = vec![
        ("profiles", num(profiles().len() as f64)),
        ("executors", num(f64::from(cfg.executors))),
        ("leg_len", num(cfg.leg_len as f64)),
    ];
    campaign::finish("halo-fleet-report/1", ITERS, &seeds, header, trials, start)
}
