//! Fleet-execution integration: one loop job sharded across a simulated
//! fleet of crash-prone executors sharing a [`SimObjectStore`], end to
//! end through lease claims, epoch fencing, and snapshot handoff. The
//! headline invariant everywhere: whatever the fleet survives, its
//! outputs are **bit-identical** to a solo uninterrupted run on the same
//! exact backend — recovery is a compiler/runtime contract, not luck.
//!
//! Also hosts the lease-boundary edge proptests (ISSUE 10 satellite):
//! an availability outage covering a claim at the exact lease-expiry
//! tick, and a torn lease-claim upload, must both yield "lease not
//! acquired" — never a half-claimed leg.

use std::collections::HashMap;

use halo_fhe::prelude::*;
use halo_fhe::runtime::fleet::{self, lease_key, try_claim, LEASE_PREFIX};
use halo_fhe::runtime::{decode_snapshot, run_fleet, LoopSchedule};
use proptest::prelude::*;

const N: usize = 32; // 16 slots
const LEVELS: u32 = 8;
/// HALO splits the dynamic loop at the bootstrap interval (8): 20
/// iterations compile to a 2-trip chunk loop plus a 4-trip remainder
/// loop — 6 global loop headers, which the default `leg_len = 2` cuts
/// into 3 legs whose boundaries straddle both compiled loops.
const ITERS: u64 = 20;

fn params() -> CkksParams {
    CkksParams {
        poly_degree: N,
        max_level: LEVELS,
        rf_bits: 40,
    }
}

/// `w ← w·x + 0.1` iterated dynamically — the same durable workload as
/// `tests/remote_store.rs`, so leg-handoff snapshots carry real mid-loop
/// ciphertexts and RNG replay state.
fn program() -> Function {
    let mut b = FunctionBuilder::new("fleet_loop", N / 2);
    let x = b.input_cipher("x");
    let w0 = b.input_cipher("w0");
    let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
        let p = b.mul(args[0], x);
        let c = b.const_splat(0.1);
        vec![b.add(p, c)]
    });
    b.ret(&r);
    let src = b.finish();
    compile(&src, CompilerConfig::Halo, &CompileOptions::new(params()))
        .expect("compiles")
        .function
}

/// Inputs *without* the trip binding — the fleet binds the trip itself.
fn base_inputs() -> Inputs {
    Inputs::new().cipher("x", vec![0.8]).cipher("w0", vec![1.0])
}

fn make_backend() -> SimBackend {
    SimBackend::exact(params())
}

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The solo uninterrupted run every fleet schedule must match bit-for-bit.
fn baseline(f: &Function) -> Vec<Vec<u64>> {
    let be = make_backend();
    let out = Executor::with_policy(&be, ExecPolicy::default())
        .run(f, &base_inputs().env("n", ITERS))
        .expect("baseline runs");
    bits(&out.outputs)
}

fn run(f: &Function, store: &SimObjectStore, faults: &FleetFaultSpec, seed: u64) -> FleetReport {
    let job = FleetJob {
        function: f,
        inputs: &base_inputs(),
        trip_symbols: &["n"],
        iters: ITERS,
    };
    run_fleet(
        &job,
        store,
        &FleetConfig::default(),
        faults,
        seed,
        make_backend,
    )
    .expect("fleet completes")
}

#[test]
fn healthy_fleet_is_bit_identical_to_solo_run() {
    let f = program();
    let expect = baseline(&f);
    let store = SimObjectStore::new(RemoteFaultSpec::none(), 0xF1);
    let report = run(&f, &store, &FleetFaultSpec::none(), 1);
    assert_eq!(bits(&report.outputs), expect);
    assert_eq!(report.legs, 3);
    assert!(
        report.stats.legs_claimed >= 3,
        "every leg claimed at least once"
    );
    assert_eq!(report.stats.zombie_writes_fenced, 0);
    assert_eq!(report.executor_crashes, 0);
    assert_eq!(report.stats.legs_reassigned, 0);
    // Without a spill store every snapshot write is a remote put, and
    // the writes of preempted slices count too.
    assert!(report.stats.snapshot_writes > 0);
    assert_eq!(report.stats.snapshot_writes, report.stats.remote.puts);
}

#[test]
fn zombie_drill_fences_the_stale_write_and_stays_bit_identical() {
    let f = program();
    let expect = baseline(&f);
    for seed in [1u64, 2, 3] {
        let store = SimObjectStore::new(RemoteFaultSpec::none(), 0xD0 ^ seed);
        let report = run(&f, &store, &FleetFaultSpec::zombie_drill(), seed);
        assert_eq!(bits(&report.outputs), expect, "seed {seed}");
        assert!(
            report.stats.zombie_writes_fenced >= 1,
            "seed {seed}: zombie fenced"
        );
        assert!(
            report.stats.leases_expired >= 1,
            "seed {seed}: expiry observed"
        );
        assert!(
            report.stats.legs_reassigned >= 1,
            "seed {seed}: leg reassigned"
        );
        assert!(
            report.stats.coordinator_resumes >= 1,
            "seed {seed}: coordinator restarted"
        );
        assert!(report.executor_stalls >= 1, "seed {seed}: stall injected");

        // The fencing invariant, checked against the store itself: a
        // snapshot published under an expired lease is never
        // newest-intact. The zombie's write carried an *older* global
        // header index than its successor's frontier, so if it had
        // slipped through it would sort newest (a higher generation band
        // is impossible — its epoch is lower — but a raw put would still
        // be a fresher key).
        let env: HashMap<String, u64> = HashMap::from([("n".to_string(), ITERS)]);
        let sched = LoopSchedule::of(&f, &env).expect("schedule evaluates");
        let probe = make_backend();
        let mut snaps: Vec<(u64, u64)> = store
            .objects()
            .into_iter()
            .filter_map(|(key, bytes)| {
                let gen = u64::from_str_radix(key.strip_prefix("snap/")?, 16).ok()?;
                let snap = decode_snapshot(&probe, &f.name, &bytes).ok()?;
                Some((gen, sched.header_index(snap.loop_op, snap.iter)?))
            })
            .collect();
        snaps.sort_unstable();
        let newest = snaps.last().expect("snapshots survive").1;
        let max_header = snaps.iter().map(|&(_, p)| p).max().unwrap();
        assert_eq!(
            newest, max_header,
            "seed {seed}: newest intact snapshot must carry the maximal header index"
        );
    }
}

#[test]
fn kill_storm_crashes_executors_but_recovers_bit_identically() {
    let f = program();
    let expect = baseline(&f);
    let mut crashes = 0;
    for seed in [1u64, 2, 3] {
        let store = SimObjectStore::new(RemoteFaultSpec::none(), 0xA5 ^ seed);
        let report = run(&f, &store, &FleetFaultSpec::kill_storm(), seed);
        assert_eq!(bits(&report.outputs), expect, "seed {seed}");
        crashes += report.executor_crashes;
    }
    assert!(
        crashes >= 1,
        "a 25% kill rate must produce at least one crash"
    );
}

#[test]
fn chaotic_store_plus_mixed_fleet_faults_stay_bit_identical() {
    let f = program();
    let expect = baseline(&f);
    for seed in [1u64, 2] {
        let store = SimObjectStore::new(RemoteFaultSpec::chaos(), 0xC4 ^ seed);
        let report = run(&f, &store, &FleetFaultSpec::mixed(), seed);
        assert_eq!(bits(&report.outputs), expect, "seed {seed}");
    }
}

#[test]
fn coordinator_restarts_resume_from_store_records_alone() {
    let f = program();
    let expect = baseline(&f);
    let store = SimObjectStore::new(RemoteFaultSpec::none(), 0xB7);
    let faults = FleetFaultSpec {
        p_coord_restart: 0.3,
        ..FleetFaultSpec::none()
    };
    let report = run(&f, &store, &faults, 5);
    assert_eq!(bits(&report.outputs), expect);
    assert!(report.stats.coordinator_resumes >= 1);
}

// ----------------------------------------------------------------------
// Lease-boundary edges (satellite: seeded proptests).
// ----------------------------------------------------------------------

fn claim_store(sim: &SimObjectStore) -> RemoteStore<&SimObjectStore> {
    RemoteStore::new(sim, RemotePolicy::default(), 0x1EA5E)
}

/// Copies a store's object contents into a fresh, fault-free store —
/// the world as a later, healthy claimant sees it.
fn healthy_copy(sim: &SimObjectStore) -> SimObjectStore {
    let copy = SimObjectStore::new(RemoteFaultSpec::none(), 1);
    for (key, bytes) in sim.objects() {
        copy.insert_raw(&key, &bytes);
    }
    copy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An availability outage that covers the claim attempt at the exact
    /// lease-expiry tick must yield "not acquired" — expiry alone never
    /// grants a lease; only a confirmed read-back does. Once the outage
    /// clears, the same claim at the same tick succeeds as a
    /// reassignment under a strictly higher epoch.
    #[test]
    fn outage_ending_at_expiry_tick_never_half_claims(
        seed in 1u64..64,
        ttl in 1u64..12,
        window in 1u32..200,
    ) {
        let granted = 10u64;
        let expiry = granted + ttl;
        let dark = SimObjectStore::new(
            RemoteFaultSpec { unavail: 1.0, unavail_window: window, ..RemoteFaultSpec::none() },
            seed,
        );
        let prior = fleet::encode_lease(&LeaseRecord {
            leg: 0,
            epoch: 3,
            holder: 1,
            granted_tick: granted,
            expires_tick: expiry,
            fence: 3 * fleet::FENCE_STRIDE,
        });
        dark.insert_raw(&lease_key(0), &prior);

        // The claim lands on the first claimable tick — the expiry tick
        // itself — while the store is dark.
        let outcome = try_claim(&claim_store(&dark), 0, 2, expiry, ttl);
        prop_assert_eq!(outcome, ClaimOutcome::NotAcquired);
        // Nothing was half-claimed: the prior record is untouched.
        let (_, bytes) = dark.objects().into_iter()
            .find(|(k, _)| k == &lease_key(0)).expect("record survives");
        prop_assert_eq!(bytes, prior.clone());

        // The outage ends; the identical claim at the identical tick now
        // confirms, as a reassignment under a higher epoch.
        let lit = healthy_copy(&dark);
        match try_claim(&claim_store(&lit), 0, 2, expiry, ttl) {
            ClaimOutcome::Claimed { lease, reassigned } => {
                prop_assert!(reassigned);
                prop_assert!(lease.epoch > 3);
                prop_assert_eq!(lease.holder, 2);
            }
            other => prop_assert!(false, "expected Claimed, got {:?}", other),
        }
    }

    /// A torn lease-claim upload must never half-claim: either the claim
    /// is confirmed by read-back, or whatever the tear left behind fails
    /// to decode and the leg stays claimable by anyone.
    #[test]
    fn torn_claim_upload_never_half_claims(
        seed in 1u64..64,
        torn_pct in 50u32..=100,
    ) {
        let sim = SimObjectStore::new(
            RemoteFaultSpec { torn_upload: f64::from(torn_pct) / 100.0, ..RemoteFaultSpec::none() },
            seed,
        );
        let store = claim_store(&sim);
        let outcome = try_claim(&store, 0, 7, 0, 4);
        let record = sim.objects().into_iter()
            .find(|(k, _)| k.starts_with(LEASE_PREFIX))
            .map(|(_, bytes)| bytes);
        match outcome {
            ClaimOutcome::Claimed { lease, .. } => {
                // Confirmed: the record on the store decodes to exactly
                // this claim.
                let decoded = fleet::decode_lease(&record.expect("confirmed record exists"));
                prop_assert_eq!(decoded, Ok(lease));
                prop_assert_eq!(lease.holder, 7);
            }
            ClaimOutcome::NotAcquired => {
                // Not acquired: nothing on the store may decode as a
                // valid lease — a torn prefix never passes the checksum.
                if let Some(bytes) = record {
                    prop_assert!(fleet::decode_lease(&bytes).is_err());
                }
                // And the leg stays claimable once the fault clears.
                let lit = healthy_copy(&sim);
                let reclaimed = matches!(
                    try_claim(&claim_store(&lit), 0, 9, 0, 4),
                    ClaimOutcome::Claimed { .. }
                );
                prop_assert!(reclaimed, "leg must stay claimable after a torn claim");
            }
            ClaimOutcome::Held => prop_assert!(false, "no competing holder exists"),
        }
    }
}
