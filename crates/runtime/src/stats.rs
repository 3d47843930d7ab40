//! Run statistics: op counts, bootstrap counts, modeled latency.

use std::collections::BTreeMap;

use crate::remote::RemoteTelemetry;

/// Execution statistics for one program run.
///
/// The latency figures come from the calibrated cost model
/// ([`halo_ckks::CostModel`]), priced per *executed* op at its actual
/// level — so a loop body op run 40 times is counted 40 times, which is
/// what the paper's dynamic bootstrap counts (Table 5) and end-to-end
/// latencies (Figure 4) measure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Executed op count per mnemonic.
    pub op_counts: BTreeMap<&'static str, u64>,
    /// Number of `bootstrap` ops executed (Table 5 / Table 8).
    pub bootstrap_count: u64,
    /// Total modeled latency in microseconds.
    pub total_us: f64,
    /// Portion of [`RunStats::total_us`] spent in bootstrapping (the
    /// hatched part of Figure 4's bars).
    pub bootstrap_us: f64,

    // ------------------------------------------------------------------
    // Recovery telemetry (all zero unless an `ExecPolicy` enables the
    // corresponding mechanism *and* it fired).
    // ------------------------------------------------------------------
    /// Transient backend faults observed (whether or not retried).
    pub transient_faults: u64,
    /// Backend calls re-issued after a transient fault.
    pub retries: u64,
    /// Modeled retry backoff charged to [`RunStats::total_us`], in µs.
    pub retry_backoff_us: f64,
    /// Emergency bootstraps issued by the noise-budget guard — each one is
    /// a degradation event: the run survived but paid a bootstrap the
    /// compiler did not plan.
    pub emergency_bootstraps: u64,
    /// Level-aligning modswitches issued by the guard on mismatched
    /// binary-op operands (also degradation events).
    pub level_aligns: u64,
    /// Emergency rescales issued by the guard to normalize a pending-rescale
    /// (degree-2) value before an unplanned bootstrap could restore its
    /// level budget (also degradation events). The plan's own later rescale
    /// of that value then becomes a no-op.
    pub emergency_rescales: u64,
    /// Loop-header checkpoints taken (one per header when the policy
    /// allows resumes).
    pub checkpoints: u64,
    /// Modeled checkpoint serialization time charged to
    /// [`RunStats::total_us`], in µs.
    pub checkpoint_us: f64,
    /// Loop resumes from a checkpoint after a non-retryable fault.
    pub resumes: u64,

    // ------------------------------------------------------------------
    // Durable-execution telemetry (all zero unless the run went through
    // `Executor::run_durable` / `Executor::resume`, which write a snapshot
    // at every top-level loop header to the store they are given).
    // ------------------------------------------------------------------
    /// Snapshots successfully persisted to the [`SnapshotStore`]
    /// (failed writes — e.g. injected ENOSPC — are skipped, not counted).
    /// A fleet counts them where they land, in its fenced store, so the
    /// writes of preempted slices count too.
    ///
    /// [`SnapshotStore`]: crate::store::SnapshotStore
    pub snapshot_writes: u64,
    /// Total bytes of snapshot payload persisted.
    pub snapshot_bytes: u64,
    /// Wall-clock time spent encoding and writing disk snapshots, in µs
    /// (measured, unlike the modeled latencies; charged to
    /// [`RunStats::total_us`]).
    pub disk_snapshot_us: f64,
    /// Runs that started from an on-disk snapshot instead of iteration 0.
    pub resumes_from_disk: u64,
    /// Snapshot generations rejected during resume (truncated file,
    /// checksum mismatch, structural validation failure) before a good
    /// one — or a fresh start — was found.
    pub corrupt_snapshots_skipped: u64,
    /// Resumes whose `generations()` listing failed outright; the run
    /// degraded to a fresh start instead of erroring.
    pub resume_list_failures: u64,

    /// Remote-store telemetry gained over the run (all zero unless its
    /// snapshots went to a [`RemoteStore`], as every fleet's do).
    ///
    /// [`RemoteStore`]: crate::remote::RemoteStore
    pub remote: RemoteTelemetry,

    // ------------------------------------------------------------------
    // Hoisted-rotation telemetry (all zero unless the executor's rotation
    // fan-out peephole fired).
    // ------------------------------------------------------------------
    /// Rotation fan-out groups routed through `Backend::rotate_batch`.
    pub hoisted_batches: u64,
    /// Individual rotations served by those batches (each still counted
    /// under `rotate` in [`RunStats::op_counts`]).
    pub hoisted_rotations: u64,
    /// Modeled latency saved by hoisting versus pricing each rotation
    /// individually, in µs (already deducted from [`RunStats::total_us`]).
    pub hoist_saved_us: f64,

    // ------------------------------------------------------------------
    // Fleet-execution telemetry (all zero unless the run went through
    // `fleet::run_fleet`; see DESIGN.md §17).
    // ------------------------------------------------------------------
    /// Leg leases successfully claimed (read-back confirmed), including
    /// re-claims after expiry.
    pub legs_claimed: u64,
    /// Lease expiries the coordinator observed (one per expired epoch).
    pub leases_expired: u64,
    /// Publish attempts (snapshots or leg results) refused by the fence
    /// because the writer's lease epoch was no longer current — each one
    /// is a zombie write that never reached the store.
    pub zombie_writes_fenced: u64,
    /// Legs claimed under a successor epoch after a previous holder
    /// crashed, stalled, or went hollow.
    pub legs_reassigned: u64,
    /// Coordinator restarts that rebuilt the schedule view from the
    /// lease/snapshot/result records alone.
    pub coordinator_resumes: u64,
}

impl RunStats {
    /// Records one executed op.
    pub fn record(&mut self, mnemonic: &'static str, us: f64, is_bootstrap: bool) {
        *self.op_counts.entry(mnemonic).or_insert(0) += 1;
        self.total_us += us;
        if is_bootstrap {
            self.bootstrap_count += 1;
            self.bootstrap_us += us;
        }
    }

    /// Total executed ops.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.op_counts.values().sum()
    }

    /// Modeled latency in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.total_us / 1e6
    }

    /// Degradation events: repairs the executor performed that the
    /// compiled plan did not call for (emergency bootstraps and rescales,
    /// level-aligning modswitches).
    #[must_use]
    pub fn degradations(&self) -> u64 {
        self.emergency_bootstraps + self.level_aligns + self.emergency_rescales
    }

    /// Recovery overhead charged to [`RunStats::total_us`], in µs: modeled
    /// retry backoff (local and remote) and checkpoint serialization, plus
    /// the *measured* time spent writing durable disk snapshots.
    #[must_use]
    pub fn recovery_overhead_us(&self) -> f64 {
        self.retry_backoff_us + self.checkpoint_us + self.disk_snapshot_us + self.remote.backoff_us
    }

    /// Merges every counter of `other` into `self` — how the fleet
    /// coordinator aggregates per-executor, per-leg stats into one
    /// job-level view.
    ///
    /// Implemented with an exhaustive destructuring (no `..` rest
    /// pattern) on purpose: adding a field to [`RunStats`] without
    /// deciding how it merges fails to compile here, so a new counter can
    /// never silently vanish from fleet aggregates.
    pub fn absorb(&mut self, other: &RunStats) {
        let RunStats {
            op_counts,
            bootstrap_count,
            total_us,
            bootstrap_us,
            transient_faults,
            retries,
            retry_backoff_us,
            emergency_bootstraps,
            level_aligns,
            emergency_rescales,
            checkpoints,
            checkpoint_us,
            resumes,
            snapshot_writes,
            snapshot_bytes,
            disk_snapshot_us,
            resumes_from_disk,
            corrupt_snapshots_skipped,
            resume_list_failures,
            remote,
            hoisted_batches,
            hoisted_rotations,
            hoist_saved_us,
            legs_claimed,
            leases_expired,
            zombie_writes_fenced,
            legs_reassigned,
            coordinator_resumes,
        } = other;
        for (mnemonic, n) in op_counts {
            *self.op_counts.entry(mnemonic).or_insert(0) += n;
        }
        self.bootstrap_count += bootstrap_count;
        self.total_us += total_us;
        self.bootstrap_us += bootstrap_us;
        self.transient_faults += transient_faults;
        self.retries += retries;
        self.retry_backoff_us += retry_backoff_us;
        self.emergency_bootstraps += emergency_bootstraps;
        self.level_aligns += level_aligns;
        self.emergency_rescales += emergency_rescales;
        self.checkpoints += checkpoints;
        self.checkpoint_us += checkpoint_us;
        self.resumes += resumes;
        self.snapshot_writes += snapshot_writes;
        self.snapshot_bytes += snapshot_bytes;
        self.disk_snapshot_us += disk_snapshot_us;
        self.resumes_from_disk += resumes_from_disk;
        self.corrupt_snapshots_skipped += corrupt_snapshots_skipped;
        self.resume_list_failures += resume_list_failures;
        self.remote.absorb(remote);
        self.hoisted_batches += hoisted_batches;
        self.hoisted_rotations += hoisted_rotations;
        self.hoist_saved_us += hoist_saved_us;
        self.legs_claimed += legs_claimed;
        self.leases_expired += leases_expired;
        self.zombie_writes_fenced += zombie_writes_fenced;
        self.legs_reassigned += legs_reassigned;
        self.coordinator_resumes += coordinator_resumes;
    }
}

/// Root-mean-square error between two vectors over their common prefix.
///
/// # Panics
///
/// Panics if either slice is empty.
#[must_use]
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    assert!(n > 0, "rmse needs non-empty inputs");
    let sum: f64 = a[..n]
        .iter()
        .zip(&b[..n])
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    (sum / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = RunStats::default();
        s.record("multcc", 1000.0, false);
        s.record("bootstrap", 300_000.0, true);
        s.record("multcc", 1000.0, false);
        assert_eq!(s.op_counts["multcc"], 2);
        assert_eq!(s.bootstrap_count, 1);
        assert_eq!(s.total_ops(), 3);
        assert!((s.total_us - 302_000.0).abs() < 1e-9);
        assert!((s.bootstrap_us - 300_000.0).abs() < 1e-9);
        assert!((s.total_seconds() - 0.302).abs() < 1e-12);
    }

    /// Every field set to a distinct nonzero value via a full struct
    /// literal — no `..Default::default()` — so a newly added counter
    /// breaks this test's compilation until it is added here *and* to
    /// `absorb` (which itself destructures exhaustively).
    fn distinct() -> RunStats {
        RunStats {
            op_counts: BTreeMap::from([("multcc", 2u64), ("bootstrap", 3u64)]),
            bootstrap_count: 5,
            total_us: 7.0,
            bootstrap_us: 11.0,
            transient_faults: 13,
            retries: 17,
            retry_backoff_us: 19.0,
            emergency_bootstraps: 23,
            level_aligns: 29,
            emergency_rescales: 31,
            checkpoints: 37,
            checkpoint_us: 41.0,
            resumes: 43,
            snapshot_writes: 47,
            snapshot_bytes: 53,
            disk_snapshot_us: 59.0,
            resumes_from_disk: 61,
            corrupt_snapshots_skipped: 67,
            resume_list_failures: 71,
            remote: RemoteTelemetry {
                puts: 73,
                retries: 79,
                backoff_us: 83.0,
                hedged_reads: 89,
                breaker_opens: 97,
                spilled_snapshots: 101,
            },
            hoisted_batches: 103,
            hoisted_rotations: 107,
            hoist_saved_us: 109.0,
            legs_claimed: 113,
            leases_expired: 127,
            zombie_writes_fenced: 131,
            legs_reassigned: 137,
            coordinator_resumes: 139,
        }
    }

    #[test]
    fn absorb_covers_every_field() {
        // Absorbing into a default must reproduce the source exactly:
        // if any field were dropped from the merge, the asserted
        // equality would catch it at its distinct value.
        let src = distinct();
        let mut agg = RunStats::default();
        agg.absorb(&src);
        assert_eq!(agg, src, "absorb into default must copy every field");

        // Absorbing twice must double every numeric field (and merge
        // op_counts entry-wise).
        agg.absorb(&src);
        assert_eq!(agg.op_counts["multcc"], 4);
        assert_eq!(agg.op_counts["bootstrap"], 6);
        assert_eq!(agg.bootstrap_count, 10);
        assert!((agg.total_us - 14.0).abs() < 1e-12);
        assert_eq!(agg.zombie_writes_fenced, 262);
        assert_eq!(agg.coordinator_resumes, 278);
        assert_eq!(agg.total_ops(), 2 * src.total_ops());
    }

    #[test]
    fn absorb_merges_disjoint_op_counts() {
        let mut a = RunStats::default();
        a.record("rotate", 1.0, false);
        let mut b = RunStats::default();
        b.record("addcc", 2.0, false);
        a.absorb(&b);
        assert_eq!(a.op_counts["rotate"], 1);
        assert_eq!(a.op_counts["addcc"], 1);
        assert!((a.total_us - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        // Common-prefix semantics.
        assert_eq!(rmse(&[1.0], &[1.0, 99.0]), 0.0);
    }
}
