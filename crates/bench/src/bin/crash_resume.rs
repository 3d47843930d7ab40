//! Process-level crash-resume campaign: spawns a child process running the
//! `linear` benchmark under durable execution, SIGKILLs it at a matrix of
//! snapshot generations, resumes from the on-disk store, and asserts the
//! final decrypted output is bit-identical (exact backend) to an
//! uninterrupted run. A corruption leg damages the newest generation file
//! and asserts resume falls back to the previous generation.
//!
//! ```sh
//! cargo run --release -p halo-bench --bin crash_resume
//! HALO_CAMPAIGN_SEED=3 cargo run --release -p halo-bench --bin crash_resume
//! ```
//!
//! Emits `results/CRASH_REPORT.json` (schema `halo-crash-report/1`) and
//! exits non-zero unless the report passes its schema (see
//! `halo_bench::campaign`). Work directories live under
//! `target/crash_resume/`; the child is this same binary re-invoked with
//! `--child`, slowed to one snapshot per [`SNAP_DELAY`] so the parent can
//! aim its kill.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use halo_bench::campaign::{self, Trial};
use halo_bench::json::{num, Json};
use halo_runtime::{DiskStore, ExecPolicy, Executor, RunStats, SnapshotStore};

/// Loop iterations the benchmark runs (one snapshot generation each).
const ITERS: u64 = 12;
/// Snapshot generations after which the child is killed.
const KILL_POINTS: [u64; 6] = [1, 2, 4, 6, 8, 10];
/// Generations the store retains (≥ 2 so fallback has somewhere to go).
const KEEP: usize = 3;
/// Salt of this campaign's dataset seeds.
const SALT: u64 = 0xC4A5;
/// Wall time of every child snapshot write: the window the parent uses to
/// land its SIGKILL between generations rather than straddling the whole
/// run in one scheduler tick.
const SNAP_DELAY: Duration = Duration::from_millis(40);

/// The disk store, with every snapshot write slowed by [`SNAP_DELAY`].
struct DelayStore(DiskStore);

impl SnapshotStore for DelayStore {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        std::thread::sleep(SNAP_DELAY);
        self.0.put(bytes)
    }
    fn generations(&self) -> io::Result<Vec<u64>> {
        self.0.generations()
    }
    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        self.0.get(generation)
    }
}

/// Child mode: run the workload durably into `dir`, one delayed snapshot
/// per loop iteration, until killed (or done).
fn run_child(dir: &Path, seed: u64) -> ! {
    let (f, inputs) = campaign::workload(SALT, seed, ITERS);
    let store = DelayStore(DiskStore::open(dir, KEEP).expect("open store"));
    Executor::with_policy(&campaign::backend(), ExecPolicy::resilient())
        .run_durable(&f, &inputs, &store)
        .expect("child run");
    std::process::exit(0);
}

/// Resume in-process from `dir` and compare against the baseline bits.
fn resume(kind: &str, dir: &Path, seed: u64, kill_point: u64, baseline: &[Vec<u64>]) -> Trial {
    let (f, inputs) = campaign::workload(SALT, seed, ITERS);
    let store = DiskStore::open(dir, KEEP).expect("open store");
    let generations_at_resume = store.generations().map_or(0, |g| g.len());
    let out = Executor::with_policy(&campaign::backend(), ExecPolicy::resilient())
        .resume(&f, &inputs, &store);
    let none = RunStats::default();
    let stats = out.as_ref().map_or(&none, |o| &o.stats);
    let fields = vec![
        ("kind", Json::Str(kind.into())),
        ("seed", num(seed as f64)),
        ("kill_point", num(kill_point as f64)),
        ("generations_at_resume", num(generations_at_resume as f64)),
        ("resumes_from_disk", num(stats.resumes_from_disk as f64)),
        (
            "corrupt_snapshots_skipped",
            num(stats.corrupt_snapshots_skipped as f64),
        ),
    ];
    Trial::new(fields, out.as_ref().map(|o| &o.outputs[..]), baseline)
}

/// A fresh trial directory under `base`.
fn trial_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trial dir");
    dir
}

/// Kill trial: spawn the child, wait for `kill_point` generations, SIGKILL
/// it, resume from disk.
fn kill_trial(base: &Path, kill_point: u64, seed: u64, baseline: &[Vec<u64>]) -> Trial {
    let dir = trial_dir(base, &format!("kill-k{kill_point}-s{seed}"));
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["--child", "--dir"])
        .arg(&dir)
        .args(["--seed", &seed.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child");

    // Generation numbers grow monotonically even though pruning caps the
    // file count at KEEP, so poll the newest number, not the count.
    let store = DiskStore::open(&dir, KEEP).expect("open store");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let newest = store
            .generations()
            .ok()
            .and_then(|g| g.last().copied())
            .unwrap_or(0);
        if newest >= kill_point || Instant::now() > deadline {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            break; // child finished before the kill point
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill(); // SIGKILL on unix: no destructors, no flushing
    let _ = child.wait();

    resume("kill", &dir, seed, kill_point, baseline)
}

/// Corruption trial: run durably to completion in-process, flip a byte in
/// the newest generation file, resume — must fall back, not abort.
fn corrupt_trial(base: &Path, seed: u64, baseline: &[Vec<u64>]) -> Trial {
    let dir = trial_dir(base, &format!("corrupt-s{seed}"));
    let (f, inputs) = campaign::workload(SALT, seed, ITERS);
    let store = DiskStore::open(&dir, KEEP).expect("open store");
    Executor::with_policy(&campaign::backend(), ExecPolicy::resilient())
        .run_durable(&f, &inputs, &store)
        .expect("uninterrupted durable run");

    let newest = *store
        .generations()
        .expect("generations")
        .last()
        .expect("at least one generation");
    let path = dir.join(format!("snap-{newest:016x}.halosnap"));
    let mut bytes = std::fs::read(&path).expect("read newest generation");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted generation");

    resume("corrupt", &dir, seed, newest, baseline)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--child") {
        let arg = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .unwrap_or_else(|| panic!("--child requires {flag}"))
        };
        let seed = arg("--seed").parse().expect("--seed takes a number");
        run_child(Path::new(arg("--dir")), seed);
    }

    let start = Instant::now();
    let base = campaign::work_dir("crash_resume");
    let seeds = campaign::seeds();
    let mut trials = Vec::new();
    for &seed in &seeds {
        let (f, inputs) = campaign::workload(SALT, seed, ITERS);
        let baseline = campaign::baseline(&f, &inputs);
        for &k in &KILL_POINTS {
            trials.push(kill_trial(&base, k, seed, &baseline));
        }
        trials.push(corrupt_trial(&base, seed, &baseline));
    }
    let header = vec![("snapshot_keep", num(KEEP as f64))];
    campaign::finish("halo-crash-report/1", ITERS, &seeds, header, trials, start)
}
