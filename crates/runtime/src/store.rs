//! Snapshot storage: where durable checkpoints live.
//!
//! A [`SnapshotStore`] is an append-only sequence of *generations* —
//! monotonically numbered snapshot blobs. The executor writes a new
//! generation at each durable loop-header crossing; `Executor::resume`
//! walks generations newest-first and restores the first one that passes
//! checksum and structural validation, so a torn or bit-rotted newest
//! snapshot costs one generation of progress, never the run.
//!
//! Implementations:
//! - [`MemStore`] — in-process, for tests and as the store behind the
//!   PR 2 in-memory checkpointing semantics.
//! - [`DiskStore`] — crash-safe files via the atomic-rename protocol
//!   (write temp → fsync → rename), keeping the newest K generations.
//! - [`FaultyStore`] — a deterministic fault-injecting decorator (short
//!   writes, ENOSPC, read-time bit flips) for the chaos suite, mirroring
//!   `halo_ckks::FaultInjectingBackend` at the storage layer.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use halo_ckks::fault::{splitmix64, unit_draw};

use crate::remote::RemoteTelemetry;

/// Generation-numbered snapshot storage. `Send + Sync` so one store can
/// serve concurrent executors; generation numbers are unique and strictly
/// increasing within a store.
pub trait SnapshotStore: Send + Sync {
    /// Persists one snapshot blob as a new generation, returning its
    /// generation number.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the executor treats a failed write as a
    /// skipped snapshot, not a fatal error — durability degrades, the run
    /// continues).
    fn put(&self, bytes: &[u8]) -> io::Result<u64>;

    /// All stored generation numbers, ascending.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn generations(&self) -> io::Result<Vec<u64>>;

    /// Reads back one generation's blob.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including a missing generation).
    fn get(&self, generation: u64) -> io::Result<Vec<u8>>;

    /// Remote-operation telemetry accumulated by this store, if it talks
    /// to a remote ([`RemoteStore`] does; local stores return `None`).
    /// The executor samples this around a durable run and folds the
    /// delta into `RunStats`.
    ///
    /// [`RemoteStore`]: crate::remote::RemoteStore
    fn remote_telemetry(&self) -> Option<RemoteTelemetry> {
        None
    }
}

// ----------------------------------------------------------------------
// In-memory store.
// ----------------------------------------------------------------------

/// An in-process [`SnapshotStore`]: a mutex-guarded generation map. What
/// PR 2's in-memory checkpointing becomes once routed through the store
/// abstraction — still dies with the process, but shares the durable
/// code path and is the natural double for tests.
#[derive(Debug)]
pub struct MemStore {
    keep: usize,
    snaps: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl MemStore {
    /// An empty store retaining the newest `keep` generations
    /// (`keep == 0` retains everything).
    #[must_use]
    pub fn new(keep: usize) -> MemStore {
        MemStore {
            keep,
            snaps: Mutex::new(BTreeMap::new()),
        }
    }
}

impl SnapshotStore for MemStore {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        let mut m = self.snaps.lock().expect("store lock");
        let generation = m.keys().next_back().map_or(1, |g| g + 1);
        m.insert(generation, bytes.to_vec());
        if self.keep > 0 {
            while m.len() > self.keep {
                let oldest = *m.keys().next().expect("non-empty");
                m.remove(&oldest);
            }
        }
        Ok(generation)
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        Ok(self
            .snaps
            .lock()
            .expect("store lock")
            .keys()
            .copied()
            .collect())
    }

    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        self.snaps
            .lock()
            .expect("store lock")
            .get(&generation)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such generation"))
    }
}

// ----------------------------------------------------------------------
// Atomic-rename disk store.
// ----------------------------------------------------------------------

/// File name of one generation: `snap-<generation as 16 hex digits>.halosnap`.
fn snap_name(generation: u64) -> String {
    format!("snap-{generation:016x}.halosnap")
}

fn parse_snap_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".halosnap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A crash-safe on-disk [`SnapshotStore`].
///
/// Each `put` writes the blob to a dot-prefixed temp file, `fsync`s it,
/// and `rename`s it to its final generation name — on POSIX filesystems
/// rename is atomic, so a crash at any instant leaves either the complete
/// new generation or no trace of it; a partially written temp file is
/// never listed as a generation (see DESIGN.md §12 for the full
/// crash-consistency argument). After a successful publish the directory
/// is fsynced best-effort and generations beyond the newest `keep` are
/// pruned.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    keep: usize,
    /// Next generation to hand out — allocated under the lock so
    /// concurrent `put`s never race the directory listing into the same
    /// generation number (`None` until the first allocation scans the
    /// directory).
    next_gen: Mutex<Option<u64>>,
}

impl DiskStore {
    /// Opens (creating if needed) the store directory, retaining the
    /// newest `keep` generations (`keep == 0` retains everything, other
    /// values are clamped to ≥ 2 so corruption fallback always has
    /// somewhere to fall).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> io::Result<DiskStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            keep: if keep == 0 { 0 } else { keep.max(2) },
            next_gen: Mutex::new(None),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Allocates the next generation number: strictly increasing and
    /// unique across threads sharing this store. Initialized lazily from
    /// the directory listing so reopening an existing store continues its
    /// sequence.
    fn allocate_generation(&self) -> io::Result<u64> {
        let mut next = self.next_gen.lock().expect("gen lock");
        let generation = match *next {
            Some(g) => g,
            None => self.generations()?.last().map_or(1, |g| g + 1),
        };
        *next = Some(generation + 1);
        Ok(generation)
    }

    /// Publishes `bytes` under an explicit generation number via the
    /// atomic-rename protocol. Used by the remote spill path, which keys
    /// local blobs by the *remote* generation so the union listing stays
    /// consistent.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn put_at(&self, generation: u64, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(".tmp-{}", snap_name(generation)));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(snap_name(generation)))?;
        self.sync_dir();
        // Keep the allocator ahead of explicitly published generations so
        // a later plain `put` cannot overwrite one.
        let mut next = self.next_gen.lock().expect("gen lock");
        if next.is_none_or(|n| n <= generation) {
            *next = Some(generation + 1);
        }
        Ok(())
    }

    fn prune(&self) -> io::Result<()> {
        if self.keep > 0 {
            let gens = self.generations()?;
            for &old in gens.iter().take(gens.len().saturating_sub(self.keep)) {
                // Pruning is housekeeping: a leftover old generation is
                // harmless, so removal errors are ignored.
                let _ = fs::remove_file(self.dir.join(snap_name(old)));
            }
        }
        Ok(())
    }

    fn sync_dir(&self) {
        // Durability of the rename itself: fsync the directory so the new
        // directory entry is on stable storage. Best-effort — some
        // filesystems refuse fsync on directories, and losing only the
        // newest generation is exactly what the fallback protocol absorbs.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl SnapshotStore for DiskStore {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        let generation = self.allocate_generation()?;
        self.put_at(generation, bytes)?;
        self.prune()?;
        Ok(generation)
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(g) = entry.file_name().to_str().and_then(parse_snap_name) {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        fs::read(self.dir.join(snap_name(generation)))
    }
}

// ----------------------------------------------------------------------
// Fault-injecting decorator.
// ----------------------------------------------------------------------

/// Storage fault probabilities for [`FaultyStore`], each in `[0, 1]`.
/// The faults model what real disks do to checkpoint files: writes that
/// report success but persist a prefix (torn write past the rename
/// protocol — e.g. a lying write cache), writes that fail outright
/// (ENOSPC), and reads returning silently corrupted bytes (bit rot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreFaultSpec {
    /// Probability a `put` silently persists only a prefix of the blob.
    pub short_write: f64,
    /// Probability a `put` fails with an out-of-space error.
    pub enospc: f64,
    /// Probability a `get` returns the blob with one bit flipped.
    pub read_bitflip: f64,
}

impl StoreFaultSpec {
    /// No faults.
    #[must_use]
    pub fn none() -> StoreFaultSpec {
        StoreFaultSpec {
            short_write: 0.0,
            enospc: 0.0,
            read_bitflip: 0.0,
        }
    }

    /// The chaos-suite mix: every fault class enabled at rates high
    /// enough to fire many times across a run.
    #[must_use]
    pub fn chaos() -> StoreFaultSpec {
        StoreFaultSpec {
            short_write: 0.15,
            enospc: 0.1,
            read_bitflip: 0.2,
        }
    }
}

/// What a [`FaultyStore`] actually injected (for test assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFaultReport {
    /// Puts that silently persisted a truncated blob.
    pub short_writes: u64,
    /// Puts failed with the injected out-of-space error.
    pub enospc_failures: u64,
    /// Gets whose payload came back with a flipped bit.
    pub read_bitflips: u64,
}

/// A deterministic fault-injecting [`SnapshotStore`] decorator — the
/// storage-layer sibling of `halo_ckks::FaultInjectingBackend`. Faults
/// are drawn from a seeded SplitMix64 stream, so a given (seed, spec,
/// call sequence) always injects the same faults.
#[derive(Debug)]
pub struct FaultyStore<S> {
    inner: S,
    spec: StoreFaultSpec,
    state: Mutex<u64>,
    report: Mutex<StoreFaultReport>,
}

impl<S: SnapshotStore> FaultyStore<S> {
    /// Wraps `inner` with the given fault spec and seed.
    #[must_use]
    pub fn new(inner: S, spec: StoreFaultSpec, seed: u64) -> FaultyStore<S> {
        FaultyStore {
            inner,
            spec,
            state: Mutex::new(splitmix64(seed ^ 0x5707_4146_4155_4C54)),
            report: Mutex::new(StoreFaultReport::default()),
        }
    }

    /// The wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Faults injected so far.
    #[must_use]
    pub fn report(&self) -> StoreFaultReport {
        *self.report.lock().expect("report lock")
    }

    /// Next deterministic draw in `[0, 1)`.
    fn roll(&self) -> f64 {
        unit_draw(&mut self.state.lock().expect("state lock"))
    }
}

impl<S: SnapshotStore> SnapshotStore for FaultyStore<S> {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        if self.roll() < self.spec.enospc {
            self.report.lock().expect("report lock").enospc_failures += 1;
            return Err(io::Error::other("injected fault: no space left on device"));
        }
        if self.roll() < self.spec.short_write && !bytes.is_empty() {
            self.report.lock().expect("report lock").short_writes += 1;
            // A "successful" torn write: persist a strict prefix.
            let cut = 1 + (self.roll() * (bytes.len() - 1) as f64) as usize;
            return self.inner.put(&bytes[..cut.min(bytes.len() - 1)]);
        }
        self.inner.put(bytes)
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        self.inner.generations()
    }

    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.get(generation)?;
        if !bytes.is_empty() && self.roll() < self.spec.read_bitflip {
            self.report.lock().expect("report lock").read_bitflips += 1;
            let pos = ((self.roll() * bytes.len() as f64) as usize).min(bytes.len() - 1);
            let bit = ((self.roll() * 8.0) as u32).min(7);
            bytes[pos] ^= 1u8 << bit;
        }
        Ok(bytes)
    }

    fn remote_telemetry(&self) -> Option<RemoteTelemetry> {
        self.inner.remote_telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_generations_and_pruning() {
        let s = MemStore::new(2);
        assert_eq!(s.put(b"a").unwrap(), 1);
        assert_eq!(s.put(b"b").unwrap(), 2);
        assert_eq!(s.put(b"c").unwrap(), 3);
        assert_eq!(s.generations().unwrap(), vec![2, 3]);
        assert_eq!(s.get(3).unwrap(), b"c");
        assert!(s.get(1).is_err(), "pruned generation is gone");
    }

    #[test]
    fn snap_name_roundtrip() {
        assert_eq!(parse_snap_name(&snap_name(42)), Some(42));
        assert_eq!(parse_snap_name("snap-zz.halosnap"), None);
        assert_eq!(parse_snap_name(".tmp-snap-0000000000000001.halosnap"), None);
    }

    #[test]
    fn faulty_store_injects_deterministically() {
        let run = || {
            let s = FaultyStore::new(MemStore::new(0), StoreFaultSpec::chaos(), 7);
            for i in 0..50u8 {
                let _ = s.put(&[i; 64]);
            }
            for g in s.generations().unwrap() {
                let _ = s.get(g);
            }
            s.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded faults must be deterministic");
        assert!(a.short_writes > 0 && a.enospc_failures > 0 && a.read_bitflips > 0);
    }

    #[test]
    fn faulty_store_none_is_transparent() {
        let s = FaultyStore::new(MemStore::new(0), StoreFaultSpec::none(), 1);
        let g = s.put(b"hello").unwrap();
        assert_eq!(s.get(g).unwrap(), b"hello");
        assert_eq!(s.report(), StoreFaultReport::default());
    }
}
