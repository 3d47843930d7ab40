//! Process-wide op/alloc counters for the toy backend's hot paths.
//!
//! The counters exist so tests and benchmarks can *prove* structural
//! properties of the implementation rather than infer them from wall
//! clock — e.g. that a hoisted `rotate_batch` performs exactly one digit
//! decomposition (and one per-digit forward-NTT set) regardless of how
//! many offsets it serves, or that the allocation-free key-switch loop
//! really stopped allocating.
//!
//! All counters are relaxed atomics: they are statistics, not
//! synchronization, and the limb-parallel regions that bump them must
//! not serialize on a counter. Tests that assert on deltas against the
//! *global* counters must run in their own process (a dedicated
//! integration-test binary) or serialize against other counter-touching
//! tests, because the counters are global. Concurrent sessions that need
//! race-free per-session attribution use [`ScopedCounters`] instead: an
//! RAII guard that accumulates a private copy of every bump made while
//! it is alive on its thread (including bumps made by limb-parallel
//! helper threads spawned inside the scope — `parallel` re-installs the
//! spawning thread's scope stack in each worker), without perturbing the
//! process-wide totals.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static POLY_ALLOCS: AtomicU64 = AtomicU64::new(0);
static POOL_REUSES: AtomicU64 = AtomicU64::new(0);
static LAZY_REDUCTIONS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static NTT_FORWARD_ROWS: AtomicU64 = AtomicU64::new(0);
static NTT_INVERSE_ROWS: AtomicU64 = AtomicU64::new(0);
static DIGIT_DECOMPOSES: AtomicU64 = AtomicU64::new(0);
static DIGIT_NTT_ROWS: AtomicU64 = AtomicU64::new(0);
static KEYSWITCH_CALLS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of every counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Fresh heap allocations of limb buffers. Pool-recycled buffers
    /// (see `toy::poly`'s buffer pool) do not count — this is the metric
    /// the zero-copy/zero-alloc hot-path tests assert on.
    pub poly_allocs: u64,
    /// Limb buffers acquired from the recycling pool instead of the heap.
    pub pool_reuses: u64,
    /// Per-element modular canonicalizations the toy kernels defer
    /// (Harvey butterflies, Shoup twist and key products) relative to
    /// canonicalizing after every operation: `N/2·log₂N + N` per
    /// transform row, `N` more per 4p-redundant digit row, and one per
    /// digit product in the fused key switch.
    pub lazy_reductions_skipped: u64,
    /// Residue rows put through a forward NTT.
    pub ntt_forward_rows: u64,
    /// Residue rows put through an inverse NTT.
    pub ntt_inverse_rows: u64,
    /// Digit decompositions performed (one per key-switch *input*, however
    /// many rotations the decomposition is then shared by).
    pub digit_decomposes: u64,
    /// Residue rows forward-NTT'd as part of digit decomposition — the
    /// per-digit NTT work that hoisting amortizes across a batch.
    pub digit_ntt_rows: u64,
    /// Key-switch inner products evaluated (relinearization or Galois).
    pub keyswitch_calls: u64,
}

impl MetricsSnapshot {
    /// Field-wise `self − before`, saturating at zero. The per-session
    /// snapshot/diff helper: `snapshot()` before a region, `snapshot()`
    /// after, `after.delta(&before)` is the region's cost — valid only
    /// when no other thread touches the backend in between (serialized
    /// sessions). Concurrent sessions use [`ScopedCounters`].
    #[must_use]
    pub fn delta(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            poly_allocs: self.poly_allocs.saturating_sub(before.poly_allocs),
            pool_reuses: self.pool_reuses.saturating_sub(before.pool_reuses),
            lazy_reductions_skipped: self
                .lazy_reductions_skipped
                .saturating_sub(before.lazy_reductions_skipped),
            ntt_forward_rows: self
                .ntt_forward_rows
                .saturating_sub(before.ntt_forward_rows),
            ntt_inverse_rows: self
                .ntt_inverse_rows
                .saturating_sub(before.ntt_inverse_rows),
            digit_decomposes: self
                .digit_decomposes
                .saturating_sub(before.digit_decomposes),
            digit_ntt_rows: self.digit_ntt_rows.saturating_sub(before.digit_ntt_rows),
            keyswitch_calls: self.keyswitch_calls.saturating_sub(before.keyswitch_calls),
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn add(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            poly_allocs: self.poly_allocs + other.poly_allocs,
            pool_reuses: self.pool_reuses + other.pool_reuses,
            lazy_reductions_skipped: self.lazy_reductions_skipped + other.lazy_reductions_skipped,
            ntt_forward_rows: self.ntt_forward_rows + other.ntt_forward_rows,
            ntt_inverse_rows: self.ntt_inverse_rows + other.ntt_inverse_rows,
            digit_decomposes: self.digit_decomposes + other.digit_decomposes,
            digit_ntt_rows: self.digit_ntt_rows + other.digit_ntt_rows,
            keyswitch_calls: self.keyswitch_calls + other.keyswitch_calls,
        }
    }

    /// Field-wise integer division, flooring — an even k-way split of a
    /// shared batch's cost across its participants (serving accounting).
    #[must_use]
    pub fn div(&self, k: u64) -> MetricsSnapshot {
        let k = k.max(1);
        MetricsSnapshot {
            poly_allocs: self.poly_allocs / k,
            pool_reuses: self.pool_reuses / k,
            lazy_reductions_skipped: self.lazy_reductions_skipped / k,
            ntt_forward_rows: self.ntt_forward_rows / k,
            ntt_inverse_rows: self.ntt_inverse_rows / k,
            digit_decomposes: self.digit_decomposes / k,
            digit_ntt_rows: self.digit_ntt_rows / k,
            keyswitch_calls: self.keyswitch_calls / k,
        }
    }
}

/// One scope's private accumulator. Atomics because limb-parallel helper
/// threads bump the same cell as the owning thread; relaxed, like the
/// globals — statistics, not synchronization.
#[derive(Default)]
pub(crate) struct ScopeCell {
    poly_allocs: AtomicU64,
    pool_reuses: AtomicU64,
    lazy_reductions_skipped: AtomicU64,
    ntt_forward_rows: AtomicU64,
    ntt_inverse_rows: AtomicU64,
    digit_decomposes: AtomicU64,
    digit_ntt_rows: AtomicU64,
    keyswitch_calls: AtomicU64,
}

impl ScopeCell {
    fn read(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            poly_allocs: self.poly_allocs.load(Ordering::Relaxed),
            pool_reuses: self.pool_reuses.load(Ordering::Relaxed),
            lazy_reductions_skipped: self.lazy_reductions_skipped.load(Ordering::Relaxed),
            ntt_forward_rows: self.ntt_forward_rows.load(Ordering::Relaxed),
            ntt_inverse_rows: self.ntt_inverse_rows.load(Ordering::Relaxed),
            digit_decomposes: self.digit_decomposes.load(Ordering::Relaxed),
            digit_ntt_rows: self.digit_ntt_rows.load(Ordering::Relaxed),
            keyswitch_calls: self.keyswitch_calls.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// The scopes active on this thread, innermost last. Every bump on
    /// this thread lands in *all* of them, so nested scopes see their
    /// children's cost too.
    static SCOPES: RefCell<Vec<Arc<ScopeCell>>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide count of live scopes: the fast path that keeps the
/// thread-local lookup off the counters' hot path when nobody is scoping.
static ACTIVE_SCOPES: AtomicU64 = AtomicU64::new(0);

fn bump_scopes(f: impl Fn(&ScopeCell)) {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return;
    }
    SCOPES.with(|s| {
        for cell in s.borrow().iter() {
            f(cell);
        }
    });
}

/// The scope stack of the current thread, for re-installation in helper
/// threads (see `parallel`): work fanned out on behalf of a scoped
/// caller must keep counting toward the caller's scope.
pub(crate) fn active_scopes() -> Vec<Arc<ScopeCell>> {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return Vec::new();
    }
    SCOPES.with(|s| s.borrow().clone())
}

/// Runs `f` with `scopes` installed on the current thread (helper-thread
/// side of [`active_scopes`]). The installation nests under whatever the
/// thread already had.
pub(crate) fn with_scopes<R>(scopes: &[Arc<ScopeCell>], f: impl FnOnce() -> R) -> R {
    if scopes.is_empty() {
        return f();
    }
    SCOPES.with(|s| s.borrow_mut().extend(scopes.iter().cloned()));
    struct Uninstall(usize);
    impl Drop for Uninstall {
        fn drop(&mut self) {
            SCOPES.with(|s| {
                let mut v = s.borrow_mut();
                let keep = v.len() - self.0;
                v.truncate(keep);
            });
        }
    }
    let _u = Uninstall(scopes.len());
    f()
}

/// RAII scope capturing every counter bump made while it is alive on the
/// constructing thread (and in limb-parallel regions it fans out), as a
/// private delta that concurrent scopes on other threads never see —
/// the race-free building block for per-session op accounting.
///
/// Scopes nest LIFO per thread and are deliberately `!Send`: the guard
/// must be dropped on the thread that created it.
pub struct ScopedCounters {
    cell: Arc<ScopeCell>,
    _not_send: PhantomData<*const ()>,
}

impl ScopedCounters {
    /// Opens a scope on the current thread.
    #[must_use]
    pub fn begin() -> ScopedCounters {
        let cell = Arc::new(ScopeCell::default());
        SCOPES.with(|s| s.borrow_mut().push(cell.clone()));
        ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
        ScopedCounters {
            cell,
            _not_send: PhantomData,
        }
    }

    /// The counters accumulated so far in this scope.
    #[must_use]
    pub fn read(&self) -> MetricsSnapshot {
        self.cell.read()
    }

    /// Closes the scope and returns its accumulated counters.
    #[must_use]
    pub fn finish(self) -> MetricsSnapshot {
        self.read() // Drop pops the stack entry.
    }
}

impl Drop for ScopedCounters {
    fn drop(&mut self) {
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        SCOPES.with(|s| {
            let mut v = s.borrow_mut();
            let top = v.pop().expect("scope stack underflow");
            assert!(
                Arc::ptr_eq(&top, &self.cell),
                "ScopedCounters dropped out of LIFO order"
            );
        });
    }
}

/// Resets every counter to zero.
pub fn reset() {
    POLY_ALLOCS.store(0, Ordering::Relaxed);
    POOL_REUSES.store(0, Ordering::Relaxed);
    LAZY_REDUCTIONS_SKIPPED.store(0, Ordering::Relaxed);
    NTT_FORWARD_ROWS.store(0, Ordering::Relaxed);
    NTT_INVERSE_ROWS.store(0, Ordering::Relaxed);
    DIGIT_DECOMPOSES.store(0, Ordering::Relaxed);
    DIGIT_NTT_ROWS.store(0, Ordering::Relaxed);
    KEYSWITCH_CALLS.store(0, Ordering::Relaxed);
}

/// Reads every counter.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        poly_allocs: POLY_ALLOCS.load(Ordering::Relaxed),
        pool_reuses: POOL_REUSES.load(Ordering::Relaxed),
        lazy_reductions_skipped: LAZY_REDUCTIONS_SKIPPED.load(Ordering::Relaxed),
        ntt_forward_rows: NTT_FORWARD_ROWS.load(Ordering::Relaxed),
        ntt_inverse_rows: NTT_INVERSE_ROWS.load(Ordering::Relaxed),
        digit_decomposes: DIGIT_DECOMPOSES.load(Ordering::Relaxed),
        digit_ntt_rows: DIGIT_NTT_ROWS.load(Ordering::Relaxed),
        keyswitch_calls: KEYSWITCH_CALLS.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_poly_alloc() {
    POLY_ALLOCS.fetch_add(1, Ordering::Relaxed);
    bump_scopes(|c| {
        c.poly_allocs.fetch_add(1, Ordering::Relaxed);
    });
}

pub(crate) fn count_pool_reuse() {
    POOL_REUSES.fetch_add(1, Ordering::Relaxed);
    bump_scopes(|c| {
        c.pool_reuses.fetch_add(1, Ordering::Relaxed);
    });
}

pub(crate) fn count_lazy_reductions_skipped(n: u64) {
    LAZY_REDUCTIONS_SKIPPED.fetch_add(n, Ordering::Relaxed);
    bump_scopes(|c| {
        c.lazy_reductions_skipped.fetch_add(n, Ordering::Relaxed);
    });
}

pub(crate) fn count_ntt_forward_rows(rows: u64) {
    NTT_FORWARD_ROWS.fetch_add(rows, Ordering::Relaxed);
    bump_scopes(|c| {
        c.ntt_forward_rows.fetch_add(rows, Ordering::Relaxed);
    });
}

pub(crate) fn count_ntt_inverse_rows(rows: u64) {
    NTT_INVERSE_ROWS.fetch_add(rows, Ordering::Relaxed);
    bump_scopes(|c| {
        c.ntt_inverse_rows.fetch_add(rows, Ordering::Relaxed);
    });
}

pub(crate) fn count_digit_decompose() {
    DIGIT_DECOMPOSES.fetch_add(1, Ordering::Relaxed);
    bump_scopes(|c| {
        c.digit_decomposes.fetch_add(1, Ordering::Relaxed);
    });
}

pub(crate) fn count_digit_ntt_rows(rows: u64) {
    DIGIT_NTT_ROWS.fetch_add(rows, Ordering::Relaxed);
    bump_scopes(|c| {
        c.digit_ntt_rows.fetch_add(rows, Ordering::Relaxed);
    });
}

pub(crate) fn count_keyswitch() {
    KEYSWITCH_CALLS.fetch_add(1, Ordering::Relaxed);
    bump_scopes(|c| {
        c.keyswitch_calls.fetch_add(1, Ordering::Relaxed);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        // Serialized against nothing: this test only checks monotonicity
        // of its own increments, not absolute values.
        let before = snapshot();
        count_poly_alloc();
        count_ntt_forward_rows(3);
        count_digit_decompose();
        count_digit_ntt_rows(5);
        count_keyswitch();
        count_ntt_inverse_rows(2);
        count_pool_reuse();
        count_lazy_reductions_skipped(11);
        let after = snapshot();
        assert!(after.poly_allocs > before.poly_allocs);
        assert!(after.ntt_forward_rows >= before.ntt_forward_rows + 3);
        assert!(after.ntt_inverse_rows >= before.ntt_inverse_rows + 2);
        assert!(after.digit_decomposes > before.digit_decomposes);
        assert!(after.digit_ntt_rows >= before.digit_ntt_rows + 5);
        assert!(after.keyswitch_calls > before.keyswitch_calls);
        assert!(after.pool_reuses > before.pool_reuses);
        assert!(after.lazy_reductions_skipped >= before.lazy_reductions_skipped + 11);
    }

    #[test]
    fn scoped_counters_capture_only_their_own_thread() {
        let outer = ScopedCounters::begin();
        count_keyswitch();
        // A second thread bumping outside any scope must not land in
        // `outer` (it belongs to a different thread's stack).
        std::thread::scope(|s| {
            s.spawn(|| {
                count_keyswitch();
                count_digit_decompose();
            });
        });
        let got = outer.finish();
        assert_eq!(got.keyswitch_calls, 1);
        assert_eq!(got.digit_decomposes, 0);
    }

    #[test]
    fn scopes_nest_and_parents_absorb_children() {
        let outer = ScopedCounters::begin();
        count_digit_decompose();
        let inner = ScopedCounters::begin();
        count_digit_decompose();
        count_digit_decompose();
        let got_inner = inner.finish();
        let got_outer = outer.finish();
        assert_eq!(got_inner.digit_decomposes, 2);
        assert_eq!(got_outer.digit_decomposes, 3);
    }

    #[test]
    fn helper_threads_inherit_the_installing_scope() {
        let scope = ScopedCounters::begin();
        let stack = active_scopes();
        assert_eq!(stack.len(), 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                with_scopes(&stack, || {
                    count_ntt_forward_rows(4);
                });
            });
        });
        count_ntt_forward_rows(1);
        let got = scope.finish();
        assert_eq!(got.ntt_forward_rows, 5);
    }

    #[test]
    fn snapshot_delta_add_div() {
        let a = MetricsSnapshot {
            poly_allocs: 10,
            keyswitch_calls: 7,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            poly_allocs: 4,
            keyswitch_calls: 9,
            ..MetricsSnapshot::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.poly_allocs, 6);
        assert_eq!(d.keyswitch_calls, 0, "saturating");
        let s = a.add(&b);
        assert_eq!(s.poly_allocs, 14);
        assert_eq!(s.keyswitch_calls, 16);
        let h = s.div(4);
        assert_eq!(h.poly_allocs, 3);
        assert_eq!(h.keyswitch_calls, 4);
        assert_eq!(s.div(0).poly_allocs, 14, "div clamps k to 1");
    }
}
