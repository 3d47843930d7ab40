//! Op/alloc counters for the toy backend's hot paths, counted into scopes.
//!
//! The counters exist so tests and benchmarks can *prove* structural
//! properties of the implementation rather than infer them from wall
//! clock — e.g. that a hoisted `rotate_batch` performs exactly one digit
//! decomposition (and one per-digit forward-NTT set) regardless of how
//! many offsets it serves, or that the allocation-free key-switch loop
//! really stopped allocating.
//!
//! A bump lands only in the [`ScopedCounters`] live on the bumping
//! thread; with no live scope it does nothing. A scope is an RAII guard
//! that accumulates every bump made while it is alive on its thread,
//! including bumps made by limb-parallel helper threads spawned inside it
//! (`parallel` re-installs the spawning thread's scope stack in each
//! worker), so concurrent sessions each see exactly their own work. The
//! cells are relaxed atomics: they are statistics, not synchronization,
//! and the limb-parallel regions that bump them must not serialize on a
//! counter.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kernel counters: one slot of a scope cell each, read out as the
/// [`MetricsSnapshot`] field of the same name.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    PolyAllocs,
    PoolReuses,
    LazyReductionsSkipped,
    NttForwardRows,
    NttInverseRows,
    DigitDecomposes,
    DigitNttRows,
    KeyswitchCalls,
}

const COUNTERS: usize = Counter::KeyswitchCalls as usize + 1;

/// A reading of every counter of one scope.
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
    /// Maps a scope cell's counts, indexed by [`Counter`], onto the fields.
    fn from_counts(c: [u64; COUNTERS]) -> MetricsSnapshot {
        MetricsSnapshot {
            poly_allocs: c[Counter::PolyAllocs as usize],
            pool_reuses: c[Counter::PoolReuses as usize],
            lazy_reductions_skipped: c[Counter::LazyReductionsSkipped as usize],
            ntt_forward_rows: c[Counter::NttForwardRows as usize],
            ntt_inverse_rows: c[Counter::NttInverseRows as usize],
            digit_decomposes: c[Counter::DigitDecomposes as usize],
            digit_ntt_rows: c[Counter::DigitNttRows as usize],
            keyswitch_calls: c[Counter::KeyswitchCalls as usize],
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn add(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        self.zip(other, |a, b| a + b)
    }

    /// Field-wise `f` — e.g. one member's share of a batch's counters.
    #[must_use]
    pub fn map(&self, f: impl Fn(u64) -> u64) -> MetricsSnapshot {
        self.zip(self, |a, _| f(a))
    }

    fn zip(&self, other: &MetricsSnapshot, f: impl Fn(u64, u64) -> u64) -> MetricsSnapshot {
        MetricsSnapshot {
            poly_allocs: f(self.poly_allocs, other.poly_allocs),
            pool_reuses: f(self.pool_reuses, other.pool_reuses),
            lazy_reductions_skipped: f(self.lazy_reductions_skipped, other.lazy_reductions_skipped),
            ntt_forward_rows: f(self.ntt_forward_rows, other.ntt_forward_rows),
            ntt_inverse_rows: f(self.ntt_inverse_rows, other.ntt_inverse_rows),
            digit_decomposes: f(self.digit_decomposes, other.digit_decomposes),
            digit_ntt_rows: f(self.digit_ntt_rows, other.digit_ntt_rows),
            keyswitch_calls: f(self.keyswitch_calls, other.keyswitch_calls),
        }
    }
}

/// One scope's private accumulator, indexed by [`Counter`]. Atomics
/// because limb-parallel helper threads bump the same cell as the owning
/// thread.
#[derive(Default)]
pub(crate) struct ScopeCell([AtomicU64; COUNTERS]);

thread_local! {
    /// The scopes active on this thread, innermost last. Every bump on
    /// this thread lands in *all* of them, so nested scopes see their
    /// children's cost too.
    static SCOPES: RefCell<Vec<Arc<ScopeCell>>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide count of live scopes: the fast path that keeps the
/// thread-local lookup off the counters' hot path when nobody is scoping.
static ACTIVE_SCOPES: AtomicU64 = AtomicU64::new(0);

/// Adds `n` to counter `c` in every scope live on this thread.
pub(crate) fn count(c: Counter, n: u64) {
    if ACTIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return;
    }
    SCOPES.with(|s| {
        for cell in s.borrow().iter() {
            cell.0[c as usize].fetch_add(n, Ordering::Relaxed);
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
/// private count that concurrent scopes on other threads never see —
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

    /// Closes the scope and returns its accumulated counters.
    #[must_use]
    pub fn finish(self) -> MetricsSnapshot {
        // Drop pops the stack entry.
        MetricsSnapshot::from_counts(self.cell.0.each_ref().map(|c| c.load(Ordering::Relaxed)))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_in_a_scope() {
        let scope = ScopedCounters::begin();
        count(Counter::PolyAllocs, 1);
        count(Counter::PoolReuses, 2);
        count(Counter::LazyReductionsSkipped, 3);
        count(Counter::NttForwardRows, 4);
        count(Counter::NttInverseRows, 5);
        count(Counter::DigitDecomposes, 6);
        count(Counter::DigitNttRows, 7);
        count(Counter::KeyswitchCalls, 8);
        count(Counter::KeyswitchCalls, 10);
        assert_eq!(
            scope.finish(),
            MetricsSnapshot {
                poly_allocs: 1,
                pool_reuses: 2,
                lazy_reductions_skipped: 3,
                ntt_forward_rows: 4,
                ntt_inverse_rows: 5,
                digit_decomposes: 6,
                digit_ntt_rows: 7,
                keyswitch_calls: 18,
            }
        );
    }

    #[test]
    fn scoped_counters_capture_only_their_own_thread() {
        let outer = ScopedCounters::begin();
        count(Counter::KeyswitchCalls, 1);
        // A second thread bumping outside any scope must not land in
        // `outer` (it belongs to a different thread's stack).
        std::thread::scope(|s| {
            s.spawn(|| {
                count(Counter::KeyswitchCalls, 1);
                count(Counter::DigitDecomposes, 1);
            });
        });
        let got = outer.finish();
        assert_eq!(got.keyswitch_calls, 1);
        assert_eq!(got.digit_decomposes, 0);
    }

    #[test]
    fn scopes_nest_and_parents_absorb_children() {
        let outer = ScopedCounters::begin();
        count(Counter::DigitDecomposes, 1);
        let inner = ScopedCounters::begin();
        count(Counter::DigitDecomposes, 2);
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
                    count(Counter::NttForwardRows, 4);
                });
            });
        });
        count(Counter::NttForwardRows, 1);
        let got = scope.finish();
        assert_eq!(got.ntt_forward_rows, 5);
    }

    #[test]
    fn snapshot_add_and_map() {
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
        let s = a.add(&b);
        assert_eq!(s.poly_allocs, 14);
        assert_eq!(s.keyswitch_calls, 16);
        let h = s.map(|n| n / 4);
        assert_eq!(h.poly_allocs, 3);
        assert_eq!(h.keyswitch_calls, 4);
        assert_eq!(h.digit_ntt_rows, 0);
    }
}
