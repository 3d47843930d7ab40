//! The seven benchmark programs (paper §7, Table 4).
//!
//! Every benchmark implements [`MlBenchmark`]: it traces its program over
//! the `halo-ir` frontend (loops with symbolic trip counts — the thing
//! DaCapo cannot compile), binds its dataset as [`Inputs`], and reports
//! the Table 4 metadata (loop depth, carried-variable counts, approximated
//! functions).

use halo_ir::op::TripCount;
use halo_ir::{Function, FunctionBuilder, ValueId};
use halo_runtime::Inputs;

pub mod kmeans;
pub mod logistic;
pub mod pca;
pub mod regression;
pub mod svm;

pub use kmeans::KMeans;
pub use logistic::Logistic;
pub use pca::Pca;
pub use regression::{Linear, Multivariate, Polynomial};
pub use svm::Svm;

/// Size configuration for a benchmark instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSpec {
    /// Ciphertext slot count (`N/2`).
    pub slots: usize,
    /// Valid elements (samples) per ciphertext — the packing window size
    /// the programmer declares (paper §6.1). Must be a power of two.
    pub num_elems: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl BenchSpec {
    /// The paper's scale: 65 536 slots, 4 096 samples.
    #[must_use]
    pub fn paper() -> BenchSpec {
        BenchSpec {
            slots: 1 << 16,
            num_elems: 1 << 12,
            seed: 0xDA7A,
        }
    }

    /// Small instance for tests: 64 slots, 4 samples (so even the
    /// 9-variable Multivariate benchmark packs: 9×4 ≤ 64).
    #[must_use]
    pub fn test_small() -> BenchSpec {
        BenchSpec {
            slots: 64,
            num_elems: 4,
            seed: 0xDA7A,
        }
    }
}

/// A benchmark program: tracing, inputs, and Table 4 metadata.
pub trait MlBenchmark {
    /// Display name (Table 4 row).
    fn name(&self) -> &'static str;

    /// Nesting depth of its loops (Table 4 "Loop Depth").
    fn loop_depth(&self) -> usize;

    /// Loop-carried variable counts per nesting level (Table 4).
    fn carried_vars(&self) -> Vec<usize>;

    /// Approximated non-linear functions (Table 4), `"-"` if none.
    fn approx_functions(&self) -> &'static str {
        "-"
    }

    /// Trip-count symbols, outermost first (one per loop level).
    fn trip_symbols(&self) -> Vec<&'static str> {
        vec!["iters"]
    }

    /// Traces the program with one trip count per loop level
    /// (outermost first).
    ///
    /// # Panics
    ///
    /// Panics if `trips.len() != self.loop_depth()`.
    fn trace(&self, spec: &BenchSpec, trips: &[TripCount]) -> Function;

    /// The benchmark's input bindings (data only; trip symbols are bound
    /// by the caller via [`Inputs::env`]).
    fn inputs(&self, spec: &BenchSpec) -> Inputs;

    /// Traces with dynamic (symbolic) trip counts — the HALO-side form.
    fn trace_dynamic(&self, spec: &BenchSpec) -> Function {
        let trips: Vec<TripCount> = self
            .trip_symbols()
            .iter()
            .map(|s| TripCount::dynamic(*s))
            .collect();
        self.trace(spec, &trips)
    }

    /// Traces with constant trip counts — the only form DaCapo accepts.
    fn trace_constant(&self, spec: &BenchSpec, iters: &[u64]) -> Function {
        let trips: Vec<TripCount> = iters.iter().map(|&n| TripCount::Constant(n)).collect();
        self.trace(spec, &trips)
    }
}

/// All seven benchmarks in the paper's presentation order.
#[must_use]
pub fn all_benchmarks() -> Vec<Box<dyn MlBenchmark>> {
    vec![
        Box::new(Linear),
        Box::new(Polynomial),
        Box::new(Multivariate),
        Box::new(Logistic),
        Box::new(KMeans),
        Box::new(Svm),
        Box::new(Pca),
    ]
}

/// The six flat-loop benchmarks (Figure 4 / Tables 5–7 exclude PCA).
#[must_use]
pub fn flat_benchmarks() -> Vec<Box<dyn MlBenchmark>> {
    vec![
        Box::new(Linear),
        Box::new(Polynomial),
        Box::new(Multivariate),
        Box::new(Logistic),
        Box::new(KMeans),
        Box::new(Svm),
    ]
}

/// Emits `mean(v) = rotate_sum(v, num_elems)·(1/divisor)` — every slot of
/// the result holds the mean over the sample window. The cyclic data
/// replication performed at encryption time makes every window sum equal
/// to the total.
pub(crate) fn mean_all(
    b: &mut FunctionBuilder,
    v: ValueId,
    num_elems: usize,
    divisor: f64,
) -> ValueId {
    let sum = b.rotate_sum(v, num_elems);
    let inv = b.const_splat(1.0 / divisor);
    b.mul(sum, inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_ir::verify::verify_traced;

    #[test]
    fn all_benchmarks_trace_and_verify() {
        let spec = BenchSpec::test_small();
        for bench in all_benchmarks() {
            let f = bench.trace_dynamic(&spec);
            verify_traced(&f).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            assert_eq!(
                bench.trip_symbols().len(),
                bench.loop_depth(),
                "{}",
                bench.name()
            );
            assert_eq!(
                bench.carried_vars().len(),
                bench.loop_depth(),
                "{}",
                bench.name()
            );
        }
    }

    #[test]
    fn table4_metadata_matches_paper() {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "Linear",
                "Polynomial",
                "Multivariate",
                "Logistic",
                "K-means",
                "SVM",
                "PCA"
            ]
        );
        let carried: Vec<Vec<usize>> = all_benchmarks().iter().map(|b| b.carried_vars()).collect();
        assert_eq!(
            carried,
            vec![
                vec![2],
                vec![3],
                vec![9],
                vec![1],
                vec![2],
                vec![3],
                vec![1, 1]
            ]
        );
        let depths: Vec<usize> = all_benchmarks().iter().map(|b| b.loop_depth()).collect();
        assert_eq!(depths, vec![1, 1, 1, 1, 1, 1, 2]);
    }

    #[test]
    fn loop_structure_matches_declared_depth() {
        let spec = BenchSpec::test_small();
        for bench in all_benchmarks() {
            let f = bench.trace_dynamic(&spec);
            let top = f.loops_in_block(f.entry);
            assert_eq!(top.len(), 1, "{}", bench.name());
            let body = f.for_body(top[0]);
            let inner = f.loops_in_block(body);
            let expected_inner = if bench.loop_depth() == 2 { 1 } else { 0 };
            assert_eq!(inner.len(), expected_inner, "{}", bench.name());
            // Carried-variable counts match the traced loops.
            assert_eq!(
                f.block(body).args.len(),
                bench.carried_vars()[0],
                "{}",
                bench.name()
            );
        }
    }
}
