//! Compiler configurations: the five variants of the paper's evaluation,
//! plus the autotuner's per-program plans.

use halo_ckks::CkksParams;

use crate::autotune::{TunePlan, UnrollChoice};

/// The five bootstrapping-management configurations compared in §7, plus
/// [`CompilerConfig::Tuned`] — an explicit per-program plan produced by
/// the autotuner's search over the same knobs the heuristics fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerConfig {
    /// DaCapo baseline: fully unroll every loop, then place bootstraps over
    /// the straight-line program (candidate filtering + DP). Rejects
    /// dynamic trip counts.
    DaCapo,
    /// HALO's type-matched loop only: peel + floor modswitch + per-variable
    /// head bootstraps, no optimization.
    TypeMatched,
    /// Type-matched + loop-carried packing (§6.1).
    Packing,
    /// Packing + level-aware unrolling (§6.2).
    PackingUnrolling,
    /// All optimizations: packing + unrolling + target-level tuning (§6.3).
    Halo,
    /// An explicit autotuned plan (`crate::autotune`): every knob the
    /// heuristic variants decide by rule is spelled out per program.
    Tuned(TunePlan),
}

impl CompilerConfig {
    /// All five configurations in the paper's presentation order.
    pub const ALL: [CompilerConfig; 5] = [
        CompilerConfig::DaCapo,
        CompilerConfig::TypeMatched,
        CompilerConfig::Packing,
        CompilerConfig::PackingUnrolling,
        CompilerConfig::Halo,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CompilerConfig::DaCapo => "DaCapo",
            CompilerConfig::TypeMatched => "Type-matched",
            CompilerConfig::Packing => "Packing",
            CompilerConfig::PackingUnrolling => "Packing+Unrolling",
            CompilerConfig::Halo => "HALO",
            CompilerConfig::Tuned(_) => "Tuned",
        }
    }

    /// The plan this configuration compiles through: every configuration
    /// is a point of the autotuner's space, so one pipeline compiles them
    /// all.
    #[must_use]
    pub fn plan(self) -> TunePlan {
        let (unroll, pack, tune_targets) = match self {
            CompilerConfig::DaCapo => (UnrollChoice::Full, false, false),
            CompilerConfig::TypeMatched => (UnrollChoice::None, false, false),
            CompilerConfig::Packing => (UnrollChoice::None, true, false),
            CompilerConfig::PackingUnrolling => (UnrollChoice::Heuristic, true, false),
            CompilerConfig::Halo => (UnrollChoice::Heuristic, true, true),
            CompilerConfig::Tuned(plan) => return plan,
        };
        TunePlan {
            unroll,
            pack,
            peel_extra: 0,
            tune_targets,
        }
    }

    /// Whether this configuration applies the packing optimization.
    #[must_use]
    pub fn packs(self) -> bool {
        self.plan().pack
    }

    /// Whether this configuration applies loop unrolling of any kind
    /// (level-aware, explicit-factor, or full).
    #[must_use]
    pub fn unrolls(self) -> bool {
        self.plan().unroll != UnrollChoice::None
    }

    /// Whether this configuration tunes bootstrap target levels.
    #[must_use]
    pub fn tunes(self) -> bool {
        self.plan().tune_targets
    }
}

/// Knobs shared by every configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Scheme parameters (level budget, slot count).
    pub params: CkksParams,
    /// DaCapo candidate filter width: how many lowest-live-count program
    /// points the placement DP considers (§5.3: "DaCapo filters the
    /// candidate bootstrapping insertion points").
    pub placement_filter: usize,
}

impl CompileOptions {
    /// Default options for the given parameters.
    #[must_use]
    pub fn new(params: CkksParams) -> CompileOptions {
        CompileOptions {
            params,
            placement_filter: 96,
        }
    }
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions::new(CkksParams::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_feature_matrix() {
        use CompilerConfig as C;
        // DaCapo unrolls fully.
        assert!(!C::DaCapo.packs() && C::DaCapo.unrolls() && !C::DaCapo.tunes());
        assert!(!C::TypeMatched.packs());
        assert!(C::Packing.packs() && !C::Packing.unrolls());
        assert!(C::PackingUnrolling.unrolls() && !C::PackingUnrolling.tunes());
        assert!(C::Halo.packs() && C::Halo.unrolls() && C::Halo.tunes());
        assert_eq!(C::ALL.len(), 5);
    }

    #[test]
    fn tuned_features_read_the_plan() {
        use CompilerConfig as C;
        let plan = TunePlan {
            unroll: UnrollChoice::Factor(3),
            pack: true,
            peel_extra: 1,
            tune_targets: false,
        };
        let c = C::Tuned(plan);
        assert_eq!(c.name(), "Tuned");
        assert!(c.packs() && c.unrolls() && !c.tunes());
        let base = C::Tuned(TunePlan::baseline());
        assert!(!base.packs() && !base.unrolls() && !base.tunes());
        for config in C::ALL {
            assert_eq!(C::Tuned(config.plan()).plan(), config.plan());
        }
        assert_eq!(C::TypeMatched.plan(), TunePlan::baseline());
    }
}
