//! An exact, from-scratch RNS-CKKS implementation at reduced ring degree.
//!
//! The simulation backend carries plaintext semantics with modeled noise;
//! this module grounds those semantics in real lattice arithmetic:
//! negacyclic NTT polynomial rings, an RNS prime chain, RLWE
//! encryption, relinearization and Galois key switching via hybrid
//! (`dnum`-digit) decomposition over special primes, and exact RNS
//! rescaling.
//! Bootstrapping remains a level-restoring re-encryption (`DESIGN.md` §4,
//! substitution 2) — everything else is the genuine algebra.
//!
//! Intended for semantic validation at `N ≤ 2^12`; the algebra is
//! degree-independent, so agreement here transfers to the simulated
//! full-size runs.

pub mod encode;
pub mod modular;
pub mod ntt;
pub mod poly;
pub mod scheme;

pub use poly::{HoistedDigits, LimbMut, LimbRef, PolyView, RnsContext, RnsPoly, ShoupPoly};
pub use scheme::{ToyBackend, ToyCt};
