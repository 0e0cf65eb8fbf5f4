//! Numerical substrate for the CPLA reproduction.
//!
//! The paper solves its per-partition layer-assignment problems with two
//! external engines: GUROBI (ILP) and CSDP (semidefinite programming).
//! Neither is available as a mature pure-Rust crate, so this crate
//! implements both from scratch (see `DESIGN.md` §2 for the substitution
//! rationale):
//!
//! * [`SymMatrix`], [`eigen_decompose`], [`psd_project`], [`Cholesky`] —
//!   dense symmetric linear algebra sized for per-partition problems
//!   (matrix dimension ≲ a few hundred).
//! * [`SdpProblem`] / [`SdpSolver`] — an ADMM (alternating direction
//!   method of multipliers) solver for standard-form SDPs
//!   `min ⟨C, X⟩ s.t. ⟨A_k, X⟩ = b_k, X ⪰ 0`. It iterates on the
//!   problem's diagonal blocks and returns its iterates, and takes its
//!   warm start, as [`BlockMatrix`]es.
//! * [`ChoiceProblem`] / branch-and-bound — an exact, anytime solver for
//!   the assignment-structured ILPs the paper sends to GUROBI.
//!
//! # Example: a 2×2 SDP
//!
//! ```
//! use solver::{SdpProblem, SdpSolver, SymMatrix};
//!
//! // min X00 + 2·X11  s.t.  X00 + X11 = 1, X ⪰ 0  →  X00 = 1.
//! let mut c = SymMatrix::zeros(2);
//! c.set(0, 0, 1.0);
//! c.set(1, 1, 2.0);
//! let mut p = SdpProblem::new(c);
//! p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
//! let solver = SdpSolver::default();
//! let sol = solver.solve(&p);
//! assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3);
//!
//! // Nothing couples X00 and X11, so the iterates come back as two
//! // 1×1 blocks: off them, entries are zero and take no memory.
//! assert_eq!(sol.x.get(0, 1), 0.0);
//! // (z, u) warm-starts a re-solve in that form.
//! let again = solver.solve_from(&p, Some((&sol.z, &sol.u)));
//! assert!(again.warm_started);
//! assert!((again.x.get(0, 0) - 1.0).abs() < 1e-3);
//! ```

// Numerical kernels (Cholesky, tridiagonal QL) are direct
// transcriptions of the textbook index-based algorithms; iterator
// rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod error;
mod ilp;
mod matrix;
mod sdp;
#[cfg(test)]
mod tests;

pub use cholesky::{Cholesky, CholeskyError};
pub use eigen::{eigen_decompose, eigen_decompose_jacobi, Eigen};
pub use error::SolveError;
pub use ilp::{CapacityGroup, ChoiceProblem, IlpSolution, PairCost, SoftGroup};
pub use matrix::{psd_project, psd_project_in_place, BlockMatrix, PsdScratch, SymMatrix};
pub use sdp::{SdpProblem, SdpSolution, SdpSolver, SolveScratch};
