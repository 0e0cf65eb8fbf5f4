//! Pins the SDP solves of the partition programs.
//!
//! Every first-round partition program of one Table-2 design (the ones
//! `problem_pin.rs` digests) is lowered with `to_sdp` and solved with
//! the engine's `SdpSolver`, ranking over the assignment variables as
//! the Solve stage does: first cold, then warm-started from its own
//! `(z, u)`. One FNV-1a digest covers each solution's `x`, `z` and `u`
//! entries (bits, dense upper triangle), its iteration count and
//! convergence flag, and the bits of its objective and residuals.
//!
//! A change to how the solver computes must leave the digest alone; a
//! change to what it computes must re-pin it on purpose.

mod common;

use common::Fnv;
use cpla::{CplaConfig, SolverKind};
use solver::{BlockMatrix, SdpSolution, SdpSolver};

/// Digest and solve count, recorded before the Gram factor and the
/// problem hand-off became sparse.
const PINNED_DIGEST: u64 = 0x28a4_8bd5_f13f_6c5d;
const PINNED_SOLVES: usize = 618;

fn digest_matrix(h: &mut Fnv, m: &BlockMatrix) {
    let n = m.dim();
    h.size(n);
    for i in 0..n {
        for j in i..n {
            h.word(m.get(i, j).to_bits());
        }
    }
}

fn digest_solution(h: &mut Fnv, s: &SdpSolution) {
    for m in [&s.x, &s.z, &s.u] {
        digest_matrix(h, m);
    }
    h.size(s.iterations);
    h.word(u64::from(s.converged));
    h.word(u64::from(s.warm_started));
    for v in [s.objective, s.primal_residual, s.constraint_residual] {
        h.word(v.to_bits());
    }
}

fn solve_digest() -> (u64, usize) {
    let SolverKind::Sdp(base) = CplaConfig::default().solver else {
        panic!("the engine's default solver is the SDP");
    };
    let mut h = Fnv::new();
    let mut solves = 0;
    for problem in common::first_round_problems() {
        let solver = SdpSolver {
            rank_stop_vars: problem.num_variables(),
            ..base
        };
        let (sdp, _) = problem.to_sdp();
        let cold = solver.solve(&sdp);
        digest_solution(&mut h, &cold);
        let warm = solver.solve_from(&sdp, Some((&cold.z, &cold.u)));
        assert!(warm.warm_started);
        digest_solution(&mut h, &warm);
        solves += 2;
    }
    (h.0, solves)
}

#[test]
fn first_round_partition_solves_are_pinned() {
    let (digest, solves) = solve_digest();
    assert_eq!(
        (digest, solves),
        (PINNED_DIGEST, PINNED_SOLVES),
        "digest {digest:#018x} over {solves} solves"
    );
}
