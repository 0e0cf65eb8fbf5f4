//! Crate-level tests: the dense reference for the block-wise ADMM loop.
//!
//! [`SdpSolver::try_solve_from_with`] runs ADMM on the problem's
//! interval blocks. [`solve_dense`] runs the same iteration on full
//! `n × n` matrices — same kernels, same summation orders, same
//! adaptive-ρ and rank-stop schedule — so the two must agree bit for
//! bit. It is the oracle for that claim (`DESIGN.md` §6c).

use crate::sdp::tests::{assignment_problem, cpla_shaped_problem};
use crate::{
    psd_project_in_place, Cholesky, PsdScratch, SdpProblem, SdpSolution, SdpSolver, SolveScratch,
    SymMatrix,
};

/// Left-fold Frobenius norm. `Iterator::sum::<f64>()` folds from `-0.0`
/// (the IEEE additive identity), so every accumulator mirroring a
/// `sum()` starts there to stay bit-identical on all-zero input.
fn frob_norm(v: &[f64]) -> f64 {
    let mut acc = -0.0f64;
    for &x in v {
        acc += x * x;
    }
    acc.sqrt()
}

/// Solves `problem` with the dense ADMM loop. The inputs must be ones
/// the per-leaf solver accepts; the reference does not re-check them.
fn solve_dense(
    solver: &SdpSolver,
    problem: &SdpProblem,
    warm: Option<(&SymMatrix, &SymMatrix)>,
) -> SdpSolution {
    let n = problem.dim();
    let nn = n * n;
    let rows = problem.constraints_raw();
    let warm = warm.filter(|(z0, u0)| z0.dim() == n && u0.dim() == n);
    let factor = (!rows.is_empty()).then(|| {
        let mut gram = problem.gram();
        let ridge = 1e-9 * (1.0 + gram.norm());
        for k in 0..rows.len() {
            gram.add_to(k, k, ridge);
        }
        Cholesky::factor(&gram).expect("reference input has a factorable Gram matrix")
    });

    let inv_scale = 1.0 / problem.cost().norm().max(1e-12);
    let c: Vec<f64> = problem
        .cost()
        .as_slice()
        .iter()
        .map(|&v| v * inv_scale)
        .collect();
    let (mut z, mut u) = match warm {
        Some((z0, u0)) => (z0.as_slice().to_vec(), u0.as_slice().to_vec()),
        None => (vec![0.0; nn], vec![0.0; nn]),
    };
    let mut x = vec![0.0; nn];
    let mut target = vec![0.0; nn];
    let mut adj = vec![0.0; nn];
    let mut zprev = vec![0.0; nn];
    let mut diff = vec![0.0; nn];
    let mut psd = PsdScratch::new();
    let (mut ax, mut rhs, mut y, mut nu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rank_k = if solver.rank_stop_vars == 0 {
        n
    } else {
        solver.rank_stop_vars.min(n)
    };
    let mut rank_prev: Vec<u32> = Vec::new();
    let mut rank_stable = 0;

    let mut rho = solver.rho;
    let mut iterations = 0;
    let mut primal = f64::INFINITY;
    let mut converged = false;
    for it in 0..solver.max_iterations {
        iterations = it + 1;
        // X-update: affine projection of Z − U − C/ρ.
        let cscale = -1.0 / rho;
        for k in 0..nn {
            target[k] = z[k] - u[k] + cscale * c[k];
        }
        match &factor {
            None => x.copy_from_slice(&target),
            Some(factor) => {
                ax.clear();
                for row in rows {
                    let mut acc = -0.0f64;
                    for &(i, j, coeff) in &row.entries {
                        acc += coeff * target[i * n + j];
                    }
                    ax.push(acc);
                }
                rhs.clear();
                rhs.extend(rows.iter().zip(&ax).map(|(row, a)| rho * (row.rhs - a)));
                factor.solve_into(&rhs, &mut y, &mut nu);
                adj.fill(0.0);
                for (row, &v) in rows.iter().zip(&nu) {
                    for &(i, j, coeff) in &row.entries {
                        if i == j {
                            adj[i * n + i] += v * coeff;
                        } else {
                            let half = v * coeff / 2.0;
                            adj[i * n + j] += half;
                            adj[j * n + i] += half;
                        }
                    }
                }
                let inv_rho = 1.0 / rho;
                for k in 0..nn {
                    x[k] = target[k] + inv_rho * adj[k];
                }
            }
        }

        // Z-update: PSD projection of X + U.
        zprev.copy_from_slice(&z);
        for k in 0..nn {
            z[k] = x[k] + u[k];
        }
        psd_project_in_place(&mut z, n, &mut psd);

        // U-update and residuals.
        for k in 0..nn {
            diff[k] = x[k] - z[k];
            u[k] += diff[k];
        }
        primal = frob_norm(&diff);
        let dual = {
            let mut acc = -0.0f64;
            for k in 0..nn {
                let d = z[k] - zprev[k];
                acc += d * d;
            }
            rho * acc.sqrt()
        };
        let scale = 1.0 + frob_norm(&x).max(frob_norm(&z));
        if primal < solver.tolerance * scale && dual < solver.tolerance * scale {
            converged = true;
            break;
        }
        if solver.rank_stop_window > 0 && it >= 8 && it % 3 == 2 {
            let mag = (0..rank_k).fold(1e-12f64, |m, i| m.max(x[i * n + i].abs()));
            let quantum = 1e-3 * mag;
            let quant: Vec<i64> = (0..rank_k)
                .map(|i| (x[i * n + i] / quantum).round() as i64)
                .collect();
            let mut order: Vec<u32> = (0..rank_k as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                quant[b as usize].cmp(&quant[a as usize]).then(a.cmp(&b))
            });
            if order == rank_prev {
                rank_stable += 1;
                if rank_stable >= solver.rank_stop_window {
                    break;
                }
            } else {
                rank_stable = 0;
                rank_prev = order;
            }
        }
        if solver.adaptive_rho && it % 10 == 9 {
            if primal > 10.0 * dual {
                rho *= 2.0;
                for v in u.iter_mut() {
                    *v *= 0.5;
                }
            } else if dual > 10.0 * primal {
                rho *= 0.5;
                for v in u.iter_mut() {
                    *v *= 2.0;
                }
            }
        }
    }

    // Every zero written as +0.0, as the block loop's dense output does.
    let dense = |v: &[f64]| {
        let mut out = SymMatrix::zeros(n);
        for (d, &s) in out.as_mut_slice().iter_mut().zip(v) {
            *d = s + 0.0;
        }
        out
    };
    let x = dense(&x);
    let xs = x.as_slice();
    let mut constraint_residual = -0.0f64;
    for row in rows {
        let mut acc = -0.0f64;
        for &(i, j, coeff) in &row.entries {
            acc += coeff * xs[i * n + j];
        }
        constraint_residual += (acc - row.rhs).powi(2);
    }
    // ⟨C, X⟩ over the unnormalized cost.
    let mut objective = -0.0f64;
    for (cv, xv) in problem.cost().as_slice().iter().zip(xs) {
        objective += cv * xv;
    }
    SdpSolution {
        objective,
        iterations,
        primal_residual: primal,
        constraint_residual: constraint_residual.sqrt(),
        converged,
        z: dense(&z),
        u: dense(&u),
        x,
    }
}

fn assert_bitwise(a: &SdpSolution, b: &SdpSolution, label: &str) {
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.converged, b.converged, "{label}: converged");
    for (name, ma, mb) in [("x", &a.x, &b.x), ("z", &a.z, &b.z), ("u", &a.u, &b.u)] {
        let pa = ma.as_slice();
        let pb = mb.as_slice();
        assert_eq!(pa.len(), pb.len(), "{label}: {name} dims");
        for (k, (va, vb)) in pa.iter().zip(pb).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{label}: {name}[{k}] {va} vs {vb}"
            );
        }
    }
    for (name, va, vb) in [
        ("objective", a.objective, b.objective),
        ("primal", a.primal_residual, b.primal_residual),
        ("constraint", a.constraint_residual, b.constraint_residual),
    ] {
        assert_eq!(va.to_bits(), vb.to_bits(), "{label}: {name}");
    }
}

#[test]
fn block_loop_matches_the_dense_reference_bitwise() {
    let mut problems: Vec<SdpProblem> = vec![
        assignment_problem(1, 0.0),
        assignment_problem(2, 0.5),
        assignment_problem(3, 1.5),
        assignment_problem(2, 0.0),
        SdpProblem::new(SymMatrix::identity(3)), // unconstrained
    ];
    // Multi-interval CPLA-shaped problems: nets of tree-coupled
    // segments, with and without capacity slacks.
    let shapes: [(&[usize], usize, usize); 4] = [
        (&[3, 1, 4], 2, 2),
        (&[5, 2], 3, 3),
        (&[1, 1, 6, 2], 3, 0),
        (&[7], 4, 2),
    ];
    let cpla = problems.len();
    for (seed, &(nets, layers, caps)) in shapes.iter().enumerate() {
        problems.push(cpla_shaped_problem(nets, layers, caps, seed as u64));
    }
    let solver = SdpSolver {
        max_iterations: 120,
        ..SdpSolver::default()
    };
    // Warm pairs from cold solves of same-sized neighbors: one with
    // the same nets and other costs, one with all segments in one
    // net, whose wider pattern widens the intervals.
    let mut warm_pairs: Vec<(usize, SdpSolution)> = Vec::new();
    for (k, &(nets, layers, caps)) in shapes.iter().enumerate() {
        let segs: usize = nets.iter().sum();
        for (seed, nets) in [(100 + k as u64, nets), (200 + k as u64, &[segs][..])] {
            let sibling = cpla_shaped_problem(nets, layers, caps, seed);
            let cold = solver.try_solve_from(&sibling, None).expect("sibling");
            warm_pairs.push((cpla + k, cold));
        }
    }
    // The CPLA engine's rank-stop configuration on the warm runs.
    let ranked = |p: &SdpProblem| SdpSolver {
        rank_stop_window: 2,
        rank_stop_vars: p.dim() - 3,
        ..solver
    };
    type Run<'a> = (
        SdpSolver,
        &'a SdpProblem,
        Option<(&'a SymMatrix, &'a SymMatrix)>,
    );
    let mut runs: Vec<Run> = problems.iter().map(|p| (solver, p, None)).collect();
    for (pi, sol) in &warm_pairs {
        for cfg in [solver, ranked(&problems[*pi])] {
            runs.push((cfg, &problems[*pi], Some((&sol.z, &sol.u))));
        }
    }
    // One run stopped by a 5-iteration cap, one left to converge.
    let capped = SdpSolver {
        max_iterations: 5,
        ..SdpSolver::default()
    };
    runs.push((capped, &problems[1], None));
    runs.push((SdpSolver::default(), &problems[1], None));

    // One scratch threaded through problems of every size and
    // pattern, as the engine's serial Solve path does.
    let mut scratch = SolveScratch::new();
    let mut outcomes = Vec::new();
    for (i, &(cfg, p, warm)) in runs.iter().enumerate() {
        let leaf = cfg
            .try_solve_from_with(p, warm, &mut scratch)
            .expect("per-leaf solve");
        assert_bitwise(&solve_dense(&cfg, p, warm), &leaf, &format!("run {i}"));
        outcomes.push(leaf);
    }
    let (capped, converged) = (&outcomes[runs.len() - 2], &outcomes[runs.len() - 1]);
    assert_eq!(capped.iterations, 5);
    assert!(!capped.converged);
    assert!(converged.converged);
}
