//! Crate-level tests: the dense reference for the block-wise ADMM loop.
//!
//! [`SdpSolver::try_solve_from_with`] runs ADMM on the problem's
//! interval blocks, over its sparse cost, constraints, Gram matrix and
//! Cholesky factor, and returns its iterates as [`BlockMatrix`]es.
//! [`solve_dense`] runs the same iteration on full `n × n` matrices,
//! with the dense `BTreeMap` Gram build and the dense factor — same
//! kernels, same summation orders, same adaptive-ρ and rank-stop
//! schedule — from the dense expansion of the same warm pair, so the
//! two must agree bit for bit. It is the oracle for that claim
//! (`DESIGN.md` §6c).

use prng::Rng;

use crate::cholesky::tests::DenseCholesky;
use crate::matrix::{psd_project_in_place, PsdScratch};
use crate::sdp::tests::{assignment_problem, bounds, cpla_shaped_problem};
use crate::{BlockMatrix, SdpProblem, SdpSolution, SdpSolver, SolveScratch, SymMatrix};

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

/// What [`solve_dense`] returns: [`SdpSolution`]'s fields, with dense
/// iterates.
struct DenseSolution {
    x: SymMatrix,
    z: SymMatrix,
    u: SymMatrix,
    objective: f64,
    iterations: usize,
    primal_residual: f64,
    constraint_residual: f64,
    converged: bool,
}

/// Solves `problem` with the dense ADMM loop. The inputs must be ones
/// the per-leaf solver accepts; the reference does not re-check them.
fn solve_dense(
    solver: &SdpSolver,
    problem: &SdpProblem,
    warm: Option<(&SymMatrix, &SymMatrix)>,
) -> DenseSolution {
    let n = problem.dim();
    let nn = n * n;
    let rows: Vec<_> = (0..problem.num_constraints())
        .map(|k| problem.constraint(k))
        .collect();
    let warm = warm.filter(|(z0, u0)| z0.dim() == n && u0.dim() == n);
    let factor = (!rows.is_empty()).then(|| {
        let mut gram = problem.dense_gram();
        let ridge = 1e-9 * (1.0 + gram.norm());
        for k in 0..rows.len() {
            gram.add_to(k, k, ridge);
        }
        DenseCholesky::factor(&gram).expect("reference input has a factorable Gram matrix")
    });

    let cost = problem.to_dense_cost();
    let inv_scale = 1.0 / cost.norm().max(1e-12);
    let c: Vec<f64> = cost.as_slice().iter().map(|&v| v * inv_scale).collect();
    let (mut z, mut u) = match warm {
        Some((z0, u0)) => (z0.as_slice().to_vec(), u0.as_slice().to_vec()),
        None => (vec![0.0; nn], vec![0.0; nn]),
    };
    let mut x = vec![0.0; nn];
    let mut target = vec![0.0; nn];
    let mut adj = vec![0.0; nn];
    let mut zprev = vec![0.0; nn];
    let mut diff = vec![0.0; nn];
    let mut psd = PsdScratch::default();
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
                for &(entries, _) in &rows {
                    let mut acc = -0.0f64;
                    for &(i, j, coeff) in entries {
                        acc += coeff * target[i * n + j];
                    }
                    ax.push(acc);
                }
                rhs.clear();
                rhs.extend(rows.iter().zip(&ax).map(|(&(_, b), a)| rho * (b - a)));
                factor.solve_into(&rhs, &mut y, &mut nu);
                adj.fill(0.0);
                for (&(entries, _), &v) in rows.iter().zip(&nu) {
                    for &(i, j, coeff) in entries {
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
    for &(entries, b) in &rows {
        let mut acc = -0.0f64;
        for &(i, j, coeff) in entries {
            acc += coeff * xs[i * n + j];
        }
        constraint_residual += (acc - b).powi(2);
    }
    // ⟨C, X⟩ over the unnormalized cost.
    let mut objective = -0.0f64;
    for (cv, xv) in cost.as_slice().iter().zip(xs) {
        objective += cv * xv;
    }
    DenseSolution {
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

/// Asserts that the block solution `b` expands to the dense one `a`,
/// bit for bit.
fn assert_bitwise(a: &DenseSolution, b: &SdpSolution, label: &str) {
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.converged, b.converged, "{label}: converged");
    for (name, ma, mb) in [("x", &a.x, &b.x), ("z", &a.z, &b.z), ("u", &a.u, &b.u)] {
        let mb = mb.to_dense();
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

/// Solves `p` block-wise through `scratch` and densely from the dense
/// expansion of the same warm pair, asserts that the two agree bit for
/// bit, and returns the block solution.
fn solve_both(
    cfg: SdpSolver,
    p: &SdpProblem,
    warm: Option<(&BlockMatrix, &BlockMatrix)>,
    scratch: &mut SolveScratch,
    label: &str,
) -> SdpSolution {
    let leaf = cfg
        .try_solve_from_with(p, warm, scratch)
        .expect("per-leaf solve");
    let dense = warm.map(|(z, u)| (z.to_dense(), u.to_dense()));
    let reference = solve_dense(&cfg, p, dense.as_ref().map(|(z, u)| (z, u)));
    assert_bitwise(&reference, &leaf, label);
    leaf
}

/// The CPLA engine's solver configuration on a CPLA-shaped problem
/// with `vars` assignment variables: a 200-iteration cap and the
/// rank-stop window of 2 over the assignment variables.
fn engine_config(vars: usize) -> SdpSolver {
    SdpSolver {
        max_iterations: 200,
        tolerance: 1e-4,
        rank_stop_window: 2,
        rank_stop_vars: vars,
        ..SdpSolver::default()
    }
}

/// A random split of `segs ≥ 2` segments into at least two nets.
fn split_nets(rng: &mut Rng, segs: usize) -> Vec<usize> {
    let mut nets = vec![rng.range_usize(1, segs - 1)];
    let mut left = segs - nets[0];
    while left > 0 {
        let size = rng.range_usize(1, left);
        nets.push(size);
        left -= size;
    }
    nets
}

/// `m` laid out as one block over `0..n`, with `-0.0` on about a
/// quarter of the diagonal and on about half of the zero off-diagonal
/// entries, most of which lie outside `m`'s blocks.
fn with_negative_zeros(m: &BlockMatrix, rng: &mut Rng) -> BlockMatrix {
    let n = m.dim();
    let mut out = BlockMatrix::zeros(&[0, n]);
    for i in 0..n {
        for j in i..n {
            let v = m.get(i, j);
            let flip = if i == j {
                rng.bool(0.25)
            } else {
                v == 0.0 && rng.bool(0.5)
            };
            out.set(i, j, if flip { -0.0 } else { v });
        }
    }
    out
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
        Option<(&'a BlockMatrix, &'a BlockMatrix)>,
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
        outcomes.push(solve_both(cfg, p, warm, &mut scratch, &format!("run {i}")));
    }
    let (capped, converged) = (&outcomes[runs.len() - 2], &outcomes[runs.len() - 1]);
    assert_eq!(capped.iterations, 5);
    assert!(!capped.converged);
    assert!(converged.converged);

    // Warm chains under the engine's configuration: a cold solve, then
    // three same-dimension problems, each warm-started from the block
    // pair the link before it returned. The problems' own intervals
    // widen (one net holds every segment), narrow (split into nets
    // again) and stay the same (same nets, new costs); the warm pair
    // keeps the wide blocks of the widening link alive after it.
    let chains = if cfg!(feature = "proptest") { 96 } else { 8 };
    for seed in 0..chains {
        let mut rng = Rng::seed_from_u64(0xC4A1_0000 + seed);
        let segs = rng.range_usize(2, 7);
        let layers = rng.range_usize(2, 3);
        let caps = rng.range_usize(0, 2);
        let cfg = engine_config(segs * layers);
        let first = split_nets(&mut rng, segs);
        let narrow = split_nets(&mut rng, segs);
        let mut shape = |nets: &[usize]| cpla_shaped_problem(nets, layers, caps, rng.u64());
        let links = [
            shape(&first),
            shape(&[segs]),
            shape(&narrow),
            shape(&narrow),
        ];
        let own: Vec<Vec<usize>> = links.iter().map(|p| bounds(p, None)).collect();
        assert!(
            own[1].len() < own[0].len() && own[2].len() > own[1].len() && own[3] == own[2],
            "chain {seed}: intervals {own:?}"
        );
        let mut pairs: Vec<SdpSolution> = Vec::new();
        for (k, p) in links.iter().enumerate() {
            let warm = pairs.last().map(|s| (&s.z, &s.u));
            let label = format!("chain {seed} link {k}");
            let leaf = solve_both(cfg, p, warm, &mut scratch, &label);
            assert_eq!(leaf.warm_started, k > 0, "{label}");
            pairs.push(leaf);
        }

        // The cold link's pair stored as one block holding -0.0 entries:
        // detection finds its narrower intervals, and the -0.0 entries
        // inside them are loaded as they are.
        let (z, u) = (&pairs[0].z, &pairs[0].u);
        let (z, u) = (
            with_negative_zeros(z, &mut rng),
            with_negative_zeros(u, &mut rng),
        );
        assert!(bounds(&links[0], Some((&z, &u))).len() > 2, "chain {seed}");
        let label = format!("chain {seed}, -0.0 pair");
        let leaf = solve_both(cfg, &links[0], Some((&z, &u)), &mut scratch, &label);
        assert!(leaf.warm_started, "{label}");

        // A pair of another dimension is ignored.
        let wider = cpla_shaped_problem(&narrow, layers, caps + 1, rng.u64());
        let label = format!("chain {seed}, mismatched pair");
        let stale = pairs.last().map(|s| (&s.z, &s.u));
        let leaf = solve_both(cfg, &wider, stale, &mut scratch, &label);
        assert!(!leaf.warm_started, "{label}");
    }
}
