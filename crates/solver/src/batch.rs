//! Batched lock-step execution of many independent ADMM SDP solves.
//!
//! [`solve_batch`] packs every problem of a round into a contiguous
//! structure-of-arrays arena — normalized cost matrices, `(x, z, u)`
//! ADMM iterates and constraint right-hand sides in one flat `f64`
//! buffer addressed by per-lane offset tables, constraint entries in
//! CSR form with `u32` indices — then advances every lane one ADMM
//! iteration per sweep with flat kernels: the shared
//! `tred2`/`tqli` eigendecomposition for the PSD projection, Cholesky
//! forward/backward substitution for the affine projection, and
//! stride-indexed elementwise loops for the target/dual updates.
//! Nothing inside the sweep allocates: the arena is sized at setup and
//! each shard carries one max-dimension scratch reused by all its
//! lanes.
//!
//! Lanes that terminate — residual convergence, the rank-stability
//! early stop, or the iteration cap — retire from the active list via
//! an order-preserving compaction pass, so sweeps shrink as the round
//! drains. With `threads > 1` lanes are sharded by a deterministic
//! longest-processing-time rule and each shard is swept by its own
//! thread; lane arithmetic never depends on the sharding, so results
//! are identical at any thread count.
//!
//! Each lane runs the ADMM iteration on dense `n × n` matrices. The
//! per-leaf [`SdpSolver::try_solve_from`] runs the same iteration —
//! same kernels, same summation orders, same adaptive-ρ and early-stop
//! schedule — on the problem's interval blocks only, so the two
//! backends produce bit-identical solutions, and this dense loop is the
//! reference the block-wise one is tested against. The flat layout is
//! also the seam a GPU backend would slot into (see `DESIGN.md` §11).

use std::time::Instant;

use crate::cholesky::factor_into;
use crate::eigen::{collect_descending, jacobi_sweeps};
use crate::matrix::{psd_project_in_place, PsdScratch};
use crate::{
    Cholesky, CholeskyError, Eigen, SdpProblem, SdpSolution, SdpSolver, SolveError, SymMatrix,
};

/// One lane of a batched solve: the per-problem solver configuration
/// (rank-stop parameters differ per leaf), the extracted problem, and
/// an optional warm start.
pub struct BatchItem<'a> {
    /// ADMM configuration for this lane.
    pub solver: SdpSolver,
    /// The standard-form SDP to solve.
    pub problem: &'a SdpProblem,
    /// Warm-start `(z, u)` iterates; ignored on dimension mismatch,
    /// exactly like [`SdpSolver::solve_from`].
    pub warm: Option<(&'a SymMatrix, &'a SymMatrix)>,
}

/// Per-shard execution record of one [`solve_batch`] call, for
/// observability (the flow layer reports one span per shard).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ShardStats {
    /// Lanes assigned to this shard.
    pub lanes: usize,
    /// Lock-step sweeps the shard ran (= its slowest lane's iterations).
    pub sweeps: u64,
    /// Shard start, seconds after the batch call began.
    pub start_secs: f64,
    /// Shard wall time in seconds.
    pub secs: f64,
}

/// Result of a [`solve_batch`] call.
pub struct BatchOutcome {
    /// One result per input item, in input order.
    pub results: Vec<Result<SdpSolution, SolveError>>,
    /// Total lock-step sweeps across all shards.
    pub sweeps: u64,
    /// Lanes that retired before their iteration cap (residual
    /// convergence or rank-stability stop).
    pub retired_early: u64,
    /// Per-shard execution records.
    pub shards: Vec<ShardStats>,
}

/// Reusable backing store for [`solve_batch`]: per-shard arenas whose
/// buffers keep their capacity across calls, so repeated rounds
/// re-solve into already-grown allocations instead of touching the
/// allocator again.
#[derive(Default)]
pub struct BatchArena {
    shards: Vec<Shard>,
}

impl BatchArena {
    /// An empty arena; shards are sized on first use.
    pub fn new() -> BatchArena {
        BatchArena::default()
    }
}

/// Offsets and iteration state of one lane. All `f64` state lives in
/// the owning shard's arena; the lane holds only offsets into it.
struct Lane {
    /// Index of the originating [`BatchItem`].
    item: usize,
    /// Matrix dimension.
    n: usize,
    /// Constraint count.
    m: usize,
    /// Arena offset of the normalized cost matrix (`n·n`).
    c: usize,
    /// Arena offset of the `X` iterate (`n·n`).
    x: usize,
    /// Arena offset of the `Z` iterate (`n·n`).
    z: usize,
    /// Arena offset of the scaled dual `U` (`n·n`).
    u: usize,
    /// Arena offset of the constraint right-hand sides (`m`).
    b: usize,
    /// Index into the shard's `rows` table of this lane's first CSR row
    /// offset (the lane owns `m + 1` consecutive offsets).
    rows_start: usize,
    /// Pre-factored ridge-regularized constraint Gram matrix.
    factor: Option<Cholesky>,
    /// Per-lane solver configuration.
    solver: SdpSolver,
    /// Current penalty ρ (adapted per lane).
    rho: f64,
    /// Iterations completed.
    it: usize,
    /// Offset of this lane's previous-ranking slots in the shard's
    /// `rank` arena.
    rank_off: usize,
    /// Ranking prefix length (`rank_stop_vars` resolved against `n`).
    rank_k: usize,
    /// Whether a previous ranking sample exists (mirrors the per-leaf
    /// path's initially-empty `rank_prev`).
    rank_has_prev: bool,
    /// Consecutive stable ranking samples.
    rank_stable: usize,
    /// Last primal residual `‖X − Z‖_F`.
    primal: f64,
    /// Whether both residuals met the tolerance.
    converged: bool,
    /// Whether the lane has terminated (any cause).
    done: bool,
}

/// Shared per-sweep workspaces, sized for the shard's largest lane and
/// reused by every lane in it. Everything the per-leaf path allocates
/// per iteration lives here instead.
#[derive(Default)]
struct Scratch {
    /// X-update target `Z − U − C/ρ`.
    target: Vec<f64>,
    /// Adjoint accumulation `Σ ν_k A_k`.
    adj: Vec<f64>,
    /// Previous `Z` (dual residual).
    zprev: Vec<f64>,
    /// `X − Z` (dual ascent + primal residual).
    diff: Vec<f64>,
    /// PSD-projection eigendecomposition workspace.
    psd: PsdScratch,
    /// Constraint values `A(target)`.
    ax: Vec<f64>,
    /// Right-hand side `ρ (b − A(target))`.
    rhs: Vec<f64>,
    /// Cholesky forward-substitution intermediate.
    y: Vec<f64>,
    /// Dual multipliers `ν`.
    nu: Vec<f64>,
    /// Quantized diagonal for the ranking check.
    quant: Vec<i64>,
    /// Candidate ranking for the ranking check.
    order: Vec<u32>,
}

/// One independently-swept slice of the batch: a flat `f64` arena, CSR
/// constraint storage, lane table and scratch.
#[derive(Default)]
struct Shard {
    /// Flat `f64` arena holding every lane's `[c | x | z | u | b]`.
    f: Vec<f64>,
    /// CSR constraint entries `(i, j, coeff)` across all lanes.
    entries: Vec<(u32, u32, f64)>,
    /// CSR row offsets into `entries`; each lane owns `m + 1` slots.
    rows: Vec<usize>,
    /// Previous ranking samples, `rank_k` slots per lane.
    rank: Vec<u32>,
    lanes: Vec<Lane>,
    /// Indices into `lanes` still iterating, in assignment order.
    active: Vec<usize>,
    scratch: Scratch,
    sweeps: u64,
}

impl Shard {
    /// Clears lane state while keeping every buffer's capacity.
    fn reset(&mut self) {
        self.f.clear();
        self.entries.clear();
        self.rows.clear();
        self.rank.clear();
        self.lanes.clear();
        self.active.clear();
        self.sweeps = 0;
    }

    /// Packs one item into the arena: normalized cost, cold/warm
    /// iterates, right-hand sides, CSR rows and the Gram factor.
    ///
    /// # Errors
    ///
    /// Returns the same [`SolveError::InvalidInput`] or
    /// [`SolveError::NotPositiveDefinite`] the per-leaf path produces
    /// for a rejected input or a ridge-regularized Gram matrix that
    /// fails to factor.
    fn push_lane(&mut self, item_idx: usize, item: &BatchItem) -> Result<(), SolveError> {
        let problem = item.problem;
        let n = problem.dim();
        let nn = n * n;
        let m = problem.num_constraints();
        let warm = item.warm.filter(|(z0, u0)| z0.dim() == n && u0.dim() == n);
        item.solver.check_inputs(problem, warm)?;

        // Factor the Gram matrix once (ridge-regularized), exactly as
        // the per-leaf path does at solve start.
        let factor = if m > 0 {
            let mut gram = problem.gram();
            let ridge = 1e-9 * (1.0 + gram.norm());
            for k in 0..m {
                gram.add_to(k, k, ridge);
            }
            Some(Cholesky::factor(&gram).map_err(SolveError::from)?)
        } else {
            None
        };

        // Cost, normalized so ρ's default scale is meaningful across
        // delay magnitudes (same normalization as the per-leaf path).
        let cost_scale = problem.cost().norm().max(1e-12);
        let inv_scale = 1.0 / cost_scale;
        let c = self.f.len();
        self.f
            .extend(problem.cost().as_slice().iter().map(|&v| v * inv_scale));
        let x = self.f.len();
        self.f.resize(x + nn, 0.0);
        let z = self.f.len();
        self.f.resize(z + nn, 0.0);
        let u = self.f.len();
        self.f.resize(u + nn, 0.0);
        if let Some((z0, u0)) = warm {
            self.f[z..z + nn].copy_from_slice(z0.as_slice());
            self.f[u..u + nn].copy_from_slice(u0.as_slice());
        }
        let b = self.f.len();
        self.f
            .extend(problem.constraints_raw().iter().map(|row| row.rhs));

        let rows_start = self.rows.len();
        self.rows.push(self.entries.len());
        for row in problem.constraints_raw() {
            for &(i, j, coeff) in &row.entries {
                self.entries.push((i as u32, j as u32, coeff));
            }
            self.rows.push(self.entries.len());
        }

        let rank_k = if item.solver.rank_stop_vars == 0 {
            n
        } else {
            item.solver.rank_stop_vars.min(n)
        };
        let rank_off = self.rank.len();
        self.rank.resize(rank_off + rank_k, 0);

        self.lanes.push(Lane {
            item: item_idx,
            n,
            m,
            c,
            x,
            z,
            u,
            b,
            rows_start,
            factor,
            solver: item.solver,
            rho: item.solver.rho,
            it: 0,
            rank_off,
            rank_k,
            rank_has_prev: false,
            rank_stable: 0,
            primal: f64::INFINITY,
            converged: false,
            done: false,
        });
        Ok(())
    }
}

/// Left-fold Frobenius norm of a flat buffer — the same accumulation
/// order as [`SymMatrix::norm`]. `Iterator::sum::<f64>()` folds from
/// `-0.0` (the IEEE additive identity), so every accumulator mirroring
/// a `sum()` must start there to stay bit-identical on all-zero input.
fn frob_norm(v: &[f64]) -> f64 {
    let mut acc = -0.0f64;
    for &x in v {
        acc += x * x;
    }
    acc.sqrt()
}

/// Advances one lane by one ADMM iteration. The body is the dense form
/// of the per-leaf [`SdpSolver::try_solve_from`] loop, statement for
/// statement; any edit here must keep the floating-point operation
/// sequence identical or the backend-equivalence snapshots will
/// (rightly) fail.
#[allow(clippy::too_many_arguments)]
fn step_lane(
    lane: &mut Lane,
    f: &mut [f64],
    entries: &[(u32, u32, f64)],
    rows: &[usize],
    rank: &mut [u32],
    s: &mut Scratch,
) {
    let cap = lane.solver.max_iterations;
    if lane.it >= cap {
        lane.done = true;
        return;
    }
    let it = lane.it;
    let n = lane.n;
    let nn = n * n;
    let m = lane.m;
    let rho = lane.rho;

    // Scratch buffers were sized for the shard's largest lane before
    // the sweep loop; slice views cost nothing per iteration, unlike
    // the resize-with-zero-fill this replaces.
    let target = &mut s.target[..nn];
    let diff = &mut s.diff[..nn];
    let zprev = &mut s.zprev[..nn];

    // The lane's `[c | x | z | u | b]` block is contiguous; split it
    // into disjoint views once.
    let region = &mut f[lane.c..lane.b + m];
    let (c, region) = region.split_at_mut(nn);
    let (x, region) = region.split_at_mut(nn);
    let (z, region) = region.split_at_mut(nn);
    let (u, b) = region.split_at_mut(nn);

    // X-update: affine projection of Z − U − C/ρ.
    //   target = Z − U − C/ρ  (two elementwise passes = sub + axpy)
    for k in 0..nn {
        target[k] = z[k] - u[k];
    }
    let cscale = -1.0 / rho;
    for k in 0..nn {
        target[k] += cscale * c[k];
    }
    match &lane.factor {
        None => x.copy_from_slice(target),
        Some(factor) => {
            // A(target) by CSR rows, same per-row left fold as
            // `SdpProblem::apply_into`.
            s.ax.clear();
            for row in 0..m {
                let span = rows[lane.rows_start + row]..rows[lane.rows_start + row + 1];
                // -0.0 start: see `frob_norm` on sum() bit-identity.
                let mut acc = -0.0f64;
                for &(i, j, coeff) in &entries[span] {
                    acc += coeff * target[i as usize * n + j as usize];
                }
                s.ax.push(acc);
            }
            s.rhs.clear();
            s.rhs
                .extend(b.iter().zip(&s.ax).map(|(bi, ai)| rho * (bi - ai)));
            factor.solve_into(&s.rhs, &mut s.y, &mut s.nu);
            // adjoint(ν) accumulated into zeroed scratch, same entry
            // order and symmetric split as the per-leaf X-update.
            let adj = &mut s.adj[..nn];
            adj.fill(0.0);
            for row in 0..m {
                let v = s.nu[row];
                let span = rows[lane.rows_start + row]..rows[lane.rows_start + row + 1];
                for &(i, j, coeff) in &entries[span] {
                    let (i, j) = (i as usize, j as usize);
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

    // Z-update: PSD projection of X + U (previous Z saved for the dual
    // residual, then the projection runs in place on Z's arena slot).
    zprev.copy_from_slice(z);
    for k in 0..nn {
        z[k] = x[k] + 1.0 * u[k];
    }
    psd_project_in_place(z, n, &mut s.psd);

    // U-update; the same X − Z difference feeds the dual ascent and the
    // primal residual.
    for k in 0..nn {
        diff[k] = x[k] - z[k];
    }
    for k in 0..nn {
        u[k] += 1.0 * diff[k];
    }

    let primal = frob_norm(diff);
    let dual = {
        let mut acc = -0.0f64;
        for k in 0..nn {
            let d = z[k] - zprev[k];
            acc += d * d;
        }
        rho * acc.sqrt()
    };
    lane.primal = primal;
    lane.it = it + 1;
    let scale = 1.0 + frob_norm(x).max(frob_norm(z));
    if primal < lane.solver.tolerance * scale && dual < lane.solver.tolerance * scale {
        lane.converged = true;
        lane.done = true;
        return;
    }
    if lane.solver.rank_stop_window > 0 && it >= 8 && it % 3 == 2 {
        let k = lane.rank_k;
        // Quantized ranking of the leading diagonal, identical to the
        // per-leaf rank-stability check.
        let mag = {
            let mut acc = 1e-12f64;
            for i in 0..k {
                acc = acc.max(x[i * n + i].abs());
            }
            acc
        };
        let quantum = 1e-3 * mag;
        s.quant.clear();
        for i in 0..k {
            s.quant.push((x[i * n + i] / quantum).round() as i64);
        }
        s.order.clear();
        s.order.extend(0..k as u32);
        let q = &s.quant;
        s.order
            .sort_unstable_by(|&a, &b| q[b as usize].cmp(&q[a as usize]).then(a.cmp(&b)));
        let prev = &mut rank[lane.rank_off..lane.rank_off + k];
        if lane.rank_has_prev && prev == &s.order[..] {
            lane.rank_stable += 1;
            if lane.rank_stable >= lane.solver.rank_stop_window {
                lane.done = true;
                return;
            }
        } else {
            lane.rank_stable = 0;
            prev.copy_from_slice(&s.order);
            lane.rank_has_prev = true;
        }
    }
    if lane.solver.adaptive_rho && it % 10 == 9 {
        if primal > 10.0 * dual {
            lane.rho = rho * 2.0;
            for v in u.iter_mut() {
                *v *= 0.5;
            }
        } else if dual > 10.0 * primal {
            lane.rho = rho * 0.5;
            for v in u.iter_mut() {
                *v *= 2.0;
            }
        }
    }
    if lane.it >= cap {
        lane.done = true;
    }
}

/// Order-preserving retirement: drops every lane whose `done` flag is
/// set from the active list, keeping the remaining sweep order intact.
fn compact_active(active: &mut Vec<usize>, done: impl Fn(usize) -> bool) {
    active.retain(|&li| !done(li));
}

/// Sweeps a shard to completion and materializes every lane's solution.
fn run_shard(shard: &mut Shard, items: &[BatchItem]) -> Vec<(usize, SdpSolution)> {
    let Shard {
        f,
        entries,
        rows,
        rank,
        lanes,
        active,
        scratch,
        sweeps,
    } = shard;
    active.clear();
    active.extend(0..lanes.len());
    // Size the shared elementwise workspaces for the largest lane once;
    // `step_lane` then takes free `[..nn]` views instead of resizing
    // (and zero-filling) per iteration.
    let max_nn = lanes.iter().map(|l| l.n * l.n).max().unwrap_or(0);
    for buf in [
        &mut scratch.target,
        &mut scratch.adj,
        &mut scratch.zprev,
        &mut scratch.diff,
    ] {
        buf.resize(max_nn, 0.0);
    }
    while !active.is_empty() {
        *sweeps += 1;
        for &li in active.iter() {
            step_lane(&mut lanes[li], f, entries, rows, rank, scratch);
        }
        let lanes_now = &*lanes;
        compact_active(active, |li| lanes_now[li].done);
    }
    lanes
        .iter()
        .map(|lane| (lane.item, finalize_lane(lane, f, entries, rows, items)))
        .collect()
}

/// Materializes a retired lane's arena state into an [`SdpSolution`],
/// computing the closing residual/objective exactly as the per-leaf
/// path does after its iteration loop. Like the per-leaf path, it
/// writes every zero as `+0.0` (`v + 0.0` is `v` for every other
/// value), so the dense and block-wise iterations' differing signs of
/// zero never reach a solution.
fn finalize_lane(
    lane: &Lane,
    f: &[f64],
    entries: &[(u32, u32, f64)],
    rows: &[usize],
    items: &[BatchItem],
) -> SdpSolution {
    let n = lane.n;
    let nn = n * n;
    let dense = |off: usize| -> Vec<f64> { f[off..off + nn].iter().map(|v| v + 0.0).collect() };
    let x = dense(lane.x);
    let b = &f[lane.b..lane.b + lane.m];

    // -0.0 accumulator starts: see `frob_norm` on sum() bit-identity
    // (an unconstrained lane's residual is an *empty* sum = -0.0).
    let mut constraint_residual = -0.0f64;
    for row in 0..lane.m {
        let span = rows[lane.rows_start + row]..rows[lane.rows_start + row + 1];
        let mut acc = -0.0f64;
        for &(i, j, coeff) in &entries[span] {
            acc += coeff * x[i as usize * n + j as usize];
        }
        constraint_residual += (acc - b[row]).powi(2);
    }
    let constraint_residual = constraint_residual.sqrt();

    // ⟨C, X⟩ over the *unnormalized* cost, same left fold as
    // [`SymMatrix::dot`].
    let cost = items[lane.item].problem.cost().as_slice();
    let mut objective = -0.0f64;
    for k in 0..nn {
        objective += cost[k] * x[k];
    }

    SdpSolution {
        x: SymMatrix::from_raw(n, x),
        z: SymMatrix::from_raw(n, dense(lane.z)),
        u: SymMatrix::from_raw(n, dense(lane.u)),
        objective,
        iterations: lane.it,
        primal_residual: lane.primal,
        constraint_residual,
        converged: lane.converged,
    }
}

/// Solves every item, advancing all lanes in lock-step sweeps over the
/// SoA arena. Results come back in input order and are bit-identical to
/// calling [`SdpSolver::try_solve_from`] per item, at any `threads`
/// value.
///
/// `arena` persists buffers across calls; pass the same arena every
/// round to amortize its allocations.
pub fn solve_batch(items: &[BatchItem], threads: usize, arena: &mut BatchArena) -> BatchOutcome {
    let anchor = Instant::now();
    let mut results: Vec<Option<Result<SdpSolution, SolveError>>> =
        items.iter().map(|_| None).collect();

    let shard_count = threads.max(1).min(items.len()).max(1);
    if arena.shards.len() < shard_count {
        arena.shards.resize_with(shard_count, Shard::default);
    }
    let shards = &mut arena.shards[..shard_count];
    for shard in shards.iter_mut() {
        shard.reset();
    }

    // Deterministic LPT assignment: heaviest lanes first (sweep cost
    // grows ~dim³; ties broken by input index) onto the least-loaded
    // shard (ties broken by shard id). Lane arithmetic is independent
    // of shard placement, so this only balances wall time.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        items[b]
            .problem
            .dim()
            .cmp(&items[a].problem.dim())
            .then(a.cmp(&b))
    });
    let mut load = vec![0u128; shard_count];
    for idx in order {
        let n = items[idx].problem.dim();
        if n == 0 {
            results[idx] = Some(Err(SolveError::Dimension {
                what: "SDP problem",
                got: 0,
                expected: 1,
            }));
            continue;
        }
        // invariant: shard_count >= 1, so a minimum always exists.
        let si = (0..shard_count)
            .min_by_key(|&s| load[s])
            .expect("at least one shard");
        load[si] += (n as u128).pow(3).max(1);
        if let Err(e) = shards[si].push_lane(idx, &items[idx]) {
            results[idx] = Some(Err(e));
        }
    }

    let mut stats = vec![ShardStats::default(); shard_count];
    let mut solved: Vec<(usize, SdpSolution)> = Vec::new();
    if shard_count == 1 {
        let start_secs = anchor.elapsed().as_secs_f64();
        solved = run_shard(&mut shards[0], items);
        stats[0] = ShardStats {
            lanes: shards[0].lanes.len(),
            sweeps: shards[0].sweeps,
            start_secs,
            secs: anchor.elapsed().as_secs_f64() - start_secs,
        };
    } else {
        let anchor = &anchor;
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .map(|shard| {
                    scope.spawn(move || {
                        let start_secs = anchor.elapsed().as_secs_f64();
                        let part = run_shard(shard, items);
                        let secs = anchor.elapsed().as_secs_f64() - start_secs;
                        (shard.lanes.len(), shard.sweeps, start_secs, secs, part)
                    })
                })
                .collect();
            for (si, handle) in handles.into_iter().enumerate() {
                // Shard workers only run solver kernels on validated
                // lanes.
                // invariant: a worker panic is a solver bug worth propagating.
                let (lanes, sweeps, start_secs, secs, part) =
                    handle.join().expect("batch shard worker panicked");
                stats[si] = ShardStats {
                    lanes,
                    sweeps,
                    start_secs,
                    secs,
                };
                solved.extend(part);
            }
        });
    }

    let mut retired_early = 0u64;
    for shard in shards.iter() {
        for lane in &shard.lanes {
            if lane.it < lane.solver.max_iterations {
                retired_early += 1;
            }
        }
    }
    for (idx, sol) in solved {
        results[idx] = Some(Ok(sol));
    }
    BatchOutcome {
        results: results
            .into_iter()
            // invariant: every item either got a lane (result filled by
            // its shard) or failed at setup (result filled inline above).
            .map(|r| r.expect("every batch item resolved"))
            .collect(),
        sweeps: stats.iter().map(|s| s.sweeps).sum(),
        retired_early,
        shards: stats,
    }
}

/// Batched cyclic-Jacobi eigendecomposition: all matrices are packed
/// into one flat `A|V` arena and diagonalized with the same
/// `jacobi_sweeps` kernel (and descending collection) as the
/// single-matrix [`crate::eigen_decompose_jacobi`].
///
/// # Panics
///
/// Panics if any matrix has dimension 0.
pub fn jacobi_eigen_batch(mats: &[&SymMatrix]) -> Vec<Eigen> {
    let total: usize = mats.iter().map(|m| m.dim() * m.dim()).sum();
    let mut arena = vec![0.0f64; 2 * total];
    let (avals, vvals) = arena.split_at_mut(total);
    let mut off = 0;
    for m in mats {
        let nn = m.dim() * m.dim();
        avals[off..off + nn].copy_from_slice(m.as_slice());
        off += nn;
    }
    let mut out = Vec::with_capacity(mats.len());
    let mut off = 0;
    for m in mats {
        let n = m.dim();
        assert!(n > 0, "cannot decompose an empty matrix");
        let nn = n * n;
        let a = &mut avals[off..off + nn];
        let v = &mut vvals[off..off + nn];
        jacobi_sweeps(a, v, n);
        out.push(collect_descending(a, v, n));
        off += nn;
    }
    out
}

/// Batched Cholesky factorization: all factors are computed in one flat
/// arena with the same `factor_into` kernel as the single-matrix
/// [`Cholesky::factor`], then split into per-matrix factors.
pub fn cholesky_factor_batch(mats: &[&SymMatrix]) -> Vec<Result<Cholesky, CholeskyError>> {
    let total: usize = mats.iter().map(|m| m.dim() * m.dim()).sum();
    let mut arena = vec![0.0f64; total];
    let mut out = Vec::with_capacity(mats.len());
    let mut off = 0;
    for m in mats {
        let n = m.dim();
        let nn = n * n;
        let l = &mut arena[off..off + nn];
        // alloc: each factor owns its matrix and is retained in `out`.
        out.push(factor_into(m.as_slice(), n, l).map(|()| Cholesky::from_raw(n, l.to_vec())));
        off += nn;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdp::tests::{assignment_problem, cpla_shaped_problem};
    use crate::SolveScratch;
    use prng::Rng;

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
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{label}: objective"
        );
        assert_eq!(
            a.primal_residual.to_bits(),
            b.primal_residual.to_bits(),
            "{label}: primal"
        );
        assert_eq!(
            a.constraint_residual.to_bits(),
            b.constraint_residual.to_bits(),
            "{label}: constraint"
        );
    }

    #[test]
    fn batch_matches_per_leaf_bitwise() {
        let mut problems: Vec<SdpProblem> = vec![
            assignment_problem(1, 0.0),
            assignment_problem(2, 0.5),
            assignment_problem(3, 1.5),
            assignment_problem(2, 0.0),
            SdpProblem::new(SymMatrix::identity(3)), // unconstrained lane
        ];
        // Multi-interval CPLA-shaped lanes: nets of tree-coupled
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
        // The CPLA engine's rank-stop configuration on the warm lanes.
        let ranked = |p: &SdpProblem| SdpSolver {
            rank_stop_window: 2,
            rank_stop_vars: p.dim() - 3,
            ..solver
        };
        let mut items: Vec<BatchItem> = problems
            .iter()
            .map(|p| BatchItem {
                solver,
                problem: p,
                warm: None,
            })
            .collect();
        for (pi, sol) in &warm_pairs {
            for cfg in [solver, ranked(&problems[*pi])] {
                items.push(BatchItem {
                    solver: cfg,
                    problem: &problems[*pi],
                    warm: Some((&sol.z, &sol.u)),
                });
            }
        }
        let mut arena = BatchArena::new();
        let batched = solve_batch(&items, 1, &mut arena);
        assert_eq!(batched.results.len(), items.len());
        assert!(batched.sweeps > 0);
        // One scratch threaded through lanes of every size and pattern,
        // as the engine's serial Solve path does.
        let mut scratch = SolveScratch::new();
        for (i, (item, r)) in items.iter().zip(&batched.results).enumerate() {
            let leaf = item
                .solver
                .try_solve_from_with(item.problem, item.warm, &mut scratch)
                .expect("per-leaf solve");
            let sol = r.as_ref().expect("batched solve");
            assert_bitwise(sol, &leaf, &format!("item {i}"));
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let problems: Vec<SdpProblem> = (1..7).map(|r| assignment_problem(r, 0.5)).collect();
        let solver = SdpSolver {
            max_iterations: 80,
            rank_stop_window: 2,
            rank_stop_vars: 2,
            ..SdpSolver::default()
        };
        let items: Vec<BatchItem> = problems
            .iter()
            .map(|p| BatchItem {
                solver,
                problem: p,
                warm: None,
            })
            .collect();
        let mut arena1 = BatchArena::new();
        let mut arena4 = BatchArena::new();
        let serial = solve_batch(&items, 1, &mut arena1);
        let parallel = solve_batch(&items, 4, &mut arena4);
        assert_eq!(parallel.shards.len(), 4);
        for (i, (a, b)) in serial.results.iter().zip(&parallel.results).enumerate() {
            let (a, b) = (a.as_ref().expect("serial"), b.as_ref().expect("parallel"));
            assert_bitwise(a, b, &format!("problem {i}"));
        }
    }

    #[test]
    fn batch_honors_warm_starts_and_rank_stop() {
        let p = assignment_problem(2, 0.5);
        let solver = SdpSolver {
            rank_stop_window: 2,
            rank_stop_vars: 4,
            ..SdpSolver::default()
        };
        let cold = solver.try_solve_from(&p, None).expect("cold");
        let items = [BatchItem {
            solver,
            problem: &p,
            warm: Some((&cold.z, &cold.u)),
        }];
        let mut arena = BatchArena::new();
        let batched = solve_batch(&items, 1, &mut arena);
        let warm_leaf = solver
            .try_solve_from(&p, Some((&cold.z, &cold.u)))
            .expect("warm");
        let sol = batched.results[0].as_ref().expect("batched warm");
        assert_bitwise(sol, &warm_leaf, "warm lane");
        assert!(sol.iterations <= cold.iterations);
    }

    #[test]
    fn arena_reuse_across_rounds_is_transparent() {
        let mut arena = BatchArena::new();
        let solver = SdpSolver {
            max_iterations: 60,
            ..SdpSolver::default()
        };
        for round in 0..3 {
            let p = assignment_problem(1 + round, 0.0);
            let items = [BatchItem {
                solver,
                problem: &p,
                warm: None,
            }];
            let out = solve_batch(&items, 1, &mut arena);
            let leaf = solver.try_solve_from(&p, None).expect("per-leaf");
            let sol = out.results[0].as_ref().expect("batched");
            assert_bitwise(sol, &leaf, &format!("round {round}"));
        }
    }

    #[test]
    fn zero_dimension_lane_errors_without_poisoning_the_batch() {
        let good = assignment_problem(1, 0.0);
        let empty = SdpProblem::new(SymMatrix::zeros(0));
        let solver = SdpSolver::default();
        let items = [
            BatchItem {
                solver,
                problem: &empty,
                warm: None,
            },
            BatchItem {
                solver,
                problem: &good,
                warm: None,
            },
        ];
        let mut arena = BatchArena::new();
        let out = solve_batch(&items, 2, &mut arena);
        assert!(matches!(
            out.results[0],
            Err(SolveError::Dimension { got: 0, .. })
        ));
        let leaf = solver.try_solve_from(&good, None).expect("per-leaf");
        assert_bitwise(out.results[1].as_ref().expect("good lane"), &leaf, "good");
    }

    #[test]
    fn early_retire_compaction_preserves_order_and_shrinks() {
        let mut active = vec![0, 1, 2, 3, 4];
        let done = [false, true, false, true, false];
        compact_active(&mut active, |li| done[li]);
        assert_eq!(active, vec![0, 2, 4]);
        // Idempotent on an already-compacted list.
        compact_active(&mut active, |li| done[li]);
        assert_eq!(active, vec![0, 2, 4]);
        // Draining everything empties the list.
        compact_active(&mut active, |_| true);
        assert!(active.is_empty());
    }

    #[test]
    fn mixed_iteration_caps_retire_lanes_at_different_sweeps() {
        // One lane capped at 5 iterations, one running to convergence:
        // the batch must retire the short lane and keep sweeping the
        // other, and each must still match its per-leaf twin.
        let p = assignment_problem(2, 0.5);
        let short = SdpSolver {
            max_iterations: 5,
            ..SdpSolver::default()
        };
        let long = SdpSolver::default();
        let items = [
            BatchItem {
                solver: short,
                problem: &p,
                warm: None,
            },
            BatchItem {
                solver: long,
                problem: &p,
                warm: None,
            },
        ];
        let mut arena = BatchArena::new();
        let out = solve_batch(&items, 1, &mut arena);
        let a = out.results[0].as_ref().expect("short lane");
        let b = out.results[1].as_ref().expect("long lane");
        assert_eq!(a.iterations, 5);
        assert!(b.converged);
        assert_bitwise(a, &short.try_solve_from(&p, None).expect("leaf"), "short");
        assert_bitwise(b, &long.try_solve_from(&p, None).expect("leaf"), "long");
        // The long lane converged before its cap; the short one did not
        // retire early.
        assert_eq!(out.retired_early, 1);
    }

    /// Deterministic random SPD matrix `B·Bᵀ + (n)·I`.
    fn random_spd(rng: &mut Rng, n: usize) -> SymMatrix {
        let b: Vec<f64> = (0..n * n).map(|_| rng.f64() * 4.0 - 2.0).collect();
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..n).map(|k| b[i * n + k] * b[j * n + k]).sum();
                a.set(i, j, dot);
            }
        }
        for i in 0..n {
            a.add_to(i, i, n as f64);
        }
        a
    }

    /// How many random instances the property sweeps below cover; the
    /// off-by-default `proptest` feature widens the range.
    fn sweep_cases() -> u64 {
        if cfg!(feature = "proptest") {
            200
        } else {
            40
        }
    }

    #[test]
    fn batched_jacobi_matches_single_matrix_oracle() {
        let mut rng = Rng::seed_from_u64(0x14C0B1);
        for _case in 0..sweep_cases() {
            let sizes: Vec<usize> = (0..4).map(|_| 1 + (rng.u32() % 7) as usize).collect();
            let mats: Vec<SymMatrix> = sizes.iter().map(|&n| random_spd(&mut rng, n)).collect();
            let refs: Vec<&SymMatrix> = mats.iter().collect();
            let batched = jacobi_eigen_batch(&refs);
            for (m, e) in mats.iter().zip(&batched) {
                let single = crate::eigen_decompose_jacobi(m);
                let tol = 1e-12 * (1.0 + m.norm());
                for (a, b) in e.values.iter().zip(&single.values) {
                    assert!((a - b).abs() <= tol, "{a} vs {b}");
                }
                for (a, b) in e.vectors.as_slice().iter().zip(single.vectors.as_slice()) {
                    assert!((a - b).abs() <= tol, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn batched_cholesky_matches_single_matrix_oracle() {
        let mut rng = Rng::seed_from_u64(0xC0DE);
        for _case in 0..sweep_cases() {
            let sizes: Vec<usize> = (0..4).map(|_| 1 + (rng.u32() % 8) as usize).collect();
            let mats: Vec<SymMatrix> = sizes.iter().map(|&n| random_spd(&mut rng, n)).collect();
            let refs: Vec<&SymMatrix> = mats.iter().collect();
            let batched = cholesky_factor_batch(&refs);
            for (m, got) in mats.iter().zip(batched) {
                let got = got.expect("SPD input must factor");
                let single = Cholesky::factor(m).expect("oracle factor");
                // Same kernel, same storage walk: factors agree far
                // below the 1e-12 pin (they are bitwise equal).
                let rhs: Vec<f64> = (0..m.dim()).map(|i| i as f64 + 1.0).collect();
                for (a, b) in got.solve(&rhs).iter().zip(single.solve(&rhs)) {
                    assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn batched_cholesky_surfaces_indefinite_lanes() {
        let good = SymMatrix::identity(2);
        let bad = SymMatrix::from_diagonal(&[1.0, -1.0]);
        let out = cholesky_factor_batch(&[&good, &bad]);
        assert!(out[0].is_ok());
        assert_eq!(out[1].as_ref().unwrap_err().pivot, 1);
    }
}
