//! ADMM solver for standard-form semidefinite programs.
//!
//! Solves `min ⟨C, X⟩ s.t. ⟨A_k, X⟩ = b_k (k = 1..m), X ⪰ 0` by the
//! alternating direction method of multipliers with the splitting
//! `X ∈ affine set`, `Z ∈ PSD cone`, `X = Z`:
//!
//! 1. **X-update** — Euclidean projection of `Z − U − C/ρ` onto the
//!    affine set, via the pre-factorized constraint Gram matrix
//!    `G_kl = ⟨A_k, A_l⟩`.
//! 2. **Z-update** — projection of `X + U` onto the PSD cone
//!    (eigenvalue clamping).
//! 3. **U-update** — scaled dual ascent `U += X − Z`.
//!
//! The returned `x` iterate satisfies the equality constraints to solver
//! precision; `z` is exactly PSD. CPLA's post-mapping step only *ranks*
//! diagonal entries, so the modest first-order accuracy of ADMM is
//! sufficient — this is the substitution for the CSDP C library used by
//! the paper (see `DESIGN.md` §2).

use crate::eigen::is_zero;
use crate::matrix::{psd_project_block, PsdScratch};
use crate::{BlockMatrix, Cholesky, SolveError, SymMatrix};

/// A standard-form SDP: cost matrix plus equality constraints.
///
/// Both are stored sparse. The cost is a list of `(i, j, value)`
/// entries with `i <= j` (the symmetric `(j, i)` entry is implied);
/// entries at one position add up in the order given. The constraints
/// are `(i, j, coeff)` rows back to back, each normalized to `i <= j`
/// with its duplicates merged. So building a problem, and every pass
/// the solver makes over it, costs time in proportion to its nonzeros,
/// not to `n²`.
///
/// Inequalities are expected to be rewritten with slack variables placed
/// on extra diagonal entries (PSD implies a non-negative diagonal), which
/// is exactly how the paper folds edge-capacity rows into the objective
/// matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct SdpProblem {
    n: usize,
    /// Cost entries `(i, j, value)`, `i <= j`, in the order given.
    cost: Vec<(usize, usize, f64)>,
    /// Constraint entries `(i, j, coeff)`, `i <= j`, unique per
    /// constraint, constraint by constraint. An off-diagonal entry
    /// addresses the symmetric pair `(i, j)`/`(j, i)` as a *single*
    /// variable: coefficient `c` contributes `c · X_ij` to the
    /// constraint value (not `2c · X_ij`).
    entries: Vec<(usize, usize, f64)>,
    /// Constraint `k` owns `entries[rows[k]..rows[k + 1]]`.
    rows: Vec<usize>,
    /// Right-hand side of each constraint.
    rhs: Vec<f64>,
}

impl Default for SdpProblem {
    /// [`SdpProblem::empty`]`(0)`.
    fn default() -> SdpProblem {
        SdpProblem::empty(0)
    }
}

impl SdpProblem {
    /// Starts a problem with cost matrix `cost` (the paper's `T`): its
    /// upper-triangle entries other than `+0.0`, in row-major order.
    pub fn new(cost: SymMatrix) -> SdpProblem {
        let n = cost.dim();
        let mut p = SdpProblem::empty(n);
        let dense = cost.as_slice();
        for i in 0..n {
            for j in i..n {
                let v = dense[i * n + j];
                if v.to_bits() != 0 {
                    p.cost.push((i, j, v));
                }
            }
        }
        p
    }

    /// A problem of dimension `n` with a zero cost and no constraints.
    pub fn empty(n: usize) -> SdpProblem {
        SdpProblem {
            n,
            cost: Vec::new(),
            entries: Vec::new(),
            rows: vec![0],
            rhs: Vec::new(),
        }
    }

    /// Clears the problem to [`SdpProblem::empty`]`(n)`, keeping its
    /// buffers: a caller building many problems reuses one.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.cost.clear();
        self.entries.clear();
        self.rows.clear();
        self.rows.push(0);
        self.rhs.clear();
    }

    /// Dimension of the matrix variable.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Adds `v` to cost entries `(i, j)` and `(j, i)` (one entry on the
    /// diagonal). The first value at a position is taken as it is, and
    /// later ones are added to it in order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add_cost(&mut self, i: usize, j: usize, v: f64) {
        let n = self.n;
        assert!(i < n && j < n, "cost entry ({i},{j}) out of range");
        self.cost.push(if i <= j { (i, j, v) } else { (j, i, v) });
    }

    /// The cost as a dense matrix (allocates `n²` entries).
    pub fn to_dense_cost(&self) -> SymMatrix {
        let n = self.n;
        let mut dense = SymMatrix::zeros(n);
        let mut seen = vec![false; n * n];
        for &(i, j, v) in &self.cost {
            if std::mem::replace(&mut seen[i * n + j], true) {
                dense.add_to(i, j, v);
            } else {
                dense.set(i, j, v);
            }
        }
        dense
    }

    /// Adds the equality `Σ coeff · X_ij = rhs`.
    ///
    /// Entry indices are normalized to `i <= j` and duplicate entries are
    /// merged by summing their coefficients.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add_constraint(
        &mut self,
        entries: impl IntoIterator<Item = (usize, usize, f64)>,
        rhs: f64,
    ) {
        let n = self.n;
        let first = self.entries.len();
        for (i, j, c) in entries {
            assert!(i < n && j < n, "constraint entry ({i},{j}) out of range");
            let (i, j) = if i <= j { (i, j) } else { (j, i) };
            if let Some(e) = self.entries[first..]
                .iter_mut()
                .find(|e| e.0 == i && e.1 == j)
            {
                e.2 += c;
            } else {
                self.entries.push((i, j, c));
            }
        }
        self.rows.push(self.entries.len());
        self.rhs.push(rhs);
    }

    /// Constraint `k`: its normalized `(i, j, coeff)` entries and its
    /// right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn constraint(&self, k: usize) -> (&[(usize, usize, f64)], f64) {
        (&self.entries[self.rows[k]..self.rows[k + 1]], self.rhs[k])
    }

    /// Builds the constraint Gram matrix `G_kl = ⟨A_k, A_l⟩` densely,
    /// grouping coefficients by matrix entry in a `BTreeMap`, so each
    /// Gram cell accumulates its products in ascending `(i, j)` order:
    /// the reference [`GramWork::build`] is checked against.
    #[cfg(test)]
    pub(crate) fn dense_gram(&self) -> SymMatrix {
        let m = self.num_constraints();
        let mut g = SymMatrix::zeros(m);
        use std::collections::BTreeMap;
        let mut by_entry: BTreeMap<(usize, usize), Vec<(usize, f64)>> = BTreeMap::new();
        for k in 0..m {
            for &(i, j, coeff) in self.constraint(k).0 {
                by_entry.entry((i, j)).or_default().push((k, coeff));
            }
        }
        for ((i, j), owners) in by_entry {
            // ⟨A_k, A_l⟩ restricted to this entry: diagonal entries
            // contribute c_k·c_l, off-diagonal pairs 2·(c_k/2)(c_l/2).
            let weight = if i == j { 1.0 } else { 0.5 };
            for a in 0..owners.len() {
                for b in a..owners.len() {
                    let (ka, ca) = owners[a];
                    let (kb, cb) = owners[b];
                    let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                    g.add_to(lo, hi, weight * ca * cb);
                }
            }
        }
        g
    }
}

/// The constraint Gram matrix `G = A·Aᵀ` of one solve, built sparse,
/// with its workspaces.
///
/// Every cell holds what the dense build computes: starting from
/// `+0.0`, the products `weight · c_k · c_l` of the constraint entries
/// rows `k ≤ l` share, added in ascending matrix-entry `(i, j)` order.
/// Cells no entry is shared by stay zero and are not stored, except
/// the diagonal, which is always stored (it takes the ridge).
#[derive(Clone, Debug, Default)]
struct GramWork {
    /// Constraint entries by matrix entry: `(i, j, row, coeff)`, sorted,
    /// so each matrix entry's owners form one run in ascending row order.
    by_entry: Vec<(usize, usize, usize, f64)>,
    /// Start of every run in `by_entry`.
    runs: Vec<usize>,
    /// `(run, position in by_entry)` of every constraint entry, row by
    /// row as the constraints lay them out: each row's entries in
    /// ascending matrix-entry order.
    by_row: Vec<(usize, usize)>,
    /// Counting-sort cursors (by matrix index, then by row).
    cursor: Vec<usize>,
    /// One row of `G`, scattered: the accumulating cells and the row
    /// that last touched each, and the touched columns.
    acc: Vec<f64>,
    touched_by: Vec<usize>,
    touched: Vec<usize>,
    /// The lower triangle by rows: row `l` is
    /// `lower[start[l]..start[l + 1]]`, `(k, value)` with `k`
    /// ascending, the diagonal last.
    start: Vec<usize>,
    lower: Vec<(usize, f64)>,
    /// The strict lower triangle by columns (values only, rows
    /// ascending): the upper half of each row, for the dense norm's
    /// row-major order.
    col_start: Vec<usize>,
    upper: Vec<f64>,
}

impl GramWork {
    /// Builds `G` of the `m` constraints in `entries`/`rows` of an
    /// `n × n` problem and adds the ridge `1e-9 · (1 + ‖G‖_F)` to its
    /// diagonal, `‖G‖_F` folded over the dense matrix's row-major order
    /// like `SymMatrix::norm`.
    ///
    /// Row `l` is accumulated from its own entries in ascending `(i, j)`
    /// order: each entry adds its product with every owner `k ≤ l` of
    /// the same matrix entry to cell `(l, k)`. So every cell sums its
    /// products in the dense build's order. Both orders come from
    /// counting sorts, `O(n + m + entries)` plus a sort of the entries
    /// that share a row index `i`.
    fn build(&mut self, n: usize, m: usize, entries: &[(usize, usize, f64)], rows: &[usize]) {
        let GramWork {
            by_entry,
            runs,
            by_row,
            cursor,
            acc,
            touched_by,
            touched,
            start,
            lower,
            col_start,
            upper,
        } = self;
        // By matrix entry: bucket by i (rows visited in order, so each
        // bucket is in ascending row order), then order each bucket by
        // (j, row).
        cursor.clear();
        cursor.resize(n + 1, 0);
        for &(i, _, _) in entries {
            cursor[i + 1] += 1;
        }
        for i in 0..n {
            cursor[i + 1] += cursor[i];
        }
        by_entry.clear();
        by_entry.resize(entries.len(), (0, 0, 0, 0.0));
        for k in 0..m {
            for &(i, j, c) in &entries[rows[k]..rows[k + 1]] {
                by_entry[cursor[i]] = (i, j, k, c);
                cursor[i] += 1;
            }
        }
        let mut from = 0;
        for &to in &cursor[..n] {
            by_entry[from..to].sort_unstable_by_key(|e| (e.1, e.2));
            from = to;
        }
        // By row: each entry's slot is its own position in `entries`,
        // filled in ascending matrix-entry order.
        runs.clear();
        by_row.clear();
        by_row.resize(entries.len(), (0, 0));
        cursor.clear();
        cursor.extend_from_slice(&rows[..m]);
        for (p, e) in by_entry.iter().enumerate() {
            if p == 0 || (by_entry[p - 1].0, by_entry[p - 1].1) != (e.0, e.1) {
                runs.push(p);
            }
            by_row[cursor[e.2]] = (runs.len() - 1, p);
            cursor[e.2] += 1;
        }
        acc.clear();
        acc.resize(m, 0.0);
        touched_by.clear();
        touched_by.resize(m, usize::MAX);
        start.clear();
        lower.clear();
        start.push(0);
        for l in 0..m {
            touched.clear();
            for &(run, p) in &by_row[rows[l]..rows[l + 1]] {
                let (i, j, _, cl) = by_entry[p];
                // ⟨A_k, A_l⟩ restricted to this entry: diagonal entries
                // contribute c_k·c_l, off-diagonal pairs 2·(c_k/2)(c_l/2).
                let weight = if i == j { 1.0 } else { 0.5 };
                for &(_, _, k, ck) in &by_entry[runs[run]..=p] {
                    if touched_by[k] != l {
                        touched_by[k] = l;
                        touched.push(k);
                        acc[k] = 0.0;
                    }
                    acc[k] += weight * ck * cl;
                }
            }
            if touched_by[l] != l {
                touched.push(l);
                acc[l] = 0.0;
            }
            touched.sort_unstable();
            lower.extend(touched.iter().map(|&k| (k, acc[k])));
            start.push(lower.len());
        }
        // The upper half of row k is column k of the strict lower
        // triangle, rows ascending.
        col_start.clear();
        col_start.resize(m + 1, 0);
        for l in 0..m {
            for &(k, _) in &lower[start[l]..start[l + 1] - 1] {
                col_start[k + 1] += 1;
            }
        }
        for k in 0..m {
            col_start[k + 1] += col_start[k];
        }
        upper.clear();
        upper.resize(col_start[m], 0.0);
        let fill = touched;
        fill.clear();
        fill.extend_from_slice(&col_start[..m]);
        for l in 0..m {
            for &(k, v) in &lower[start[l]..start[l + 1] - 1] {
                upper[fill[k]] = v;
                fill[k] += 1;
            }
        }
        let mut norm_sq = -0.0f64;
        for k in 0..m {
            for &(_, v) in &lower[start[k]..start[k + 1]] {
                norm_sq += v * v;
            }
            for &v in &upper[col_start[k]..col_start[k + 1]] {
                norm_sq += v * v;
            }
        }
        let ridge = 1e-9 * (1.0 + norm_sq.sqrt());
        for l in 0..m {
            lower[start[l + 1] - 1].1 += ridge;
        }
    }
}

/// Configuration of the ADMM iteration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SdpSolver {
    /// Initial augmented-Lagrangian penalty ρ.
    pub rho: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Relative stopping tolerance on the primal/dual residuals.
    pub tolerance: f64,
    /// Whether to adapt ρ (doubling/halving on residual imbalance).
    pub adaptive_rho: bool,
    /// Ranking-stability early stop: when > 0, the solver samples the
    /// *ordering* of the diagonal iterate every few iterations (after a
    /// short warm-up) and stops once it has stayed identical for this
    /// many consecutive samples. Downstream consumers that only *rank*
    /// the relaxed diagonal — CPLA's post-mapping is one — gain nothing
    /// from iterating a settled ordering to numerical tolerance. 0
    /// (the default) disables the check and reproduces the plain
    /// residual-driven iteration.
    pub rank_stop_window: usize,
    /// How many leading diagonal entries the ranking check considers.
    /// 0 (the default) ranks the whole diagonal. Consumers whose
    /// decision variables occupy a prefix of the matrix — CPLA places
    /// its slack rows after the assignment variables — should bound the
    /// check to that prefix: slack entries are near-degenerate and
    /// their jittering order would otherwise keep a settled assignment
    /// ranking from ever reading as stable.
    pub rank_stop_vars: usize,
}

impl Default for SdpSolver {
    fn default() -> SdpSolver {
        SdpSolver {
            rho: 1.0,
            max_iterations: 600,
            tolerance: 1e-5,
            adaptive_rho: true,
            rank_stop_window: 0,
            rank_stop_vars: 0,
        }
    }
}

/// Result of an ADMM solve.
///
/// The iterates come in the solve's interval-block layout (see
/// [`SdpSolver::try_solve_from_with`]): every entry outside the blocks
/// is zero, and every stored zero is `+0.0`.
#[derive(Clone, PartialEq, Debug)]
pub struct SdpSolution {
    /// The affine-feasible iterate (satisfies the equality constraints to
    /// solver precision); its diagonal holds the relaxed assignment
    /// variables CPLA's post-mapping consumes.
    pub x: BlockMatrix,
    /// The PSD iterate.
    pub z: BlockMatrix,
    /// The scaled dual iterate; pass `(z, u)` to [`SdpSolver::solve_from`]
    /// to warm-start a re-solve of a problem of the same dimension.
    pub u: BlockMatrix,
    /// Whether the solve started from the warm pair it was given: false
    /// without one, or when its dimension did not match the problem.
    pub warm_started: bool,
    /// `⟨C, x⟩` at termination.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual `‖X − Z‖_F`.
    pub primal_residual: f64,
    /// Final constraint violation `‖A(X) − b‖₂` (should be ≈ 0).
    pub constraint_residual: f64,
    /// Whether both residuals met the tolerance before the iteration cap.
    pub converged: bool,
}

/// Reusable workspaces for [`SdpSolver::try_solve_from_with`]: the
/// problem's cost in row-major order, its constraint Gram matrix and
/// that matrix's sparse Cholesky factor, the interval blocks, the flat
/// arena that holds the ADMM iterates block by block, the PSD
/// projection's eigendecomposition buffers and the affine projection's
/// vectors. One scratch serves problems of any size (buffers grow on
/// demand and keep their capacity), so a caller solving many problems —
/// CPLA solves one per partition leaf per round — threads a single
/// scratch through all of them, and a solve allocates only its
/// solution.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    /// The cost, both triangles, in dense row-major order:
    /// `(row, column, value)`, each position once.
    cost: Vec<(usize, usize, f64)>,
    /// Sort buffer of the cost: `(row, column, input rank, value)`.
    cost_sort: Vec<(usize, usize, usize, f64)>,
    /// The constraint Gram matrix.
    gram: GramWork,
    /// Its Cholesky factor.
    factor: Cholesky,
    /// Interval blocks of the current problem.
    blocks: Intervals,
    /// `[c | x | z | u | target | zprev | adj]`: each section
    /// holds the interval blocks back to back, each block row-major.
    arena: Vec<f64>,
    /// Constraint entries as arena positions `(ij, ji, coeff)`,
    /// constraint by constraint in entry order (`ij == ji` on the
    /// diagonal).
    entries: Vec<(usize, usize, f64)>,
    /// PSD-projection eigendecomposition workspace.
    psd: PsdScratch,
    /// Constraint values `A(target)`.
    ax: Vec<f64>,
    /// Right-hand side `ρ (b − A(target))`.
    rhs: Vec<f64>,
    /// Cholesky forward-substitution intermediate.
    y: Vec<f64>,
    /// Dual multipliers `ν` of the affine projection.
    nu: Vec<f64>,
    /// Quantized leading diagonal of the ranking check.
    quant: Vec<i64>,
    /// Candidate ranking of the ranking check.
    order: Vec<u32>,
    /// Previous ranking sample; empty before the first.
    rank_prev: Vec<u32>,
}

/// Lays the cost entries of `problem` out in dense row-major order
/// into `cost`, both triangles, summing the entries given for one
/// position in their order. `O(nnz log nnz)`.
fn row_major_cost(
    problem: &SdpProblem,
    sort: &mut Vec<(usize, usize, usize, f64)>,
    cost: &mut Vec<(usize, usize, f64)>,
) {
    sort.clear();
    for (rank, &(i, j, v)) in problem.cost.iter().enumerate() {
        sort.push((i, j, rank, v));
        if i != j {
            sort.push((j, i, rank, v));
        }
    }
    sort.sort_unstable_by_key(|e| (e.0, e.1, e.2));
    cost.clear();
    for run in sort.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let mut v = run[0].3;
        for e in &run[1..] {
            v += e.3;
        }
        cost.push((run[0].0, run[0].1, v));
    }
}

impl SolveScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }
}

/// `⟨C, X⟩` over the cost in row-major order (`cost`, as laid out by
/// [`row_major_cost`]) and the block iterate `xs`, bit for bit what
/// `SymMatrix::dot` returns on the dense matrices. The dense fold adds
/// a `±0` product at every position the cost does not store, and such
/// an addend changes a sum at most in the sign of a zero. So a nonzero
/// sum over the stored entries is the dense one, and only a zero sum is
/// refolded over all `n²` positions for its sign.
fn objective(cost: &[(usize, usize, f64)], blocks: &Intervals, xs: &[f64], n: usize) -> f64 {
    let at = |i: usize, j: usize| blocks.block_pos(i, j).map_or(0.0, |p| xs[p]);
    let sum = cost
        .iter()
        .fold(-0.0f64, |acc, &(i, j, v)| acc + v * at(i, j));
    if !is_zero(sum) {
        return sum;
    }
    let mut stored = cost.iter().peekable();
    let mut acc = -0.0f64;
    for i in 0..n {
        for j in 0..n {
            let v = stored
                .next_if(|e| (e.0, e.1) == (i, j))
                .map_or(0.0, |e| e.2);
            acc += v * at(i, j);
        }
    }
    acc
}

/// The finest split of `0..n` into index intervals such that every
/// off-diagonal nonzero of a solve's inputs — cost, warm `(z, u)` and
/// constraint entries — lies inside one interval's diagonal block.
///
/// ADMM never leaves these blocks: the elementwise updates and the
/// affine projection keep zeros outside them, and the PSD projection of
/// a block-diagonal matrix is the block-wise projection. The solve
/// therefore stores and updates only the blocks.
#[derive(Clone, Debug, Default)]
struct Intervals {
    /// Interval boundaries: interval `k` covers `bounds[k]..bounds[k + 1]`.
    bounds: Vec<usize>,
    /// Arena offset of each interval's block, plus the total length.
    offsets: Vec<usize>,
    /// Arena position of every diagonal entry `(i, i)`.
    diag: Vec<usize>,
    /// The interval of every index.
    owner: Vec<usize>,
    /// Farthest index each index shares a nonzero with (detection only).
    reach: Vec<usize>,
}

impl Intervals {
    /// Detects the intervals of `problem` started from `warm` and lays
    /// their blocks out back to back. `cost` is the problem's cost in
    /// row-major order. A warm matrix counts its stored upper-triangle
    /// entries that are not zero, which are exactly the off-diagonal
    /// nonzeros a scan of its dense expansion finds; the cost counts
    /// its entries that are not zero, likewise.
    fn detect(
        &mut self,
        problem: &SdpProblem,
        cost: &[(usize, usize, f64)],
        warm: Option<(&BlockMatrix, &BlockMatrix)>,
    ) {
        let n = problem.dim();
        let reach = &mut self.reach;
        reach.clear();
        reach.extend(0..n);
        for &(i, j, v) in cost {
            if j > i && !is_zero(v) {
                reach[i] = reach[i].max(j);
            }
        }
        let (z0, u0) = warm.unzip();
        for m in [z0, u0].into_iter().flatten() {
            for (s, nb, block) in m.blocks() {
                for (r, row) in block.chunks_exact(nb).enumerate() {
                    for c in (r + 1)..nb {
                        if !is_zero(row[c]) {
                            reach[s + r] = reach[s + r].max(s + c);
                        }
                    }
                }
            }
        }
        for &(i, j, _) in &problem.entries {
            // Entries are normalized to i <= j.
            reach[i] = reach[i].max(j);
        }
        self.bounds.clear();
        self.offsets.clear();
        self.diag.clear();
        self.owner.clear();
        self.bounds.push(0);
        self.offsets.push(0);
        // An interval closes at the first index that no index of it
        // reaches past.
        let (mut start, mut off, mut end) = (0, 0, 0);
        for (i, &r) in reach.iter().enumerate() {
            end = end.max(r);
            if end == i {
                let nb = i + 1 - start;
                self.diag.extend((0..nb).map(|k| off + k * (nb + 1)));
                self.owner
                    .extend(std::iter::repeat_n(self.bounds.len() - 1, nb));
                start = i + 1;
                off += nb * nb;
                self.bounds.push(start);
                self.offsets.push(off);
            }
        }
    }

    /// Number of intervals.
    fn n_blocks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total arena length of all blocks.
    fn arena_len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Start index, size and arena offset of interval `k`.
    fn block(&self, k: usize) -> (usize, usize, usize) {
        (
            self.bounds[k],
            self.bounds[k + 1] - self.bounds[k],
            self.offsets[k],
        )
    }

    /// Arena position of entry `(i, j)`; both indices must lie in one
    /// interval.
    fn arena_pos(&self, i: usize, j: usize) -> usize {
        self.diag[i] + j - i
    }

    /// Arena position of entry `(i, j)`, or `None` off the blocks.
    fn block_pos(&self, i: usize, j: usize) -> Option<usize> {
        (self.owner[i] == self.owner[j]).then(|| self.arena_pos(i, j))
    }

    /// Copies the entries of `m` (of the problem's dimension) that lie
    /// in these blocks into the zeroed arena section `part`. Stored
    /// entries are copied as they are; an entry of a block here that
    /// lies outside every block of `m` keeps its `+0.0`, the value the
    /// dense expansion of `m` holds there.
    fn load_warm(&self, m: &BlockMatrix, part: &mut [f64]) {
        let mut stored = m.blocks().peekable();
        for k in 0..self.n_blocks() {
            let (s, nb, off) = self.block(k);
            for r in 0..nb {
                let i = s + r;
                while stored.next_if(|&(ss, snb, _)| ss + snb <= i).is_some() {}
                // Both layouts split 0..n, so a stored block holds row i.
                let Some(&(ss, snb, block)) = stored.peek() else {
                    return;
                };
                let (lo, hi) = (s.max(ss), (s + nb).min(ss + snb));
                let at = off + r * nb;
                let from = (i - ss) * snb;
                part[at + lo - s..at + hi - s]
                    .copy_from_slice(&block[from + lo - ss..from + hi - ss]);
            }
        }
    }
}

impl SdpSolver {
    /// Solves `problem` from the cold start `X = Z = U = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the problem has dimension 0 or an input is rejected
    /// (see [`SdpSolver::try_solve_from`]).
    pub fn solve(&self, problem: &SdpProblem) -> SdpSolution {
        self.solve_from(problem, None)
    }

    /// Solves `problem`, optionally warm-starting the splitting iterates
    /// from a previous solution's `(z, u)` pair.
    ///
    /// The warm pair is the iteration's starting point, so it is part
    /// of the input: a solve that converges ends near the problem's
    /// fixed point from any start, but one stopped by the ranking check
    /// (`rank_stop_window`) or by `max_iterations` returns the iterate
    /// it reached, and a different start can change that iterate and
    /// the ranking of its diagonal. A warm pair whose dimension does
    /// not match the problem is ignored (the cached neighbor gained or
    /// lost slack variables).
    ///
    /// # Panics
    ///
    /// Panics if the problem has dimension 0 or an input is rejected
    /// (see [`SdpSolver::try_solve_from`]).
    pub fn solve_from(
        &self,
        problem: &SdpProblem,
        warm: Option<(&BlockMatrix, &BlockMatrix)>,
    ) -> SdpSolution {
        #[expect(
            clippy::expect_used,
            reason = "CPLA's problems have ≥ 1 variable, finite entries and a ridge-regularized \
                      (hence positive-definite) Gram matrix"
        )]
        self.try_solve_from(problem, warm)
            .expect("well-formed SDP problem")
    }

    /// [`SdpSolver::solve_from`] returning typed errors instead of
    /// panicking: an empty problem, an input the iteration cannot
    /// survive, or a Gram matrix that fails to factor (numerically
    /// degenerate constraints) surfaces as [`SolveError`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] for a 0-dimensional problem,
    /// [`SolveError::InvalidInput`] for a NaN or infinite cost entry,
    /// constraint coefficient, right-hand side or entry of a used warm
    /// pair, or a `rho` that is not positive and finite, and
    /// [`SolveError::NotPositiveDefinite`] when the ridge-regularized
    /// Gram matrix cannot be factored.
    pub fn try_solve_from(
        &self,
        problem: &SdpProblem,
        warm: Option<(&BlockMatrix, &BlockMatrix)>,
    ) -> Result<SdpSolution, SolveError> {
        let mut scratch = SolveScratch::new();
        self.try_solve_from_with(problem, warm, &mut scratch)
    }

    /// Rejects the inputs the ADMM iteration cannot survive: NaN or
    /// infinite entries reach the PSD projection's QL iteration, which
    /// then fails to converge, and a `rho` that is not positive and
    /// finite breaks the penalty. `cost` is the problem's cost in
    /// row-major order, and `warm` the pair the solve will use (already
    /// filtered by dimension).
    fn check_inputs(
        &self,
        problem: &SdpProblem,
        cost: &[(usize, usize, f64)],
        warm: Option<(&BlockMatrix, &BlockMatrix)>,
    ) -> Result<(), SolveError> {
        let invalid = |what: &'static str, value: f64| SolveError::InvalidInput { what, value };
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(invalid("rho", self.rho));
        }
        // The cost's row-major order and a warm matrix's stored order
        // are both the dense row-major order, and every other entry is
        // zero, so the first non-finite value is the dense scan's.
        if let Some(&(_, _, v)) = cost.iter().find(|e| !e.2.is_finite()) {
            return Err(invalid("cost entry", v));
        }
        let (z0, u0) = warm.unzip();
        for (what, entries) in [
            ("warm-start z entry", z0.map(BlockMatrix::as_slice)),
            ("warm-start u entry", u0.map(BlockMatrix::as_slice)),
        ] {
            if let Some(&v) = entries.and_then(|e| e.iter().find(|v| !v.is_finite())) {
                return Err(invalid(what, v));
            }
        }
        for k in 0..problem.num_constraints() {
            let (entries, rhs) = problem.constraint(k);
            if let Some(&(_, _, v)) = entries.iter().find(|e| !e.2.is_finite()) {
                return Err(invalid("constraint coefficient", v));
            }
            if !rhs.is_finite() {
                return Err(invalid("constraint right-hand side", rhs));
            }
        }
        Ok(())
    }

    /// [`SdpSolver::try_solve_from`] with caller-provided scratch.
    ///
    /// The solve runs on the problem's interval blocks: at entry it
    /// splits `0..n` into the finest index intervals that hold every
    /// off-diagonal nonzero of the cost, of the warm pair and of any
    /// constraint entry. CPLA's constraints touch only diagonal entries
    /// and its cost couples only tree-adjacent segments, so the blocks
    /// are small. Every iterate stays zero outside them, and each
    /// iteration updates, projects and measures block by block, in the
    /// dense loop's order. At exit the blocks are copied out as the
    /// solution's [`BlockMatrix`] iterates, every zero written as
    /// `+0.0`. Their dense expansion is bit-identical to running the
    /// iteration on dense `n × n` matrices — the test-only reference in
    /// `src/tests.rs` does exactly that — and so are the objective and
    /// the residuals.
    ///
    /// Nothing at entry or exit visits all `n²` entries: the cost and
    /// the constraints are read as the sparse lists they are, the Gram
    /// matrix is built and factored sparse (see [`Cholesky`]), and the
    /// affine projection's substitutions run over the factor's
    /// nonzeros. All workspaces live in `scratch`, so a solve allocates
    /// only the solution it returns.
    ///
    /// # Errors
    ///
    /// Same contract as [`SdpSolver::try_solve_from`].
    pub fn try_solve_from_with(
        &self,
        problem: &SdpProblem,
        warm: Option<(&BlockMatrix, &BlockMatrix)>,
        scratch: &mut SolveScratch,
    ) -> Result<SdpSolution, SolveError> {
        let n = problem.dim();
        if n == 0 {
            return Err(SolveError::Dimension {
                what: "SDP problem",
                got: 0,
                expected: 1,
            });
        }
        let warm = warm.filter(|(z0, u0)| z0.dim() == n && u0.dim() == n);
        let SolveScratch {
            cost,
            cost_sort,
            gram,
            factor,
            blocks,
            arena,
            entries,
            psd,
            ax,
            rhs,
            y,
            nu,
            quant,
            order,
            rank_prev,
        } = scratch;
        row_major_cost(problem, cost_sort, cost);
        self.check_inputs(problem, cost, warm)?;

        let b = &problem.rhs;
        let m = b.len();

        // Factor the Gram matrix once (ridge-regularized for safety
        // against near-duplicate rows).
        if m > 0 {
            gram.build(n, m, &problem.entries, &problem.rows);
            factor
                .refactor(m, &gram.start, &gram.lower)
                .map_err(SolveError::from)?;
        }

        blocks.detect(problem, cost, warm);
        let len = blocks.arena_len();
        arena.clear();
        arena.resize(7 * len, 0.0);
        let (c, rest) = arena.split_at_mut(len);
        let (x, rest) = rest.split_at_mut(len);
        let (mut z, rest) = rest.split_at_mut(len);
        let (u, rest) = rest.split_at_mut(len);
        let (target, rest) = rest.split_at_mut(len);
        let (mut zprev, adj) = rest.split_at_mut(len);

        // Normalize the cost so ρ's default scale is meaningful across
        // wildly different delay magnitudes. Its Frobenius norm folds
        // over the stored entries in row-major order: the dense fold
        // adds only `+0.0` squares besides, which change the sum at
        // most in the sign of a zero, and the floor absorbs that.
        let norm_sq = cost.iter().fold(-0.0f64, |acc, e| acc + e.2 * e.2);
        let inv_scale = 1.0 / norm_sq.sqrt().max(1e-12);
        for &(i, j, v) in cost.iter() {
            if let Some(at) = blocks.block_pos(i, j) {
                c[at] = v * inv_scale;
            }
        }
        if let Some((z0, u0)) = warm {
            blocks.load_warm(z0, z);
            blocks.load_warm(u0, u);
        }
        entries.clear();
        entries.extend(
            problem
                .entries
                .iter()
                .map(|&(i, j, coeff)| (blocks.arena_pos(i, j), blocks.arena_pos(j, i), coeff)),
        );
        let rows = &problem.rows;

        let mut rho = self.rho;
        let mut iterations = 0;
        let mut primal_residual = f64::INFINITY;
        let mut converged = false;
        // Ranking-stability state (see `rank_stop_window`).
        rank_prev.clear();
        let mut rank_stable = 0usize;
        for it in 0..self.max_iterations {
            iterations = it + 1;
            // X-update: affine projection of Z − U − C/ρ.
            // X = argmin ||X - target|| s.t. A(X) = b
            //   = target + (1/ρ)·adjoint(ν),  G ν = ρ (b − A(target)).
            let cscale = -1.0 / rho;
            for k in 0..len {
                target[k] = z[k] - u[k] + cscale * c[k];
            }
            match m {
                0 => x.copy_from_slice(target),
                _ => {
                    // A(target), each row a left fold from -0.0 like
                    // `Iterator::sum`.
                    ax.clear();
                    for r in 0..m {
                        let mut acc = -0.0f64;
                        for &(ij, _, coeff) in &entries[rows[r]..rows[r + 1]] {
                            acc += coeff * target[ij];
                        }
                        ax.push(acc);
                    }
                    rhs.clear();
                    rhs.extend(b.iter().zip(ax.iter()).map(|(bi, ai)| rho * (bi - ai)));
                    factor.solve_into(rhs, y, nu);
                    // adjoint(ν) = Σ ν_k A_k, split over the symmetric
                    // pair so that ⟨adjoint, X⟩ recovers Σ ν_k ⟨A_k, X⟩.
                    adj.fill(0.0);
                    for r in 0..m {
                        let v = nu[r];
                        for &(ij, ji, coeff) in &entries[rows[r]..rows[r + 1]] {
                            if ij == ji {
                                adj[ij] += v * coeff;
                            } else {
                                let half = v * coeff / 2.0;
                                adj[ij] += half;
                                adj[ji] += half;
                            }
                        }
                    }
                    let inv_rho = 1.0 / rho;
                    for k in 0..len {
                        x[k] = target[k] + inv_rho * adj[k];
                    }
                }
            }

            // Z-update: PSD projection of X + U, block by block (the
            // previous Z is swapped aside, not copied).
            std::mem::swap(&mut z, &mut zprev);
            for k in 0..len {
                z[k] = x[k] + u[k];
            }
            for k in 0..blocks.n_blocks() {
                let (s, nb, off) = blocks.block(k);
                psd_project_block(&mut z[off..off + nb * nb], nb, s > 0, psd);
            }

            // U-update, fused with the residual norms: the same X − Z
            // difference feeds the dual ascent and the primal residual.
            // The blocks sit in the arena in the dense row-major order of
            // their nonzeros, and each norm is its own left fold from
            // -0.0 (like `Iterator::sum`), so one pass reproduces the
            // dense norms.
            let (mut primal_sq, mut dual_sq) = (-0.0f64, -0.0f64);
            let (mut x_sq, mut z_sq) = (-0.0f64, -0.0f64);
            for k in 0..len {
                let diff = x[k] - z[k];
                u[k] += diff;
                primal_sq += diff * diff;
                let step = z[k] - zprev[k];
                dual_sq += step * step;
                x_sq += x[k] * x[k];
                z_sq += z[k] * z[k];
            }
            primal_residual = primal_sq.sqrt();
            let dual_residual = rho * dual_sq.sqrt();
            let scale = 1.0 + x_sq.sqrt().max(z_sq.sqrt());
            if primal_residual < self.tolerance * scale && dual_residual < self.tolerance * scale {
                converged = true;
                break;
            }
            if self.rank_stop_window > 0 && it >= 8 && it % 3 == 2 {
                let k = if self.rank_stop_vars == 0 {
                    n
                } else {
                    self.rank_stop_vars.min(n)
                };
                let diag = &blocks.diag[..k];
                // Rank on values quantized to 1e-3 of the prefix's
                // magnitude: entries closer than that are ties the
                // relaxation has not resolved (and may never resolve —
                // they jitter below the quantum from iterate to
                // iterate), so their order must not hold up the stop.
                let scale = diag.iter().fold(1e-12f64, |m, &p| m.max(x[p].abs()));
                let quantum = 1e-3 * scale;
                quant.clear();
                quant.extend(diag.iter().map(|&p| (x[p] / quantum).round() as i64));
                order.clear();
                order.extend(0..k as u32);
                order.sort_unstable_by(|&a, &b| {
                    quant[b as usize].cmp(&quant[a as usize]).then(a.cmp(&b))
                });
                if order == rank_prev {
                    rank_stable += 1;
                    if rank_stable >= self.rank_stop_window {
                        break;
                    }
                } else {
                    rank_stable = 0;
                    std::mem::swap(order, rank_prev);
                }
            }
            if self.adaptive_rho && it % 10 == 9 {
                if primal_residual > 10.0 * dual_residual {
                    rho *= 2.0;
                    for v in u.iter_mut() {
                        *v *= 0.5;
                    }
                } else if dual_residual > 10.0 * primal_residual {
                    rho *= 0.5;
                    for v in u.iter_mut() {
                        *v *= 2.0;
                    }
                }
            }
        }

        // The blocks as they are, every zero written as +0.0: the dense
        // loop leaves -0.0 in places, and `v + 0.0` is `v` for every
        // other value. Stored warm pairs and the diagonal PostMap ranks
        // then carry no sign of zero that the dense loop would not.
        let block_form = |part: &[f64]| {
            BlockMatrix::from_parts(
                blocks.bounds.clone(),
                part.iter().map(|v| v + 0.0).collect(),
            )
        };
        let (x, z, u) = (block_form(x), block_form(z), block_form(u));
        // `⟨A_k, X⟩` at the arena positions of the constraint entries,
        // each row summed in entry order as on the dense `x`.
        let xs = x.as_slice();
        let constraint_residual = rows
            .windows(2)
            .zip(b)
            .map(|(r, bi)| {
                let a = entries[r[0]..r[1]]
                    .iter()
                    .map(|&(ij, _, coeff)| coeff * xs[ij])
                    .sum::<f64>();
                (a - bi).powi(2)
            })
            .sum::<f64>()
            .sqrt();
        let objective = objective(cost, blocks, xs, n);
        Ok(SdpSolution {
            x,
            z,
            u,
            warm_started: warm.is_some(),
            objective,
            iterations,
            primal_residual,
            constraint_residual,
            converged,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prng::Rng;

    /// A dyadic-coefficient assignment-shaped SDP: `rows` two-candidate
    /// assignment rows (all coefficients ±1, costs exactly
    /// representable), with cost `pair` coupling variables 1 and 3.
    pub(crate) fn assignment_problem(rows: usize, pair: f64) -> SdpProblem {
        let n = 2 * rows;
        let mut c = SymMatrix::zeros(n);
        for i in 0..n {
            c.set(i, i, 1.0 + i as f64 * 0.5);
        }
        if n >= 4 {
            c.set(1, 3, pair);
        }
        let mut p = SdpProblem::new(c);
        for s in 0..rows {
            p.add_constraint(vec![(2 * s, 2 * s, 1.0), (2 * s + 1, 2 * s + 1, 1.0)], 1.0);
        }
        p
    }

    /// A CPLA-shaped SDP (the layout of `PartitionProblem::to_sdp`):
    /// one net per entry of `nets` with that many segments, `layers`
    /// candidates per segment, pair costs between each segment and its
    /// tree parent (segment `k` hangs off segment `(k - 1) / 2` of its
    /// net), and `caps` capacity rows over candidates of different nets,
    /// each with its slack variable behind the assignment variables.
    /// A net of two or more segments is one interval; the candidates of
    /// a one-segment net and every slack are singletons.
    pub(crate) fn cpla_shaped_problem(
        nets: &[usize],
        layers: usize,
        caps: usize,
        seed: u64,
    ) -> SdpProblem {
        let mut rng = Rng::seed_from_u64(seed);
        let segs: usize = nets.iter().sum();
        let vars = segs * layers;
        let n = vars + caps;
        let var = |seg: usize, layer: usize| seg * layers + layer;
        let mut c = SymMatrix::zeros(n);
        for i in 0..vars {
            c.set(i, i, rng.range_f64(1.0, 40.0));
        }
        let mut first = 0;
        for &size in nets {
            for k in 1..size {
                let (child, parent) = (first + k, first + (k - 1) / 2);
                for a in 0..layers {
                    for b in 0..layers {
                        c.add_to(var(child, a), var(parent, b), rng.range_f64(0.0, 8.0) / 2.0);
                    }
                }
            }
            first += size;
        }
        let mut p = SdpProblem::new(c);
        for seg in 0..segs {
            p.add_constraint((0..layers).map(|l| (var(seg, l), var(seg, l), 1.0)), 1.0);
        }
        for k in 0..caps {
            let layer = k % layers;
            let mut entries: Vec<(usize, usize, f64)> = (0..segs)
                .filter(|seg| (seg + k) % 2 == 0)
                .map(|seg| (var(seg, layer), var(seg, layer), 1.0))
                .collect();
            let limit = (entries.len() / 2) as f64;
            entries.push((vars + k, vars + k, 1.0));
            p.add_constraint(entries, limit);
        }
        p
    }

    /// The interval boundaries `try_solve_from_with` detects.
    pub(crate) fn bounds(p: &SdpProblem, warm: Option<(&BlockMatrix, &BlockMatrix)>) -> Vec<usize> {
        let (mut sort, mut cost) = (Vec::new(), Vec::new());
        row_major_cost(p, &mut sort, &mut cost);
        let mut blocks = Intervals::default();
        blocks.detect(p, &cost, warm);
        blocks.bounds
    }

    /// The sparse Gram build against the dense `BTreeMap` one, cell by
    /// cell and bit for bit (ridge included), and the sparse factor of
    /// each Gram matrix against the dense factor, on CPLA-shaped
    /// problems. Some problems add rows that share off-diagonal entries
    /// (weight 0.5) and rows whose products cancel exactly. The
    /// off-by-default `proptest` feature widens the sweep.
    #[test]
    fn the_sparse_gram_and_its_factor_match_the_dense_ones() {
        use crate::cholesky::tests::{assert_matches_dense, rhs_with_zeros};
        let cases = if cfg!(feature = "proptest") { 300 } else { 40 };
        let mut gram = GramWork::default();
        for seed in 0..cases {
            let mut rng = Rng::seed_from_u64(0x6A4A_0000 + seed);
            let nets: Vec<usize> = (0..rng.range_usize(1, 3))
                .map(|_| rng.range_usize(1, 5))
                .collect();
            let layers = rng.range_usize(2, 4);
            let caps = rng.range_usize(0, 6);
            let mut p = cpla_shaped_problem(&nets, layers, caps, rng.u64());
            if rng.bool(0.5) {
                p.add_constraint([(0, 1, 1.0), (1, 1, 0.5)], 0.25);
                p.add_constraint([(1, 0, -2.0), (0, 0, 3.0)], 0.0);
            }
            if rng.bool(0.5) {
                // G between these two rows is 1 − 1 = 0 exactly.
                p.add_constraint([(0, 0, 1.0), (1, 1, 1.0)], 1.0);
                p.add_constraint([(0, 0, 1.0), (1, 1, -1.0)], 0.0);
            }
            let m = p.num_constraints();
            let mut dense = p.dense_gram();
            let ridge = 1e-9 * (1.0 + dense.norm());
            for k in 0..m {
                dense.add_to(k, k, ridge);
            }
            gram.build(p.dim(), m, &p.entries, &p.rows);
            for l in 0..m {
                let mut stored = gram.lower[gram.start[l]..gram.start[l + 1]]
                    .iter()
                    .peekable();
                for k in 0..=l {
                    let got = stored.next_if(|e| e.0 == k).map_or(0.0, |e| e.1);
                    let want = dense.get(l, k);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed}: G({l},{k}) {got:e} vs {want:e}"
                    );
                }
                assert!(stored.next().is_none(), "seed {seed}: row {l} order");
            }
            let rhs: Vec<Vec<f64>> = (0..3).map(|_| rhs_with_zeros(&mut rng, m)).collect();
            assert_matches_dense(&dense, &rhs, &format!("gram seed {seed}"));
        }
    }

    #[test]
    fn a_pair_straddling_a_variable_gives_one_interval() {
        // Variables 1 and 3 are coupled, so 2 joins their interval.
        assert_eq!(bounds(&assignment_problem(3, 1.5), None), [0, 1, 4, 5, 6]);
    }

    /// A block matrix with the given boundaries, `1.0` on the diagonal
    /// and `v` at `(i, j)`.
    fn warm_with(bounds: &[usize], i: usize, j: usize, v: f64) -> BlockMatrix {
        let mut m = BlockMatrix::zeros(bounds);
        for k in 0..m.dim() {
            m.set(k, k, 1.0);
        }
        m.set(i, j, v);
        m
    }

    #[test]
    fn a_wider_warm_pattern_widens_the_interval() {
        let p = assignment_problem(2, 0.0);
        assert_eq!(bounds(&p, None), [0, 1, 2, 3, 4]);
        let z = warm_with(&[0, 3, 4], 0, 2, 0.25);
        let u = BlockMatrix::zeros(&[0, 1, 2, 3, 4]);
        assert_eq!(bounds(&p, Some((&z, &u))), [0, 3, 4]);
        assert_eq!(bounds(&p, Some((&u, &z))), [0, 3, 4]);
        // Only stored nonzeros count: a wide stored block whose
        // off-diagonal entries are zeros of either sign widens nothing.
        for zero in [0.0, -0.0] {
            let wide = warm_with(&[0, 4], 0, 3, zero);
            assert_eq!(bounds(&p, Some((&wide, &wide))), [0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn an_off_diagonal_constraint_entry_joins_intervals() {
        let mut p = SdpProblem::new(SymMatrix::from_diagonal(&[1.0, 2.0, 3.0, 4.0]));
        p.add_constraint(vec![(0, 0, 1.0), (3, 3, 1.0)], 1.0);
        assert_eq!(bounds(&p, None), [0, 1, 2, 3, 4]);
        p.add_constraint(vec![(2, 1, 1.0)], 0.5);
        assert_eq!(bounds(&p, None), [0, 1, 3, 4]);
    }

    #[test]
    fn an_all_diagonal_problem_gives_singleton_intervals() {
        let mut p = SdpProblem::new(SymMatrix::from_diagonal(&[1.0, -0.0, 3.0, 4.0, 5.0]));
        p.add_constraint(vec![(0, 0, 1.0), (4, 4, 1.0)], 1.0);
        assert_eq!(bounds(&p, None), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_dense_problem_gives_one_interval() {
        let mut c = SymMatrix::identity(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                c.set(i, j, 0.5);
            }
        }
        assert_eq!(bounds(&SdpProblem::new(c), None), [0, 4]);
    }

    #[test]
    fn cpla_shaped_problems_split_per_net_and_slack() {
        let p = cpla_shaped_problem(&[3, 1, 4], 2, 2, 7);
        assert_eq!(bounds(&p, None), [0, 6, 7, 8, 16, 17, 18]);
    }

    #[test]
    fn a_reused_scratch_reproduces_a_fresh_one() {
        // Back-to-back solves through one scratch: a larger problem,
        // then the same rank-stopped problem twice. No state (ranking
        // history, arena, layout) may carry over. The tolerance is out
        // of reach, so the ranking alone stops each solve.
        let solver = SdpSolver {
            rank_stop_window: 2,
            tolerance: 1e-15,
            ..SdpSolver::default()
        };
        // Clear per-row preferences: the ranking settles early, so a
        // stale ranking history would stop the repeat solve sooner.
        let mut p = SdpProblem::new(SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]));
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let fresh = solver.try_solve_from(&p, None).expect("fresh");
        let mut scratch = SolveScratch::new();
        let larger = cpla_shaped_problem(&[3, 1, 4], 2, 2, 7);
        solver
            .try_solve_from_with(&larger, None, &mut scratch)
            .expect("larger");
        for _ in 0..2 {
            let reused = solver
                .try_solve_from_with(&p, None, &mut scratch)
                .expect("reused");
            assert_eq!(reused, fresh);
            assert!(!reused.converged && reused.iterations < solver.max_iterations);
        }
    }

    /// Asserts that the solver rejects an input, naming it.
    fn assert_rejected(
        solver: SdpSolver,
        p: &SdpProblem,
        warm: Option<(&BlockMatrix, &BlockMatrix)>,
        what: &str,
    ) {
        let got = solver.try_solve_from(p, warm);
        assert!(
            matches!(got, Err(SolveError::InvalidInput { what: w, .. }) if w == what),
            "expected {what} rejection, got {got:?}"
        );
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn a_zero_dimension_problem_is_a_typed_error() {
        let empty = SdpProblem::new(SymMatrix::zeros(0));
        assert!(matches!(
            SdpSolver::default().try_solve_from(&empty, None),
            Err(SolveError::Dimension { got: 0, .. })
        ));
    }

    #[test]
    fn non_finite_cost_entries_are_rejected() {
        for v in NON_FINITE {
            for (i, j) in [(0, 0), (0, 1)] {
                let mut p = assignment_problem(1, 0.0);
                p.add_cost(i, j, v);
                assert_rejected(SdpSolver::default(), &p, None, "cost entry");
            }
        }
    }

    #[test]
    fn non_finite_constraint_coefficients_are_rejected() {
        for v in NON_FINITE {
            let mut p = SdpProblem::new(SymMatrix::from_diagonal(&[1.0, 2.0]));
            p.add_constraint(vec![(0, 0, 1.0), (1, 1, v)], 1.0);
            assert_rejected(SdpSolver::default(), &p, None, "constraint coefficient");
        }
    }

    #[test]
    fn non_finite_right_hand_sides_are_rejected() {
        for v in NON_FINITE {
            let mut p = SdpProblem::new(SymMatrix::from_diagonal(&[1.0, 2.0]));
            p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], v);
            assert_rejected(SdpSolver::default(), &p, None, "constraint right-hand side");
        }
    }

    #[test]
    fn non_finite_warm_iterates_are_rejected() {
        let p = assignment_problem(1, 0.0);
        let ok = BlockMatrix::zeros(&[0, 1, 2]);
        for v in NON_FINITE {
            let bad = warm_with(&[0, 2], 0, 1, v);
            let solver = SdpSolver::default();
            assert_rejected(solver, &p, Some((&bad, &ok)), "warm-start z entry");
            assert_rejected(solver, &p, Some((&ok, &bad)), "warm-start u entry");
            // z is checked before u, and the first non-finite entry in
            // dense row-major order is the one reported: (0, 1) before
            // (1, 1), whose value differs from v in its sign bit.
            let mut first = warm_with(&[0, 2], 0, 1, v);
            first.set(1, 1, -v);
            let got = solver.try_solve_from(&p, Some((&first, &bad)));
            let reported = match got {
                Err(SolveError::InvalidInput { what, value }) => Some((what, value.to_bits())),
                _ => None,
            };
            assert_eq!(reported, Some(("warm-start z entry", v.to_bits())));
            // A pair of the wrong dimension is ignored, not checked.
            let stale = warm_with(&[0, 1, 3], 0, 0, v);
            assert!(solver.try_solve_from(&p, Some((&stale, &stale))).is_ok());
        }
    }

    #[test]
    fn non_positive_or_non_finite_rho_is_rejected() {
        let p = assignment_problem(1, 0.0);
        for rho in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            let solver = SdpSolver {
                rho,
                ..SdpSolver::default()
            };
            assert_rejected(solver, &p, None, "rho");
        }
    }

    #[test]
    fn trace_constrained_diagonal_cost() {
        // min x00 + 2 x11 s.t. x00 + x11 = 1, X ⪰ 0  →  x00 = 1.
        let c = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        assert!(sol.converged, "did not converge: {sol:?}");
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3, "{}", sol.x.get(0, 0));
        assert!(sol.x.get(1, 1).abs() < 1e-3);
        assert!((sol.objective - 1.0).abs() < 1e-2);
    }

    #[test]
    fn correlation_is_bounded_by_psd() {
        // max X01 with X00 = X11 = 1 → X01 = 1 (PSD bound).
        let mut c = SymMatrix::zeros(2);
        c.set(0, 1, -0.5); // ⟨C,X⟩ = -X01
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0)], 1.0);
        p.add_constraint(vec![(1, 1, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        assert!((sol.x.get(0, 1) - 1.0).abs() < 5e-3, "{}", sol.x.get(0, 1));
    }

    #[test]
    fn unconstrained_problem_pushes_to_psd_minimum() {
        // min tr(X) s.t. X ⪰ 0, no constraints → X = 0.
        let p = SdpProblem::new(SymMatrix::identity(3));
        let sol = SdpSolver::default().solve(&p);
        let norm = sol.x.to_dense().norm();
        assert!(norm < 1e-3, "{norm}");
    }

    #[test]
    fn slack_variable_models_inequality() {
        // min x00 s.t. x00 ≥ 0.3 modeled as  x00 − s = 0.3 with slack on
        // the extra diagonal entry s = X11 ≥ 0 (PSD diag).
        // Wait: x00 − s = 0.3 means x00 = 0.3 + s ≥ 0.3. Minimum at 0.3.
        let c = SymMatrix::from_diagonal(&[1.0, 0.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, -1.0)], 0.3);
        let sol = SdpSolver::default().solve(&p);
        assert!((sol.x.get(0, 0) - 0.3).abs() < 5e-3, "{}", sol.x.get(0, 0));
    }

    #[test]
    fn assignment_shape_rows_sum_to_one() {
        // Two segments, two layers each; cheap layers differ. Assignment
        // rows must sum to 1; the relaxation should lean toward the
        // cheaper layer for both.
        // Variables: (s0,l0)=0 (s0,l1)=1 (s1,l0)=2 (s1,l1)=3.
        let c = SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        let d = sol.x.diagonal();
        assert!((d[0] + d[1] - 1.0).abs() < 1e-3);
        assert!((d[2] + d[3] - 1.0).abs() < 1e-3);
        assert!(d[0] > d[1], "segment 0 should prefer layer 0: {d:?}");
        assert!(d[3] > d[2], "segment 1 should prefer layer 1: {d:?}");
    }

    #[test]
    fn relaxation_lower_bounds_integer_optimum() {
        // SDP relaxation objective must not exceed the best integer
        // assignment's cost for the same (capacity-free) problem.
        let lin = [2.0, 5.0, 7.0, 1.0, 4.0, 4.5];
        // 3 segments × 2 layers; pair cost between segment 0 and 1 when
        // both pick layer index 1.
        let mut c = SymMatrix::from_diagonal(&lin);
        c.set(1, 3, 1.5); // appears twice in ⟨C,X⟩ → effective 3.0
        let mut p = SdpProblem::new(c.clone());
        for s in 0..3 {
            p.add_constraint(vec![(2 * s, 2 * s, 1.0), (2 * s + 1, 2 * s + 1, 1.0)], 1.0);
        }
        let sol = SdpSolver::default().solve(&p);
        // Brute-force integer optimum of the rank-one evaluation
        // x = outer(v, v) with binary v honoring the row constraints.
        let mut best = f64::INFINITY;
        for a in 0..2 {
            for b in 0..2 {
                for d in 0..2 {
                    let mut v = [0.0; 6];
                    v[a] = 1.0;
                    v[2 + b] = 1.0;
                    v[4 + d] = 1.0;
                    let mut cost = 0.0;
                    for i in 0..6 {
                        for j in 0..6 {
                            cost += c.get(i, j) * v[i] * v[j];
                        }
                    }
                    best = best.min(cost);
                }
            }
        }
        assert!(
            sol.objective <= best + 1e-2,
            "relaxation {} should lower-bound integer {}",
            sol.objective,
            best
        );
    }

    #[test]
    fn duplicate_entries_are_merged() {
        let mut p = SdpProblem::new(SymMatrix::identity(2));
        p.add_constraint(vec![(0, 0, 0.5), (0, 0, 0.5)], 1.0);
        assert_eq!(p.num_constraints(), 1);
        let sol = SdpSolver::default().solve(&p);
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn argmin_is_invariant_under_cost_scaling() {
        // Internal normalization: scaling C by 1e6 must not change the
        // solution (only the objective value).
        let build = |scale: f64| {
            let mut c = SymMatrix::from_diagonal(&[1.0, 3.0, 2.0]);
            c.scale(scale);
            let mut p = SdpProblem::new(c);
            p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 1.0);
            SdpSolver::default().solve(&p)
        };
        let a = build(1.0);
        let b = build(1e6);
        for i in 0..3 {
            assert!(
                (a.x.get(i, i) - b.x.get(i, i)).abs() < 1e-3,
                "entry {i}: {} vs {}",
                a.x.get(i, i),
                b.x.get(i, i)
            );
        }
        assert!((b.objective / a.objective - 1e6).abs() < 1e4);
    }

    #[test]
    fn adaptive_rho_still_converges_from_bad_start() {
        let c = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let solver = SdpSolver {
            rho: 1e-4, // far from a good penalty; adaptation must fix it
            max_iterations: 2000,
            ..SdpSolver::default()
        };
        let sol = solver.solve(&p);
        assert!(sol.converged, "{sol:?}");
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn warm_start_converges_no_slower_to_the_same_solution() {
        let c = SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let solver = SdpSolver::default();
        let cold = solver.solve(&p);
        assert!(cold.converged);
        let warm = solver.solve_from(&p, Some((&cold.z, &cold.u)));
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for i in 0..4 {
            assert!(
                (warm.x.get(i, i) - cold.x.get(i, i)).abs() < 1e-3,
                "entry {i}: {} vs {}",
                warm.x.get(i, i),
                cold.x.get(i, i)
            );
        }
    }

    #[test]
    fn mismatched_warm_start_is_ignored() {
        let c = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let solver = SdpSolver::default();
        let stale = warm_with(&[0, 1, 2, 3, 5], 3, 4, 0.5); // wrong dimension
        let sol = solver.solve_from(&p, Some((&stale, &stale)));
        let cold = solver.solve(&p);
        assert!(!sol.warm_started);
        assert_eq!(sol, cold);
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3);
        let warm = solver.solve_from(&p, Some((&cold.z, &cold.u)));
        assert!(warm.warm_started);
    }

    #[test]
    fn rank_stop_preserves_diagonal_ordering() {
        // Assignment-shaped problem with clear per-row preferences; the
        // early stop must not change which candidate ranks first.
        let c = SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let full = SdpSolver::default().solve(&p);
        let early = SdpSolver {
            rank_stop_window: 3,
            ..SdpSolver::default()
        }
        .solve(&p);
        assert!(
            early.iterations <= full.iterations,
            "early {} vs full {}",
            early.iterations,
            full.iterations
        );
        let order = |d: &[f64]| {
            let mut o: Vec<usize> = (0..d.len()).collect();
            o.sort_by(|&a, &b| d[b].total_cmp(&d[a]).then(a.cmp(&b)));
            o
        };
        assert_eq!(
            order(&early.x.diagonal()),
            order(&full.x.diagonal()),
            "ordering diverged"
        );
    }

    #[test]
    fn x_iterate_is_constraint_feasible_even_unconverged() {
        let c = SymMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 1.0);
        let tight = SdpSolver {
            max_iterations: 3,
            ..SdpSolver::default()
        };
        let sol = tight.solve(&p);
        assert!(
            sol.constraint_residual < 1e-6,
            "{}",
            sol.constraint_residual
        );
    }
}
