//! Sparse Cholesky factorization for symmetric positive-definite systems.

use std::error::Error;
use std::fmt;

use crate::eigen::is_zero;
use crate::SymMatrix;

/// Error returned when a matrix is not positive definite (within
/// tolerance), so no Cholesky factor exists.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CholeskyError {
    /// Pivot index at which factorization broke down.
    pub pivot: usize,
    /// The offending (non-positive) pivot value.
    pub value: f64,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} = {:.3e}",
            self.pivot, self.value
        )
    }
}

impl Error for CholeskyError {}

/// No parent: an elimination-tree root.
const NONE: usize = usize::MAX;

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, with forward/backward substitution solves.
///
/// The factor keeps only the nonzero entries of `L`: its diagonal, and
/// its strict lower triangle twice, as row lists (columns ascending)
/// for the forward substitution and as column lists (rows ascending)
/// for the backward one. Every entry is computed as the dense
/// row-by-row algorithm computes it, `a_ij − Σ_k l_ik·l_jk` in
/// ascending `k`, except that the products whose `l_jk` is an exact
/// zero are skipped (row `j` stores no zeros), and so are the entries
/// whose every product has a zero factor. Skipping a `±0` product can
/// only change the sign of a zero partial sum, so every nonzero entry —
/// and every nonzero solution component — is bit for bit the dense
/// algorithm's, and an entry the dense algorithm computes as zero is
/// not stored. On a matrix with no `-0.0` entry (a Gram matrix summed
/// onto `+0.0`, say) not even the signs of zeros differ.
///
/// The ADMM SDP solver factorizes its constraint Gram matrix once and
/// reuses the factor every iteration, so factor and solve are separate
/// operations; it refactors one `Cholesky` in place for every problem.
#[derive(Clone, Debug, Default)]
pub struct Cholesky {
    n: usize,
    /// Diagonal of `L`.
    diag: Vec<f64>,
    /// Row `i`'s nonzeros left of the diagonal are
    /// `rows[row_start[i]..row_start[i + 1]]`, as `(column, value)`.
    row_start: Vec<usize>,
    rows: Vec<(usize, f64)>,
    /// Column `j`'s nonzeros below the diagonal are
    /// `cols[col_start[j]..col_start[j + 1]]`, as `(row, value)`.
    col_start: Vec<usize>,
    cols: Vec<(usize, f64)>,
    /// Factorization workspace, kept for the next refactor.
    work: FactorWork,
}

/// Workspaces of one factorization, each sized to the dimension.
#[derive(Clone, Debug, Default)]
struct FactorWork {
    /// Row `i` of `A`, scattered (touched positions only).
    a: Vec<f64>,
    /// Row `i` of `L` as computed so far, scattered likewise.
    l: Vec<f64>,
    /// Elimination tree of `A`: the parent of every column, `NONE` at a
    /// root.
    parent: Vec<usize>,
    /// Path-compressed ancestors while the tree is built; then the last
    /// row that reached each column.
    mark: Vec<usize>,
    /// Columns row `i` may have nonzeros in.
    reach: Vec<usize>,
}

/// The lower triangle of `a` (diagonal included) by rows, in the layout
/// [`Cholesky::refactor`] reads: every entry but the `+0.0` ones.
fn lower_rows(a: &SymMatrix) -> (Vec<usize>, Vec<(usize, f64)>) {
    let n = a.dim();
    let dense = a.as_slice();
    let mut start = Vec::with_capacity(n + 1);
    let mut lower = Vec::new();
    start.push(0);
    for i in 0..n {
        lower.extend(
            (0..=i)
                .map(|j| (j, dense[i * n + j]))
                .filter(|&(_, v)| v.to_bits() != 0),
        );
        start.push(lower.len());
    }
    (start, lower)
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError`] if a pivot is non-positive, i.e. the
    /// matrix is not positive definite.
    pub fn factor(a: &SymMatrix) -> Result<Cholesky, CholeskyError> {
        let (start, lower) = lower_rows(a);
        let mut f = Cholesky::default();
        f.refactor(a.dim(), &start, &lower)?;
        Ok(f)
    }

    /// Factorizes the `n × n` matrix whose lower triangle (diagonal
    /// included) is given by rows: row `i` is
    /// `lower[start[i]..start[i + 1]]`, `(column, value)` with columns
    /// ascending and at most `i`, every entry not listed zero. Reuses
    /// this factor's buffers.
    ///
    /// Row `i` of `L` can be nonzero only at the columns its listed
    /// entries reach by climbing the elimination tree of `A` (the
    /// row-subtree of `i`), so only those entries are computed, in
    /// ascending column order: an ancestor in the tree has the larger
    /// index, so each entry's inputs `l_ik` are final when it is
    /// computed. The tree is built from the listed entries, so an entry
    /// listed with the value zero only widens the set computed.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError`] if a pivot is non-positive, i.e. the
    /// matrix is not positive definite.
    pub(crate) fn refactor(
        &mut self,
        n: usize,
        start: &[usize],
        lower: &[(usize, f64)],
    ) -> Result<(), CholeskyError> {
        let Cholesky {
            n: dim,
            diag,
            row_start,
            rows,
            col_start,
            cols,
            work,
        } = self;
        let FactorWork {
            a,
            l,
            parent,
            mark,
            reach,
        } = work;
        *dim = n;
        for buf in [&mut *a, &mut *l] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        // Elimination tree, with path-compressed ancestors.
        parent.clear();
        parent.resize(n, NONE);
        mark.clear();
        mark.resize(n, NONE);
        for i in 0..n {
            for &(j, _) in &lower[start[i]..start[i + 1]] {
                let mut r = j;
                while r != NONE && r < i {
                    let up = std::mem::replace(&mut mark[r], i);
                    if up == NONE {
                        parent[r] = i;
                    }
                    r = up;
                }
            }
        }
        mark.fill(NONE);
        diag.clear();
        row_start.clear();
        rows.clear();
        row_start.push(0);
        for i in 0..n {
            let a_row = &lower[start[i]..start[i + 1]];
            reach.clear();
            mark[i] = i;
            for &(j, v) in a_row {
                a[j] = v;
                let mut r = j;
                while r != NONE && mark[r] != i {
                    mark[r] = i;
                    reach.push(r);
                    r = parent[r];
                }
            }
            reach.sort_unstable();
            for &j in reach.iter() {
                let mut sum = a[j];
                for &(k, ljk) in &rows[row_start[j]..row_start[j + 1]] {
                    sum -= l[k] * ljk;
                }
                let lij = sum / diag[j];
                if !is_zero(lij) {
                    l[j] = lij;
                    rows.push((j, lij));
                }
            }
            let own = &rows[row_start[i]..];
            let mut sum = a[i];
            for &(_, lik) in own {
                sum -= lik * lik;
            }
            for &(k, _) in own {
                l[k] = 0.0;
            }
            for &(j, _) in a_row {
                a[j] = 0.0;
            }
            if sum <= 0.0 {
                return Err(CholeskyError {
                    pivot: i,
                    value: sum,
                });
            }
            diag.push(sum.sqrt());
            row_start.push(rows.len());
        }
        // Column lists: the row lists transposed, rows ascending.
        col_start.clear();
        col_start.resize(n + 1, 0);
        for &(j, _) in rows.iter() {
            col_start[j + 1] += 1;
        }
        for j in 0..n {
            col_start[j + 1] += col_start[j];
        }
        cols.clear();
        cols.resize(rows.len(), (0, 0.0));
        let fill = reach;
        fill.clear();
        fill.extend_from_slice(&col_start[..n]);
        for i in 0..n {
            for &(j, v) in &rows[row_start[i]..row_start[i + 1]] {
                cols[fill[j]] = (i, v);
                fill[j] += 1;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` using the stored factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        let mut x = Vec::new();
        self.solve_into(b, &mut y, &mut x);
        x
    }

    /// [`Cholesky::solve`] into caller-provided buffers: `y` receives
    /// the forward-substitution intermediate and `x` the solution (both
    /// resized to the factored dimension). Bit-identical to `solve`,
    /// which wraps it; reusing the buffers keeps repeated solves — the
    /// ADMM inner loop does one per iteration — off the allocator.
    ///
    /// Each substitution runs over the nonzeros of one row (forward) or
    /// one column (backward) of `L`, in the dense algorithm's ascending
    /// order, so a component differs from the dense solve's at most in
    /// the sign of a zero.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_into(&self, b: &[f64], y: &mut Vec<f64>, x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Forward: L y = b.
        y.clear();
        y.resize(n, 0.0);
        for i in 0..n {
            let mut sum = b[i];
            for &(k, lik) in &self.rows[self.row_start[i]..self.row_start[i + 1]] {
                sum -= lik * y[k];
            }
            y[i] = sum / self.diag[i];
        }
        // Backward: Lᵀ x = y.
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for &(k, lki) in &self.cols[self.col_start[i]..self.col_start[i + 1]] {
                sum -= lki * x[k];
            }
            x[i] = sum / self.diag[i];
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prng::Rng;

    /// The dense row-major factor every entry of the sparse one is
    /// checked against: the textbook algorithm, every product
    /// subtracted.
    pub(crate) struct DenseCholesky {
        n: usize,
        l: Vec<f64>,
    }

    impl DenseCholesky {
        pub(crate) fn factor(a: &SymMatrix) -> Result<DenseCholesky, CholeskyError> {
            let n = a.dim();
            let a = a.as_slice();
            let mut l = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = a[i * n + j];
                    for k in 0..j {
                        sum -= l[i * n + k] * l[j * n + k];
                    }
                    if i == j {
                        if sum <= 0.0 {
                            return Err(CholeskyError {
                                pivot: i,
                                value: sum,
                            });
                        }
                        l[i * n + i] = sum.sqrt();
                    } else {
                        l[i * n + j] = sum / l[j * n + j];
                    }
                }
            }
            Ok(DenseCholesky { n, l })
        }

        pub(crate) fn solve_into(&self, b: &[f64], y: &mut Vec<f64>, x: &mut Vec<f64>) {
            assert_eq!(b.len(), self.n);
            let n = self.n;
            y.clear();
            y.resize(n, 0.0);
            for i in 0..n {
                let mut sum = b[i];
                for k in 0..i {
                    sum -= self.l[i * n + k] * y[k];
                }
                y[i] = sum / self.l[i * n + i];
            }
            x.clear();
            x.resize(n, 0.0);
            for i in (0..n).rev() {
                let mut sum = y[i];
                for k in (i + 1)..n {
                    sum -= self.l[k * n + i] * x[k];
                }
                x[i] = sum / self.l[i * n + i];
            }
        }

        /// Entry `(i, j)` of `L`, zero above the diagonal.
        fn get(&self, i: usize, j: usize) -> f64 {
            if j > i {
                0.0
            } else {
                self.l[i * self.n + j]
            }
        }
    }

    impl Cholesky {
        /// Entry `(i, j)` of `L`: `+0.0` where no nonzero is stored.
        fn get(&self, i: usize, j: usize) -> f64 {
            if i == j {
                return self.diag[i];
            }
            let row = &self.rows[self.row_start[i]..self.row_start[i + 1]];
            row.iter().find(|e| e.0 == j).map_or(0.0, |e| e.1)
        }
    }

    /// Whether `a` and `b` are the same value bit for bit, a zero of
    /// either sign matching a zero of either sign.
    fn same(a: f64, b: f64) -> bool {
        (is_zero(a) && is_zero(b)) || a.to_bits() == b.to_bits()
    }

    /// Factors `a` both ways and checks every entry of `L` and the
    /// solution of every right-hand side: nonzeros bit for bit, zeros
    /// as zeros. Also checks that the row and column lists hold the
    /// same entries and only nonzeros. Returns the sparse factor.
    pub(crate) fn assert_matches_dense(a: &SymMatrix, rhs: &[Vec<f64>], label: &str) -> Cholesky {
        let n = a.dim();
        let dense = DenseCholesky::factor(a);
        let sparse = Cholesky::factor(a);
        let (dense, sparse) = match (dense, sparse) {
            (Ok(d), Ok(s)) => (d, s),
            (Err(d), Err(s)) => {
                assert_eq!(d.pivot, s.pivot, "{label}: failing pivot");
                assert_eq!(d.value.to_bits(), s.value.to_bits(), "{label}: pivot value");
                return Cholesky::default();
            }
            (d, s) => panic!("{label}: dense {:?} vs sparse {:?}", d.err(), s.err()),
        };
        for i in 0..n {
            for j in 0..=i {
                let (d, s) = (dense.get(i, j), sparse.get(i, j));
                assert!(same(d, s), "{label}: L({i},{j}) dense {d:e} sparse {s:e}");
            }
        }
        assert!(
            sparse.rows.iter().all(|e| !is_zero(e.1)),
            "{label}: stored zero"
        );
        let mut transposed: Vec<(usize, usize, u64)> = Vec::new();
        for j in 0..n {
            for &(i, v) in &sparse.cols[sparse.col_start[j]..sparse.col_start[j + 1]] {
                transposed.push((i, j, v.to_bits()));
            }
        }
        transposed.sort_unstable();
        let by_rows: Vec<(usize, usize, u64)> = (0..n)
            .flat_map(|i| {
                sparse.rows[sparse.row_start[i]..sparse.row_start[i + 1]]
                    .iter()
                    .map(move |&(j, v)| (i, j, v.to_bits()))
            })
            .collect();
        assert_eq!(by_rows, transposed, "{label}: column lists");
        let (mut y, mut x, mut dy, mut dx) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (r, b) in rhs.iter().enumerate() {
            sparse.solve_into(b, &mut y, &mut x);
            dense.solve_into(b, &mut dy, &mut dx);
            for (k, (&s, &d)) in x.iter().zip(&dx).enumerate() {
                assert!(
                    same(d, s),
                    "{label}: rhs {r}: x[{k}] dense {d:e} sparse {s:e}"
                );
            }
        }
        sparse
    }

    /// A right-hand side of dimension `n`: mostly random values, with
    /// `+0.0` and `-0.0` entries mixed in.
    pub(crate) fn rhs_with_zeros(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.range_usize(0, 3) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f64(-2.0, 2.0),
            })
            .collect()
    }

    /// A random SPD matrix `B·Bᵀ + I` whose `B` is `density`-sparse.
    fn random_spd(rng: &mut Rng, n: usize, density: f64) -> SymMatrix {
        let b: Vec<f64> = (0..n * n)
            .map(|_| {
                if rng.bool(density) {
                    rng.range_f64(-2.0, 2.0)
                } else {
                    0.0
                }
            })
            .collect();
        let mut a = SymMatrix::identity(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..n).map(|k| b[i * n + k] * b[j * n + k]).sum();
                a.add_to(i, j, dot);
            }
        }
        a
    }

    /// A matrix whose elimination cancels exactly: with small-integer
    /// rows and unit pivots, the fill entry `l_21 = (a_21 − l_20·l_10)`
    /// comes out exactly zero, so every product with it is skipped.
    fn cancelling(extra: usize) -> SymMatrix {
        let n = 3 + extra;
        let mut a = SymMatrix::identity(n);
        // Row 0 couples to 1 and 2; a_21 equals l_20·l_10 = 1.
        a.set(0, 0, 1.0);
        a.set(1, 0, 1.0);
        a.set(2, 0, 1.0);
        a.set(1, 1, 2.0);
        a.set(2, 2, 2.0);
        a.set(2, 1, 1.0);
        for k in 3..n {
            // Rows below meet row 2 only through the cancelled column.
            a.set(k, 2, 0.5);
            a.set(k, 1, 0.25);
            a.set(k, k, 4.0);
        }
        a
    }

    #[test]
    fn identity_solve_is_identity() {
        let f = Cholesky::factor(&SymMatrix::identity(3)).unwrap();
        let x = f.solve(&[1.0, -2.0, 3.0]);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
        assert!(f.rows.is_empty() && f.cols.is_empty());
    }

    #[test]
    fn known_spd_system() {
        // A = [[4, 2], [2, 3]], b = [2, 1] -> x = [0.5, 0].
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 4.0);
        a.set(0, 1, 2.0);
        a.set(1, 1, 3.0);
        let f = Cholesky::factor(&a).unwrap();
        let x = f.solve(&[2.0, 1.0]);
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let m = SymMatrix::from_diagonal(&[1.0, -1.0]);
        let err = Cholesky::factor(&m).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    fn an_exact_cancellation_is_not_stored() {
        let a = cancelling(3);
        let mut rng = Rng::seed_from_u64(3);
        let rhs: Vec<Vec<f64>> = (0..8).map(|_| rhs_with_zeros(&mut rng, a.dim())).collect();
        let f = assert_matches_dense(&a, &rhs, "cancelling");
        assert!(is_zero(f.get(2, 1)), "l_21 cancels");
        assert!(!is_zero(f.get(3, 1)) && !is_zero(f.get(3, 2)));
    }

    /// Random SPD matrices of every density, plus exact cancellations,
    /// against the dense factor entry by entry and solve by solve. The
    /// off-by-default `proptest` feature widens the seed range.
    #[test]
    fn the_sparse_factor_matches_the_dense_one() {
        let seeds = if cfg!(feature = "proptest") { 400 } else { 60 };
        for seed in 0u64..seeds {
            let mut rng = Rng::seed_from_u64(0x5EED_0000 + seed);
            let n = rng.range_usize(1, 24);
            let density = [0.05, 0.15, 0.4, 1.0][rng.range_usize(0, 3)];
            let a = random_spd(&mut rng, n, density);
            let rhs: Vec<Vec<f64>> = (0..4).map(|_| rhs_with_zeros(&mut rng, n)).collect();
            assert_matches_dense(&a, &rhs, &format!("seed {seed}, n {n}, density {density}"));
        }
        for extra in 0..6 {
            let a = cancelling(extra);
            let mut rng = Rng::seed_from_u64(extra as u64);
            let rhs: Vec<Vec<f64>> = (0..4).map(|_| rhs_with_zeros(&mut rng, a.dim())).collect();
            assert_matches_dense(&a, &rhs, &format!("cancelling + {extra}"));
        }
    }

    #[test]
    fn refactoring_in_place_reproduces_a_fresh_factor() {
        let mut rng = Rng::seed_from_u64(77);
        let mut reused = Cholesky::default();
        for n in [9usize, 3, 14, 1] {
            let a = random_spd(&mut rng, n, 0.3);
            let fresh = Cholesky::factor(&a).unwrap();
            let (start, lower) = lower_rows(&a);
            reused.refactor(n, &start, &lower).unwrap();
            assert_eq!(
                (&reused.diag, &reused.rows, &reused.cols),
                (&fresh.diag, &fresh.rows, &fresh.cols),
                "n {n}"
            );
            // A failed factor leaves the workspace fit for the next one.
            let bad = SymMatrix::from_diagonal(&[1.0, -1.0, 2.0]);
            let (start, lower) = lower_rows(&bad);
            assert_eq!(reused.refactor(3, &start, &lower).unwrap_err().pivot, 1);
        }
    }

    /// Deterministic seed × size sweep; the off-by-default `proptest`
    /// feature widens the seed range.
    #[test]
    fn solve_inverts_multiply() {
        let seeds = if cfg!(feature = "proptest") { 100 } else { 25 };
        for seed in 0u64..seeds {
            for n in 1usize..10 {
                check_solve_inverts_multiply(seed, n);
            }
        }
    }

    fn check_solve_inverts_multiply(seed: u64, n: usize) {
        // Build SPD matrix A = B Bᵀ + I.
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 250.0 - 2.0
        };
        let b_raw: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = SymMatrix::identity(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..n).map(|k| b_raw[i * n + k] * b_raw[j * n + k]).sum();
                a.add_to(i, j, dot);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
        let rhs = a.mul_vec(&x_true);
        let f = Cholesky::factor(&a).unwrap();
        let x = f.solve(&rhs);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7 * (1.0 + want.abs()));
        }
    }
}
