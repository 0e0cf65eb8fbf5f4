//! Symmetric matrices: dense, and block-diagonal over index intervals.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense symmetric `n × n` matrix of `f64`, stored full (row-major).
///
/// Symmetry is maintained by construction: [`SymMatrix::set`] writes both
/// `(i, j)` and `(j, i)`. Full storage keeps the eigendecomposition and
/// ADMM inner loops branch-free at the cost of 2× memory, which is
/// irrelevant at per-partition problem sizes.
#[derive(Clone, PartialEq, Debug)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// The zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> SymMatrix {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> SymMatrix {
        let mut m = SymMatrix::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// A diagonal matrix from the given entries.
    pub fn from_diagonal(diag: &[f64]) -> SymMatrix {
        let mut m = SymMatrix::zeros(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * diag.len() + i] = d;
        }
        m
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Sets entries `(i, j)` and `(j, i)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Adds `v` to entries `(i, j)` and `(j, i)` (only once on the
    /// diagonal).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] += v;
        if i != j {
            self.data[j * self.n + i] += v;
        }
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.data[i * self.n + i]).collect()
    }

    /// Frobenius inner product `⟨self, other⟩ = Σ_ij A_ij B_ij`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &SymMatrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// [`SymMatrix::dot`] with a block matrix, bit for bit what `dot`
    /// returns on its dense expansion: the sum runs over all `n²`
    /// entries in row-major order, the ones outside the blocks as
    /// `+0.0`, so even the sign of a zero result is the dense one.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub(crate) fn dot_blocks(&self, other: &BlockMatrix) -> f64 {
        let n = self.n;
        assert_eq!(n, other.dim());
        // Each dense row: zeros, the block's row, zeros.
        let dense = other.blocks().flat_map(|(s, nb, block)| {
            block.chunks_exact(nb).flat_map(move |row| {
                let zeros = |k: usize| std::iter::repeat_n(&0.0, k);
                zeros(s).chain(row).chain(zeros(n - s - nb))
            })
        });
        self.data.iter().zip(dense).map(|(a, b)| a * b).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// In-place `self += scale · other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn axpy(&mut self, scale: f64, other: &SymMatrix) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Raw row-major storage (read-only).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Add for &SymMatrix {
    type Output = SymMatrix;
    fn add(self, rhs: &SymMatrix) -> SymMatrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub for &SymMatrix {
    type Output = SymMatrix;
    fn sub(self, rhs: &SymMatrix) -> SymMatrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &SymMatrix {
    type Output = SymMatrix;
    fn mul(self, rhs: f64) -> SymMatrix {
        let mut out = self.clone();
        out.scale(rhs);
        out
    }
}

/// A symmetric `n × n` matrix that is zero outside its diagonal blocks
/// over contiguous index intervals, stored block by block.
///
/// Interval `k` covers `bounds[k]..bounds[k + 1]`. Its block is stored
/// full and row-major, and the blocks sit back to back in interval
/// order, so the storage order of the entries is their dense row-major
/// order. Entries outside every block are `+0.0` and take no memory.
/// This is the layout the ADMM solver iterates in: it returns its
/// iterates in it and takes its warm start in it, so a warm pair is
/// always a previous solution's `(z, u)`.
#[derive(Clone, PartialEq, Debug)]
pub struct BlockMatrix {
    /// Interval boundaries, from 0 up to the dimension.
    bounds: Vec<usize>,
    /// The blocks back to back, each row-major.
    data: Vec<f64>,
}

impl BlockMatrix {
    /// The zero matrix with the given interval boundaries: `0`, then
    /// every interval's end, the last being the dimension.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` starts at 0 and strictly increases.
    #[cfg(test)]
    pub(crate) fn zeros(bounds: &[usize]) -> BlockMatrix {
        assert_eq!(bounds.first(), Some(&0), "bounds must start at 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must strictly increase: {bounds:?}"
        );
        let len = bounds.windows(2).map(|w| (w[1] - w[0]).pow(2)).sum();
        BlockMatrix::from_parts(bounds.to_vec(), vec![0.0; len])
    }

    /// Wraps blocks laid out by `bounds` (checked by the caller).
    pub(crate) fn from_parts(bounds: Vec<usize>, data: Vec<f64>) -> BlockMatrix {
        BlockMatrix { bounds, data }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    /// The stored entries: the blocks back to back, each row-major.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Every block as `(start, size, entries)`, in interval order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, usize, &[f64])> + '_ {
        let mut rest = &self.data[..];
        self.bounds.windows(2).map(move |w| {
            let nb = w[1] - w[0];
            let (block, tail) = rest.split_at(nb * nb);
            rest = tail;
            (w[0], nb, block)
        })
    }

    /// The block holding row `i`, with its storage offset.
    fn block_of(&self, i: usize) -> Option<(usize, usize, usize)> {
        let mut off = 0;
        for w in self.bounds.windows(2) {
            let nb = w[1] - w[0];
            if i < w[1] {
                return Some((w[0], nb, off));
            }
            off += nb * nb;
        }
        None
    }

    /// Storage position of entry `(i, j)`, or `None` off the blocks.
    fn entry_pos(&self, i: usize, j: usize) -> Option<usize> {
        let (s, nb, off) = self.block_of(i)?;
        (s..s + nb).contains(&j).then(|| off + (i - s) * nb + j - s)
    }

    /// Entry `(i, j)`: `+0.0` outside the blocks.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let n = self.dim();
        assert!(i < n && j < n, "entry ({i},{j}) out of range {n}");
        self.entry_pos(i, j).map_or(0.0, |p| self.data[p])
    }

    /// Sets entries `(i, j)` and `(j, i)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the blocks.
    #[cfg(test)]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        let at = self.entry_pos(i, j).zip(self.entry_pos(j, i));
        assert!(
            at.is_some(),
            "entry ({i},{j}) lies outside the blocks {:?}",
            self.bounds
        );
        if let Some((p, q)) = at {
            self.data[p] = v;
            self.data[q] = v;
        }
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        self.blocks()
            .flat_map(|(_, nb, block)| block.iter().step_by(nb + 1).copied())
            .collect()
    }

    /// The dense matrix, every entry outside the blocks `+0.0`.
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> SymMatrix {
        let n = self.dim();
        let mut out = SymMatrix::zeros(n);
        for (s, nb, block) in self.blocks() {
            for (r, row) in block.chunks_exact(nb).enumerate() {
                let at = (s + r) * n + s;
                out.data[at..at + nb].copy_from_slice(row);
            }
        }
        out
    }
}

impl fmt::Display for SymMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Projects a symmetric matrix onto the cone of positive semidefinite
/// matrices by clamping negative eigenvalues to zero.
///
/// This is the Euclidean (Frobenius-norm) projection used by the ADMM
/// SDP solver's `Z`-update.
pub fn psd_project(m: &SymMatrix) -> SymMatrix {
    let mut out = m.clone();
    let mut scratch = PsdScratch::default();
    psd_project_in_place(out.as_mut_slice(), m.dim(), &mut scratch);
    out
}

/// Reusable workspace for [`psd_project_in_place`]: the tridiagonal
/// eigendecomposition buffers plus the positive-spectrum factor. One
/// scratch serves matrices of any dimension — buffers grow on demand
/// and keep their capacity across calls, which is what keeps the ADMM
/// `Z`-update (one projection per iteration) off the allocator.
#[derive(Clone, Debug, Default)]
pub struct PsdScratch {
    /// Copy of the input, overwritten with the eigenvector matrix.
    work: Vec<f64>,
    /// Eigenvalues (diagonal after QL).
    d: Vec<f64>,
    /// Subdiagonal workspace.
    e: Vec<f64>,
    /// Descending-eigenvalue permutation.
    order: Vec<usize>,
    /// The `B = V·diag(√λ⁺)` factor of the kept spectrum.
    bmat: Vec<f64>,
}

impl PsdScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> PsdScratch {
        PsdScratch::default()
    }
}

/// In-place [`psd_project`]: overwrites the flat row-major symmetric
/// matrix in `a` with its Euclidean projection onto the PSD cone,
/// reusing the workspaces in `scratch`. Bit-identical to
/// [`psd_project`], which wraps it.
///
/// # Panics
///
/// Panics if `n == 0` or `a.len() != n * n`.
pub fn psd_project_in_place(a: &mut [f64], n: usize, scratch: &mut PsdScratch) {
    psd_project_block(a, n, false, scratch);
}

/// [`psd_project_in_place`] on one diagonal block of a larger
/// block-diagonal matrix whose off-block entries are zero. `offset`
/// says whether the block starts after row 0 of the larger matrix (see
/// `eigen::tred2_block`). The projected block then equals, bit for bit
/// up to the sign of zero entries, the same block of the dense
/// projection of the whole matrix.
///
/// # Panics
///
/// Panics if `n == 0` or `a.len() != n * n`.
pub(crate) fn psd_project_block(a: &mut [f64], n: usize, offset: bool, scratch: &mut PsdScratch) {
    assert_eq!(a.len(), n * n);
    assert!(n > 0, "cannot project an empty matrix");
    if n == 1 {
        // The general path below, specialized: the 1×1 eigenvector is
        // exactly 1, so the projection is √v·√v for a positive entry.
        let v = a[0];
        a[0] = if v > 0.0 { v.sqrt() * v.sqrt() } else { 0.0 };
        return;
    }
    let s = scratch;
    s.work.clear();
    s.work.extend_from_slice(a);
    s.d.clear();
    s.d.resize(n, 0.0);
    s.e.clear();
    s.e.resize(n, 0.0);
    crate::eigen::tred2_block(&mut s.work, n, offset, &mut s.d, &mut s.e);
    crate::eigen::tqli(&mut s.d, &mut s.e, &mut s.work);
    // Descending eigenvalue order (index tiebreak = the stable sort the
    // eager decomposition uses).
    s.order.clear();
    s.order.extend(0..n);
    let d = &s.d;
    s.order
        .sort_unstable_by(|&x, &y| d[y].total_cmp(&d[x]).then(x.cmp(&y)));
    // Keep only the positive part of the spectrum: with
    // B = V·diag(√λ⁺), the projection is B·Bᵀ. Eigenvalues are sorted
    // descending, so the positive block is a prefix.
    let kept = s.order.iter().take_while(|&&c| d[c] > 0.0).count();
    if kept == 0 {
        a.fill(0.0);
        return;
    }
    s.bmat.clear();
    s.bmat.resize(n * kept, 0.0);
    for k in 0..n {
        for c in 0..kept {
            s.bmat[k * kept + c] = s.work[k * n + s.order[c]] * d[s.order[c]].sqrt();
        }
    }
    for i in 0..n {
        let bi = &s.bmat[i * kept..(i + 1) * kept];
        for j in i..n {
            let bj = &s.bmat[j * kept..(j + 1) * kept];
            let dot: f64 = bi.iter().zip(bj).map(|(x, y)| x * y).sum();
            a[i * n + j] = dot;
            a[j * n + i] = dot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_maintains_symmetry() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 2, 5.0);
        assert_eq!(m.get(2, 0), 5.0);
        m.add_to(0, 2, 1.0);
        assert_eq!(m.get(0, 2), 6.0);
        assert_eq!(m.get(2, 0), 6.0);
    }

    #[test]
    fn add_to_diagonal_counts_once() {
        let mut m = SymMatrix::zeros(2);
        m.add_to(1, 1, 3.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn dot_matches_hand_computation() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        let mut b = SymMatrix::zeros(2);
        b.set(0, 1, 3.0);
        b.set(1, 1, 4.0);
        // <A,B> = sum_ij: off-diagonal (0,1) and (1,0) each 2*3.
        assert_eq!(a.dot(&b), 12.0);
    }

    #[test]
    fn mul_vec_identity() {
        let m = SymMatrix::identity(3);
        assert_eq!(m.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn psd_projection_of_psd_is_identity() {
        let m = SymMatrix::from_diagonal(&[1.0, 2.0, 0.5]);
        let p = psd_project(&m);
        assert!((&p - &m).norm() < 1e-10);
    }

    #[test]
    fn psd_projection_clamps_negative_part() {
        let m = SymMatrix::from_diagonal(&[1.0, -2.0]);
        let p = psd_project(&m);
        assert!((p.get(0, 0) - 1.0).abs() < 1e-10);
        assert!(p.get(1, 1).abs() < 1e-10);
    }

    #[test]
    fn psd_projection_rotated_case() {
        // [[0, 1], [1, 0]] has eigenvalues ±1; projection keeps the +1
        // part: 0.5 * [[1, 1], [1, 1]].
        let mut m = SymMatrix::zeros(2);
        m.set(0, 1, 1.0);
        let p = psd_project(&m);
        for (i, j, want) in [(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)] {
            assert!((p.get(i, j) - want).abs() < 1e-9, "({i},{j})");
        }
    }

    /// Projects the block-diagonal matrix with the given blocks densely
    /// and block by block, and asserts the two agree bit for bit (up to
    /// the sign of zeros) with zeros off the blocks.
    fn assert_block_projection_is_dense(blocks: &[SymMatrix], scratch: &mut PsdScratch) {
        let n: usize = blocks.iter().map(SymMatrix::dim).sum();
        let mut dense = SymMatrix::zeros(n);
        let mut s = 0;
        for b in blocks {
            for i in 0..b.dim() {
                for j in i..b.dim() {
                    dense.set(s + i, s + j, b.get(i, j));
                }
            }
            s += b.dim();
        }
        psd_project_in_place(dense.as_mut_slice(), n, scratch);
        let mut s = 0;
        for b in blocks {
            let nb = b.dim();
            let mut block = b.as_slice().to_vec();
            psd_project_block(&mut block, nb, s > 0, scratch);
            for i in s..s + nb {
                for j in 0..n {
                    let want = (dense.get(i, j) + 0.0).to_bits();
                    let got = if (s..s + nb).contains(&j) {
                        (block[(i - s) * nb + j - s] + 0.0).to_bits()
                    } else {
                        0
                    };
                    assert_eq!(got, want, "blocks {blocks:?}: entry ({i},{j})");
                }
            }
            s += nb;
        }
    }

    #[test]
    fn block_projection_matches_the_dense_projection_bitwise() {
        let mut scratch = PsdScratch::new();
        // A block after row 0 whose QL pass meets a shift tie (equal
        // diagonal entries): the dense reduction's extra reflection
        // flips the tie's outcome, so this block is bit-identical only
        // with `offset` set.
        let mut tie = SymMatrix::from_diagonal(&[-2.0, -2.0, 0.0]);
        tie.set(0, 1, 3.0);
        tie.set(1, 2, 3.0);
        assert_block_projection_is_dense(&[SymMatrix::zeros(1), tie], &mut scratch);
        // Random block-diagonal matrices with blocks of 1–5 rows, mostly
        // drawn from a few values so that such ties are common.
        let values = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0];
        let mut rng = prng::Rng::seed_from_u64(0xB10C);
        for _case in 0..3000 {
            let blocks: Vec<SymMatrix> = (0..rng.range_usize(1, 4))
                .map(|_| {
                    let nb = rng.range_usize(1, 5);
                    let mut b = SymMatrix::zeros(nb);
                    for i in 0..nb {
                        for j in i..nb {
                            let v = if rng.bool(0.8) {
                                values[rng.range_usize(0, values.len() - 1)]
                            } else {
                                rng.range_f64(-2.0, 2.0)
                            };
                            b.set(i, j, v);
                        }
                    }
                    b
                })
                .collect();
            assert_block_projection_is_dense(&blocks, &mut scratch);
        }
    }

    #[test]
    fn operators_compose() {
        let a = SymMatrix::identity(2);
        let b = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let c = &(&a + &b) - &a;
        assert!((&c - &b).norm() < 1e-12);
        let d = &b * 2.0;
        assert_eq!(d.get(1, 1), 4.0);
    }
}
