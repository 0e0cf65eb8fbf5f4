//! Symmetric eigendecomposition: Householder tridiagonalization plus
//! implicit-shift QL (the production path), with cyclic Jacobi retained
//! as an independent cross-check.

use crate::SymMatrix;

/// NaN-safe exact-zero test: true for `±0.0`, false for everything else
/// including NaN — bit-identical to the bare `== 0.0` it replaces, but
/// expressed through the IEEE total order so the comparison cannot be
/// silently NaN-poisoned (audit rule A2).
pub(crate) fn is_zero(x: f64) -> bool {
    x.abs().total_cmp(&0.0).is_eq()
}

/// Eigendecomposition `A = V · diag(values) · Vᵀ` of a symmetric matrix.
///
/// `vectors` holds the eigenvectors as *columns*: `vectors.get(i, k)` is
/// component `i` of eigenvector `k`. Eigenvalues are sorted descending.
#[derive(Clone, PartialEq, Debug)]
pub struct Eigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthogonal matrix of eigenvectors (columns). Stored in a
    /// [`SymMatrix`] container for reuse of its indexing; it is *not*
    /// itself symmetric.
    pub vectors: SymMatrix,
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// Uses Householder reduction to tridiagonal form followed by the QL
/// algorithm with implicit shifts — `O(n³)` total with a small constant,
/// an order of magnitude faster than Jacobi sweeps at the matrix sizes
/// the ADMM SDP solver produces (its PSD projection calls this every
/// iteration).
///
/// # Panics
///
/// Panics if the matrix is empty (dimension 0).
pub fn eigen_decompose(m: &SymMatrix) -> Eigen {
    let n = m.dim();
    assert!(n > 0, "cannot decompose an empty matrix");
    // z starts as A and is overwritten with the accumulated orthogonal
    // transform; d/e receive the tridiagonal form.
    let mut z = m.clone();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tred2(z.as_mut_slice(), n, &mut d, &mut e);
    tqli(&mut d, &mut e, z.as_mut_slice());

    // Sort descending, permuting eigenvector columns. The explicit index
    // tiebreak makes the unstable sort reproduce the stable sort it
    // replaced, bit for bit.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| d[b].total_cmp(&d[a]).then(a.cmp(&b)));
    let mut values = Vec::with_capacity(n);
    let mut vectors = SymMatrix::zeros(n);
    for (out_col, &src_col) in order.iter().enumerate() {
        values.push(d[src_col]);
        for i in 0..n {
            let val = z.get(i, src_col);
            vectors.as_mut_slice()[i * n + out_col] = val;
        }
    }
    Eigen { values, vectors }
}

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// (Numerical Recipes `tred2`), operating on flat row-major `n × n`
/// storage. On exit `a` holds the orthogonal matrix `Q` effecting the
/// reduction, `d` the diagonal and `e` the subdiagonal (with
/// `e[0] = 0`).
pub(crate) fn tred2(a: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    tred2_block(a, n, false, d, e);
}

/// [`tred2`] on one diagonal block of a larger block-diagonal matrix.
///
/// With `offset` set, the block is taken to start at a row > 0 of the
/// larger matrix. The dense reduction of that matrix sees the block's
/// second row with zero columns in front of it, so it reflects that row
/// with a one-entry Householder vector where a standalone pass takes
/// the `l == 0` shortcut. The reflection negates the first column of
/// the block's transform and its first subdiagonal entry. QL is
/// symmetric under that sign change except at an exact shift tie, so
/// only replaying the reflection keeps the block pass bit-identical to
/// the dense one.
pub(crate) fn tred2_block(a: &mut [f64], n: usize, offset: bool, d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0f64;
        if l > 0 || offset {
            let mut scale = 0.0f64;
            for k in 0..=l {
                scale += a[i * n + k].abs();
            }
            if is_zero(scale) {
                e[i] = a[i * n + l];
            } else {
                for k in 0..=l {
                    a[i * n + k] /= scale;
                    h += a[i * n + k] * a[i * n + k];
                }
                let f = a[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[i * n + l] = f - g;
                let mut f_acc = 0.0f64;
                for j in 0..=l {
                    a[j * n + i] = a[i * n + j] / h;
                    let mut g = 0.0f64;
                    for k in 0..=j {
                        g += a[j * n + k] * a[i * n + k];
                    }
                    for k in (j + 1)..=l {
                        g += a[k * n + j] * a[i * n + k];
                    }
                    e[j] = g / h;
                    f_acc += e[j] * a[i * n + j];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = a[i * n + j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        a[j * n + k] -= f * e[k] + g * a[i * n + k];
                    }
                }
            }
        } else {
            e[i] = a[i * n + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        let l = i;
        if !is_zero(d[i]) {
            for j in 0..l {
                let mut g = 0.0f64;
                for k in 0..l {
                    g += a[i * n + k] * a[k * n + j];
                }
                for k in 0..l {
                    a[k * n + j] -= g * a[k * n + i];
                }
            }
        }
        d[i] = a[i * n + i];
        a[i * n + i] = 1.0;
        for j in 0..l {
            a[j * n + i] = 0.0;
            a[i * n + j] = 0.0;
        }
    }
}

/// QL algorithm with implicit shifts on a tridiagonal matrix, updating
/// the transform accumulated in the flat row-major matrix `a`
/// (Numerical Recipes `tqli`).
pub(crate) fn tqli(d: &mut [f64], e: &mut [f64], a: &mut [f64]) {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a negligible subdiagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "QL iteration failed to converge");
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if is_zero(r) {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    f = a[k * n + i + 1];
                    a[k * n + i + 1] = s * a[k * n + i] + c * f;
                    a[k * n + i] = c * a[k * n + i] - s * f;
                }
            }
            if is_zero(r) && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// Computes the full eigendecomposition with the cyclic Jacobi method.
///
/// Slower than [`eigen_decompose`] but completely independent of it;
/// kept as a cross-validation oracle (see the property tests) and for
/// callers that prefer Jacobi's strong orthogonality guarantees.
///
/// # Panics
///
/// Panics if the matrix is empty (dimension 0).
pub fn eigen_decompose_jacobi(m: &SymMatrix) -> Eigen {
    let n = m.dim();
    assert!(n > 0, "cannot decompose an empty matrix");
    let mut a = m.clone();
    let mut v = SymMatrix::zeros(n);
    jacobi_sweeps(a.as_mut_slice(), v.as_mut_slice(), n);
    collect_descending(a.as_slice(), v.as_slice(), n)
}

/// Full cyclic-Jacobi diagonalization on flat row-major `n × n` storage:
/// on exit the diagonal of `a` holds the (unsorted) eigenvalues and `v`
/// the accumulated rotations (eigenvectors as columns; `v` is
/// initialized to the identity here).
fn jacobi_sweeps(a: &mut [f64], v: &mut [f64], n: usize) {
    v.fill(0.0);
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let max_sweeps = 64;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i * n + j].powi(2);
            }
        }
        let full = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        if off.sqrt() < 1e-11 * (1.0 + full) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                // Rotation angle zeroing a[p][q].
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // A <- Jᵀ A J applied to rows/columns p and q.
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                // Accumulate the rotation into V (columns p and q).
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
}

/// Collects a diagonalized system (`a` diagonal ≈ eigenvalues, `v`
/// eigenvector columns) into an [`Eigen`] sorted by descending
/// eigenvalue.
fn collect_descending(a: &[f64], v: &[f64], n: usize) -> Eigen {
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[i * n + i], i)).collect();
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
    let mut values = Vec::with_capacity(n);
    let mut vectors = SymMatrix::zeros(n);
    for (out_col, (lambda, src_col)) in pairs.into_iter().enumerate() {
        values.push(lambda);
        for i in 0..n {
            let val = v[i * n + src_col];
            vectors.as_mut_slice()[i * n + out_col] = val;
        }
    }
    Eigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &Eigen) -> SymMatrix {
        let n = e.values.len();
        let mut out = SymMatrix::zeros(n);
        for k in 0..n {
            for i in 0..n {
                for j in i..n {
                    out.add_to(
                        i,
                        j,
                        e.values[k] * e.vectors.get(i, k) * e.vectors.get(j, k),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let m = SymMatrix::from_diagonal(&[3.0, -1.0, 7.0]);
        let e = eigen_decompose(&m);
        assert!((e.values[0] - 7.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        assert!((e.values[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let mut m = SymMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(1, 1, 2.0);
        m.set(0, 1, 1.0);
        let e = eigen_decompose(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is (1,1)/sqrt2 up to sign.
        let v0 = (e.vectors.get(0, 0), e.vectors.get(1, 0));
        assert!((v0.0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((v0.0 - v0.1).abs() < 1e-9);
    }

    #[test]
    fn trace_is_preserved() {
        let mut m = SymMatrix::zeros(4);
        for i in 0..4 {
            for j in i..4 {
                m.set(i, j, ((i * 7 + j * 3) % 5) as f64 - 2.0);
            }
        }
        let trace: f64 = m.diagonal().iter().sum();
        let e = eigen_decompose(&m);
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    /// How many random seeds the deterministic sweeps below cover; the
    /// off-by-default `proptest` feature widens the range.
    fn sweep_seeds() -> u64 {
        if cfg!(feature = "proptest") {
            200
        } else {
            40
        }
    }

    #[test]
    fn reconstruction_matches_input() {
        for seed in 0..sweep_seeds() {
            for n in 1usize..8 {
                check_reconstruction(seed, n);
            }
        }
    }

    fn check_reconstruction(seed: u64, n: usize) {
        // Deterministic pseudo-random symmetric matrix.
        let mut m = SymMatrix::zeros(n);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 100.0 - 10.0
        };
        for i in 0..n {
            for j in i..n {
                m.set(i, j, next());
            }
        }
        let e = eigen_decompose(&m);
        let r = reconstruct(&e);
        assert!((&r - &m).norm() < 1e-7 * (1.0 + m.norm()));
        // Eigenvectors orthonormal: VᵀV = I.
        for a in 0..n {
            for b in a..n {
                let dot: f64 = (0..n)
                    .map(|i| e.vectors.get(i, a) * e.vectors.get(i, b))
                    .sum();
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-8);
            }
        }
    }

    /// The QL path and the independent Jacobi implementation must
    /// agree on the spectrum.
    #[test]
    fn ql_matches_jacobi() {
        for seed in 0..sweep_seeds() {
            for n in 1usize..10 {
                check_ql_matches_jacobi(seed, n);
            }
        }
    }

    fn check_ql_matches_jacobi(seed: u64, n: usize) {
        let mut m = SymMatrix::zeros(n);
        let mut state = seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(5);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 100.0 - 10.0
        };
        for i in 0..n {
            for j in i..n {
                m.set(i, j, next());
            }
        }
        let ql = eigen_decompose(&m);
        let jac = eigen_decompose_jacobi(&m);
        for (a, b) in ql.values.iter().zip(&jac.values) {
            assert!((a - b).abs() < 1e-7 * (1.0 + m.norm()), "{a} vs {b}");
        }
    }

    #[test]
    fn jacobi_reconstruction_also_holds() {
        let mut m = SymMatrix::zeros(5);
        for i in 0..5 {
            for j in i..5 {
                m.set(i, j, ((i * 3 + j * 5) % 7) as f64 - 3.0);
            }
        }
        let e = eigen_decompose_jacobi(&m);
        let r = reconstruct(&e);
        assert!((&r - &m).norm() < 1e-8);
    }
}
