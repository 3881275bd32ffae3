//! Dense matrices over GF(2⁸) with the operations the code constructions
//! need: multiplication, Gauss-Jordan inversion, rank, row selection and
//! Kronecker expansion.

use core::fmt;
use core::ops::Mul;

use crate::Gf256;

/// A dense row-major matrix over GF(2⁸).
///
/// # Examples
///
/// ```
/// use gf256::{Gf256, Matrix};
///
/// let v = Matrix::vandermonde(5, 3);
/// let top = v.select_rows(&[0, 1, 2]);
/// let inv = top.inverse().expect("vandermonde top square is invertible");
/// assert!((&top * &inv).is_identity());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// An `n × k` Vandermonde matrix with evaluation points `x_i = g^i`
    /// for the field generator `g` (distinct while `n ≤ 255`): entry
    /// `(i, j) = x_i^j`.
    ///
    /// Any `k` rows of it form a square Vandermonde matrix with distinct
    /// points, hence invertible — the classic MDS generator.
    ///
    /// # Panics
    ///
    /// Panics if `n ≥ 256` (points would repeat) or `k > n`.
    pub fn vandermonde(n: usize, k: usize) -> Self {
        assert!(n < 256, "at most 255 distinct evaluation points");
        assert!(k <= n, "k must not exceed n");
        Matrix::from_fn(n, k, |i, j| Gf256::exp(i as u32).pow(j as u32))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Gf256 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Gf256) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Gf256]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix made of the given rows, in the given order
    /// (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Returns the submatrix at the intersection of the given rows and
    /// columns, in the given orders.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        for &c in cols {
            assert!(c < self.cols, "column out of bounds");
        }
        Matrix::from_fn(rows.len(), cols.len(), |r, c| self.get(rows[r], cols[c]))
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column count mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Kronecker product `self ⊗ I_n` — the *expansion* step of the Carousel
    /// construction (paper §VI-A): every scalar entry is replaced by that
    /// scalar times an `n × n` identity block.
    pub fn kron_identity(&self, n: usize) -> Matrix {
        let mut m = Matrix::zeros(self.rows * n, self.cols * n);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.get(r, c);
                if !v.is_zero() {
                    for t in 0..n {
                        m.set(r * n + t, c * n + t, v);
                    }
                }
            }
        }
        m
    }

    /// Applies a row permutation: row `i` of the result is row `perm[i]` of
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rows`.
    pub fn permute_rows(&self, perm: &[usize]) -> Matrix {
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut seen = vec![false; self.rows];
        for &p in perm {
            assert!(p < self.rows && !seen[p], "not a permutation");
            seen[p] = true;
        }
        self.select_rows(perm)
    }

    /// Matrix-vector product `self · v` written into a caller-provided
    /// buffer, for the per-stripe loops that would otherwise allocate a
    /// fresh `Vec` on every call.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &[Gf256], out: &mut [Gf256]) {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (row, slot) in self.iter_rows().zip(out.iter_mut()) {
            let mut acc = Gf256::ZERO;
            for (a, b) in row.iter().zip(v) {
                acc += *a * *b;
            }
            *slot = acc;
        }
    }

    /// The multiplicative inverse via Gauss-Jordan elimination, or `None`
    /// if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| !a.get(r, col).is_zero())?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p = a.get(col, col).inv().expect("pivot is nonzero");
            a.scale_row(col, p);
            inv.scale_row(col, p);
            for r in 0..n {
                if r != col {
                    let f = a.get(r, col);
                    if !f.is_zero() {
                        a.add_scaled_row(col, r, f);
                        inv.add_scaled_row(col, r, f);
                    }
                }
            }
        }
        Some(inv)
    }

    /// The rank, computed by Gaussian elimination on a copy.
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        for col in 0..a.cols {
            if rank == a.rows {
                break;
            }
            if let Some(pivot) = (rank..a.rows).find(|&r| !a.get(r, col).is_zero()) {
                a.swap_rows(pivot, rank);
                let p = a.get(rank, col).inv().expect("pivot is nonzero");
                a.scale_row(rank, p);
                for r in 0..a.rows {
                    if r != rank {
                        let f = a.get(r, col);
                        if !f.is_zero() {
                            a.add_scaled_row(rank, r, f);
                        }
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    /// Greedily selects the indices of the first `count` linearly
    /// independent rows (scanning top to bottom), or `None` if the matrix
    /// has rank below `count`.
    pub fn independent_rows(&self, count: usize) -> Option<Vec<usize>> {
        if count == 0 {
            return Some(Vec::new());
        }
        // Incremental Gaussian elimination over candidate rows.
        let mut basis: Vec<Vec<Gf256>> = Vec::with_capacity(count);
        let mut pivots: Vec<usize> = Vec::with_capacity(count);
        let mut chosen = Vec::with_capacity(count);
        for r in 0..self.rows {
            let mut row = self.row(r).to_vec();
            // Reduce against the basis.
            for (b, &p) in basis.iter().zip(&pivots) {
                let f = row[p];
                if !f.is_zero() {
                    for (x, y) in row.iter_mut().zip(b) {
                        *x -= f * *y;
                    }
                }
            }
            if let Some(p) = row.iter().position(|v| !v.is_zero()) {
                let inv = row[p].inv().expect("nonzero pivot");
                for x in row.iter_mut() {
                    *x *= inv;
                }
                basis.push(row);
                pivots.push(p);
                chosen.push(r);
                if chosen.len() == count {
                    return Some(chosen);
                }
            }
        }
        None
    }

    /// `true` if the matrix is square and invertible.
    pub fn is_invertible(&self) -> bool {
        self.rows == self.cols && self.rank() == self.rows
    }

    /// `true` if this is exactly an identity matrix.
    pub fn is_identity(&self) -> bool {
        self.rows == self.cols
            && (0..self.rows).all(|r| {
                (0..self.cols)
                    .all(|c| self.get(r, c) == if r == c { Gf256::ONE } else { Gf256::ZERO })
            })
    }

    /// Number of nonzero entries — the sparsity measure of paper Fig. 5.
    pub fn nonzeros(&self) -> usize {
        self.data.iter().filter(|v| !v.is_zero()).count()
    }

    /// Number of nonzero entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_weight(&self, r: usize) -> usize {
        self.row(r).iter().filter(|v| !v.is_zero()).count()
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: Gf256) {
        for c in 0..self.cols {
            let v = self.get(r, c) * f;
            self.set(r, c, v);
        }
    }

    /// `row[dst] += f * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, f: Gf256) {
        for c in 0..self.cols {
            let v = self.get(dst, c) + self.get(src, c) * f;
            self.set(dst, c, v);
        }
    }

    /// Builds a matrix from rows of raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<u8>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend(row.iter().map(|&b| Gf256::new(b)));
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// An `n × k` Cauchy matrix: entry `(i, j) = 1 / (x_i + y_j)` with
    /// `x_i = g^i`... see [`builders::cauchy`](crate::builders::cauchy) for
    /// the checked general form. This convenience uses `x_i = i`,
    /// `y_j = n + j` as bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n + k > 256`.
    pub fn cauchy(n: usize, k: usize) -> Self {
        assert!(n + k <= 256, "need n + k distinct field elements");
        Matrix::from_fn(n, k, |i, j| {
            (Gf256::new(i as u8) + Gf256::new((n + j) as u8))
                .inv()
                .expect("x_i and y_j are disjoint")
        })
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self.get(r, i);
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    let v = out.get(r, c) + a * rhs.get(i, c);
                    out.set(r, c, v);
                }
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            if r + 1 < self.rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::vandermonde(4, 4);
        let i = Matrix::identity(4);
        assert_eq!(&m * &i, m);
        assert_eq!(&i * &m, m);
    }

    #[test]
    fn vandermonde_any_k_rows_invertible() {
        let v = Matrix::vandermonde(8, 3);
        // Exhaustively check all C(8,3) row subsets.
        for a in 0..8 {
            for b in (a + 1)..8 {
                for c in (b + 1)..8 {
                    let sub = v.select_rows(&[a, b, c]);
                    assert!(sub.is_invertible(), "rows {a},{b},{c} singular");
                }
            }
        }
    }

    #[test]
    fn cauchy_any_k_rows_invertible() {
        let m = Matrix::cauchy(7, 3);
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    assert!(m.select_rows(&[a, b, c]).is_invertible());
                }
            }
        }
    }

    #[test]
    fn inverse_round_trip() {
        let m = Matrix::vandermonde(5, 5);
        let inv = m.inverse().expect("full vandermonde is invertible");
        assert!((&m * &inv).is_identity());
        assert!((&inv * &m).is_identity());
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = Matrix::identity(3);
        m.set(2, 2, Gf256::ZERO);
        assert_eq!(m.inverse(), None);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn kron_identity_structure() {
        let m = Matrix::from_rows(&[vec![1, 2], vec![3, 0]]);
        let k = m.kron_identity(3);
        assert_eq!(k.rows(), 6);
        assert_eq!(k.cols(), 6);
        assert_eq!(k.get(0, 0), Gf256::new(1));
        assert_eq!(k.get(1, 1), Gf256::new(1));
        assert_eq!(k.get(0, 3), Gf256::new(2));
        assert_eq!(k.get(2, 5), Gf256::new(2));
        assert_eq!(k.get(3, 0), Gf256::new(3));
        assert_eq!(k.get(3, 3), Gf256::ZERO);
        assert_eq!(k.nonzeros(), 9);
    }

    #[test]
    fn kron_identity_commutes_with_product() {
        let a = Matrix::vandermonde(4, 3);
        let b = Matrix::vandermonde(3, 3);
        let lhs = (&a * &b).kron_identity(2);
        let rhs = &a.kron_identity(2) * &b.kron_identity(2);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn permute_rows_round_trip() {
        let m = Matrix::vandermonde(4, 2);
        let perm = [2, 0, 3, 1];
        let p = m.permute_rows(&perm);
        for (i, &src) in perm.iter().enumerate() {
            assert_eq!(p.row(i), m.row(src));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rows_rejects_duplicates() {
        let m = Matrix::identity(3);
        let _ = m.permute_rows(&[0, 0, 1]);
    }

    #[test]
    fn vstack_shapes() {
        let v = Matrix::identity(2).vstack(&Matrix::identity(2));
        assert_eq!((v.rows(), v.cols()), (4, 2));
        assert_eq!(v.get(2, 0), Gf256::ONE);
    }

    #[test]
    fn independent_rows_greedy() {
        // Rows: e0, e0 (dup), e1, e0+e1, e2.
        let m = Matrix::from_rows(&[
            vec![1, 0, 0],
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![1, 1, 0],
            vec![0, 0, 1],
        ]);
        assert_eq!(m.independent_rows(3), Some(vec![0, 2, 4]));
        assert_eq!(m.independent_rows(4), None, "rank is only 3");
        assert_eq!(m.independent_rows(0), Some(vec![]));
        assert_eq!(m.independent_rows(1), Some(vec![0]));
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::vandermonde(4, 3);
        let s = m.select(&[3, 1], &[2, 0]);
        assert_eq!((s.rows(), s.cols()), (2, 2));
        assert_eq!(s.get(0, 0), m.get(3, 2));
        assert_eq!(s.get(0, 1), m.get(3, 0));
        assert_eq!(s.get(1, 0), m.get(1, 2));
        // Empty selections are fine.
        let e = m.select(&[], &[]);
        assert_eq!((e.rows(), e.cols()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "column out of bounds")]
    fn select_validates_columns() {
        let m = Matrix::identity(2);
        let _ = m.select(&[0], &[5]);
    }

    #[test]
    #[should_panic(expected = "distinct evaluation points")]
    fn vandermonde_point_limit() {
        let _ = Matrix::vandermonde(256, 4);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::vandermonde(5, 3);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let m = Matrix::vandermonde(4, 3);
        let v = [Gf256::new(9), Gf256::new(4), Gf256::new(200)];
        let mut got = [Gf256::ZERO; 4];
        m.mul_vec_into(&v, &mut got);
        let col = Matrix::from_fn(3, 1, |r, _| v[r]);
        let want = &m * &col;
        for (r, g) in got.iter().enumerate() {
            assert_eq!(*g, want.get(r, 0));
        }
    }

    proptest! {
        #[test]
        fn prop_random_matrix_inverse(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..7usize);
            let m = Matrix::from_fn(n, n, |_, _| Gf256::new(rng.gen()));
            if let Some(inv) = m.inverse() {
                prop_assert!((&m * &inv).is_identity());
                prop_assert!((&inv * &m).is_identity());
                prop_assert_eq!(m.rank(), n);
            } else {
                prop_assert!(m.rank() < n);
            }
        }

        #[test]
        fn prop_rank_bounded(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let r = rng.gen_range(1..6usize);
            let c = rng.gen_range(1..6usize);
            let m = Matrix::from_fn(r, c, |_, _| Gf256::new(rng.gen()));
            prop_assert!(m.rank() <= r.min(c));
        }
    }
}
