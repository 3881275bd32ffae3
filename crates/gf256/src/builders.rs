//! Structured matrix builders used by the code constructions.
//!
//! Beyond the convenience constructors on [`Matrix`], erasure-code
//! constructions need a few specialized shapes: systematized MDS generators,
//! general Cauchy matrices, symmetric message matrices and evaluation-point
//! pickers with side conditions (the product-matrix MSR construction needs
//! points whose α-th powers are also distinct).

use crate::{Gf256, Matrix};

/// Picks `n` distinct nonzero evaluation points `x_i` such that the powers
/// `x_i^alpha` are *also* pairwise distinct.
///
/// The product-matrix MSR construction (Rashmi et al.) uses
/// `Ψ = [Φ  ΛΦ]` with `λ_i = x_i^α`; the λ must be distinct for repair to
/// work. A greedy scan over the 255 nonzero field elements suffices for all
/// parameter sizes in the paper.
///
/// # Errors
///
/// Returns `None` if fewer than `n` suitable points exist in GF(2⁸).
pub fn distinct_points_with_distinct_powers(n: usize, alpha: u32) -> Option<Vec<Gf256>> {
    let mut points = Vec::with_capacity(n);
    let mut used_powers = Vec::with_capacity(n);
    for v in 1..=255u8 {
        let x = Gf256::new(v);
        let xp = x.pow(alpha);
        if !used_powers.contains(&xp) {
            points.push(x);
            used_powers.push(xp);
            if points.len() == n {
                return Some(points);
            }
        }
    }
    None
}

/// A general Cauchy matrix `1 / (x_i + y_j)`.
///
/// # Panics
///
/// Panics if `x` and `y` share an element (division by zero) or contain
/// duplicates among themselves.
pub fn cauchy(x: &[Gf256], y: &[Gf256]) -> Matrix {
    for (i, a) in x.iter().enumerate() {
        assert!(!x[i + 1..].contains(a), "duplicate x point");
    }
    for (j, b) in y.iter().enumerate() {
        assert!(!y[j + 1..].contains(b), "duplicate y point");
    }
    Matrix::from_fn(x.len(), y.len(), |i, j| {
        (x[i] + y[j]).inv().expect("x and y must be disjoint")
    })
}

/// Systematizes an MDS generator: given an `n × k` matrix whose every `k`
/// rows are invertible, returns `G · (top k rows)⁻¹`, which has the identity
/// in its top `k` rows and retains the any-`k`-rows-invertible property
/// (right-multiplication by an invertible matrix scales every `k×k` minor
/// by the same nonzero determinant).
///
/// # Panics
///
/// Panics if the top `k × k` block is singular (i.e. the input was not MDS).
pub fn systematize(g: &Matrix) -> Matrix {
    let k = g.cols();
    let top: Vec<usize> = (0..k).collect();
    let inv = g
        .select_rows(&top)
        .inverse()
        .expect("top k rows of an MDS generator are invertible");
    g * &inv
}

/// Builds a symmetric `m × m` matrix from `m(m+1)/2` symbols laid out along
/// the upper triangle, row by row.
///
/// The product-matrix MSR message matrix is assembled from two of these.
///
/// # Panics
///
/// Panics if `symbols.len() != m(m+1)/2`.
pub fn symmetric_from_upper(m: usize, symbols: &[Gf256]) -> Matrix {
    assert_eq!(symbols.len(), m * (m + 1) / 2, "wrong symbol count");
    let mut out = Matrix::zeros(m, m);
    let mut it = symbols.iter();
    for r in 0..m {
        for c in r..m {
            let v = *it.next().expect("length checked above");
            out.set(r, c, v);
            out.set(c, r, v);
        }
    }
    out
}

/// The index (within the upper-triangle layout of [`symmetric_from_upper`])
/// of entry `(r, c)` with `r ≤ c` of an `m × m` symmetric matrix.
pub fn upper_index(m: usize, r: usize, c: usize) -> usize {
    debug_assert!(r <= c && c < m);
    // Row r starts after rows 0..r, which contribute m + (m-1) + ... + (m-r+1).
    r * m - r * (r + 1) / 2 + r + (c - r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_with_distinct_powers() {
        let pts = distinct_points_with_distinct_powers(20, 5).expect("enough points");
        assert_eq!(pts.len(), 20);
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.pow(5), b.pow(5));
            }
        }
    }

    #[test]
    fn points_exhaustion_returns_none() {
        // x -> x^255 = 1 for all nonzero x, so only one point can ever be
        // selected when alpha is a multiple of 255.
        assert!(distinct_points_with_distinct_powers(2, 255).is_none());
        assert_eq!(
            distinct_points_with_distinct_powers(1, 255).map(|v| v.len()),
            Some(1)
        );
    }

    #[test]
    fn systematize_keeps_mds() {
        let g = Matrix::vandermonde(6, 3);
        let s = systematize(&g);
        // Top is identity.
        assert!(s.select_rows(&[0, 1, 2]).is_identity());
        // Every 3-subset still invertible.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    assert!(s.select_rows(&[a, b, c]).is_invertible());
                }
            }
        }
    }

    #[test]
    fn symmetric_layout_round_trip() {
        let m = 4;
        let symbols: Vec<Gf256> = (1..=10).map(Gf256::new).collect();
        let s = symmetric_from_upper(m, &symbols);
        assert_eq!(s, s.transpose());
        for r in 0..m {
            for c in r..m {
                assert_eq!(s.get(r, c), symbols[upper_index(m, r, c)]);
            }
        }
    }

    #[test]
    fn cauchy_is_mds() {
        let x: Vec<Gf256> = (0..6).map(Gf256::new).collect();
        let y: Vec<Gf256> = (6..9).map(Gf256::new).collect();
        let m = cauchy(&x, &y);
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    assert!(m.select_rows(&[a, b, c]).is_invertible());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn cauchy_rejects_overlap() {
        let x = [Gf256::new(1), Gf256::new(2)];
        let y = [Gf256::new(2), Gf256::new(3)];
        let _ = cauchy(&x, &y);
    }
}
