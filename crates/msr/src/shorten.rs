//! Shortening: product-matrix MSR codes for `d > 2k − 2`.
//!
//! The native product-matrix construction exists only at `d = 2k − 2`, but
//! the paper's evaluation uses `d = 2k − 1`. The standard lift is
//! *shortening*: to build `(n, k, d)` with `i = d − 2k + 2 > 0`,
//!
//! 1. build the auxiliary `(n+i, k+i, d+i)` code, which sits at its native
//!    point (`d+i = 2(k+i) − 2`) and has the same `α = d − k + 1`;
//! 2. remap it to systematic form (Rashmi et al., Theorem 1): right-multiply
//!    the generator by the inverse of its first `(k+i)·α` rows;
//! 3. fix the first `i` blocks' data to zero and drop those blocks and the
//!    corresponding message columns.
//!
//! The dropped blocks are systematic blocks storing all-zero data, so during
//! repair they would contribute all-zero segments: the newcomer can simply
//! skip them, which is why `d` real helpers suffice and the repair traffic
//! stays at the optimal `d/(d−k+1)` blocks. When `i = 0` only the
//! systematic remapping is applied.

use erasure::{check_indices, CodeError, LinearCode};
use gf256::{Gf256, Matrix};

use crate::product_matrix::RawMsr;

/// An `(n, k, d)` systematic MSR code realized by shortening an auxiliary
/// native-point product-matrix code by `i = d − 2k + 2` blocks.
#[derive(Debug, Clone)]
pub struct ShortenedMsr {
    n: usize,
    k: usize,
    d: usize,
    /// Shortening amount.
    i: usize,
    /// The auxiliary `(n+i, k+i)` native-point construction.
    raw: RawMsr,
    /// Final `n·α × k·α` generator (systematic in the first `k` blocks).
    generator: Matrix,
}

impl ShortenedMsr {
    /// Builds the shortened construction.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `k ≥ 2` and
    /// `2k − 2 ≤ d < n` and the auxiliary construction is realizable in
    /// GF(2⁸).
    pub fn new(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        if k < 2 {
            return Err(CodeError::InvalidParameters {
                reason: "MSR codes require k >= 2 (use RS for k < 2 or d = k)".into(),
            });
        }
        if d < 2 * k - 2 {
            return Err(CodeError::InvalidParameters {
                reason: format!("product-matrix MSR requires d >= 2k - 2 (got d = {d}, k = {k})"),
            });
        }
        if d >= n {
            return Err(CodeError::InvalidParameters {
                reason: format!("require d = {d} < n = {n}"),
            });
        }
        let i = d - (2 * k - 2);
        let raw = RawMsr::new(n + i, k + i)?;
        debug_assert_eq!(raw.d(), d + i);
        debug_assert_eq!(raw.alpha(), d - k + 1);
        let alpha = raw.alpha();
        let kb = k + i;

        // Systematic remapping: G_sys = G_aux · (top (k+i)·α rows)⁻¹.
        let g_aux = raw.generator();
        let top_rows: Vec<usize> = (0..kb * alpha).collect();
        let top_inv =
            g_aux
                .select_rows(&top_rows)
                .inverse()
                .ok_or_else(|| CodeError::InvalidParameters {
                    reason: "auxiliary MSR generator's systematic block is singular".into(),
                })?;
        let g_sys = &g_aux * &top_inv;

        // Shorten: drop the first i blocks (rows) and their zeroed message
        // symbols (columns).
        let rows: Vec<usize> = (i * alpha..(n + i) * alpha).collect();
        let cols: Vec<usize> = (i * alpha..kb * alpha).collect();
        let generator = g_sys.select(&rows, &cols);

        Ok(ShortenedMsr {
            n,
            k,
            d,
            i,
            raw,
            generator,
        })
    }

    /// Helpers per repair.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Segments per block.
    pub fn alpha(&self) -> usize {
        self.d - self.k + 1
    }

    /// The shortening amount `i = d − 2k + 2`.
    pub fn shortening(&self) -> usize {
        self.i
    }

    /// Wraps the generator as a [`LinearCode`].
    ///
    /// # Errors
    ///
    /// Never fails for a successfully constructed `ShortenedMsr`; the
    /// `Result` mirrors [`LinearCode::new`].
    pub fn linear_code(&self) -> Result<LinearCode, CodeError> {
        LinearCode::new(self.n, self.k, self.alpha(), self.generator.clone())
    }

    /// Repair matrices for `failed` given `d` distinct real helpers: the
    /// per-helper compression rows (each helper projects its `α` segments
    /// onto `φ_f`) and the `α × d` newcomer combine matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadHelperSet`] / [`CodeError::NodeOutOfRange`]
    /// for malformed helper sets.
    pub fn repair_matrices(
        &self,
        failed: usize,
        helpers: &[usize],
    ) -> Result<(Vec<Vec<Gf256>>, Matrix), CodeError> {
        check_indices(self.n, helpers)?;
        let aux_failed = failed + self.i;
        // Auxiliary helper set: the i dropped (all-zero) blocks, then the
        // real helpers shifted by i.
        let mut aux_helpers: Vec<usize> = (0..self.i).collect();
        aux_helpers.extend(helpers.iter().map(|&h| h + self.i));
        let combine_full = self.raw.repair_combine(aux_failed, &aux_helpers)?;
        // Dropped helpers contribute all-zero payloads; drop their columns.
        let rows: Vec<usize> = (0..combine_full.rows()).collect();
        let cols: Vec<usize> = (self.i..combine_full.cols()).collect();
        let combine = combine_full.select(&rows, &cols);
        let phi_f = self.raw.phi(aux_failed);
        let helper_rows = vec![phi_f; helpers.len()];
        Ok((helper_rows, combine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortening_amounts() {
        assert_eq!(ShortenedMsr::new(6, 3, 4).unwrap().shortening(), 0);
        assert_eq!(ShortenedMsr::new(6, 3, 5).unwrap().shortening(), 1);
        assert_eq!(ShortenedMsr::new(10, 3, 7).unwrap().shortening(), 3);
    }

    #[test]
    fn generator_is_systematic() {
        let s = ShortenedMsr::new(8, 4, 7).unwrap();
        let code = s.linear_code().unwrap();
        let b = code.message_units();
        let top: Vec<usize> = (0..b).collect();
        assert!(code.generator().select_rows(&top).is_identity());
    }

    #[test]
    fn alpha_matches_definition() {
        for (n, k, d) in [(6, 3, 4), (8, 4, 7), (12, 6, 10), (12, 6, 11)] {
            let s = ShortenedMsr::new(n, k, d).unwrap();
            assert_eq!(s.alpha(), d - k + 1);
        }
    }

    #[test]
    fn repair_matrices_shapes() {
        let s = ShortenedMsr::new(8, 4, 7).unwrap();
        let helpers: Vec<usize> = (1..8).collect();
        let (rows, combine) = s.repair_matrices(0, &helpers).unwrap();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].len(), s.alpha());
        assert_eq!((combine.rows(), combine.cols()), (s.alpha(), 7));
    }

    #[test]
    fn repair_matrices_validate() {
        let s = ShortenedMsr::new(6, 3, 5).unwrap();
        assert!(s.repair_matrices(0, &[1, 2, 3, 4, 9]).is_err());
        assert!(s.repair_matrices(0, &[1, 1, 2, 3, 4]).is_err());
    }

    #[test]
    fn deep_shortening_still_decodes() {
        // i = 3: exercises multi-block shortening.
        let s = ShortenedMsr::new(10, 3, 7).unwrap();
        let code = s.linear_code().unwrap();
        let data: Vec<u8> = (0..s.alpha() * 3 * 2).map(|i| (i * 3 + 1) as u8).collect();
        let stripe = code.encode(&data).unwrap();
        let nodes = [9usize, 4, 0];
        let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
        let out = code.decode_nodes(&nodes, &blocks).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }
}
