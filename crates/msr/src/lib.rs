//! Product-matrix minimum-storage regenerating (MSR) codes.
//!
//! Implements the construction of Rashmi, Shah and Kumar ("Optimal
//! Exact-Regenerating Codes … via a Product-Matrix Construction", IEEE
//! Trans. IT 2011), which the paper uses as the base of Carousel codes for
//! `d ≥ 2k − 2` (§VI, footnote 2). An `(n, k, d)` MSR code stores `α =
//! d − k + 1` segments per block and repairs a lost block by downloading
//! **one** segment from each of `d` helpers — `d/(d−k+1)` block-sizes of
//! traffic, the information-theoretic optimum proved by Dimakis et al.
//!
//! * [`product_matrix`] builds the native `d = 2k − 2` code;
//! * [`shorten`] lifts it to any `d > 2k − 2` (the paper's evaluation uses
//!   `d = 2k − 1`) by constructing an `(n+i, k+i, d+i)` code, remapping it
//!   systematic and zeroing/dropping the first `i` blocks;
//! * [`ProductMatrixMsr`] is the resulting systematic code with repair plans.
//!
//! # Examples
//!
//! ```
//! use erasure::ErasureCode;
//! use msr::ProductMatrixMsr;
//!
//! // The paper's Fig 6 setting for k = 4: n = 2k, d = 2k - 1.
//! let code = ProductMatrixMsr::new(8, 4, 7)?;
//! assert_eq!(code.alpha(), 4);
//! let plan = code.repair_plan(0, &[1, 2, 3, 4, 5, 6, 7])?;
//! // 7 helpers send one of 4 segments each: 7/4 blocks instead of 4.
//! assert!((plan.traffic_blocks() - 7.0 / 4.0).abs() < 1e-9);
//! # Ok::<(), erasure::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mbr;
pub mod product_matrix;
pub mod shorten;

use erasure::{CodeError, DataLayout, ErasureCode, HelperTask, LinearCode, RepairPlan};
use gf256::{Gf256, Matrix};

use shorten::ShortenedMsr;

pub use mbr::ProductMatrixMbr;

/// A systematic `(n, k, d)` product-matrix MSR code, `d ≥ 2k − 2`.
///
/// Blocks consist of `α = d − k + 1` segments. The first `k` blocks hold the
/// original data verbatim; any `k` blocks decode it (MDS); any `d` surviving
/// blocks repair a lost one with `d/α` blocks of network traffic.
#[derive(Debug, Clone)]
pub struct ProductMatrixMsr {
    inner: ShortenedMsr,
    code: LinearCode,
}

impl ProductMatrixMsr {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `2 ≤ k`,
    /// `max(k, 2k − 2) ≤ d < n`, and GF(2⁸) has enough suitable evaluation
    /// points for the auxiliary `(n+i, k+i, d+i)` construction.
    pub fn new(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        let inner = ShortenedMsr::new(n, k, d)?;
        let code = inner.linear_code()?;
        Ok(ProductMatrixMsr { inner, code })
    }

    /// Segments per block, `α = d − k + 1`.
    pub fn alpha(&self) -> usize {
        self.inner.alpha()
    }

    /// The optimal repair traffic in block-sizes, `d / (d − k + 1)`.
    pub fn optimal_repair_blocks(&self) -> f64 {
        self.inner.d() as f64 / self.alpha() as f64
    }
}

impl ErasureCode for ProductMatrixMsr {
    fn name(&self) -> String {
        format!("MSR({},{},{})", self.n(), self.k(), self.inner.d())
    }

    fn linear(&self) -> &LinearCode {
        &self.code
    }

    fn d(&self) -> usize {
        self.inner.d()
    }

    fn data_layout(&self) -> DataLayout {
        DataLayout::systematic(self.n(), self.k(), self.alpha())
    }

    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        let n = self.n();
        if failed >= n {
            return Err(CodeError::NodeOutOfRange { node: failed, n });
        }
        if helpers.contains(&failed) {
            return Err(CodeError::BadHelperSet {
                reason: format!("helper set contains the failed block {failed}"),
            });
        }
        if helpers.len() != self.inner.d() {
            return Err(CodeError::BadHelperSet {
                reason: format!(
                    "MSR repair needs exactly d = {} helpers, got {}",
                    self.inner.d(),
                    helpers.len()
                ),
            });
        }
        let (helper_rows, combine) = self.inner.repair_matrices(failed, helpers)?;
        let tasks = helpers
            .iter()
            .zip(helper_rows)
            .map(|(&node, row)| HelperTask {
                node,
                coeffs: row_matrix(&row),
            })
            .collect();
        Ok(RepairPlan {
            failed,
            helpers: tasks,
            combine,
        })
    }
}

/// Wraps a coefficient vector as a `1 × len` matrix.
fn row_matrix(row: &[Gf256]) -> Matrix {
    Matrix::from_fn(1, row.len(), |_, c| row[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::mds::verify_mds;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_parameters() {
        // d below 2k-2.
        assert!(ProductMatrixMsr::new(8, 4, 5).is_err());
        // d >= n.
        assert!(ProductMatrixMsr::new(6, 3, 6).is_err());
        // k < 2 has no MSR regime.
        assert!(ProductMatrixMsr::new(4, 1, 2).is_err());
    }

    #[test]
    fn native_point_d_equals_2k_minus_2() {
        let code = ProductMatrixMsr::new(6, 3, 4).unwrap();
        assert_eq!(code.alpha(), 2);
        assert_eq!(code.linear().sub(), 2);
        assert!(verify_mds(code.linear(), 200).is_mds());
    }

    #[test]
    fn shortened_point_d_equals_2k_minus_1() {
        // The paper's evaluation setting.
        let code = ProductMatrixMsr::new(8, 4, 7).unwrap();
        assert_eq!(code.alpha(), 4);
        assert!(verify_mds(code.linear(), 200).is_mds());
    }

    #[test]
    fn systematic_property_bytes() {
        let code = ProductMatrixMsr::new(6, 3, 5).unwrap();
        let data: Vec<u8> = (0..90).map(|i| (i * 17 + 1) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        let per_block = data.len() / 3;
        for i in 0..3 {
            assert_eq!(
                &stripe.blocks[i][..per_block],
                &data[i * per_block..(i + 1) * per_block],
                "block {i} should be systematic"
            );
        }
    }

    #[test]
    fn decode_from_any_k_blocks() {
        let code = ProductMatrixMsr::new(6, 3, 4).unwrap();
        let data: Vec<u8> = (0..66).map(|i| (i * 7 + 2) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        for nodes in [[3usize, 4, 5], [0, 2, 4], [5, 1, 0]] {
            let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let out = code.linear().decode_nodes(&nodes, &blocks).unwrap();
            assert_eq!(&out[..data.len()], &data[..]);
        }
    }

    #[test]
    fn repair_all_blocks_optimal_traffic() {
        for (n, k, d) in [(6, 3, 4), (6, 3, 5), (8, 4, 6), (8, 4, 7), (12, 6, 10)] {
            let code = ProductMatrixMsr::new(n, k, d).unwrap();
            let alpha = code.alpha();
            let data: Vec<u8> = (0..k * alpha * 8).map(|i| (i * 13 + 5) as u8).collect();
            let stripe = code.linear().encode(&data).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            for failed in 0..n {
                let mut pool: Vec<usize> = (0..n).filter(|&i| i != failed).collect();
                pool.shuffle(&mut rng);
                let helpers: Vec<usize> = pool.into_iter().take(d).collect();
                let plan = code.repair_plan(failed, &helpers).unwrap();
                let blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();
                let (rebuilt, traffic) = plan.run(&blocks).unwrap();
                assert_eq!(
                    rebuilt, stripe.blocks[failed],
                    "({n},{k},{d}) block {failed}"
                );
                // Optimal: d segments of block_bytes / alpha each.
                assert_eq!(traffic, d * stripe.block_bytes() / alpha);
                let expect = d as f64 / alpha as f64;
                assert!((plan.traffic_blocks() - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn repair_validates_helper_sets() {
        let code = ProductMatrixMsr::new(8, 4, 7).unwrap();
        assert!(code.repair_plan(0, &[1, 2, 3, 4, 5, 6]).is_err());
        assert!(code.repair_plan(0, &[0, 1, 2, 3, 4, 5, 6]).is_err());
        assert!(code.repair_plan(0, &[1, 1, 2, 3, 4, 5, 6]).is_err());
        assert!(code.repair_plan(0, &[1, 2, 3, 4, 5, 6, 9]).is_err());
    }

    #[test]
    fn name_reports_parameters() {
        let code = ProductMatrixMsr::new(8, 4, 7).unwrap();
        assert_eq!(code.name(), "MSR(8,4,7)");
        assert_eq!(code.parallelism(), 4);
        assert!((code.optimal_repair_blocks() - 1.75).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_mds_and_repair_random(
            k in 2usize..5,
            d_off in 0usize..2,
            extra in 1usize..4,
            seed in any::<u64>(),
        ) {
            let d = (2 * k - 2 + d_off).max(k);
            let n = d + extra;
            let code = ProductMatrixMsr::new(n, k, d).unwrap();
            prop_assert!(verify_mds(code.linear(), 100).is_mds());
            let alpha = code.alpha();
            let data: Vec<u8> = (0..k * alpha * 4).map(|i| (i * 31) as u8).collect();
            let stripe = code.linear().encode(&data).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let failed = (seed as usize) % n;
            let mut pool: Vec<usize> = (0..n).filter(|&i| i != failed).collect();
            pool.shuffle(&mut rng);
            let helpers: Vec<usize> = pool.into_iter().take(d).collect();
            let plan = code.repair_plan(failed, &helpers).unwrap();
            let blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let (rebuilt, _) = plan.run(&blocks).unwrap();
            prop_assert_eq!(rebuilt, stripe.blocks[failed].clone());
        }
    }
}
