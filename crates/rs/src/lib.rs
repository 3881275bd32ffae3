//! Systematic `(n, k)` Reed-Solomon codes (paper §IV).
//!
//! The generator is a systematized Vandermonde matrix: an `n × k`
//! Vandermonde matrix on distinct points right-multiplied by the inverse of
//! its top `k × k` block, so the first `k` blocks are verbatim data blocks
//! and any `k` of the `n` blocks decode (MDS).
//!
//! Repair is repair-by-decode (equation (2) of the paper): `k` helpers each
//! send their whole block, so repairing one block costs `k` block transfers
//! — the inefficiency that motivates MSR and, by extension, Carousel codes.
//!
//! # Examples
//!
//! ```
//! use erasure::ErasureCode;
//! use rs_code::ReedSolomon;
//!
//! let rs = ReedSolomon::new(6, 4)?;
//! let stripe = rs.linear().encode(b"data to protect")?;
//! // Lose two blocks, decode from any four.
//! let nodes = [0, 2, 4, 5];
//! let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
//! let out = rs.linear().decode_nodes(&nodes, &blocks)?;
//! assert_eq!(&out[..15], b"data to protect");
//! # Ok::<(), erasure::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use erasure::{CodeError, DataLayout, ErasureCode, LinearCode, RepairPlan};
use gf256::builders::systematize;
use gf256::Matrix;

/// A systematic `(n, k)` Reed-Solomon code over GF(2⁸).
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    code: LinearCode,
}

impl ReedSolomon {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `0 < k ≤ n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, CodeError> {
        if k == 0 || k > n {
            return Err(CodeError::InvalidParameters {
                reason: format!("require 0 < k <= n, got n = {n}, k = {k}"),
            });
        }
        if n > 255 {
            return Err(CodeError::InvalidParameters {
                reason: format!("n = {n} exceeds the GF(2^8) limit of 255 blocks"),
            });
        }
        let generator = systematize(&Matrix::vandermonde(n, k));
        let code = LinearCode::new(n, k, 1, generator)?;
        Ok(ReedSolomon { code })
    }
}

impl ErasureCode for ReedSolomon {
    fn name(&self) -> String {
        format!("RS({},{})", self.n(), self.k())
    }

    fn linear(&self) -> &LinearCode {
        &self.code
    }

    fn d(&self) -> usize {
        self.k()
    }

    fn data_layout(&self) -> DataLayout {
        DataLayout::systematic(self.n(), self.k(), 1)
    }

    /// Repair-by-decode: the `k` helpers ship their whole blocks and the
    /// newcomer recomputes `g_failed · F` (paper eq. (2)).
    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        if failed >= self.n() {
            return Err(CodeError::NodeOutOfRange {
                node: failed,
                n: self.n(),
            });
        }
        if helpers.contains(&failed) {
            return Err(CodeError::BadHelperSet {
                reason: format!("helper set contains the failed block {failed}"),
            });
        }
        if helpers.len() != self.k() {
            return Err(CodeError::BadHelperSet {
                reason: format!(
                    "RS repair needs exactly k = {} helpers, got {}",
                    self.k(),
                    helpers.len()
                ),
            });
        }
        RepairPlan::by_decode(&self.code, failed, helpers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::mds::verify_mds;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(3, 4).is_err());
        assert!(ReedSolomon::new(256, 8).is_err());
        assert!(ReedSolomon::new(255, 255).is_ok());
    }

    #[test]
    fn is_mds_for_paper_parameters() {
        // The paper's cluster experiments use (12, 6); Fig 6 sweeps n = 2k.
        for (n, k) in [(6, 4), (12, 6), (4, 2), (8, 4)] {
            let rs = ReedSolomon::new(n, k).unwrap();
            assert!(verify_mds(rs.linear(), 2_000).is_mds(), "RS({n},{k})");
        }
    }

    #[test]
    fn systematic_layout() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let layout = rs.data_layout();
        assert_eq!(layout.data_bearing_nodes(), 4);
        assert_eq!(rs.parallelism(), 4);
        assert!(layout.is_contiguous_per_node());
    }

    #[test]
    fn repair_every_block_from_every_helper_window() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        let data: Vec<u8> = (0..96).map(|i| (i * 29 + 3) as u8).collect();
        let stripe = rs.linear().encode(&data).unwrap();
        for failed in 0..6 {
            let helpers: Vec<usize> = (0..6).filter(|&i| i != failed).take(4).collect();
            let plan = rs.repair_plan(failed, &helpers).unwrap();
            let blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let (rebuilt, traffic) = plan.run(&blocks).unwrap();
            assert_eq!(rebuilt, stripe.blocks[failed], "block {failed}");
            // RS repair moves k full blocks.
            assert_eq!(traffic, 4 * stripe.block_bytes());
            assert!((plan.traffic_blocks() - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn repair_from_nonconsecutive_helpers() {
        let rs = ReedSolomon::new(8, 4).unwrap();
        let data: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let stripe = rs.linear().encode(&data).unwrap();
        let plan = rs.repair_plan(2, &[7, 0, 5, 3]).unwrap();
        let blocks: Vec<&[u8]> = [7usize, 0, 5, 3]
            .iter()
            .map(|&i| &stripe.blocks[i][..])
            .collect();
        let (rebuilt, _) = plan.run(&blocks).unwrap();
        assert_eq!(rebuilt, stripe.blocks[2]);
    }

    #[test]
    fn repair_rejects_bad_helper_sets() {
        let rs = ReedSolomon::new(6, 4).unwrap();
        assert!(matches!(
            rs.repair_plan(0, &[0, 1, 2, 3]),
            Err(CodeError::BadHelperSet { .. })
        ));
        assert!(matches!(
            rs.repair_plan(0, &[1, 2, 3]),
            Err(CodeError::BadHelperSet { .. })
        ));
        assert!(matches!(
            rs.repair_plan(9, &[1, 2, 3, 4]),
            Err(CodeError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn name_and_dims() {
        let rs = ReedSolomon::new(9, 6).unwrap();
        assert_eq!(rs.name(), "RS(9,6)");
        assert_eq!(rs.n(), 9);
        assert_eq!(rs.k(), 6);
        assert_eq!(rs.d(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_round_trip_random_subsets(
            k in 2usize..7,
            extra in 1usize..5,
            data in proptest::collection::vec(any::<u8>(), 1..400),
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let n = k + extra;
            let rs = ReedSolomon::new(n, k).unwrap();
            let stripe = rs.linear().encode(&data).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut nodes: Vec<usize> = (0..n).collect();
            nodes.shuffle(&mut rng);
            nodes.truncate(k);
            let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let out = rs.linear().decode_nodes(&nodes, &blocks).unwrap();
            prop_assert_eq!(&out[..data.len()], &data[..]);
        }
    }
}
