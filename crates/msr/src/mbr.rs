//! Product-matrix minimum-bandwidth regenerating (MBR) codes.
//!
//! The other extreme of the storage/repair-bandwidth trade-off from the
//! same Rashmi–Shah–Kumar construction the paper builds Carousel codes on:
//! where MSR codes store the minimum (`file/k` per block) and repair with
//! `d/(d−k+1)` blocks of traffic, MBR codes store *more* per block
//! (`α = d` units against a message of `B = k(k+1)/2 + k(d−k)` units) and
//! repair any lost block with **exactly one block** of traffic — the
//! information-theoretic minimum bandwidth. Included as a comparison
//! point; it exercises the engine's non-MDS shape support
//! (`LinearCode::with_message_units`).
//!
//! Construction: the message fills a `d × d` symmetric matrix
//! `M = [[S, T], [Tᵀ, 0]]` (`S` symmetric `k × k`, `T` arbitrary
//! `k × (d−k)`); node `i` stores `ψᵢᵀM` for Vandermonde rows `ψᵢ`. Repair
//! of node `f`: helper `j` sends the single symbol `(ψⱼᵀM)·ψ_f`; stacking
//! `d` helpers gives `Ψ_R(Mψ_f)`, and by symmetry `ψ_fᵀM = (Mψ_f)ᵀ` — the
//! newcomer's combine matrix is just `Ψ_R⁻¹`.

use erasure::{
    check_indices, CodeError, DataLayout, ErasureCode, HelperTask, LinearCode, RepairPlan,
};
use gf256::builders::upper_index;
use gf256::{Gf256, Matrix};

/// A systematic-remapped `(n, k, d)` product-matrix MBR code, `k ≤ d < n`.
///
/// # Examples
///
/// ```
/// use erasure::ErasureCode;
/// use msr::ProductMatrixMbr;
///
/// let code = ProductMatrixMbr::new(12, 6, 10)?;
/// let plan = code.repair_plan(0, &(1..=10).collect::<Vec<_>>())?;
/// // Exactly one block of repair traffic — the minimum possible.
/// assert!((plan.traffic_blocks() - 1.0).abs() < 1e-9);
/// # Ok::<(), erasure::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProductMatrixMbr {
    n: usize,
    k: usize,
    d: usize,
    code: LinearCode,
    layout: DataLayout,
    /// Per-node unit permutation: `perms[i][stored] = pre-reorder unit`.
    perms: Vec<Vec<usize>>,
    /// Evaluation points of the Vandermonde `Ψ`.
    points: Vec<Gf256>,
}

impl ProductMatrixMbr {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `0 < k ≤ d < n ≤ 255`.
    pub fn new(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        if k == 0 || k > d || d >= n {
            return Err(CodeError::InvalidParameters {
                reason: format!("require 0 < k <= d < n, got ({n}, {k}, {d})"),
            });
        }
        if n > 255 {
            return Err(CodeError::InvalidParameters {
                reason: format!("n = {n} exceeds the GF(2^8) limit of 255 blocks"),
            });
        }
        let b = Self::message_units_for(k, d);
        let points: Vec<Gf256> = (0..n).map(|i| Gf256::exp(i as u32)).collect();
        let raw = Self::raw_generator(n, k, d, &points, b);

        // Systematic remapping: greedily pick B independent rows (they come
        // from the first k nodes) and right-multiply by their inverse.
        let data_rows = raw
            .independent_rows(b)
            .ok_or(CodeError::SingularSelection)?;
        let sel_inv = raw
            .select_rows(&data_rows)
            .inverse()
            .ok_or(CodeError::SingularSelection)?;
        let remapped = &raw * &sel_inv;

        // Reorder: data units to the top of each node, in selection order.
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut node_data: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (file_unit, &row) in data_rows.iter().enumerate() {
            node_data[row / d].push(file_unit);
        }
        for node in 0..n {
            let chosen: Vec<usize> = data_rows
                .iter()
                .filter(|&&r| r / d == node)
                .map(|&r| r % d)
                .collect();
            let mut perm = chosen.clone();
            perm.extend((0..d).filter(|u| !chosen.contains(u)));
            perms.push(perm);
        }
        let global: Vec<usize> = perms
            .iter()
            .enumerate()
            .flat_map(|(i, pm)| pm.iter().map(move |&u| i * d + u))
            .collect();
        let generator = remapped.permute_rows(&global);
        let code = LinearCode::with_message_units(n, k, d, b, generator)?;
        let layout = DataLayout::new(d, b, node_data);
        Ok(ProductMatrixMbr {
            n,
            k,
            d,
            code,
            layout,
            perms,
            points,
        })
    }

    /// Message units `B = k(k+1)/2 + k(d−k)`.
    pub fn message_units_for(k: usize, d: usize) -> usize {
        k * (k + 1) / 2 + k * (d - k)
    }

    /// Per-block storage in multiples of `file/k` (the MDS optimum is 1.0):
    /// `k·d / B ≥ 1`, the price paid for 1-block repairs.
    pub fn storage_expansion(&self) -> f64 {
        (self.k * self.d) as f64 / self.code.message_units() as f64
    }

    fn psi(points: &[Gf256], i: usize, d: usize) -> Vec<Gf256> {
        (0..d).map(|t| points[i].pow(t as u32)).collect()
    }

    /// `M[t][j]` as a message-symbol column index (`None` for the zero
    /// block).
    fn symbol_index(k: usize, d: usize, t: usize, j: usize) -> Option<usize> {
        let b1 = k * (k + 1) / 2;
        match (t < k, j < k) {
            (true, true) => Some(upper_index(k, t.min(j), t.max(j))),
            (true, false) => Some(b1 + t * (d - k) + (j - k)),
            (false, true) => Some(b1 + j * (d - k) + (t - k)),
            (false, false) => None,
        }
    }

    fn raw_generator(n: usize, k: usize, d: usize, points: &[Gf256], b: usize) -> Matrix {
        let mut g = Matrix::zeros(n * d, b);
        for i in 0..n {
            let psi = Self::psi(points, i, d);
            for j in 0..d {
                let row = i * d + j;
                for (t, &coeff) in psi.iter().enumerate() {
                    if let Some(col) = Self::symbol_index(k, d, t, j) {
                        let v = g.get(row, col) + coeff;
                        g.set(row, col, v);
                    }
                }
            }
        }
        g
    }
}

impl ErasureCode for ProductMatrixMbr {
    fn name(&self) -> String {
        format!("MBR({},{},{})", self.n, self.k, self.d)
    }

    fn linear(&self) -> &LinearCode {
        &self.code
    }

    fn d(&self) -> usize {
        self.d
    }

    fn data_layout(&self) -> DataLayout {
        self.layout.clone()
    }

    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        if failed >= self.n {
            return Err(CodeError::NodeOutOfRange {
                node: failed,
                n: self.n,
            });
        }
        if helpers.contains(&failed) {
            return Err(CodeError::BadHelperSet {
                reason: format!("helper set contains the failed block {failed}"),
            });
        }
        if helpers.len() != self.d {
            return Err(CodeError::BadHelperSet {
                reason: format!(
                    "MBR repair needs exactly d = {} helpers, got {}",
                    self.d,
                    helpers.len()
                ),
            });
        }
        check_indices(self.n, helpers)?;
        let psi_f = Self::psi(&self.points, failed, self.d);
        // Helper h computes psi_f . (pre-reorder block) from its stored
        // (reordered) block.
        let tasks: Vec<HelperTask> = helpers
            .iter()
            .map(|&h| {
                let perm = &self.perms[h];
                let mut coeffs = Matrix::zeros(1, self.d);
                for (stored, &orig) in perm.iter().enumerate() {
                    coeffs.set(0, stored, psi_f[orig]);
                }
                HelperTask { node: h, coeffs }
            })
            .collect();
        // Newcomer: pre-reorder block f = Psi_R^{-1} . payload (symmetry of
        // M); stored block applies f's permutation to the rows.
        let mut psi_r = Matrix::zeros(self.d, self.d);
        for (r, &h) in helpers.iter().enumerate() {
            for (c, &v) in Self::psi(&self.points, h, self.d).iter().enumerate() {
                psi_r.set(r, c, v);
            }
        }
        let inv = psi_r.inverse().ok_or(CodeError::SingularSelection)?;
        let perm_f = &self.perms[failed];
        let combine = Matrix::from_fn(self.d, self.d, |q, c| inv.get(perm_f[q], c));
        Ok(RepairPlan {
            failed,
            helpers: tasks,
            combine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(ProductMatrixMbr::new(5, 0, 3).is_err());
        assert!(ProductMatrixMbr::new(5, 4, 3).is_err()); // k > d
        assert!(ProductMatrixMbr::new(5, 3, 5).is_err()); // d >= n
        assert!(ProductMatrixMbr::new(5, 3, 4).is_ok());
    }

    #[test]
    fn message_size_formula() {
        assert_eq!(ProductMatrixMbr::message_units_for(3, 4), 6 + 3);
        assert_eq!(ProductMatrixMbr::message_units_for(6, 10), 21 + 24);
        let code = ProductMatrixMbr::new(12, 6, 10).unwrap();
        assert_eq!(code.linear().message_units(), 45);
        assert!(code.storage_expansion() > 1.0, "MBR stores extra");
        assert!((code.storage_expansion() - 60.0 / 45.0).abs() < 1e-12);
    }

    #[test]
    fn systematic_layout_covers_first_k_nodes() {
        let code = ProductMatrixMbr::new(8, 4, 6).unwrap();
        let layout = code.data_layout();
        assert_eq!(layout.data_bearing_nodes(), 4);
        // Node 0 carries d = 6 data units; node k-1 carries d - k + 1 = 3.
        assert_eq!(layout.data_units_of(0).len(), 6);
        assert_eq!(layout.data_units_of(3).len(), 3);
        assert!(layout.data_units_of(4).is_empty());
    }

    #[test]
    fn data_regions_hold_raw_file_bytes() {
        let code = ProductMatrixMbr::new(8, 4, 6).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 8).map(|i| (i * 19 + 5) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        let layout = code.data_layout();
        let w = stripe.unit_bytes;
        for node in 0..4 {
            for (unit, &fu) in layout.data_units_of(node).iter().enumerate() {
                assert_eq!(
                    &stripe.blocks[node][unit * w..(unit + 1) * w],
                    &data[fu * w..(fu + 1) * w],
                    "node {node} unit {unit}"
                );
            }
        }
    }

    #[test]
    fn any_k_nodes_decode() {
        let code = ProductMatrixMbr::new(7, 3, 5).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 4).map(|i| (i * 7 + 1) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        for nodes in [[0usize, 1, 2], [4, 5, 6], [0, 3, 6], [6, 2, 4]] {
            let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let out = code.linear().decode_nodes(&nodes, &blocks).unwrap();
            assert_eq!(&out[..data.len()], &data[..], "{nodes:?}");
        }
    }

    #[test]
    fn repair_traffic_is_exactly_one_block() {
        for (n, k, d) in [(5, 3, 4), (8, 4, 6), (12, 6, 10), (6, 3, 3)] {
            let code = ProductMatrixMbr::new(n, k, d).unwrap();
            let b = code.linear().message_units();
            let data: Vec<u8> = (0..b * 4).map(|i| (i * 13 + 3) as u8).collect();
            let stripe = code.linear().encode(&data).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            for failed in 0..n {
                let mut pool: Vec<usize> = (0..n).filter(|&i| i != failed).collect();
                pool.shuffle(&mut rng);
                let helpers: Vec<usize> = pool.into_iter().take(d).collect();
                let plan = code.repair_plan(failed, &helpers).unwrap();
                let blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();
                let (rebuilt, traffic) = plan.run(&blocks).unwrap();
                assert_eq!(rebuilt, stripe.blocks[failed], "({n},{k},{d}) f={failed}");
                assert_eq!(
                    traffic,
                    stripe.block_bytes(),
                    "({n},{k},{d}): MBR repair moves exactly one block"
                );
            }
        }
    }

    #[test]
    fn repair_validates_helper_sets() {
        let code = ProductMatrixMbr::new(8, 4, 6).unwrap();
        assert!(code.repair_plan(0, &[1, 2, 3, 4, 5]).is_err());
        assert!(code.repair_plan(0, &[0, 1, 2, 3, 4, 5]).is_err());
        assert!(code.repair_plan(0, &[1, 1, 2, 3, 4, 5]).is_err());
        assert!(code.repair_plan(9, &[1, 2, 3, 4, 5, 6]).is_err());
    }

    #[test]
    fn mbr_vs_msr_tradeoff() {
        // Same (n, k, d): MSR repairs with d/(d-k+1) blocks at 1.0x storage;
        // MBR repairs with 1 block at k*d/B x storage.
        let msr = crate::ProductMatrixMsr::new(12, 6, 10).unwrap();
        let mbr = ProductMatrixMbr::new(12, 6, 10).unwrap();
        assert!((msr.optimal_repair_blocks() - 2.0).abs() < 1e-12);
        let helpers: Vec<usize> = (1..=10).collect();
        let t = mbr.repair_plan(0, &helpers).unwrap().traffic_blocks();
        assert!((t - 1.0).abs() < 1e-12);
        assert!(mbr.storage_expansion() > 1.0);
    }
}
