//! The four-step Carousel construction (paper §V–§VII).
//!
//! Interpretation note (see DESIGN.md): the provided paper text garbles the
//! expansion fraction between `k/p` and `αk/p`; we follow the reading that
//! matches both of the paper's worked examples (Fig. 3 and Fig. 4): every
//! *segment* splits into `N₀ = p/gcd(k,p)` units, `K₀ = k/gcd(k,p)` of
//! which are chosen per segment, with the same round-robin pattern across
//! all segments of a block. Every per-copy unit row is then chosen in
//! exactly `k` of the first `p` blocks, which is what makes the chosen
//! submatrix `Ĝ₀` invertible and the remapped code MDS.
//!
//! The file-unit labelling differs from the paper's worked example in one
//! inessential way: we assign node `i`'s chosen units the contiguous file
//! range `[i·αK₀, (i+1)·αK₀)` in ascending unit order, which yields an
//! equivalent code with the same structural properties (even spread,
//! per-node contiguity, sparsity) and a simpler reader.

use erasure::{CodeError, DataLayout, LinearCode};
use gf256::Matrix;

/// Validated `(n, k, d, p)` parameters with the derived construction sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarouselParams {
    /// Total encoded blocks.
    pub n: usize,
    /// Original blocks (code dimension).
    pub k: usize,
    /// Helpers per repair (`d = k` or `d ≥ 2k−2`).
    pub d: usize,
    /// Data-parallelism degree (`k ≤ p ≤ n`).
    pub p: usize,
    /// Segments per block in the base code (`d − k + 1`).
    pub alpha: usize,
    /// Units per segment after expansion (`p / gcd(k, p)`).
    pub n0: usize,
    /// Chosen units per segment (`k / gcd(k, p)`).
    pub k0: usize,
}

impl CarouselParams {
    /// Validates raw parameters and derives `α`, `N₀`, `K₀`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] when the constraints in the
    /// paper are violated: `0 < k ≤ p ≤ n`, and either `d = k` or
    /// `2k − 2 ≤ d < n` (the gap `k < d < 2k − 2` has no base code).
    pub fn validate(n: usize, k: usize, d: usize, p: usize) -> Result<Self, CodeError> {
        if k == 0 || k > n {
            return Err(CodeError::InvalidParameters {
                reason: format!("require 0 < k <= n, got n = {n}, k = {k}"),
            });
        }
        if p < k || p > n {
            return Err(CodeError::InvalidParameters {
                reason: format!("data parallelism p = {p} must satisfy k = {k} <= p <= n = {n}"),
            });
        }
        let alpha = if d == k {
            1
        } else if d >= 2 * k - 2 && k >= 2 {
            if d >= n {
                return Err(CodeError::InvalidParameters {
                    reason: format!("require d = {d} < n = {n}"),
                });
            }
            d - k + 1
        } else {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "d = {d} unsupported for k = {k}: need d = k (RS base) or 2k-2 <= d < n (MSR base)"
                ),
            });
        };
        let g = gcd(k, p);
        Ok(CarouselParams {
            n,
            k,
            d,
            p,
            alpha,
            n0: p / g,
            k0: k / g,
        })
    }

    /// Units per block of the finished code.
    pub fn sub(&self) -> usize {
        self.alpha * self.n0
    }

    /// Data units per data-bearing block (`α · K₀`).
    pub fn data_units_per_block(&self) -> usize {
        self.alpha * self.k0
    }

    /// The unit indices (`t` values, `0..N₀`) chosen in block `i` — the
    /// round-robin "carousel" pattern of Step 2.
    pub fn chosen_ts(&self, i: usize) -> Vec<usize> {
        let i = i % self.n0;
        (0..self.n0)
            .filter(|&t| (t + self.n0 - i) % self.n0 < self.k0)
            .collect()
    }

    /// The within-block pre-reorder row indices chosen in block `i`, in
    /// file order (segment-major, then ascending unit).
    pub fn chosen_rows(&self, i: usize) -> Vec<usize> {
        let ts = self.chosen_ts(i);
        let mut rows = Vec::with_capacity(self.alpha * ts.len());
        for s in 0..self.alpha {
            for &t in &ts {
                rows.push(s * self.n0 + t);
            }
        }
        rows
    }
}

impl core::fmt::Display for CarouselParams {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Carousel({},{},{},{}) [alpha={}, N0={}, K0={}]",
            self.n, self.k, self.d, self.p, self.alpha, self.n0, self.k0
        )
    }
}

/// The output of the construction pipeline.
pub(crate) struct Built {
    pub code: LinearCode,
    pub layout: DataLayout,
    /// `perms[i][stored] = pre-reorder row` for every block.
    pub perms: Vec<Vec<usize>>,
}

/// Runs expansion → selection → remapping → reordering on a base generator
/// of shape `(n·α) × (k·α)`.
pub(crate) fn build(params: &CarouselParams, base_generator: &Matrix) -> Result<Built, CodeError> {
    let (n, k, p) = (params.n, params.k, params.p);
    let (alpha, n0) = (params.alpha, params.n0);
    let sub = params.sub();
    debug_assert_eq!(base_generator.rows(), n * alpha);
    debug_assert_eq!(base_generator.cols(), k * alpha);

    // Step 1: expansion — N₀ interleaved copies of the base code.
    let g_hat = base_generator.kron_identity(n0);

    // Step 2: selection — global indices of the chosen rows, in file order.
    let mut chosen_global = Vec::with_capacity(k * alpha * n0);
    let mut chosen_per_node = Vec::with_capacity(p);
    for i in 0..p {
        let rows = params.chosen_rows(i);
        chosen_global.extend(rows.iter().map(|&r| i * sub + r));
        chosen_per_node.push(rows);
    }
    debug_assert_eq!(chosen_global.len(), k * alpha * n0);

    // Step 3: symbol remapping — G · Ĝ₀⁻¹ turns chosen rows into raw data.
    // Per copy, Ĝ₀ stacks the base rows of `k` distinct blocks, so an MDS
    // base makes it invertible.
    let g0 = g_hat.select_rows(&chosen_global);
    let g0_inv = g0.inverse().expect("k blocks of an MDS base code decode");
    let g_new = &g_hat * &g0_inv;

    // Step 4: reordering — data units to the top of each block, file order.
    let mut perms: Vec<Vec<usize>> = chosen_per_node
        .iter()
        .map(|chosen| {
            let mut v = chosen.clone();
            v.extend((0..sub).filter(|r| !chosen.contains(r)));
            v
        })
        .collect();
    perms.resize_with(n, || (0..sub).collect());
    let global_perm: Vec<usize> = perms
        .iter()
        .enumerate()
        .flat_map(|(i, pm)| pm.iter().map(move |&r| i * sub + r))
        .collect();
    let generator = g_new.permute_rows(&global_perm);

    let dpb = params.data_units_per_block();
    let node_data: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if i < p {
                (i * dpb..(i + 1) * dpb).collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let layout = DataLayout::new(sub, k * alpha * n0, node_data);
    let code = LinearCode::new(n, k, sub, generator)?;
    Ok(Built {
        code,
        layout,
        perms,
    })
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_paper_parameters() {
        // (12, 6, 10, p) for p in {6, 8, 10, 12} — the Hadoop experiments.
        for p in [6, 8, 10, 12] {
            let params = CarouselParams::validate(12, 6, 10, p).unwrap();
            assert_eq!(params.alpha, 5);
            assert_eq!(params.n0, p / gcd(6, p));
        }
        // (3, 2, 2, 3) — the toy example of Fig. 2.
        let toy = CarouselParams::validate(3, 2, 2, 3).unwrap();
        assert_eq!((toy.alpha, toy.n0, toy.k0), (1, 3, 2));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(CarouselParams::validate(6, 0, 0, 6).is_err());
        assert!(CarouselParams::validate(6, 4, 4, 3).is_err()); // p < k
        assert!(CarouselParams::validate(6, 4, 4, 7).is_err()); // p > n
        assert!(CarouselParams::validate(8, 4, 5, 8).is_err()); // k < d < 2k-2
        assert!(CarouselParams::validate(6, 3, 6, 6).is_err()); // d >= n (MSR)
    }

    #[test]
    fn chosen_pattern_matches_paper_fig3() {
        // n = 3, k = 2, p = 3 (1-based blocks 1..3 in the paper).
        let params = CarouselParams::validate(3, 2, 2, 3).unwrap();
        assert_eq!(params.chosen_ts(0), vec![0, 1]); // block 1: units 1, 2
        assert_eq!(params.chosen_ts(1), vec![1, 2]); // block 2: units 2, 3
        assert_eq!(params.chosen_ts(2), vec![0, 2]); // block 3: units 3, 1
    }

    #[test]
    fn every_row_chosen_in_exactly_k_blocks() {
        for (n, k, p) in [(3, 2, 3), (12, 6, 8), (12, 6, 10), (12, 6, 12), (10, 4, 10)] {
            let params = CarouselParams::validate(n, k, k, p).unwrap();
            for t in 0..params.n0 {
                let count = (0..p).filter(|&i| params.chosen_ts(i).contains(&t)).count();
                assert_eq!(count, k, "(n={n},k={k},p={p}) row {t}");
            }
        }
    }

    #[test]
    fn p_equals_k_is_trivial_expansion() {
        let params = CarouselParams::validate(6, 4, 4, 4).unwrap();
        assert_eq!((params.n0, params.k0), (1, 1));
        assert_eq!(params.chosen_ts(2), vec![0]);
        assert_eq!(params.sub(), 1);
    }

    #[test]
    fn chosen_rows_cover_all_segments() {
        let params = CarouselParams::validate(12, 6, 10, 12).unwrap();
        // alpha = 5, n0 = 2, k0 = 1: each block chooses 1 of 2 units per
        // segment, 5 data units total.
        let rows = params.chosen_rows(3);
        assert_eq!(rows.len(), params.data_units_per_block());
        assert_eq!(rows.len(), 5);
        // One row in each segment.
        for s in 0..5 {
            assert_eq!(rows.iter().filter(|&&r| r / params.n0 == s).count(), 1);
        }
    }

    #[test]
    fn params_display() {
        let p = CarouselParams::validate(12, 6, 10, 8).unwrap();
        assert_eq!(p.to_string(), "Carousel(12,6,10,8) [alpha=5, N0=4, K0=3]");
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(6, 12), 6);
    }
}
