//! Degraded single-block reads: reconstruct one block's *data region*
//! (its contiguous file chunk) without rebuilding the whole block or
//! decoding the whole file.
//!
//! This is what a map task scheduled over a dead block needs (the paper's
//! §III discusses degraded reads at length): block `i`'s data units live in
//! the `K₀` carousel copies chosen for block `i`, and because the remapped
//! generator is block-diagonal across the `N₀` copies, each affected copy
//! is decoded on its own from `k` live blocks, picked by the same rule as
//! whole-stripe reads (`Carousel::copy_sources`: the copy's carriers
//! first). Total traffic: `k · αK₀` units `= k·(k/p)` block-sizes —
//! proportionally cheaper than RS's `k` full blocks when `p > k`.

use std::sync::LazyLock;

use erasure::{check_indices, CodeError, DegradedPlan, ErasureCode as _, RegionSolve};

use crate::Carousel;

static BLOCK_READS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.block_degraded"));
static DEGRADED_TRAFFIC: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("carousel.degraded.traffic_units"));

/// Builds a [`DegradedPlan`] for `target`'s data region using only the
/// `available` blocks (`target` itself is ignored if listed): one solve per
/// affected carousel copy.
///
/// # Errors
///
/// * [`CodeError::InvalidParameters`] if `target` carries no data
///   (`target ≥ p`);
/// * [`CodeError::InsufficientData`] if fewer than `k` blocks are
///   available;
/// * index errors for malformed availability lists.
pub(crate) fn plan_block_read(
    code: &Carousel,
    target: usize,
    available: &[usize],
) -> Result<DegradedPlan, CodeError> {
    let params = code.params();
    let (k, p) = (params.k, params.p);
    if target >= p {
        return Err(CodeError::InvalidParameters {
            reason: format!("block {target} carries no original data (p = {p})"),
        });
    }
    check_indices(params.n, available)?;
    let sources_pool: Vec<usize> = available.iter().copied().filter(|&a| a != target).collect();
    if sources_pool.len() < k {
        return Err(CodeError::InsufficientData {
            needed: k,
            got: sources_pool.len(),
        });
    }
    let (alpha, k0) = (params.alpha, params.k0);
    let sub = params.sub();
    let generator = code.linear().generator();

    // The target's data region holds file units in order; unit index u of
    // the region corresponds to message unit target*alpha*k0 + u, which
    // lives in copy t = chosen_ts(target)[u % k0] (segment-major order).
    let ts = params.chosen_ts(target);
    let region_base = target * alpha * k0;

    let mut copies = Vec::with_capacity(ts.len());
    for (ti, &t) in ts.iter().enumerate() {
        // Sources: copy-t units (all alpha segments) of k available blocks,
        // at their *stored* positions — the final generator's row order.
        let sources = code.copy_sources(t, &sources_pool);
        let rows: Vec<usize> = sources.iter().map(|&(node, u)| node * sub + u).collect();
        // The copy-t message columns of the remapped code are the message
        // units whose defining chosen row lives in copy t: for each block
        // i < p, region position u belongs to copy chosen_ts(i)[u % K₀].
        let mut cols = Vec::with_capacity(k * alpha);
        for i in 0..p {
            let ts_i = params.chosen_ts(i);
            for u in 0..alpha * k0 {
                if ts_i[u % k0] == t {
                    cols.push(i * alpha * k0 + u);
                }
            }
        }
        debug_assert_eq!(cols.len(), k * alpha, "copy {t} column count");
        let inverse = generator
            .select(&rows, &cols)
            .inverse()
            .expect("k blocks of an MDS base code decode");
        // Outputs: the target's region units in copy t are u ≡ ti (mod K₀).
        let mut outputs = Vec::with_capacity(alpha);
        for u in (ti..alpha * k0).step_by(k0) {
            let msg_unit = region_base + u;
            let col_idx = cols
                .iter()
                .position(|&c| c == msg_unit)
                .expect("message unit belongs to copy t");
            outputs.push((u, inverse.row(col_idx).to_vec()));
        }
        copies.push(RegionSolve { sources, outputs });
    }
    let plan = DegradedPlan::new(target, sub, alpha * k0, copies);
    BLOCK_READS.inc();
    DEGRADED_TRAFFIC.record(plan.traffic_units() as u64);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::ErasureCode;

    fn check(n: usize, k: usize, d: usize, p: usize) {
        let code = Carousel::new(n, k, d, p).unwrap();
        let b = code.linear().message_units();
        let file: Vec<u8> = (0..b * 16).map(|i| (i * 37 + 11) as u8).collect();
        let stripe = code.linear().encode(&file).unwrap();
        let layout = code.data_layout();
        let w = stripe.unit_bytes;
        for target in 0..p {
            let available: Vec<usize> = (0..n).filter(|&i| i != target).collect();
            let plan = code.plan_block_read(target, &available).unwrap();
            let blocks: Vec<Option<&[u8]>> = (0..n)
                .map(|i| (i != target).then(|| &stripe.blocks[i][..]))
                .collect();
            let region = plan.execute(&blocks).unwrap();
            let expect = &stripe.blocks[target][layout.data_byte_range(target, w)];
            assert_eq!(region, expect, "({n},{k},{d},{p}) target {target}");
            // Traffic is k * (k/p) blocks.
            let expect_traffic = k as f64 * k as f64 / p as f64;
            assert!(
                (plan.traffic_blocks() - expect_traffic).abs() < 1e-9,
                "({n},{k},{d},{p}): {} vs {}",
                plan.traffic_blocks(),
                expect_traffic
            );
        }
    }

    #[test]
    fn rebuilds_data_regions_rs_base() {
        check(3, 2, 2, 3);
        check(6, 4, 4, 6);
        check(10, 4, 4, 8);
    }

    #[test]
    fn rebuilds_data_regions_msr_base() {
        check(12, 6, 10, 10);
        check(12, 6, 10, 12);
        check(8, 4, 7, 8);
    }

    #[test]
    fn cheaper_than_whole_file_decode() {
        let code = Carousel::new(12, 6, 10, 12).unwrap();
        let available: Vec<usize> = (1..12).collect();
        let plan = code.plan_block_read(0, &available).unwrap();
        // 6 * 6/12 = 3 blocks, versus 6 blocks for a full decode.
        assert!((plan.traffic_blocks() - 3.0).abs() < 1e-9);
        assert_eq!(plan.target(), 0);
        assert_eq!(plan.units_per_node().len(), 6);
    }

    #[test]
    fn rejects_parity_only_targets_and_thin_availability() {
        let code = Carousel::new(12, 6, 10, 10).unwrap();
        assert!(matches!(
            code.plan_block_read(11, &(0..11).collect::<Vec<_>>()),
            Err(CodeError::InvalidParameters { .. })
        ));
        assert!(matches!(
            code.plan_block_read(0, &[1, 2, 3]),
            Err(CodeError::InsufficientData { .. })
        ));
        assert!(matches!(
            code.plan_block_read(0, &[1, 1, 2, 3, 4, 5]),
            Err(CodeError::DuplicateNode { .. })
        ));
    }

    #[test]
    fn unit_and_block_execution_agree() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let file: Vec<u8> = (0..code.linear().message_units() * 8)
            .map(|i| (i * 13 + 3) as u8)
            .collect();
        let stripe = code.linear().encode(&file).unwrap();
        let w = stripe.unit_bytes;
        let available: Vec<usize> = (1..6).collect();
        let plan = code.plan_block_read(0, &available).unwrap();
        let blocks: Vec<Option<&[u8]>> = (0..6)
            .map(|i| (i != 0).then(|| &stripe.blocks[i][..]))
            .collect();
        let by_blocks = plan.execute(&blocks).unwrap();
        let units: Vec<&[u8]> = plan
            .sources()
            .iter()
            .map(|&(nd, u)| &stripe.blocks[nd][u * w..(u + 1) * w])
            .collect();
        let by_units = plan.decode_units(&units).unwrap();
        assert_eq!(by_blocks, by_units);
        // Count and width mismatches are rejected.
        assert!(plan.decode_units(&units[1..]).is_err());
        let mut ragged = units.clone();
        ragged[0] = &units[0][..w - 1];
        assert!(plan.decode_units(&ragged).is_err());
    }

    #[test]
    fn missing_sources_are_detected() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let file: Vec<u8> = (0..code.linear().message_units() * 4)
            .map(|i| i as u8)
            .collect();
        let stripe = code.linear().encode(&file).unwrap();
        let plan = code
            .plan_block_read(0, &(1..6).collect::<Vec<_>>())
            .unwrap();
        let mut blocks: Vec<Option<&[u8]>> = stripe.blocks.iter().map(|b| Some(&b[..])).collect();
        // Remove one of the planned sources.
        let (victim, _) = plan.units_per_node()[0];
        blocks[victim] = None;
        assert!(plan.execute(&blocks).is_err());
    }

    /// A listed target is ignored, and the region comes back in the unit
    /// order the block itself stores.
    #[test]
    fn listed_target_is_ignored() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 4).map(|i| (i * 3 + 7) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        let w = stripe.unit_bytes;
        let layout = code.data_layout();
        let plan = code
            .plan_block_read(2, &(0..6).collect::<Vec<_>>())
            .unwrap();
        assert!(plan.sources().iter().all(|&(nd, _)| nd != 2));
        let units: Vec<&[u8]> = plan
            .sources()
            .iter()
            .map(|&(nd, u)| &stripe.blocks[nd][u * w..(u + 1) * w])
            .collect();
        let region = plan.decode_units(&units).unwrap();
        assert_eq!(region, stripe.blocks[2][layout.data_byte_range(2, w)]);
    }
}
