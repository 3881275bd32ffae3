//! Executable repair plans.
//!
//! A [`RepairPlan`] captures the reconstruction protocol of paper §IV/§VI:
//! every helper multiplies its block by a small matrix (producing `β` units
//! — one `1/α` fraction of a block for MSR-family codes, the whole block for
//! RS), ships the result to the newcomer, and the newcomer linearly combines
//! the received units into the lost block. Because the plan is *executed*,
//! repair network traffic is measured by counting the bytes that actually
//! cross the helper→newcomer boundary, not asserted from a formula.

use std::sync::LazyLock;

use gf256::Matrix;

use crate::error::CodeError;
use crate::linear::LinearCode;
use crate::stack_node_rows;

static REPAIRS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("erasure.repair.ops"));
static REPAIR_TRAFFIC: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("erasure.repair.traffic_bytes"));

/// One helper's part of a repair: read the local block, compress it to `β`
/// units with `coeffs`, send the result.
#[derive(Debug, Clone)]
pub struct HelperTask {
    /// Which block this helper holds.
    pub node: usize,
    /// `β × sub` compression matrix applied to the local block.
    pub coeffs: Matrix,
}

impl HelperTask {
    /// Units this helper sends.
    pub fn beta(&self) -> usize {
        self.coeffs.rows()
    }

    /// Executes the helper-side computation on a local block of `sub·w`
    /// bytes, returning the `β·w`-byte payload to send.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BlockSizeMismatch`] if the block length is not a
    /// multiple of `sub`.
    pub fn run(&self, block: &[u8]) -> Result<Vec<u8>, CodeError> {
        let sub = self.coeffs.cols();
        if !block.len().is_multiple_of(sub) {
            return Err(CodeError::BlockSizeMismatch {
                expected: block.len().next_multiple_of(sub),
                actual: block.len(),
            });
        }
        let w = block.len() / sub;
        let kernel = gf256::kernel();
        let mut out = vec![0u8; self.beta() * w];
        let mut terms = Vec::with_capacity(sub);
        for (r, chunk) in out.chunks_exact_mut(w).enumerate() {
            terms.clear();
            terms.extend(
                self.coeffs
                    .row(r)
                    .iter()
                    .enumerate()
                    .map(|(u, &c)| (c, &block[u * w..(u + 1) * w])),
            );
            kernel.mul_acc_rows(&terms, chunk);
        }
        Ok(out)
    }
}

/// A full repair plan for one failed block.
///
/// # Examples
///
/// ```
/// use erasure::ErasureCode;
/// use rs_code::ReedSolomon;
///
/// let code = ReedSolomon::new(5, 3)?;
/// let stripe = code.linear().encode(b"some striped data")?;
/// let plan = code.repair_plan(0, &[1, 2, 4])?;
/// let blocks: Vec<&[u8]> = [1, 2, 4].iter().map(|&i| &stripe.blocks[i][..]).collect();
/// let (rebuilt, traffic) = plan.run(&blocks)?;
/// assert_eq!(rebuilt, stripe.blocks[0]);
/// assert_eq!(traffic, 3 * stripe.block_bytes()); // RS repair moves k blocks
/// # Ok::<(), erasure::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RepairPlan {
    /// Index of the block being reconstructed.
    pub failed: usize,
    /// Helper tasks, in the order their payloads must be concatenated.
    pub helpers: Vec<HelperTask>,
    /// `sub × (Σ β_i)` matrix combining the received units into the lost
    /// block.
    pub combine: Matrix,
}

impl RepairPlan {
    /// Repair-by-decode (paper eq. (2)): the `k` helpers ship their whole
    /// blocks, and since their stacked generator rows `S` give
    /// `F = S⁻¹ · (helper units)`, the newcomer combines with
    /// `g_failed · S⁻¹`. Callers validate the helper set.
    ///
    /// # Errors
    ///
    /// [`CodeError::SingularSelection`] if the helpers cannot decode (never
    /// for an MDS code with `k` distinct helpers).
    pub fn by_decode(
        code: &LinearCode,
        failed: usize,
        helpers: &[usize],
    ) -> Result<Self, CodeError> {
        let stacked_inv = stack_node_rows(code, helpers)
            .inverse()
            .ok_or(CodeError::SingularSelection)?;
        Ok(RepairPlan {
            failed,
            helpers: helpers
                .iter()
                .map(|&node| HelperTask {
                    node,
                    coeffs: Matrix::identity(code.sub()),
                })
                .collect(),
            combine: &code.node_generator(failed) * &stacked_inv,
        })
    }

    /// Number of helpers (`d`).
    pub fn d(&self) -> usize {
        self.helpers.len()
    }

    /// Total units transferred over the network.
    pub fn traffic_units(&self) -> usize {
        self.helpers.iter().map(HelperTask::beta).sum()
    }

    /// Units per block (`sub`): the rebuilt block has one unit per row of
    /// `combine`.
    pub fn sub(&self) -> usize {
        self.combine.rows()
    }

    /// Network traffic in multiples of one block size (`sub` units), the
    /// quantity plotted in the paper's Fig. 7. Optimal MSR repair gives
    /// `d / (d − k + 1)`; RS repair-by-decode gives `k`.
    pub fn traffic_blocks(&self) -> f64 {
        self.traffic_units() as f64 / self.sub() as f64
    }

    /// Bytes transferred when blocks are `block_bytes` long.
    pub fn traffic_bytes(&self, block_bytes: usize) -> usize {
        debug_assert_eq!(block_bytes % self.sub(), 0);
        self.traffic_units() * (block_bytes / self.sub())
    }

    /// Newcomer-side computation: combines helper payloads (in helper order)
    /// into the reconstructed block of `sub·w` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] on a payload-count mismatch
    /// and [`CodeError::BlockSizeMismatch`] on inconsistent widths.
    pub fn combine_payloads(&self, payloads: &[Vec<u8>]) -> Result<Vec<u8>, CodeError> {
        if payloads.len() != self.helpers.len() {
            return Err(CodeError::InsufficientData {
                needed: self.helpers.len(),
                got: payloads.len(),
            });
        }
        // Infer w from the first helper.
        let beta0 = self.helpers[0].beta();
        if beta0 == 0 || !payloads[0].len().is_multiple_of(beta0) {
            return Err(CodeError::BlockSizeMismatch {
                expected: beta0,
                actual: payloads[0].len(),
            });
        }
        let w = payloads[0].len() / beta0;
        let mut unit_slices = Vec::with_capacity(self.combine.cols());
        for (task, payload) in self.helpers.iter().zip(payloads) {
            if payload.len() != task.beta() * w {
                return Err(CodeError::BlockSizeMismatch {
                    expected: task.beta() * w,
                    actual: payload.len(),
                });
            }
            for u in 0..task.beta() {
                unit_slices.push(&payload[u * w..(u + 1) * w]);
            }
        }
        debug_assert_eq!(unit_slices.len(), self.combine.cols());
        let sub = self.sub();
        let kernel = gf256::kernel();
        let mut out = vec![0u8; sub * w];
        let mut terms = Vec::with_capacity(unit_slices.len());
        for (r, chunk) in out.chunks_exact_mut(w).enumerate() {
            terms.clear();
            terms.extend(
                self.combine
                    .row(r)
                    .iter()
                    .zip(&unit_slices)
                    .map(|(&c, &src)| (c, src)),
            );
            kernel.mul_acc_rows(&terms, chunk);
        }
        Ok(out)
    }

    /// End-to-end repair: runs every helper task against its block and
    /// combines. `helper_blocks[i]` must belong to `helpers[i].node`.
    ///
    /// Returns the reconstructed block and the number of bytes that crossed
    /// the network (helper payload bytes).
    ///
    /// # Errors
    ///
    /// Propagates helper and combine failures.
    pub fn run(&self, helper_blocks: &[&[u8]]) -> Result<(Vec<u8>, usize), CodeError> {
        if helper_blocks.len() != self.helpers.len() {
            return Err(CodeError::InsufficientData {
                needed: self.helpers.len(),
                got: helper_blocks.len(),
            });
        }
        let _timer = telemetry::span("erasure.repair.ns");
        let payloads: Vec<Vec<u8>> = self
            .helpers
            .iter()
            .zip(helper_blocks)
            .map(|(task, block)| task.run(block))
            .collect::<Result<_, _>>()?;
        let traffic = payloads.iter().map(Vec::len).sum();
        let block = self.combine_payloads(&payloads)?;
        REPAIRS.inc();
        REPAIR_TRAFFIC.add(traffic as u64);
        Ok((block, traffic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf256::Gf256;

    // A trivial "repair" for a 2-unit replication-like scheme to exercise the
    // plumbing: two helpers each send their whole 1-unit block; the newcomer
    // XORs them.
    fn xor_plan() -> RepairPlan {
        RepairPlan {
            failed: 2,
            helpers: vec![
                HelperTask {
                    node: 0,
                    coeffs: Matrix::identity(1),
                },
                HelperTask {
                    node: 1,
                    coeffs: Matrix::identity(1),
                },
            ],
            combine: Matrix::from_fn(1, 2, |_, _| Gf256::ONE),
        }
    }

    #[test]
    fn xor_repair_works() {
        let plan = xor_plan();
        let a = vec![0b1010u8; 8];
        let b = vec![0b0110u8; 8];
        let (out, traffic) = plan.run(&[&a, &b]).unwrap();
        assert_eq!(out, vec![0b1100u8; 8]);
        assert_eq!(traffic, 16);
        assert_eq!(plan.traffic_units(), 2);
        assert!((plan.traffic_blocks() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn helper_compression_reduces_payload() {
        // Helper holds 4 units, sends 1: beta/sub = 1/4 of the block.
        let task = HelperTask {
            node: 0,
            coeffs: Matrix::from_fn(1, 4, |_, c| Gf256::new([1, 2, 3, 4][c])),
        };
        let w = 16;
        let block: Vec<u8> = (0..4 * w).map(|i| (i * 7) as u8).collect();
        let payload = task.run(&block).unwrap();
        assert_eq!(payload.len(), w);
        // Check one byte by hand.
        let col = 3;
        let expect = (0..4).fold(Gf256::ZERO, |acc, u| {
            acc + Gf256::new([1u8, 2, 3, 4][u]) * Gf256::new(block[u * w + col])
        });
        assert_eq!(payload[col], expect.value());
    }

    #[test]
    fn wrong_payload_count_rejected() {
        let plan = xor_plan();
        let a = vec![0u8; 4];
        assert!(matches!(
            plan.run(&[&a]),
            Err(CodeError::InsufficientData { .. })
        ));
    }

    #[test]
    fn ragged_payloads_rejected() {
        let plan = xor_plan();
        let payloads = vec![vec![0u8; 4], vec![0u8; 8]];
        assert!(matches!(
            plan.combine_payloads(&payloads),
            Err(CodeError::BlockSizeMismatch { .. })
        ));
    }

    #[test]
    fn traffic_bytes_scales_with_block_size() {
        let plan = xor_plan();
        assert_eq!(plan.traffic_bytes(512), 1024);
    }
}
