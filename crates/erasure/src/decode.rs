//! Decoding: recover the original message from any sufficient set of units.
//!
//! This implements equation (1) of the paper: stack the generator rows of
//! the available units, invert, and multiply. A [`DecodePlan`] caches the
//! inverse so that decoding many stripes (or many byte columns) pays the
//! Gauss-Jordan cost once.

use std::sync::LazyLock;

use gf256::Matrix;

use crate::error::CodeError;
use crate::linear::LinearCode;
use crate::{check_indices, stack_node_rows};

static DECODE_OPS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("erasure.decode.ops"));
static DECODE_BYTES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("erasure.decode.bytes"));

/// A precomputed decoding: `message = inverse · selected units`.
///
/// Build one with [`DecodePlan::for_nodes`] (whole blocks, the common case)
/// or [`DecodePlan::for_units`] (arbitrary unit selection, used by the
/// Carousel parallel reader when mixing data units and parity units).
#[derive(Debug, Clone)]
pub struct DecodePlan {
    /// `(node, unit)` sources in the order the inverse expects them.
    sources: Vec<(usize, usize)>,
    /// The node order [`DecodePlan::decode`] expects blocks in (empty for
    /// unit-level plans).
    nodes: Vec<usize>,
    /// `b × b` matrix mapping selected units to message units.
    inverse: Matrix,
    sub: usize,
    message_units: usize,
}

impl DecodePlan {
    /// Plans a decode from `k` (or more) full blocks.
    ///
    /// Exactly `k` blocks are required for an exact-size system; supplying
    /// more is an error here — use [`DecodePlan::for_units`] to cherry-pick
    /// units from a wider set.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InsufficientData`] if fewer than `k` blocks are given
    ///   (or more, which over-determines the square system);
    /// * [`CodeError::SingularSelection`] if the blocks cannot decode (never
    ///   for an MDS code with distinct blocks);
    /// * index errors for duplicate/out-of-range nodes.
    pub fn for_nodes(code: &LinearCode, nodes: &[usize]) -> Result<Self, CodeError> {
        check_indices(code.n(), nodes)?;
        if nodes.len() != code.k() {
            return Err(CodeError::InsufficientData {
                needed: code.k(),
                got: nodes.len(),
            });
        }
        let stacked = stack_node_rows(code, nodes);
        let b = code.message_units();
        // MDS-shaped codes give a square system; MBR-shaped codes are
        // over-determined, so select a spanning row subset first.
        let (rows, system) = if stacked.rows() == b {
            ((0..stacked.rows()).collect::<Vec<_>>(), stacked)
        } else {
            let rows = stacked
                .independent_rows(b)
                .ok_or(CodeError::SingularSelection)?;
            let sel = stacked.select_rows(&rows);
            (rows, sel)
        };
        let inverse = system.inverse().ok_or(CodeError::SingularSelection)?;
        let sub = code.sub();
        let sources = rows.iter().map(|&r| (nodes[r / sub], r % sub)).collect();
        Ok(DecodePlan {
            sources,
            nodes: nodes.to_vec(),
            inverse,
            sub,
            message_units: b,
        })
    }

    /// Plans a decode from an explicit set of `b` units.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InsufficientData`] unless exactly `b` units are given;
    /// * [`CodeError::NodeOutOfRange`] / [`CodeError::DuplicateNode`] for bad
    ///   unit references;
    /// * [`CodeError::SingularSelection`] if the chosen units do not span the
    ///   message space.
    pub fn for_units(code: &LinearCode, units: &[(usize, usize)]) -> Result<Self, CodeError> {
        let b = code.message_units();
        if units.len() != b {
            return Err(CodeError::InsufficientData {
                needed: b,
                got: units.len(),
            });
        }
        let mut rows = Vec::with_capacity(b);
        for (i, &(node, unit)) in units.iter().enumerate() {
            if node >= code.n() || unit >= code.sub() {
                return Err(CodeError::NodeOutOfRange { node, n: code.n() });
            }
            if units[i + 1..].contains(&(node, unit)) {
                return Err(CodeError::DuplicateNode { node });
            }
            rows.push(node * code.sub() + unit);
        }
        let stacked = code.generator().select_rows(&rows);
        let inverse = stacked.inverse().ok_or(CodeError::SingularSelection)?;
        Ok(DecodePlan {
            sources: units.to_vec(),
            nodes: Vec::new(),
            inverse,
            sub: code.sub(),
            message_units: b,
        })
    }

    /// The `(node, unit)` sources this plan consumes, in order.
    pub fn sources(&self) -> &[(usize, usize)] {
        &self.sources
    }

    /// Units per block of the code this plan was built for.
    pub fn sub(&self) -> usize {
        self.sub
    }

    /// The coefficients over [`DecodePlan::sources`] that produce message
    /// unit `unit`.
    pub(crate) fn message_row(&self, unit: usize) -> &[gf256::Gf256] {
        self.inverse.row(unit)
    }

    /// Decodes from full blocks laid out in the same node order the plan was
    /// built with (only valid for plans from [`DecodePlan::for_nodes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BlockSizeMismatch`] if block lengths disagree or
    /// are not a multiple of `sub`.
    pub fn decode(&self, blocks: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        if blocks.len() != self.nodes.len() {
            return Err(CodeError::InsufficientData {
                needed: self.nodes.len(),
                got: blocks.len(),
            });
        }
        let mut by_node = vec![None; self.nodes.iter().max().map_or(0, |&m| m + 1)];
        for (&node, &block) in self.nodes.iter().zip(blocks) {
            by_node[node] = Some(block);
        }
        self.decode_units(&gather_units(&self.sources, self.sub, &by_node)?)
    }

    /// Decodes from individual unit slices, one per planned source, each of
    /// the same width.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] on a count mismatch and
    /// [`CodeError::BlockSizeMismatch`] on ragged widths.
    pub fn decode_units(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        if units.len() != self.sources.len() {
            return Err(CodeError::InsufficientData {
                needed: self.sources.len(),
                got: units.len(),
            });
        }
        let w = units[0].len();
        for u in units {
            if u.len() != w {
                return Err(CodeError::BlockSizeMismatch {
                    expected: w,
                    actual: u.len(),
                });
            }
        }
        Ok(self.combine(units, w))
    }

    fn combine(&self, unit_slices: &[&[u8]], w: usize) -> Vec<u8> {
        DECODE_OPS.inc();
        DECODE_BYTES.add((self.message_units * w) as u64);
        let _timer = telemetry::span("erasure.decode.ns");
        let kernel = gf256::kernel();
        let mut out = vec![0u8; self.message_units * w];
        let mut terms = Vec::with_capacity(unit_slices.len());
        for (r, chunk) in out.chunks_exact_mut(w).enumerate() {
            let row = self.inverse.row(r);
            terms.clear();
            terms.extend(row.iter().zip(unit_slices).map(|(&c, &src)| (c, src)));
            kernel.mul_acc_rows(&terms, chunk);
        }
        out
    }
}

/// Slices the planned `(node, unit)` sources out of whole per-node blocks
/// of `sub` units each.
pub(crate) fn gather_units<'a>(
    sources: &[(usize, usize)],
    sub: usize,
    blocks: &[Option<&'a [u8]>],
) -> Result<Vec<&'a [u8]>, CodeError> {
    let mut units = Vec::with_capacity(sources.len());
    for &(node, unit) in sources {
        let block = blocks
            .get(node)
            .copied()
            .flatten()
            .ok_or(CodeError::InsufficientData {
                needed: sources.len(),
                got: units.len(),
            })?;
        if !block.len().is_multiple_of(sub) {
            return Err(CodeError::BlockSizeMismatch {
                expected: block.len().next_multiple_of(sub),
                actual: block.len(),
            });
        }
        let w = block.len() / sub;
        units.push(&block[unit * w..(unit + 1) * w]);
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf256::builders::systematize;

    // A (6,3) code with sub = 2 built by treating a (12,6) MDS generator as
    // 6 nodes of 2 rows. Any 3 nodes stack 6 of the 12 Vandermonde-derived
    // rows, which are invertible.
    fn code2() -> LinearCode {
        let g = systematize(&Matrix::vandermonde(12, 6));
        LinearCode::new(6, 3, 2, g).unwrap()
    }

    #[test]
    fn for_nodes_rejects_wrong_count() {
        let code = code2();
        assert!(matches!(
            DecodePlan::for_nodes(&code, &[0, 1]),
            Err(CodeError::InsufficientData { .. })
        ));
        assert!(matches!(
            DecodePlan::for_nodes(&code, &[0, 1, 2, 3]),
            Err(CodeError::InsufficientData { .. })
        ));
    }

    #[test]
    fn decode_via_units_matches_decode_via_blocks() {
        let code = code2();
        let data: Vec<u8> = (0..60).map(|i| (i * 11 + 7) as u8).collect();
        let stripe = code.encode(&data).unwrap();
        let nodes = [1usize, 3, 5];
        let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
        let by_blocks = code.decode_nodes(&nodes, &blocks).unwrap();

        let units: Vec<(usize, usize)> = nodes.iter().flat_map(|&nd| [(nd, 0), (nd, 1)]).collect();
        let plan = DecodePlan::for_units(&code, &units).unwrap();
        let w = stripe.unit_bytes;
        let unit_slices: Vec<&[u8]> = plan
            .sources()
            .iter()
            .map(|&(nd, u)| &stripe.blocks[nd][u * w..(u + 1) * w])
            .collect();
        let by_units = plan.decode_units(&unit_slices).unwrap();
        assert_eq!(by_blocks, by_units);
        assert_eq!(&by_blocks[..data.len()], &data[..]);
    }

    #[test]
    fn mixed_unit_selection_decodes() {
        // Take unit 0 from four different nodes and unit 1 from two others.
        let code = code2();
        let data: Vec<u8> = (0..36).map(|i| (i * 5 + 1) as u8).collect();
        let stripe = code.encode(&data).unwrap();
        let units = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 1), (5, 1)];
        let plan = DecodePlan::for_units(&code, &units).unwrap();
        let w = stripe.unit_bytes;
        let slices: Vec<&[u8]> = units
            .iter()
            .map(|&(nd, u)| &stripe.blocks[nd][u * w..(u + 1) * w])
            .collect();
        let out = plan.decode_units(&slices).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn for_units_rejects_duplicates_and_range() {
        let code = code2();
        let dup = [(0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (2, 1)];
        assert!(matches!(
            DecodePlan::for_units(&code, &dup),
            Err(CodeError::DuplicateNode { .. })
        ));
        let oob = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (9, 0)];
        assert!(matches!(
            DecodePlan::for_units(&code, &oob),
            Err(CodeError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn ragged_unit_widths_rejected() {
        let code = code2();
        let units = [(0usize, 0usize), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)];
        let plan = DecodePlan::for_units(&code, &units).unwrap();
        let a = vec![0u8; 4];
        let b = vec![0u8; 5];
        let slices: Vec<&[u8]> = vec![&a, &a, &a, &a, &a, &b];
        assert!(matches!(
            plan.decode_units(&slices),
            Err(CodeError::BlockSizeMismatch { .. })
        ));
    }
}
