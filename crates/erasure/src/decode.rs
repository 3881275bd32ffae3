//! Decoding: recover the original message from any sufficient set of units.
//!
//! This implements equation (1) of the paper: stack the generator rows of
//! the available units, invert, and multiply. A [`DecodePlan`] caches the
//! inverse so that decoding many stripes (or many byte columns) pays the
//! Gauss-Jordan cost once.
//!
//! It also decides, once, which rows of the inverse are plain copies: a
//! unit vector with coefficient 1 means the message unit *is* one of the
//! fetched units. A systematic read (the paper's "without decoding", and
//! every row of a healthy Carousel read after §V's remapping) is all such
//! rows, so [`DecodePlan::decode_into`] moves each of its bytes with one
//! `copy_from_slice` and runs GF(2⁸) arithmetic only for the rows that
//! need it — a degraded plan copies its surviving data units and combines
//! only its lost ones.

use std::sync::LazyLock;

use gf256::{Gf256, Matrix};

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
    /// Per message unit, the source it is a plain copy of: `Some(i)` when
    /// row `r` of `inverse` is the unit vector `e_i` (coefficient 1).
    copies: Vec<Option<usize>>,
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
            copies: copy_sources(&inverse),
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
            copies: copy_sources(&inverse),
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

    /// Per message unit, the index into [`DecodePlan::sources`] it is a
    /// plain copy of (its inverse row is a unit vector with coefficient
    /// 1), or `None` when it is a combination. A healthy systematic read
    /// is `Some` throughout; a plan that sources a parity unit has at
    /// least one `None`.
    pub fn copy_sources(&self) -> &[Option<usize>] {
        &self.copies
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
    /// the same width: the whole stripe, through
    /// [`DecodePlan::decode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] on a count mismatch and
    /// [`CodeError::BlockSizeMismatch`] on ragged widths.
    pub fn decode_units(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        let stripe = self.message_units * self.unit_width(units)?;
        let mut out = Vec::with_capacity(stripe);
        self.decode_into(units, 0, stripe, &mut out)?;
        Ok(out)
    }

    /// Appends bytes `[within, within + take)` of the decoded stripe to
    /// `out` — the one decode routine. `units[i]` is
    /// [`sources`](DecodePlan::sources)`()[i]`, all of one width `w`, and
    /// message unit `r` is stripe bytes `[r·w, (r+1)·w)`.
    ///
    /// A copy row ([`DecodePlan::copy_sources`]) is one `extend_from_slice`
    /// of its overlap with the window. Any other row is combined with
    /// `mul_acc_rows` into a zeroed stretch of `out`, over the sources'
    /// sub-slices at the same offsets — GF(2⁸) arithmetic is bytewise, so
    /// a window of the combination is the combination of the windows.
    ///
    /// # Errors
    ///
    /// [`CodeError::InsufficientData`] on a count mismatch,
    /// [`CodeError::BlockSizeMismatch`] on ragged widths, and
    /// [`CodeError::InvalidParameters`] for a window past the stripe's end.
    pub fn decode_into(
        &self,
        units: &[&[u8]],
        within: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        let w = self.unit_width(units)?;
        let end = within
            .checked_add(take)
            .filter(|&end| end <= self.message_units * w)
            .ok_or_else(|| CodeError::InvalidParameters {
                reason: format!(
                    "window {within}+{take} past a {}-byte stripe",
                    self.message_units * w
                ),
            })?;
        DECODE_OPS.inc();
        DECODE_BYTES.add(take as u64);
        if take == 0 {
            return Ok(());
        }
        let _timer = telemetry::span("erasure.decode.ns");
        let kernel = gf256::kernel();
        out.reserve(take);
        let mut terms = Vec::new();
        for r in within / w..end.div_ceil(w) {
            let unit = r * w;
            let (a, b) = (within.max(unit) - unit, end.min(unit + w) - unit);
            match self.copies[r] {
                Some(i) => out.extend_from_slice(&units[i][a..b]),
                None => {
                    let at = out.len();
                    out.resize(at + (b - a), 0);
                    terms.clear();
                    terms.extend(
                        self.inverse
                            .row(r)
                            .iter()
                            .zip(units)
                            .map(|(&c, src)| (c, &src[a..b])),
                    );
                    kernel.mul_acc_rows(&terms, &mut out[at..]);
                }
            }
        }
        Ok(())
    }

    /// The zero-then-combine decode [`DecodePlan::decode_into`] replaced: a
    /// zeroed stripe, then one `mul_acc_rows` per message unit over every
    /// source, copy rows included. Kept only as the oracle the decode
    /// tests hold `decode_into` to; nothing on a read path calls it.
    ///
    /// # Errors
    ///
    /// As for [`DecodePlan::decode_units`].
    #[doc(hidden)]
    pub fn combine_oracle(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        let w = self.unit_width(units)?;
        let kernel = gf256::kernel();
        let mut out = vec![0u8; self.message_units * w];
        for (r, chunk) in out.chunks_exact_mut(w.max(1)).enumerate() {
            let terms: Vec<(Gf256, &[u8])> = self
                .inverse
                .row(r)
                .iter()
                .zip(units)
                .map(|(&c, &src)| (c, src))
                .collect();
            kernel.mul_acc_rows(&terms, chunk);
        }
        Ok(out)
    }

    /// The common width of `units`, one per planned source.
    fn unit_width(&self, units: &[&[u8]]) -> Result<usize, CodeError> {
        if units.len() != self.sources.len() {
            return Err(CodeError::InsufficientData {
                needed: self.sources.len(),
                got: units.len(),
            });
        }
        let w = units.first().map_or(0, |u| u.len());
        match units.iter().find(|u| u.len() != w) {
            Some(bad) => Err(CodeError::BlockSizeMismatch {
                expected: w,
                actual: bad.len(),
            }),
            None => Ok(w),
        }
    }
}

/// Which rows of `inverse` are unit vectors with coefficient 1, and the
/// column each one copies.
fn copy_sources(inverse: &Matrix) -> Vec<Option<usize>> {
    (0..inverse.rows())
        .map(|r| {
            let mut nonzero = inverse
                .row(r)
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_zero());
            match (nonzero.next(), nonzero.next()) {
                (Some((i, &c)), None) if c == Gf256::ONE => Some(i),
                _ => None,
            }
        })
        .collect()
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
    fn only_coefficient_one_unit_rows_are_copies() {
        // Node 2 stores 2·m0: a single-term row that is not a copy.
        let g = Matrix::from_fn(3, 2, |r, c| match (r, c) {
            (0, 0) | (1, 1) => Gf256::ONE,
            (2, 0) => Gf256::new(2),
            _ => Gf256::ZERO,
        });
        let code = LinearCode::new(3, 2, 1, g).unwrap();
        let data: Vec<u8> = (0..10).map(|i| (i * 29 + 3) as u8).collect();
        let stripe = code.encode(&data).unwrap();
        let plan = DecodePlan::for_units(&code, &[(2, 0), (1, 0)]).unwrap();
        assert_eq!(plan.copy_sources(), &[None, Some(1)]);
        let units = [&stripe.blocks[2][..], &stripe.blocks[1][..]];
        assert_eq!(plan.decode_units(&units).unwrap(), data);
        let healthy = DecodePlan::for_units(&code, &[(1, 0), (0, 0)]).unwrap();
        assert_eq!(healthy.copy_sources(), &[Some(1), Some(0)]);
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
