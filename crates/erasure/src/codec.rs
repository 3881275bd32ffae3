//! Byte-level encoding: striping, padding and the sparse-aware encoder.
//!
//! The encoder precomputes, for every output unit, the list of nonzero
//! `(message-unit, coefficient)` pairs and drives the GF(2⁸) slice kernels
//! with exactly those. This is the optimization described in paper §VIII-A:
//! the generating matrix of a Carousel code is large but *sparse* (each
//! parity unit combines at most `k·α` message units out of `k·α·N₀`), so
//! skipping zero coefficients keeps the per-output-byte cost identical to
//! the RS/MSR code the Carousel code was constructed from.

use std::sync::LazyLock;

use gf256::{Gf256, KernelHandle};

use crate::error::CodeError;
use crate::linear::LinearCode;

static ENCODE_STRIPES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("erasure.encode.stripes"));
static ENCODE_BYTES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("erasure.encode.bytes"));

/// The result of encoding one stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStripe {
    /// The `n` encoded blocks, each `sub · w` bytes.
    pub blocks: Vec<Vec<u8>>,
    /// The unit width in bytes (symbols are rows of `w` bytes).
    pub unit_bytes: usize,
    /// Length of the original (unpadded) data.
    pub original_len: usize,
}

impl EncodedStripe {
    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.blocks.first().map_or(0, Vec::len)
    }
}

/// A reusable encoder that exploits generator-matrix sparsity.
///
/// # Examples
///
/// ```
/// use erasure::{LinearCode, SparseEncoder};
/// use gf256::{builders::systematize, Matrix};
///
/// let code = LinearCode::new(4, 2, 1, systematize(&Matrix::vandermonde(4, 2)))?;
/// let encoder = SparseEncoder::new(&code);
/// let stripe = encoder.encode(b"some file contents")?;
/// assert_eq!(stripe.blocks.len(), 4);
/// # Ok::<(), erasure::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SparseEncoder {
    n: usize,
    sub: usize,
    units: usize,
    /// For each output row: the nonzero `(message unit, coefficient)` pairs.
    rows: Vec<Vec<(usize, Gf256)>>,
    /// The GF(2⁸) kernel driving the multiply-accumulate loops, captured at
    /// construction from the process default.
    kernel: KernelHandle,
}

impl SparseEncoder {
    /// Builds an encoder for `code`, scanning the generator once.
    pub fn new(code: &LinearCode) -> Self {
        let g = code.generator();
        let rows = g
            .iter_rows()
            .take(g.rows())
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, c)| !c.is_zero())
                    .map(|(j, &c)| (j, c))
                    .collect()
            })
            .collect();
        SparseEncoder {
            n: code.n(),
            sub: code.sub(),
            units: code.message_units(),
            rows,
            kernel: gf256::kernel(),
        }
    }

    /// Total multiply-accumulate operations per stripe — the complexity
    /// measure behind the paper's Fig. 6 discussion.
    pub fn mul_ops(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Encodes `data` into `n` blocks with `w = ceil(len / b)`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] if `data` is empty.
    pub fn encode(&self, data: &[u8]) -> Result<EncodedStripe, CodeError> {
        if data.is_empty() {
            return Err(CodeError::InsufficientData { needed: 1, got: 0 });
        }
        let w = data.len().div_ceil(self.units).max(1);
        self.encode_with_unit_bytes(data, w)
    }

    /// Encodes `data` at an explicit unit width `w`, as a fixed-geometry
    /// file store does (`w = block_bytes / sub` regardless of how short the
    /// final chunk is). Trailing padding is implicit — no padded copy of
    /// `data` is ever made.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] for empty input and
    /// [`CodeError::BlockSizeMismatch`] if `data` exceeds `units · w` bytes
    /// or `w` is zero.
    pub fn encode_with_unit_bytes(
        &self,
        data: &[u8],
        w: usize,
    ) -> Result<EncodedStripe, CodeError> {
        if data.is_empty() {
            return Err(CodeError::InsufficientData { needed: 1, got: 0 });
        }
        if w == 0 || data.len() > self.units * w {
            return Err(CodeError::BlockSizeMismatch {
                expected: self.units * w,
                actual: data.len(),
            });
        }
        let mut stripe = EncodedStripe {
            blocks: vec![vec![0u8; self.sub * w]; self.n],
            unit_bytes: w,
            original_len: data.len(),
        };
        self.encode_unpadded_into(data, w, &mut stripe);
        Ok(stripe)
    }

    /// The copy-free core: reads message units straight out of `data`,
    /// clamping the final (short) unit instead of materializing padding.
    fn encode_unpadded_into(&self, data: &[u8], w: usize, stripe: &mut EncodedStripe) {
        debug_assert!(data.len() <= self.units * w);
        ENCODE_STRIPES.inc();
        ENCODE_BYTES.add((self.n * self.sub * w) as u64);
        let _timer = telemetry::span("erasure.encode.ns");
        for (node, block) in stripe.blocks.iter_mut().enumerate() {
            block.fill(0);
            for unit in 0..self.sub {
                let out = &mut block[unit * w..(unit + 1) * w];
                for &(j, c) in &self.rows[node * self.sub + unit] {
                    let start = j * w;
                    if start >= data.len() {
                        continue;
                    }
                    let end = (start + w).min(data.len());
                    self.kernel
                        .mul_acc(c, &data[start..end], &mut out[..end - start]);
                }
            }
        }
    }

    /// Encodes into an existing [`EncodedStripe`], reusing its buffers —
    /// the zero-allocation steady state of a storage server encoding many
    /// stripes of identical geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] for empty input and
    /// [`CodeError::BlockSizeMismatch`] if `data` does not fit the stripe's
    /// existing geometry exactly (`units · unit_bytes` bytes after padding).
    pub fn encode_into(&self, data: &[u8], stripe: &mut EncodedStripe) -> Result<(), CodeError> {
        if data.is_empty() {
            return Err(CodeError::InsufficientData { needed: 1, got: 0 });
        }
        let w = stripe.unit_bytes;
        if stripe.blocks.len() != self.n
            || stripe.blocks.iter().any(|b| b.len() != self.sub * w)
            || data.len() > self.units * w
        {
            return Err(CodeError::BlockSizeMismatch {
                expected: self.units * w,
                actual: data.len(),
            });
        }
        stripe.original_len = data.len();
        self.encode_unpadded_into(data, w, stripe);
        Ok(())
    }
}

/// Column-oriented view of the generator for *in-place updates*: when one
/// message unit changes by `Δ`, every encoded unit with a nonzero
/// coefficient on that column changes by `coeff · Δ` — the classic
/// delta-based parity update, which touches only the affected rows instead
/// of re-encoding the stripe.
///
/// # Examples
///
/// ```
/// use erasure::codec::ColumnUpdater;
/// use erasure::LinearCode;
/// use gf256::{builders::systematize, Matrix};
///
/// let code = LinearCode::new(4, 2, 1, systematize(&Matrix::vandermonde(4, 2)))?;
/// let mut stripe = code.encode(b"abcdef")?; // w = 3
/// let updater = ColumnUpdater::new(&code);
///
/// // Overwrite message unit 1 ("def" -> "DEF") via a delta.
/// let delta: Vec<u8> = b"def".iter().zip(b"DEF").map(|(a, b)| a ^ b).collect();
/// updater.apply(1, &delta, &mut stripe.blocks)?;
/// assert_eq!(&stripe.blocks[1][..], b"DEF");
/// // Parity stays consistent: any 2 blocks decode the updated message.
/// let out = code.decode_nodes(&[2, 3], &[&stripe.blocks[2], &stripe.blocks[3]])?;
/// assert_eq!(&out[..6], b"abcDEF");
/// # Ok::<(), erasure::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ColumnUpdater {
    sub: usize,
    /// For each message unit: the `(output row, coefficient)` pairs.
    cols: Vec<Vec<(usize, Gf256)>>,
    kernel: KernelHandle,
}

impl ColumnUpdater {
    /// Builds the column view of `code`'s generator.
    pub fn new(code: &LinearCode) -> Self {
        let g = code.generator();
        let mut cols: Vec<Vec<(usize, Gf256)>> = vec![Vec::new(); code.message_units()];
        for (r, row) in g.iter_rows().take(g.rows()).enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if !c.is_zero() {
                    cols[j].push((r, c));
                }
            }
        }
        ColumnUpdater {
            sub: code.sub(),
            cols,
            kernel: gf256::kernel(),
        }
    }

    /// Applies `delta` (new XOR old bytes of message unit `j`) to every
    /// affected block in place.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NodeOutOfRange`] for a bad unit index and
    /// [`CodeError::BlockSizeMismatch`] if `delta` does not match the
    /// blocks' unit width.
    pub fn apply(&self, j: usize, delta: &[u8], blocks: &mut [Vec<u8>]) -> Result<(), CodeError> {
        if j >= self.cols.len() {
            return Err(CodeError::NodeOutOfRange {
                node: j,
                n: self.cols.len(),
            });
        }
        let block_len = blocks.first().map_or(0, Vec::len);
        if !block_len.is_multiple_of(self.sub) || delta.len() != block_len / self.sub {
            return Err(CodeError::BlockSizeMismatch {
                expected: block_len / self.sub.max(1),
                actual: delta.len(),
            });
        }
        let w = delta.len();
        for &(row, coeff) in &self.cols[j] {
            let (node, unit) = (row / self.sub, row % self.sub);
            let block = &mut blocks[node];
            self.kernel
                .mul_acc(coeff, delta, &mut block[unit * w..(unit + 1) * w]);
        }
        Ok(())
    }

    /// The code's sub-packetization (units per block).
    pub fn sub(&self) -> usize {
        self.sub
    }

    /// Message units per stripe (`k · sub`).
    pub fn message_units(&self) -> usize {
        self.cols.len()
    }

    /// Builds the unit-aligned [`StripeDelta`] of an in-place edit:
    /// `new` replaces the bytes at `offset..offset + new.len()` of the
    /// stripe's message, whose previous contents were `old`. The edit is
    /// widened to unit boundaries with zero deltas, then trimmed of
    /// leading/trailing units whose delta is entirely zero — an edit
    /// that changes nothing yields an empty delta list.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] when `old` and `new`
    /// differ in length or the edit is empty, and
    /// [`CodeError::BlockSizeMismatch`] when the span falls outside the
    /// stripe's `message_units() · unit_bytes` message bytes.
    pub fn stripe_delta(
        &self,
        unit_bytes: usize,
        offset: usize,
        old: &[u8],
        new: &[u8],
    ) -> Result<StripeDelta, CodeError> {
        if old.len() != new.len() || new.is_empty() {
            return Err(CodeError::InsufficientData {
                needed: new.len().max(1),
                got: old.len(),
            });
        }
        let message_bytes = self.cols.len() * unit_bytes;
        let end = offset.saturating_add(new.len());
        if unit_bytes == 0 || end > message_bytes {
            return Err(CodeError::BlockSizeMismatch {
                expected: message_bytes,
                actual: end,
            });
        }
        let mut first_unit = offset / unit_bytes;
        let last_unit = (end - 1) / unit_bytes;
        let mut deltas = vec![vec![0u8; unit_bytes]; last_unit - first_unit + 1];
        for (i, (&o, &n)) in old.iter().zip(new).enumerate() {
            let at = offset + i;
            deltas[at / unit_bytes - first_unit][at % unit_bytes] = o ^ n;
        }
        // Trim all-zero units from both ends: bytes rewritten with their
        // own value contribute nothing under XOR, and a fully unchanged
        // span ships nothing at all.
        while deltas.last().is_some_and(|d| d.iter().all(|&b| b == 0)) {
            deltas.pop();
        }
        while deltas.first().is_some_and(|d| d.iter().all(|&b| b == 0)) {
            deltas.remove(0);
            first_unit += 1;
        }
        Ok(StripeDelta {
            unit_bytes,
            first_unit,
            deltas,
        })
    }

    /// Splits a [`StripeDelta`] into per-node coefficient updates: the
    /// sender ships `delta.deltas` plus each node's rows, and the node
    /// applies them with [`apply_block_delta`] — parity' = parity ⊕ G·Δ
    /// without the node ever seeing the rest of the stripe. Nodes whose
    /// blocks are untouched by the edit are simply absent.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NodeOutOfRange`] when the delta's unit span
    /// exceeds the code's message units.
    pub fn node_updates(&self, delta: &StripeDelta) -> Result<Vec<NodeDeltaUpdate>, CodeError> {
        let count = delta.deltas.len();
        let last = delta.first_unit + count;
        if last > self.cols.len() {
            return Err(CodeError::NodeOutOfRange {
                node: last,
                n: self.cols.len(),
            });
        }
        // (node, local unit) -> coefficient per delta, built by walking
        // the touched columns once.
        let mut by_row: std::collections::BTreeMap<usize, Vec<Gf256>> =
            std::collections::BTreeMap::new();
        for (d, j) in (delta.first_unit..last).enumerate() {
            for &(row, coeff) in &self.cols[j] {
                by_row
                    .entry(row)
                    .or_insert_with(|| vec![Gf256::ZERO; count])[d] = coeff;
            }
        }
        let mut out: Vec<NodeDeltaUpdate> = Vec::new();
        for (row, coeffs) in by_row {
            let (node, unit) = (row / self.sub, row % self.sub);
            match out.last_mut() {
                Some(u) if u.node == node => u.rows.push((unit, coeffs)),
                _ => out.push(NodeDeltaUpdate {
                    node,
                    rows: vec![(unit, coeffs)],
                }),
            }
        }
        Ok(out)
    }

    /// Applies an in-place edit of the stripe's message directly to its
    /// blocks: `new` replaces `old` at message byte `offset`, and every
    /// affected encoded unit (data and parity alike) is updated by
    /// `coeff · Δ` — byte-identical to re-encoding the edited message,
    /// at a cost proportional to the touched columns only.
    ///
    /// # Errors
    ///
    /// Propagates [`ColumnUpdater::stripe_delta`] validation and
    /// [`ColumnUpdater::apply`] geometry errors.
    pub fn delta_update(
        &self,
        blocks: &mut [Vec<u8>],
        offset: usize,
        old: &[u8],
        new: &[u8],
    ) -> Result<(), CodeError> {
        let block_len = blocks.first().map_or(0, Vec::len);
        if !block_len.is_multiple_of(self.sub.max(1)) || block_len == 0 {
            return Err(CodeError::BlockSizeMismatch {
                expected: self.sub,
                actual: block_len,
            });
        }
        let delta = self.stripe_delta(block_len / self.sub, offset, old, new)?;
        for (d, bytes) in delta.deltas.iter().enumerate() {
            self.apply(delta.first_unit + d, bytes, blocks)?;
        }
        Ok(())
    }
}

/// A unit-aligned description of an in-place edit to one stripe's
/// message: the XOR deltas of every touched message unit, ready to be
/// applied locally ([`ColumnUpdater::delta_update`]) or shipped to the
/// nodes holding the affected blocks ([`ColumnUpdater::node_updates`]).
///
/// The edit is widened to unit boundaries; bytes outside the edited span
/// carry a zero delta, which contributes nothing under GF(2⁸).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeDelta {
    /// Unit width in bytes (`w`), the blocks' geometry.
    pub unit_bytes: usize,
    /// Index of the first touched message unit.
    pub first_unit: usize,
    /// One `w`-byte delta per touched message unit, contiguous from
    /// `first_unit`.
    pub deltas: Vec<Vec<u8>>,
}

impl StripeDelta {
    /// Total delta payload bytes (what a wire transport ships once,
    /// regardless of how many nodes consume it).
    pub fn payload_bytes(&self) -> usize {
        self.deltas.iter().map(Vec::len).sum()
    }
}

/// The per-node slice of a [`StripeDelta`]: for each local unit of the
/// node's block, the coefficient to apply to each message-unit delta.
/// `rows[i] = (local_unit, coeffs)` with `coeffs.len() == deltas.len()`;
/// zero coefficients mean "this delta does not touch this unit".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDeltaUpdate {
    /// The block (node index within the stripe) this update targets.
    pub node: usize,
    /// `(local unit, coefficient per delta)` pairs, ascending by unit.
    pub rows: Vec<(usize, Vec<Gf256>)>,
}

/// Applies a shipped delta to one block in place: for every row,
/// `block[unit] += coeff_d · delta_d` over all deltas. This is the
/// *receiver* side of a delta update — it needs no generator matrix,
/// only the coefficients the sender derived, so a storage node can run
/// it against its local block without knowing the code.
///
/// # Errors
///
/// Returns [`CodeError::BlockSizeMismatch`] when a delta is not
/// `unit_bytes` wide or a row's unit falls outside the block, and
/// [`CodeError::InsufficientData`] when a row's coefficient list does
/// not match the delta count.
pub fn apply_block_delta(
    block: &mut [u8],
    unit_bytes: usize,
    rows: &[(usize, Vec<Gf256>)],
    deltas: &[Vec<u8>],
) -> Result<(), CodeError> {
    if unit_bytes == 0 || !block.len().is_multiple_of(unit_bytes) {
        return Err(CodeError::BlockSizeMismatch {
            expected: unit_bytes,
            actual: block.len(),
        });
    }
    if deltas.iter().any(|d| d.len() != unit_bytes) {
        return Err(CodeError::BlockSizeMismatch {
            expected: unit_bytes,
            actual: deltas.iter().map(Vec::len).max().unwrap_or(0),
        });
    }
    let sub = block.len() / unit_bytes;
    let kernel = gf256::kernel();
    for (unit, coeffs) in rows {
        if *unit >= sub {
            return Err(CodeError::BlockSizeMismatch {
                expected: sub,
                actual: *unit,
            });
        }
        if coeffs.len() != deltas.len() {
            return Err(CodeError::InsufficientData {
                needed: deltas.len(),
                got: coeffs.len(),
            });
        }
        let out = &mut block[unit * unit_bytes..(unit + 1) * unit_bytes];
        for (delta, &c) in deltas.iter().zip(coeffs) {
            if !c.is_zero() {
                kernel.mul_acc(c, delta, out);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf256::builders::systematize;
    use gf256::Matrix;
    use proptest::prelude::*;

    fn code(n: usize, k: usize) -> LinearCode {
        LinearCode::new(n, k, 1, systematize(&Matrix::vandermonde(n, k))).unwrap()
    }

    #[test]
    fn explicit_width_encode_matches_padded_encode() {
        let code = code(6, 4);
        let enc = SparseEncoder::new(&code);
        // A short final chunk at a fixed width encodes like its zero-padded
        // equivalent.
        let data: Vec<u8> = (0..23).map(|i| (i * 7 + 1) as u8).collect();
        let w = 8;
        let mut padded = data.clone();
        padded.resize(4 * w, 0);
        let a = enc.encode_with_unit_bytes(&data, w).unwrap();
        let b = enc.encode_with_unit_bytes(&padded, w).unwrap();
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.unit_bytes, w);
        assert_eq!(a.original_len, data.len());
        // Oversized data and zero width are rejected.
        assert!(enc
            .encode_with_unit_bytes(&vec![0u8; 4 * w + 1], w)
            .is_err());
        assert!(enc.encode_with_unit_bytes(&data, 0).is_err());
    }

    #[test]
    fn sparse_matches_reference_symbol_encode() {
        let code = code(6, 4);
        let data: Vec<u8> = (0..64).map(|i| (i * 37 + 5) as u8).collect();
        let stripe = SparseEncoder::new(&code).encode(&data).unwrap();
        // Reference: per-column symbol arithmetic.
        let w = data.len() / 4;
        for col in 0..w {
            let msg: Vec<Gf256> = (0..4).map(|u| Gf256::new(data[u * w + col])).collect();
            let units = code.encode_symbols(&msg).unwrap();
            for (block, unit) in stripe.blocks.iter().zip(&units) {
                assert_eq!(block[col], unit[0].value());
            }
        }
    }

    #[test]
    fn mul_ops_counts_nonzeros() {
        let code = code(6, 4);
        let enc = SparseEncoder::new(&code);
        assert_eq!(enc.mul_ops(), code.generator().nonzeros());
        // Systematic: 4 identity rows (1 op each) + 2 parity rows (4 ops each).
        assert_eq!(enc.mul_ops(), 4 + 2 * 4);
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches() {
        let code = code(6, 4);
        let enc = SparseEncoder::new(&code);
        let a: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..64).map(|i| (i * 3) as u8).collect();
        let mut stripe = enc.encode(&a).unwrap();
        let ptr_before = stripe.blocks[0].as_ptr();
        enc.encode_into(&b, &mut stripe).unwrap();
        assert_eq!(stripe.blocks[0].as_ptr(), ptr_before, "no reallocation");
        assert_eq!(stripe, enc.encode(&b).unwrap());
        // Geometry mismatch is rejected.
        let too_big = vec![0u8; 1000];
        assert!(enc.encode_into(&too_big, &mut stripe).is_err());
        assert!(enc.encode_into(&[], &mut stripe).is_err());
    }

    #[test]
    fn empty_data_is_rejected() {
        let code = code(4, 2);
        assert!(SparseEncoder::new(&code).encode(b"").is_err());
    }

    #[test]
    fn delta_update_matches_reencode() {
        let code = code(6, 4);
        let enc = SparseEncoder::new(&code);
        let upd = ColumnUpdater::new(&code);
        let old: Vec<u8> = (0..64).map(|i| (i * 11 + 3) as u8).collect();
        let mut new = old.clone();
        for (i, b) in new[13..29].iter_mut().enumerate() {
            *b = (i * 91 + 7) as u8;
        }
        let mut stripe = enc.encode(&old).unwrap();
        upd.delta_update(&mut stripe.blocks, 13, &old[13..29], &new[13..29])
            .unwrap();
        assert_eq!(stripe.blocks, enc.encode(&new).unwrap().blocks);
    }

    #[test]
    fn node_updates_reproduce_delta_update() {
        // Shipping (deltas, per-node rows) and applying them with
        // apply_block_delta — the wire path — lands on the same blocks
        // as the local delta_update and the full re-encode.
        let code = code(6, 4);
        let enc = SparseEncoder::new(&code);
        let upd = ColumnUpdater::new(&code);
        let old: Vec<u8> = (0..48).map(|i| (i * 5 + 1) as u8).collect();
        let mut new = old.clone();
        for b in &mut new[20..40] {
            *b ^= 0xA5;
        }
        let mut stripe = enc.encode(&old).unwrap();
        let w = stripe.unit_bytes;
        let delta = upd.stripe_delta(w, 20, &old[20..40], &new[20..40]).unwrap();
        let updates = upd.node_updates(&delta).unwrap();
        assert!(!updates.is_empty());
        for nu in &updates {
            apply_block_delta(&mut stripe.blocks[nu.node], w, &nu.rows, &delta.deltas).unwrap();
        }
        assert_eq!(stripe.blocks, enc.encode(&new).unwrap().blocks);
        // Untouched columns mean untouched data nodes: a systematic code
        // editing units 1..4 must not ship anything to data node 0.
        assert!(updates.iter().all(|u| u.node != 0));
    }

    #[test]
    fn delta_validation_rejects_bad_spans() {
        let code = code(4, 2);
        let upd = ColumnUpdater::new(&code);
        let mut stripe = SparseEncoder::new(&code).encode(&[7u8; 16]).unwrap();
        // Length mismatch between old and new.
        assert!(upd
            .delta_update(&mut stripe.blocks, 0, &[1, 2], &[3])
            .is_err());
        // Span past the end of the message.
        assert!(upd
            .delta_update(&mut stripe.blocks, 15, &[0, 0], &[1, 1])
            .is_err());
        // Empty edit.
        assert!(upd.delta_update(&mut stripe.blocks, 0, &[], &[]).is_err());
        // apply_block_delta geometry checks.
        let mut block = vec![0u8; 8];
        let rows = vec![(0usize, vec![Gf256::new(1)])];
        assert!(apply_block_delta(&mut block, 4, &rows, &[vec![0u8; 3]]).is_err());
        assert!(apply_block_delta(&mut block, 3, &rows, &[vec![0u8; 3]]).is_err());
        let bad_unit = vec![(5usize, vec![Gf256::new(1)])];
        assert!(apply_block_delta(&mut block, 4, &bad_unit, &[vec![0u8; 4]]).is_err());
    }

    proptest! {
        #[test]
        fn prop_delta_update_matches_reencode(
            data in proptest::collection::vec(any::<u8>(), 8..200),
            patch in proptest::collection::vec(any::<u8>(), 1..64),
            at in any::<u16>(),
        ) {
            let code = code(6, 4);
            let enc = SparseEncoder::new(&code);
            let upd = ColumnUpdater::new(&code);
            let offset = at as usize % data.len();
            let len = patch.len().min(data.len() - offset);
            let mut new = data.clone();
            new[offset..offset + len].copy_from_slice(&patch[..len]);
            let mut stripe = enc.encode(&data).unwrap();
            upd.delta_update(
                &mut stripe.blocks,
                offset,
                &data[offset..offset + len],
                &new[offset..offset + len],
            )
            .unwrap();
            prop_assert_eq!(stripe.blocks, enc.encode(&new).unwrap().blocks);
        }

        #[test]
        fn prop_encode_decode_round_trip(
            data in proptest::collection::vec(any::<u8>(), 1..300),
            pick in any::<u64>(),
        ) {
            let code = code(6, 4);
            let stripe = SparseEncoder::new(&code).encode(&data).unwrap();
            // Choose a pseudo-random 4-subset of the 6 blocks.
            let mut nodes: Vec<usize> = (0..6).collect();
            let mut s = pick;
            for i in (1..6).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                nodes.swap(i, (s >> 33) as usize % (i + 1));
            }
            nodes.truncate(4);
            let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let out = code.decode_nodes(&nodes, &blocks).unwrap();
            prop_assert_eq!(&out[..data.len()], &data[..]);
        }
    }
}
