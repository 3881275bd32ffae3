//! The core [`LinearCode`] type: a generator matrix with shape metadata.

use gf256::{Gf256, Matrix};

use crate::codec::{EncodedStripe, SparseEncoder};
use crate::decode::DecodePlan;
use crate::error::CodeError;
use crate::{check_indices, stack_node_rows};

/// A linear code over GF(2⁸) described by its generator matrix.
///
/// The code maps a message of `b = k·sub` symbols to `n` blocks of `sub`
/// symbols each; block `i` is `g_i · m` where `g_i` is rows
/// `[i·sub, (i+1)·sub)` of the generator. At the byte level every symbol is
/// a row of `w` bytes, so a block is `sub·w` bytes (paper §IV).
///
/// `sub` is the number of *units* per block: 1 for plain RS, `α = d−k+1`
/// for MSR codes, and `α·N₀` for Carousel codes after expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearCode {
    n: usize,
    k: usize,
    sub: usize,
    message_units: usize,
    generator: Matrix,
}

impl LinearCode {
    /// Creates a linear code, validating the generator shape.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] if the generator is not
    /// `(n·sub) × (k·sub)`, and [`CodeError::InvalidParameters`] if
    /// `k > n` or any dimension is zero.
    pub fn new(n: usize, k: usize, sub: usize, generator: Matrix) -> Result<Self, CodeError> {
        if n == 0 || k == 0 || sub == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "n, k and sub must all be positive".into(),
            });
        }
        if k > n {
            return Err(CodeError::InvalidParameters {
                reason: format!("k = {k} must not exceed n = {n}"),
            });
        }
        let expected = (n * sub, k * sub);
        let actual = (generator.rows(), generator.cols());
        if expected != actual {
            return Err(CodeError::ShapeMismatch { expected, actual });
        }
        Ok(LinearCode {
            n,
            k,
            sub,
            message_units: k * sub,
            generator,
        })
    }

    /// Creates a linear code whose message is *smaller* than `k·sub`
    /// units — the shape of minimum-bandwidth regenerating (MBR) codes,
    /// which trade extra per-node storage for single-block repair traffic.
    /// Any `k` blocks must still span the message space, but their stacked
    /// rows are over-determined rather than square.
    ///
    /// # Errors
    ///
    /// Returns shape/parameter errors as [`LinearCode::new`], plus
    /// [`CodeError::InvalidParameters`] unless `0 < message_units ≤ k·sub`.
    pub fn with_message_units(
        n: usize,
        k: usize,
        sub: usize,
        message_units: usize,
        generator: Matrix,
    ) -> Result<Self, CodeError> {
        if n == 0 || k == 0 || sub == 0 {
            return Err(CodeError::InvalidParameters {
                reason: "n, k and sub must all be positive".into(),
            });
        }
        if k > n {
            return Err(CodeError::InvalidParameters {
                reason: format!("k = {k} must not exceed n = {n}"),
            });
        }
        if message_units == 0 || message_units > k * sub {
            return Err(CodeError::InvalidParameters {
                reason: format!("message_units = {message_units} must be in 1..={}", k * sub),
            });
        }
        let expected = (n * sub, message_units);
        let actual = (generator.rows(), generator.cols());
        if expected != actual {
            return Err(CodeError::ShapeMismatch { expected, actual });
        }
        Ok(LinearCode {
            n,
            k,
            sub,
            message_units,
            generator,
        })
    }

    /// Number of encoded blocks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of original blocks.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Units (symbol-rows) per block.
    pub fn sub(&self) -> usize {
        self.sub
    }

    /// Total message units (`k·sub` for MDS-shaped codes, fewer for MBR).
    pub fn message_units(&self) -> usize {
        self.message_units
    }

    /// The full generator matrix.
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// The `sub × b` generator submatrix of block `i` (the paper's `g_i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn node_generator(&self, i: usize) -> Matrix {
        assert!(i < self.n, "block index out of range");
        let rows: Vec<usize> = (i * self.sub..(i + 1) * self.sub).collect();
        self.generator.select_rows(&rows)
    }

    /// Encodes `data` into `n` blocks, choosing the unit width `w` as
    /// `ceil(len / b)` and zero-padding.
    ///
    /// Equivalent to [`SparseEncoder::encode`] with a freshly built encoder;
    /// build the encoder once when encoding many stripes.
    ///
    /// # Errors
    ///
    /// Returns an error if `data` is empty.
    pub fn encode(&self, data: &[u8]) -> Result<EncodedStripe, CodeError> {
        SparseEncoder::new(self).encode(data)
    }

    /// Decodes the original message bytes from full blocks.
    ///
    /// `nodes[i]` is the block index of `blocks[i]`. Any set of nodes whose
    /// stacked generator rows span the message space works; for an MDS code
    /// any `k` distinct blocks do.
    ///
    /// # Errors
    ///
    /// Propagates the failures of [`DecodePlan::for_nodes`] plus block-size
    /// mismatches.
    pub fn decode_nodes(&self, nodes: &[usize], blocks: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        let plan = DecodePlan::for_nodes(self, nodes)?;
        plan.decode(blocks)
    }

    /// Applies a message-symbol level encode: `units[r] = G[r] · message`.
    ///
    /// This is the slow, obviously-correct reference used by tests; the fast
    /// path is [`SparseEncoder`].
    pub fn encode_symbols(&self, message: &[Gf256]) -> Result<Vec<Vec<Gf256>>, CodeError> {
        if message.len() != self.message_units() {
            return Err(CodeError::InsufficientData {
                needed: self.message_units(),
                got: message.len(),
            });
        }
        let mut all = vec![Gf256::ZERO; self.generator.rows()];
        self.generator.mul_vec_into(message, &mut all);
        Ok(all.chunks(self.sub).map(<[Gf256]>::to_vec).collect())
    }

    /// Checks that the given nodes can decode (their stacked rows have full
    /// column rank).
    pub fn can_decode(&self, nodes: &[usize]) -> bool {
        if check_indices(self.n, nodes).is_err() {
            return false;
        }
        stack_node_rows(self, nodes).rank() == self.message_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf256::builders::systematize;

    fn toy_code() -> LinearCode {
        let g = systematize(&Matrix::vandermonde(5, 3));
        LinearCode::new(5, 3, 1, g).unwrap()
    }

    #[test]
    fn new_validates_shape() {
        let g = Matrix::zeros(4, 2);
        let err = LinearCode::new(5, 2, 1, g).unwrap_err();
        assert!(matches!(err, CodeError::ShapeMismatch { .. }));
    }

    #[test]
    fn new_rejects_k_greater_than_n() {
        let g = Matrix::zeros(2, 3);
        let err = LinearCode::new(2, 3, 1, g).unwrap_err();
        assert!(matches!(err, CodeError::InvalidParameters { .. }));
    }

    #[test]
    fn new_rejects_zero_dims() {
        let g = Matrix::zeros(0, 0);
        assert!(LinearCode::new(0, 0, 1, g).is_err());
    }

    #[test]
    fn node_generator_extracts_rows() {
        let code = toy_code();
        let g1 = code.node_generator(1);
        assert_eq!(g1.rows(), 1);
        assert_eq!(g1.row(0), code.generator().row(1));
    }

    #[test]
    fn encode_then_decode_any_k() {
        let code = toy_code();
        let data = b"the quick brown fox jumps over";
        let stripe = code.encode(data).unwrap();
        assert_eq!(stripe.blocks.len(), 5);
        for nodes in [[0usize, 1, 2], [2, 3, 4], [0, 2, 4], [4, 1, 0]] {
            let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
            let out = code.decode_nodes(&nodes, &blocks).unwrap();
            assert_eq!(&out[..data.len()], &data[..]);
        }
    }

    #[test]
    fn decode_with_too_few_nodes_fails() {
        let code = toy_code();
        let stripe = code.encode(b"0123456789").unwrap();
        let err = code
            .decode_nodes(&[0, 1], &[&stripe.blocks[0], &stripe.blocks[1]])
            .unwrap_err();
        assert!(matches!(err, CodeError::InsufficientData { .. }));
    }

    #[test]
    fn can_decode_matches_rank() {
        let code = toy_code();
        assert!(code.can_decode(&[0, 1, 2]));
        assert!(code.can_decode(&[2, 3, 4]));
        assert!(!code.can_decode(&[0, 1]));
        assert!(!code.can_decode(&[0, 0, 1]));
        assert!(!code.can_decode(&[0, 1, 9]));
    }

    #[test]
    fn encode_symbols_matches_byte_encode() {
        let code = toy_code();
        let data: Vec<u8> = (0..3).collect(); // w = 1: one byte per symbol
        let stripe = code.encode(&data).unwrap();
        let msg: Vec<Gf256> = data.iter().map(|&b| Gf256::new(b)).collect();
        let sym = code.encode_symbols(&msg).unwrap();
        for (block, s) in stripe.blocks.iter().zip(&sym) {
            assert_eq!(*block, vec![s[0].value()]);
        }
    }

    #[test]
    fn systematic_blocks_hold_raw_data() {
        let code = toy_code();
        let data = b"abcdefghi"; // 9 bytes over b = 3 units -> w = 3
        let stripe = code.encode(data).unwrap();
        assert_eq!(&stripe.blocks[0][..], b"abc");
        assert_eq!(&stripe.blocks[1][..], b"def");
        assert_eq!(&stripe.blocks[2][..], b"ghi");
    }
}
