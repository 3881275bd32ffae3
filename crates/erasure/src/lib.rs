//! Generic generator-matrix erasure codes over GF(2⁸).
//!
//! The paper (§IV) models every code — Reed-Solomon, product-matrix MSR and
//! Carousel — the same way: a file is `k` blocks, each block is `sub`
//! symbol-rows of `w` bytes, and the `n` encoded blocks are
//! `g_i · F` for an `(n·sub) × (k·sub)` generating matrix `G` split into
//! per-node submatrices `g_i`. This crate implements that model once:
//!
//! * [`LinearCode`] — the generator matrix plus shape metadata;
//! * [`codec`] — byte-level striping and sparse-aware encoding;
//! * [`decode`] — decode the original data from any sufficient set of units;
//! * [`plan`] — the one [`ReadPlan`] / [`DegradedPlan`] pair every family
//!   plans its reads with, and the generic any-`k` planners that are the
//!   default bodies of [`ErasureCode::plan_read`] /
//!   [`ErasureCode::plan_block_read`];
//! * [`repair`] — executable repair plans whose network traffic is *counted*;
//! * [`layout`] — where the original data lives inside the encoded blocks
//!   (the `FileInputFormat` equivalent from the paper's Hadoop prototype);
//! * [`mds`] — exhaustive/sampled verification of the MDS property.
//!
//! Concrete constructions live in the `carousel-rs`, `carousel-msr` and
//! `carousel` crates.
//!
//! # Examples
//!
//! ```
//! use erasure::LinearCode;
//! use gf256::Matrix;
//!
//! // A (4, 2) MDS code from a systematized Vandermonde matrix.
//! let g = gf256::builders::systematize(&Matrix::vandermonde(4, 2));
//! let code = LinearCode::new(4, 2, 1, g)?;
//! let stripe = code.encode(b"hello world!")?;
//! let restored = code.decode_nodes(&[2, 3], &[&stripe.blocks[2], &stripe.blocks[3]])?;
//! assert_eq!(&restored[..12], b"hello world!");
//! # Ok::<(), erasure::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod linear;

pub mod codec;
pub mod consistency;
pub mod decode;
pub mod layout;
pub mod mds;
pub mod plan;
pub mod repair;
pub mod sparsity;

pub use codec::{
    apply_block_delta, ColumnUpdater, EncodedStripe, NodeDeltaUpdate, SparseEncoder, StripeDelta,
};
pub use decode::DecodePlan;
pub use error::CodeError;
pub use layout::{DataLayout, UnitRef};
pub use linear::LinearCode;
pub use plan::{DegradedPlan, ReadMode, ReadPlan, RegionSolve};
pub use repair::{HelperTask, RepairPlan};

use std::sync::Arc;

use gf256::Matrix;

/// Common interface of the erasure codes in this reproduction.
///
/// Implemented by systematic RS (`carousel-rs`), product-matrix MSR and MBR
/// (`carousel-msr`) and Carousel codes (`carousel`). A family supplies its
/// generator, layout and repair plan; it *may* also override the two read
/// planners when it can serve reads more cheaply than any-`k` decoding (a
/// Carousel code reads from `p > k` blocks). Everything above this trait —
/// plan caching, execution, the file codec, the transports — sees only
/// `&dyn ErasureCode`.
pub trait ErasureCode {
    /// Short human-readable name, e.g. `"RS(6,4)"`.
    fn name(&self) -> String;

    /// The underlying linear code (generator matrix + shape).
    fn linear(&self) -> &LinearCode;

    /// Number of encoded blocks per stripe.
    fn n(&self) -> usize {
        self.linear().n()
    }

    /// Number of original blocks per stripe.
    fn k(&self) -> usize {
        self.linear().k()
    }

    /// Number of helpers contacted to repair one block.
    fn d(&self) -> usize;

    /// Where original data lives inside the encoded blocks. Systematic RS
    /// puts all of it in the first `k` blocks; an `(n,k,d,p)` Carousel code
    /// spreads it over the first `p` blocks.
    fn data_layout(&self) -> DataLayout;

    /// Builds a repair plan for `failed` using the given helper blocks.
    ///
    /// # Errors
    ///
    /// Fails if the helper set is invalid for this code (wrong count,
    /// contains `failed`, out of range, or algebraically insufficient).
    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError>;

    /// Number of blocks whose top region contains original data — the
    /// paper's *data parallelism* degree `p`.
    fn parallelism(&self) -> usize {
        self.data_layout().data_bearing_nodes()
    }

    /// Plans a read of one whole stripe's original data over the
    /// `available` blocks (order-insensitive).
    ///
    /// The default is the generic any-`k` read: the first `k` blocks when
    /// all are available ([`ReadMode::Direct`]), otherwise the `k`
    /// lowest-numbered live blocks ([`ReadMode::Degraded`]).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] when fewer than `k` blocks
    /// are available, and index errors for malformed availability lists.
    fn plan_read(&self, available: &[usize]) -> Result<ReadPlan, CodeError> {
        plan::any_k_read(self.linear(), available)
    }

    /// Plans the reconstruction of block `target`'s *data region* (its
    /// contiguous file chunk) from the `available` blocks, without decoding
    /// the whole stripe; `target` itself is ignored if listed.
    ///
    /// The default solves over the `k` lowest-numbered other live blocks
    /// and keeps only the rows that produce the target's file units.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidParameters`] if `target` carries no data;
    /// * [`CodeError::InsufficientData`] if fewer than `k` other blocks are
    ///   available;
    /// * index errors for malformed availability lists.
    fn plan_block_read(
        &self,
        target: usize,
        available: &[usize],
    ) -> Result<DegradedPlan, CodeError> {
        plan::any_k_block_read(self.linear(), &self.data_layout(), target, available)
    }
}

/// A shared code is a code: every method forwards, so a family's planner
/// overrides survive behind `Arc<dyn ErasureCode + Send + Sync>` — the
/// shape a runtime-selected code takes.
impl<C: ErasureCode + ?Sized> ErasureCode for Arc<C> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn linear(&self) -> &LinearCode {
        (**self).linear()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn d(&self) -> usize {
        (**self).d()
    }

    fn data_layout(&self) -> DataLayout {
        (**self).data_layout()
    }

    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        (**self).repair_plan(failed, helpers)
    }

    fn parallelism(&self) -> usize {
        (**self).parallelism()
    }

    fn plan_read(&self, available: &[usize]) -> Result<ReadPlan, CodeError> {
        (**self).plan_read(available)
    }

    fn plan_block_read(
        &self,
        target: usize,
        available: &[usize],
    ) -> Result<DegradedPlan, CodeError> {
        (**self).plan_block_read(target, available)
    }
}

/// Validates that `indices` are unique and all less than `n`.
///
/// # Errors
///
/// Returns [`CodeError::NodeOutOfRange`] or [`CodeError::DuplicateNode`]
/// naming the first offending index.
pub fn check_indices(n: usize, indices: &[usize]) -> Result<(), CodeError> {
    for (i, &a) in indices.iter().enumerate() {
        if a >= n {
            return Err(CodeError::NodeOutOfRange { node: a, n });
        }
        if indices[i + 1..].contains(&a) {
            return Err(CodeError::DuplicateNode { node: a });
        }
    }
    Ok(())
}

/// Stacks the per-node generator submatrices of the given nodes.
pub(crate) fn stack_node_rows(code: &LinearCode, nodes: &[usize]) -> Matrix {
    let sub = code.sub();
    let rows: Vec<usize> = nodes.iter().flat_map(|&i| i * sub..(i + 1) * sub).collect();
    code.generator().select_rows(&rows)
}
