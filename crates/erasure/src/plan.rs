//! Read plans as pure data: which `(node, unit)` payloads to fetch and how
//! to combine them, independent of any transport.
//!
//! There is one plan type per kind of read. A [`ReadPlan`] recovers a
//! whole stripe's original data; a [`DegradedPlan`] rebuilds one block's
//! *data region* (its contiguous file chunk) without decoding the whole
//! stripe. A code family produces them through
//! [`ErasureCode::plan_read`] and [`ErasureCode::plan_block_read`]; the
//! generic any-`k`-blocks planners here are those methods' default bodies.
//! Callers never branch on the code — they ask for `sources()`, hand back
//! payloads, and call `decode_units`.

use gf256::Gf256;

use crate::decode::{gather_units, DecodePlan};
use crate::error::CodeError;
use crate::layout::DataLayout;
use crate::linear::LinearCode;
use crate::{check_indices, ErasureCode};

/// How a [`ReadPlan`] obtains the stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Every data-bearing block is available: the plan reads original data
    /// only, and every row of its decode is a copy.
    Direct,
    /// A data-bearing block is lost: other blocks' units stand in for it
    /// and decoding is needed.
    Degraded,
}

/// A plan to read one whole stripe's original data: a [`ReadMode`] plus the
/// [`DecodePlan`] that lists the sources and combines them.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    mode: ReadMode,
    decode: DecodePlan,
}

impl ReadPlan {
    /// Wraps the decode a family's planner chose, labelled with its mode.
    pub fn new(mode: ReadMode, decode: DecodePlan) -> Self {
        ReadPlan { mode, decode }
    }

    /// Plans a stripe read over the `available` blocks (order-insensitive):
    /// shorthand for [`ErasureCode::plan_read`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] when fewer than `k` blocks
    /// are available, and index errors for malformed availability lists.
    pub fn plan(code: &dyn ErasureCode, available: &[usize]) -> Result<Self, CodeError> {
        code.plan_read(available)
    }

    /// How the stripe is served.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// Every `(node, stored unit)` to fetch, in the order
    /// [`ReadPlan::decode_units`] expects. A networked reader uses this to
    /// fetch *only* the needed units from each server.
    pub fn sources(&self) -> &[(usize, usize)] {
        self.decode.sources()
    }

    /// Sources grouped per node: `(node, units fetched)` — the per-server
    /// download volume.
    pub fn units_per_node(&self) -> Vec<(usize, usize)> {
        group_units(self.sources())
    }

    /// Number of distinct blocks read in parallel.
    pub fn parallelism(&self) -> usize {
        self.units_per_node().len()
    }

    /// Total units fetched.
    pub fn traffic_units(&self) -> usize {
        self.sources().len()
    }

    /// Traffic in block-sizes.
    pub fn traffic_blocks(&self) -> f64 {
        self.traffic_units() as f64 / self.decode.sub() as f64
    }

    /// The decode this plan runs: its sources, inverse and copy rows.
    pub fn decode_plan(&self) -> &DecodePlan {
        &self.decode
    }

    /// Combines fetched unit payloads (`units[i]` is `sources()[i]`, all of
    /// equal width) into the stripe's original data, padding included.
    ///
    /// # Errors
    ///
    /// Count and width mismatches surface as [`CodeError`]s.
    pub fn decode_units(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        self.decode.decode_units(units)
    }

    /// Appends bytes `[within, within + take)` of the stripe's original data
    /// to `out`: [`DecodePlan::decode_into`], which copies a
    /// [`ReadMode::Direct`] plan's units and combines nothing.
    ///
    /// # Errors
    ///
    /// Count, width and window errors surface as [`CodeError`]s.
    pub fn decode_into(
        &self,
        units: &[&[u8]],
        within: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        self.decode.decode_into(units, within, take, out)
    }

    /// Executes the plan against per-node blocks (`None` = unavailable),
    /// returning the stripe's (padded) original data.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] if a planned source block is
    /// `None`, and size-mismatch errors for ragged blocks.
    pub fn execute(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        self.decode_units(&gather_units(self.sources(), self.decode.sub(), blocks)?)
    }
}

/// One independent solve inside a [`DegradedPlan`]: a set of sources and
/// the region units they produce.
#[derive(Debug, Clone)]
pub struct RegionSolve {
    /// `(node, stored unit)` sources.
    pub sources: Vec<(usize, usize)>,
    /// For each output unit: `(position in the data region, coefficients
    /// over `sources`)`.
    pub outputs: Vec<(usize, Vec<Gf256>)>,
}

/// A plan to rebuild one block's *data region* (its contiguous file chunk)
/// without decoding the whole stripe.
///
/// The region is produced by one or more independent solves: the generic
/// planner uses one (the target's rows of an any-`k` inverse), a Carousel
/// code one per affected carousel copy.
#[derive(Debug, Clone)]
pub struct DegradedPlan {
    target: usize,
    /// Every solve's sources, flattened in solve order.
    sources: Vec<(usize, usize)>,
    solves: Vec<RegionSolve>,
    /// Units in the target's data region.
    region_units: usize,
    sub: usize,
}

impl DegradedPlan {
    /// Assembles a plan for `target`'s `region_units`-unit data region, in
    /// blocks of `sub` units, from a family's solves.
    ///
    /// # Panics
    ///
    /// Panics if an output position lies outside the region or a
    /// coefficient row does not match its solve's source count — solves
    /// come from code constructions, so that is a construction bug.
    pub fn new(target: usize, sub: usize, region_units: usize, solves: Vec<RegionSolve>) -> Self {
        let mut sources = Vec::new();
        for solve in &solves {
            for (pos, row) in &solve.outputs {
                assert!(*pos < region_units, "output unit {pos} outside the region");
                assert_eq!(row.len(), solve.sources.len(), "one coefficient per source");
            }
            sources.extend_from_slice(&solve.sources);
        }
        DegradedPlan {
            target,
            sources,
            solves,
            region_units,
            sub,
        }
    }

    /// The block whose region this plan rebuilds.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Every `(node, stored unit)` to fetch, in the order
    /// [`DegradedPlan::decode_units`] expects.
    pub fn sources(&self) -> &[(usize, usize)] {
        &self.sources
    }

    /// Sources grouped per node: `(node, units fetched)`.
    pub fn units_per_node(&self) -> Vec<(usize, usize)> {
        group_units(&self.sources)
    }

    /// Total units fetched.
    pub fn traffic_units(&self) -> usize {
        self.sources.len()
    }

    /// Traffic in block-sizes: `k` for the generic planner, `k·(k/p)` for a
    /// Carousel code.
    pub fn traffic_blocks(&self) -> f64 {
        self.traffic_units() as f64 / self.sub as f64
    }

    /// Combines fetched unit payloads (`units[i]` is `sources()[i]`, all of
    /// equal width) into the target's data region, in the same unit order
    /// the block itself stores (so `locate()` offsets apply unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] on a count mismatch and
    /// [`CodeError::BlockSizeMismatch`] for ragged unit widths.
    pub fn decode_units(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        if units.len() != self.sources.len() {
            return Err(CodeError::InsufficientData {
                needed: self.sources.len(),
                got: units.len(),
            });
        }
        let w = units.first().map_or(0, |u| u.len());
        if let Some(bad) = units.iter().find(|u| u.len() != w) {
            return Err(CodeError::BlockSizeMismatch {
                expected: w,
                actual: bad.len(),
            });
        }
        let kernel = gf256::kernel();
        let mut out = vec![0u8; self.region_units * w];
        let mut terms = Vec::new();
        let mut off = 0;
        for solve in &self.solves {
            let slices = &units[off..off + solve.sources.len()];
            for (pos, row) in &solve.outputs {
                terms.clear();
                terms.extend(row.iter().zip(slices).map(|(&c, &src)| (c, src)));
                kernel.mul_acc_rows(&terms, &mut out[pos * w..(pos + 1) * w]);
            }
            off += slices.len();
        }
        Ok(out)
    }

    /// Executes the plan against per-node blocks (`None` = unavailable),
    /// returning the bytes of the target's data region.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] if a source block is `None`
    /// and size-mismatch errors for ragged blocks.
    pub fn execute(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        self.decode_units(&gather_units(&self.sources, self.sub, blocks)?)
    }
}

/// The generic stripe read, default body of [`ErasureCode::plan_read`]: the
/// first `k` blocks when all are available (direct, for a systematic
/// code), otherwise the `k` lowest-numbered live blocks (degraded).
pub(crate) fn any_k_read(code: &LinearCode, available: &[usize]) -> Result<ReadPlan, CodeError> {
    let k = code.k();
    check_indices(code.n(), available)?;
    let (mode, nodes) = if (0..k).all(|i| available.contains(&i)) {
        (ReadMode::Direct, (0..k).collect())
    } else {
        (ReadMode::Degraded, lowest_k(available.to_vec(), k)?)
    };
    Ok(ReadPlan::new(mode, DecodePlan::for_nodes(code, &nodes)?))
}

/// The generic region read, default body of
/// [`ErasureCode::plan_block_read`]: one solve over the `k` lowest-numbered
/// live blocks other than `target`, keeping only the rows of the inverse
/// that produce the target's file units.
pub(crate) fn any_k_block_read(
    code: &LinearCode,
    layout: &DataLayout,
    target: usize,
    available: &[usize],
) -> Result<DegradedPlan, CodeError> {
    let (n, k) = (code.n(), code.k());
    check_indices(n, available)?;
    if target >= n {
        return Err(CodeError::NodeOutOfRange { node: target, n });
    }
    let region = layout.data_units_of(target);
    if region.is_empty() {
        return Err(CodeError::InvalidParameters {
            reason: format!("block {target} carries no original data"),
        });
    }
    let others = available.iter().copied().filter(|&a| a != target).collect();
    let decode = DecodePlan::for_nodes(code, &lowest_k(others, k)?)?;
    let outputs = region
        .iter()
        .enumerate()
        .map(|(pos, &file_unit)| (pos, decode.message_row(file_unit).to_vec()))
        .collect();
    let solve = RegionSolve {
        sources: decode.sources().to_vec(),
        outputs,
    };
    Ok(DegradedPlan::new(
        target,
        code.sub(),
        region.len(),
        vec![solve],
    ))
}

/// The `k` lowest-numbered blocks of `pool`.
fn lowest_k(mut pool: Vec<usize>, k: usize) -> Result<Vec<usize>, CodeError> {
    if pool.len() < k {
        return Err(CodeError::InsufficientData {
            needed: k,
            got: pool.len(),
        });
    }
    pool.sort_unstable();
    pool.truncate(k);
    Ok(pool)
}

/// Groups `(node, unit)` sources into per-node fetch counts, preserving
/// first-appearance node order.
fn group_units(sources: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut per: Vec<(usize, usize)> = Vec::new();
    for &(node, _) in sources {
        match per.iter_mut().find(|(nd, _)| *nd == node) {
            Some((_, c)) => *c += 1,
            None => per.push((node, 1)),
        }
    }
    per
}
