//! The file codec: stripes, whole-file decode, byte-range reads, repair.
//!
//! All decode-side paths (whole-stripe decode, degraded range reads, block
//! repair) plan through the shared `access` layer: the codec holds an
//! [`access::PlanCache`] so repeated reads under one failure pattern pay for
//! each Gaussian elimination once, and execution runs the generic
//! [`access::PlanExecutor`] over an in-memory [`access::MemorySource`].

use std::sync::Arc;

use access::{check_range, ExecError, MemorySource, PlanCache, PlanExecutor, StripeGeometry};
use erasure::{CodeError, ColumnUpdater, ErasureCode, SparseEncoder};

use crate::error::FileError;

/// Default number of cached plans per codec — generous for the handful of
/// live-set patterns a degraded file sees.
const DEFAULT_PLAN_CACHE: usize = 32;

/// Maps an executor failure on an in-memory source to a [`FileError`],
/// labeling it with the stripe. `needed` is the plan's block requirement
/// (`k` for reads, `d` for repairs).
fn map_exec(stripe: usize, needed: usize, e: ExecError<std::convert::Infallible>) -> FileError {
    match e {
        ExecError::Source(never) => match never {},
        ExecError::Code(CodeError::InsufficientData { needed, got }) => {
            FileError::StripeUnrecoverable {
                stripe,
                live: got,
                needed,
            }
        }
        ExecError::Code(other) => FileError::Code(other),
        // Unreachable with a well-formed in-memory source (the replan budget
        // is the block count, and each replan shrinks the live set), but
        // mapped defensively.
        ExecError::ReplansExhausted { .. } => FileError::StripeUnrecoverable {
            stripe,
            live: 0,
            needed,
        },
    }
}

/// Metadata of an encoded file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Original file length in bytes.
    pub file_len: u64,
    /// Bytes per encoded block.
    pub block_bytes: usize,
    /// Blocks per stripe (`n`).
    pub n: usize,
    /// Data blocks per stripe (`k`).
    pub k: usize,
    /// Number of stripes.
    pub stripes: usize,
    /// Original data bytes per stripe (`k · block_bytes` for MDS-shaped
    /// codes; less for MBR codes, which store extra per block).
    pub stripe_data_bytes: usize,
    /// Human-readable code name (e.g. `Carousel(12,6,10,12)`).
    pub code_name: String,
}

/// A fixed-geometry file encoder for one erasure code.
#[derive(Debug, Clone)]
pub struct FileCodec<C> {
    code: C,
    geometry: StripeGeometry,
    encoder: SparseEncoder,
    plans: Arc<PlanCache>,
}

impl<C: ErasureCode> FileCodec<C> {
    /// Creates a codec with the given per-block size.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::BadGeometry`] unless `block_bytes` is positive
    /// and divisible by the code's units-per-block (`sub`), so every unit
    /// has a whole number of bytes.
    pub fn new(code: C, block_bytes: usize) -> Result<Self, FileError> {
        let geometry =
            StripeGeometry::new(&code, block_bytes).map_err(|e| FileError::BadGeometry {
                reason: e.to_string(),
            })?;
        let encoder = SparseEncoder::new(code.linear());
        Ok(FileCodec {
            code,
            geometry,
            encoder,
            plans: Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE)),
        })
    }

    /// Replaces the plan cache — share one across codecs, or pass
    /// [`PlanCache::disabled`] to force fresh plans on every read.
    pub fn with_plan_cache(mut self, plans: Arc<PlanCache>) -> Self {
        self.plans = plans;
        self
    }

    /// The plan cache driving this codec's decode paths (hit/miss counters
    /// included).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The underlying code.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// The stripe geometry every path of this codec walks files with.
    pub fn geometry(&self) -> &StripeGeometry {
        &self.geometry
    }

    /// Bytes per encoded block.
    pub fn block_bytes(&self) -> usize {
        self.geometry.block_bytes()
    }

    /// Original data bytes per stripe: `message_units · unit_bytes`
    /// (`k · block_bytes` for MDS-shaped codes).
    pub fn stripe_data_bytes(&self) -> usize {
        self.geometry.stripe_data_bytes()
    }

    /// The metadata of a `file_len`-byte file encoded by this codec.
    pub fn meta_for(&self, file_len: u64) -> FileMeta {
        FileMeta {
            file_len,
            block_bytes: self.block_bytes(),
            n: self.code.n(),
            k: self.code.k(),
            stripes: self.geometry.stripes_for(file_len),
            stripe_data_bytes: self.stripe_data_bytes(),
            code_name: self.code.name(),
        }
    }

    /// Encodes one stripe's worth of data (zero-padded to a full stripe).
    ///
    /// # Errors
    ///
    /// Returns [`FileError::BadGeometry`] if `chunk` exceeds a stripe.
    pub fn encode_stripe(&self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, FileError> {
        let mut stripe = self.empty_stripe();
        self.encode_stripe_into(chunk, &mut stripe)?;
        Ok(stripe.blocks)
    }

    /// A zeroed stripe with this codec's fixed geometry, ready for
    /// [`encode_stripe_into`](FileCodec::encode_stripe_into).
    pub fn empty_stripe(&self) -> erasure::EncodedStripe {
        self.geometry.empty_stripe()
    }

    /// Encodes one stripe's worth of data into `stripe`, reusing its block
    /// buffers — the zero-allocation steady state of
    /// [`stream::encode_stream`](crate::stream::encode_stream), which
    /// re-encodes into the same [`erasure::EncodedStripe`] for every stripe
    /// of the file.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::BadGeometry`] if `chunk` is empty or exceeds a
    /// stripe, or if `stripe` does not match this codec's geometry (start
    /// from [`empty_stripe`](FileCodec::empty_stripe)).
    pub fn encode_stripe_into(
        &self,
        chunk: &[u8],
        stripe: &mut erasure::EncodedStripe,
    ) -> Result<(), FileError> {
        let sdb = self.stripe_data_bytes();
        if chunk.is_empty() || chunk.len() > sdb {
            return Err(FileError::BadGeometry {
                reason: format!("stripe chunk of {} bytes, expected 1..={sdb}", chunk.len()),
            });
        }
        if stripe.block_bytes() != self.block_bytes() {
            return Err(FileError::BadGeometry {
                reason: format!(
                    "stripe buffers hold {}-byte blocks, codec expects {}",
                    stripe.block_bytes(),
                    self.block_bytes()
                ),
            });
        }
        self.encoder.encode_into(chunk, stripe)?;
        Ok(())
    }

    /// Encodes a whole file.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::BadGeometry`] for empty input.
    pub fn encode(&self, data: &[u8]) -> Result<EncodedFile<C>, FileError>
    where
        C: Clone,
    {
        if data.is_empty() {
            return Err(FileError::BadGeometry {
                reason: "cannot encode an empty file".into(),
            });
        }
        let meta = self.meta_for(data.len() as u64);
        let mut stripes = Vec::with_capacity(meta.stripes);
        for chunk in data.chunks(self.stripe_data_bytes()) {
            stripes.push(self.encode_stripe(chunk)?.into_iter().map(Some).collect());
        }
        Ok(EncodedFile {
            codec: self.clone(),
            meta,
            stripes,
        })
    }

    /// Decodes one stripe from its (partially available) blocks, planning
    /// through the shared access layer with the code's own read planner
    /// (a Carousel code reads every carousel copy from `k` live blocks;
    /// any-`k` decode by default).
    ///
    /// # Errors
    ///
    /// Returns [`FileError::StripeUnrecoverable`] with fewer than `k` live
    /// blocks.
    pub fn decode_stripe(&self, blocks: &[Option<Vec<u8>>]) -> Result<Vec<u8>, FileError> {
        self.decode_stripe_at(0, blocks)
    }

    /// [`decode_stripe`](FileCodec::decode_stripe) for stripe `stripe` of a
    /// file: failures are labeled with that index.
    ///
    /// # Errors
    ///
    /// As for [`decode_stripe`](FileCodec::decode_stripe).
    pub fn decode_stripe_at(
        &self,
        stripe: usize,
        blocks: &[Option<Vec<u8>>],
    ) -> Result<Vec<u8>, FileError> {
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let mut source = MemorySource::new(refs, self.geometry.sub());
        let executor = PlanExecutor::new(&self.plans).with_max_replans(self.code.n());
        let read = executor
            .read_stripe(&self.code, &mut source)
            .map_err(|e| map_exec(stripe, self.code.k(), e))?;
        Ok(read.data)
    }
}

/// A file encoded into stripes of blocks, with per-block availability.
#[derive(Debug, Clone)]
pub struct EncodedFile<C> {
    codec: FileCodec<C>,
    meta: FileMeta,
    /// `stripes[s][block]` — `None` once dropped/lost.
    stripes: Vec<Vec<Option<Vec<u8>>>>,
}

impl<C: ErasureCode> EncodedFile<C> {
    /// Creates an encoded file with every block missing — the starting
    /// point for loaders that fill blocks in from storage.
    pub fn empty(codec: FileCodec<C>, meta: FileMeta) -> Self {
        let stripes = (0..meta.stripes)
            .map(|_| (0..meta.n).map(|_| None).collect())
            .collect();
        EncodedFile {
            codec,
            meta,
            stripes,
        }
    }

    /// The file metadata.
    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Borrows a block's bytes, if present.
    pub fn block(&self, stripe: usize, block: usize) -> Option<&[u8]> {
        self.stripes.get(stripe)?.get(block)?.as_deref()
    }

    /// Replaces a block's bytes (used by repair and the on-disk loader).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or wrong block size.
    pub fn set_block(&mut self, stripe: usize, block: usize, bytes: Vec<u8>) {
        assert_eq!(bytes.len(), self.meta.block_bytes, "wrong block size");
        self.stripes[stripe][block] = Some(bytes);
    }

    /// Marks a block lost.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn drop_block(&mut self, stripe: usize, block: usize) {
        self.stripes[stripe][block] = None;
    }

    /// Live block indices of a stripe.
    pub fn live_blocks(&self, stripe: usize) -> Vec<usize> {
        self.stripes[stripe]
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|_| i))
            .collect()
    }

    /// Returns the stripe's blocks as an in-memory [`access::BlockSource`].
    fn stripe_source(&self, stripe: usize) -> MemorySource<'_> {
        let refs: Vec<Option<&[u8]>> = self.stripes[stripe].iter().map(|b| b.as_deref()).collect();
        MemorySource::new(refs, self.codec.geometry.sub())
    }

    /// Decodes one stripe by index, labeling failures with that stripe —
    /// the unit of work for per-stripe parallel decode
    /// (`workloads::parallel::decode_file`).
    ///
    /// # Errors
    ///
    /// Returns [`FileError::StripeUnrecoverable`] with fewer than `k` live
    /// blocks and [`FileError::BadGeometry`] for an out-of-range index.
    pub fn decode_stripe_at(&self, stripe: usize) -> Result<Vec<u8>, FileError> {
        let blocks = self
            .stripes
            .get(stripe)
            .ok_or_else(|| FileError::BadGeometry {
                reason: format!("stripe {stripe} out of range 0..{}", self.stripes.len()),
            })?;
        self.codec.decode_stripe_at(stripe, blocks)
    }

    /// Decodes the entire file.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::StripeUnrecoverable`] naming the first stripe
    /// with fewer than `k` live blocks.
    pub fn decode(&self) -> Result<Vec<u8>, FileError> {
        let mut out = Vec::with_capacity(self.meta.file_len as usize);
        for s in 0..self.stripes.len() {
            out.extend_from_slice(&self.decode_stripe_at(s)?);
        }
        out.truncate(self.meta.file_len as usize);
        Ok(out)
    }

    /// Reads `len` bytes at `offset`, touching only the stripes involved
    /// and decoding a stripe only when a needed unit's block is missing.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::RangeOutOfBounds`] for ranges past the end and
    /// [`FileError::StripeUnrecoverable`] when a needed stripe cannot be
    /// decoded.
    pub fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>, FileError> {
        check_range(offset, len, self.meta.file_len)?;
        let mut out = Vec::with_capacity(len as usize);
        for span in self.codec.geometry.spans(offset, len) {
            self.read_within_stripe(span.index, span.within, span.take, &mut out)?;
        }
        Ok(out)
    }

    /// Repairs a missing block of one stripe in place from `d` live blocks,
    /// using the access layer's (cached) repair plan.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `d` helpers are live or the block is not
    /// actually missing.
    pub fn repair_block(&mut self, stripe: usize, block: usize) -> Result<(), FileError> {
        if self.stripes[stripe][block].is_some() {
            return Err(FileError::BadGeometry {
                reason: format!("block {block} of stripe {stripe} is not missing"),
            });
        }
        let d = self.codec.code.d();
        let mut source = self.stripe_source(stripe);
        let executor = PlanExecutor::new(&self.codec.plans).with_max_replans(self.meta.n);
        let outcome = executor
            .repair_block(&self.codec.code, block, &mut source)
            .map_err(|e| map_exec(stripe, d, e))?;
        self.stripes[stripe][block] = Some(outcome.block);
        Ok(())
    }

    /// Overwrites `bytes` at `offset` *in place*, updating parity with
    /// delta writes: each modified message unit changes every affected
    /// encoded unit by `coeff · Δ` instead of re-encoding whole stripes —
    /// the read-modify-write path of erasure-coded storage.
    ///
    /// Every block of each touched stripe must be present (a real system
    /// would repair first); the write cannot extend the file.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::RangeOutOfBounds`] past EOF and
    /// [`FileError::StripeUnrecoverable`] if a touched stripe has missing
    /// blocks.
    pub fn write_range(&mut self, offset: u64, bytes: &[u8]) -> Result<(), FileError> {
        check_range(offset, bytes.len() as u64, self.meta.file_len)?;
        if bytes.is_empty() {
            return Ok(());
        }
        let updater = ColumnUpdater::new(self.codec.code.linear());
        for span in self.codec.geometry.spans(offset, bytes.len() as u64) {
            // Old bytes of the touched span, read straight from live data
            // regions (an in-place update requires a fully live stripe).
            self.require_live(span.index)?;
            let mut old = Vec::with_capacity(span.take);
            self.read_within_stripe(span.index, span.within, span.take, &mut old)?;
            self.apply_stripe_delta(
                span.index,
                span.within,
                &old,
                &bytes[span.range()],
                &updater,
            )?;
        }
        Ok(())
    }

    /// Appends `bytes` to the file, returning its new length. The tail of
    /// the last stripe (zero padding) is filled in place via delta
    /// updates; overflow becomes freshly encoded stripes.
    ///
    /// # Errors
    ///
    /// Returns [`FileError::StripeUnrecoverable`] if the last stripe has
    /// missing blocks (repair first) and propagates encoding errors for
    /// the overflow stripes.
    pub fn append(&mut self, bytes: &[u8]) -> Result<u64, FileError> {
        if bytes.is_empty() {
            return Ok(self.meta.file_len);
        }
        let geometry = self.codec.geometry;
        let fill = (geometry.padding(self.meta.file_len) as usize).min(bytes.len());
        // The bytes past file_len are implicit zero padding, so the delta
        // of the fill region (one span, in the last stripe) is simply the
        // appended bytes.
        if let Some(span) = geometry.spans(self.meta.file_len, fill as u64).next() {
            let updater = ColumnUpdater::new(self.codec.code.linear());
            let zeros = vec![0u8; fill];
            self.apply_stripe_delta(span.index, span.within, &zeros, &bytes[..fill], &updater)?;
        }
        for chunk in bytes[fill..].chunks(geometry.stripe_data_bytes()) {
            let blocks = self.codec.encode_stripe(chunk)?;
            self.stripes.push(blocks.into_iter().map(Some).collect());
        }
        self.meta = self.codec.meta_for(self.meta.file_len + bytes.len() as u64);
        Ok(self.meta.file_len)
    }

    /// An in-place update needs every block of the stripe present (a real
    /// system would repair first).
    fn require_live(&self, stripe: usize) -> Result<(), FileError> {
        if self.stripes[stripe].iter().any(Option::is_none) {
            return Err(FileError::StripeUnrecoverable {
                stripe,
                live: self.live_blocks(stripe).len(),
                needed: self.meta.n,
            });
        }
        Ok(())
    }

    /// Applies `old → new` at message byte `within` of one stripe via the
    /// erasure layer's stripe-level delta update (all blocks live).
    fn apply_stripe_delta(
        &mut self,
        stripe: usize,
        within: usize,
        old: &[u8],
        new: &[u8],
        updater: &ColumnUpdater,
    ) -> Result<(), FileError> {
        self.require_live(stripe)?;
        // Move the blocks out, apply the delta, move them back.
        let mut blocks: Vec<Vec<u8>> = self.stripes[stripe]
            .iter_mut()
            .map(|b| b.take().expect("checked live"))
            .collect();
        let applied = updater.delta_update(&mut blocks, within, old, new);
        for (slot, block) in self.stripes[stripe].iter_mut().zip(blocks) {
            *slot = Some(block);
        }
        applied.map_err(FileError::Code)?;
        Ok(())
    }

    /// Deep-scrubs the file: for every stripe with all `n` blocks present,
    /// runs the consistency check of [`erasure::consistency`] (subset-vote
    /// corruption localization — no checksums needed). Stripes with missing
    /// blocks are skipped (`None`).
    pub fn scrub(&self) -> Vec<Option<erasure::consistency::StripeHealth>> {
        self.stripes
            .iter()
            .map(|blocks| {
                let refs: Option<Vec<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
                refs.and_then(|refs| {
                    erasure::consistency::check_stripe(self.codec.code.linear(), &refs).ok()
                })
            })
            .collect()
    }

    /// Serves `take` bytes at offset `within` of stripe `stripe`'s data,
    /// copying from live data regions where possible and rebuilding only
    /// the data regions of *missing* blocks (an access-layer degraded
    /// block-region read — `k·(k/p)` block-sizes of work for a Carousel
    /// code instead of a whole-stripe decode).
    fn read_within_stripe(
        &self,
        stripe: usize,
        within: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), FileError> {
        let layout = self.codec.code.data_layout();
        let w = self.codec.geometry.unit_bytes();
        // Rebuilt data regions of missing blocks, reused across units of
        // this call (plans themselves are cached across calls).
        let mut regions: Vec<Option<Vec<u8>>> = vec![None; self.meta.n];
        for unit in self.codec.geometry.units(within, take) {
            let loc = layout
                .locate(unit.index)
                .expect("every file unit is mapped");
            let start = loc.unit * w + unit.within;
            if let Some(bytes) = self.block(stripe, loc.node) {
                out.extend_from_slice(&bytes[start..start + unit.take]);
            } else {
                if regions[loc.node].is_none() {
                    let mut source = self.stripe_source(stripe);
                    let executor =
                        PlanExecutor::new(&self.codec.plans).with_max_replans(self.meta.n);
                    let region = executor
                        .read_block_region(&self.codec.code, loc.node, &mut source)
                        .map_err(|e| map_exec(stripe, self.meta.k, e))?;
                    regions[loc.node] = Some(region.data);
                }
                let region = regions[loc.node].as_ref().expect("just rebuilt");
                let region_start = layout.data_byte_range(loc.node, w).start;
                out.extend_from_slice(
                    &region[start - region_start..start - region_start + unit.take],
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carousel::Carousel;
    use rs_code::ReedSolomon;

    fn data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn geometry_validation() {
        let code = Carousel::new(6, 3, 3, 6).unwrap(); // sub = 2
        assert!(FileCodec::new(code.clone(), 0).is_err());
        assert!(FileCodec::new(code.clone(), 101).is_err());
        assert!(FileCodec::new(code, 100).is_ok());
    }

    #[test]
    fn encode_decode_multi_stripe() {
        let codec = FileCodec::new(ReedSolomon::new(6, 4).unwrap(), 256).unwrap();
        let file = data(3000); // 2.9 stripes of 1024
        let enc = codec.encode(&file).unwrap();
        assert_eq!(enc.stripes(), 3);
        assert_eq!(enc.meta().file_len, 3000);
        assert_eq!(enc.decode().unwrap(), file);
    }

    #[test]
    fn decode_with_failures_per_stripe() {
        let codec = FileCodec::new(Carousel::new(6, 3, 3, 6).unwrap(), 300).unwrap();
        let file = data(2000);
        let mut enc = codec.encode(&file).unwrap();
        for s in 0..enc.stripes() {
            enc.drop_block(s, s % 6);
            enc.drop_block(s, (s + 3) % 6);
        }
        assert_eq!(enc.decode().unwrap(), file);
    }

    #[test]
    fn too_many_failures_names_the_stripe() {
        let codec = FileCodec::new(ReedSolomon::new(4, 2).unwrap(), 64).unwrap();
        let file = data(400); // 4 stripes of 128
        let mut enc = codec.encode(&file).unwrap();
        for b in 0..3 {
            enc.drop_block(2, b);
        }
        match enc.decode() {
            Err(FileError::StripeUnrecoverable {
                stripe,
                live,
                needed,
            }) => {
                assert_eq!((stripe, live, needed), (2, 1, 2));
            }
            other => panic!("expected StripeUnrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn range_reads_match_source() {
        let codec = FileCodec::new(Carousel::new(5, 3, 3, 5).unwrap(), 120).unwrap();
        let file = data(2500);
        let enc = codec.encode(&file).unwrap();
        for (off, len) in [
            (0u64, 1u64),
            (359, 2),
            (0, 2500),
            (1000, 720),
            (2499, 1),
            (123, 456),
        ] {
            let got = enc.read_range(off, len).unwrap();
            assert_eq!(
                got,
                &file[off as usize..(off + len) as usize],
                "({off},{len})"
            );
        }
        assert!(enc.read_range(2400, 200).is_err());
        // The offset arrives from the CLI: an overflowing sum is a range
        // error, not a wrapped-around pass.
        assert!(matches!(
            enc.read_range(u64::MAX, 2),
            Err(FileError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn range_reads_survive_failures() {
        let codec = FileCodec::new(Carousel::new(6, 4, 4, 6).unwrap(), 240).unwrap();
        let file = data(4000);
        let mut enc = codec.encode(&file).unwrap();
        enc.drop_block(0, 0);
        enc.drop_block(1, 3);
        for (off, len) in [(0u64, 500u64), (900, 1200), (0, 4000)] {
            let got = enc.read_range(off, len).unwrap();
            assert_eq!(got, &file[off as usize..(off + len) as usize]);
        }
    }

    #[test]
    fn repair_restores_byte_identical_blocks() {
        let codec = FileCodec::new(Carousel::new(8, 4, 6, 8).unwrap(), 480).unwrap();
        let file = data(5000);
        let mut enc = codec.encode(&file).unwrap();
        let original = enc.block(1, 2).unwrap().to_vec();
        enc.drop_block(1, 2);
        enc.repair_block(1, 2).unwrap();
        assert_eq!(enc.block(1, 2).unwrap(), &original[..]);
        // Repairing a present block is an error.
        assert!(enc.repair_block(1, 2).is_err());
    }

    #[test]
    fn write_range_updates_data_and_parity() {
        let codec = FileCodec::new(Carousel::new(6, 3, 3, 6).unwrap(), 60).unwrap();
        let mut file = data(500);
        let mut enc = codec.encode(&file).unwrap();
        // Overwrite a span crossing unit and stripe boundaries.
        let patch: Vec<u8> = (0..177).map(|i| (i * 3 + 200) as u8).collect();
        enc.write_range(150, &patch).unwrap();
        file[150..150 + 177].copy_from_slice(&patch);
        // Every k-subset decodes the updated file: parity followed the data.
        assert_eq!(enc.decode().unwrap(), file);
        let mut lossy = enc.clone();
        lossy.drop_block(0, 0);
        lossy.drop_block(1, 3);
        lossy.drop_block(2, 5);
        assert_eq!(lossy.decode().unwrap(), file);
        assert_eq!(enc.read_range(140, 200).unwrap(), &file[140..340]);
    }

    #[test]
    fn write_range_validates() {
        let codec = FileCodec::new(ReedSolomon::new(4, 2).unwrap(), 32).unwrap();
        let file = data(200);
        let mut enc = codec.encode(&file).unwrap();
        assert!(enc.write_range(150, &[0u8; 100]).is_err(), "past EOF");
        assert!(matches!(
            enc.write_range(u64::MAX, &[1, 2]),
            Err(FileError::RangeOutOfBounds { .. })
        ));
        enc.write_range(10, &[]).unwrap();
        enc.drop_block(0, 1);
        assert!(matches!(
            enc.write_range(0, &[1, 2, 3]),
            Err(FileError::StripeUnrecoverable { .. })
        ));
    }

    #[test]
    fn scrub_localizes_silent_corruption() {
        use erasure::consistency::StripeHealth;
        let codec = FileCodec::new(ReedSolomon::new(6, 3).unwrap(), 120).unwrap();
        let file = data(700);
        let mut enc = codec.encode(&file).unwrap();
        assert!(enc
            .scrub()
            .iter()
            .all(|h| *h == Some(StripeHealth::Consistent)));
        // Silently corrupt one block of stripe 1.
        let mut bad = enc.block(1, 4).unwrap().to_vec();
        bad[10] ^= 0x08;
        enc.set_block(1, 4, bad);
        let health = enc.scrub();
        assert_eq!(health[0], Some(StripeHealth::Consistent));
        assert_eq!(health[1], Some(StripeHealth::Corrupt(vec![4])));
        // A stripe with a missing block is skipped.
        enc.drop_block(0, 0);
        assert_eq!(enc.scrub()[0], None);
    }

    #[test]
    fn stripe_chunk_size_validation() {
        let codec = FileCodec::new(ReedSolomon::new(4, 2).unwrap(), 64).unwrap();
        assert!(codec.encode_stripe(&[]).is_err());
        assert!(codec.encode_stripe(&data(129)).is_err());
        assert!(codec.encode_stripe(&data(128)).is_ok());
        assert!(codec.encode_stripe(&data(5)).is_ok(), "short chunks padded");
    }

    #[test]
    fn empty_file_rejected() {
        let codec = FileCodec::new(ReedSolomon::new(4, 2).unwrap(), 64).unwrap();
        assert!(codec.encode(&[]).is_err());
    }
}
