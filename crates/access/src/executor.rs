//! The one replanning loop.
//!
//! Every transport used to hand-roll the same state machine: plan against
//! believed availability, fetch, and when a node dies mid-read drop it and
//! replan. [`PlanExecutor`] is that machine, written once, bounded (a
//! cluster where nodes keep failing mid-read must not livelock), and generic
//! over [`BlockSource`] — so the in-memory store and the TCP client cannot
//! diverge from each other or from the paper's math.
//!
//! A stripe read, a block-region read and a repair all run the same round:
//! plan against the available set, hand the plan's requests to
//! [`BlockSource::fetch`] as *one* batch (so a transport can fan them out
//! to distinct nodes concurrently), and hold every slot to the payload
//! length its request names. A slot that is anything else — `Unavailable`,
//! a wrong length, or missing from the result — names a dead node; one
//! replan routes around *every* node that failed in the round, not one
//! node at a time. The operations differ only in how they plan and in the
//! kind of request they issue.
//!
//! Payloads are never re-cut: each node's answer is kept whole, and decode
//! reads the planned units as slices into it.

use std::sync::{Arc, LazyLock};

use erasure::{CodeError, ErasureCode, ReadMode, ReadPlan};

use crate::cache::PlanCache;
use crate::source::{BatchRequest, BlockSource, Fetch};

static FETCH_FANOUT: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("access.fetch.fanout"));
static REPAIR_DECODE: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("access.phase.decode_us"));

/// Default bound on mid-operation replans before giving up.
pub const DEFAULT_MAX_REPLANS: usize = 8;

/// Why an executor-driven operation failed.
#[derive(Debug)]
pub enum ExecError<E> {
    /// The transport hit a fault the executor cannot route around.
    Source(E),
    /// Planning or combining failed (most commonly
    /// [`CodeError::InsufficientData`]: too few blocks left).
    Code(CodeError),
    /// Nodes kept failing mid-operation until the replan budget ran out.
    ReplansExhausted {
        /// Replans attempted before giving up.
        attempts: usize,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Source(e) => write!(f, "block source error: {e}"),
            ExecError::Code(e) => write!(f, "planning error: {e}"),
            ExecError::ReplansExhausted { attempts } => {
                write!(f, "gave up after {attempts} mid-operation replans")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ExecError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Source(e) => Some(e),
            ExecError::Code(e) => Some(e),
            ExecError::ReplansExhausted { .. } => None,
        }
    }
}

impl<E> From<CodeError> for ExecError<E> {
    fn from(e: CodeError) -> Self {
        ExecError::Code(e)
    }
}

/// A decoded stripe, with how it was obtained.
#[derive(Debug, Clone)]
pub struct StripeRead {
    /// The stripe's original data (padding included).
    pub data: Vec<u8>,
    /// The read mode of the plan that finally succeeded.
    pub mode: ReadMode,
    /// Mid-read replans that were needed (0 = first plan worked).
    pub replans: usize,
}

/// A fetched-but-not-yet-decoded stripe: the payloads of a successful
/// plan, still attached to the plan that knows how to decode them.
///
/// Splitting the fetch from the decode is what makes stripe pipelining
/// possible: the fetch half runs on a worker while the caller decodes the
/// previous stripe. The struct is pure data (the plan is `Arc`-shared pure
/// data too), so it crosses threads freely.
#[derive(Debug, Clone)]
pub struct FetchedStripe(Round<ReadPlan, UnitLayout>);

impl FetchedStripe {
    /// The read mode of the plan that succeeded.
    pub fn mode(&self) -> ReadMode {
        self.0.plan.mode()
    }

    /// Mid-read replans that were needed (0 = first plan worked).
    pub fn replans(&self) -> usize {
        self.0.replans
    }

    /// Decodes the fetched units into the stripe's original data
    /// (padding included) — the deferred half of
    /// [`PlanExecutor::read_stripe`]; the whole-stripe window of
    /// [`FetchedStripe::decode_into`].
    ///
    /// # Errors
    ///
    /// Propagates decode failures from the plan.
    pub fn decode(&self) -> Result<Vec<u8>, CodeError> {
        let Round {
            plan,
            payloads,
            layout,
            ..
        } = &self.0;
        plan.decode_units(&layout.slices(payloads))
    }

    /// Appends bytes `[within, within + take)` of the stripe's original
    /// data to `out`, straight from the fetched payloads: a copy per
    /// planned unit on the direct path, GF(2⁸) work only for the units a
    /// degraded plan must combine ([`erasure::DecodePlan::decode_into`]).
    ///
    /// # Errors
    ///
    /// Propagates decode failures from the plan, and a window past the
    /// stripe's end.
    pub fn decode_into(
        &self,
        within: usize,
        take: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        let Round {
            plan,
            payloads,
            layout,
            ..
        } = &self.0;
        plan.decode_into(&layout.slices(payloads), within, take, out)
    }
}

/// A reconstructed block data region, with how it was obtained.
#[derive(Debug, Clone)]
pub struct RegionRead {
    /// The target block's data region bytes.
    pub data: Vec<u8>,
    /// Mid-read replans that were needed.
    pub replans: usize,
}

/// A repaired block, with how it was obtained.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The rebuilt block, bit-identical to the lost one.
    pub block: Vec<u8>,
    /// Total helper payload bytes consumed by the successful plan — the
    /// paper's repair traffic (excludes payloads of abandoned attempts).
    pub payload_bytes: usize,
    /// Mid-repair replans that were needed.
    pub replans: usize,
}

/// Drives plans from a [`PlanCache`] against a [`BlockSource`], replanning
/// around mid-operation failures.
#[derive(Debug, Clone, Copy)]
pub struct PlanExecutor<'a> {
    cache: &'a PlanCache,
    max_replans: usize,
}

impl<'a> PlanExecutor<'a> {
    /// An executor planning through `cache` with the default replan budget.
    pub fn new(cache: &'a PlanCache) -> Self {
        PlanExecutor {
            cache,
            max_replans: DEFAULT_MAX_REPLANS,
        }
    }

    /// Overrides the replan budget.
    pub fn with_max_replans(mut self, max_replans: usize) -> Self {
        self.max_replans = max_replans;
        self
    }

    /// Fetches one stripe's units without decoding them: the plan and its
    /// payloads come back as a [`FetchedStripe`] whose
    /// [`decode`](FetchedStripe::decode) can run later, on another thread,
    /// overlapped with the next stripe's fetch.
    ///
    /// # Errors
    ///
    /// [`ExecError::Code`] when too few blocks remain, [`ExecError::Source`]
    /// on transport faults, [`ExecError::ReplansExhausted`] when the budget
    /// runs out.
    pub fn fetch_stripe<S: BlockSource>(
        &self,
        code: &dyn ErasureCode,
        source: &mut S,
    ) -> Result<FetchedStripe, ExecError<S::Error>> {
        let w = source.unit_bytes();
        self.fetch_replanning(
            None,
            source,
            |live| self.cache.read_plan(code, live),
            |plan| unit_batch(plan.sources(), w),
        )
        .map(FetchedStripe)
    }

    /// Reads one stripe's original data, degrading and replanning as nodes
    /// fail.
    ///
    /// # Errors
    ///
    /// As for [`PlanExecutor::fetch_stripe`].
    pub fn read_stripe<S: BlockSource>(
        &self,
        code: &dyn ErasureCode,
        source: &mut S,
    ) -> Result<StripeRead, ExecError<S::Error>> {
        let fetched = self.fetch_stripe(code, source)?;
        Ok(StripeRead {
            data: fetched.decode()?,
            mode: fetched.mode(),
            replans: fetched.replans(),
        })
    }

    /// Rebuilds the data region of block `target` (typically lost) without
    /// reading the whole stripe.
    ///
    /// # Errors
    ///
    /// As for [`PlanExecutor::fetch_stripe`].
    pub fn read_block_region<S: BlockSource>(
        &self,
        code: &dyn ErasureCode,
        target: usize,
        source: &mut S,
    ) -> Result<RegionRead, ExecError<S::Error>> {
        let w = source.unit_bytes();
        let round = self.fetch_replanning(
            Some(target),
            source,
            |live| self.cache.degraded_plan(code, target, live),
            |plan| unit_batch(plan.sources(), w),
        )?;
        let data = round
            .plan
            .decode_units(&round.layout.slices(&round.payloads))?;
        Ok(RegionRead {
            data,
            replans: round.replans,
        })
    }

    /// Repairs block `failed` from the first `d` available helpers,
    /// swapping in fresh helpers (and re-deriving coefficients) when one
    /// dies mid-repair.
    ///
    /// # Errors
    ///
    /// As for [`PlanExecutor::fetch_stripe`]; fewer than `d` helpers left
    /// is [`CodeError::InsufficientData`].
    pub fn repair_block<S: BlockSource>(
        &self,
        code: &dyn ErasureCode,
        failed: usize,
        source: &mut S,
    ) -> Result<RepairOutcome, ExecError<S::Error>> {
        let d = code.d();
        let round = self.fetch_replanning(
            Some(failed),
            source,
            |live| match live.get(..d) {
                Some(helpers) => self.cache.repair_plan(code, failed, helpers),
                None => Err(CodeError::InsufficientData {
                    needed: d,
                    got: live.len(),
                }),
            },
            |plan| {
                let requests = plan.helpers.iter().map(|task| BatchRequest::Repair {
                    node: task.node,
                    task,
                });
                (requests.collect(), ())
            },
        )?;
        let payload_bytes = round.payloads.iter().map(Vec::len).sum();
        let combined_at = std::time::Instant::now();
        let block = round.plan.combine_payloads(&round.payloads)?;
        REPAIR_DECODE.record(combined_at.elapsed().as_micros() as u64);
        Ok(RepairOutcome {
            block,
            payload_bytes,
            replans: round.replans,
        })
    }

    /// The replanning loop under every operation: `plan` against the
    /// source's available nodes (less `exclude`, the block being rebuilt),
    /// issue the plan's `batch` as one fetch, and hold each slot to the
    /// payload length its request names. Any other slot — unavailable,
    /// wrong length, or absent from the result — names a dead node; all of
    /// a round's dead nodes are dropped together and the operation plans
    /// again, within the replan budget.
    fn fetch_replanning<S: BlockSource, P, L>(
        &self,
        exclude: Option<usize>,
        source: &mut S,
        plan: impl Fn(&[usize]) -> Result<Arc<P>, CodeError>,
        batch: impl Fn(&P) -> (Vec<BatchRequest<'_>>, L),
    ) -> Result<Round<P, L>, ExecError<S::Error>> {
        let mut available = source.available();
        available.sort_unstable();
        available.retain(|&n| Some(n) != exclude);
        let w = source.unit_bytes();
        let mut replans = 0;
        loop {
            let planned = plan(&available)?;
            let (requests, layout) = batch(&planned);
            FETCH_FANOUT.record(requests.len() as u64);
            let mut fetches = source
                .fetch(&requests)
                .map_err(ExecError::Source)?
                .into_iter();
            let mut payloads = Vec::with_capacity(requests.len());
            let mut dead = Vec::new();
            for request in &requests {
                match fetches.next() {
                    Some(Fetch::Data(bytes)) if bytes.len() == request.payload_bytes(w) => {
                        payloads.push(bytes);
                    }
                    _ => dead.push(request.node()),
                }
            }
            if dead.is_empty() {
                return Ok(Round {
                    plan: planned,
                    payloads,
                    layout,
                    replans,
                });
            }
            available.retain(|n| !dead.contains(n));
            replans += 1;
            if replans > self.max_replans {
                return Err(ExecError::ReplansExhausted { attempts: replans });
            }
        }
    }
}

/// What a successful round of the replanning loop hands back.
#[derive(Debug, Clone)]
struct Round<P, L> {
    /// The plan that worked.
    plan: Arc<P>,
    /// One payload per request of the plan's batch, in request order.
    payloads: Vec<Vec<u8>>,
    /// Whatever the batch builder returned beside its requests.
    layout: L,
    /// Replans it took.
    replans: usize,
}

/// Where each planned `(node, unit)` source of a unit-level plan lies in
/// the payloads of its batch, which are kept whole as their nodes sent
/// them.
#[derive(Debug, Clone)]
struct UnitLayout {
    /// Per planned source, in plan order: `(request, byte offset)`.
    at: Vec<(usize, usize)>,
    unit_bytes: usize,
}

impl UnitLayout {
    /// The planned units in plan order, borrowed from `payloads`.
    fn slices<'a>(&self, payloads: &'a [Vec<u8>]) -> Vec<&'a [u8]> {
        let w = self.unit_bytes;
        self.at
            .iter()
            .map(|&(request, offset)| &payloads[request][offset..offset + w])
            .collect()
    }
}

/// The batch of a unit-level plan: one [`BatchRequest::Units`] per node of
/// `sources` (in first-appearance order, units in plan order), and where
/// each source's `unit_bytes`-wide unit will lie in the payloads.
fn unit_batch(
    sources: &[(usize, usize)],
    unit_bytes: usize,
) -> (Vec<BatchRequest<'static>>, UnitLayout) {
    let mut requests: Vec<BatchRequest<'static>> = Vec::new();
    let mut at = Vec::with_capacity(sources.len());
    for &(node, unit) in sources {
        let request = requests
            .iter()
            .position(|r| r.node() == node)
            .unwrap_or_else(|| {
                requests.push(BatchRequest::Units {
                    node,
                    units: Vec::new(),
                });
                requests.len() - 1
            });
        let BatchRequest::Units { units, .. } = &mut requests[request] else {
            unreachable!("unit batches hold only unit requests");
        };
        at.push((request, units.len() * unit_bytes));
        units.push(unit);
    }
    (requests, UnitLayout { at, unit_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use carousel::Carousel;

    fn encoded(code: &Carousel, stripes_of: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * stripes_of).map(|i| (i * 37 + 11) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        (data, stripe.blocks)
    }

    #[test]
    fn reads_degrade_and_replan() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, blocks) = encoded(&code, 8);
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);

        // All blocks live: direct read.
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
        let read = executor
            .read_stripe(&code, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_eq!(read.mode, ReadMode::Direct);
        assert_eq!(read.replans, 0);
        assert_eq!(&read.data[..data.len()], &data[..]);

        // One block lost: degraded, still byte-identical.
        let refs: Vec<Option<&[u8]>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != 2).then_some(&b[..]))
            .collect();
        let read = executor
            .read_stripe(&code, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_ne!(read.mode, ReadMode::Direct);
        assert_eq!(&read.data[..data.len()], &data[..]);
    }

    #[test]
    fn fetch_decode_split_matches_read_stripe() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, blocks) = encoded(&code, 8);
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        let refs: Vec<Option<&[u8]>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != 1).then_some(&b[..]))
            .collect();
        let fetched = executor
            .fetch_stripe(&code, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_ne!(fetched.mode(), ReadMode::Direct);
        assert_eq!(fetched.replans(), 0);
        assert_eq!(&fetched.decode().unwrap()[..data.len()], &data[..]);
    }

    #[test]
    fn block_region_read_matches_stored_block() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (_, blocks) = encoded(&code, 8);
        let layout = code.data_layout();
        let w = blocks[0].len() / code.sub();
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        let refs: Vec<Option<&[u8]>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != 1).then_some(&b[..]))
            .collect();
        let region = executor
            .read_block_region(&code, 1, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_eq!(region.data, blocks[1][layout.data_byte_range(1, w)]);
    }

    #[test]
    fn repair_rebuilds_bit_identical_blocks() {
        for (n, k, d, p) in [(6, 3, 3, 6), (8, 4, 6, 8)] {
            let code = Carousel::new(n, k, d, p).unwrap();
            let (_, blocks) = encoded(&code, 8);
            let cache = PlanCache::new(8);
            let executor = PlanExecutor::new(&cache);
            let refs: Vec<Option<&[u8]>> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (i != 0).then_some(&b[..]))
                .collect();
            let outcome = executor
                .repair_block(&code, 0, &mut MemorySource::new(refs, code.sub()))
                .unwrap();
            assert_eq!(outcome.block, blocks[0], "({n},{k},{d},{p})");
            let w = blocks[0].len() / code.sub();
            let expect_units: usize = code
                .repair_plan(0, &(1..=d).collect::<Vec<_>>())
                .unwrap()
                .traffic_units();
            assert_eq!(outcome.payload_bytes, expect_units * w);
        }
    }

    #[test]
    fn repeated_degraded_reads_hit_the_cache() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        for _ in 0..10 {
            let (d, blocks) = encoded(&code, 8);
            let refs: Vec<Option<&[u8]>> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (i != 4).then_some(&b[..]))
                .collect();
            let read = executor
                .read_stripe(&code, &mut MemorySource::new(refs, code.sub()))
                .unwrap();
            assert_eq!(&read.data[..d.len()], &d[..]);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 9);
        assert!(cache.hit_rate() >= 0.9);
    }
}
