//! Batched fetches are an optimization, never a semantic change: on every
//! `BlockSource`, `fetch_batch` must produce exactly the `Fetch` sequence
//! of the scalar `fetch_units`/`repair_read` calls it replaces — including
//! the `Unavailable` slots of dead nodes, at their request indices.
//!
//! The native override (`MemorySource`) is compared against the trait's
//! default sequential loop via a wrapper that forwards only the scalar
//! methods, so the default is always the reference. The TCP
//! `StripeSource` gets the same treatment in an in-crate test in
//! `cluster::client` (it is not constructible from here).

use access::{BatchRequest, BlockSource, Fetch, MemorySource, PlanCache};
use carousel::Carousel;
use erasure::{ErasureCode, HelperTask};
use proptest::prelude::*;

/// Forwards only the scalar methods of `S`, so its `fetch_batch` is the
/// trait's default sequential loop — the reference behavior every native
/// batch override must reproduce.
struct Seq<S>(S);

impl<S: BlockSource> BlockSource for Seq<S> {
    type Error = S::Error;

    fn block_count(&self) -> usize {
        self.0.block_count()
    }

    fn unit_bytes(&self) -> usize {
        self.0.unit_bytes()
    }

    fn available(&mut self) -> Vec<usize> {
        self.0.available()
    }

    fn fetch_units(&mut self, node: usize, units: &[usize]) -> Result<Fetch, Self::Error> {
        self.0.fetch_units(node, units)
    }

    fn repair_read(&mut self, node: usize, task: &HelperTask) -> Result<Fetch, Self::Error> {
        self.0.repair_read(node, task)
    }
}

/// Small Carousel geometries with distinct sub-packetizations, including
/// an MSR-regime one (d > k).
const GEOMETRIES: [(usize, usize, usize, usize); 3] = [(4, 2, 2, 4), (6, 3, 3, 6), (8, 4, 6, 8)];

/// Per-node unit selections: each node gets a distinct, order-scrambled
/// subset of the stored units, derived from `seed`.
fn unit_requests(n: usize, sub: usize, seed: usize) -> Vec<BatchRequest<'static>> {
    (0..n)
        .map(|node| {
            let count = 1 + (seed + node) % sub;
            let units: Vec<usize> = (0..count).map(|i| (seed + node + i * 3) % sub).collect();
            BatchRequest::Units { node, units }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unit batches on the in-memory source match the sequential loop,
    /// for random data, random dead sets and random unit selections.
    #[test]
    fn unit_batches_match_sequential(
        geometry in proptest::sample::select(GEOMETRIES.to_vec()),
        data in proptest::collection::vec(any::<u8>(), 1..500),
        dead_mask in 0usize..256,
        seed in 0usize..1000,
    ) {
        let (n, k, d, p) = geometry;
        let code = Carousel::new(n, k, d, p).unwrap();
        let sub = code.linear().sub();
        let requests = unit_requests(n, sub, seed);

        // MemorySource over one encoded stripe.
        let stripe = code
            .linear()
            .encode(&data[..data.len().min(code.linear().message_units())])
            .unwrap();
        let refs: Vec<Option<&[u8]>> = stripe
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (dead_mask >> i & 1 == 0).then_some(&b[..]))
            .collect();
        let native = MemorySource::new(refs.clone(), sub)
            .fetch_batch(&requests)
            .unwrap();
        let reference = Seq(MemorySource::new(refs, sub))
            .fetch_batch(&requests)
            .unwrap();
        prop_assert_eq!(&native, &reference);
        prop_assert_eq!(native.len(), requests.len());

        // Dead nodes answer Unavailable exactly at their slots.
        for (i, request) in requests.iter().enumerate() {
            if dead_mask >> request.node() & 1 == 1 {
                prop_assert_eq!(&native[i], &Fetch::Unavailable);
            }
        }
    }

    /// Repair batches (helper tasks from a real repair plan) match the
    /// sequential `repair_read` loop on the in-memory source.
    #[test]
    fn repair_batches_match_sequential(
        geometry in proptest::sample::select(GEOMETRIES.to_vec()),
        data in proptest::collection::vec(any::<u8>(), 1..500),
        failed_seed in 0usize..100,
    ) {
        let (n, k, d, p) = geometry;
        let code = Carousel::new(n, k, d, p).unwrap();
        let sub = code.linear().sub();
        let failed = failed_seed % n;
        let helpers: Vec<usize> = (0..n).filter(|&i| i != failed).take(d).collect();
        let plan = code.repair_plan(failed, &helpers).unwrap();
        let requests: Vec<BatchRequest<'_>> = plan
            .helpers
            .iter()
            .map(|task| BatchRequest::Repair { node: task.node, task })
            .collect();

        let stripe = code
            .linear()
            .encode(&data[..data.len().min(code.linear().message_units())])
            .unwrap();
        let refs: Vec<Option<&[u8]>> = stripe
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != failed).then_some(&b[..]))
            .collect();
        let native = MemorySource::new(refs.clone(), sub)
            .fetch_batch(&requests)
            .unwrap();
        let reference = Seq(MemorySource::new(refs, sub))
            .fetch_batch(&requests)
            .unwrap();
        prop_assert_eq!(&native, &reference);
        for fetch in &native {
            prop_assert!(matches!(fetch, Fetch::Data(b) if !b.is_empty()));
        }
    }
}

/// The end-to-end cross-check: a repair driven entirely through batched
/// fetches rebuilds the exact block the sequential path rebuilds.
#[test]
fn batched_repair_rebuilds_identical_blocks() {
    let code = Carousel::new(8, 4, 6, 8).unwrap();
    let data: Vec<u8> = (0..code.linear().message_units())
        .map(|i| (i * 7 + 3) as u8)
        .collect();
    let stripe = code.linear().encode(&data).unwrap();
    let sub = code.linear().sub();
    let plans = PlanCache::new(8);
    let executor = access::PlanExecutor::new(&plans);
    for failed in 0..code.n() {
        let refs: Vec<Option<&[u8]>> = stripe
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != failed).then_some(&b[..]))
            .collect();
        let batched = executor
            .repair_block(&code, failed, &mut MemorySource::new(refs.clone(), sub))
            .unwrap();
        let sequential = executor
            .repair_block(&code, failed, &mut Seq(MemorySource::new(refs, sub)))
            .unwrap();
        assert_eq!(batched.block, stripe.blocks[failed]);
        assert_eq!(batched.block, sequential.block);
        assert_eq!(batched.payload_bytes, sequential.payload_bytes);
    }
}
