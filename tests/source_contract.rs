//! The access seam's contract, written once: what a `BlockSource` owes the
//! executor in answer to one `fetch`, and what the executor's replanning
//! loop does with every kind of slot — for stripe reads, block-region
//! reads and repairs alike, and for every MDS family of the registry.
//!
//! `MemorySource` is the reference source, held here to a model computed
//! straight from the blocks. Misbehaviour comes from [`Spoiled`], a
//! wrapper that answers as the `MemorySource` inside it does and then
//! overwrites chosen slots. The TCP source is held to `MemorySource` in
//! an in-crate test of `cluster::client` (it is not constructible from
//! here).

use access::{
    AnyCode, BatchRequest, BlockSource, CodeSpec, ExecError, Fetch, MemorySource, PlanCache,
    PlanExecutor,
};
use erasure::ErasureCode;
use proptest::prelude::*;

/// One family per shape of plan: systematic reads with `d = k` repair,
/// `p = n`-way reads with MSR-regime repair, and an MSR code whose reads
/// always decode. Each survives the target block and two more nodes lost,
/// for reads and for repair (`n − 3 ≥ max(k, d)`).
const SPECS: [&str; 3] = ["rs(7,4)", "carousel(9,4,6,9)", "msr(7,3,4)"];

/// Bytes per stored unit of the stripes below.
const W: usize = 8;

/// `spec` built, with one encoded stripe of `W`-byte units: `(code, data,
/// blocks)`.
fn stripe(spec: &str, seed: u8) -> (AnyCode, Vec<u8>, Vec<Vec<u8>>) {
    let code = CodeSpec::parse(spec).unwrap().build().unwrap();
    let data: Vec<u8> = (0..code.linear().message_units() * W)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect();
    let blocks = code.linear().encode(&data).unwrap().blocks;
    (code, data, blocks)
}

/// The stripe as a `MemorySource` that has lost the blocks in `lost`.
fn memory<'a>(code: &AnyCode, blocks: &'a [Vec<u8>], lost: &[usize]) -> MemorySource<'a> {
    let refs = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (!lost.contains(&i)).then_some(&b[..]))
        .collect();
    MemorySource::new(refs, code.linear().sub())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One `Fetch` per request, at the request's index: the listed units
    /// concatenated in the order asked, or `Unavailable` exactly at the
    /// slots of lost nodes and out-of-range units.
    #[test]
    fn unit_requests_are_answered_one_per_request_at_their_index(
        spec in proptest::sample::select(SPECS.to_vec()),
        seed in any::<u8>(),
        lost_mask in 0usize..512,
        picks in proptest::collection::vec((0usize..9, proptest::collection::vec(0usize..10, 1..6)), 1..12),
    ) {
        let (code, _, blocks) = stripe(spec, seed);
        let (n, sub) = (code.n(), code.linear().sub());
        let lost: Vec<usize> = (0..n).filter(|i| lost_mask >> i & 1 == 1).collect();
        let requests: Vec<BatchRequest<'static>> = picks
            .into_iter()
            .map(|(node, units)| BatchRequest::Units { node: node % n, units })
            .collect();
        let fetches = memory(&code, &blocks, &lost).fetch(&requests).unwrap();
        prop_assert_eq!(fetches.len(), requests.len());
        for (request, fetch) in requests.iter().zip(&fetches) {
            let BatchRequest::Units { node, units } = request else { unreachable!() };
            let want = if lost.contains(node) || units.iter().any(|&u| u >= sub) {
                Fetch::Unavailable
            } else {
                let block = &blocks[*node];
                Fetch::Data(units.iter().flat_map(|&u| &block[u * W..(u + 1) * W]).copied().collect())
            };
            prop_assert_eq!(fetch, &want);
            if let Fetch::Data(bytes) = fetch {
                prop_assert_eq!(bytes.len(), request.payload_bytes(W));
            }
        }
    }

    /// Repair requests likewise: each slot is that helper's task run on
    /// that helper's block, `β` units long, or `Unavailable` where the
    /// helper is lost.
    #[test]
    fn repair_requests_are_answered_one_per_request_at_their_index(
        spec in proptest::sample::select(SPECS.to_vec()),
        seed in any::<u8>(),
        failed in 0usize..6,
        lost_helper in 0usize..8,
    ) {
        let (code, _, blocks) = stripe(spec, seed);
        let helpers: Vec<usize> = (0..code.n()).filter(|&i| i != failed).take(code.d()).collect();
        let plan = code.repair_plan(failed, &helpers).unwrap();
        // Issue the tasks in reverse: slots follow the request order, not
        // the plan's.
        let requests: Vec<BatchRequest<'_>> = plan
            .helpers
            .iter()
            .rev()
            .map(|task| BatchRequest::Repair { node: task.node, task })
            .collect();
        let fetches = memory(&code, &blocks, &[failed, lost_helper]).fetch(&requests).unwrap();
        prop_assert_eq!(fetches.len(), requests.len());
        for (task, fetch) in plan.helpers.iter().rev().zip(&fetches) {
            if task.node == lost_helper {
                prop_assert_eq!(fetch, &Fetch::Unavailable);
            } else {
                prop_assert_eq!(fetch, &Fetch::Data(task.run(&blocks[task.node]).unwrap()));
            }
        }
    }
}

/// Answers as the `MemorySource` inside it does, logs each round's
/// requests, and lets `spoil(round, requests, fetches)` overwrite the
/// round's result or fail it outright.
struct Spoiled<'a, F> {
    inner: MemorySource<'a>,
    rounds: Vec<String>,
    spoil: F,
}

impl<'a, F> Spoiled<'a, F>
where
    F: FnMut(usize, &[BatchRequest<'_>], &mut Vec<Fetch>) -> Result<(), &'static str>,
{
    fn new(inner: MemorySource<'a>, spoil: F) -> Self {
        Spoiled {
            inner,
            rounds: Vec::new(),
            spoil,
        }
    }
}

impl<F> BlockSource for Spoiled<'_, F>
where
    F: FnMut(usize, &[BatchRequest<'_>], &mut Vec<Fetch>) -> Result<(), &'static str>,
{
    type Error = &'static str;

    fn unit_bytes(&self) -> usize {
        self.inner.unit_bytes()
    }

    fn available(&mut self) -> Vec<usize> {
        self.inner.available()
    }

    fn fetch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, &'static str> {
        let Ok(mut fetches) = self.inner.fetch(requests);
        (self.spoil)(self.rounds.len(), requests, &mut fetches)?;
        self.rounds.push(format!("{requests:?}"));
        Ok(fetches)
    }
}

/// The three operations that ride the executor's loop.
#[derive(Debug, Clone, Copy)]
enum Op {
    ReadStripe,
    /// Rebuild the data region of this block.
    ReadRegion(usize),
    /// Repair this block.
    Repair(usize),
}

const OPS: [Op; 3] = [Op::ReadStripe, Op::ReadRegion(1), Op::Repair(1)];

impl Op {
    /// The block the operation rebuilds, which its source does not hold.
    fn target(self) -> Option<usize> {
        match self {
            Op::ReadStripe => None,
            Op::ReadRegion(t) | Op::Repair(t) => Some(t),
        }
    }

    /// Runs the operation: `(bytes, replans)`.
    fn run<S: BlockSource>(
        self,
        executor: &PlanExecutor<'_>,
        code: &AnyCode,
        source: &mut S,
    ) -> Result<(Vec<u8>, usize), ExecError<S::Error>> {
        Ok(match self {
            Op::ReadStripe => {
                let read = executor.read_stripe(code.as_ref(), source)?;
                (read.data, read.replans)
            }
            Op::ReadRegion(t) => {
                let read = executor.read_block_region(code.as_ref(), t, source)?;
                (read.data, read.replans)
            }
            Op::Repair(t) => {
                let outcome = executor.repair_block(code.as_ref(), t, source)?;
                let helpers: Vec<usize> = (0..code.n()).filter(|&h| h != t).collect();
                let plan = code.repair_plan(t, &helpers[..code.d()]).unwrap();
                assert_eq!(outcome.payload_bytes, plan.traffic_units() * W);
                (outcome.block, outcome.replans)
            }
        })
    }

    /// What the operation must return.
    fn expect(self, code: &AnyCode, data: &[u8], blocks: &[Vec<u8>]) -> Vec<u8> {
        match self {
            Op::ReadStripe => data.to_vec(),
            Op::ReadRegion(t) => blocks[t][code.data_layout().data_byte_range(t, W)].to_vec(),
            Op::Repair(t) => blocks[t].clone(),
        }
    }
}

/// The ways a slot can be other than the payload its request names.
#[derive(Debug, Clone, Copy)]
enum BadSlot {
    Unavailable,
    /// `Data`, one byte short.
    Short,
    /// `Data`, one byte long.
    Long,
    /// The source returns fewer slots than requests (the last is gone).
    Missing,
}

/// Every kind of bad slot kills exactly the node it belongs to, and a
/// round's bad slots together cost one replan: the next round is the round
/// a source that never had those nodes gets first, and the result is
/// bit-identical. For repair this is a helper dying mid-repair.
#[test]
fn a_bad_slot_kills_exactly_its_node_and_the_round_costs_one_replan() {
    let plans = PlanCache::new(64);
    let executor = PlanExecutor::new(&plans);
    for spec in SPECS {
        let (code, data, blocks) = stripe(spec, 11);
        for op in OPS {
            let want = op.expect(&code, &data, &blocks);
            let target: Vec<usize> = op.target().into_iter().collect();
            for bad in [
                vec![BadSlot::Unavailable],
                vec![BadSlot::Short],
                vec![BadSlot::Long],
                vec![BadSlot::Missing],
                vec![BadSlot::Unavailable, BadSlot::Missing],
            ] {
                let what = format!("{spec} {op:?} {bad:?}");
                // Round 0: slot `i` goes bad as `bad[i]` says (`Missing`
                // takes the last slot instead); later rounds are served.
                let mut killed = Vec::new();
                let mut spoiled = Spoiled::new(
                    memory(&code, &blocks, &target),
                    |round, requests: &[BatchRequest<'_>], fetches: &mut Vec<Fetch>| {
                        if round > 0 {
                            return Ok(());
                        }
                        for (i, kind) in bad.iter().enumerate() {
                            let slot = match kind {
                                BadSlot::Missing => requests.len() - 1,
                                _ => i,
                            };
                            killed.push(requests[slot].node());
                            match (kind, &mut fetches[slot]) {
                                (BadSlot::Unavailable, fetch) => *fetch = Fetch::Unavailable,
                                (BadSlot::Short, Fetch::Data(bytes)) => drop(bytes.pop()),
                                (BadSlot::Long, Fetch::Data(bytes)) => bytes.push(0),
                                (BadSlot::Missing, _) => drop(fetches.pop()),
                                (_, Fetch::Unavailable) => panic!("{what}: slot unserved"),
                            }
                        }
                        Ok(())
                    },
                );
                let (got, replans) = op.run(&executor, &code, &mut spoiled).expect(&what);
                let rounds = std::mem::take(&mut spoiled.rounds);
                drop(spoiled);
                assert_eq!(got, want, "{what}");
                assert_eq!(replans, 1, "{what}: one replan for the whole round");
                assert_eq!(rounds.len(), 2, "{what}");

                // The same operation on a source that never had the killed
                // nodes: its first round is the spoiled run's second.
                killed.extend(&target);
                let mut clean = Spoiled::new(memory(&code, &blocks, &killed), |_, _, _| Ok(()));
                let (got, replans) = op.run(&executor, &code, &mut clean).expect(&what);
                assert_eq!(got, want, "{what}");
                assert_eq!(replans, 0, "{what}");
                assert_eq!(
                    clean.rounds,
                    rounds[1..],
                    "{what}: exactly the bad slots' nodes"
                );
            }
        }
    }
}

/// A source `Err` is not routed around: it aborts the operation on the
/// spot, as `ExecError::Source`.
#[test]
fn a_source_error_aborts_the_operation() {
    let plans = PlanCache::new(64);
    let executor = PlanExecutor::new(&plans);
    for spec in SPECS {
        let (code, _, blocks) = stripe(spec, 5);
        for op in OPS {
            let target: Vec<usize> = op.target().into_iter().collect();
            let mut rounds = 0;
            let mut failing = Spoiled::new(memory(&code, &blocks, &target), |_, _, _| {
                rounds += 1;
                Err("link cut")
            });
            match op.run(&executor, &code, &mut failing) {
                Err(ExecError::Source("link cut")) => {}
                other => panic!("{spec} {op:?}: expected the source error, got {other:?}"),
            }
            drop(failing);
            assert_eq!(rounds, 1, "{spec} {op:?}: a fatal error is not retried");
        }
    }
}

/// Nodes that keep dying — here the first slot of every round — run every
/// operation out of the same budget with the same error: repair reports
/// the `ReplansExhausted { attempts }` a read does.
#[test]
fn reads_and_repair_run_out_of_the_same_budget() {
    let plans = PlanCache::new(64);
    let executor = PlanExecutor::new(&plans).with_max_replans(1);
    for spec in SPECS {
        let (code, _, blocks) = stripe(spec, 7);
        for op in OPS {
            let target: Vec<usize> = op.target().into_iter().collect();
            let mut flaky = Spoiled::new(
                memory(&code, &blocks, &target),
                |_, _: &[BatchRequest<'_>], fetches: &mut Vec<Fetch>| {
                    fetches[0] = Fetch::Unavailable;
                    Ok(())
                },
            );
            match op.run(&executor, &code, &mut flaky) {
                Err(ExecError::ReplansExhausted { attempts: 2 }) => {}
                other => panic!("{spec} {op:?}: expected exhaustion after 2, got {other:?}"),
            }
            assert_eq!(flaky.rounds.len(), 2, "{spec} {op:?}");
        }
    }
}

/// Repair through the seam rebuilds every block of every family
/// bit-identically, moving exactly the plan's traffic (asserted in
/// [`Op::run`]).
#[test]
fn repair_rebuilds_every_block_bit_identically() {
    let plans = PlanCache::new(64);
    let executor = PlanExecutor::new(&plans);
    for spec in SPECS {
        let (code, _, blocks) = stripe(spec, 3);
        for failed in 0..code.n() {
            let mut source = memory(&code, &blocks, &[failed]);
            let (block, replans) = Op::Repair(failed)
                .run(&executor, &code, &mut source)
                .unwrap();
            assert_eq!(block, blocks[failed], "{spec} block {failed}");
            assert_eq!(replans, 0);
        }
    }
}
