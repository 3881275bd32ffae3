//! The seam a new code family plugs into: a toy family defined *here*
//! overrides `ErasureCode::plan_read`, and the plan cache, the executor and
//! the file codec serve it without any of them naming it. If this test
//! needs an edit in `access`, `filestore` or `cluster` to keep passing, the
//! read planner has leaked out of the code again.

use access::{MemorySource, PlanCache, PlanExecutor};
use erasure::{
    CodeError, DataLayout, DecodePlan, ErasureCode, LinearCode, ReadMode, ReadPlan, RepairPlan,
};
use filestore::FileCodec;
use rs_code::ReedSolomon;

const N: usize = 6;
const K: usize = 4;

/// Reed-Solomon with one twist: reads use the *last* `k` available blocks,
/// where the generic planner would take the first.
#[derive(Clone)]
struct LastK(ReedSolomon);

impl ErasureCode for LastK {
    fn name(&self) -> String {
        format!("LastK/{}", self.0.name())
    }

    fn linear(&self) -> &LinearCode {
        self.0.linear()
    }

    fn d(&self) -> usize {
        self.0.d()
    }

    fn data_layout(&self) -> DataLayout {
        self.0.data_layout()
    }

    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        self.0.repair_plan(failed, helpers)
    }

    fn plan_read(&self, available: &[usize]) -> Result<ReadPlan, CodeError> {
        let mut live = available.to_vec();
        live.sort_unstable();
        if live.len() < K {
            return Err(CodeError::InsufficientData {
                needed: K,
                got: live.len(),
            });
        }
        let last = live.split_off(live.len() - K);
        let decode = DecodePlan::for_nodes(self.linear(), &last)?;
        Ok(ReadPlan::new(ReadMode::Degraded, decode))
    }
}

/// One encoded stripe whose first `n − k` blocks are then overwritten with
/// garbage of the right length: any read that touches them — as the
/// generic planner's first-`k` choice would — returns wrong bytes.
fn poisoned_stripe(code: &LastK) -> (Vec<u8>, Vec<Vec<u8>>) {
    let data: Vec<u8> = (0..K * 64).map(|i| (i * 29 + 5) as u8).collect();
    let mut blocks = code.linear().encode(&data).unwrap().blocks;
    for block in &mut blocks[..N - K] {
        block.fill(0xEE);
    }
    (data, blocks)
}

fn nodes_of(plan: &ReadPlan) -> Vec<usize> {
    plan.units_per_node()
        .into_iter()
        .map(|(nd, _)| nd)
        .collect()
}

#[test]
fn a_family_defined_in_a_test_is_served_by_every_layer() {
    let code = LastK(ReedSolomon::new(N, K).unwrap());
    let (data, blocks) = poisoned_stripe(&code);
    let all: Vec<usize> = (0..N).collect();
    let last_k: Vec<usize> = (N - K..N).collect();

    // The plan cache hands out the family's plan, and caches it.
    let cache = PlanCache::new(4);
    let plan = cache.read_plan(&code, &all).unwrap();
    assert_eq!(nodes_of(&plan), last_k);
    assert_eq!(nodes_of(&cache.read_plan(&code, &all).unwrap()), last_k);
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    // The executor fetches exactly those blocks: the poison is never read.
    let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
    let read = PlanExecutor::new(&cache)
        .read_stripe(&code, &mut MemorySource::new(refs, 1))
        .unwrap();
    assert_eq!(read.mode, ReadMode::Degraded);
    assert_eq!(read.data, data);

    // The file codec decodes through the same planner…
    let codec = FileCodec::new(code.clone(), blocks[0].len()).unwrap();
    let mut stored: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
    assert_eq!(codec.decode_stripe(&stored).unwrap(), data);
    // …and when the last block is lost the choice slides down by one, onto
    // a poisoned block: the override, not the generic planner, is planning.
    stored[N - 1] = None;
    let live: Vec<usize> = (0..N - 1).collect();
    assert_eq!(
        nodes_of(&cache.read_plan(&code, &live).unwrap()),
        (N - 1 - K..N - 1).collect::<Vec<_>>()
    );
    assert_ne!(codec.decode_stripe(&stored).unwrap(), data);
}

/// The in-tree families keep producing exactly the plans they produced
/// before planning moved into `ErasureCode` — same sources, same order —
/// so the bytes a read puts on the wire do not change. The healthy and RS
/// rows were computed before that move; the Carousel lost-block rows pin
/// its one read rule (every copy from `k` live blocks, carriers first).
#[test]
fn registry_codes_plan_the_same_sources_as_before_the_move() {
    let units = |nodes: std::ops::Range<usize>, per_node: usize| -> Vec<(usize, usize)> {
        nodes
            .flat_map(|nd| (0..per_node).map(move |u| (nd, u)))
            .collect()
    };
    let table = [
        // (spec, block 0 present, mode, sources)
        ("rs(12,6)", true, ReadMode::Direct, units(0..6, 1)),
        ("rs(12,6)", false, ReadMode::Degraded, units(1..7, 1)),
        // p = 12: the data region (5 of 10 units) of every block.
        (
            "carousel(12,6,10,12)",
            true,
            ReadMode::Direct,
            units(0..12, 5),
        ),
        // p = n leaves no parity-only stand-in, so block 1 stands in for
        // copy 0 (its stored units 5..10) beside the other live data
        // regions: 11 servers, exactly the file's bytes.
        (
            "carousel(12,6,10,12)",
            false,
            ReadMode::Degraded,
            units(1..2, 10).into_iter().chain(units(2..12, 5)).collect(),
        ),
    ];
    for (spec, block0, mode, sources) in table {
        let code = access::CodeSpec::parse(spec).unwrap().build().unwrap();
        let available: Vec<usize> = (if block0 { 0 } else { 1 }..12).collect();
        let plan = ReadPlan::plan(&code, &available).unwrap();
        assert_eq!(plan.mode(), mode, "{spec}, block 0 present: {block0}");
        assert_eq!(plan.sources(), sources, "{spec}, block 0 present: {block0}");
    }
    // Block-region reads of a lost block 0: RS decodes from blocks 1..=6;
    // Carousel reads only copy 0, which block 0 carried: the data regions
    // of the other even blocks, its carriers, then block 1's copy-0 half.
    // That is 6·5 units, k·k/p = 3 blocks.
    let rs = access::CodeSpec::parse("rs(12,6)")
        .unwrap()
        .build()
        .unwrap();
    let lost0: Vec<usize> = (1..12).collect();
    assert_eq!(
        rs.plan_block_read(0, &lost0).unwrap().sources(),
        units(1..7, 1)
    );
    let carousel = access::CodeSpec::parse("carousel(12,6,10,12)")
        .unwrap()
        .build()
        .unwrap();
    let copy0: Vec<(usize, usize)> = [2, 4, 6, 8, 10]
        .into_iter()
        .flat_map(|nd| units(nd..nd + 1, 5))
        .chain((5..10).map(|u| (1, u)))
        .collect();
    let region = carousel.plan_block_read(0, &lost0).unwrap();
    assert_eq!(region.sources(), copy0);
    assert!((region.traffic_blocks() - 3.0).abs() < 1e-9);
}
