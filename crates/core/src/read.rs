//! Whole-stripe reads with flexible data parallelism (paper §VII).
//!
//! One rule serves every availability pattern. The remapped generator is
//! block-diagonal over the `N₀` carousel copies, and each copy decodes from
//! the copy-`t` units of any `k` blocks, so each copy is read from `k` live
//! blocks: its carriers (the data-bearing blocks that chose `t`, whose
//! copy-`t` units are verbatim data) first, then parity-only blocks, then
//! the other data-bearing blocks. With all `p` data-bearing blocks live the
//! union is their data regions — `p` servers, no decoding. A lost block
//! costs one stand-in's copy-`t` units per copy it carried, the same bytes
//! as its own region, and a decode of only its units; with a parity-only
//! block live this is the paper's parity replacement.

use std::sync::LazyLock;

use erasure::{check_indices, CodeError, DecodePlan, ErasureCode as _, ReadMode, ReadPlan};

use crate::Carousel;

static READS_DIRECT: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.direct"));
static READS_DEGRADED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.degraded"));
static READ_TRAFFIC: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("carousel.read.traffic_units"));

/// Builds a [`ReadPlan`] for the available blocks: every copy from `k` of
/// them (see the module docs), sources node-major with units ascending.
/// The plan is [`ReadMode::Direct`] iff no data-bearing block is lost.
pub(crate) fn plan(code: &Carousel, available: &[usize]) -> Result<ReadPlan, CodeError> {
    let params = code.params();
    check_indices(params.n, available)?;
    if available.len() < params.k {
        return Err(CodeError::InsufficientData {
            needed: params.k,
            got: available.len(),
        });
    }
    let mut units: Vec<(usize, usize)> = (0..params.n0)
        .flat_map(|t| code.copy_sources(t, available))
        .collect();
    units.sort_unstable();
    let plan = DecodePlan::for_units(code.linear(), &units)?;
    let plan = if (0..params.p).all(|i| available.contains(&i)) {
        READS_DIRECT.inc();
        ReadPlan::new(ReadMode::Direct, plan)
    } else {
        READS_DEGRADED.inc();
        ReadPlan::new(ReadMode::Degraded, plan)
    };
    READ_TRAFFIC.record(plan.traffic_units() as u64);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::ErasureCode;

    fn stripe_for(code: &Carousel, len: usize) -> (Vec<u8>, erasure::EncodedStripe) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        (data, stripe)
    }

    fn opts(stripe: &erasure::EncodedStripe, avail: &[usize], n: usize) -> Vec<Option<Vec<u8>>> {
        (0..n)
            .map(|i| avail.contains(&i).then(|| stripe.blocks[i].clone()))
            .collect()
    }

    #[test]
    fn direct_read_uses_all_p_nodes() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, stripe) = stripe_for(&code, 120);
        let plan = code.plan_read(&[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(plan.mode(), ReadMode::Direct);
        assert_eq!(plan.parallelism(), 6);
        // Direct read downloads exactly k blocks' worth of bytes.
        assert!((plan.traffic_blocks() - 3.0).abs() < 1e-9);
        let blocks = opts(&stripe, &[0, 1, 2, 3, 4, 5], 6);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let out = plan.execute(&refs).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn degraded_read_replaces_missing_data_block() {
        // p = 4 < n = 6: blocks 4, 5 are parity-only stand-ins.
        let code = Carousel::new(6, 3, 3, 4).unwrap();
        let (data, stripe) = stripe_for(&code, 96);
        let avail = [0usize, 2, 3, 4, 5];
        let plan = code.plan_read(&avail).unwrap();
        assert_eq!(plan.mode(), ReadMode::Degraded);
        assert_eq!(plan.parallelism(), 4, "p blocks participate");
        let blocks = opts(&stripe, &avail, 6);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let out = plan.execute(&refs).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    /// A single loss reads the units of the paper's parity replacement: the
    /// live data regions plus, from the lowest live parity-only block `r`,
    /// the lost block's chosen rows. Losing a parity-only block reads the
    /// data regions alone, as a healthy read does. Sources come node-major.
    #[test]
    fn single_loss_reads_the_parity_replacement_units() {
        for (n, k, d, p) in [(12, 6, 10, 10), (10, 4, 4, 8)] {
            let code = Carousel::new(n, k, d, p).unwrap();
            let params = code.params();
            let dpb = params.data_units_per_block();
            for lost in 0..n {
                let live: Vec<usize> = (0..n).filter(|&i| i != lost).collect();
                let mut expect: Vec<(usize, usize)> = (0..p)
                    .filter(|&i| i != lost)
                    .flat_map(|i| (0..dpb).map(move |u| (i, u)))
                    .collect();
                if lost < p {
                    let r = live.iter().copied().find(|&i| i >= p).unwrap();
                    expect.extend(params.chosen_rows(lost).into_iter().map(|u| (r, u)));
                }
                expect.sort_unstable();
                let plan = code.plan_read(&live).unwrap();
                assert_eq!(plan.sources(), expect, "({n},{k},{d},{p}) lost {lost}");
                assert_eq!(plan.mode() == ReadMode::Direct, lost >= p);
            }
        }
    }

    /// With `p = n` no parity-only block exists: a lost block's copies are
    /// read from one more data-bearing block each, so every live block
    /// serves and the traffic is still exactly the file.
    #[test]
    fn p_equals_n_single_loss_keeps_n_minus_one_way_parallelism() {
        let code = Carousel::new(5, 3, 3, 5).unwrap();
        let (data, stripe) = stripe_for(&code, 90);
        let avail = [0usize, 1, 3, 4];
        let plan = code.plan_read(&avail).unwrap();
        assert_eq!(plan.mode(), ReadMode::Degraded);
        assert_eq!(plan.parallelism(), 4);
        assert_eq!(plan.traffic_units(), code.linear().message_units());
        let blocks = opts(&stripe, &avail, 5);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let out = plan.execute(&refs).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn read_requires_k_blocks() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        assert!(matches!(
            code.plan_read(&[0, 1]),
            Err(CodeError::InsufficientData { .. })
        ));
        assert!(matches!(
            code.plan_read(&[0, 0, 1]),
            Err(CodeError::DuplicateNode { .. })
        ));
        assert!(matches!(
            code.plan_read(&[0, 1, 9]),
            Err(CodeError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn missing_planned_block_is_rejected() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (_, stripe) = stripe_for(&code, 60);
        let plan = code.plan_read(&[0, 1, 2, 3, 4, 5]).unwrap();
        // Drop block 3 at execution time.
        let blocks = opts(&stripe, &[0, 1, 2, 4, 5], 6);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        assert!(plan.execute(&refs).is_err());
    }

    /// Planning through `&dyn ErasureCode` — how the access layer, the file
    /// codec and the transports plan — reaches this planner, also behind
    /// the `Arc` a runtime-selected code lives in.
    #[test]
    fn trait_object_planning_reaches_the_override() {
        use std::sync::Arc;
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, stripe) = stripe_for(&code, code.linear().message_units() * 4);
        let w = stripe.unit_bytes;
        let shared: Arc<dyn ErasureCode + Send + Sync> = Arc::new(code);
        let plan = ReadPlan::plan(&shared, &(0..6).collect::<Vec<_>>()).unwrap();
        assert_eq!(plan.mode(), ReadMode::Direct);
        assert_eq!(plan.parallelism(), 6);
        let units: Vec<&[u8]> = plan
            .sources()
            .iter()
            .map(|&(nd, u)| &stripe.blocks[nd][u * w..(u + 1) * w])
            .collect();
        assert_eq!(&plan.decode_units(&units).unwrap()[..data.len()], &data[..]);
    }
}
