//! Parallel whole-file reads with flexible data parallelism (paper §VII).
//!
//! With all `p` data-bearing blocks available, the file is read by fetching
//! only the data regions of those `p` blocks — `k/p` of each block, from
//! `p` servers in parallel, with no decoding. When `q < p` of them are
//! available, each missing data-bearing block `i` is *replaced* by a
//! parity-only block, from which the reader fetches the units at block
//! `i`'s carousel positions; the paper proves the resulting `p`-block
//! selection always decodes. If even that is impossible (e.g. `p = n`), the
//! reader falls back to a generic `k`-block MDS decode.

use std::sync::LazyLock;

use erasure::{check_indices, CodeError, DecodePlan, ErasureCode as _, ReadMode, ReadPlan};

use crate::Carousel;

static READS_DIRECT: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.direct"));
static READS_DEGRADED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.degraded"));
static READS_FALLBACK: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.fallback"));
static READ_TRAFFIC: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("carousel.read.traffic_units"));

/// Builds a [`ReadPlan`] for the available blocks. See the module docs for
/// the three paths.
pub(crate) fn plan(code: &Carousel, available: &[usize]) -> Result<ReadPlan, CodeError> {
    let params = code.params();
    let (k, p) = (params.k, params.p);
    check_indices(params.n, available)?;
    if available.len() < k {
        return Err(CodeError::InsufficientData {
            needed: k,
            got: available.len(),
        });
    }
    let dpb = params.data_units_per_block();
    let missing: Vec<usize> = (0..p).filter(|i| !available.contains(i)).collect();

    if missing.is_empty() {
        // Direct parallel read: data regions of all p blocks.
        let units: Vec<(usize, usize)> =
            (0..p).flat_map(|i| (0..dpb).map(move |u| (i, u))).collect();
        let plan = DecodePlan::for_units(code.linear(), &units)?;
        return Ok(finish(ReadMode::Direct, plan));
    }

    // Degraded parallel read: replace each missing data-bearing block with a
    // parity-only block at the same carousel positions.
    let replacements: Vec<usize> = available.iter().copied().filter(|&a| a >= p).collect();
    if replacements.len() >= missing.len() {
        let mut units: Vec<(usize, usize)> = Vec::with_capacity(k * params.sub());
        for i in 0..p {
            if available.contains(&i) {
                units.extend((0..dpb).map(|u| (i, u)));
            }
        }
        for (i, &r) in missing.iter().zip(&replacements) {
            // Parity-only blocks are never reordered, so pre-reorder rows
            // are their stored positions.
            units.extend(params.chosen_rows(*i).into_iter().map(|u| (r, u)));
        }
        match DecodePlan::for_units(code.linear(), &units) {
            Ok(plan) => return Ok(finish(ReadMode::Degraded, plan)),
            Err(CodeError::SingularSelection) => { /* fall through to generic */ }
            Err(e) => return Err(e),
        }
    }

    // Fallback: plain MDS decode from any k available blocks.
    let nodes: Vec<usize> = available.iter().copied().take(k).collect();
    let plan = DecodePlan::for_nodes(code.linear(), &nodes)?;
    Ok(finish(ReadMode::Fallback, plan))
}

fn finish(mode: ReadMode, decode: DecodePlan) -> ReadPlan {
    let plan = ReadPlan::new(mode, decode);
    match mode {
        ReadMode::Direct => READS_DIRECT.inc(),
        ReadMode::Degraded => READS_DEGRADED.inc(),
        ReadMode::Fallback => READS_FALLBACK.inc(),
    }
    READ_TRAFFIC.record(plan.traffic_units() as u64);
    plan
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
        // p = 4 < n = 6: blocks 4, 5 are parity-only replacements.
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

    #[test]
    fn fallback_when_p_equals_n_and_block_lost() {
        let code = Carousel::new(5, 3, 3, 5).unwrap();
        let (data, stripe) = stripe_for(&code, 90);
        let avail = [0usize, 1, 3, 4];
        let plan = code.plan_read(&avail).unwrap();
        assert_eq!(plan.mode(), ReadMode::Fallback);
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
    /// codec and the transports plan — reaches this ladder, also behind the
    /// `Arc` a runtime-selected code lives in.
    #[test]
    fn trait_object_planning_reaches_the_ladder() {
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
