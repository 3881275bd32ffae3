//! Property-based tests drawing random `(n, k, d, p)` parameters and
//! checking the construction invariants hold everywhere, not just on the
//! paper's grid.

use carousel::Carousel;
use erasure::{ErasureCode, ReadMode};
use proptest::prelude::*;

/// Strategy for valid Carousel parameters with small-enough matrices to
/// keep the test fast: k in 2..=6, n in k+1..=2k+2, d in {k} ∪ [2k-2, n),
/// p in k..=n.
fn params() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (2usize..=6)
        .prop_flat_map(|k| {
            ((k + 1)..=(2 * k + 2)).prop_flat_map(move |n| {
                let d_choices: Vec<usize> = std::iter::once(k)
                    .chain((2 * k - 2..n).filter(move |&d| d >= k))
                    .collect();
                (Just(k), Just(n), proptest::sample::select(d_choices), k..=n)
            })
        })
        .prop_map(|(k, n, d, p)| (n, k, d, p))
}

/// Random parameters with a random set of at most `n − k` lost blocks
/// (drawn with repeats; callers deduplicate).
fn params_and_losses() -> impl Strategy<Value = ((usize, usize, usize, usize), Vec<usize>)> {
    params().prop_flat_map(|(n, k, d, p)| {
        (
            Just((n, k, d, p)),
            proptest::collection::vec(0..n, 0..n - k + 1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn construction_succeeds_and_is_mds((n, k, d, p) in params()) {
        let code = Carousel::new(n, k, d, p).unwrap();
        prop_assert!(erasure::mds::verify_mds(code.linear(), 60).is_mds());
    }

    #[test]
    fn data_regions_reassemble_file((n, k, d, p) in params(), seed in any::<u64>()) {
        let code = Carousel::new(n, k, d, p).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 4)
            .map(|i| (i as u64).wrapping_mul(seed | 1) as u8)
            .collect();
        let stripe = code.linear().encode(&data).unwrap();
        let layout = code.data_layout();
        let mut rebuilt = Vec::new();
        for i in 0..p {
            rebuilt.extend_from_slice(&stripe.blocks[i][layout.data_byte_range(i, stripe.unit_bytes)]);
        }
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn repair_is_exact_and_within_traffic_bound((n, k, d, p) in params(), seed in any::<u64>()) {
        let code = Carousel::new(n, k, d, p).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 2).map(|i| (i * 7 + 1) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        let failed = (seed as usize) % n;
        let helpers: Vec<usize> = (0..n).filter(|&i| i != failed).take(d).collect();
        let plan = code.repair_plan(failed, &helpers).unwrap();
        let blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();
        let (rebuilt, traffic) = plan.run(&blocks).unwrap();
        prop_assert_eq!(&rebuilt, &stripe.blocks[failed]);
        let traffic_blocks = traffic as f64 / stripe.block_bytes() as f64;
        prop_assert!((traffic_blocks - code.repair_traffic_blocks()).abs() < 1e-9);
        // Never worse than RS repair-by-decode.
        prop_assert!(traffic_blocks <= k as f64 + 1e-9);
    }

    /// One read rule for every loss set the code survives: every copy from
    /// `k` live blocks, carriers first.
    #[test]
    fn read_survives_any_loss_set(((n, k, d, p), mut lost) in params_and_losses()) {
        lost.sort_unstable();
        lost.dedup();
        let code = Carousel::new(n, k, d, p).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 3).map(|i| (i * 13 + 5) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        let live: Vec<usize> = (0..n).filter(|i| !lost.contains(i)).collect();
        let plan = code.plan_read(&live).unwrap();
        let blocks: Vec<Option<&[u8]>> = (0..n)
            .map(|i| live.contains(&i).then(|| &stripe.blocks[i][..]))
            .collect();
        let out = plan.execute(&blocks).unwrap();
        prop_assert_eq!(&out[..data.len()], &data[..]);
        // Exactly the file's units are fetched, and every live
        // data-bearing block serves its whole data region verbatim.
        prop_assert_eq!(plan.traffic_units(), b);
        let live_data: Vec<usize> = live.iter().copied().filter(|&i| i < p).collect();
        for &i in &live_data {
            for u in 0..code.params().data_units_per_block() {
                prop_assert!(plan.sources().contains(&(i, u)), "{lost:?}: ({i}, {u}) not read");
            }
        }
        prop_assert!(plan.parallelism() >= live_data.len());
        if p == n {
            prop_assert_eq!(plan.parallelism(), n - lost.len());
        }
        prop_assert_eq!(plan.mode() == ReadMode::Direct, lost.iter().all(|&i| i >= p));
    }

    #[test]
    fn degraded_block_reads_exact_anywhere((n, k, d, p) in params(), seed in any::<u64>()) {
        let code = Carousel::new(n, k, d, p).unwrap();
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * 4).map(|i| (i * 23 + 9) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        let layout = code.data_layout();
        let w = stripe.unit_bytes;
        let target = (seed as usize) % p;
        let available: Vec<usize> = (0..n).filter(|&i| i != target).collect();
        let plan = code.plan_block_read(target, &available).unwrap();
        let blocks: Vec<Option<&[u8]>> = (0..n)
            .map(|i| (i != target).then(|| &stripe.blocks[i][..]))
            .collect();
        let region = plan.execute(&blocks).unwrap();
        let expect = &stripe.blocks[target][layout.data_byte_range(target, w)];
        prop_assert_eq!(&region[..], expect);
        prop_assert!(
            (plan.traffic_blocks() - k as f64 * k as f64 / p as f64).abs() < 1e-9
        );
    }

    #[test]
    fn generator_row_weight_bounded_by_k_alpha((n, k, d, p) in params()) {
        let code = Carousel::new(n, k, d, p).unwrap();
        let g = code.linear().generator();
        let bound = k * code.params().alpha;
        for r in 0..g.rows() {
            prop_assert!(g.row_weight(r) <= bound);
        }
    }
}
