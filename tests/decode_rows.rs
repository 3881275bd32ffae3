//! The one decode routine, `DecodePlan::decode_into`, against the
//! zero-then-combine decode it replaced.
//!
//! For random RS and Carousel codes, random loss sets the code survives and
//! random byte windows, the window `decode_into` appends equals the same
//! window of the oracle's whole stripe (which is the original data), both
//! straight from a plan and through the executor's fetched payloads. And
//! the copy rows are exactly what the algebra says: a plan is all copies
//! precisely when it sources no parity unit, so every `Direct` plan is.

use access::{MemorySource, PlanCache, PlanExecutor};
use carousel::Carousel;
use erasure::{ErasureCode, ReadMode, ReadPlan};
use gf256::Gf256;
use proptest::prelude::*;
use rs_code::ReedSolomon;

/// A random RS or Carousel code small enough for a debug-build proptest:
/// `2 ≤ k ≤ 5`, `k < n ≤ 2k + 2`, and for Carousel the construction's
/// constraints `d ∈ {k} ∪ [2k−2, n)`, `k ≤ p ≤ n` (RS ignores `d`, `p`).
fn codes() -> impl Strategy<Value = (bool, usize, usize, usize, usize)> {
    (any::<bool>(), 2usize..=5).prop_flat_map(|(rs, k)| {
        ((k + 1)..=(2 * k + 2)).prop_flat_map(move |n| {
            let d_choices: Vec<usize> = std::iter::once(k)
                .chain((2 * k - 2..n).filter(move |&d| d >= k))
                .collect();
            (
                Just(rs),
                Just(n),
                Just(k),
                proptest::sample::select(d_choices),
                k..=n,
            )
        })
    })
}

fn build((rs, n, k, d, p): (bool, usize, usize, usize, usize)) -> Box<dyn ErasureCode> {
    if rs {
        Box::new(ReedSolomon::new(n, k).unwrap())
    } else {
        Box::new(Carousel::new(n, k, d, p).unwrap())
    }
}

/// Whether generator row `(node, unit)` is a unit vector with
/// coefficient 1: a stored copy of one message unit, not a parity unit.
fn is_data_unit(code: &dyn ErasureCode, (node, unit): (usize, usize)) -> bool {
    let row = code
        .linear()
        .generator()
        .row(node * code.linear().sub() + unit);
    let mut nonzero = row.iter().filter(|c| !c.is_zero());
    matches!((nonzero.next(), nonzero.next()), (Some(&c), None) if c == Gf256::ONE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_into_equals_the_oracles_window(
        params in codes(),
        lost in proptest::collection::vec(0usize..64, 0..8),
        unit_bytes in 1usize..10,
        windows in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..6),
        seed in any::<u64>(),
    ) {
        let code = build(params);
        let (n, k) = (code.n(), code.k());
        let sub = code.linear().sub();
        let b = code.linear().message_units();
        let mut x = seed | 1;
        let data: Vec<u8> = (0..b * unit_bytes)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let blocks = code.linear().encode(&data).unwrap().blocks;
        let w = blocks[0].len() / sub;
        prop_assert_eq!(w, unit_bytes);

        let mut gone: Vec<usize> = lost.iter().map(|l| l % n).collect();
        gone.sort_unstable();
        gone.dedup();
        gone.truncate(n - k);
        let available: Vec<usize> = (0..n).filter(|i| !gone.contains(i)).collect();
        let plan = ReadPlan::plan(&*code, &available).unwrap();
        let units: Vec<&[u8]> = plan
            .sources()
            .iter()
            .map(|&(node, unit)| &blocks[node][unit * w..(unit + 1) * w])
            .collect();
        let oracle = plan.decode_plan().combine_oracle(&units).unwrap();
        prop_assert_eq!(&oracle, &data, "the oracle decodes {:?} lost", &gone);

        let cache = PlanCache::new(4);
        let refs: Vec<Option<&[u8]>> = (0..n)
            .map(|i| (!gone.contains(&i)).then_some(&blocks[i][..]))
            .collect();
        let fetched = PlanExecutor::new(&cache)
            .fetch_stripe(&*code, &mut MemorySource::new(refs, sub))
            .unwrap();
        prop_assert_eq!(fetched.decode().unwrap(), oracle.clone());

        let len = oracle.len();
        for (a, t) in windows {
            let within = a % (len + 1);
            let take = t % (len - within + 1);
            let want = &oracle[within..within + take];
            // Appends after what the caller already holds, touching none of it.
            let mut out = vec![0xA5u8; 3];
            plan.decode_into(&units, within, take, &mut out).unwrap();
            prop_assert_eq!(&out[..3], &[0xA5u8; 3][..]);
            prop_assert_eq!(&out[3..], want, "window {}+{} of {}", within, take, len);
            let mut out = Vec::new();
            fetched.decode_into(within, take, &mut out).unwrap();
            prop_assert_eq!(&out[..], want);
        }
        let mut out = Vec::new();
        prop_assert!(plan.decode_into(&units, len, 1, &mut out).is_err(), "past the end");
        prop_assert!(out.is_empty());
    }

    #[test]
    fn copy_rows_are_exactly_the_plans_data_units(
        params in codes(),
        lost in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let code = build(params);
        let (n, k) = (code.n(), code.k());
        let mut gone: Vec<usize> = lost.iter().map(|l| l % n).collect();
        gone.sort_unstable();
        gone.dedup();
        gone.truncate(n - k);
        for available in [
            (0..n).collect::<Vec<usize>>(),
            (0..n).filter(|i| !gone.contains(i)).collect(),
        ] {
            let plan = ReadPlan::plan(&*code, &available).unwrap();
            let copies = plan.decode_plan().copy_sources();
            let sources_parity = plan.sources().iter().any(|&u| !is_data_unit(&*code, u));
            if plan.mode() == ReadMode::Direct {
                prop_assert!(!sources_parity, "{} reads parity on the direct path", code.name());
                prop_assert!(copies.iter().all(Option::is_some), "{}: a direct row combines", code.name());
            }
            // All copies exactly when no parity unit is read: a permutation
            // inverse means the stacked rows were a permutation too. More
            // precisely, each data unit read is one copy row (its message
            // unit equals it), and every other row combines.
            prop_assert_eq!(
                copies.iter().any(Option::is_none),
                sources_parity,
                "{} with {:?} available",
                code.name(),
                &available
            );
            let data_units = plan.sources().iter().filter(|&&u| is_data_unit(&*code, u)).count();
            prop_assert_eq!(copies.iter().filter(|c| c.is_some()).count(), data_units);
            // A copy row copies the source that stores its message unit.
            for (r, copy) in copies.iter().enumerate() {
                if let Some(i) = *copy {
                    let (node, unit) = plan.sources()[i];
                    let row = code.linear().generator().row(node * code.linear().sub() + unit);
                    prop_assert_eq!(row[r], Gf256::ONE);
                }
            }
        }
    }
}

/// The paper's two codes at its parameters: a healthy read of RS(12,6) and
/// of Carousel(12,6,10,12) is all copies, and losing a data-bearing block
/// leaves the surviving data units copies and combines only the rest.
#[test]
fn paper_codes_copy_what_survives() {
    let rs = ReedSolomon::new(12, 6).unwrap();
    let carousel = Carousel::new(12, 6, 10, 12).unwrap();
    for code in [&rs as &dyn ErasureCode, &carousel] {
        let all: Vec<usize> = (0..12).collect();
        let healthy = ReadPlan::plan(code, &all).unwrap();
        assert_eq!(healthy.mode(), ReadMode::Direct);
        assert!(healthy
            .decode_plan()
            .copy_sources()
            .iter()
            .all(Option::is_some));

        let degraded = ReadPlan::plan(code, &all[1..]).unwrap();
        let copies = degraded.decode_plan().copy_sources();
        let combined = copies.iter().filter(|c| c.is_none()).count();
        let data_units = degraded
            .sources()
            .iter()
            .filter(|&&u| is_data_unit(code, u))
            .count();
        assert!(
            combined > 0,
            "{}: a lost data block needs combining",
            code.name()
        );
        assert_eq!(
            combined,
            copies.len() - data_units,
            "{}: only the units not read as data are combined",
            code.name()
        );
    }
}
