//! Delta parity updates vs full re-encode, across every code family.
//!
//! The mutable write path never re-encodes a stripe: it ships only the
//! changed data units and per-parity coefficient products
//! (`erasure::ColumnUpdater`). These tests prove the two are exactly
//! equivalent — for random edit ranges over all three families
//! (RS, MSR, Carousel), through both the local apply path and the
//! wire path (`node_updates` + `apply_block_delta`), on the GF(2⁸)
//! kernel CPU detection dispatches.

use carousel::Carousel;
use erasure::{apply_block_delta, ColumnUpdater, ErasureCode, SparseEncoder};
use msr::ProductMatrixMsr;
use proptest::prelude::*;
use rs_code::ReedSolomon;

/// One representative geometry per family, behind the common
/// linear-code surface the updater consumes.
fn family(idx: usize) -> (&'static str, Box<dyn ErasureCode>) {
    match idx {
        0 => ("rs(6,4)", Box::new(ReedSolomon::new(6, 4).unwrap())),
        1 => (
            "msr(8,4,6)",
            Box::new(ProductMatrixMsr::new(8, 4, 6).unwrap()),
        ),
        _ => (
            "carousel(6,3,3,6)",
            Box::new(Carousel::new(6, 3, 3, 6).unwrap()),
        ),
    }
}

/// Applies the edit via both delta paths and checks each against the
/// full re-encode of the new message.
fn assert_delta_matches_reencode(
    label: &str,
    code: &dyn ErasureCode,
    old: &[u8],
    offset: usize,
    patch: &[u8],
) {
    let linear = code.linear();
    let enc = SparseEncoder::new(linear);
    let upd = ColumnUpdater::new(linear);
    let mut new = old.to_vec();
    new[offset..offset + patch.len()].copy_from_slice(patch);
    let expect = enc.encode(&new).unwrap().blocks;

    // Local path: the whole stripe in hand, parity patched in place.
    let mut local = enc.encode(old).unwrap();
    upd.delta_update(
        &mut local.blocks,
        offset,
        &old[offset..offset + patch.len()],
        &new[offset..offset + patch.len()],
    )
    .unwrap();
    assert_eq!(local.blocks, expect, "{label}: local delta != re-encode");

    // Wire path: ship (deltas, per-node coefficient rows) and apply each
    // against the receiver's block alone — what `WriteDelta` does.
    let mut wire = enc.encode(old).unwrap();
    let w = wire.unit_bytes;
    let delta = upd
        .stripe_delta(
            w,
            offset,
            &old[offset..offset + patch.len()],
            &new[offset..offset + patch.len()],
        )
        .unwrap();
    let updates = upd.node_updates(&delta).unwrap();
    for nu in &updates {
        apply_block_delta(&mut wire.blocks[nu.node], w, &nu.rows, &delta.deltas).unwrap();
    }
    assert_eq!(wire.blocks, expect, "{label}: wire delta != re-encode");

    // The wire path only touches nodes whose blocks actually change.
    let before = enc.encode(old).unwrap().blocks;
    for (node, (was, is)) in before.iter().zip(&expect).enumerate() {
        if was != is {
            assert!(
                updates.iter().any(|u| u.node == node),
                "{label}: changed block {node} got no update"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random edits over random messages: the delta-updated stripe is
    /// byte-identical to a from-scratch re-encode, for every family.
    #[test]
    fn delta_equals_reencode_across_families(
        idx in 0usize..3,
        data in proptest::collection::vec(any::<u8>(), 8..300),
        patch in proptest::collection::vec(any::<u8>(), 1..80),
        at in any::<u16>(),
    ) {
        let (label, code) = family(idx);
        let offset = at as usize % data.len();
        let len = patch.len().min(data.len() - offset);
        assert_delta_matches_reencode(label, code.as_ref(), &data, offset, &patch[..len]);
    }
}

/// Identical edits produce identical parity no matter which family's
/// generator the coefficients come from being sparse or dense — a no-op
/// edit must also be a no-op delta.
#[test]
fn noop_edit_ships_nothing() {
    for idx in 0..3 {
        let (label, code) = family(idx);
        let linear = code.linear();
        let upd = ColumnUpdater::new(linear);
        let data: Vec<u8> = (0..linear.message_units() * 6)
            .map(|i| (i * 29 + 5) as u8)
            .collect();
        let stripe = SparseEncoder::new(linear).encode(&data).unwrap();
        let delta = upd
            .stripe_delta(stripe.unit_bytes, 3, &data[3..20], &data[3..20])
            .unwrap();
        let updates = upd.node_updates(&delta).unwrap();
        assert!(
            updates.is_empty(),
            "{label}: unchanged bytes produced {} node updates",
            updates.len()
        );
    }
}

/// A fixed three-family scenario on the dispatched kernel: three edit
/// shapes per family, each through both delta paths.
#[test]
fn delta_identity_holds_on_the_dispatched_kernel() {
    let data: Vec<u8> = (0..1024usize).map(|i| (i * 151 + 13) as u8).collect();
    for idx in 0..3 {
        let (label, code) = family(idx);
        // Three edit shapes: sub-unit, unit-spanning, and a long run
        // reaching the padded tail.
        for (offset, len) in [(1usize, 3usize), (200, 77), (900, 124)] {
            let patch: Vec<u8> = (0..len).map(|i| (i * 83 + 29) as u8).collect();
            assert_delta_matches_reencode(label, code.as_ref(), &data, offset, &patch);
        }
    }
}
