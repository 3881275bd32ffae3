//! The generic any-`k` planners — the default bodies of
//! `ErasureCode::plan_read` / `plan_block_read` — on a code that does not
//! override them.

use erasure::{CodeError, ErasureCode, ReadMode, ReadPlan};
use rs_code::ReedSolomon;

fn fetch<'a>(blocks: &'a [Vec<u8>], sources: &[(usize, usize)], w: usize) -> Vec<&'a [u8]> {
    sources
        .iter()
        .map(|&(nd, u)| &blocks[nd][u * w..(u + 1) * w])
        .collect()
}

#[test]
fn generic_read_direct_and_degraded() {
    let code = ReedSolomon::new(6, 4).unwrap();
    let data: Vec<u8> = (0..64).map(|i| (i * 7 + 3) as u8).collect();
    let stripe = code.linear().encode(&data).unwrap();
    let w = stripe.unit_bytes;

    let direct = ReadPlan::plan(&code, &[0, 1, 2, 3, 4, 5]).unwrap();
    assert_eq!(direct.mode(), ReadMode::Direct);
    assert_eq!(direct.parallelism(), 4);
    assert!((direct.traffic_blocks() - 4.0).abs() < 1e-9);
    let units = fetch(&stripe.blocks, direct.sources(), w);
    assert_eq!(
        &direct.decode_units(&units).unwrap()[..data.len()],
        &data[..]
    );

    let degraded = ReadPlan::plan(&code, &[5, 1, 2, 4]).unwrap();
    assert_eq!(degraded.mode(), ReadMode::Degraded);
    let units = fetch(&stripe.blocks, degraded.sources(), w);
    assert_eq!(
        &degraded.decode_units(&units).unwrap()[..data.len()],
        &data[..]
    );
    // Block-level execution slices the same units out of whole blocks.
    let blocks: Vec<Option<&[u8]>> = (0..6)
        .map(|i| [5, 1, 2, 4].contains(&i).then(|| &stripe.blocks[i][..]))
        .collect();
    assert_eq!(&degraded.execute(&blocks).unwrap()[..data.len()], &data[..]);
    assert!(direct.execute(&blocks).is_err(), "block 0 is not there");

    assert!(matches!(
        ReadPlan::plan(&code, &[0, 1, 2]),
        Err(CodeError::InsufficientData { needed: 4, got: 3 })
    ));
}

#[test]
fn generic_degraded_region_matches_block() {
    let code = ReedSolomon::new(6, 4).unwrap();
    let data: Vec<u8> = (0..60).map(|i| (i * 11 + 5) as u8).collect();
    let stripe = code.linear().encode(&data).unwrap();
    let w = stripe.unit_bytes;
    let layout = code.data_layout();
    for target in 0..4 {
        let available: Vec<usize> = (0..6).filter(|&i| i != target).collect();
        let plan = code.plan_block_read(target, &available).unwrap();
        assert_eq!(plan.target(), target);
        assert_eq!(plan.units_per_node().len(), 4);
        let units = fetch(&stripe.blocks, plan.sources(), w);
        let region = plan.decode_units(&units).unwrap();
        assert_eq!(
            region,
            stripe.blocks[target][layout.data_byte_range(target, w)]
        );
        // Count and width mismatches are rejected.
        assert!(plan.decode_units(&units[1..]).is_err());
        let mut ragged = units.clone();
        ragged[0] = &units[0][..w - 1];
        assert!(plan.decode_units(&ragged).is_err());
    }
    // Parity-only and out-of-range targets are rejected.
    assert!(matches!(
        code.plan_block_read(5, &(0..5).collect::<Vec<_>>()),
        Err(CodeError::InvalidParameters { .. })
    ));
    assert!(matches!(
        code.plan_block_read(6, &(0..6).collect::<Vec<_>>()),
        Err(CodeError::NodeOutOfRange { .. })
    ));
}
