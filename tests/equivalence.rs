//! Equivalence and conformance tests relating the three code families, as
//! claimed in the paper's §V–§VI.

use carousel::Carousel;
use erasure::mds::verify_mds;
use erasure::ErasureCode;
use msr::ProductMatrixMsr;
use rs_code::ReedSolomon;

#[test]
fn carousel_repair_traffic_equals_msr_for_same_d() {
    // §VI: "Carousel codes incur the same network traffic as MSR codes to
    // reconstruct an unavailable block".
    for (n, k, d) in [(8, 4, 6), (8, 4, 7), (12, 6, 10)] {
        let msr = ProductMatrixMsr::new(n, k, d).unwrap();
        let ca = Carousel::new(n, k, d, n).unwrap();
        let helpers: Vec<usize> = (1..=d).collect();
        let t_msr = msr.repair_plan(0, &helpers).unwrap().traffic_blocks();
        let t_ca = ca.repair_plan(0, &helpers).unwrap().traffic_blocks();
        assert!((t_msr - t_ca).abs() < 1e-12, "({n},{k},{d})");
        assert!((t_msr - d as f64 / (d - k + 1) as f64).abs() < 1e-12);
    }
}

#[test]
fn carousel_with_p_k_is_the_systematic_base() {
    // §V: the construction with p = k degenerates to the systematic code.
    let rs = ReedSolomon::new(9, 6).unwrap();
    let ca = Carousel::new(9, 6, 6, 6).unwrap();
    assert_eq!(rs.linear().generator(), ca.linear().generator());
}

#[test]
fn rs_is_msr_special_case_in_traffic() {
    // §IV: "an (n, k) RS code can be considered as a special case of MSR
    // codes with d = k" — repair traffic k blocks.
    let rs = ReedSolomon::new(10, 4).unwrap();
    let helpers = [1usize, 3, 5, 7];
    let plan = rs.repair_plan(0, &helpers).unwrap();
    assert!((plan.traffic_blocks() - 4.0).abs() < 1e-12);
}

#[test]
fn all_three_families_are_mds_at_paper_parameters() {
    let rs = ReedSolomon::new(12, 6).unwrap();
    let msr = ProductMatrixMsr::new(12, 6, 10).unwrap();
    let ca = Carousel::new(12, 6, 10, 12).unwrap();
    for (name, code) in [
        ("RS", rs.linear()),
        ("MSR", msr.linear()),
        ("Carousel", ca.linear()),
    ] {
        assert!(verify_mds(code, 250).is_mds(), "{name}");
    }
}

#[test]
fn same_file_same_bytes_across_equivalent_reads() {
    // Reading via the parallel reader and via a plain k-block decode must
    // agree bit for bit.
    let code = Carousel::new(10, 5, 5, 8).unwrap();
    let file: Vec<u8> = (0..code.linear().message_units() * 32)
        .map(|i| (i ^ (i >> 3)) as u8)
        .collect();
    let stripe = code.linear().encode(&file).unwrap();
    let via_parallel = {
        let blocks: Vec<Option<&[u8]>> = stripe.blocks.iter().map(|b| Some(&b[..])).collect();
        code.read(&blocks).unwrap()
    };
    let via_decode = {
        let nodes = [9usize, 7, 5, 3, 1];
        let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
        code.linear().decode_nodes(&nodes, &blocks).unwrap()
    };
    assert_eq!(via_parallel, via_decode);
    assert_eq!(&via_parallel[..file.len()], &file[..]);
}

#[test]
fn data_parallelism_axis_is_monotone_in_p() {
    // More p => smaller data fraction per block, same total data, same MDS.
    let mut last_fraction = f64::INFINITY;
    for p in [6usize, 8, 10, 12] {
        let code = Carousel::new(12, 6, 10, p).unwrap();
        assert_eq!(code.parallelism(), p);
        let f = code.data_fraction();
        assert!(f < last_fraction);
        last_fraction = f;
        // Total original data spread = k blocks' worth.
        let layout = code.data_layout();
        let total: f64 = (0..12).map(|i| layout.data_fraction(i)).sum();
        assert!((total - 6.0).abs() < 1e-9);
    }
}

#[test]
fn encode_complexity_is_unchanged_by_expansion() {
    // §VIII-A: thanks to sparsity, the per-stripe multiply count of the
    // Carousel code equals that of a same-shape systematic base (within
    // the data rows' identity ops).
    use erasure::SparseEncoder;
    let rs = ReedSolomon::new(12, 6).unwrap();
    let ca = Carousel::new(12, 6, 6, 12).unwrap();
    let rs_enc = SparseEncoder::new(rs.linear());
    let ca_enc = SparseEncoder::new(ca.linear());
    // Normalize by expansion factor N0 = 2: the Carousel generator has 2x
    // the rows but the same ops per original byte.
    let n0 = ca.params().n0;
    assert_eq!(n0, 2);
    assert_eq!(ca_enc.mul_ops(), n0 * rs_enc.mul_ops());
}
