//! Extension: the storage / repair / parallelism trade-off triangle.
//!
//! Positions Carousel codes against the baselines the paper evaluates —
//! replication, systematic RS and MSR — and against MBR, on the three axes
//! that matter: storage overhead, repair traffic per lost block, and data
//! parallelism. Repair traffic comes from executed repair plans.

use bench_support::render_table;
use carousel::Carousel;
use erasure::ErasureCode;
use msr::{ProductMatrixMbr, ProductMatrixMsr};
use rs_code::ReedSolomon;

fn code_row(code: &dyn ErasureCode) -> Vec<String> {
    let helpers: Vec<usize> = (1..=code.d()).collect();
    let traffic = code
        .repair_plan(0, &helpers)
        .expect("valid helper set")
        .traffic_blocks();
    vec![
        code.name(),
        format!("{:.2}x", code.n() as f64 / code.k() as f64),
        format!("n-k = {}", code.n() - code.k()),
        format!("{traffic:.2} blocks"),
        code.parallelism().to_string(),
    ]
}

fn main() {
    let _metrics = bench_support::init_metrics("ext_tradeoff");
    let rs = ReedSolomon::new(12, 6).expect("valid");
    let msr = ProductMatrixMsr::new(12, 6, 10).expect("valid");
    let mbr = ProductMatrixMbr::new(12, 6, 10).expect("valid");
    let ca6 = Carousel::new(12, 6, 10, 6).expect("valid");
    let ca12 = Carousel::new(12, 6, 10, 12).expect("valid");

    let rows = vec![
        vec![
            "3x replication".into(),
            "3.00x".into(),
            "2".into(),
            "1.00 blocks".into(),
            "3".into(),
        ],
        code_row(&rs),
        code_row(&msr),
        {
            let mut row = code_row(&mbr);
            // MBR is not storage-optimal: each block is k*d/B times the
            // MDS-minimum size, so scale the storage column.
            row[1] = format!("{:.2}x", 12.0 / 6.0 * mbr.storage_expansion());
            row
        },
        code_row(&ca6),
        code_row(&ca12),
    ];

    println!("== Extension: storage / repair / parallelism trade-off (k = 6 data blocks) ==");
    println!(
        "{}",
        render_table(
            &[
                "scheme",
                "storage",
                "failures tolerated",
                "repair traffic",
                "parallelism",
            ],
            &rows
        )
    );
    println!("Carousel(12,6,10,12) is the only row with MDS storage, near-optimal");
    println!("repair traffic AND parallelism beyond k — the paper's contribution.");
}
