//! Flexible data parallelism under failures (paper §VII): a
//! (12, 6, 10, 10) Carousel file read while its data-bearing blocks die one
//! by one. One rule plans every read — each carousel copy from `k` live
//! blocks, its carriers first — so the read goes from `p` servers with no
//! decoding, to stand-ins whose units decode only what was lost, until
//! fewer than `k` blocks are left and the stripe cannot be read.
//!
//! Run with: `cargo run --example degraded_read`

use carousel::Carousel;
use erasure::{CodeError, ErasureCode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let code = Carousel::new(12, 6, 10, 10)?;
    let file: Vec<u8> = (0..60_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let stripe = code.linear().encode(&file)?;
    println!(
        "{}: data spread over {} of {} blocks ({:.0}% of each block is data)\n",
        code.name(),
        code.p(),
        code.n(),
        100.0 * code.data_fraction()
    );

    // Kill data-bearing blocks one at a time and watch the plan adapt.
    let mut dead: Vec<usize> = Vec::new();
    for kill in std::iter::once(None).chain([2, 5, 7, 0, 9, 3, 8].map(Some)) {
        dead.extend(kill);
        let available: Vec<usize> = (0..code.n()).filter(|i| !dead.contains(i)).collect();
        if available.len() < code.k() {
            let err = code
                .plan_read(&available)
                .expect_err("fewer than k blocks cannot decode");
            assert!(matches!(err, CodeError::InsufficientData { .. }), "{err}");
            println!("dead blocks {dead:?}: {err}");
            return Ok(());
        }
        let plan = code.plan_read(&available)?;
        println!(
            "dead blocks {:?}: mode {:?}, {} servers, {:.2} blocks of traffic",
            dead,
            plan.mode(),
            plan.parallelism(),
            plan.traffic_blocks()
        );
        for (node, units) in plan.units_per_node() {
            print!("  [{node}:{}B]", units * stripe.unit_bytes);
        }
        println!();
        let blocks: Vec<Option<&[u8]>> = (0..code.n())
            .map(|i| (!dead.contains(&i)).then(|| &stripe.blocks[i][..]))
            .collect();
        let out = plan.execute(&blocks)?;
        assert_eq!(&out[..file.len()], &file[..]);
        println!("  -> decoded {} bytes correctly\n", file.len());
    }
    unreachable!("the kill list leaves fewer than k blocks")
}
