//! Flexible data parallelism under failures (paper §VII): a
//! (12, 6, 10, 10) Carousel file read by a client while blocks die one by
//! one, showing how the reader degrades from the pure parallel path to
//! parity replacement to the generic MDS fallback.
//!
//! Run with: `cargo run --example degraded_read`

use carousel::Carousel;
use erasure::{ErasureCode, ReadMode};

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
    for kill in [None, Some(2), Some(5), Some(7)] {
        if let Some(k) = kill {
            dead.push(k);
        }
        let available: Vec<usize> = (0..code.n()).filter(|i| !dead.contains(i)).collect();
        let plan = code.plan_read(&available)?;
        println!(
            "dead blocks {:?}: mode {:?}, {} servers, {:.2} blocks of traffic",
            dead,
            plan.mode(),
            plan.parallelism(),
            plan.traffic_blocks()
        );
        for (node, units) in plan.units_per_node() {
            let bytes = units * stripe.unit_bytes;
            let tag = if dead.contains(&node) { " (!)" } else { "" };
            print!("  [{node}:{bytes}B{tag}]");
        }
        println!();
        let blocks: Vec<Option<&[u8]>> = (0..code.n())
            .map(|i| (!dead.contains(&i)).then(|| &stripe.blocks[i][..]))
            .collect();
        let out = plan.execute(&blocks)?;
        assert_eq!(&out[..file.len()], &file[..]);
        println!("  -> decoded {} bytes correctly\n", file.len());
        if plan.mode() == ReadMode::Fallback {
            break;
        }
    }
    Ok(())
}
