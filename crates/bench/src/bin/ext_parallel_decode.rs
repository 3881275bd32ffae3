//! Extension (the paper's stated future work, §VIII-B): read throughput of
//! Carousel codes when **more than `k` blocks** may be visited.
//!
//! Compares, for (12, 6, 10, 12):
//! * decode from `k` blocks (the paper's Fig. 6b scenario, half of every
//!   fetched block is parity that must be multiplied away);
//! * parallel read from all `p` blocks, no failure (no GF arithmetic);
//! * parallel read with one failure: the 11 live blocks serve their data
//!   regions and one stand-in's units per lost copy, and only the lost
//!   block's units are decoded.
//!
//! Knobs: `BENCH_MB` (default 64), `BENCH_REPS` (default 3).

use bench_support::{env_knob, render_table};
use carousel::Carousel;
use workloads::coding_bench::{measure_decode, measure_parallel_read, payload};

fn main() {
    let _metrics = bench_support::init_metrics("ext_parallel_decode");
    let mb = env_knob("BENCH_MB", 64);
    let reps = env_knob("BENCH_REPS", 3);
    let code = Carousel::new(12, 6, 10, 12).expect("valid parameters");
    let data = payload(&code, mb << 20);

    let from_k = measure_decode(&code, &data, reps);
    let from_p = measure_parallel_read(&code, &data, reps, 0);
    let from_p_degraded = measure_parallel_read(&code, &data, reps, 1);

    println!("== Extension: decoding with more than k blocks, Carousel(12,6,10,12) ==");
    println!(
        "{}",
        render_table(
            &["read path", "throughput (MB/s)"],
            &[
                vec![
                    "decode from k = 6 blocks (Fig 6b scenario)".into(),
                    format!("{from_k:.0}")
                ],
                vec![
                    "parallel read from p = 12 blocks".into(),
                    format!("{from_p:.0}")
                ],
                vec![
                    "parallel read, 1 block failed".into(),
                    format!("{from_p_degraded:.0}")
                ],
            ]
        )
    );
    println!(
        "visiting all p blocks is {:.1}x faster than the k-block decode",
        from_p / from_k
    );
}
