//! Measurement harness for the coding-level experiments (Figs. 5–8).
//!
//! The paper benchmarks four codes at `n = 2k` for `k ∈ {2, 4, 6, 8, 10}`:
//! RS, MSR with `d = 2k−1`, and Carousel codes built from each (`d = k` and
//! `d = 2k−1`), with `p = 2k`. [`fig6_codes`] builds that family; the
//! `measure_*` functions time the real kernels.

use std::time::Instant;

use carousel::Carousel;
use erasure::{CodeError, ErasureCode, SparseEncoder};
use msr::ProductMatrixMsr;
use rs_code::ReedSolomon;

/// The four code families compared in Figs. 6–8, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeFamily {
    /// Systematic `(2k, k)` Reed-Solomon.
    Rs,
    /// `(2k, k, 2k−1)` product-matrix MSR.
    Msr,
    /// `(2k, k, k, 2k)` Carousel (RS base).
    CarouselRsBase,
    /// `(2k, k, 2k−1, 2k)` Carousel (MSR base).
    CarouselMsrBase,
}

impl CodeFamily {
    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            CodeFamily::Rs => "RS",
            CodeFamily::Msr => "MSR (d=2k-1)",
            CodeFamily::CarouselRsBase => "Carousel (d=k)",
            CodeFamily::CarouselMsrBase => "Carousel (d=2k-1)",
        }
    }

    /// Builds the family member for a given `k` (with `n = 2k`).
    ///
    /// # Errors
    ///
    /// Propagates construction errors for unrepresentable parameters.
    pub fn build(self, k: usize) -> Result<Box<dyn ErasureCode>, CodeError> {
        let n = 2 * k;
        Ok(match self {
            CodeFamily::Rs => Box::new(ReedSolomon::new(n, k)?),
            CodeFamily::Msr => Box::new(ProductMatrixMsr::new(n, k, 2 * k - 1)?),
            CodeFamily::CarouselRsBase => Box::new(Carousel::new(n, k, k, n)?),
            CodeFamily::CarouselMsrBase => Box::new(Carousel::new(n, k, 2 * k - 1, n)?),
        })
    }

    /// All four families, in plot order.
    pub fn all() -> [CodeFamily; 4] {
        [
            CodeFamily::Rs,
            CodeFamily::CarouselRsBase,
            CodeFamily::Msr,
            CodeFamily::CarouselMsrBase,
        ]
    }
}

/// One labelled code instance, as built for a figure's comparison set.
pub type LabelledCode = (CodeFamily, Box<dyn ErasureCode>);

/// Builds all four Fig. 6 codes for one `k`.
///
/// # Errors
///
/// Propagates construction failures (e.g. `k = 1` has no MSR variant).
pub fn fig6_codes(k: usize) -> Result<Vec<LabelledCode>, CodeError> {
    CodeFamily::all()
        .into_iter()
        .map(|f| Ok((f, f.build(k)?)))
        .collect()
}

/// Deterministic pseudo-random payload of `bytes` bytes, sized to a
/// multiple of the code's message units.
pub fn payload(code: &dyn ErasureCode, bytes: usize) -> Vec<u8> {
    let units = code.linear().message_units();
    let len = bytes.next_multiple_of(units).max(units);
    let mut state = 0x243F6A8885A308D3u64;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        })
        .collect()
}

/// Measures encoding throughput in MB of original data per second.
///
/// # Panics
///
/// Panics if `reps` is zero or encoding fails (construction bug).
pub fn measure_encode(code: &dyn ErasureCode, data: &[u8], reps: usize) -> f64 {
    assert!(reps > 0);
    let encoder = SparseEncoder::new(code.linear());
    // Warm-up pass (page in tables, allocate).
    let _ = encoder.encode(data).expect("encode");
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(encoder.encode(std::hint::black_box(data)).expect("encode"));
    }
    let secs = t0.elapsed().as_secs_f64();
    mb(data.len()) * reps as f64 / secs
}

/// Measures decoding throughput (MB of original data recovered per second)
/// in the paper's scenario: one data block lost, decode from blocks
/// `1..=k` (i.e. `k−1` data blocks plus one parity block).
///
/// # Panics
///
/// Panics if `reps` is zero or the code cannot decode from that subset.
pub fn measure_decode(code: &dyn ErasureCode, data: &[u8], reps: usize) -> f64 {
    assert!(reps > 0);
    let stripe = code.linear().encode(data).expect("encode");
    let nodes: Vec<usize> = (1..=code.k()).collect();
    let blocks: Vec<&[u8]> = nodes.iter().map(|&i| &stripe.blocks[i][..]).collect();
    let plan = erasure::DecodePlan::for_nodes(code.linear(), &nodes).expect("plan");
    let _ = plan.decode(&blocks).expect("decode");
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(plan.decode(std::hint::black_box(&blocks)).expect("decode"));
    }
    let secs = t0.elapsed().as_secs_f64();
    mb(data.len()) * reps as f64 / secs
}

/// Result of timing one reconstruction (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairTiming {
    /// Wall time of one helper's encode-and-send computation, seconds.
    pub helper_s: f64,
    /// Wall time of the newcomer's combine computation, seconds.
    pub newcomer_s: f64,
    /// Bytes shipped helper→newcomer, MB (Fig. 7's quantity).
    pub traffic_mb: f64,
}

/// Times the repair of block 0 from helpers `1..=d` on a stripe encoded
/// from `data`.
///
/// # Panics
///
/// Panics on construction/repair failures (would indicate a bug).
pub fn measure_repair(code: &dyn ErasureCode, data: &[u8], reps: usize) -> RepairTiming {
    assert!(reps > 0);
    let stripe = code.linear().encode(data).expect("encode");
    let helpers: Vec<usize> = (1..=code.d()).collect();
    let plan = code.repair_plan(0, &helpers).expect("repair plan");
    let helper_blocks: Vec<&[u8]> = helpers.iter().map(|&i| &stripe.blocks[i][..]).collect();

    // Helper side: average the per-helper compute over all helpers.
    let t0 = Instant::now();
    for _ in 0..reps {
        for (task, block) in plan.helpers.iter().zip(&helper_blocks) {
            std::hint::black_box(task.run(std::hint::black_box(block)).expect("helper"));
        }
    }
    let helper_s = t0.elapsed().as_secs_f64() / (reps * plan.helpers.len()) as f64;

    // Newcomer side.
    let payloads: Vec<Vec<u8>> = plan
        .helpers
        .iter()
        .zip(&helper_blocks)
        .map(|(task, block)| task.run(block).expect("helper"))
        .collect();
    let traffic_mb = mb(payloads.iter().map(Vec::len).sum::<usize>());
    let t1 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            plan.combine_payloads(std::hint::black_box(&payloads))
                .expect("combine"),
        );
    }
    let newcomer_s = t1.elapsed().as_secs_f64() / reps as f64;

    RepairTiming {
        helper_s,
        newcomer_s,
        traffic_mb,
    }
}

/// Measures whole-file read throughput of a Carousel code using **all `p`
/// data-bearing blocks** (with the first `failures` of them dead and
/// decoded from stand-in units) — the paper's future-work direction of
/// §VIII-B: "a higher throughput can be achieved with Carousel codes if
/// more than k blocks can be visited". With zero failures this is a pure
/// parallel read (no GF
/// arithmetic), so it vastly outperforms the `k`-block decode of
/// [`measure_decode`].
///
/// # Panics
///
/// Panics if `reps` is zero or the read plan cannot be built.
pub fn measure_parallel_read(
    code: &carousel::Carousel,
    data: &[u8],
    reps: usize,
    failures: usize,
) -> f64 {
    use erasure::ErasureCode as _;
    assert!(reps > 0);
    let stripe = code.linear().encode(data).expect("encode");
    let available: Vec<usize> = (failures..code.n()).collect();
    let plan = code.plan_read(&available).expect("read plan");
    let blocks: Vec<Option<&[u8]>> = (0..code.n())
        .map(|i| (i >= failures).then(|| &stripe.blocks[i][..]))
        .collect();
    let _ = plan.execute(&blocks).expect("read");
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(plan.execute(std::hint::black_box(&blocks)).expect("read"));
    }
    let secs = t0.elapsed().as_secs_f64();
    mb(data.len()) * reps as f64 / secs
}

/// Reconstruction network traffic for a given block size (paper Fig. 7):
/// repair block 0 from helpers `1..=d` and count the bytes the plan ships.
///
/// # Panics
///
/// Panics if the plan cannot be built (construction bug).
pub fn repair_traffic_mb(code: &dyn ErasureCode, block_mb: f64) -> f64 {
    let helpers: Vec<usize> = (1..=code.d()).collect();
    let plan = code.repair_plan(0, &helpers).expect("repair plan");
    plan.traffic_blocks() * block_mb
}

/// The generating matrices of Fig. 5: `(3,2)` RS vs `(3,2,2,3)` Carousel,
/// rendered with their sparsity statistics.
///
/// # Panics
///
/// Never, for these fixed valid parameters.
pub fn fig5_matrices() -> String {
    use erasure::sparsity::{render_pattern, stats};
    let rs = ReedSolomon::new(3, 2).expect("valid");
    let ca = Carousel::new(3, 2, 2, 3).expect("valid");
    let mut out = String::new();
    for (name, code) in [
        ("(3,2) RS", rs.linear()),
        ("(3,2,2,3) Carousel", ca.linear()),
    ] {
        let g = code.generator();
        let s = stats(g);
        out.push_str(&format!(
            "{name}: {}x{} generator, {} nonzeros (density {:.2}), max row weight {}\n{}\n",
            s.shape.0,
            s.shape.1,
            s.nonzeros,
            s.density,
            s.max_row_weight,
            render_pattern(g)
        ));
    }
    out
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_family_builds_for_paper_ks() {
        for k in [2usize, 4, 6, 8, 10] {
            let codes = fig6_codes(k).unwrap();
            assert_eq!(codes.len(), 4);
            for (fam, code) in codes {
                assert_eq!(code.n(), 2 * k, "{:?}", fam);
                assert_eq!(code.k(), k);
            }
        }
    }

    #[test]
    fn carousel_has_full_parallelism_in_family() {
        let code = CodeFamily::CarouselMsrBase.build(4).unwrap();
        assert_eq!(code.parallelism(), 8);
        let rs = CodeFamily::Rs.build(4).unwrap();
        assert_eq!(rs.parallelism(), 4);
    }

    #[test]
    fn measurements_are_positive_and_round_trip() {
        let code = CodeFamily::CarouselMsrBase.build(2).unwrap();
        let data = payload(code.as_ref(), 1 << 18);
        assert!(measure_encode(code.as_ref(), &data, 2) > 0.0);
        assert!(measure_decode(code.as_ref(), &data, 2) > 0.0);
        let t = measure_repair(code.as_ref(), &data, 2);
        assert!(t.helper_s >= 0.0 && t.newcomer_s >= 0.0);
        assert!(t.traffic_mb > 0.0);
    }

    #[test]
    fn traffic_matches_theory() {
        // RS: k blocks; MSR/Carousel(d=2k-1): d/(d-k+1) = (2k-1)/k blocks.
        let k = 4;
        let block_mb = 512.0;
        let rs = CodeFamily::Rs.build(k).unwrap();
        assert!((repair_traffic_mb(rs.as_ref(), block_mb) - 4.0 * 512.0).abs() < 1e-6);
        for fam in [CodeFamily::Msr, CodeFamily::CarouselMsrBase] {
            let c = fam.build(k).unwrap();
            let expect = (2 * k - 1) as f64 / k as f64 * block_mb;
            assert!(
                (repair_traffic_mb(c.as_ref(), block_mb) - expect).abs() < 1e-6,
                "{:?}",
                fam
            );
        }
        let crs = CodeFamily::CarouselRsBase.build(k).unwrap();
        assert!((repair_traffic_mb(crs.as_ref(), block_mb) - 4.0 * 512.0).abs() < 1e-6);
    }

    #[test]
    fn fig5_shows_sparsity() {
        let s = fig5_matrices();
        assert!(s.contains("(3,2) RS"));
        assert!(s.contains("Carousel"));
        // The Carousel matrix is 9x6 with max row weight 2 (= k), the
        // paper's sparsity observation.
        assert!(s.contains("9x6"));
        assert!(s.contains("max row weight 2"));
    }
}
