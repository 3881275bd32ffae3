//! Every registered kernel must be byte-identical to the scalar log/exp
//! oracle (`kernels()[0]`) — across random lengths and unaligned slice
//! offsets (the SWAR kernel reads `u64` words and the SIMD kernels
//! 16/32-byte vectors, so word-boundary handling matters), through both
//! operations, `mul_acc` and `mul_acc_rows`. The registry is
//! detection-dependent, so whatever SIMD kernel this host supports is swept
//! automatically alongside the portable two.

use gf256::{kernels, Gf256, KernelHandle};
use proptest::prelude::*;

fn scalar() -> KernelHandle {
    let oracle = kernels()[0];
    assert_eq!(oracle.name(), "scalar", "the oracle leads the registry");
    oracle
}

/// Strategy: a buffer of up to 4096 + 8 bytes plus an offset 0..8, so the
/// slices handed to the kernels start at every alignment class and the
/// effective lengths cover 0..=4096.
fn unaligned_data() -> impl Strategy<Value = (Vec<u8>, usize)> {
    (proptest::collection::vec(any::<u8>(), 0..4105), 0usize..8).prop_map(|(data, off)| {
        let off = off.min(data.len());
        (data, off)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mul_acc_matches_scalar_reference(
        c in any::<u8>(),
        (data, off) in unaligned_data(),
        seed in any::<u8>(),
    ) {
        let src = &data[off..];
        let reference = {
            let mut dst = vec![seed; src.len()];
            scalar().mul_acc(Gf256::new(c), src, &mut dst[..]);
            dst
        };
        for k in kernels() {
            let mut dst = vec![seed; src.len()];
            k.mul_acc(Gf256::new(c), src, &mut dst[..]);
            prop_assert_eq!(&dst, &reference, "kernel {} c={}", k.name(), c);
        }
    }

    #[test]
    fn fused_rows_match_scalar_term_by_term(
        coeffs in proptest::collection::vec(any::<u8>(), 1..6),
        len in 0usize..=1024,
        seed in any::<u8>(),
    ) {
        let rows: Vec<Vec<u8>> = (0..coeffs.len())
            .map(|r| (0..len).map(|i| (i * 97 + r * 131 + 17) as u8).collect())
            .collect();
        let terms: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&rows)
            .map(|(&c, row)| (Gf256::new(c), row.as_slice()))
            .collect();
        let reference = {
            let mut dst = vec![seed; len];
            for &(c, src) in &terms {
                scalar().mul_acc(c, src, &mut dst[..]);
            }
            dst
        };
        for k in kernels() {
            let mut dst = vec![seed; len];
            k.mul_acc_rows(&terms, &mut dst[..]);
            prop_assert_eq!(&dst, &reference, "kernel {}", k.name());
        }
    }
}

/// Explicit vector-width boundary sweep: every length 0..=96 at every
/// offset 0..8, per kernel and per operation. The SIMD kernels step in
/// 16/32-byte vectors (with 64/128-byte fused strips) and hand sub-vector
/// tails to a scalar loop, so every split point around those widths
/// is exercised deterministically — not just whenever the proptest sampler
/// happens to land there.
#[test]
fn unaligned_head_tail_boundaries() {
    // 96 covers one-past every vector width in use (16, 32, 64) plus a
    // full strip boundary for the 64-byte fused loops; the 128-byte AVX2
    // strip's split point is still hit via len 96 tails inside
    // `mul_acc_rows` (dst shorter than one strip).
    let backing: Vec<u8> = (0..96 + 8).map(|i| (i * 37 + 5) as u8).collect();
    for k in kernels() {
        for c in [0x02u8, 0x1D, 0xA7] {
            for off in 0..8usize {
                for len in 0..=96usize {
                    let src = &backing[off..off + len];

                    let mut reference = vec![0x5Au8; len];
                    scalar().mul_acc(Gf256::new(c), src, &mut reference[..]);
                    let mut dst = vec![0x5Au8; len];
                    k.mul_acc(Gf256::new(c), src, &mut dst[..]);
                    assert_eq!(dst, reference, "{} mul_acc len={len} off={off}", k.name());

                    // The fused entry point with several general terms, so
                    // the register-fused strip loop and its tail both run.
                    let rows: Vec<&[u8]> = vec![src; 3];
                    let terms: Vec<(Gf256, &[u8])> = [c, 0x53, 0xCA]
                        .iter()
                        .zip(rows)
                        .map(|(&cc, row)| (Gf256::new(cc), row))
                        .collect();
                    let mut fused_ref = vec![0xB1u8; len];
                    for &(cc, row) in &terms {
                        scalar().mul_acc(cc, row, &mut fused_ref[..]);
                    }
                    let mut fused = vec![0xB1u8; len];
                    k.mul_acc_rows(&terms, &mut fused[..]);
                    assert_eq!(
                        fused,
                        fused_ref,
                        "{} mul_acc_rows len={len} off={off}",
                        k.name()
                    );
                }
            }
        }
    }
}

/// Exhaustive single-byte check: for every (c, x) pair, every kernel's
/// `mul_acc` into a zeroed buffer agrees with the field's own scalar
/// multiply. 65 536 cases per kernel — cheap, and it pins down any table
/// error a random sweep could miss.
#[test]
fn exhaustive_single_byte_products() {
    for k in kernels() {
        for c in 0..=255u8 {
            let src: Vec<u8> = (0..=255).collect();
            let mut dst = vec![0u8; 256];
            k.mul_acc(Gf256::new(c), &src, &mut dst[..]);
            for x in 0..=255u8 {
                let want = (Gf256::new(c) * Gf256::new(x)).value();
                assert_eq!(dst[x as usize], want, "kernel {} c={c} x={x}", k.name());
            }
        }
    }
}
