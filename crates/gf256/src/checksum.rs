//! CRC-32 (IEEE 802.3) checksums for block and frame integrity.
//!
//! Erasure codes recover *erased* blocks but silently propagate *corrupt*
//! ones; real storage systems (HDFS included) therefore checksum every
//! block. Three things carry this CRC: a stored block file
//! (`access::blockfile`, one per 4 KiB chunk plus a digest over them —
//! the format of both the cluster's block store and the filestore
//! directory, verified by whichever read returns the bytes), a wire frame
//! (verified by the receiver) and a metadata-log record (verified at
//! replay). A stored block that fails is treated as an erasure, letting
//! the code repair what bit rot damaged. It lives here, below all of
//! them, next to the other byte-slice kernels.
//!
//! A healthy `get` runs this CRC three times over every byte it returns
//! (chunk verify on the datanode, frame build, frame verify on the
//! client), so [`crc32`] has two implementations, one chosen on first
//! use and reported by [`crc32_path`]:
//!
//! * `pclmulqdq` — on x86-64 CPUs with `pclmulqdq` and `sse4.1`, a
//!   carry-less-multiply fold (Intel, "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ"). It lives with the other intrinsics in
//!   [`kernel::simd`](crate::kernel::simd) and is only handed out after
//!   detection approved it.
//! * `slicing-by-8` — everywhere else, and for the fold's short inputs
//!   and tails: eight bytes per step through eight 256-entry tables built
//!   at compile time.
//!
//! Both produce the same value; the tests hold each path this host can
//! run to the bytewise table loop they replaced.
//!
//! [`crc32_continue`] resumes a finished CRC over further bytes, so a
//! checksum over `a ‖ b` needs no buffer holding both: the wire codec
//! checks a `Data` frame over its 5-byte payload prefix and its bulk
//! bytes that way, on both the sending and the receiving side.

use std::sync::LazyLock;

/// The IEEE polynomial in reflected (LSB-first) bit order.
pub(crate) const POLY: u32 = 0xEDB8_8320;

/// Advances a CRC register over a byte slice. The register is the
/// pre-inverted state: `!0` before the first byte, inverted after the
/// last.
pub(crate) type Update = fn(u32, &[u8]) -> u32;

/// `TABLES[k][b]`: the register contribution of byte `b` followed by `k`
/// zero bytes, so one step of [`slicing_by_8`] looks up all eight bytes
/// of a word independently.
static TABLES: [[u32; 256]; 8] = slicing_tables();

const fn slicing_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The portable path: slicing-by-8, then bytewise for the last `< 8`
/// bytes. An [`Update`].
pub(crate) fn slicing_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The path [`crc32`] runs, chosen once: the fold when the CPU has it,
/// slicing-by-8 otherwise.
static ACTIVE: LazyLock<(&'static str, Update)> = LazyLock::new(|| {
    #[cfg(target_arch = "x86_64")]
    if let Some(fold) = crate::kernel::simd::pclmulqdq_crc32() {
        return ("pclmulqdq", fold);
    }
    ("slicing-by-8", slicing_by_8)
});

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_continue(0, data)
}

/// Extends a finished CRC-32 over more bytes: when `prev = crc32(a)`,
/// `crc32_continue(prev, b) == crc32(a ‖ b)`, and `crc32_continue(0, b)`
/// is `crc32(b)`. One checksum can so cover bytes that sit in separate
/// buffers — a wire frame's small payload prefix and its bulk data —
/// without copying them together. Runs the same path as [`crc32`].
pub fn crc32_continue(prev: u32, data: &[u8]) -> u32 {
    !(ACTIVE.1)(!prev, data)
}

/// Which implementation [`crc32`] runs on this host: `"pclmulqdq"` or
/// `"slicing-by-8"`.
pub fn crc32_path() -> &'static str {
    ACTIVE.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop `crc32` ran before slicing-by-8 and the
    /// fold, with its own table: the oracle every path is held to.
    fn bytewise(data: &[u8]) -> u32 {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        let t = TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, slot) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
                }
                *slot = c;
            }
            t
        });
        let mut c = !0u32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Every path this host can execute: slicing-by-8 always, the fold
    /// where it was detected.
    fn paths() -> Vec<(&'static str, Update)> {
        #[cfg(target_arch = "x86_64")]
        let fold = crate::kernel::simd::pclmulqdq_crc32();
        #[cfg(not(target_arch = "x86_64"))]
        let fold: Option<Update> = None;
        let mut paths = vec![("slicing-by-8", slicing_by_8 as Update)];
        paths.extend(fold.map(|f| ("pclmulqdq", f)));
        paths
    }

    /// A deterministic byte pattern with no short period.
    fn pattern(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    fn assert_paths_match(data: &[u8], what: &str) {
        let want = bytewise(data);
        for (name, update) in paths() {
            assert_eq!(!update(!0, data), want, "{name} {what}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors, through the oracle, every path and
        // the active one.
        for (data, want) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(bytewise(data), want);
            assert_eq!(crc32(data), want);
            for (name, update) in paths() {
                assert_eq!(!update(!0, data), want, "{name}");
            }
        }
    }

    #[test]
    fn the_fold_is_active_where_detected() {
        #[cfg(target_arch = "x86_64")]
        let fold = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let fold = false;
        let want = if fold { "pclmulqdq" } else { "slicing-by-8" };
        assert_eq!(crc32_path(), want);
        assert_eq!(paths().last().map(|p| p.0), Some(want));
    }

    /// Every length 0..=512 at every offset 0..16 — across the fold's
    /// 128-byte cut-over, its 64- and 16-byte steps and slicing's 8-byte
    /// words — plus the block-file chunk and the bulk block, each ±1.
    #[test]
    fn boundary_sweep() {
        let big = [4095, 4096, 4097, 983_040, 983_041];
        let backing = pattern(983_041 + 16);
        for off in 0..16 {
            for len in 0..=512 {
                assert_paths_match(&backing[off..off + len], &format!("len={len} off={off}"));
            }
        }
        for len in big {
            for off in [0, 1, 7, 15] {
                assert_paths_match(&backing[off..off + len], &format!("len={len} off={off}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_path_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..(64 << 10) + 17),
            off in 0usize..16,
        ) {
            let data = &data[off.min(data.len())..];
            let want = bytewise(data);
            for (name, update) in paths() {
                prop_assert_eq!(!update(!0, data), want, "{} len={}", name, data.len());
            }
        }
    }

    /// `crc32_continue` on one path: resume the finished CRC `prev`.
    fn resume(update: Update, prev: u32, data: &[u8]) -> u32 {
        !update(!prev, data)
    }

    /// Every split point of inputs long enough to cross the fold's
    /// 128-byte short-input cut-over and leave 1..=63-byte tails on both
    /// sides, on every path, plus the active path behind the public entry.
    #[test]
    fn continuing_equals_the_whole_at_every_split() {
        let backing = pattern(4096 + 300);
        for len in [0, 1, 7, 8, 15, 16, 63, 64, 127, 128, 129, 191, 255, 300] {
            let data = &backing[..len];
            let want = bytewise(data);
            for split in 0..=len {
                let (a, b) = data.split_at(split);
                assert_eq!(crc32_continue(crc32(a), b), want, "len={len} split={split}");
                for (name, update) in paths() {
                    let first = resume(update, 0, a);
                    assert_eq!(
                        resume(update, first, b),
                        want,
                        "{name} len={len} split={split}"
                    );
                }
            }
        }
        let long = &backing[..4096 + 300];
        for split in [1, 5, 64, 127, 128, 129, 4095, 4096, 4097, 4300] {
            let (a, b) = long.split_at(split);
            assert_eq!(crc32_continue(crc32(a), b), bytewise(long), "split={split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn continuing_matches_bytewise_on_every_path(
            data in proptest::collection::vec(any::<u8>(), 0..(8 << 10)),
            cut in any::<usize>(),
        ) {
            let split = cut % (data.len() + 1);
            let (a, b) = data.split_at(split);
            let want = bytewise(&data);
            prop_assert_eq!(crc32_continue(crc32(a), b), want);
            for (name, update) in paths() {
                let first = resume(update, 0, a);
                prop_assert_eq!(resume(update, first, b), want, "{} split={}", name, split);
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 1000];
        let base = crc32(&data);
        for pos in [0usize, 499, 999] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[pos] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at {pos}:{bit}");
            }
        }
    }
}
