//! SIMD kernels: the vector-shuffle GF(2⁸) split-table engine, and the
//! carry-less-multiply CRC-32 fold.
//!
//! All three kernels here are the same algorithm at different lane widths —
//! the classic ISA-L decomposition the scalar `split` kernel already uses,
//! lifted onto byte-shuffle instructions. For a coefficient `c`, the two
//! 16-entry tables `SPLIT.lo[c]` and `SPLIT.hi[c]` satisfy
//! `lo[x & 0xF] ^ hi[x >> 4] = c·x`; a byte-shuffle instruction
//! (`pshufb` / `vpshufb` / `tbl`) performs exactly "16 parallel 16-entry
//! table lookups", so one vector of products costs two shuffles, two masks
//! and an XOR, with the tables pinned in two registers for the whole slice:
//!
//! * `ssse3` — 16-byte lanes via `_mm_shuffle_epi8` (any x86-64 made after
//!   ~2006).
//! * `avx2` — the identical scheme on 32-byte lanes via
//!   `_mm256_shuffle_epi8`, tables broadcast to both 128-bit halves
//!   (`vpshufb` shuffles within each half, which is exactly what a
//!   broadcast table wants).
//! * `neon` — 16-byte lanes via `vqtbl1q_u8` on aarch64.
//!
//! Each kernel is only ever *registered* when the corresponding CPU feature
//! was detected at startup (see the registry in the parent module), which is
//! the safety argument for every `#[target_feature]` call site below. Heads
//! and tails shorter than one vector fall back to the scalar split-table
//! loop, so all length/aliasing contracts of the safe kernels hold
//! unchanged.
//!
//! The same argument covers the CRC-32 fold behind [`crate::crc32`] on
//! x86-64: `pclmulqdq_crc32` hands out the fold only after
//! `is_x86_feature_detected!` found `pclmulqdq` and `sse4.1`, and that
//! function pointer is the fold's only way out of this module. It folds
//! four 128-bit lanes per 64 bytes with `_mm_clmulepi64_si128`, reduces
//! to one lane and Barrett-reduces to 32 bits (Intel, "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ"); inputs under
//! 128 bytes and tails take the portable slicing-by-8 path.
//!
//! This module is the only place in the workspace allowed to contain
//! `unsafe` (every crate forbids it; this one denies it and allows it back
//! here); everything it exports is a safe `Kernel` implementation or a
//! safe CRC update function.

#![allow(unsafe_code)]

use super::Kernel;
use crate::tables::SPLIT;

/// Scalar split-table fallback for sub-vector heads/tails.
#[inline]
fn mul_acc_tail(c: u8, src: &[u8], dst: &mut [u8]) {
    let lo = &SPLIT.lo[c as usize];
    let hi = &SPLIT.hi[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Scalar split-table fallback, overwrite variant.
#[inline]
fn mul_tail(c: u8, src: &[u8], dst: &mut [u8]) {
    let lo = &SPLIT.lo[c as usize];
    let hi = &SPLIT.hi[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d = lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Scalar split-table fallback, in-place variant.
#[inline]
fn mul_in_place_tail(c: u8, buf: &mut [u8]) {
    let lo = &SPLIT.lo[c as usize];
    let hi = &SPLIT.hi[c as usize];
    for b in buf.iter_mut() {
        *b = lo[(*b & 0xF) as usize] ^ hi[(*b >> 4) as usize];
    }
}

// ---------------------------------------------------------------------------
// x86-64: SSSE3 (16-byte) and AVX2 (32-byte) PSHUFB kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// 16-byte-lane PSHUFB kernel. Registered only when SSSE3 is detected.
    pub(crate) struct Ssse3Kernel;

    /// 32-byte-lane VPSHUFB kernel. Registered only when AVX2 is detected.
    pub(crate) struct Avx2Kernel;

    pub(crate) static SSSE3: Ssse3Kernel = Ssse3Kernel;
    pub(crate) static AVX2: Avx2Kernel = Avx2Kernel;

    /// One 16-byte product vector: `lo[x&0xF] ^ hi[x>>4]` for every byte of
    /// `x`, with the split tables preloaded in `lo_t`/`hi_t`.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSSE3 support.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn product16(lo_t: __m128i, hi_t: __m128i, mask: __m128i, x: __m128i) -> __m128i {
        let lo = _mm_shuffle_epi8(lo_t, _mm_and_si128(x, mask));
        let hi = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64(x, 4), mask));
        _mm_xor_si128(lo, hi)
    }

    /// # Safety
    ///
    /// Caller must have verified SSSE3 support. `src`/`dst` lengths are
    /// equal (the handle validates) and may be arbitrarily unaligned:
    /// only unaligned loads/stores are used.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_acc_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo_t = _mm_loadu_si128(SPLIT.lo[c as usize].as_ptr() as *const __m128i);
        let hi_t = _mm_loadu_si128(SPLIT.hi[c as usize].as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            let p = product16(lo_t, hi_t, mask, x);
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_xor_si128(d, p));
            i += 16;
        }
        mul_acc_tail(c, &src[i..], &mut dst[i..]);
    }

    /// # Safety
    ///
    /// Same contract as [`mul_acc_ssse3`].
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo_t = _mm_loadu_si128(SPLIT.lo[c as usize].as_ptr() as *const __m128i);
        let hi_t = _mm_loadu_si128(SPLIT.hi[c as usize].as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            let p = product16(lo_t, hi_t, mask, x);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, p);
            i += 16;
        }
        mul_tail(c, &src[i..], &mut dst[i..]);
    }

    /// # Safety
    ///
    /// Same contract as [`mul_acc_ssse3`]; `buf` is both input and output.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_in_place_ssse3(c: u8, buf: &mut [u8]) {
        let lo_t = _mm_loadu_si128(SPLIT.lo[c as usize].as_ptr() as *const __m128i);
        let hi_t = _mm_loadu_si128(SPLIT.hi[c as usize].as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let len = buf.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = _mm_loadu_si128(buf.as_ptr().add(i) as *const __m128i);
            let p = product16(lo_t, hi_t, mask, x);
            _mm_storeu_si128(buf.as_mut_ptr().add(i) as *mut __m128i, p);
            i += 16;
        }
        mul_in_place_tail(c, &mut buf[i..]);
    }

    /// Register-fused multi-row product on 64-byte strips: four 16-byte
    /// accumulators are loaded from `dst` once, every term's products are
    /// XORed into them, and they are stored once — `dst` never round-trips
    /// through memory between terms.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSSE3 support; slice lengths all equal.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_acc_rows_ssse3(terms: &[(u8, &[u8])], dst: &mut [u8]) {
        let mask = _mm_set1_epi8(0x0F);
        let len = dst.len();
        let mut i = 0;
        while i + 64 <= len {
            let d = dst.as_mut_ptr().add(i);
            let mut a0 = _mm_loadu_si128(d as *const __m128i);
            let mut a1 = _mm_loadu_si128(d.add(16) as *const __m128i);
            let mut a2 = _mm_loadu_si128(d.add(32) as *const __m128i);
            let mut a3 = _mm_loadu_si128(d.add(48) as *const __m128i);
            for &(c, src) in terms {
                let lo_t = _mm_loadu_si128(SPLIT.lo[c as usize].as_ptr() as *const __m128i);
                let hi_t = _mm_loadu_si128(SPLIT.hi[c as usize].as_ptr() as *const __m128i);
                let s = src.as_ptr().add(i);
                let x0 = _mm_loadu_si128(s as *const __m128i);
                let x1 = _mm_loadu_si128(s.add(16) as *const __m128i);
                let x2 = _mm_loadu_si128(s.add(32) as *const __m128i);
                let x3 = _mm_loadu_si128(s.add(48) as *const __m128i);
                a0 = _mm_xor_si128(a0, product16(lo_t, hi_t, mask, x0));
                a1 = _mm_xor_si128(a1, product16(lo_t, hi_t, mask, x1));
                a2 = _mm_xor_si128(a2, product16(lo_t, hi_t, mask, x2));
                a3 = _mm_xor_si128(a3, product16(lo_t, hi_t, mask, x3));
            }
            _mm_storeu_si128(d as *mut __m128i, a0);
            _mm_storeu_si128(d.add(16) as *mut __m128i, a1);
            _mm_storeu_si128(d.add(32) as *mut __m128i, a2);
            _mm_storeu_si128(d.add(48) as *mut __m128i, a3);
            i += 64;
        }
        for &(c, src) in terms {
            mul_acc_ssse3(c, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for Ssse3Kernel {
        fn name(&self) -> &'static str {
            "ssse3"
        }

        fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
            // Safety: this kernel is only registered after
            // `is_x86_feature_detected!("ssse3")` returned true.
            unsafe { mul_acc_ssse3(c, src, dst) }
        }

        fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_ssse3(c, src, dst) }
        }

        fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_in_place_ssse3(c, buf) }
        }

        fn mul_acc_rows_raw(&self, terms: &[(u8, &[u8])], dst: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_acc_rows_ssse3(terms, dst) }
        }
    }

    /// One 32-byte product vector; the tables are broadcast to both 128-bit
    /// halves, matching `vpshufb`'s per-half shuffle semantics.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn product32(lo_t: __m256i, hi_t: __m256i, mask: __m256i, x: __m256i) -> __m256i {
        let lo = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(x, mask));
        let hi = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask));
        _mm256_xor_si256(lo, hi)
    }

    /// Loads a 16-byte split table and broadcasts it to both AVX2 halves.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `table` is 16 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn broadcast_table(table: &[u8; 16]) -> __m256i {
        _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr() as *const __m128i))
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slices may be unaligned.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo_t = broadcast_table(&SPLIT.lo[c as usize]);
        let hi_t = broadcast_table(&SPLIT.hi[c as usize]);
        let mask = _mm256_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 32 <= len {
            let x = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let p = product32(lo_t, hi_t, mask, x);
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_xor_si256(d, p),
            );
            i += 32;
        }
        mul_acc_tail(c, &src[i..], &mut dst[i..]);
    }

    /// # Safety
    ///
    /// Same contract as [`mul_acc_avx2`].
    #[target_feature(enable = "avx2")]
    unsafe fn mul_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo_t = broadcast_table(&SPLIT.lo[c as usize]);
        let hi_t = broadcast_table(&SPLIT.hi[c as usize]);
        let mask = _mm256_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 32 <= len {
            let x = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let p = product32(lo_t, hi_t, mask, x);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, p);
            i += 32;
        }
        mul_tail(c, &src[i..], &mut dst[i..]);
    }

    /// # Safety
    ///
    /// Same contract as [`mul_acc_avx2`]; `buf` is both input and output.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_in_place_avx2(c: u8, buf: &mut [u8]) {
        let lo_t = broadcast_table(&SPLIT.lo[c as usize]);
        let hi_t = broadcast_table(&SPLIT.hi[c as usize]);
        let mask = _mm256_set1_epi8(0x0F);
        let len = buf.len();
        let mut i = 0;
        while i + 32 <= len {
            let x = _mm256_loadu_si256(buf.as_ptr().add(i) as *const __m256i);
            let p = product32(lo_t, hi_t, mask, x);
            _mm256_storeu_si256(buf.as_mut_ptr().add(i) as *mut __m256i, p);
            i += 32;
        }
        mul_in_place_tail(c, &mut buf[i..]);
    }

    /// Register-fused multi-row product on 128-byte strips: four 32-byte
    /// accumulators stay in `ymm` registers across every term — the
    /// destination is loaded and stored exactly once per strip, which is
    /// what keeps decode/repair rows from round-tripping through L1 once
    /// per matrix term.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; slice lengths all equal.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_rows_avx2(terms: &[(u8, &[u8])], dst: &mut [u8]) {
        let mask = _mm256_set1_epi8(0x0F);
        let len = dst.len();
        let mut i = 0;
        while i + 128 <= len {
            let d = dst.as_mut_ptr().add(i);
            let mut a0 = _mm256_loadu_si256(d as *const __m256i);
            let mut a1 = _mm256_loadu_si256(d.add(32) as *const __m256i);
            let mut a2 = _mm256_loadu_si256(d.add(64) as *const __m256i);
            let mut a3 = _mm256_loadu_si256(d.add(96) as *const __m256i);
            for &(c, src) in terms {
                let lo_t = broadcast_table(&SPLIT.lo[c as usize]);
                let hi_t = broadcast_table(&SPLIT.hi[c as usize]);
                let s = src.as_ptr().add(i);
                let x0 = _mm256_loadu_si256(s as *const __m256i);
                let x1 = _mm256_loadu_si256(s.add(32) as *const __m256i);
                let x2 = _mm256_loadu_si256(s.add(64) as *const __m256i);
                let x3 = _mm256_loadu_si256(s.add(96) as *const __m256i);
                a0 = _mm256_xor_si256(a0, product32(lo_t, hi_t, mask, x0));
                a1 = _mm256_xor_si256(a1, product32(lo_t, hi_t, mask, x1));
                a2 = _mm256_xor_si256(a2, product32(lo_t, hi_t, mask, x2));
                a3 = _mm256_xor_si256(a3, product32(lo_t, hi_t, mask, x3));
            }
            _mm256_storeu_si256(d as *mut __m256i, a0);
            _mm256_storeu_si256(d.add(32) as *mut __m256i, a1);
            _mm256_storeu_si256(d.add(64) as *mut __m256i, a2);
            _mm256_storeu_si256(d.add(96) as *mut __m256i, a3);
            i += 128;
        }
        for &(c, src) in terms {
            mul_acc_avx2(c, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for Avx2Kernel {
        fn name(&self) -> &'static str {
            "avx2"
        }

        fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
            // Safety: this kernel is only registered after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { mul_acc_avx2(c, src, dst) }
        }

        fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_avx2(c, src, dst) }
        }

        fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_in_place_avx2(c, buf) }
        }

        fn mul_acc_rows_raw(&self, terms: &[(u8, &[u8])], dst: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_acc_rows_avx2(terms, dst) }
        }
    }

    // CRC-32 fold constants for the reflected IEEE polynomial, each
    // `(x^n mod P(x))` bit-reflected and shifted left one bit (the
    // reflected domain's product offset). A lane is carried 4·128 bits
    // along by K1/K2 (n = 544, 480), 128 bits by K3/K4 (n = 160, 96), and
    // from 96 to 64 bits by K5 (n = 64).
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)`, bit-reflected to 33 bits.
    const P_X: i64 = 0x1_DB71_0641;
    /// Barrett's `μ = ⌊x⁶⁴ / P(x)⌋`, bit-reflected to 33 bits.
    const MU: i64 = 0x1_F701_1641;

    /// Inputs shorter than this take the portable path: below it, the
    /// fold's fixed reduction costs more than it saves.
    const FOLD_MIN: usize = 128;

    /// Hands out the carry-less-multiply CRC-32 fold when the CPU has
    /// `pclmulqdq` and `sse4.1`. The only way to reach [`crc32_fold`]:
    /// holding the function means detection approved it.
    pub(crate) fn pclmulqdq_crc32() -> Option<crate::checksum::Update> {
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        detected.then_some(crc32_fold as crate::checksum::Update)
    }

    fn crc32_fold(crc: u32, data: &[u8]) -> u32 {
        // SAFETY: handed out only by `pclmulqdq_crc32`, after
        // `is_x86_feature_detected!` approved both features.
        unsafe { crc32_pclmulqdq(crc, data) }
    }

    /// `b ⊕ a.lo·keys.lo ⊕ a.hi·keys.hi`: lane `a` carried forward by the
    /// distance `keys` encode and folded into lane `b`.
    ///
    /// # Safety
    ///
    /// Caller must have verified PCLMULQDQ support.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advances the CRC register `crc` over `data` (the
    /// [`Update`](crate::checksum::Update) contract): four 128-bit lanes
    /// folded per 64 bytes, then one lane per 16, reduced to 64 bits and
    /// Barrett-reduced to 32. Short inputs and the `< 16`-byte tail go
    /// through slicing-by-8.
    ///
    /// # Safety
    ///
    /// Caller must have verified PCLMULQDQ and SSE4.1 support. `data` may
    /// be unaligned: only unaligned loads are used.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn crc32_pclmulqdq(crc: u32, data: &[u8]) -> u32 {
        let len = data.len();
        if len < FOLD_MIN {
            return crate::checksum::slicing_by_8(crc, data);
        }
        // Every load is 16 bytes at an `i` the loop conditions keep at or
        // below `len - 16`.
        let at = |i: usize| data.as_ptr().add(i) as *const __m128i;
        let mut x3 = _mm_xor_si128(_mm_loadu_si128(at(0)), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = _mm_loadu_si128(at(16));
        let mut x1 = _mm_loadu_si128(at(32));
        let mut x0 = _mm_loadu_si128(at(48));
        let mut i = 64;
        let k1k2 = _mm_set_epi64x(K2, K1);
        while i + 64 <= len {
            x3 = fold16(x3, _mm_loadu_si128(at(i)), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(at(i + 16)), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(at(i + 32)), k1k2);
            x0 = fold16(x0, _mm_loadu_si128(at(i + 48)), k1k2);
            i += 64;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(fold16(fold16(x3, x2, k3k4), x1, k3k4), x0, k3k4);
        while i + 16 <= len {
            x = fold16(x, _mm_loadu_si128(at(i)), k3k4);
            i += 16;
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (x mod x³²)·μ, T2 = (T1 mod x³²)·P; the register
        // is the upper half of x ⊕ T2 in the reflected domain.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let folded = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        crate::checksum::slicing_by_8(folded, &data[i..])
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::pclmulqdq_crc32;
#[cfg(target_arch = "x86_64")]
pub(super) use x86::{AVX2, SSSE3};

// ---------------------------------------------------------------------------
// aarch64: NEON vqtbl1q_u8 kernel
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::*;
    use core::arch::aarch64::*;

    /// 16-byte-lane `vqtbl1q_u8` kernel. Registered only when NEON is
    /// detected (in practice: every aarch64 Linux/macOS host).
    pub(crate) struct NeonKernel;

    pub(crate) static NEON: NeonKernel = NeonKernel;

    /// One 16-byte product vector via two table lookups. `vshrq_n_u8` is a
    /// per-byte logical shift, so the high nibble needs no mask.
    ///
    /// # Safety
    ///
    /// Caller must have verified NEON support.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn product16(
        lo_t: uint8x16_t,
        hi_t: uint8x16_t,
        mask: uint8x16_t,
        x: uint8x16_t,
    ) -> uint8x16_t {
        let lo = vqtbl1q_u8(lo_t, vandq_u8(x, mask));
        let hi = vqtbl1q_u8(hi_t, vshrq_n_u8::<4>(x));
        veorq_u8(lo, hi)
    }

    /// # Safety
    ///
    /// Caller must have verified NEON support; slices may be unaligned.
    #[target_feature(enable = "neon")]
    unsafe fn mul_acc_neon(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo_t = vld1q_u8(SPLIT.lo[c as usize].as_ptr());
        let hi_t = vld1q_u8(SPLIT.hi[c as usize].as_ptr());
        let mask = vdupq_n_u8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = vld1q_u8(src.as_ptr().add(i));
            let p = product16(lo_t, hi_t, mask, x);
            let d = vld1q_u8(dst.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, p));
            i += 16;
        }
        mul_acc_tail(c, &src[i..], &mut dst[i..]);
    }

    /// # Safety
    ///
    /// Same contract as [`mul_acc_neon`].
    #[target_feature(enable = "neon")]
    unsafe fn mul_neon(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo_t = vld1q_u8(SPLIT.lo[c as usize].as_ptr());
        let hi_t = vld1q_u8(SPLIT.hi[c as usize].as_ptr());
        let mask = vdupq_n_u8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = vld1q_u8(src.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), product16(lo_t, hi_t, mask, x));
            i += 16;
        }
        mul_tail(c, &src[i..], &mut dst[i..]);
    }

    /// # Safety
    ///
    /// Same contract as [`mul_acc_neon`]; `buf` is both input and output.
    #[target_feature(enable = "neon")]
    unsafe fn mul_in_place_neon(c: u8, buf: &mut [u8]) {
        let lo_t = vld1q_u8(SPLIT.lo[c as usize].as_ptr());
        let hi_t = vld1q_u8(SPLIT.hi[c as usize].as_ptr());
        let mask = vdupq_n_u8(0x0F);
        let len = buf.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = vld1q_u8(buf.as_ptr().add(i));
            vst1q_u8(buf.as_mut_ptr().add(i), product16(lo_t, hi_t, mask, x));
            i += 16;
        }
        mul_in_place_tail(c, &mut buf[i..]);
    }

    /// Register-fused multi-row product on 64-byte strips: four 16-byte
    /// accumulators stay in `q` registers across every term, so the
    /// destination is loaded and stored exactly once per strip.
    ///
    /// # Safety
    ///
    /// Caller must have verified NEON support; slice lengths all equal.
    #[target_feature(enable = "neon")]
    unsafe fn mul_acc_rows_neon(terms: &[(u8, &[u8])], dst: &mut [u8]) {
        let mask = vdupq_n_u8(0x0F);
        let len = dst.len();
        let mut i = 0;
        while i + 64 <= len {
            let d = dst.as_mut_ptr().add(i);
            let mut a0 = vld1q_u8(d);
            let mut a1 = vld1q_u8(d.add(16));
            let mut a2 = vld1q_u8(d.add(32));
            let mut a3 = vld1q_u8(d.add(48));
            for &(c, src) in terms {
                let lo_t = vld1q_u8(SPLIT.lo[c as usize].as_ptr());
                let hi_t = vld1q_u8(SPLIT.hi[c as usize].as_ptr());
                let s = src.as_ptr().add(i);
                a0 = veorq_u8(a0, product16(lo_t, hi_t, mask, vld1q_u8(s)));
                a1 = veorq_u8(a1, product16(lo_t, hi_t, mask, vld1q_u8(s.add(16))));
                a2 = veorq_u8(a2, product16(lo_t, hi_t, mask, vld1q_u8(s.add(32))));
                a3 = veorq_u8(a3, product16(lo_t, hi_t, mask, vld1q_u8(s.add(48))));
            }
            vst1q_u8(d, a0);
            vst1q_u8(d.add(16), a1);
            vst1q_u8(d.add(32), a2);
            vst1q_u8(d.add(48), a3);
            i += 64;
        }
        for &(c, src) in terms {
            mul_acc_neon(c, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for NeonKernel {
        fn name(&self) -> &'static str {
            "neon"
        }

        fn mul_acc_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
            // Safety: this kernel is only registered after
            // `is_aarch64_feature_detected!("neon")` returned true.
            unsafe { mul_acc_neon(c, src, dst) }
        }

        fn mul_raw(&self, c: u8, src: &[u8], dst: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_neon(c, src, dst) }
        }

        fn mul_in_place_raw(&self, c: u8, buf: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_in_place_neon(c, buf) }
        }

        fn mul_acc_rows_raw(&self, terms: &[(u8, &[u8])], dst: &mut [u8]) {
            // Safety: as above — registration implies detection.
            unsafe { mul_acc_rows_neon(terms, dst) }
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(super) use arm::NEON;
