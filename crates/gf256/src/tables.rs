//! Precomputed log/exp and multiplication tables for GF(2⁸).
//!
//! The field is generated by the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the same choice made by ISA-L and most
//! storage systems. All tables are built by `const fn` at compile time so
//! the crate has zero runtime initialization.

/// The primitive polynomial 0x11D, reduced modulo x⁸ (low 8 bits: 0x1D).
pub(crate) const POLY: u16 = 0x11D;

/// `EXP[i] = g^i` for the generator `g = 2`, doubled to 512 entries so that
/// `EXP[log a + log b]` needs no modular reduction.
pub(crate) const EXP: [u8; 512] = build_exp();

/// `LOG[a] = i` such that `g^i = a`, for `a != 0`. `LOG[0]` is a sentinel (0).
pub(crate) const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut table = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Indices 510 and 511 are never reached (log sums are at most 508) but
    // keep them harmless.
    table[510] = table[0];
    table[511] = table[1];
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Split multiplication tables for the SIMD kernels: for every coefficient
/// `c`, `MUL_LO[c][x & 0xF] ^ MUL_HI[c][x >> 4] = c * x`.
///
/// This is the classic ISA-L / vector-shuffle decomposition: a byte-shuffle
/// instruction does both 16-entry lookups for a whole vector at once, and
/// the kernels' sub-vector tails do them one byte at a time.
pub(crate) struct SplitTables {
    pub lo: [[u8; 16]; 256],
    pub hi: [[u8; 16]; 256],
}

pub(crate) const SPLIT: SplitTables = build_split();

pub(crate) const fn gf_mul_const(a: u8, b: u8) -> u8 {
    // Carry-less multiply + reduction: table construction at compile time,
    // and the SWAR kernel's sub-word remainder tail at run time.
    let mut a = a as u16;
    let mut b = b as u16;
    let mut r: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    r as u8
}

const fn build_split() -> SplitTables {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            lo[c][x] = gf_mul_const(c as u8, x as u8);
            hi[c][x] = gf_mul_const(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    SplitTables { lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_round_trip() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
    }

    #[test]
    fn exp_is_periodic_255() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 must generate the whole multiplicative group: all EXP[0..255]
        // values distinct.
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().take(255).enumerate() {
            let v = e as usize;
            assert!(!seen[v], "EXP repeats at {i}");
            seen[v] = true;
        }
    }

    #[test]
    fn split_tables_match_carryless_multiply() {
        for c in [0u8, 1, 2, 0x1D, 0x53, 0xCA, 0xFF] {
            for x in 0..=255u8 {
                let split = SPLIT.lo[c as usize][(x & 0xF) as usize]
                    ^ SPLIT.hi[c as usize][(x >> 4) as usize];
                assert_eq!(split, gf_mul_const(c, x));
            }
        }
    }
}
