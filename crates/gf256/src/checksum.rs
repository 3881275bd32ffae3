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

const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *slot = c;
        }
        t
    })
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = table();
    let mut c = !0u32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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
