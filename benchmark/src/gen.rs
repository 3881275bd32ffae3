//! Seeded input generation: every payload, offset, object order and
//! victim choice in the benchmark derives from `--seed` through this one
//! generator, so the same seed gives the same inputs. It is the
//! benchmark's own, not the workspace's vendored `rand`, so that a change
//! to the repository cannot change the bytes and offsets a seed stands
//! for. (Placement comes from the client's own generator, seeded with
//! `with_seed`.)

/// SplitMix64 — small, fast, and good enough to make payloads that no
/// layer can compress or special-case.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`: distinct `stream`
    /// values give independent sequences, so adding a consumer never
    /// shifts the inputs of another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`). The modulo bias is far below
    /// anything a benchmark offset distribution could notice.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Overwrites `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.fill(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = Rng::new(7, 1).bytes(1003);
        assert_eq!(a, Rng::new(7, 1).bytes(1003));
        assert_ne!(a, Rng::new(8, 1).bytes(1003));
        assert_ne!(a, Rng::new(7, 2).bytes(1003));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, 0);
        assert!((0..1000).all(|_| rng.below(17) < 17));
    }
}
