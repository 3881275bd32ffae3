//! CRC-32 block checksums, re-exported from [`gf256::crc32`].

pub use gf256::crc32;
