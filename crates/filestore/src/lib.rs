//! File-level storage on top of the coding crates: the layer a real
//! deployment (like the paper's Hadoop prototype) needs between "a code"
//! and "a file".
//!
//! * [`FileCodec`] — fixed-geometry encoder, built on
//!   [`access::StripeGeometry`]: a file becomes a sequence of stripes of
//!   [`FileCodec::stripe_data_bytes`] data each (`k · block_bytes` for
//!   MDS-shaped codes), every stripe independently encoded into `n`
//!   blocks;
//! * [`EncodedFile`] — in-memory encoded form with whole-file decode under
//!   arbitrary per-block availability, and **byte-range reads** that touch
//!   only the stripes/blocks they need (reading straight from data regions
//!   when possible, falling back to decoding only the affected stripes);
//! * [`LocalObjects`] — the in-memory [`access::ObjectBackend`]: named
//!   [`EncodedFile`]s plus an extent table, which the one object layer in
//!   `access` turns into an [`access::ObjectStore`] (put/get/get_range/
//!   write_range/append/delete, small-object packing);
//! * [`stream`] — incremental encoding/decoding over `std::io` readers and
//!   writers, one stripe of memory at a time;
//! * [`mod@format`] — a simple on-disk block format (`meta` + one file per
//!   block) used by the `carousel-tool` CLI.
//!
//! # Examples
//!
//! ```
//! use carousel::Carousel;
//! use filestore::FileCodec;
//!
//! let codec = FileCodec::new(Carousel::new(6, 4, 4, 6)?, 4098)?; // 3 units/block
//! let data = vec![7u8; 40_000]; // 2.5 stripes
//! let encoded = codec.encode(&data)?;
//! assert_eq!(encoded.stripes(), 3);
//! // Lose up to n - k = 2 blocks of every stripe and still read anything:
//! let mut lossy = encoded.clone();
//! lossy.drop_block(0, 1);
//! lossy.drop_block(1, 5);
//! lossy.drop_block(2, 0);
//! assert_eq!(lossy.read_range(10_000, 64)?, &data[10_000..10_064]);
//! # Ok::<(), filestore::FileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod objects;

pub mod checksum;

pub mod format;
pub mod stream;

pub use codec::{EncodedFile, FileCodec, FileMeta};
pub use erasure::consistency::StripeHealth;
pub use error::FileError;
pub use objects::LocalObjects;
