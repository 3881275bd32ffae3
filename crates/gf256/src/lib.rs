//! Arithmetic over the Galois field GF(2⁸) and dense matrix algebra on top
//! of it, as used throughout the Carousel codes reproduction.
//!
//! The paper performs all coding operations as vector/matrix multiplications
//! over GF(2⁸) (one symbol = one byte), originally via Intel ISA-L. This
//! crate is the Rust substitute: log/exp table arithmetic for scalars, a
//! runtime-dispatched [`mod@kernel`] engine for long byte slices (one kernel
//! per platform — AVX2 PSHUFB on x86-64, NEON on aarch64, a 64-bit SWAR
//! kernel elsewhere — chosen by CPU detection alone, with a scalar log/exp
//! kernel kept as the test oracle, all behind a `Copy` [`KernelHandle`]
//! whose two operations are `mul_acc` and `mul_acc_rows`), and a dense
//! [`Matrix`] type with Gauss-Jordan inversion plus the structured builders
//! (Vandermonde, Cauchy, Kronecker) the code constructions need. The
//! [`crc32`] every stored block and wire frame is guarded with lives here
//! too: a PCLMULQDQ fold on x86-64 CPUs that have it, slicing-by-8
//! elsewhere, chosen once at first use ([`crc32_path`] says which).
//!
//! `unsafe` is denied crate-wide with one carve-out: the intrinsics inside
//! the private `kernel::simd` module, each behind a `#[target_feature]`
//! function that is only reachable after the feature was detected — a
//! kernel is registered, or the CRC fold handed out, only then.
//!
//! # Examples
//!
//! ```
//! use gf256::{Gf256, Matrix};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! assert_eq!((a * b) / b, a);
//!
//! let m = Matrix::vandermonde(4, 2);
//! assert_eq!(m.rank(), 2);
//! ```

#![deny(unsafe_code)] // allowed back on only in kernel::simd
#![warn(missing_docs)]

mod checksum;
mod field;
mod matrix;
mod tables;

pub mod builders;
pub mod kernel;

pub use checksum::{crc32, crc32_path};
pub use field::Gf256;
pub use kernel::{detected_features, kernel, kernels, KernelHandle};
pub use matrix::Matrix;
