//! Umbrella crate for the Carousel codes reproduction; see the member crates.
pub use carousel;
pub use dfs;
pub use erasure;
pub use gf256;
pub use mapreduce;
pub use msr;
pub use rs_code;
pub use simcore;
pub use workloads;
