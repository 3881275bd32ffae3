//! A simulated HDFS-like distributed storage system.
//!
//! This crate substitutes for the Hadoop/HDFS + EC2 testbed of the paper's
//! §VIII-C/D. It provides:
//!
//! * [`ClusterSpec`] / [`Topology`] — per-node disk, NIC up/down links and
//!   CPU pools wired into a [`simcore::Engine`], plus a remote client;
//! * [`Policy`] — the three storage schemes compared in the paper:
//!   `r`-way replication, systematic RS, and Carousel codes;
//! * [`Namenode`] — file → stripe → block metadata with failure-domain-aware
//!   placement (one block per node within a stripe) and failure injection;
//! * [`reader`] — the client download paths of Fig. 11: the sequential
//!   `hadoop fs -get` replica reader, and the parallel striped reader with
//!   its degraded (one-failure) variant that fetches parity and decodes.
//!
//! The crate models *time* — flows over disks, NICs and CPUs — not bytes:
//! it plans through `access` like the two byte-moving stacks (`filestore`,
//! `cluster`) but stores no blocks and is not an `access::ObjectStore`.
//!
//! Coding CPU costs are parameters (see `workloads::calibration`) measured
//! from the real kernels in this repository, so the simulated decode
//! penalty in the one-failure case tracks the actual implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod namenode;
mod policy;
mod topology;

pub mod reader;
pub mod repairer;

pub use access::Placement;
pub use namenode::{MapSplit, Namenode, PlacedBlock, StoredFile, Stripe};
pub use policy::{CodingRates, Policy, SplitSpec};
pub use topology::{ClusterSpec, Topology};
