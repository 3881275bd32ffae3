//! The transport-agnostic *access layer*: plans as pure data, execution as
//! a generic state machine.
//!
//! The paper's central claims (§IV, §VII) are about access: a Carousel code
//! lets any of `p ≥ k` servers serve original data, degrades gracefully when
//! blocks are lost, and repairs with `d/(d−k+1)` traffic. Those behaviors
//! must be *identical* whether blocks sit in memory, behind a discrete-event
//! simulator, or across TCP — so the planning and replanning logic lives
//! here, once, and every transport implements a single small trait:
//!
//! * [`ReadPlan`] / [`DegradedPlan`] / [`RepairPlan`] — the pure-data
//!   plans of `erasure`, re-exported: a code plans its own reads
//!   (`ErasureCode::plan_read` / `plan_block_read`, which `carousel`
//!   overrides with its one `p`-way read rule), this layer caches and
//!   executes them and never asks which family it serves;
//! * [`BlockSource`] — what a transport must provide: the unit width,
//!   availability, and one `fetch` answering a whole plan's
//!   [`BatchRequest`]s (unit reads, helper-side repair reads) at once;
//! * [`PlanExecutor`] — the one replanning loop: plan against believed
//!   availability, fetch, and on mid-read failure shrink the availability
//!   set and replan, up to a bounded number of attempts;
//! * [`PlanCache`] — memoizes the Gaussian eliminations behind decode and
//!   repair plans, keyed by the availability pattern, with
//!   `access.plan.cache.{hit,miss}` telemetry counters; [`CodeCache`]
//!   beside it keeps the built codes those plans run over;
//! * [`ObjectStore`] / [`PutOptions`] — the mutable-object API
//!   (put/get/get_range/write_range/append/delete) and its single
//!   implementation: the naming, packing and extent policy is written
//!   once over the small [`ObjectBackend`] trait of per-file primitives,
//!   so a transport supplies ~10 short methods and never re-types policy;
//! * [`Placement`] — where a stripe's blocks land (random or rack-aware),
//!   shared by the simulator's namenode and the cluster's coordinator;
//! * [`parallel`] — the shared worker pool ([`parallel::ParallelCtx`])
//!   and two-stage [`parallel::pipeline`] the transports fan out on;
//! * [`CodeSpec`] / [`AnyCode`] — the code registry: the serializable
//!   name of a code and the trait object it builds, in the one file that
//!   names every family, below both transports;
//! * [`StripeGeometry`] — how a file's bytes map onto stripes and message
//!   units for one code at one block size: the only place a block size is
//!   checked against a code, and the only owner of "data bytes per
//!   stripe", so both transports stripe a file identically for every
//!   family (MBR-shaped ones included);
//! * [`blockfile`] — the one on-disk block file both transports store
//!   blocks in: payload, a CRC-32 per 4 KiB chunk, a footer; the atomic
//!   write, the reads that verify exactly what they return, and the
//!   verify-or-quarantine rule.
//!
//! The two in-tree byte-moving stacks are `filestore` (in-memory blocks,
//! via [`MemorySource`]) and `cluster` (real TCP datanodes); `dfs`
//! simulates *time*, not bytes, and uses only the planning half.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockfile;
mod cache;
mod executor;
mod geometry;
mod object;
pub mod parallel;
mod placement;
mod source;
mod spec;

pub use cache::{CodeCache, PlanCache};
pub use erasure::{DegradedPlan, ReadMode, ReadPlan, RepairPlan};
pub use executor::{
    ExecError, FetchedStripe, PlanExecutor, RegionRead, RepairOutcome, StripeRead,
    DEFAULT_MAX_REPLANS,
};
pub use geometry::{Span, StripeGeometry};
pub use object::{
    check_range, Extent, ObjectBackend, ObjectError, ObjectStore, PackCursor, PutOptions,
    DEFAULT_PACK_LIMIT, PACK_PREFIX,
};
pub use placement::Placement;
pub use source::{BatchRequest, BlockSource, Fetch, MemorySource};
pub use spec::{AnyCode, CodeSpec};
