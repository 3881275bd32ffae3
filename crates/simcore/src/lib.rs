//! Discrete-event simulation with max-min fair bandwidth sharing.
//!
//! This crate is the substrate under the cluster experiments (paper
//! §VIII-C/D): it stands in for the 30-node EC2 cluster. The model is
//! deliberately the minimal one that produces the paper's effects:
//!
//! * a set of capacity **resources** (disks, NIC up/down links, CPU pools),
//!   each with a rate limit;
//! * **flows** that traverse one or more resources and carry a fixed amount
//!   of work (bytes or CPU-seconds); concurrent flows share every resource
//!   **max-min fairly** (progressive filling), with optional per-flow rate
//!   caps (a single map task cannot use more than one core);
//! * an **event queue** of timers; the [`Engine`] interleaves timer firings
//!   with flow completions, recomputing the fair allocation whenever the
//!   flow set changes.
//!
//! The engine is generic over the event payload so client crates drive the
//! loop with their own state machines and no callbacks:
//!
//! ```
//! use simcore::{Engine, ResourceId};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Done(&'static str) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! let link: ResourceId = engine.add_resource("link", 100.0); // 100 MB/s
//! engine.start_flow(300.0, &[link], None, Ev::Done("a"));
//! engine.start_flow(300.0, &[link], None, Ev::Done("b"));
//! // Two flows share the link: each runs at 50 MB/s, both finish at t = 6.
//! let (t1, _) = engine.next_event().unwrap();
//! let (t2, _) = engine.next_event().unwrap();
//! assert!((t1 - 6.0).abs() < 1e-9 && (t2 - 6.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod flownet;

pub use engine::{Engine, FlowId, TimerId, TraceEvent, TraceKind};
pub use flownet::{FlowNet, FlowSpec, ResourceId};
