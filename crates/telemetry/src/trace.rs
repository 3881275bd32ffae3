//! Distributed request tracing: process-unique ids, a by-value
//! [`TraceCtx`], and RAII child spans that emit `{"type":"trace",...}`
//! JSON lines with parent links into the event sink.
//!
//! Unlike [`crate::Span`] (whose parent links are *names* on a per-thread
//! stack), trace spans carry numeric ids that survive a trip over the
//! wire: a client threads its `TraceCtx` into each request frame, the
//! serving node adopts it, and the node's spans land in the same trace so
//! a whole `get` can be reassembled from the JSON-lines stream.
//!
//! Ids are `(pid << 32) | seq` from a process-local counter — unique
//! across the processes of a loopback cluster without any global
//! randomness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Obj;
use crate::{emit_event, event_sink_installed, histogram};

/// A fresh process-unique nonzero id: high 32 bits are the PID, low
/// 32 bits a sequence number (0 is reserved for "absent").
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    loop {
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let id = ((std::process::id() as u64) << 32) ^ seq;
        if id != 0 {
            return id;
        }
    }
}

/// Identifies one end-to-end request across every process it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The raw id (nonzero for a live trace).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Identifies one timed span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The raw id (0 means "no span": the root of a trace).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A by-value trace context: which trace we are in and which span is
/// the current parent. `Copy`, 16 bytes — thread it through calls and
/// closures freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    trace: u64,
    span: u64,
}

impl TraceCtx {
    /// Starts a brand-new trace with no parent span.
    pub fn root() -> TraceCtx {
        TraceCtx {
            trace: next_id(),
            span: 0,
        }
    }

    /// Adopts a context received over the wire as `(trace, span)`
    /// raw ids; `None` (or a zero trace id) starts a fresh root —
    /// requests from peers too old to propagate a context still get
    /// locally coherent spans.
    pub fn adopt(wire: Option<(u64, u64)>) -> TraceCtx {
        match wire {
            Some((trace, span)) if trace != 0 => TraceCtx { trace, span },
            _ => TraceCtx::root(),
        }
    }

    /// The raw `(trace, span)` pair to stamp on an outgoing frame.
    pub fn wire(&self) -> (u64, u64) {
        (self.trace, self.span)
    }

    /// The trace id.
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.trace)
    }

    /// The current parent span id (0 at the root).
    pub fn span_id(&self) -> SpanId {
        SpanId(self.span)
    }

    /// Opens a timed child span. On drop it records its duration in
    /// **microseconds** into the global histogram `name` and, when an
    /// event sink is installed, emits a `trace` JSON line linking it
    /// to this context's span.
    pub fn child(&self, name: &'static str) -> TraceSpan {
        TraceSpan {
            name,
            trace: self.trace,
            span: next_id(),
            parent: self.span,
            start: Instant::now(),
        }
    }
}

/// An RAII timed span inside a trace; created by [`TraceCtx::child`].
#[derive(Debug)]
pub struct TraceSpan {
    name: &'static str,
    trace: u64,
    span: u64,
    parent: u64,
    start: Instant,
}

impl TraceSpan {
    /// The context for work nested under this span: same trace, this
    /// span as the parent. Also the value to send over the wire so a
    /// remote peer's spans link here.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            span: self.span,
        }
    }

    /// The span's histogram name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        histogram(self.name).record(us);
        if event_sink_installed() {
            let mut obj = Obj::new()
                .str("type", "trace")
                .str("name", self.name)
                .u64("trace", self.trace)
                .u64("span", self.span)
                .u64("dur_us", us);
            if self.parent != 0 {
                obj = obj.u64("parent", self.parent);
            }
            emit_event(obj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let ctx = TraceCtx::root();
            let id = ctx.trace_id().as_u64();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "trace ids must be unique");
        }
    }

    #[test]
    fn wire_roundtrip_preserves_ids() {
        let root = TraceCtx::root();
        let span = root.child("trace.test.child_us");
        let sent = span.ctx().wire();
        let adopted = TraceCtx::adopt(Some(sent));
        assert_eq!(adopted.trace_id(), root.trace_id());
        assert_eq!(adopted.span_id().as_u64(), sent.1);
        // A zero trace id on the wire falls back to a fresh root.
        let fresh = TraceCtx::adopt(Some((0, 77)));
        assert_ne!(fresh.trace_id().as_u64(), 0);
        assert_eq!(fresh.span_id().as_u64(), 0);
    }

    #[test]
    fn child_spans_emit_parent_links_and_feed_histograms() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        crate::set_event_sink(buf.clone());
        let root = TraceCtx::root();
        let outer = root.child("trace.test.outer_us");
        let outer_id = outer.ctx().span_id().as_u64();
        {
            let _inner = outer.ctx().child("trace.test.inner_us");
        }
        drop(outer);
        crate::clear_event_sink();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let trace_key = format!("\"trace\":{}", root.trace_id().as_u64());
        let parent_key = format!("\"parent\":{outer_id}");
        for name in ["trace.test.outer_us", "trace.test.inner_us"] {
            let line = text
                .lines()
                .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
                .unwrap_or_else(|| panic!("no trace line for {name} in {text}"));
            assert!(line.contains("\"type\":\"trace\""), "{line}");
            assert!(line.contains(&trace_key), "{line}");
        }
        // The child links to the outer span; the outer span is a trace root.
        let inner_line = text
            .lines()
            .find(|l| l.contains("\"name\":\"trace.test.inner_us\""))
            .unwrap();
        assert!(inner_line.contains(&parent_key), "{inner_line}");
        let outer_line = text
            .lines()
            .find(|l| l.contains("\"name\":\"trace.test.outer_us\""))
            .unwrap();
        assert!(!outer_line.contains("\"parent\":"), "{outer_line}");
        // Durations also landed in the same-named histograms.
        let snap = crate::Registry::global().snapshot();
        assert_eq!(snap.histogram("trace.test.outer_us").unwrap().count, 1);
        assert_eq!(snap.histogram("trace.test.inner_us").unwrap().count, 1);
    }
}
