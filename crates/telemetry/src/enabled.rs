//! The metric handles, the registry behind them and the event sink.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Obj;
use crate::snapshot::{bucket_index, HistogramSnapshot, Snapshot, BUCKETS};

/// A monotonically increasing, saturating atomic counter.
///
/// All operations use relaxed ordering: metrics need atomicity, not
/// inter-thread happens-before edges.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero (usable in `static` items).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (used between bench repetitions).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A settable signed atomic gauge.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// A lock-free log-bucketed histogram of `u64` samples (see
/// [`crate::snapshot`] for the bucketing scheme).
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64; BUCKETS]>,
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: a wrapped total is worse than a pinned one.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => sum = seen,
            }
        }
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records an `f64` sample, clamping negatives/NaN to 0 and rounding.
    pub fn record_f64(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 {
            v.round() as u64
        } else {
            0
        };
        self.record(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((i as u32, c))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Folds a [`HistogramSnapshot`] into this live histogram bucket-wise.
    ///
    /// Counts land in the exact buckets they came from, so merging remote
    /// snapshots (e.g. several nodes' `Stats` replies) into one histogram
    /// keeps the same ≤ 1/16 relative quantile error as recording locally
    /// — p99 resolution survives aggregation. Bucket indices outside the
    /// scheme are ignored rather than trusted.
    pub fn merge_from(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(snap.sum);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => sum = seen,
            }
        }
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
        for &(i, c) in &snap.buckets {
            if let Some(b) = self.buckets.get(i as usize) {
                b.fetch_add(c, Ordering::Relaxed);
            }
        }
    }

    /// Clears all samples.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// The process-wide collection of named metrics.
///
/// Handles are `&'static`: the registry leaks one small allocation per
/// distinct metric name, so hot paths can cache the reference (e.g. in a
/// `LazyLock`) and pay only an atomic op per update.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    /// A fresh registry (tests; production code uses [`Registry::global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("registry poisoned");
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// Copies every metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(n, h)| (n.to_string(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Resets every metric to its initial state (names stay registered).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("registry poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("registry poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("registry poisoned").values() {
            h.reset();
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// The counter named `name` in the global registry.
pub fn counter(name: &'static str) -> &'static Counter {
    Registry::global().counter(name)
}

/// The gauge named `name` in the global registry.
pub fn gauge(name: &'static str) -> &'static Gauge {
    Registry::global().gauge(name)
}

/// The histogram named `name` in the global registry.
pub fn histogram(name: &'static str) -> &'static Histogram {
    Registry::global().histogram(name)
}

// ---------------------------------------------------------------------------
// Structured event sink (JSON-lines) and span timers.
// ---------------------------------------------------------------------------

static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Installs a process-wide JSON-lines event sink. Span completions and
/// [`emit_event`] lines stream here until [`clear_event_sink`] runs.
pub fn set_event_sink(w: impl Write + Send + 'static) {
    *SINK.lock().expect("sink poisoned") = Some(Box::new(w));
}

/// Removes and flushes the process-wide event sink.
pub fn clear_event_sink() {
    if let Some(mut w) = SINK.lock().expect("sink poisoned").take() {
        let _ = w.flush();
    }
}

/// True if an event sink is currently installed.
pub fn event_sink_installed() -> bool {
    SINK.lock().expect("sink poisoned").is_some()
}

/// Writes one pre-built JSON object as a line to the sink, if installed.
/// Write errors are swallowed: telemetry must never fail the workload.
pub fn emit_event(obj: Obj) {
    let mut guard = SINK.lock().expect("sink poisoned");
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{}", obj.finish());
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A lightweight RAII span timer.
///
/// On drop it records its wall-clock duration (in nanoseconds) into the
/// global histogram of the same name and, when an event sink is installed,
/// emits a `span` JSON line carrying its position in the per-thread span
/// tree (`depth` and `parent`).
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    depth: usize,
    parent: Option<&'static str>,
}

impl Span {
    /// Opens a span; prefer the free function [`span`].
    pub fn enter(name: &'static str) -> Span {
        let (depth, parent) = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(name);
            (s.len() - 1, parent)
        });
        Span {
            name,
            start: Instant::now(),
            depth,
            parent,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = self.elapsed_ns();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own frame; defensive about unbalanced drops.
            if s.last() == Some(&self.name) {
                s.pop();
            }
        });
        histogram(self.name).record(ns);
        if event_sink_installed() {
            let mut obj = Obj::new()
                .str("type", "span")
                .str("name", self.name)
                .u64("dur_ns", ns)
                .u64("depth", self.depth as u64);
            if let Some(p) = self.parent {
                obj = obj.str("parent", p);
            }
            emit_event(obj);
        }
    }
}

/// Opens a span timer recording into histogram `name` (unit: nanoseconds).
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}
