//! Memoized plans keyed by availability pattern, and the built codes they
//! are planned over.
//!
//! Building a decode or repair plan runs a Gaussian elimination; a
//! 1000-stripe degraded file read under one failure pattern needs exactly
//! one. The cache is availability-keyed (order-insensitive), FIFO-evicting —
//! degraded clusters see a handful of live-set combinations, so anything
//! smarter buys little — and shared behind `Arc` so parallel decode workers
//! hit the same entries.
//!
//! Building the code itself is not free either: a Carousel generator is a
//! `Ĝ·Ĝ₀⁻¹` product, hundreds of microseconds against a 16 KiB range
//! read's millisecond. A [`CodeCache`] keeps each built code and its
//! stripe geometry by `(CodeSpec, block size)`, FIFO-evicting the same
//! way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

use erasure::{CodeError, DegradedPlan, ErasureCode, ReadPlan, RepairPlan};

use crate::geometry::StripeGeometry;
use crate::spec::{AnyCode, CodeSpec};

static CACHE_HITS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("access.plan.cache.hit"));
static CACHE_MISSES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("access.plan.cache.miss"));

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Degraded,
    Repair,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    code: String,
    kind: Kind,
    /// Sorted availability (read/degraded) or helper (repair) set.
    nodes: Vec<usize>,
    /// Degraded target or repair failed index; unused for reads.
    extra: usize,
}

#[derive(Debug, Clone)]
enum Entry {
    Read(Arc<ReadPlan>),
    Degraded(Arc<DegradedPlan>),
    Repair(Arc<RepairPlan>),
}

/// A bounded, thread-safe store of access plans keyed by
/// `(code, availability pattern)`.
///
/// Hit/miss totals are tracked both as per-cache counters and as the
/// process-wide `access.plan.cache.hit` / `access.plan.cache.miss`
/// telemetry counters.
///
/// # Examples
///
/// ```
/// use access::PlanCache;
/// use carousel::Carousel;
///
/// let code = Carousel::new(6, 3, 3, 6)?;
/// let cache = PlanCache::new(8);
/// let available: Vec<usize> = (1..6).collect();
/// let a = cache.read_plan(&code, &available)?;
/// let b = cache.read_plan(&code, &[5, 4, 3, 2, 1])?; // same set, cached
/// assert_eq!(a.sources(), b.sources());
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok::<(), erasure::CodeError>(())
/// ```
#[derive(Debug)]
pub struct PlanCache {
    /// Zero means pass-through: every call builds a fresh plan.
    capacity: usize,
    entries: Mutex<VecDeque<(Key, Entry)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use [`PlanCache::disabled`] for a
    /// pass-through cache.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PlanCache {
            capacity,
            entries: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that never stores anything: every request builds a fresh
    /// plan (and counts as a miss). The baseline for cache-equivalence
    /// tests.
    pub fn disabled() -> Self {
        PlanCache {
            capacity: 0,
            entries: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// `false` for a [`PlanCache::disabled`] pass-through cache.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache poisoned").len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that built a fresh plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of requests served from cache (0.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// The stripe-read plan for this availability set, built on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`ErasureCode::plan_read`] failures (never cached).
    pub fn read_plan(
        &self,
        code: &dyn ErasureCode,
        available: &[usize],
    ) -> Result<Arc<ReadPlan>, CodeError> {
        let key = self.key(code, Kind::Read, available, 0);
        let entry = self.lookup_or(key, || {
            Ok(Entry::Read(Arc::new(code.plan_read(available)?)))
        })?;
        match entry {
            Entry::Read(plan) => Ok(plan),
            _ => unreachable!("read key maps to read entry"),
        }
    }

    /// The degraded block-region plan for `(target, availability)`, built on
    /// a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`ErasureCode::plan_block_read`] failures (never cached).
    pub fn degraded_plan(
        &self,
        code: &dyn ErasureCode,
        target: usize,
        available: &[usize],
    ) -> Result<Arc<DegradedPlan>, CodeError> {
        let key = self.key(code, Kind::Degraded, available, target);
        let entry = self.lookup_or(key, || {
            Ok(Entry::Degraded(Arc::new(
                code.plan_block_read(target, available)?,
            )))
        })?;
        match entry {
            Entry::Degraded(plan) => Ok(plan),
            _ => unreachable!("degraded key maps to degraded entry"),
        }
    }

    /// The repair plan for `(failed, helper set)`, built on a miss. The
    /// helper set is canonicalized to ascending order — the plan's tasks
    /// come back sorted by helper index regardless of input order.
    ///
    /// # Errors
    ///
    /// Propagates [`ErasureCode::repair_plan`] failures (never cached).
    pub fn repair_plan(
        &self,
        code: &dyn ErasureCode,
        failed: usize,
        helpers: &[usize],
    ) -> Result<Arc<RepairPlan>, CodeError> {
        let mut sorted = helpers.to_vec();
        sorted.sort_unstable();
        let key = self.key(code, Kind::Repair, &sorted, failed);
        let entry = self.lookup_or(key, || {
            Ok(Entry::Repair(Arc::new(code.repair_plan(failed, &sorted)?)))
        })?;
        match entry {
            Entry::Repair(plan) => Ok(plan),
            _ => unreachable!("repair key maps to repair entry"),
        }
    }

    fn key(&self, code: &dyn ErasureCode, kind: Kind, nodes: &[usize], extra: usize) -> Key {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        Key {
            code: code.name(),
            kind,
            nodes: sorted,
            extra,
        }
    }

    fn lookup_or<F>(&self, key: Key, build: F) -> Result<Entry, CodeError>
    where
        F: FnOnce() -> Result<Entry, CodeError>,
    {
        if self.capacity > 0 {
            let entries = self.entries.lock().expect("plan cache poisoned");
            if let Some((_, entry)) = entries.iter().find(|(k, _)| *k == key) {
                let entry = entry.clone();
                drop(entries);
                self.hits.fetch_add(1, Ordering::Relaxed);
                CACHE_HITS.inc();
                return Ok(entry);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.inc();
        let entry = build()?;
        if self.capacity > 0 {
            let mut entries = self.entries.lock().expect("plan cache poisoned");
            if entries.len() == self.capacity {
                entries.pop_front();
            }
            entries.push_back((key, entry.clone()));
        }
        Ok(entry)
    }
}

/// A bounded, thread-safe store of built codes and their stripe
/// geometries, keyed by `(CodeSpec, block_bytes)`: one
/// [`CodeSpec::build`] per distinct code a session opens, not one per
/// operation.
///
/// # Examples
///
/// ```
/// use access::{CodeCache, CodeSpec};
///
/// let codes = CodeCache::new(4);
/// let spec = CodeSpec::Carousel { n: 6, k: 3, d: 3, p: 6 };
/// let (a, geometry) = codes.open(spec, 120)?;
/// let (b, _) = codes.open(spec, 120)?; // built once
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(geometry.block_bytes(), 120);
/// # Ok::<(), erasure::CodeError>(())
/// ```
pub struct CodeCache {
    capacity: usize,
    entries: Mutex<VecDeque<CodeEntry>>,
}

/// One cached code: its key, then what it opened to.
type CodeEntry = ((CodeSpec, usize), (AnyCode, StripeGeometry));

impl std::fmt::Debug for CodeCache {
    /// The cached keys; a built code has no `Debug` of its own.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().expect("code cache poisoned");
        f.debug_struct("CodeCache")
            .field("capacity", &self.capacity)
            .field("keys", &entries.iter().map(|(k, _)| k).collect::<Vec<_>>())
            .finish()
    }
}

impl CodeCache {
    /// Creates a cache holding at most `capacity` codes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CodeCache {
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The code `spec` names and its geometry at `block_bytes`, built on a
    /// miss.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeSpec::build`] and [`StripeGeometry::new`]
    /// failures (never cached).
    pub fn open(
        &self,
        spec: CodeSpec,
        block_bytes: usize,
    ) -> Result<(AnyCode, StripeGeometry), CodeError> {
        let key = (spec, block_bytes);
        let cached = {
            let entries = self.entries.lock().expect("code cache poisoned");
            entries
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        if let Some(opened) = cached {
            return Ok(opened);
        }
        let code = spec.build()?;
        let geometry = StripeGeometry::new(&code, block_bytes)?;
        let mut entries = self.entries.lock().expect("code cache poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back((key, (Arc::clone(&code), geometry)));
        Ok((code, geometry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carousel::Carousel;

    #[test]
    fn hits_evicts_and_counts() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let cache = PlanCache::new(2);
        cache.read_plan(&code, &[0, 1, 2, 3, 4]).unwrap();
        cache.read_plan(&code, &[4, 3, 2, 1, 0]).unwrap(); // same set
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.read_plan(&code, &[1, 2, 3, 4, 5]).unwrap();
        cache.read_plan(&code, &[0, 2, 3, 4, 5]).unwrap(); // evicts the first
        assert_eq!(cache.len(), 2);
        cache.read_plan(&code, &[0, 1, 2, 3, 4]).unwrap(); // rebuilt
        assert_eq!(cache.misses(), 4);
        // Failures are not cached.
        assert!(cache.read_plan(&code, &[0, 1]).is_err());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn kinds_do_not_collide() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let cache = PlanCache::new(8);
        let available: Vec<usize> = (1..6).collect();
        cache.read_plan(&code, &available).unwrap();
        cache.degraded_plan(&code, 0, &available).unwrap();
        cache.repair_plan(&code, 0, &[1, 2, 3]).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        // Degraded plans for different targets are distinct entries.
        cache
            .degraded_plan(&code, 1, &(0..5).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn disabled_cache_always_rebuilds() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let cache = PlanCache::disabled();
        assert!(!cache.is_enabled());
        let available: Vec<usize> = (0..6).collect();
        cache.read_plan(&code, &available).unwrap();
        cache.read_plan(&code, &available).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(cache.is_empty());
    }

    #[test]
    fn repair_helpers_are_canonicalized() {
        let code = Carousel::new(8, 4, 6, 8).unwrap();
        let cache = PlanCache::new(4);
        let a = cache.repair_plan(&code, 0, &[6, 2, 4, 1, 5, 3]).unwrap();
        let b = cache.repair_plan(&code, 0, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(cache.hits(), 1);
        let nodes_a: Vec<usize> = a.helpers.iter().map(|t| t.node).collect();
        let nodes_b: Vec<usize> = b.helpers.iter().map(|t| t.node).collect();
        assert_eq!(nodes_a, nodes_b);
    }

    #[test]
    fn codes_are_built_once_per_spec_and_block_size() {
        let codes = CodeCache::new(2);
        let rs = CodeSpec::Rs { n: 6, k: 3 };
        let carousel = CodeSpec::Carousel {
            n: 6,
            k: 3,
            d: 3,
            p: 6,
        };
        let (a, _) = codes.open(carousel, 120).unwrap();
        let (b, _) = codes.open(carousel, 120).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let (c, geometry) = codes.open(carousel, 240).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "block size is part of the key");
        assert_eq!(geometry.block_bytes(), 240);
        let (r, _) = codes.open(rs, 120).unwrap(); // evicts the first
        let (d, _) = codes.open(carousel, 120).unwrap(); // evicts the second
        assert!(!Arc::ptr_eq(&a, &d));
        // Failures are not cached, so they evict nothing.
        assert!(codes.open(carousel, 121).is_err());
        assert!(codes.open(CodeSpec::Rs { n: 3, k: 6 }, 120).is_err());
        assert!(Arc::ptr_eq(&r, &codes.open(rs, 120).unwrap().0));
        assert!(Arc::ptr_eq(&d, &codes.open(carousel, 120).unwrap().0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }
}
