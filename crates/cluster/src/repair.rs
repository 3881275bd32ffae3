//! Background repair: prioritized stripe rebuild under foreground traffic.
//!
//! The paper's Carousel construction cuts *repair traffic* to
//! `d/(d−k+1)` of RS, but in production (the Facebook warehouse-cluster
//! measurements the paper cites) repair is not a one-shot pass on an idle
//! cluster — it is a sustained background workload competing with
//! foreground reads for the same disks and NICs. This module turns the
//! one-shot [`ClusterClient::repair_file`] into that background workload,
//! scheduled and throttled:
//!
//! * **liveness-driven queue** — a [`RepairScheduler`] subscribes to the
//!   coordinator's [`LivenessEvent`] stream. A `Down` node enumerates
//!   every `(file, stripe)` it hosted into a priority queue ordered by
//!   *erasure count* (most-degraded stripes first — they are closest to
//!   data loss), FIFO within a class. A second failure that touches a
//!   queued stripe upgrades its class in place; an `Up` event (flapping
//!   node re-registering) re-counts and *cancels* work whose erasures
//!   dropped to zero, so a bounced node is absorbed, not double-rebuilt.
//! * **worker pool** — `workers` threads drain the queue through
//!   [`ClusterClient::repair_stripe`], i.e. the same
//!   `access::RepairPlan`/`PlanExecutor` machinery as foreground repair,
//!   including re-homing onto spares and the coordinator placement commit.
//!   A worker whose presence probe finds the stripe healthy *absorbs* the
//!   task (zero blocks rebuilt) — the second idempotence layer.
//! * **two throttles** — a shared [`FanInGate`] caps concurrent helper
//!   repair reads per datanode at `F` (no node's foreground service is
//!   buried under helper traffic), and an optional [`RateLimiter`] paces
//!   total repair bytes to a global bytes/sec budget.
//! * **backoff** — a transiently failing stripe (helpers missing, no
//!   spare target yet) is re-queued with capped exponential backoff and
//!   abandoned after eight attempts.
//! * **observability** — gauges/histograms under `repair.*`, JSON event
//!   lines (`{"type":"repair",...}`) when a sink is installed, and the
//!   ten `repair.*` totals read out of any node's
//!   [`Request::Stats`](crate::protocol::Request::Stats) scrape as a
//!   [`RepairStatusReport`] (`carousel-tool repair-status`).
//!
//! A scheduler binds to **one coordinator** — its liveness feed and its
//! slice of the namespace. In a sharded deployment
//! ([`MetaRouter::sharded`](crate::MetaRouter::sharded)) run one
//! scheduler per shard: each repairs exactly the stripes its shard owns,
//! and the placement commits flow through that shard's record log,
//! bumping its epoch so cached client manifests invalidate.
//!
//! [`ClusterClient::repair_file`]: crate::ClusterClient::repair_file
//! [`ClusterClient::repair_stripe`]: crate::ClusterClient::repair_stripe

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use access::parallel::ParallelCtx;

use crate::client::{ClusterClient, RepairReport};
use crate::coordinator::{Coordinator, LivenessEvent};
use crate::error::ClusterError;

static QUEUE_DEPTH: LazyLock<&'static telemetry::Gauge> =
    LazyLock::new(|| telemetry::gauge("repair.queue.depth"));
static INFLIGHT: LazyLock<&'static telemetry::Gauge> =
    LazyLock::new(|| telemetry::gauge("repair.inflight"));
static ENQUEUED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.stripe.enqueued"));
static COMPLETED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.stripe.completed"));
static REQUEUED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.stripe.requeued"));
static CANCELLED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.stripe.cancelled"));
static ABANDONED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.stripe.abandoned"));
static BLOCKS_REBUILT: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.blocks.rebuilt"));
static HELPER_BYTES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.helper.bytes"));
static WIRE_BYTES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("repair.wire.bytes"));
static WAIT_US: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("repair.stripe.wait_us"));
static REBUILD_US: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("repair.stripe.rebuild_us"));
static BACKOFF_MS: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("repair.stripe.backoff_ms"));
static FANIN_LEVEL: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("repair.node.fanin"));

/// The per-node fan-in gauge `repair.fanin.node<N>`. Names are interned
/// once per node id (the registry requires `&'static str`).
fn node_fanin_gauge(node: usize) -> &'static telemetry::Gauge {
    static NAMES: LazyLock<Mutex<HashMap<usize, &'static str>>> = LazyLock::new(Mutex::default);
    let mut names = NAMES.lock().expect("fan-in gauge names lock");
    let name = *names
        .entry(node)
        .or_insert_with(|| Box::leak(format!("repair.fanin.node{node}").into_boxed_str()));
    telemetry::gauge(name)
}

/// Caps concurrent *helper repair reads* per datanode. A repair worker
/// acquires one permit on **every** helper node of its batch before any
/// wire traffic — all-or-nothing under one lock, so two workers with
/// overlapping helper sets can never deadlock holding partial sets — and
/// releases them all when the batch's RAII [`FanInPermit`] drops.
///
/// Shared across the scheduler's whole worker pool via `Arc`, so the cap
/// `F` holds cluster-wide: no datanode ever serves more than `F`
/// concurrent repair reads no matter how many workers are draining the
/// queue.
#[derive(Debug)]
pub struct FanInGate {
    cap: usize,
    counts: Mutex<HashMap<usize, usize>>,
    cv: Condvar,
}

impl FanInGate {
    /// A gate admitting at most `cap` (min 1) concurrent repair reads per
    /// node.
    pub fn new(cap: usize) -> Self {
        FanInGate {
            cap: cap.max(1),
            counts: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// The per-node cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Blocks until *every* node in `nodes` is below the cap, then takes
    /// one permit on each. Duplicate ids in `nodes` count once.
    pub fn acquire(&self, nodes: &[usize]) -> FanInPermit<'_> {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let mut counts = self.counts.lock().expect("fan-in gate lock");
        loop {
            let free = nodes
                .iter()
                .all(|n| counts.get(n).copied().unwrap_or(0) < self.cap);
            if free {
                for &n in &nodes {
                    let level = counts.entry(n).or_insert(0);
                    *level += 1;
                    FANIN_LEVEL.record(*level as u64);
                    node_fanin_gauge(n).add(1);
                }
                return FanInPermit { gate: self, nodes };
            }
            counts = self.cv.wait(counts).expect("fan-in gate lock");
        }
    }

    /// Current fan-in level of one node (test/debug visibility).
    pub fn level(&self, node: usize) -> usize {
        self.counts
            .lock()
            .expect("fan-in gate lock")
            .get(&node)
            .copied()
            .unwrap_or(0)
    }
}

/// RAII permit set returned by [`FanInGate::acquire`]; dropping it
/// releases one permit on every covered node and wakes waiters.
#[derive(Debug)]
pub struct FanInPermit<'a> {
    gate: &'a FanInGate,
    nodes: Vec<usize>,
}

impl Drop for FanInPermit<'_> {
    fn drop(&mut self) {
        let mut counts = self.gate.counts.lock().expect("fan-in gate lock");
        for &n in &self.nodes {
            if let Some(level) = counts.get_mut(&n) {
                *level -= 1;
                if *level == 0 {
                    counts.remove(&n);
                }
                node_fanin_gauge(n).add(-1);
            }
        }
        drop(counts);
        self.gate.cv.notify_all();
    }
}

/// Paces a byte stream to a global bytes/sec budget. Callers `debit`
/// bytes *after* moving them and sleep off the accumulated debt, so the
/// long-run rate never exceeds the budget (a burst is paid for before the
/// next one starts). Shared across workers: debt is global, each debitor
/// sleeps its own share.
#[derive(Debug)]
pub struct RateLimiter {
    bytes_per_sec: f64,
    state: Mutex<LimiterState>,
}

#[derive(Debug)]
struct LimiterState {
    debt_bytes: f64,
    last: Instant,
}

impl RateLimiter {
    /// A limiter budgeting `bytes_per_sec` (min 1) across all debitors.
    pub fn new(bytes_per_sec: u64) -> Self {
        RateLimiter {
            bytes_per_sec: bytes_per_sec.max(1) as f64,
            state: Mutex::new(LimiterState {
                debt_bytes: 0.0,
                last: Instant::now(),
            }),
        }
    }

    /// Records `bytes` moved and returns how long the caller must pause
    /// to stay inside the budget (the caller sleeps outside our lock).
    pub fn debit(&self, bytes: u64) -> Duration {
        let mut st = self.state.lock().expect("rate limiter lock");
        let now = Instant::now();
        let drained = now.duration_since(st.last).as_secs_f64() * self.bytes_per_sec;
        st.debt_bytes = (st.debt_bytes - drained).max(0.0) + bytes as f64;
        st.last = now;
        Duration::from_secs_f64(st.debt_bytes / self.bytes_per_sec)
    }
}

/// Point-in-time repair progress as a node's
/// [`Request::Stats`](crate::protocol::Request::Stats) scrape reports it:
/// the process-wide `repair.*` counters (summed over every
/// [`RepairScheduler`] in the process) and queue gauges (as the scheduler
/// that last touched its queue set them). Tests wanting per-scheduler
/// numbers should use [`RepairScheduler::status`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStatusReport {
    /// Stripes currently queued (not yet picked up).
    pub queue_depth: u64,
    /// Stripes being rebuilt right now.
    pub in_flight: u64,
    /// Stripes ever enqueued (including re-prioritized upgrades only once).
    pub enqueued: u64,
    /// Stripes rebuilt to completion (at least one block re-stored).
    pub completed: u64,
    /// Transient failures sent back to the queue with backoff.
    pub requeued: u64,
    /// Tasks cancelled or absorbed (flapping node returned, or the
    /// worker's probe found the stripe already healthy).
    pub cancelled: u64,
    /// Tasks dropped after eight consecutive failures.
    pub abandoned: u64,
    /// Blocks reconstructed and re-stored.
    pub blocks_rebuilt: u64,
    /// Helper payload bytes moved (the paper's `d/(d−k+1)` quantity).
    pub helper_bytes: u64,
    /// Helper bytes including protocol framing.
    pub wire_bytes: u64,
}

impl RepairStatusReport {
    /// Reads the ten `repair.*` metrics out of a registry snapshot. A name
    /// the snapshot lacks reads as 0 — a process that never ran a
    /// scheduler registered none of them.
    pub fn from_snapshot(snap: &telemetry::Snapshot) -> RepairStatusReport {
        let gauge = |name| snap.gauge(name).unwrap_or(0).max(0) as u64;
        let counter = |name| snap.counter(name).unwrap_or(0);
        RepairStatusReport {
            queue_depth: gauge("repair.queue.depth"),
            in_flight: gauge("repair.inflight"),
            enqueued: counter("repair.stripe.enqueued"),
            completed: counter("repair.stripe.completed"),
            requeued: counter("repair.stripe.requeued"),
            cancelled: counter("repair.stripe.cancelled"),
            abandoned: counter("repair.stripe.abandoned"),
            blocks_rebuilt: counter("repair.blocks.rebuilt"),
            helper_bytes: counter("repair.helper.bytes"),
            wire_bytes: counter("repair.wire.bytes"),
        }
    }
}

/// Tuning for a [`RepairScheduler`].
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Repair worker threads draining the queue (`0` = queue-only, useful
    /// in tests that inspect scheduling decisions).
    pub workers: usize,
    /// Per-node helper-read fan-in cap `F` (see [`FanInGate`]).
    pub node_fanin: usize,
    /// Global repair-bandwidth budget in bytes/sec; `None` = unpaced.
    pub bandwidth: Option<u64>,
    /// First retry delay after a transient failure; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff delay.
    pub backoff_cap: Duration,
    /// When set, a monitor thread expires nodes whose last heartbeat is
    /// older than this, turning silent death into `Down` events.
    pub heartbeat_ttl: Option<Duration>,
}

/// Attempts before a stripe is abandoned.
const MAX_ATTEMPTS: u32 = 8;
/// Monitor thread poll interval.
const MONITOR_TICK: Duration = Duration::from_millis(50);
/// Socket timeout of the worker clients.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Fan-out threads per worker client (helper reads per stripe go out
/// concurrently; about the code's `d` is plenty).
const FANOUT_THREADS: usize = 8;

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            workers: 2,
            node_fanin: 2,
            bandwidth: None,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            heartbeat_ttl: None,
        }
    }
}

/// Per-scheduler progress snapshot (see also the process-wide
/// [`RepairStatusReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStatus {
    /// Stripes currently queued.
    pub queue_depth: usize,
    /// Stripes being rebuilt right now.
    pub in_flight: usize,
    /// Stripes ever enqueued.
    pub enqueued: u64,
    /// Stripes rebuilt to completion.
    pub completed: u64,
    /// Transient failures re-queued with backoff.
    pub requeued: u64,
    /// Tasks cancelled on node revival or absorbed as already healthy.
    pub cancelled: u64,
    /// Tasks dropped after eight consecutive failures.
    pub abandoned: u64,
    /// Blocks reconstructed and re-stored.
    pub blocks_rebuilt: u64,
    /// Helper payload bytes moved.
    pub helper_bytes: u64,
    /// Helper bytes including framing.
    pub wire_bytes: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct TaskKey {
    file: String,
    stripe: usize,
}

#[derive(Debug, Clone)]
struct Task {
    /// Blocks of this stripe on dead nodes, per the coordinator's
    /// liveness view when (re-)enqueued. Priority class: higher first.
    erasures: usize,
    /// Enqueue order; FIFO tie-break within an erasure class.
    seq: u64,
    /// Failed rebuild attempts so far.
    attempts: u32,
    /// Not eligible before this instant (backoff).
    not_before: Instant,
    /// When the stripe first entered the queue (feeds `wait_us`).
    enqueued_at: Instant,
}

/// The queue proper: keyed by `(file, stripe)` so a stripe is never
/// queued twice — a second failure *upgrades* the existing entry.
#[derive(Debug, Default)]
struct RepairQueue {
    tasks: BTreeMap<TaskKey, Task>,
    next_seq: u64,
    in_flight: usize,
}

enum Pop {
    /// An eligible task, removed from the queue and counted in flight.
    Ready(TaskKey, Task),
    /// Nothing eligible; wait until the instant (or any queue change).
    Wait(Option<Instant>),
}

impl RepairQueue {
    /// Inserts a stripe or upgrades the queued entry's erasure class.
    /// Returns `true` when the stripe was newly inserted.
    fn insert_or_upgrade(&mut self, key: TaskKey, erasures: usize, now: Instant) -> bool {
        match self.tasks.get_mut(&key) {
            Some(task) => {
                if erasures > task.erasures {
                    task.erasures = erasures;
                    // A class upgrade makes the stripe urgent again:
                    // whatever backoff it was serving no longer reflects
                    // its risk.
                    task.not_before = now;
                }
                false
            }
            None => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.tasks.insert(
                    key,
                    Task {
                        erasures,
                        seq,
                        attempts: 0,
                        not_before: now,
                        enqueued_at: now,
                    },
                );
                true
            }
        }
    }

    /// Puts a transiently-failed task back. If the stripe was re-enqueued
    /// while in flight (another failure hit it), the entries merge: worst
    /// erasure class, original FIFO position, and the backoff deadline —
    /// the fresh failure event doesn't void what we just learned about
    /// this stripe's repairability.
    fn requeue(&mut self, key: TaskKey, task: Task) {
        match self.tasks.get_mut(&key) {
            Some(existing) => {
                existing.erasures = existing.erasures.max(task.erasures);
                existing.seq = existing.seq.min(task.seq);
                existing.attempts = task.attempts;
                existing.not_before = task.not_before;
                existing.enqueued_at = existing.enqueued_at.min(task.enqueued_at);
            }
            None => {
                self.tasks.insert(key, task);
            }
        }
    }

    /// Picks the most urgent eligible task: highest erasure count first,
    /// lowest sequence number (FIFO) within a class, skipping tasks still
    /// serving backoff.
    fn pop_eligible(&mut self, now: Instant) -> Pop {
        let mut best: Option<(&TaskKey, &Task)> = None;
        let mut next_deadline: Option<Instant> = None;
        for (key, task) in &self.tasks {
            if task.not_before > now {
                next_deadline = Some(match next_deadline {
                    Some(at) => at.min(task.not_before),
                    None => task.not_before,
                });
                continue;
            }
            let more_urgent = match best {
                None => true,
                Some((_, b)) => {
                    (task.erasures, std::cmp::Reverse(task.seq))
                        > (b.erasures, std::cmp::Reverse(b.seq))
                }
            };
            if more_urgent {
                best = Some((key, task));
            }
        }
        match best {
            Some((key, _)) => {
                let key = key.clone();
                let task = self.tasks.remove(&key).expect("picked task present");
                self.in_flight += 1;
                Pop::Ready(key, task)
            }
            None => Pop::Wait(next_deadline),
        }
    }
}

#[derive(Debug, Default)]
struct Totals {
    enqueued: AtomicU64,
    completed: AtomicU64,
    requeued: AtomicU64,
    cancelled: AtomicU64,
    abandoned: AtomicU64,
    blocks_rebuilt: AtomicU64,
    helper_bytes: AtomicU64,
    wire_bytes: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    coord: Arc<Coordinator>,
    cfg: RepairConfig,
    queue: Mutex<RepairQueue>,
    cv: Condvar,
    gate: Arc<FanInGate>,
    limiter: Option<RateLimiter>,
    stop: AtomicBool,
    totals: Totals,
}

impl Inner {
    /// Mirrors the queue's depth/in-flight into the gauges. Called under
    /// the queue lock after every mutation.
    fn sync_gauges(&self, q: &RepairQueue) {
        QUEUE_DEPTH.set(q.tasks.len() as i64);
        INFLIGHT.set(q.in_flight as i64);
    }

    fn emit(
        key: &TaskKey,
        event: &str,
        detail: impl FnOnce(telemetry::json::Obj) -> telemetry::json::Obj,
    ) {
        if telemetry::event_sink_installed() {
            let obj = telemetry::json::Obj::new()
                .str("type", "repair")
                .str("event", event)
                .str("file", &key.file)
                .u64("stripe", key.stripe as u64);
            telemetry::emit_event(detail(obj));
        }
    }

    /// A node died: enumerate the stripes it hosted into the queue,
    /// upgrading entries the failure makes more degraded.
    fn on_node_down(&self, node: usize) {
        // Gather outside the queue lock: these take the coordinator lock,
        // and `queue → coordinator` is this module's one permitted nesting
        // order (the coordinator never acquires the queue; its listener
        // runs after its own lock is released).
        let mut found = Vec::new();
        for (file, stripe) in self.coord.stripes_on(node) {
            let erasures = self.coord.stripe_erasures(&file, stripe).max(1);
            found.push((TaskKey { file, stripe }, erasures));
        }
        if found.is_empty() {
            return;
        }
        let mut fresh = Vec::new();
        {
            let mut q = self.queue.lock().expect("repair queue lock");
            let now = Instant::now();
            for (key, erasures) in found {
                if q.insert_or_upgrade(key.clone(), erasures, now) {
                    fresh.push((key, erasures));
                }
            }
            self.totals
                .enqueued
                .fetch_add(fresh.len() as u64, Ordering::Relaxed);
            ENQUEUED.add(fresh.len() as u64);
            self.sync_gauges(&q);
        }
        self.cv.notify_all();
        for (key, erasures) in &fresh {
            Self::emit(key, "enqueue", |obj| {
                obj.u64("erasures", *erasures as u64)
                    .u64("node", node as u64)
            });
        }
    }

    /// A node came back: re-count the erasures of every queued stripe it
    /// hosts and cancel those now healthy — the flapping node absorbed its
    /// own repair work.
    fn on_node_up(&self, node: usize) {
        let mut cancelled = Vec::new();
        {
            let mut q = self.queue.lock().expect("repair queue lock");
            let keys: Vec<TaskKey> = q.tasks.keys().cloned().collect();
            for key in keys {
                // Nested `queue → coordinator` locking; see on_node_down.
                let Some(fp) = self.coord.file(&key.file) else {
                    continue;
                };
                if !fp
                    .nodes
                    .get(key.stripe)
                    .is_some_and(|row| row.contains(&node))
                {
                    continue;
                }
                let erasures = self.coord.stripe_erasures(&key.file, key.stripe);
                if erasures == 0 {
                    q.tasks.remove(&key);
                    cancelled.push(key);
                } else if let Some(task) = q.tasks.get_mut(&key) {
                    task.erasures = erasures;
                }
            }
            self.totals
                .cancelled
                .fetch_add(cancelled.len() as u64, Ordering::Relaxed);
            CANCELLED.add(cancelled.len() as u64);
            self.sync_gauges(&q);
        }
        self.cv.notify_all();
        for key in &cancelled {
            Self::emit(key, "cancel", |obj| obj.u64("node", node as u64));
        }
    }

    /// Blocks until an eligible task exists (returning it) or shutdown.
    fn next_task(&self) -> Option<(TaskKey, Task)> {
        let mut q = self.queue.lock().expect("repair queue lock");
        loop {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            let now = Instant::now();
            match q.pop_eligible(now) {
                Pop::Ready(key, task) => {
                    self.sync_gauges(&q);
                    return Some((key, task));
                }
                Pop::Wait(deadline) => {
                    let wait = deadline
                        .map(|at| at.saturating_duration_since(now))
                        .unwrap_or(Duration::from_millis(100))
                        .clamp(Duration::from_millis(1), Duration::from_millis(100));
                    let (guard, _) = self.cv.wait_timeout(q, wait).expect("repair queue lock");
                    q = guard;
                }
            }
        }
    }

    /// Marks an in-flight task finished (whatever its outcome) and wakes
    /// `wait_idle` observers.
    fn task_done(&self) {
        let mut q = self.queue.lock().expect("repair queue lock");
        q.in_flight -= 1;
        self.sync_gauges(&q);
        drop(q);
        self.cv.notify_all();
    }

    /// Exponential backoff for the `attempts`-th retry, capped.
    fn backoff(&self, attempts: u32) -> Duration {
        let shift = attempts.saturating_sub(1).min(16);
        self.cfg
            .backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.cfg.backoff_cap)
    }

    /// Sleeps off a rate-limiter debt in slices, aborting on shutdown.
    fn pace(&self, bytes: u64) {
        let Some(limiter) = &self.limiter else { return };
        let mut pause = limiter.debit(bytes);
        while pause > Duration::ZERO && !self.stop.load(Ordering::Acquire) {
            let slice = pause.min(Duration::from_millis(100));
            std::thread::sleep(slice);
            pause -= slice;
        }
    }
}

/// The coordinator-driven background repair service. See the module docs
/// for the scheduling model. Dropping (or [`RepairScheduler::shutdown`])
/// stops the workers, joins them, and detaches from the coordinator.
#[derive(Debug)]
pub struct RepairScheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl RepairScheduler {
    /// Starts the scheduler: installs itself as the coordinator's
    /// liveness listener (one scheduler per coordinator), seeds the queue
    /// from already-dead nodes, and spawns the worker pool plus — when
    /// `heartbeat_ttl` is set — a monitor thread that expires silent
    /// nodes.
    pub fn spawn(coord: Arc<Coordinator>, cfg: RepairConfig) -> Self {
        let gate = Arc::new(FanInGate::new(cfg.node_fanin));
        let inner = Arc::new(Inner {
            coord: Arc::clone(&coord),
            limiter: cfg.bandwidth.map(RateLimiter::new),
            gate,
            cfg,
            queue: Mutex::new(RepairQueue::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            totals: Totals::default(),
        });
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        coord.set_liveness_listener(move |event| {
            if let Some(inner) = weak.upgrade() {
                match event {
                    LivenessEvent::Down(id) => inner.on_node_down(id),
                    LivenessEvent::Up(id) => inner.on_node_up(id),
                }
            }
        });
        // Nodes that died before the scheduler existed still need repair.
        for node in coord.nodes() {
            if !node.alive {
                inner.on_node_down(node.id);
            }
        }
        // The scheduler owns its long-lived worker and monitor threads;
        // its clients still fan out through `ParallelCtx`.
        #[allow(clippy::disallowed_methods)]
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("repair-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn repair worker")
            })
            .collect();
        #[allow(clippy::disallowed_methods)] // the scheduler's monitor thread
        let monitor = inner.cfg.heartbeat_ttl.map(|ttl| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("repair-monitor".into())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Acquire) {
                        let _ = inner.coord.expire_stale(ttl);
                        std::thread::sleep(MONITOR_TICK);
                    }
                })
                .expect("spawn repair monitor")
        });
        RepairScheduler {
            inner,
            workers,
            monitor,
        }
    }

    /// The coordinator this scheduler watches.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.inner.coord
    }

    /// Manually enqueues one stripe with its current erasure count (a
    /// healthy stripe is absorbed by the worker's presence probe, which
    /// also catches wiped-but-alive nodes liveness can't see).
    pub fn enqueue_stripe(&self, file: &str, stripe: usize) {
        let erasures = self.inner.coord.stripe_erasures(file, stripe);
        let key = TaskKey {
            file: file.to_string(),
            stripe,
        };
        {
            let mut q = self.inner.queue.lock().expect("repair queue lock");
            if q.insert_or_upgrade(key.clone(), erasures, Instant::now()) {
                self.inner.totals.enqueued.fetch_add(1, Ordering::Relaxed);
                ENQUEUED.inc();
            }
            self.inner.sync_gauges(&q);
        }
        self.inner.cv.notify_all();
        Inner::emit(&key, "enqueue", |obj| obj.u64("erasures", erasures as u64));
    }

    /// Per-scheduler progress snapshot.
    pub fn status(&self) -> SchedulerStatus {
        let (queue_depth, in_flight) = {
            let q = self.inner.queue.lock().expect("repair queue lock");
            (q.tasks.len(), q.in_flight)
        };
        let t = &self.inner.totals;
        SchedulerStatus {
            queue_depth,
            in_flight,
            enqueued: t.enqueued.load(Ordering::Relaxed),
            completed: t.completed.load(Ordering::Relaxed),
            requeued: t.requeued.load(Ordering::Relaxed),
            cancelled: t.cancelled.load(Ordering::Relaxed),
            abandoned: t.abandoned.load(Ordering::Relaxed),
            blocks_rebuilt: t.blocks_rebuilt.load(Ordering::Relaxed),
            helper_bytes: t.helper_bytes.load(Ordering::Relaxed),
            wire_bytes: t.wire_bytes.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the queue is empty *and* nothing is in flight, or the
    /// timeout passes. Returns whether the scheduler went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut q = self.inner.queue.lock().expect("repair queue lock");
        loop {
            if q.tasks.is_empty() && q.in_flight == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = deadline
                .saturating_duration_since(now)
                .min(Duration::from_millis(50));
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(q, wait)
                .expect("repair queue lock");
            q = guard;
        }
    }

    /// Stops the workers and monitor, joins them, and detaches the
    /// liveness listener. Dropping the scheduler does the same.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        self.inner.coord.clear_liveness_listener();
    }
}

impl Drop for RepairScheduler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Transient errors go back to the queue with backoff; these don't.
fn permanent(e: &ClusterError) -> bool {
    matches!(e, ClusterError::UnknownFile { .. })
}

fn worker_loop(inner: &Inner) {
    let mut client = ClusterClient::new(Arc::clone(&inner.coord))
        .with_timeout(CLIENT_TIMEOUT)
        .with_fanout(ParallelCtx::builder().threads(FANOUT_THREADS).build())
        .with_repair_gate(Arc::clone(&inner.gate));
    while let Some((key, task)) = inner.next_task() {
        WAIT_US.record(task.enqueued_at.elapsed().as_micros() as u64);
        Inner::emit(&key, "start", |obj| {
            obj.u64("erasures", task.erasures as u64)
                .u64("attempts", task.attempts as u64)
        });
        let started = Instant::now();
        match client.repair_stripe(&key.file, key.stripe) {
            Ok(report) => {
                REBUILD_US.record(started.elapsed().as_micros() as u64);
                if report.blocks_repaired == 0 {
                    // Already healthy — the flapping node brought its
                    // blocks back before we got here. Absorbed.
                    inner.totals.cancelled.fetch_add(1, Ordering::Relaxed);
                    CANCELLED.inc();
                    Inner::emit(&key, "absorb", |obj| obj);
                } else {
                    note_completed(inner, &report);
                    Inner::emit(&key, "done", |obj| {
                        obj.u64("blocks", report.blocks_repaired as u64)
                            .u64("helper_bytes", report.helper_payload_bytes)
                            .u64("rebuild_us", started.elapsed().as_micros() as u64)
                    });
                    // Pace against the bandwidth budget: helper traffic in
                    // plus rebuilt blocks out.
                    let block_bytes = inner
                        .coord
                        .file(&key.file)
                        .map_or(0, |fp| fp.block_bytes as u64);
                    inner.pace(report.wire_bytes + report.blocks_repaired as u64 * block_bytes);
                }
            }
            Err(e) if permanent(&e) => {
                inner.totals.cancelled.fetch_add(1, Ordering::Relaxed);
                CANCELLED.inc();
                Inner::emit(&key, "cancel", |obj| obj.str("error", &e.to_string()));
            }
            Err(e) => {
                let attempts = task.attempts + 1;
                if attempts >= MAX_ATTEMPTS {
                    inner.totals.abandoned.fetch_add(1, Ordering::Relaxed);
                    ABANDONED.inc();
                    Inner::emit(&key, "abandon", |obj| {
                        obj.u64("attempts", attempts as u64)
                            .str("error", &e.to_string())
                    });
                } else {
                    let delay = inner.backoff(attempts);
                    BACKOFF_MS.record(delay.as_millis() as u64);
                    REQUEUED.inc();
                    inner.totals.requeued.fetch_add(1, Ordering::Relaxed);
                    {
                        let mut q = inner.queue.lock().expect("repair queue lock");
                        q.requeue(
                            key.clone(),
                            Task {
                                erasures: task.erasures,
                                seq: task.seq,
                                attempts,
                                not_before: Instant::now() + delay,
                                enqueued_at: task.enqueued_at,
                            },
                        );
                        inner.sync_gauges(&q);
                    }
                    Inner::emit(&key, "requeue", |obj| {
                        obj.u64("attempts", attempts as u64)
                            .u64("backoff_ms", delay.as_millis() as u64)
                            .str("error", &e.to_string())
                    });
                }
            }
        }
        inner.task_done();
    }
}

fn note_completed(inner: &Inner, report: &RepairReport) {
    inner.totals.completed.fetch_add(1, Ordering::Relaxed);
    inner
        .totals
        .blocks_rebuilt
        .fetch_add(report.blocks_repaired as u64, Ordering::Relaxed);
    inner
        .totals
        .helper_bytes
        .fetch_add(report.helper_payload_bytes, Ordering::Relaxed);
    inner
        .totals
        .wire_bytes
        .fetch_add(report.wire_bytes, Ordering::Relaxed);
    COMPLETED.inc();
    BLOCKS_REBUILT.add(report.blocks_repaired as u64);
    HELPER_BYTES.add(report.helper_payload_bytes);
    WIRE_BYTES.add(report.wire_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: &str, stripe: usize) -> TaskKey {
        TaskKey {
            file: file.into(),
            stripe,
        }
    }

    #[test]
    fn queue_orders_by_erasures_then_fifo() {
        let mut q = RepairQueue::default();
        let now = Instant::now();
        assert!(q.insert_or_upgrade(key("a", 0), 1, now));
        assert!(q.insert_or_upgrade(key("a", 1), 1, now));
        assert!(q.insert_or_upgrade(key("b", 0), 2, now));
        // Duplicate insert neither re-inserts nor downgrades.
        assert!(!q.insert_or_upgrade(key("b", 0), 1, now));
        let order: Vec<TaskKey> = std::iter::from_fn(|| match q.pop_eligible(now) {
            Pop::Ready(k, _) => Some(k),
            Pop::Wait(_) => None,
        })
        .collect();
        assert_eq!(
            order,
            vec![key("b", 0), key("a", 0), key("a", 1)],
            "most-degraded first, FIFO within a class"
        );
        assert_eq!(q.in_flight, 3);
    }

    #[test]
    fn upgrade_resets_backoff_eligibility() {
        let mut q = RepairQueue::default();
        let now = Instant::now();
        q.insert_or_upgrade(key("a", 0), 1, now);
        // Simulate a failed attempt: requeue with a long backoff.
        let Pop::Ready(k, mut task) = q.pop_eligible(now) else {
            panic!("eligible");
        };
        q.in_flight -= 1;
        task.attempts = 1;
        task.not_before = now + Duration::from_secs(60);
        q.requeue(k, task);
        assert!(
            matches!(q.pop_eligible(now), Pop::Wait(Some(_))),
            "task is serving backoff"
        );
        // A second failure upgrades the class and makes it urgent again.
        q.insert_or_upgrade(key("a", 0), 2, now);
        match q.pop_eligible(now) {
            Pop::Ready(k, task) => {
                assert_eq!(k, key("a", 0));
                assert_eq!(task.erasures, 2);
                assert_eq!(task.attempts, 1, "attempt count survives the upgrade");
            }
            Pop::Wait(_) => panic!("upgraded task must be eligible"),
        }
    }

    #[test]
    fn requeue_merges_with_fresh_enqueue() {
        let mut q = RepairQueue::default();
        let now = Instant::now();
        q.insert_or_upgrade(key("a", 0), 1, now);
        let Pop::Ready(k, mut task) = q.pop_eligible(now) else {
            panic!("eligible");
        };
        q.in_flight -= 1;
        // While in flight, another failure re-enqueued the stripe…
        q.insert_or_upgrade(key("a", 0), 2, now);
        // …and the in-flight attempt fails and comes back with backoff.
        task.attempts = 3;
        task.not_before = now + Duration::from_millis(500);
        q.requeue(k, task.clone());
        let merged = q.tasks.get(&key("a", 0)).unwrap();
        assert_eq!(merged.erasures, 2, "worst class wins");
        assert_eq!(merged.seq, task.seq, "original FIFO position wins");
        assert_eq!(merged.attempts, 3);
        assert_eq!(merged.not_before, task.not_before, "backoff preserved");
    }

    #[test]
    fn fan_in_gate_is_all_or_nothing_and_caps_per_node() {
        let gate = Arc::new(FanInGate::new(2));
        let a = gate.acquire(&[1, 2]);
        let b = gate.acquire(&[2, 3, 3]); // duplicates count once
        assert_eq!(gate.level(1), 1);
        assert_eq!(gate.level(2), 2);
        assert_eq!(gate.level(3), 1);
        // Node 2 is at the cap: a third overlapping acquire must block
        // until a permit drops.
        let blocked = Arc::new(AtomicBool::new(false));
        #[allow(clippy::disallowed_methods)] // a waiter that must block, not a fan-out
        let handle = {
            let gate = Arc::clone(&gate);
            let blocked = Arc::clone(&blocked);
            std::thread::spawn(move || {
                let permit = gate.acquire(&[2]);
                blocked.store(true, Ordering::SeqCst);
                drop(permit);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!blocked.load(Ordering::SeqCst), "acquire must be waiting");
        drop(a);
        handle.join().unwrap();
        assert!(blocked.load(Ordering::SeqCst));
        drop(b);
        assert_eq!(gate.level(2), 0, "all permits returned");
    }

    #[test]
    fn rate_limiter_paces_to_budget() {
        let limiter = RateLimiter::new(1_000_000);
        // First debit inherits no debt beyond its own bytes.
        let pause = limiter.debit(300_000);
        assert!(
            pause >= Duration::from_millis(250) && pause <= Duration::from_millis(350),
            "0.3 MB at 1 MB/s is ~300ms of debt, got {pause:?}"
        );
        // Debt accumulates across debits when no time passes.
        let pause = limiter.debit(300_000);
        assert!(pause >= Duration::from_millis(500), "got {pause:?}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let inner = Inner {
            coord: Arc::new(Coordinator::new()),
            cfg: RepairConfig {
                backoff_base: Duration::from_millis(50),
                backoff_cap: Duration::from_millis(300),
                ..RepairConfig::default()
            },
            queue: Mutex::new(RepairQueue::default()),
            cv: Condvar::new(),
            gate: Arc::new(FanInGate::new(1)),
            limiter: None,
            stop: AtomicBool::new(false),
            totals: Totals::default(),
        };
        assert_eq!(inner.backoff(1), Duration::from_millis(50));
        assert_eq!(inner.backoff(2), Duration::from_millis(100));
        assert_eq!(inner.backoff(3), Duration::from_millis(200));
        assert_eq!(inner.backoff(4), Duration::from_millis(300), "capped");
        assert_eq!(inner.backoff(40), Duration::from_millis(300), "no overflow");
    }
}
