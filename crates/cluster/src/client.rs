//! The cluster client: encode-and-place writes, parallel/degraded reads,
//! and optimal-traffic repair, all over real TCP.
//!
//! The client is a thin transport under the `access` layer: it exposes the
//! datanodes of one stripe as a [`BlockSource`] and lets
//! [`access::PlanExecutor`] drive the paper's three read paths:
//!
//! * **direct parallel read** — with all `p` data-bearing blocks
//!   reachable, fetch only the data regions (`k/p` of each block) from
//!   `p` servers via [`Request::GetUnits`];
//! * **degraded read** — when a datanode dies (even mid-read), the
//!   failure is reported to the coordinator, the stripe is *replanned*
//!   against the surviving blocks, and parity units fill the gap;
//! * **repair** — a lost block is rebuilt by shipping each helper its
//!   `β × sub` coefficient matrix ([`Request::RepairRead`]) so only
//!   `d/(d−k+1)` block-sizes cross the network in the MSR regime.
//!
//! Planned parallelism becomes *wall-clock* parallelism in two layers:
//!
//! * **fan-out** — every multi-node exchange (a plan's fetches arriving
//!   at the [`StripeSource`] as one batch, a stripe's `PutBlock`s, an
//!   edit's `WriteDelta`s, a delete's `DeleteBlock`s, repair's `Stat`
//!   probes) goes through the one `Link::fan_out`, which spreads the
//!   per-node requests over the client's [`ParallelCtx`] workers, each on
//!   its own cached connection, so one stripe's `p` unit reads (or `d`
//!   helper reads) hit all nodes concurrently instead of paying `p`
//!   sequential round trips;
//! * **stripe pipelining** — every read touching more than one stripe
//!   (`get`, a multi-stripe `get_range`) keeps up to two stripes in
//!   flight, decoding stripe `i` while stripe `i+1` is being fetched, and
//!   multi-stripe puts and appends overlap stripe encoding with block
//!   uploads, recycling `EncodedStripe` buffers through the pipeline. An
//!   operation on a single stripe has nothing to overlap and runs inline.
//!
//! Which stripe and unit an offset falls into, how many data bytes a
//! stripe carries and whether a recorded placement fits its own code is
//! decided once, by [`access::StripeGeometry`] inside [`open`]; nothing
//! else in this file builds a code or does stripe arithmetic.
//!
//! The client is an [`access::ObjectBackend`]: it supplies per-file
//! primitives (`put_file`, the one range read, delta `write_file_range`,
//! `append_file`, block-reclaiming delete) and the [`MetaRouter`]'s
//! extent table, and the object layer in `access` — shared with the
//! in-memory store — makes it an [`access::ObjectStore`].
//!
//! Decode plans are memoized in an [`access::PlanCache`] keyed by the
//! availability pattern, and mid-operation replanning is bounded: a cluster
//! whose nodes keep failing surfaces [`ClusterError::ReplansExhausted`]
//! instead of retrying forever.
//!
//! Every byte in and out of the client is counted (and exported through
//! `carousel-telemetry`), so repair and read traffic are *measured*, not
//! asserted. Workers count bytes in private [`Tally`] values folded into
//! the client's totals after each operation — no shared counter is touched
//! on the hot path.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::ops::AddAssign;
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant};

use access::parallel::{self, ParallelCtx};
use access::Placement;
use access::{
    check_range, AnyCode, BatchRequest, BlockSource, CodeCache, CodeSpec, ExecError, Extent, Fetch,
    FetchedStripe, ObjectBackend, ObjectError, PackCursor, PlanCache, PlanExecutor, PutOptions,
    ReadMode, Span, StripeGeometry,
};
use erasure::{CodeError, ColumnUpdater, ErasureCode as _, SparseEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coordinator::{Coordinator, FilePlacement};
use crate::error::ClusterError;
use crate::protocol::{self, BlockId, Request, Response};
use crate::repair::{FanInGate, RepairStatusReport};
use crate::router::MetaRouter;

static CLIENT_TX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.client.tx_bytes"));
static CLIENT_RX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.client.rx_bytes"));
static READS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.reads"));
static READS_DEGRADED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.reads.degraded"));
static REPAIR_BLOCKS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.repair.blocks"));
static REPAIR_WIRE: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.repair.wire_bytes"));
static PIPELINE_INFLIGHT: LazyLock<&'static telemetry::Gauge> =
    LazyLock::new(|| telemetry::gauge("cluster.pipeline.inflight"));
static FETCH_STALL: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.fetch.stall_us"));
// Per-exchange phase timings: where a slow request actually spent its
// time. `connect` is only recorded when a fresh socket is opened, so its
// count doubles as a cache-miss counter.
static PHASE_CONNECT: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.connect_us"));
static PHASE_SEND: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.send_us"));
static PHASE_WAIT: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.wait_us"));
static PHASE_RECV: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.recv_us"));
static PHASE_DECODE: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.decode_us"));
// Client-side manifest cache outcomes: a hit is a lookup served without
// refetching the placement from the coordinator shard.
static META_CACHE_HIT: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.cache.hit"));
static META_CACHE_MISS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.cache.miss"));
// Mutable-object write path: in-place range writes, appends, and the
// delta traffic they ship (payload + framing, the wire cost the paper's
// update analysis bounds against full re-encode).
static UPDATE_WRITES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.write_ranges"));
static UPDATE_APPENDS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.appends"));
static UPDATE_DELTAS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.delta_requests"));
static UPDATE_WIRE: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.wire_bytes"));
static UPDATE_PACKED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.packed_puts"));
static DELETES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.deletes"));

/// One node's scraped telemetry registry, as returned by
/// [`ClusterClient::node_stats`].
pub type NodeStats = telemetry::Snapshot;

/// Decode plans cached per client (more than enough for the handful of
/// distinct failure patterns a session sees), and built codes likewise.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Stripes in flight between the two stages of the get/put pipelines:
/// enough to overlap one stripe's wire time with the next one's coding.
const PIPELINE_DEPTH: usize = 2;

/// Files whose manifests a client caches before evicting arbitrarily.
const MANIFEST_CACHE_CAPACITY: usize = 4096;

/// What a [`ClusterClient::repair_file`] (or single
/// [`ClusterClient::repair_stripe`]) pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Blocks reconstructed and re-stored.
    pub blocks_repaired: usize,
    /// Helper payload bytes that crossed the network (the quantity the
    /// paper bounds by `d/(d−k+1)` block-sizes per repaired block).
    pub helper_payload_bytes: u64,
    /// Total bytes received from helpers including protocol framing.
    pub wire_bytes: u64,
}

impl AddAssign for RepairReport {
    fn add_assign(&mut self, rhs: RepairReport) {
        self.blocks_repaired += rhs.blocks_repaired;
        self.helper_payload_bytes += rhs.helper_payload_bytes;
        self.wire_bytes += rhs.wire_bytes;
    }
}

/// Wire bytes one worker moved: its private slice of the client's tx/rx
/// counters. Workers return tallies by value and the client folds them in
/// after the fan-out joins, so the hot path shares no counter state.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    tx: u64,
    rx: u64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.tx += rhs.tx;
        self.rx += rhs.rx;
    }
}

/// One cached datanode connection plus its frame-payload scratch buffer
/// (reused by `read_response_into` for everything but a `Data` reply's
/// bytes, which land straight in the payload they become, so
/// steady-state reads allocate nothing for framing).
#[derive(Debug)]
struct NodeConn {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl NodeConn {
    /// Whether an idle cached connection is still open with nothing
    /// pending on it: a non-blocking `peek` sees neither the peer's EOF
    /// nor stray bytes. Asked before a request that must not be sent
    /// twice, where "send and retry on failure" is not available.
    fn is_idle_and_open(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet = matches!(
            self.stream.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        quiet && self.stream.set_nonblocking(false).is_ok()
    }
}

/// The connection/accounting half of the client: cached datanode sockets
/// behind a mutex and the worker pool that fans requests out over them,
/// with no planning knowledge at all. The mutex guards only the cache map —
/// a connection is *taken out* for the duration of an exchange, so
/// concurrent workers talk to different nodes without ever serializing on
/// each other's I/O.
#[derive(Debug)]
struct Link {
    meta: Arc<MetaRouter>,
    conns: Mutex<HashMap<usize, NodeConn>>,
    timeout: Duration,
    /// Worker pool for per-node request fan-out.
    ctx: ParallelCtx,
}

impl Link {
    fn take_conn(&self, node: usize) -> Option<NodeConn> {
        self.conns.lock().expect("conn cache lock").remove(&node)
    }

    fn put_conn(&self, node: usize, conn: NodeConn) {
        self.conns
            .lock()
            .expect("conn cache lock")
            .insert(node, conn);
    }

    /// One request/response exchange with a datanode, reusing a cached
    /// connection when possible and retrying once on a fresh connection
    /// if the cached one failed (it may simply have idled out).
    ///
    /// Fault taxonomy: a connect failure, EOF or socket error means the
    /// *node* is unreachable — it is reported dead to the coordinator and
    /// surfaces as [`ClusterError::NodeDown`]. A CRC/framing violation on
    /// a response means the *connection* is unusable — it is dropped and
    /// the exchange retried once on a fresh socket, and if that also
    /// fails the [`ClusterError::Protocol`] error is returned without
    /// touching the coordinator's liveness view (a corrupt frame is not
    /// evidence the node is down).
    ///
    /// Both retries re-send a request the node may already have executed,
    /// which is harmless only for an idempotent op
    /// ([`Request::is_idempotent`]; `WriteDelta` is not: a delta XORed
    /// into a block twice cancels itself). Any other request is put on
    /// the wire at most once per call — a cached connection is checked
    /// for staleness *before* the send ([`NodeConn::is_idle_and_open`])
    /// and any failure after it is returned, not retried.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeDown`] for unreachable nodes,
    /// [`ClusterError::Protocol`] for persistent framing faults.
    fn call(
        &self,
        node: usize,
        request: &Request,
        trace: telemetry::trace::TraceCtx,
    ) -> Result<(Response, Tally), ClusterError> {
        let addr = self
            .meta
            .node_addr(node)
            .ok_or(ClusterError::NodeDown { node })?;
        let down = || {
            self.meta.mark_dead(node);
            ClusterError::NodeDown { node }
        };
        let resendable = request.is_idempotent();
        let frame = request.encode(Some(protocol::WireTrace::from_ctx(&trace)));
        for attempt in 0..2u8 {
            let cached = self
                .take_conn(node)
                .filter(|conn| resendable || conn.is_idle_and_open());
            let had_cached = cached.is_some();
            let mut conn = match cached {
                Some(conn) => conn,
                None => {
                    let dialed = Instant::now();
                    match TcpStream::connect_timeout(&addr, self.timeout) {
                        Ok(stream) => {
                            PHASE_CONNECT.record(dialed.elapsed().as_micros() as u64);
                            let _ = stream.set_read_timeout(Some(self.timeout));
                            let _ = stream.set_write_timeout(Some(self.timeout));
                            let _ = stream.set_nodelay(true);
                            NodeConn {
                                stream,
                                scratch: Vec::new(),
                            }
                        }
                        Err(_) => return Err(down()),
                    }
                }
            };
            let sent = Instant::now();
            let exchange = conn
                .stream
                .write_all(&frame)
                .map_err(ClusterError::from)
                .and_then(|()| {
                    PHASE_SEND.record(sent.elapsed().as_micros() as u64);
                    Ok((
                        frame.len(),
                        protocol::read_response_into(&mut conn.stream, &mut conn.scratch)?,
                    ))
                });
            let last = attempt == 1 || !resendable;
            match exchange {
                Ok((tx, Some((response, rx, timing)))) => {
                    self.put_conn(node, conn);
                    CLIENT_TX.add(tx as u64);
                    CLIENT_RX.add(rx as u64);
                    PHASE_WAIT.record(timing.wait_ns / 1_000);
                    PHASE_RECV.record(timing.recv_ns / 1_000);
                    return Ok((
                        response,
                        Tally {
                            tx: tx as u64,
                            rx: rx as u64,
                        },
                    ));
                }
                // A corrupt frame poisons the connection, not the node:
                // drop the socket and retry once on a fresh one.
                Err(e @ ClusterError::Protocol { .. }) => {
                    if last {
                        return Err(e);
                    }
                }
                // EOF or socket failure: the node itself is suspect.
                // Retry once only if a stale cached connection may be to
                // blame.
                Ok((_, None)) | Err(_) => {
                    if !had_cached || last {
                        return Err(down());
                    }
                }
            }
        }
        unreachable!("loop returns on every path")
    }

    /// The one multi-node exchange: `count` [`Link::call`]s run
    /// concurrently on the worker pool, every request stamped with
    /// `trace`. Worker `i` builds its own `(node, request)` with `make(i)`
    /// and drops it when its exchange ends, so a batch of block-sized
    /// requests is never resident all at once. The wire bytes of every
    /// answered slot are added to `tally`; the per-slot outcomes come back
    /// in index order for the caller to classify.
    fn fan_out(
        &self,
        count: usize,
        trace: telemetry::trace::TraceCtx,
        tally: &mut Tally,
        make: impl Fn(usize) -> (usize, Request) + Sync,
    ) -> Vec<Result<Response, ClusterError>> {
        let slots = self.ctx.run(count, |i| {
            let (node, request) = make(i);
            self.call(node, &request, trace)
        });
        slots
            .into_iter()
            .map(|slot| {
                let (response, moved) = slot?;
                *tally += moved;
                Ok(response)
            })
            .collect()
    }

    /// The placement of `name`, straight from its shard (no cache).
    fn placement(&self, name: &str) -> Result<FilePlacement, ClusterError> {
        let unknown = || ClusterError::UnknownFile { name: name.into() };
        self.meta.file(name).ok_or_else(unknown)
    }
}

/// [`expect_reply`] for the write ops, whose only success is `Done`.
fn expect_done(op: &str, response: Response) -> Result<(), ClusterError> {
    expect_reply(op, response, false).map(drop)
}

/// The one reply classifier: a request succeeds with `Done` or — when it
/// asks for bytes (`want_data`) — with `Data`, whose payload is returned;
/// `Error` is the remote side refusing, anything else a protocol violation.
fn expect_reply(op: &str, response: Response, want_data: bool) -> Result<Vec<u8>, ClusterError> {
    match (response, want_data) {
        (Response::Done, false) => Ok(Vec::new()),
        (Response::Data(bytes), true) => Ok(bytes),
        (Response::Error(message), _) => Err(ClusterError::Remote { message }),
        (other, _) => Err(ClusterError::Protocol {
            reason: format!("unexpected {op} reply: {other:?}"),
        }),
    }
}

/// One stripe's datanodes seen as a [`BlockSource`]: unit requests become
/// [`Request::GetUnits`], helper repair reads become
/// [`Request::RepairRead`], and a node that cannot serve (dead, missing or
/// corrupt block) answers [`Fetch::Unavailable`] so the executor replans
/// around it. Each batch fans out over the client's worker pool — this is
/// where the paper's `p`-server data parallelism turns into concurrent
/// wire traffic.
struct StripeSource<'a> {
    link: &'a Link,
    name: &'a str,
    stripe: usize,
    /// Role → datanode id for this stripe.
    row: &'a [usize],
    geometry: StripeGeometry,
    /// Roles known present (repair's Stat-probed list); `None` means trust
    /// the coordinator's node liveness.
    present: Option<&'a [usize]>,
    /// Trace context stamped on every wire request this source issues, so
    /// the serving nodes' spans land in the caller's trace.
    trace: telemetry::trace::TraceCtx,
    /// Per-node fan-in cap applied to helper repair reads (the repair
    /// scheduler's throttle); `None` for foreground traffic.
    gate: Option<&'a FanInGate>,
    /// Wire bytes this source moved, folded into the client afterwards.
    tally: Tally,
}

impl<'a> StripeSource<'a> {
    /// A foreground source over stripe `stripe` of `name`: liveness from
    /// the coordinator, no fan-in gate. Repair overrides both fields.
    fn new(
        link: &'a Link,
        name: &'a str,
        stripe: usize,
        row: &'a [usize],
        geometry: StripeGeometry,
        trace: telemetry::trace::TraceCtx,
    ) -> Self {
        StripeSource {
            link,
            name,
            stripe,
            row,
            geometry,
            present: None,
            trace,
            gate: None,
            tally: Tally::default(),
        }
    }

    /// The wire request realizing one batch request.
    fn wire_request(&self, request: &BatchRequest<'_>) -> Request {
        let sub = self.geometry.sub();
        match request {
            BatchRequest::Units { node: role, units } => Request::GetUnits {
                id: block_id(self.name, self.stripe, *role),
                sub: sub as u32,
                units: units.iter().map(|&u| u as u32).collect(),
            },
            BatchRequest::Repair { node: role, task } => {
                let beta = task.beta();
                let mut coeffs = Vec::with_capacity(beta * sub);
                for r in 0..beta {
                    for c in 0..sub {
                        coeffs.push(task.coeffs.get(r, c).value());
                    }
                }
                Request::RepairRead {
                    id: block_id(self.name, self.stripe, *role),
                    rows: beta as u32,
                    cols: sub as u32,
                    coeffs,
                }
            }
        }
    }
}

impl BlockSource for StripeSource<'_> {
    type Error = ClusterError;

    fn unit_bytes(&self) -> usize {
        self.geometry.unit_bytes()
    }

    fn available(&mut self) -> Vec<usize> {
        match self.present {
            Some(present) => present.to_vec(),
            None => (0..self.row.len())
                .filter(|&r| self.link.meta.is_alive(self.row[r]))
                .collect(),
        }
    }

    /// Fans one plan's requests out to all their nodes concurrently. Each
    /// request targets a distinct node (the executor's contract), so
    /// workers never contend for a connection. A payload is data; a remote
    /// refusal or a dead node is `Unavailable` (the executor replans
    /// around it); anything else is transport-fatal.
    fn fetch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, ClusterError> {
        // A gated repair batch takes one permit per helper node (all or
        // nothing, so two workers can't deadlock on overlapping helper
        // sets) before any wire traffic; foreground reads never wait here.
        let _permit = self
            .gate
            .filter(|_| {
                requests
                    .iter()
                    .any(|r| matches!(r, BatchRequest::Repair { .. }))
            })
            .map(|gate| {
                let nodes: Vec<usize> = requests.iter().map(|r| self.row[r.node()]).collect();
                gate.acquire(&nodes)
            });
        let mut tally = Tally::default();
        let slots = self
            .link
            .fan_out(requests.len(), self.trace, &mut tally, |i| {
                let request = &requests[i];
                (self.row[request.node()], self.wire_request(request))
            });
        self.tally += tally;
        slots
            .into_iter()
            .map(|slot| match slot {
                Ok(Response::Data(bytes)) => Ok(Fetch::Data(bytes)),
                Ok(_) | Err(ClusterError::NodeDown { .. }) => Ok(Fetch::Unavailable),
                Err(e) => Err(e),
            })
            .collect()
    }
}

/// One cached per-file manifest, tagged with the owning shard's epoch
/// as observed *before* the manifest was read. A later lookup serves the
/// cached placement only while the shard epoch still matches; any
/// placement mutation on the shard (put, repair re-homing, delete)
/// bumps the epoch and forces a refetch — the cache can go stale but
/// can never be *served* stale.
#[derive(Debug)]
struct CachedManifest {
    epoch: u64,
    fp: Arc<FilePlacement>,
}

/// A client session against one [`Coordinator`]'s cluster (or several
/// coordinator shards behind a [`MetaRouter`]). Connections to
/// datanodes are cached and transparently re-opened; a node that cannot
/// be reached is reported dead to the coordinator so subsequent plans
/// avoid it.
#[derive(Debug)]
pub struct ClusterClient {
    link: Link,
    plans: PlanCache,
    /// Built codes by `(spec, block size)`, so an op does not rebuild its
    /// file's code.
    codes: CodeCache,
    /// Shared per-node fan-in cap applied to this client's helper repair
    /// reads; set by the repair scheduler on its worker clients.
    repair_gate: Option<Arc<FanInGate>>,
    /// Epoch-validated per-file manifest cache (see [`CachedManifest`]).
    manifests: HashMap<String, CachedManifest>,
    manifest_hits: u64,
    manifest_misses: u64,
    tx_bytes: u64,
    rx_bytes: u64,
    /// Code used by puts that name none (and by every pack).
    default_spec: CodeSpec,
    /// Block size used by puts that name none (and by every pack).
    default_block_bytes: usize,
    /// Placement randomness, advanced across puts. Seeded so a client's
    /// placements are reproducible; override with
    /// [`ClusterClient::with_seed`].
    rng: StdRng,
    /// The pack this client is currently filling, and its rollover limit.
    packs: PackCursor,
}

impl ClusterClient {
    /// Creates a client with a 10-second I/O timeout and a default-sized
    /// fan-out pool.
    pub fn new(coord: Arc<Coordinator>) -> Self {
        ClusterClient::routed(MetaRouter::single(coord))
    }

    /// Creates a client against a (possibly sharded) metadata router,
    /// with the same defaults as [`ClusterClient::new`].
    pub fn routed(meta: Arc<MetaRouter>) -> Self {
        ClusterClient {
            link: Link {
                meta,
                conns: Mutex::new(HashMap::new()),
                timeout: Duration::from_secs(10),
                ctx: ParallelCtx::default(),
            },
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            codes: CodeCache::new(PLAN_CACHE_CAPACITY),
            repair_gate: None,
            manifests: HashMap::new(),
            manifest_hits: 0,
            manifest_misses: 0,
            tx_bytes: 0,
            rx_bytes: 0,
            default_spec: CodeSpec::Rs { n: 6, k: 4 },
            default_block_bytes: 1 << 16,
            rng: StdRng::seed_from_u64(0x5EED),
            packs: PackCursor::default(),
        }
    }

    /// Overrides the code used by puts that do not name one via
    /// [`PutOptions::code`].
    #[must_use]
    pub fn with_default_code(mut self, spec: CodeSpec) -> Self {
        self.default_spec = spec;
        self
    }

    /// Overrides the block size used by puts that do not set
    /// [`PutOptions::block_bytes`].
    #[must_use]
    pub fn with_default_block_bytes(mut self, bytes: usize) -> Self {
        self.default_block_bytes = bytes;
        self
    }

    /// Reseeds the placement RNG (placements are deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Overrides the byte length at which an open pack rolls over and the
    /// next packed put starts a fresh pack file.
    #[must_use]
    pub fn with_pack_limit(mut self, bytes: u64) -> Self {
        self.packs.limit = bytes;
        self
    }

    /// Overrides the per-operation socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.link.timeout = timeout;
        self
    }

    /// Overrides the worker pool fanning one plan's fetches out to the
    /// datanodes. [`ParallelCtx::sequential`] restores the serial
    /// one-request-at-a-time wire behavior. Fan-out is latency-bound, not
    /// CPU-bound: a pool about as wide as the code's `n` is reasonable
    /// even on few cores.
    #[must_use]
    pub fn with_fanout(mut self, ctx: ParallelCtx) -> Self {
        self.link.ctx = ctx;
        self
    }

    /// Caps this client's concurrent helper repair reads per datanode.
    /// The gate is shared: the repair scheduler hands every worker client
    /// the same [`FanInGate`] so the cap holds across the whole pool.
    /// Foreground reads are never gated.
    #[must_use]
    pub fn with_repair_gate(mut self, gate: Arc<FanInGate>) -> Self {
        self.repair_gate = Some(gate);
        self
    }

    /// The coordinator this client plans against — the first (and, for
    /// an unsharded cluster, only) shard of its router.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.link.meta.shards()[0]
    }

    /// The metadata router this client plans against.
    pub fn router(&self) -> &Arc<MetaRouter> {
        &self.link.meta
    }

    /// Looks up a file's placement through the client's epoch-validated
    /// manifest cache: the owning shard's epoch is read *first*, and the
    /// cached entry is served only if its recorded epoch still matches,
    /// so any concurrent placement mutation forces a refetch (an extra
    /// round to the shard, never a stale manifest). This is the lookup
    /// every read runs on every call.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownFile`] for unknown names.
    pub fn file_manifest(&mut self, name: &str) -> Result<Arc<FilePlacement>, ClusterError> {
        let epoch = self.link.meta.epoch_of(name);
        if let Some(cached) = self.manifests.get(name) {
            if cached.epoch == epoch {
                self.manifest_hits += 1;
                META_CACHE_HIT.inc();
                return Ok(Arc::clone(&cached.fp));
            }
        }
        self.manifest_misses += 1;
        META_CACHE_MISS.inc();
        let fp = self.link.placement(name)?;
        let fp = Arc::new(fp);
        if self.manifests.len() >= MANIFEST_CACHE_CAPACITY && !self.manifests.contains_key(name) {
            // Evict an arbitrary entry; the cache is a working set, not
            // an LRU — a namespace this client sweeps uniformly gains
            // little from recency anyway.
            if let Some(victim) = self.manifests.keys().next().cloned() {
                self.manifests.remove(&victim);
            }
        }
        self.manifests.insert(
            name.to_string(),
            CachedManifest {
                epoch,
                fp: Arc::clone(&fp),
            },
        );
        Ok(fp)
    }

    /// `(hits, misses)` of the manifest cache over this client's
    /// lifetime (the `meta.cache.{hit,miss}` counters are process-wide).
    pub fn manifest_cache_stats(&self) -> (u64, u64) {
        (self.manifest_hits, self.manifest_misses)
    }

    /// The client's decode-plan cache (hit/miss counters included).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Total `(sent, received)` bytes over this client's lifetime,
    /// including framing — the measured network traffic.
    pub fn wire_counters(&self) -> (u64, u64) {
        (self.tx_bytes, self.rx_bytes)
    }

    fn fold(&mut self, tally: Tally) {
        self.tx_bytes += tally.tx;
        self.rx_bytes += tally.rx;
    }

    /// Encodes `data` with `spec`, places it across the alive nodes, and
    /// uploads every block. The engine under [`ObjectBackend::create`].
    ///
    /// # Errors
    ///
    /// Propagates geometry errors, placement failures (too few alive
    /// nodes, duplicate name) and upload failures.
    fn put_file(
        &mut self,
        name: &str,
        data: &[u8],
        spec: CodeSpec,
        block_bytes: usize,
    ) -> Result<FilePlacement, ClusterError> {
        if data.is_empty() {
            return Err(ObjectError::EmptyObject.into());
        }
        let (code, geometry) = self.codes.open(spec, block_bytes)?;
        let fp = self.link.meta.place_file(
            name,
            spec,
            data.len() as u64,
            block_bytes,
            geometry.stripes_for(data.len() as u64),
            Placement::Random,
            &mut self.rng,
        )?;
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.put_us");
        self.upload(name, &code, geometry, data, 0, &fp.nodes, op.ctx())?;
        Ok(fp)
    }

    /// Encodes `data` stripe by stripe and uploads stripe `first + i` of
    /// `name` to `rows[i]`, each stripe's `n` PutBlocks fanned out over the
    /// client's workers; with more than one stripe the encoder runs ahead
    /// of the uploads ([`staged`]).
    #[allow(clippy::too_many_arguments)]
    fn upload(
        &mut self,
        name: &str,
        code: &AnyCode,
        geometry: StripeGeometry,
        data: &[u8],
        first: usize,
        rows: &[Vec<usize>],
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<(), ClusterError> {
        let encoder = SparseEncoder::new(code.linear());
        let chunks: Vec<(usize, &[u8])> = data
            .chunks(geometry.stripe_data_bytes())
            .enumerate()
            .collect();
        // Stripe buffers are recycled through the stages: one being
        // encoded, one being sent, `PIPELINE_DEPTH` in between.
        let (recycle_tx, recycle_rx) = std::sync::mpsc::channel();
        for _ in 0..chunks.len().min(PIPELINE_DEPTH + 2) {
            recycle_tx
                .send(geometry.empty_stripe())
                .expect("recycle channel open");
        }
        let link = &self.link;
        let mut tally = Tally::default();
        let outcome = staged(
            chunks,
            move |(i, chunk)| {
                let mut stripe = recycle_rx.recv().expect("the ring outlives the run");
                encoder
                    .encode_into(chunk, &mut stripe)
                    .map(|()| (i, stripe))
            },
            |encoded| {
                let (i, stripe) = encoded?;
                let row = &rows[i];
                let sent = link.fan_out(row.len(), op_ctx, &mut tally, |role| {
                    let request = Request::PutBlock {
                        id: block_id(name, first + i, role),
                        data: stripe.blocks[role].clone(),
                    };
                    (row[role], request)
                });
                for reply in sent {
                    expect_done("PutBlock", reply?)?;
                }
                let _ = recycle_tx.send(stripe);
                Ok(())
            },
        );
        self.fold(tally);
        outcome
    }

    /// Reads `len` bytes at `offset` of a placed file (`range` `None`: the
    /// whole file, counted as one `cluster.reads`), byte-identical to what
    /// was stored — the engine under [`ObjectBackend::read`], so under
    /// `get`, `get_range` and every packed-object read.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownFile`] for unknown names,
    /// [`ClusterError::Protocol`] for ranges past the file's end, and the
    /// failures of [`ClusterClient::read_span`].
    fn read_file(
        &mut self,
        name: &str,
        range: Option<(u64, u64)>,
    ) -> Result<Vec<u8>, ClusterError> {
        let whole = range.is_none();
        let _timer = if whole {
            READS.inc();
            Some(telemetry::span("cluster.read.ns"))
        } else {
            None
        };
        // The whole read is one trace: per-stripe fetch/decode spans hang
        // off this root, and every wire request carries its ids so the
        // serving nodes' spans land in the same trace.
        let op = telemetry::trace::TraceCtx::root().child(if whole {
            "cluster.op.get_us"
        } else {
            "cluster.op.get_range_us"
        });
        let fp = self.file_manifest(name)?;
        let (offset, len) = range.unwrap_or((0, fp.file_len));
        let (out, degraded) = self.read_span(&fp, offset, len, op.ctx())?;
        if whole && degraded {
            READS_DEGRADED.inc();
        }
        Ok(out)
    }

    /// Turns bytes `[offset, offset + len)` of a placed file into
    /// fetched-and-decoded bytes, touching only the stripes involved;
    /// also reports whether any stripe left the direct read path.
    ///
    /// Per stripe the executor plans against the roles whose nodes the
    /// coordinator believes alive, fetches the whole plan as one
    /// fanned-out batch, and — if any fetch fails mid-read — excludes
    /// *all* failed roles and replans, degrading from the direct parallel
    /// path to the degraded path without surfacing the failure
    /// to the caller. With more than one stripe touched, stripe `i`
    /// decodes while stripe `i+1` is being fetched; each stripe decodes
    /// only its overlap with the range, straight onto the output — on the
    /// direct path one copy per unit from the payload it arrived in.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for ranges past the file's end,
    /// [`ClusterError::Unavailable`] when a stripe has fewer than `k`
    /// reachable blocks, and [`ClusterError::ReplansExhausted`] when nodes
    /// keep dying mid-read past the replan budget.
    fn read_span(
        &mut self,
        fp: &FilePlacement,
        offset: u64,
        len: u64,
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<(Vec<u8>, bool), ClusterError> {
        check_range(offset, len, fp.file_len)?;
        if len == 0 {
            return Ok((Vec::new(), false));
        }
        let (code, geometry) = open_placed(&self.codes, fp)?;
        let spans: Vec<Span> = geometry.spans(offset, len).collect();
        let name = fp.name.as_str();
        let executor = PlanExecutor::new(&self.plans);
        let link = &self.link;
        let code = &code;

        // Fetch one stripe's plan-worth of units (no decode yet).
        let mut tally = Tally::default();
        let fetch = |span: Span| {
            let s = span.index;
            let trace = op_ctx.child("cluster.fetch.stripe_us");
            let mut source = StripeSource::new(link, name, s, &fp.nodes[s], geometry, trace.ctx());
            let fetched = executor
                .fetch_stripe(code, &mut source)
                .map_err(|e| read_error(name, s, e));
            tally += source.tally;
            (span, fetched)
        };

        // Decode a fetched stripe's overlap with the range straight onto
        // the end of the output: stripes arrive in order, so each one's
        // window is the next `take` bytes.
        let mut out = Vec::with_capacity(len as usize);
        let mut degraded = false;
        let decode = |(span, fetched): (Span, Result<FetchedStripe, ClusterError>)| {
            let fetched = fetched?;
            if fetched.mode() != ReadMode::Direct || fetched.replans() > 0 {
                degraded = true;
            }
            let _span = op_ctx.child("cluster.decode.stripe_us");
            let decoded_at = Instant::now();
            debug_assert_eq!(out.len(), span.range().start, "stripes arrive in order");
            fetched
                .decode_into(span.within, span.take, &mut out)
                .map_err(|_| unreadable(name, span.index))?;
            PHASE_DECODE.record(decoded_at.elapsed().as_micros() as u64);
            Ok(())
        };

        let outcome = staged(spans, fetch, decode);
        self.fold(tally);
        outcome?;
        Ok((out, degraded))
    }

    /// Finds and rebuilds every missing block of `name`, executing the
    /// code's repair plan over the network: each helper node compresses
    /// its block locally with the shipped coefficients and returns
    /// `β/sub` of a block, so MSR-regime repair moves `d/(d−k+1)`
    /// block-sizes instead of `k`. Presence probes and the `d` helper
    /// reads of each repair fan out over the client's worker pool.
    ///
    /// The rebuilt block goes back to its original node if that node is
    /// reachable (e.g. after a quarantined corruption), otherwise to an
    /// alive node not already hosting a block of the stripe; the
    /// coordinator's placement is updated either way.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownFile`] for unknown names and
    /// [`ClusterError::Unavailable`] when fewer than `d` helpers or no
    /// target node can be found for some block.
    pub fn repair_file(&mut self, name: &str) -> Result<RepairReport, ClusterError> {
        let fp = self.link.placement(name)?;
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.repair_us");
        let mut report = RepairReport::default();
        for s in 0..fp.stripes {
            report += self.repair_stripe_traced(name, s, op.ctx())?;
        }
        Ok(report)
    }

    /// Repairs one stripe of `name`: probes presence, rebuilds every
    /// missing block through the code's repair plan, re-homes onto the
    /// original node or a spare, and commits the placement update. This is
    /// the unit of work the background repair scheduler dispatches; the
    /// placement is re-read from the coordinator on every call, so a
    /// stripe re-homed by an earlier repair serves as a helper here.
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::repair_file`], plus [`ClusterError::Protocol`]
    /// for an out-of-range stripe index.
    pub fn repair_stripe(
        &mut self,
        name: &str,
        stripe: usize,
    ) -> Result<RepairReport, ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.repair_stripe_us");
        self.repair_stripe_traced(name, stripe, op.ctx())
    }

    fn repair_stripe_traced(
        &mut self,
        name: &str,
        s: usize,
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<RepairReport, ClusterError> {
        // Repair deliberately bypasses the manifest cache: it must see
        // the freshest placement (an earlier repair may have re-homed a
        // helper this one needs), and repairs are rare enough that the
        // extra shard round trip is noise.
        let fp = self.link.placement(name)?;
        let Some(row) = fp.nodes.get(s) else {
            return Err(ClusterError::Protocol {
                reason: format!("file {name:?} has {} stripes, no stripe {s}", fp.stripes),
            });
        };
        let (code, geometry) = open_placed(&self.codes, &fp)?;
        let d = code.d();
        let executor = PlanExecutor::new(&self.plans);
        let mut report = RepairReport::default();
        let mut tally = Tally::default();
        // Keep a local copy so a block re-homed mid-stripe can serve as a
        // helper for the stripe's next missing block.
        let mut row = row.clone();
        let outcome = (|| -> Result<(), ClusterError> {
            let link = &self.link;
            // Probe which roles are actually present (node up AND block
            // stored uncorrupted), every alive node concurrently.
            let alive: Vec<usize> = (0..row.len())
                .filter(|&role| link.meta.is_alive(row[role]))
                .collect();
            let probes = link.fan_out(alive.len(), op_ctx, &mut tally, |i| {
                let id = block_id(name, s, alive[i]);
                (row[alive[i]], Request::Stat { id })
            });
            let mut present: Vec<usize> = alive
                .iter()
                .zip(probes)
                .filter(|(_, reply)| matches!(reply, Ok(Response::Data(_))))
                .map(|(&role, _)| role)
                .collect();
            let missing: Vec<usize> = (0..row.len())
                .filter(|role| !present.contains(role))
                .collect();
            for failed in missing {
                let mut source = StripeSource {
                    present: Some(&present),
                    gate: self.repair_gate.as_deref(),
                    ..StripeSource::new(link, name, s, &row, geometry, op_ctx)
                };
                let outcome = executor
                    .repair_block(&code, failed, &mut source)
                    .map_err(|e| repair_error(name, s, d, e));
                // Helper traffic = everything the repair source received,
                // framing included.
                report.wire_bytes += source.tally.rx;
                tally += source.tally;
                let outcome = outcome?;
                report.helper_payload_bytes += outcome.payload_bytes as u64;
                let target = if link.meta.is_alive(row[failed]) {
                    row[failed]
                } else {
                    link.meta
                        .alive_nodes()
                        .into_iter()
                        .find(|node| !row.contains(node))
                        .ok_or_else(|| ClusterError::Unavailable {
                            reason: format!(
                                "stripe {s} of {name:?}: no spare node for block {failed}"
                            ),
                        })?
                };
                let request = Request::PutBlock {
                    id: block_id(name, s, failed),
                    data: outcome.block,
                };
                let (reply, moved) = link.call(target, &request, op_ctx)?;
                tally += moved;
                expect_done("PutBlock", reply)?;
                // The commit flows through the shard's record log and
                // bumps its epoch, invalidating every client's cached
                // manifest of this file.
                link.meta.set_block_node(name, s, failed, target)?;
                row[failed] = target;
                present.push(failed);
                report.blocks_repaired += 1;
            }
            Ok(())
        })();
        self.fold(tally);
        outcome?;
        REPAIR_BLOCKS.add(report.blocks_repaired as u64);
        REPAIR_WIRE.add(report.wire_bytes);
        Ok(report)
    }

    /// Scrapes one datanode's full telemetry registry over the wire via
    /// [`Request::Stats`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeDown`] for unreachable nodes, or a protocol
    /// error when the reply cannot be decoded.
    pub fn node_stats(&mut self, node: usize) -> Result<NodeStats, ClusterError> {
        const SPAN: &str = "cluster.op.stats_us";
        let root = telemetry::trace::TraceCtx::root().child(SPAN);
        let (response, tally) = self.link.call(node, &Request::Stats, root.ctx())?;
        self.fold(tally);
        protocol::decode_stats(&expect_reply(SPAN, response, true)?)
    }

    /// One datanode's process-wide repair-scheduler totals: its
    /// [`ClusterClient::node_stats`] scrape, read as the ten `repair.*`
    /// gauges and counters.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::node_stats`].
    pub fn repair_status(&mut self, node: usize) -> Result<RepairStatusReport, ClusterError> {
        Ok(RepairStatusReport::from_snapshot(&self.node_stats(node)?))
    }

    /// Ships an in-place edit of a placed file's bytes as per-node
    /// [`Request::WriteDelta`]s: for each touched stripe the edit's
    /// unit-aligned message deltas are computed once, and every affected
    /// alive node applies `Σ coeffᵢ · Δᵢ` to its block locally —
    /// parity' = parity ⊕ G·Δdata, byte-identical to re-encoding the
    /// edited stripe, with only the delta (not the stripe) on the wire.
    /// `old` holds the previous contents of the edited span (all zeros
    /// for an append's tail fill, where the span was implicit padding).
    ///
    /// A node that is dead — or dies mid-update — misses its delta: its
    /// block is stale, but the node is marked dead, so reads exclude it
    /// and repair rebuilds the block from the *updated* survivors. The
    /// one unhealed hazard is a node reviving by heartbeat without a
    /// repair in between; that window exists for every missed write, not
    /// just deltas.
    fn delta_write(
        &mut self,
        fp: &FilePlacement,
        offset: u64,
        old: &[u8],
        new: &[u8],
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<(), ClusterError> {
        debug_assert_eq!(old.len(), new.len());
        if new.is_empty() {
            return Ok(());
        }
        let (code, geometry) = open_placed(&self.codes, fp)?;
        let updater = ColumnUpdater::new(code.linear());
        let w = geometry.unit_bytes();
        let mut tally = Tally::default();
        let mut requests = 0u64;
        let outcome = (|| -> Result<(), ClusterError> {
            let link = &self.link;
            for span in geometry.spans(offset, new.len() as u64) {
                let s = span.index;
                let delta =
                    updater.stripe_delta(w, span.within, &old[span.range()], &new[span.range()])?;
                let updates = updater.node_updates(&delta)?;
                let row = &fp.nodes[s];
                // Ship only to nodes the coordinator believes alive: a
                // dead node's block is stale either way, and repair
                // rebuilds it from the updated survivors.
                let targets: Vec<_> = updates
                    .iter()
                    .filter(|u| link.meta.is_alive(row[u.node]))
                    .collect();
                requests += targets.len() as u64;
                let sent = link.fan_out(targets.len(), op_ctx, &mut tally, |i| {
                    let u = targets[i];
                    let request = Request::WriteDelta {
                        id: block_id(&fp.name, s, u.node),
                        unit_bytes: w as u32,
                        deltas: delta.deltas.clone(),
                        rows: u
                            .rows
                            .iter()
                            .map(|(unit, coeffs)| {
                                (*unit as u32, coeffs.iter().map(|c| c.value()).collect())
                            })
                            .collect(),
                    };
                    (row[u.node], request)
                });
                for reply in sent {
                    match reply {
                        Ok(reply) => expect_done("WriteDelta", reply)?,
                        // Died mid-update: already marked dead, repair
                        // heals its block from the updated peers.
                        Err(ClusterError::NodeDown { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            Ok(())
        })();
        UPDATE_DELTAS.add(requests);
        UPDATE_WIRE.add(tally.tx);
        self.fold(tally);
        outcome
    }

    /// The engine under [`ObjectBackend::overwrite`]: bounds-check
    /// against the current length (growth is append's job), read the old
    /// span, delta-write the new one.
    fn write_file_range(
        &mut self,
        name: &str,
        offset: u64,
        new: &[u8],
    ) -> Result<(), ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.write_range_us");
        let fp = self.file_manifest(name)?;
        check_range(offset, new.len() as u64, fp.file_len)?;
        if new.is_empty() {
            return Ok(());
        }
        let old = self.read_file(name, Some((offset, new.len() as u64)))?;
        self.delta_write(&fp, offset, &old, new, op.ctx())?;
        UPDATE_WRITES.inc();
        Ok(())
    }

    /// The engine under [`ObjectBackend::extend`]: fill the last stripe's
    /// zero padding by delta (old bytes are implicit zeros), then encode
    /// any overflow into fresh stripes placed by
    /// [`MetaRouter::extend_file`].
    fn append_file(&mut self, name: &str, tail: &[u8]) -> Result<u64, ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.append_us");
        let op_ctx = op.ctx();
        let fp = self.file_manifest(name)?;
        if tail.is_empty() {
            return Ok(fp.file_len);
        }
        let (code, geometry) = open_placed(&self.codes, &fp)?;
        let old_len = fp.file_len;
        let fill = (geometry.padding(old_len) as usize).min(tail.len());
        let overflow = &tail[fill..];
        let added = geometry.stripes_for(overflow.len() as u64);
        let new_len = old_len + tail.len() as u64;
        // Metadata first, mirroring put: the new stripes' homes are
        // durable (one FileExtended record) before any block lands.
        let rows =
            self.link
                .meta
                .extend_file(name, new_len, added, Placement::Random, &mut self.rng)?;
        if fill > 0 {
            // Bytes past the old end are implicit zero padding of the
            // stripe message, so the fill is a delta with all-zero old.
            let zeros = vec![0u8; fill];
            self.delta_write(&fp, old_len, &zeros, &tail[..fill], op_ctx)?;
        }
        if !overflow.is_empty() {
            self.upload(name, &code, geometry, overflow, fp.stripes, &rows, op_ctx)?;
        }
        UPDATE_APPENDS.inc();
        Ok(new_len)
    }

    /// The engine under [`ObjectBackend::remove`]: reclaim blocks
    /// best-effort on the alive nodes, then the authoritative metadata
    /// delete. A node that is unreachable keeps an orphan block — wasted
    /// space, never served (the manifest is gone) and harmlessly
    /// overwritten if the name is re-put onto it.
    fn delete_file(&mut self, name: &str) -> Result<bool, ClusterError> {
        let Some(fp) = self.link.meta.file(name) else {
            return Ok(false);
        };
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.delete_us");
        let op_ctx = op.ctx();
        let link = &self.link;
        let targets: Vec<(usize, usize)> = (0..fp.nodes.len())
            .flat_map(|s| (0..fp.nodes[s].len()).map(move |role| (s, role)))
            .filter(|&(s, role)| link.meta.is_alive(fp.nodes[s][role]))
            .collect();
        let mut tally = Tally::default();
        // The replies are not read: reclaiming is best effort.
        let _ = link.fan_out(targets.len(), op_ctx, &mut tally, |i| {
            let (s, role) = targets[i];
            let id = block_id(name, s, role);
            (fp.nodes[s][role], Request::DeleteBlock { id })
        });
        self.fold(tally);
        let existed = self.link.meta.delete_file(name)?;
        self.manifests.remove(name);
        DELETES.inc();
        Ok(existed)
    }
}

/// The client as the object layer's backend: files are placed cluster
/// files, extents live with the metadata service (on the shard owning the
/// *object* name), and packs — ordinary cluster files encoded with the
/// client's default code — inherit the whole read/degraded-read/repair
/// machinery for free.
impl ObjectBackend for ClusterClient {
    type Error = ClusterError;

    fn create(&mut self, file: &str, data: &[u8], opts: &PutOptions) -> Result<(), ClusterError> {
        let spec = match opts.code_spec() {
            Some(s) => CodeSpec::parse(s)?,
            None => self.default_spec,
        };
        let block_bytes = opts.block_bytes_hint().unwrap_or(self.default_block_bytes);
        self.put_file(file, data, spec, block_bytes).map(|_| ())
    }

    fn len(&mut self, file: &str) -> Option<u64> {
        self.link.meta.file(file).map(|fp| fp.file_len)
    }

    fn read(&mut self, file: &str, range: Option<(u64, u64)>) -> Result<Vec<u8>, ClusterError> {
        self.read_file(file, range)
    }

    fn overwrite(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), ClusterError> {
        self.write_file_range(file, offset, data)
    }

    fn extend(&mut self, file: &str, data: &[u8]) -> Result<u64, ClusterError> {
        self.append_file(file, data)
    }

    fn remove(&mut self, file: &str) -> Result<bool, ClusterError> {
        self.delete_file(file)
    }

    fn extent(&mut self, object: &str) -> Option<Extent> {
        self.link.meta.extent(object)
    }

    fn set_extent(&mut self, object: &str, extent: Extent) -> Result<(), ClusterError> {
        self.link.meta.put_extent(object, extent)?;
        UPDATE_PACKED.inc();
        Ok(())
    }

    fn drop_extent(&mut self, object: &str) -> Result<bool, ClusterError> {
        let existed = self.link.meta.delete_extent(object)?;
        if existed {
            DELETES.inc();
        }
        Ok(existed)
    }

    fn pack_cursor(&mut self) -> &mut PackCursor {
        &mut self.packs
    }
}

/// The client's one two-stage pipeline: `make` turns each item into a
/// product and `take` consumes the products in order. A single item runs
/// inline — there is nothing to overlap, and a small read or packed put
/// should not pay for a thread; more run `make` on a worker, up to
/// `PIPELINE_DEPTH` products ahead of `take` on the caller. An error from
/// `take` ends the run: the worker finds the channel closed at its next
/// product and stops.
fn staged<I: Send, T: Send>(
    items: Vec<I>,
    mut make: impl FnMut(I) -> T + Send,
    mut take: impl FnMut(T) -> Result<(), ClusterError>,
) -> Result<(), ClusterError> {
    if items.len() == 1 {
        return items.into_iter().try_for_each(|item| take(make(item)));
    }
    let ((), taken) = parallel::pipeline(
        PIPELINE_DEPTH,
        move |pipe| {
            for item in items {
                let made = make(item);
                PIPELINE_INFLIGHT.add(1);
                if pipe.send(made).is_err() {
                    break;
                }
            }
        },
        |pipe| loop {
            let wait = Instant::now();
            let Ok(made) = pipe.recv() else {
                return Ok(());
            };
            FETCH_STALL.record(wait.elapsed().as_micros() as u64);
            PIPELINE_INFLIGHT.add(-1);
            take(made)?;
        },
    );
    taken
}

/// [`CodeCache::open`] for a placed file: the code it was written with
/// and the geometry it walks files by. A placement reaches the client
/// from a log record or a manifest payload — outside input — so one that
/// does not fit its own code is refused here, naming the field, before
/// anything divides by, indexes with or allocates from it; a cached code
/// skips only the build, never these checks.
fn open_placed(
    codes: &CodeCache,
    fp: &FilePlacement,
) -> Result<(AnyCode, StripeGeometry), ClusterError> {
    let fit = || {
        let (code, geometry) = codes.open(fp.spec, fp.block_bytes)?;
        geometry.check_file(fp.file_len, fp.stripes)?;
        let rows = fp.nodes.len();
        if rows != fp.stripes {
            let reason = format!("nodes has {rows} rows for stripes = {}", fp.stripes);
            return Err(CodeError::InvalidParameters { reason });
        }
        if let Some(s) = fp.nodes.iter().position(|row| row.len() != geometry.n()) {
            let reason = format!(
                "nodes[{s}] has {} entries, stripes are {} blocks wide",
                fp.nodes[s].len(),
                geometry.n()
            );
            return Err(CodeError::InvalidParameters { reason });
        }
        Ok((code, geometry))
    };
    fit().map_err(|e| ClusterError::Protocol {
        reason: format!("placement of {:?} does not fit {}: {e}", fp.name, fp.spec),
    })
}

fn block_id(name: &str, stripe: usize, role: usize) -> BlockId {
    BlockId {
        file: name.to_string(),
        stripe: stripe as u32,
        block: role as u32,
    }
}

fn unreadable(name: &str, stripe: usize) -> ClusterError {
    ClusterError::Unavailable {
        reason: format!("stripe {stripe} of {name:?} has too few reachable blocks"),
    }
}

/// Maps a stripe-read executor failure onto the client's error surface.
fn read_error(name: &str, stripe: usize, e: ExecError<ClusterError>) -> ClusterError {
    match e {
        ExecError::Source(e) => e,
        ExecError::Code(_) => unreadable(name, stripe),
        ExecError::ReplansExhausted { attempts } => ClusterError::ReplansExhausted {
            name: name.into(),
            stripe,
            attempts,
        },
    }
}

/// Maps a repair executor failure onto the client's error surface.
fn repair_error(name: &str, stripe: usize, d: usize, e: ExecError<ClusterError>) -> ClusterError {
    match e {
        ExecError::Source(e) => e,
        ExecError::Code(CodeError::InsufficientData { got, .. }) => ClusterError::Unavailable {
            reason: format!("stripe {stripe} of {name:?}: repair needs {d} helpers, {got} present"),
        },
        ExecError::Code(e) => e.into(),
        ExecError::ReplansExhausted { attempts } => ClusterError::ReplansExhausted {
            name: name.into(),
            stripe,
            attempts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::LocalCluster;
    use access::MemorySource;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::Receiver;

    /// The TCP source answers a batch — unit reads and helper repair
    /// reads, a dead node's slot included — exactly as [`MemorySource`]
    /// over the same blocks does.
    #[test]
    fn stripe_source_answers_as_memory_source_does() {
        let mut cluster = LocalCluster::start(6).unwrap();
        let mut client = cluster.client();
        let spec = CodeSpec::Carousel {
            n: 6,
            k: 3,
            d: 3,
            p: 6,
        };
        let (code, geometry) = client.codes.open(spec, 120).unwrap();
        let data: Vec<u8> = (0..geometry.stripe_data_bytes())
            .map(|i| (i * 13 + 5) as u8)
            .collect();
        let fp = client.put_file("batchfile", &data, spec, 120).unwrap();
        let dead = 2;
        cluster.fail(fp.nodes[0][dead]);

        let blocks = code.linear().encode(&data).unwrap().blocks;
        let sub = geometry.sub();
        let mut memory = MemorySource::new(
            (0..6)
                .map(|role| (role != dead).then_some(&blocks[role][..]))
                .collect(),
            sub,
        );
        let mut tcp = StripeSource::new(
            &client.link,
            "batchfile",
            0,
            &fp.nodes[0],
            geometry,
            telemetry::trace::TraceCtx::root(),
        );
        assert_eq!(tcp.unit_bytes(), memory.unit_bytes());
        assert_eq!(tcp.available(), memory.available());

        let units: Vec<BatchRequest<'_>> = (0..6)
            .map(|role| BatchRequest::Units {
                node: role,
                units: vec![sub - 1, 0],
            })
            .collect();
        let got = tcp.fetch(&units).unwrap();
        assert_eq!(got, memory.fetch(&units).unwrap());
        assert_eq!(got[dead], Fetch::Unavailable, "dead node's slot");
        assert_eq!(got.iter().filter(|f| **f != Fetch::Unavailable).count(), 5);

        let plan = code.repair_plan(dead, &[0, 1, 3]).unwrap();
        let helpers: Vec<BatchRequest<'_>> = plan
            .helpers
            .iter()
            .map(|task| BatchRequest::Repair {
                node: task.node,
                task,
            })
            .collect();
        let got = tcp.fetch(&helpers).unwrap();
        assert_eq!(got, memory.fetch(&helpers).unwrap());
        let payloads: Vec<Vec<u8>> = got
            .into_iter()
            .map(|fetch| match fetch {
                Fetch::Data(bytes) => bytes,
                Fetch::Unavailable => panic!("a live helper did not serve"),
            })
            .collect();
        assert_eq!(plan.combine_payloads(&payloads).unwrap(), blocks[dead]);
    }

    /// What the scripted datanode does with one request frame.
    #[derive(Clone, Copy)]
    enum Reply {
        Done,
        /// `Done`, then close the connection.
        DoneAndHangUp,
        /// A `Done` frame whose CRC does not match.
        Corrupt,
        /// `Data(DATA)`.
        Data,
        /// `Data(DATA)` with one byte of the data part flipped.
        CorruptData,
        /// Nothing, until the client gives up on the connection.
        Silence,
    }

    /// What the scripted node's `Data` replies carry.
    const DATA: &[u8] = b"the bytes a GetUnits asked for";

    /// Runs `client` against a fake datanode (node 0 of a one-node
    /// cluster) that executes nothing: it answers its `i`-th request frame
    /// as `script[i]` says (`Done` past the script's end) and sends a
    /// notice down the pipe each time *it* closes a connection. Returns
    /// what `client` returned, how many frames the node saw and on how
    /// many connections.
    fn against_scripted_node<R>(
        script: &[Reply],
        client: impl FnOnce(&Link, &Receiver<()>) -> R,
    ) -> (R, usize, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let coord = Arc::new(Coordinator::new());
        coord.register(0, addr);
        let link = Link {
            meta: MetaRouter::single(coord),
            conns: Mutex::default(),
            timeout: Duration::from_millis(300),
            ctx: ParallelCtx::sequential(),
        };
        let frames = AtomicUsize::new(0);
        let conns = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let serve = |hung_up: std::sync::mpsc::SyncSender<()>| {
            let mut script = script.iter();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut stream = stream.unwrap();
                conns.fetch_add(1, Ordering::SeqCst);
                while let Ok(Some(_)) = protocol::read_request(&mut stream) {
                    frames.fetch_add(1, Ordering::SeqCst);
                    let mut done = Response::Done.encode();
                    match script.next().unwrap_or(&Reply::Done) {
                        Reply::Done => stream.write_all(&done).unwrap(),
                        Reply::DoneAndHangUp => {
                            stream.write_all(&done).unwrap();
                            drop(stream);
                            hung_up.send(()).unwrap();
                            break;
                        }
                        Reply::Corrupt => {
                            *done.last_mut().unwrap() ^= 0xFF;
                            stream.write_all(&done).unwrap();
                        }
                        Reply::Data => {
                            protocol::write_response(&mut stream, &Response::Data(DATA.into()))
                                .unwrap();
                        }
                        Reply::CorruptData => {
                            let mut frame = Response::Data(DATA.into()).encode();
                            let at = frame.len() - 4 - DATA.len() / 2;
                            frame[at] ^= 0x10;
                            stream.write_all(&frame).unwrap();
                        }
                        Reply::Silence => {}
                    }
                }
            }
        };
        let ((), out) = parallel::pipeline(4, serve, |hung_up| {
            let out = client(&link, &hung_up);
            // Hang up, then wake the accept loop so it sees the flag.
            drop(link);
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            out
        });
        (
            out,
            frames.load(Ordering::SeqCst),
            conns.load(Ordering::SeqCst),
        )
    }

    /// A `Data` frame damaged in its data part fails the CRC the reader
    /// continues over the data: the client drops that connection, asks
    /// again on a fresh one and returns the bytes the node meant to send.
    #[test]
    fn a_corrupt_data_frame_is_retried_on_a_fresh_connection() {
        let trace = telemetry::trace::TraceCtx::root();
        let units = Request::GetUnits {
            id: block_id("f", 0, 0),
            sub: 1,
            units: vec![0],
        };
        let script = [Reply::CorruptData, Reply::Data];
        let (reply, frames, conns) =
            against_scripted_node(&script, |link, _| link.call(0, &units, trace));
        assert!(matches!(reply, Ok((Response::Data(ref bytes), _)) if bytes == DATA));
        assert_eq!((frames, conns), (2, 2), "one retry, on a fresh connection");

        // Twice in a row is the connection's last chance: a protocol error,
        // and the node is not reported dead for it.
        let script = [Reply::CorruptData, Reply::CorruptData];
        let (reply, frames, _) = against_scripted_node(&script, |link, _| {
            let reply = link.call(0, &units, trace);
            assert!(link.meta.is_alive(0), "a corrupt frame is not a dead node");
            reply
        });
        assert!(matches!(reply, Err(ClusterError::Protocol { .. })));
        assert_eq!(frames, 2);
    }

    /// `Link::call` re-sends after a corrupt response and after a cached
    /// connection times out — harmless for an idempotent op, but a delta
    /// XORed into a block twice cancels itself. A `WriteDelta` therefore
    /// reaches the wire exactly once per call and the failure comes back;
    /// the same script still sees a `GetUnits` retried. A cached
    /// connection the node has closed is noticed before the send and
    /// redialled, so an idle client's next edit is not lost either.
    #[test]
    fn a_write_delta_is_never_put_on_the_wire_twice() {
        let trace = telemetry::trace::TraceCtx::root();
        let id = block_id("f", 0, 0);
        let delta = Request::WriteDelta {
            id: id.clone(),
            unit_bytes: 4,
            deltas: vec![vec![1, 2, 3, 4]],
            rows: vec![(0, vec![1])],
        };
        let units = Request::GetUnits {
            id,
            sub: 1,
            units: vec![0],
        };
        let done = |reply: Result<(Response, Tally), ClusterError>| {
            matches!(reply, Ok((Response::Done, _)))
        };

        // A corrupt response, on a fresh connection.
        let (reply, frames, _) =
            against_scripted_node(&[Reply::Corrupt], |link, _| link.call(0, &delta, trace));
        assert!(matches!(reply, Err(ClusterError::Protocol { .. })));
        assert_eq!(frames, 1, "the delta was re-sent after a corrupt reply");
        let (reply, frames, _) =
            against_scripted_node(&[Reply::Corrupt], |link, _| link.call(0, &units, trace));
        assert!(done(reply));
        assert_eq!(frames, 2, "an idempotent read is retried");

        // Silence past the timeout, on a cached connection.
        let script = [Reply::Done, Reply::Silence];
        let (reply, frames, _) = against_scripted_node(&script, |link, _| {
            assert!(done(link.call(0, &delta, trace)));
            link.call(0, &delta, trace)
        });
        assert!(matches!(reply, Err(ClusterError::NodeDown { node: 0 })));
        assert_eq!(frames, 2, "the delta was re-sent after a timeout");
        let (reply, frames, _) = against_scripted_node(&script, |link, _| {
            assert!(done(link.call(0, &units, trace)));
            link.call(0, &units, trace)
        });
        assert!(done(reply));
        assert_eq!(frames, 3, "an idempotent read is retried");

        // A cached connection the node closed while the client idled.
        let (reply, frames, _) = against_scripted_node(&[Reply::DoneAndHangUp], |link, hung_up| {
            assert!(done(link.call(0, &delta, trace)));
            hung_up.recv().unwrap();
            link.call(0, &delta, trace)
        });
        assert!(done(reply), "a stale connection must be redialled");
        assert_eq!(frames, 2);
    }
}
