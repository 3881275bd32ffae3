//! The datanode: a multi-threaded TCP block server.
//!
//! One accept thread hands each connection to its own worker thread,
//! which loops over framed requests until the peer closes, a read times
//! out, or the node shuts down. Storage goes through [`BlockStore`]
//! (chunk-checksummed block files, so a read of some units verifies only
//! the chunks covering them). The helper side of MSR repair runs *here*:
//! a [`Request::RepairRead`] ships the `β × sub` coefficient matrix and
//! the node returns the compressed `β·w`-byte payload, so the
//! `d/(d−k+1)` bandwidth saving is realized on the wire rather than
//! simulated.
//!
//! Writes to one block — `PutBlock`, `WriteDelta`'s read-fold-write and
//! `DeleteBlock` — are serialized per block id (`BlockLocks`), so two
//! deltas folded into one parity block at once both land. The node serves
//! blocks and telemetry only: an attached metadata router is something it
//! registers with and heartbeats to, never something it answers from.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use erasure::HelperTask;
use gf256::{Gf256, Matrix};

use crate::coordinator::Coordinator;
use crate::error::ClusterError;
use crate::protocol::{self, BlockId, Request, Response};
use crate::router::MetaRouter;
use crate::store::BlockStore;

static NODE_REQUESTS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.requests"));
static NODE_RX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.rx_bytes"));
static NODE_TX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.tx_bytes"));
static NODE_ERRORS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.request_errors"));

/// Per-connection socket read timeout; an idle connection past it is
/// closed (the client reconnects transparently).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Heartbeat period when a metadata layer is attached.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Configuration of one datanode.
#[derive(Debug, Clone)]
pub struct DataNodeConfig {
    /// The node's cluster-wide id.
    pub id: usize,
    /// Directory for the node's [`BlockStore`].
    pub root: PathBuf,
    /// Metadata layer to register with and heartbeat to (every 200 ms),
    /// if any. A plain coordinator attaches as a 1-shard router via
    /// [`DataNodeConfig::with_coordinator`].
    pub meta: Option<Arc<MetaRouter>>,
}

impl DataNodeConfig {
    /// A config for node `id` storing its blocks under `root`, with no
    /// metadata layer attached.
    pub fn new(id: usize, root: impl Into<PathBuf>) -> Self {
        DataNodeConfig {
            id,
            root: root.into(),
            meta: None,
        }
    }

    /// Attaches a single coordinator for registration + heartbeats,
    /// wrapped as a 1-shard [`MetaRouter`].
    #[must_use]
    pub fn with_coordinator(self, coordinator: Arc<Coordinator>) -> Self {
        self.with_router(MetaRouter::single(coordinator))
    }

    /// Attaches a (possibly sharded) metadata router for registration and
    /// heartbeats.
    #[must_use]
    pub fn with_router(mut self, meta: Arc<MetaRouter>) -> Self {
        self.meta = Some(meta);
        self
    }
}

/// A running datanode. Dropping the handle does *not* stop the server;
/// call [`DataNode::shutdown`] for a graceful stop that joins every
/// thread.
#[derive(Debug)]
pub struct DataNode {
    id: usize,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    heartbeat_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl DataNode {
    /// Binds `bind_addr` (use port 0 for an ephemeral port), registers
    /// with the coordinator if configured, and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-creation failures.
    pub fn spawn(
        bind_addr: impl ToSocketAddrs,
        config: DataNodeConfig,
    ) -> Result<Self, ClusterError> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(BlockStore::open(&config.root)?);
        let locks = Arc::new(BlockLocks::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        if let Some(meta) = &config.meta {
            meta.register(config.id, addr);
        }

        // A server owns its accept, connection and heartbeat threads; the
        // lint that bans raw threads is for client-side fan-out.
        #[allow(clippy::disallowed_methods)]
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let node_id = config.id;
            std::thread::Builder::new()
                .name(format!("datanode-{node_id}-accept"))
                .spawn(move || {
                    let mut workers: Vec<JoinHandle<()>> = Vec::new();
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                        let _ = stream.set_nodelay(true);
                        if let Ok(clone) = stream.try_clone() {
                            conns.lock().expect("conn list lock").push(clone);
                        }
                        let store = Arc::clone(&store);
                        let locks = Arc::clone(&locks);
                        let handle = std::thread::Builder::new()
                            .name(format!("datanode-{node_id}-conn"))
                            .spawn(move || serve_connection(stream, &store, &locks))
                            .expect("spawn connection worker");
                        workers.push(handle);
                        // Reap finished workers so long-lived nodes don't
                        // accumulate handles.
                        workers.retain(|w| !w.is_finished());
                    }
                    for w in workers {
                        let _ = w.join();
                    }
                })
                .expect("spawn accept thread")
        };

        #[allow(clippy::disallowed_methods)] // the server's heartbeat thread
        let heartbeat_thread = config.meta.as_ref().map(|meta| {
            let meta = Arc::clone(meta);
            let stop = Arc::clone(&stop);
            let node_id = config.id;
            std::thread::Builder::new()
                .name(format!("datanode-{node_id}-heartbeat"))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        meta.heartbeat(node_id);
                        // `shutdown` unparks the thread, so a stop does
                        // not wait out the period.
                        std::thread::park_timeout(HEARTBEAT_EVERY);
                    }
                })
                .expect("spawn heartbeat thread")
        });

        Ok(DataNode {
            id: config.id,
            addr,
            stop,
            accept_thread: Some(accept_thread),
            heartbeat_thread: Some(heartbeat_thread).flatten(),
            conns,
        })
    }

    /// The node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The address the node is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, unblocks and closes every open
    /// connection, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection to self.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        // Unblock connection workers parked in read().
        for conn in self.conns.lock().expect("conn list lock").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.heartbeat_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// Slots in the per-block write-lock table — fixed, so the table never
/// grows with the number of blocks a node has stored.
const BLOCK_LOCK_SLOTS: usize = 64;

/// Serializes the writes to one block: `PutBlock`, `WriteDelta`'s
/// read → fold → put, and `DeleteBlock`. Without it two deltas folded into
/// one parity block at once (two `write_range`s on different data units
/// of a stripe) both read the old block and the second put loses the
/// first's update. A fixed table of mutexes picked by the id's hash:
/// writes to different blocks only wait on each other when they share a
/// slot, so the concurrent puts of an `ingest` stay concurrent. Reads take
/// no lock — a block file is replaced atomically.
struct BlockLocks([Mutex<()>; BLOCK_LOCK_SLOTS]);

impl BlockLocks {
    fn new() -> Self {
        BlockLocks(std::array::from_fn(|_| Mutex::new(())))
    }

    /// Holds `id`'s slot until the guard drops. The mutex guards no data,
    /// so a writer that panicked leaves nothing to poison.
    fn write(&self, id: &BlockId) -> MutexGuard<'_, ()> {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        self.0[(h.finish() % BLOCK_LOCK_SLOTS as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-connection request loop.
fn serve_connection(mut stream: TcpStream, store: &BlockStore, locks: &BlockLocks) {
    loop {
        let (request, rx_bytes, wire_trace) = match protocol::read_request(&mut stream) {
            Ok(Some(triple)) => triple,
            // Clean EOF: the client is done with this connection.
            Ok(None) => return,
            Err(ClusterError::Io(_)) => return, // timeout, reset, shutdown
            Err(e) => {
                // A malformed frame: answer once, then drop the connection
                // (framing may be out of sync).
                let _ = protocol::write_response(&mut stream, &Response::Error(e.to_string()));
                return;
            }
        };
        // Adopt the client's trace (or open a local root for untraced
        // peers): this request span and its service child carry the
        // client's TraceId, which is what lets a slow get be attributed
        // to a specific node.
        let ctx = telemetry::trace::TraceCtx::adopt(wire_trace.map(|t| (t.trace, t.span)));
        let req_span = ctx.child("cluster.node.request_us");
        let response = {
            let _service = req_span.ctx().child("cluster.node.service_us");
            handle(store, locks, request)
        };
        NODE_REQUESTS.inc();
        NODE_RX.add(rx_bytes as u64);
        if matches!(response, Response::Error(_)) {
            NODE_ERRORS.inc();
        }
        match protocol::write_response(&mut stream, &response) {
            Ok(tx_bytes) => NODE_TX.add(tx_bytes as u64),
            Err(_) => return,
        }
    }
}

/// Answers from a verified store read: `found` maps what was read to the
/// reply; an absent (or quarantined) block and a store failure are errors.
fn reply<T>(
    id: &BlockId,
    read: Result<Option<T>, ClusterError>,
    found: impl FnOnce(T) -> Response,
) -> Response {
    match read {
        Ok(Some(value)) => found(value),
        Ok(None) => Response::Error(format!("block {id:?} not found")),
        Err(e) => Response::Error(e.to_string()),
    }
}

/// Executes one request against the local store.
fn handle(store: &BlockStore, locks: &BlockLocks, request: Request) -> Response {
    let done = |r: Result<(), ClusterError>| match r {
        Ok(()) => Response::Done,
        Err(e) => Response::Error(e.to_string()),
    };
    match request {
        Request::Ping => Response::Pong,
        Request::PutBlock { id, data } => {
            let _write = locks.write(&id);
            done(store.put(&id, &data))
        }
        Request::GetBlock { id } => reply(&id, store.get(&id), Response::Data),
        // Only the chunks covering the wanted units are read and verified.
        Request::GetUnits { id, sub, units } => {
            let units: Vec<usize> = units.into_iter().map(|u| u as usize).collect();
            reply(
                &id,
                store.get_units(&id, sub as usize, &units),
                Response::Data,
            )
        }
        Request::RepairRead {
            id,
            rows,
            cols,
            coeffs,
        } => reply(&id, store.get(&id), |block| {
            let (rows, cols) = (rows as usize, cols as usize);
            let task = HelperTask {
                node: 0, // the role index is irrelevant on the helper side
                coeffs: Matrix::from_fn(rows, cols, |r, c| Gf256::new(coeffs[r * cols + c])),
            };
            match task.run(&block) {
                Ok(payload) => Response::Data(payload),
                Err(e) => Response::Error(e.to_string()),
            }
        }),
        Request::Stat { id } => reply(&id, store.stat(&id), |(len, digest)| {
            Response::Data([len.to_le_bytes(), digest.to_le_bytes()].concat())
        }),
        // The node's full registry over the wire, the `repair.*` totals
        // included. All nodes of the loopback harness share one process
        // (and thus one registry); real deployments get per-process
        // scrapes.
        Request::Stats => Response::Data(protocol::encode_stats(
            &telemetry::Registry::global().snapshot(),
        )),
        // The write-path dual of RepairRead: fold the shipped message
        // deltas into the stored block with the shipped per-unit
        // coefficients. The node needs no knowledge of the code — data
        // and parity blocks are updated by the same local computation.
        Request::WriteDelta {
            id,
            unit_bytes,
            deltas,
            rows,
        } => {
            let _write = locks.write(&id);
            reply(&id, store.get(&id), |mut block| {
                let rows: Vec<(usize, Vec<Gf256>)> = rows
                    .into_iter()
                    .map(|(unit, coeffs)| {
                        (unit as usize, coeffs.into_iter().map(Gf256::new).collect())
                    })
                    .collect();
                match erasure::apply_block_delta(&mut block, unit_bytes as usize, &rows, &deltas) {
                    Ok(()) => done(store.put(&id, &block)),
                    Err(e) => Response::Error(e.to_string()),
                }
            })
        }
        // Idempotent block reclamation: Done whether or not the block was
        // present, so a delete fan-out can be retried safely.
        Request::DeleteBlock { id } => {
            let _write = locks.write(&id);
            done(store.delete(&id))
        }
    }
}

/// Runs a datanode in the foreground until the process is killed — the
/// body of `carousel-tool serve`. Prints the bound address to stdout so
/// wrappers can discover an ephemeral port.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve_forever(bind_addr: &str, config: DataNodeConfig) -> Result<(), ClusterError> {
    let node = DataNode::spawn(bind_addr, config)?;
    // Write + flush explicitly: wrappers parse this line through a pipe,
    // where stdout is block-buffered and a plain println! would sit in
    // the buffer forever.
    {
        use std::io::Write as _;
        let mut out = io::stdout().lock();
        writeln!(out, "datanode {} listening on {}", node.id(), node.addr())?;
        out.flush()?;
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cluster-datanode-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exchange(stream: &mut TcpStream, req: &Request) -> Response {
        protocol::write_request(stream, req).unwrap();
        protocol::read_response_into(stream, &mut Vec::new())
            .unwrap()
            .unwrap()
            .0
    }

    fn call(addr: SocketAddr, req: &Request) -> Response {
        exchange(&mut TcpStream::connect(addr).unwrap(), req)
    }

    fn id(file: &str, stripe: u32, block: u32) -> BlockId {
        BlockId {
            file: file.into(),
            stripe,
            block,
        }
    }

    #[test]
    fn serves_put_get_units_stat_over_tcp() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(0, temp_root("basic"))).unwrap();
        let addr = node.addr();
        assert_eq!(call(addr, &Request::Ping), Response::Pong);

        let block: Vec<u8> = (0..120).map(|i| (i * 3 + 1) as u8).collect();
        let a = id("f", 0, 2);
        assert_eq!(
            call(
                addr,
                &Request::PutBlock {
                    id: a.clone(),
                    data: block.clone()
                }
            ),
            Response::Done
        );
        assert_eq!(
            call(addr, &Request::GetBlock { id: a.clone() }),
            Response::Data(block.clone())
        );
        // Units 0 and 2 of sub=3: w = 40.
        match call(
            addr,
            &Request::GetUnits {
                id: a.clone(),
                sub: 3,
                units: vec![0, 2],
            },
        ) {
            Response::Data(units) => {
                assert_eq!(&units[..40], &block[..40]);
                assert_eq!(&units[40..], &block[80..]);
            }
            other => panic!("expected data, got {other:?}"),
        }
        match call(addr, &Request::Stat { id: a }) {
            Response::Data(stat) => {
                assert_eq!(stat.len(), 8);
                assert_eq!(u32::from_le_bytes(stat[..4].try_into().unwrap()), 120);
            }
            other => panic!("expected stat data, got {other:?}"),
        }
        // Absent blocks are errors, not hangs.
        assert!(matches!(
            call(addr, &Request::GetBlock { id: id("f", 9, 9) }),
            Response::Error(_)
        ));
        node.shutdown();
    }

    #[test]
    fn repair_read_compresses_on_the_node() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(1, temp_root("repair"))).unwrap();
        let addr = node.addr();
        let block: Vec<u8> = (0..60).map(|i| (i * 7 + 5) as u8).collect();
        let a = id("r", 0, 0);
        call(
            addr,
            &Request::PutBlock {
                id: a.clone(),
                data: block.clone(),
            },
        );
        // A 1x3 matrix: the response is one unit (20 bytes), not the block.
        let coeffs = vec![1u8, 2, 3];
        let resp = call(
            addr,
            &Request::RepairRead {
                id: a,
                rows: 1,
                cols: 3,
                coeffs: coeffs.clone(),
            },
        );
        let expect = HelperTask {
            node: 0,
            coeffs: Matrix::from_fn(1, 3, |_, c| Gf256::new(coeffs[c])),
        }
        .run(&block)
        .unwrap();
        assert_eq!(resp, Response::Data(expect));
        node.shutdown();
    }

    #[test]
    fn write_delta_and_delete_over_tcp() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(3, temp_root("delta"))).unwrap();
        let addr = node.addr();
        let block: Vec<u8> = (0..24).map(|i| (i * 5 + 2) as u8).collect();
        let a = id("m", 0, 1);
        call(
            addr,
            &Request::PutBlock {
                id: a.clone(),
                data: block.clone(),
            },
        );
        // Two deltas of unit width 8, folded into local units 0 and 2
        // with per-delta coefficients.
        let d0 = [0x11u8; 8];
        let d1 = [0x02u8; 8];
        let resp = call(
            addr,
            &Request::WriteDelta {
                id: a.clone(),
                unit_bytes: 8,
                deltas: vec![d0.to_vec(), d1.to_vec()],
                rows: vec![(0, vec![1, 0]), (2, vec![3, 2])],
            },
        );
        assert_eq!(resp, Response::Done);
        let mut expect = block.clone();
        for i in 0..8 {
            expect[i] ^= d0[i]; // 1·d0 ⊕ 0·d1
            expect[16 + i] ^=
                (Gf256::new(3) * Gf256::new(d0[i]) + Gf256::new(2) * Gf256::new(d1[i])).value();
        }
        assert_eq!(
            call(addr, &Request::GetBlock { id: a.clone() }),
            Response::Data(expect)
        );
        // Bad geometry is rejected without touching the block.
        assert!(matches!(
            call(
                addr,
                &Request::WriteDelta {
                    id: a.clone(),
                    unit_bytes: 7,
                    deltas: vec![vec![0u8; 7]],
                    rows: vec![(0, vec![1])],
                }
            ),
            Response::Error(_)
        ));
        // Delete reclaims the block and is idempotent.
        assert_eq!(
            call(addr, &Request::DeleteBlock { id: a.clone() }),
            Response::Done
        );
        assert!(matches!(
            call(addr, &Request::GetBlock { id: a.clone() }),
            Response::Error(_)
        ));
        assert_eq!(call(addr, &Request::DeleteBlock { id: a }), Response::Done);
        node.shutdown();
    }

    /// Two `write_range`s on different data units of one stripe both send
    /// a delta to every parity block. Folded concurrently, one used to be
    /// lost — each was a read → fold → put with no lock — and a later
    /// degraded read returned wrong bytes that passed every CRC. XOR
    /// folding commutes, so whatever order the node serves 100 concurrent
    /// deltas in, the block must end as the XOR of all of them.
    #[test]
    fn concurrent_write_deltas_to_one_block_all_land() {
        use access::parallel::ParallelCtx;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const CONNS: usize = 4;
        const DELTAS: usize = 25;
        const LEN: usize = 64;
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(4, temp_root("race"))).unwrap();
        let addr = node.addr();
        let a = id("parity", 0, 5);
        let put = Request::PutBlock {
            id: a.clone(),
            data: vec![0; LEN],
        };
        assert_eq!(call(addr, &put), Response::Done);
        let delta = |conn: usize, i: usize| -> Vec<u8> {
            let mut rng = StdRng::seed_from_u64((conn * DELTAS + i) as u64);
            (0..LEN).map(|_| rng.gen()).collect()
        };
        // Every connection is open before any delta is sent.
        let start = std::sync::Barrier::new(CONNS);
        ParallelCtx::builder()
            .threads(CONNS)
            .build()
            .run(CONNS, |conn| {
                let mut stream = TcpStream::connect(addr).unwrap();
                start.wait();
                for i in 0..DELTAS {
                    let fold = Request::WriteDelta {
                        id: a.clone(),
                        unit_bytes: LEN as u32,
                        deltas: vec![delta(conn, i)],
                        rows: vec![(0, vec![1])],
                    };
                    assert_eq!(exchange(&mut stream, &fold), Response::Done);
                }
            });
        let mut expect = vec![0u8; LEN];
        for conn in 0..CONNS {
            for i in 0..DELTAS {
                for (e, d) in expect.iter_mut().zip(delta(conn, i)) {
                    *e ^= d;
                }
            }
        }
        assert_eq!(
            call(addr, &Request::GetBlock { id: a }),
            Response::Data(expect),
            "a concurrent delta was lost"
        );
        node.shutdown();
    }

    #[test]
    fn graceful_shutdown_closes_connections() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(2, temp_root("stop"))).unwrap();
        let addr = node.addr();
        let mut idle = TcpStream::connect(addr).unwrap();
        node.shutdown();
        // The held connection was shut down; a request on it fails or EOFs.
        let r = protocol::write_request(&mut idle, &Request::Ping)
            .and_then(|_| protocol::read_response_into(&mut idle, &mut Vec::new()));
        assert!(matches!(r, Err(_) | Ok(None)));
        // And the port no longer accepts.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }
}
