//! The end-to-end workloads: closed-loop `access::ObjectStore` traffic
//! from one client against a 13-node loopback cluster with no delay
//! model, every byte checked.
//!
//! A workload is one operation kind under both codes. It runs on a
//! [`World`] — a freshly started cluster, client and preloaded objects —
//! and times single operations with [`OpLog::run`], spending its budget
//! against the *sum of operation times*, so verification and bookkeeping
//! between operations do not count. The two codes take turns operation by
//! operation, so whatever disturbs the host disturbs both alike, and every
//! operation is bracketed by the host-speed reference ([`HostRef`]) so
//! that its time can be read at nominal host speed.

use std::time::Duration;

use access::{ObjectStore, PutOptions};
use cluster::protocol::FRAME_OVERHEAD;
use cluster::testing::LocalCluster;
use cluster::{ClusterClient, ClusterError};
use workloads::parallel::ParallelCtx;

use crate::gen::Rng;
use crate::hostref::HostRef;
use crate::spans::SpanBuffer;
use crate::stats::Samples;

/// Datanodes in the loopback cluster: one more than either code's `n`, so
/// every stripe leaves one node free to take a rebuilt block.
pub const NODES: usize = 13;
/// Client fan-out worker threads — the host's core count when the
/// benchmark was sized. At most this many requests are in flight.
pub const FANOUT_THREADS: usize = 2;
/// Data blocks per stripe of both codes.
pub const K: usize = 6;
/// Blocks per stripe of both codes.
pub const N: usize = 12;
/// Repair degree of the Carousel code.
pub const D: usize = 10;

/// One of the two codes under comparison: equal storage overhead
/// (`n/k = 2`), the paper's setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Code {
    /// Metric-name suffix.
    pub tag: &'static str,
    /// `CodeSpec` string handed to `PutOptions::code`.
    pub spec: &'static str,
    /// Blocks a repair reads per block it rebuilds: `k` for RS,
    /// `d/(d−k+1)` for Carousel — the paper's repair-traffic claim.
    pub repair_blocks_read: usize,
    /// Helpers contacted per rebuilt block.
    pub repair_helpers: usize,
    /// Nodes serving original data to a healthy stripe read: `k` for RS,
    /// `p` for Carousel — the paper's data parallelism.
    pub read_parallelism: usize,
}

/// RS first: index 0 is `rs`, index 1 is `carousel` everywhere.
pub const CODES: [Code; 2] = [
    Code {
        tag: "rs",
        spec: "rs(12,6)",
        repair_blocks_read: K,
        repair_helpers: K,
        read_parallelism: K,
    },
    Code {
        tag: "carousel",
        spec: "carousel(12,6,10,12)",
        repair_blocks_read: D / (D - K + 1),
        repair_helpers: D,
        read_parallelism: N,
    },
];

/// Object geometry. Both block sizes divide by both codes' `sub`.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Bytes per encoded block.
    pub block_bytes: usize,
    /// Stripes per object.
    pub stripes: usize,
    /// Round trips of `block_bytes` per host-speed reference sample.
    pub reference_rounds: usize,
    /// Seconds one reference round trip of `block_bytes` takes on this
    /// sandbox while its neighbours are quiet — the nominal host speed
    /// that calibrated timings are stated at. Fixed here once; changing
    /// it rescales every timing metric.
    pub reference_secs: f64,
}

impl Geometry {
    /// Logical bytes of one stripe.
    pub const fn stripe_bytes(self) -> usize {
        K * self.block_bytes
    }

    /// Logical bytes of one object.
    pub const fn object_bytes(self) -> usize {
        self.stripe_bytes() * self.stripes
    }
}

/// Bulk objects: 4 stripes of 960 KiB blocks, 23 592 960 B.
pub const BULK: Geometry = Geometry {
    block_bytes: 983_040,
    stripes: 4,
    reference_rounds: 2,
    reference_secs: 7.5e-3,
};
/// Small-op objects: 16 stripes of 60 KiB blocks, 5 898 240 B.
pub const SMALL: Geometry = Geometry {
    block_bytes: 61_440,
    stripes: 16,
    reference_rounds: 1,
    reference_secs: 600e-6,
};
/// Bytes per `get_range` in `smallreads`.
pub const RANGE_READ_BYTES: usize = 16 << 10;
/// Bytes per `write_range` in `smallwrites`.
pub const RANGE_WRITE_BYTES: usize = 4 << 10;

/// Leading operations per code left out of the wire amplification: the
/// first `get` after a silent node death fetches from the dead node's
/// neighbours twice, by an amount that depends on the placement.
pub const AMP_SKIP: usize = 1;

/// Operations attempted and failed. An operation that returns an error
/// and one whose bytes fail their check both count as failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or returned wrong bytes.
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.attempted += rhs.attempted;
        self.failed += rhs.failed;
    }
}

impl Tally {
    /// Counts one operation; `ok` is whether it succeeded *and* checked
    /// out. Returns `ok`.
    pub fn record(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
        ok
    }
}

/// The timed operations of one workload under one code, with the bytes
/// each moved.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// Duration of each operation, as the clock read it.
    pub samples: Samples,
    /// Duration of each operation at nominal host speed: the clock's
    /// reading times nominal over measured reference time.
    pub calibrated: Samples,
    /// Seconds per reference round trip around each operation.
    pub reference: Samples,
    /// Per operation: logical bytes read, written or rebuilt, and bytes
    /// the client sent plus received, framing included.
    bytes: Vec<(u64, u64)>,
    /// Per operation: whether it ran with trace events recorded.
    traced: Vec<bool>,
}

impl OpLog {
    /// Times one client operation and the host-speed reference around it;
    /// `logical` says, from its result, how many logical bytes it moved. A
    /// failed operation is not sampled; the caller tallies it.
    ///
    /// With `until.spans`, every other operation runs with the product's
    /// trace events recorded, so that traced and untraced operations see
    /// the same cluster instance at the same time.
    fn run<T>(
        &mut self,
        client: &mut ClusterClient,
        until: Until<'_>,
        op: impl FnOnce(&mut ClusterClient) -> Result<T, ClusterError>,
        logical: impl FnOnce(&T) -> u64,
    ) -> Result<T, ClusterError> {
        let spans = until.spans.filter(|_| self.samples.len() % 2 == 1);
        let (tx0, rx0) = client.wire_counters();
        let (out, d, reference) = match spans {
            Some(spans) => spans.record(|| until.host.around(|| op(client))),
            None => until.host.around(|| op(client)),
        };
        let out = out?;
        let (tx1, rx1) = client.wire_counters();
        self.samples.push(d);
        self.calibrated
            .push_secs(d.as_secs_f64() * until.reference_secs / reference);
        self.reference.push_secs(reference);
        self.bytes.push((logical(&out), (tx1 - tx0) + (rx1 - rx0)));
        self.traced.push(spans.is_some());
        Ok(out)
    }

    /// The durations of the operations that ran traced, or untraced.
    pub fn samples_where(&self, traced: bool) -> Samples {
        self.samples.filtered(|i| self.traced[i] == traced)
    }

    /// `true` while the summed operation time is below `budget`, and
    /// until [`AMP_SKIP`]` + amp_ops` operations have run.
    fn under(&self, budget: Duration, amp_ops: usize) -> bool {
        self.samples.len() < AMP_SKIP + amp_ops || self.samples.sum() < budget.as_secs_f64()
    }

    /// `(logical, wire)` bytes summed over the `amp_ops` operations after
    /// the first [`AMP_SKIP`].
    pub fn amp_bytes(&self, amp_ops: usize) -> (u64, u64) {
        self.bytes[AMP_SKIP..AMP_SKIP + amp_ops]
            .iter()
            .fold((0, 0), |(l, w), &(dl, dw)| (l + dl, w + dw))
    }

    /// Logical MB/s of each operation at nominal host speed.
    pub fn calibrated_mbps(&self) -> Vec<f64> {
        let secs = self.calibrated.secs();
        let each = self.bytes.iter().zip(secs);
        each.map(|(&(logical, _), &secs)| crate::stats::mbps(logical, secs))
            .collect()
    }

    /// Logical MB/s over the summed operation time, as the clock read it.
    pub fn raw_mbps(&self) -> f64 {
        let logical = self.bytes.iter().map(|&(logical, _)| logical).sum();
        crate::stats::mbps(logical, self.samples.sum())
    }
}

/// What one workload pass on one [`World`] measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The timed operations, per code in [`CODES`] order.
    pub ops: [OpLog; 2],
    /// The first node the workload took down, if it takes nodes down —
    /// the seed alone decides it.
    pub victim: Option<usize>,
    /// Share of the stripes that had a data-bearing block on a node that
    /// died silently (0 unless the workload kills one).
    pub degraded_stripe_frac: f64,
    /// `(hits, lookups)` of the client's manifest cache.
    pub manifest_cache: (u64, u64),
    /// `(hits, lookups)` of the client's decode-plan cache.
    pub plan_cache: (u64, u64),
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// How long a pass runs: until each code's summed operation time reaches
/// `per_code`, and at least the operations the wire amplification is
/// taken over.
#[derive(Clone, Copy)]
struct Until<'a> {
    per_code: Duration,
    amp_ops: usize,
    /// The host-speed reference timed around every operation.
    host: &'a HostRef,
    /// Nominal seconds per reference round trip.
    reference_secs: f64,
    /// Where a traced pass records the product's trace events.
    spans: Option<&'a SpanBuffer>,
}

impl Outcome {
    /// Whether code `c` has operations left to run. A failed operation
    /// ends the pass: it is not sampled, so it would never use up the
    /// budget, and the run has failed already.
    fn under(&self, c: usize, until: Until<'_>) -> bool {
        self.tally.failed == 0 && self.ops[c].under(until.per_code, until.amp_ops)
    }

    fn any_under(&self, until: Until<'_>) -> bool {
        (0..CODES.len()).any(|c| self.under(c, until))
    }
}

/// A started cluster with its client and the objects set-up stored.
pub struct World {
    cluster: LocalCluster,
    client: ClusterClient,
    seed: u64,
    geometry: Geometry,
    /// Source bytes; payload `j` backs object `j` of *both* codes, which
    /// halves the harness's own share of peak RSS.
    payloads: Vec<Vec<u8>>,
}

fn object_name(code: Code, j: usize) -> String {
    format!("{}-{j:04}", code.tag)
}

fn put_options(code: Code, geometry: Geometry) -> PutOptions {
    PutOptions::new()
        .code(code.spec)
        .block_bytes(geometry.block_bytes)
}

impl World {
    /// Starts the cluster and client, generates `payloads` payloads from
    /// `seed`, and — with `preload` — stores each under both codes.
    fn start(
        seed: u64,
        geometry: Geometry,
        payloads: usize,
        preload: bool,
    ) -> Result<World, ClusterError> {
        let cluster = LocalCluster::start(NODES)?;
        let client = cluster
            .client()
            .with_fanout(ParallelCtx::builder().threads(FANOUT_THREADS).build())
            .with_seed(seed);
        let mut rng = Rng::new(seed, 1);
        let payloads = (0..payloads)
            .map(|_| rng.bytes(geometry.object_bytes()))
            .collect();
        let mut world = World {
            cluster,
            client,
            seed,
            geometry,
            payloads,
        };
        if preload {
            for j in 0..world.payloads.len() {
                for code in CODES {
                    world.client.put_opts(
                        &object_name(code, j),
                        &world.payloads[j],
                        &put_options(code, geometry),
                    )?;
                }
            }
        } else {
            // Nothing has opened the client's connections yet; do it
            // here, not inside the first timed put.
            for code in CODES {
                let name = format!("{}-warmup", code.tag);
                let stripe = &world.payloads[0][..geometry.stripe_bytes()];
                world
                    .client
                    .put_opts(&name, stripe, &put_options(code, geometry))?;
                world.client.delete(&name)?;
            }
        }
        Ok(world)
    }

    /// Ends the world's use, keeping only the cluster so that its
    /// teardown can wait.
    pub fn retire(self) -> LocalCluster {
        self.cluster
    }

    /// Reads every preloaded object whole and compares it to its source
    /// (untimed); each read is one tallied operation.
    fn verify_all(&mut self, tally: &mut Tally, when: &str) {
        for j in 0..self.payloads.len() {
            for code in CODES {
                let name = object_name(code, j);
                let ok = matches!(self.client.get(&name), Ok(got) if got == self.payloads[j]);
                tally.record(&format!("{when}: get {name} returns its source bytes"), ok);
            }
        }
    }

    /// The node hosting the most data-bearing blocks of the preloaded
    /// objects (RS roles `< k`, every Carousel role; ties go to the
    /// lowest id), and the share of stripes that have such a block on it.
    fn busiest_node(&self) -> (usize, f64) {
        let mut load = [0usize; NODES];
        let mut stripes = 0usize;
        for j in 0..self.payloads.len() {
            for code in CODES {
                let placement = self
                    .client
                    .router()
                    .file(&object_name(code, j))
                    .expect("preloaded object is placed");
                for row in &placement.nodes {
                    stripes += 1;
                    // A stripe puts at most one block on a node.
                    for &node in &row[..code.read_parallelism] {
                        load[node] += 1;
                    }
                }
            }
        }
        let victim = (0..NODES)
            .max_by_key(|&n| (load[n], std::cmp::Reverse(n)))
            .expect("cluster has nodes");
        (victim, load[victim] as f64 / stripes as f64)
    }
}

/// One operation kind under both codes, with the set-up it needs.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Geometry of its objects.
    pub geometry: Geometry,
    /// Payloads generated at set-up.
    payloads: usize,
    /// Whether set-up stores every payload under both codes.
    preload: bool,
    /// Operations per code, after the first [`AMP_SKIP`], whose bytes
    /// make up the wire amplification: whole cycles over the objects, and
    /// a count every pass completes whatever its budget, so that the
    /// ratio repeats exactly.
    pub amp_ops: usize,
    run: fn(&mut World, Until<'_>) -> Outcome,
}

impl Workload {
    /// Set-up: payload generation, cluster start, preload puts.
    pub fn setup(&self, seed: u64) -> Result<World, ClusterError> {
        World::start(seed, self.geometry, self.payloads, self.preload)
    }

    /// Runs the workload on `world` until each code's summed operation
    /// time reaches half of `budget`, timing `host` around every
    /// operation; with `spans`, every other operation runs traced.
    pub fn run(
        &self,
        world: &mut World,
        budget: Duration,
        host: &HostRef,
        spans: Option<&SpanBuffer>,
    ) -> Outcome {
        let until = Until {
            per_code: budget / 2,
            amp_ops: self.amp_ops,
            host,
            reference_secs: self.geometry.reference_secs,
            spans,
        };
        let mut outcome = (self.run)(world, until);
        let (hits, misses) = world.client.manifest_cache_stats();
        outcome.manifest_cache = (hits, hits + misses);
        let plans = world.client.plan_cache();
        outcome.plan_cache = (plans.hits(), plans.hits() + plans.misses());
        outcome
    }
}

/// Every workload. The first five are the ones `BENCHMARK.json` lists;
/// `smallwrites` spreads too widely on the sandbox's disk to gate a
/// change and is run by hand (see the README's seed state).
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ingest",
        geometry: BULK,
        payloads: 2,
        preload: false,
        amp_ops: 1,
        run: ingest,
    },
    Workload {
        name: "scan",
        geometry: BULK,
        payloads: 1,
        preload: true,
        amp_ops: 1,
        run: scan,
    },
    Workload {
        name: "failure",
        geometry: BULK,
        payloads: 1,
        preload: true,
        amp_ops: 1,
        run: failure,
    },
    Workload {
        name: "repair",
        geometry: BULK,
        payloads: 1,
        preload: true,
        amp_ops: 1,
        run: repair,
    },
    Workload {
        name: "smallreads",
        geometry: SMALL,
        payloads: 1,
        preload: true,
        amp_ops: 32,
        run: smallreads,
    },
    Workload {
        name: "smallwrites",
        geometry: SMALL,
        payloads: 1,
        preload: true,
        amp_ops: 32,
        run: smallwrites,
    },
];

/// `ingest`: whole-object `put_opts`. Each object is then read back,
/// compared and deleted (untimed) so disk use stays bounded.
fn ingest(world: &mut World, until: Until<'_>) -> Outcome {
    let mut out = Outcome::default();
    let bytes = world.geometry.object_bytes() as u64;
    let mut serial = 0u64;
    while out.any_under(until) {
        for (c, code) in CODES.into_iter().enumerate() {
            if !out.under(c, until) {
                continue;
            }
            // Every object differs from the last: stamp a serial number
            // over the head of the pooled payload.
            let slot = serial as usize % world.payloads.len();
            world.payloads[slot][..8].copy_from_slice(&serial.to_le_bytes());
            let name = format!("{}-{serial:06}", code.tag);
            serial += 1;
            let data = &world.payloads[slot];
            let opts = put_options(code, world.geometry);
            let put = out.ops[c].run(
                &mut world.client,
                until,
                |cl| cl.put_opts(&name, data, &opts),
                |()| bytes,
            );
            let ok = put.is_ok()
                && matches!(world.client.get(&name), Ok(got) if got == *data)
                && matches!(world.client.delete(&name), Ok(true));
            out.tally
                .record(&format!("put {name}, read it back, delete it"), ok);
        }
    }
    out
}

/// Whole-object `get` cycling over the preloaded objects.
fn whole_gets(world: &mut World, until: Until<'_>, what: &str, out: &mut Outcome) {
    let mut turn = 0usize;
    while out.any_under(until) {
        let j = turn % world.payloads.len();
        turn += 1;
        for (c, code) in CODES.into_iter().enumerate() {
            if !out.under(c, until) {
                continue;
            }
            let name = object_name(code, j);
            let got = out.ops[c].run(
                &mut world.client,
                until,
                |cl| cl.get(&name),
                |got| got.len() as u64,
            );
            let ok = matches!(got, Ok(got) if got == world.payloads[j]);
            out.tally
                .record(&format!("{what} {name} returns its source bytes"), ok);
        }
    }
}

/// `scan`: whole-object `get` on a healthy cluster.
fn scan(world: &mut World, until: Until<'_>) -> Outcome {
    let mut out = Outcome::default();
    whole_gets(world, until, "get", &mut out);
    out
}

/// `failure`: the busiest node dies silently — the coordinator still
/// lists it, so the first `get` finds out mid-read — then whole-object
/// degraded `get`.
fn failure(world: &mut World, until: Until<'_>) -> Outcome {
    let mut out = Outcome::default();
    let (victim, stripes_hit) = world.busiest_node();
    out.victim = Some(victim);
    out.degraded_stripe_frac = stripes_hit;
    world.cluster.kill(victim);
    whole_gets(world, until, "degraded get", &mut out);
    out
}

/// `repair`: cycles of `fail(victim)` → `repair_file` on every object →
/// `restart(victim, wipe)` → next victim, then every object is read back
/// and compared. A `repair_file`'s logical bytes are the block bytes it
/// rebuilt; its helper traffic is checked against the code's bound.
fn repair(world: &mut World, until: Until<'_>) -> Outcome {
    let mut out = Outcome::default();
    let block_bytes = world.geometry.block_bytes as u64;
    let (mut victim, _) = world.busiest_node();
    out.victim = Some(victim);
    while out.any_under(until) {
        world.cluster.fail(victim);
        for j in 0..world.payloads.len() {
            for (c, code) in CODES.into_iter().enumerate() {
                let name = object_name(code, j);
                let report = out.ops[c].run(
                    &mut world.client,
                    until,
                    |cl| cl.repair_file(&name),
                    |report| report.blocks_repaired as u64 * block_bytes,
                );
                // The paper's claim on bytes that crossed sockets: per
                // rebuilt block, helpers send `repair_blocks_read` block
                // sizes plus one Data frame header each.
                let ok = matches!(report, Ok(r) if {
                    let framing = code.repair_helpers * (FRAME_OVERHEAD + 5);
                    let per_block = code.repair_blocks_read as u64 * block_bytes + framing as u64;
                    r.wire_bytes <= r.blocks_repaired as u64 * per_block
                });
                out.tally.record(
                    &format!(
                        "repair {name} within {} blocks read per block rebuilt",
                        code.repair_blocks_read
                    ),
                    ok,
                );
            }
        }
        let replaced = world.cluster.restart(victim, true).is_ok();
        out.tally
            .record("replace the victim with an empty node", replaced);
        victim = (victim + 4) % NODES;
    }
    world.verify_all(&mut out.tally, "after the last repair cycle");
    out
}

/// A seeded offset such that `len` bytes from it stay inside one
/// `unit`-byte slice of the object. An operation then touches the same
/// number of blocks whatever the seed, so its wire bytes repeat exactly.
fn offset_within(rng: &mut Rng, geometry: Geometry, unit: usize, len: usize) -> u64 {
    let units = geometry.object_bytes() / unit;
    let at = rng.below(units as u64) as usize * unit + rng.below((unit - len + 1) as u64) as usize;
    at as u64
}

/// `smallreads`: 16 KiB `get_range` at seeded offsets on one
/// small-geometry object per code, each checked against the source.
fn smallreads(world: &mut World, until: Until<'_>) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(world.seed, 2);
    let stripe = world.geometry.stripe_bytes();
    while out.any_under(until) {
        let offset = offset_within(&mut rng, world.geometry, stripe, RANGE_READ_BYTES);
        for (c, code) in CODES.into_iter().enumerate() {
            if !out.under(c, until) {
                continue;
            }
            let name = object_name(code, 0);
            let got = out.ops[c].run(
                &mut world.client,
                until,
                |cl| cl.get_range(&name, offset, RANGE_READ_BYTES as u64),
                |got| got.len() as u64,
            );
            let at = offset as usize;
            let ok = matches!(got, Ok(got) if got == world.payloads[0][at..at + RANGE_READ_BYTES]);
            out.tally.record(
                &format!("get_range {name} @{offset} matches the source"),
                ok,
            );
        }
    }
    out
}

/// `smallwrites`: 4 KiB `write_range` at seeded offsets on one
/// small-geometry object per code, mirrored into an in-memory model per
/// code; at the end each object is read whole and compared to its model.
fn smallwrites(world: &mut World, until: Until<'_>) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(world.seed, 2);
    // A write stays inside one Carousel unit (a tenth of a block), which
    // also keeps it inside one RS unit (a whole block).
    let unit = world.geometry.block_bytes / D;
    let mut patch = vec![0u8; RANGE_WRITE_BYTES];
    let mut models = [world.payloads[0].clone(), world.payloads[0].clone()];
    while out.any_under(until) {
        let offset = offset_within(&mut rng, world.geometry, unit, RANGE_WRITE_BYTES);
        rng.fill(&mut patch);
        for (c, code) in CODES.into_iter().enumerate() {
            if !out.under(c, until) {
                continue;
            }
            let name = object_name(code, 0);
            let wrote = out.ops[c].run(
                &mut world.client,
                until,
                |cl| cl.write_range(&name, offset, &patch),
                |()| RANGE_WRITE_BYTES as u64,
            );
            let at = offset as usize;
            models[c][at..at + RANGE_WRITE_BYTES].copy_from_slice(&patch);
            out.tally
                .record(&format!("write_range {name} @{offset}"), wrote.is_ok());
        }
    }
    for (c, code) in CODES.into_iter().enumerate() {
        let name = object_name(code, 0);
        let ok = matches!(world.client.get(&name), Ok(got) if got == models[c]);
        out.tally
            .record(&format!("final get {name} matches its model"), ok);
    }
    out
}
