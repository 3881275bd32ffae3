//! Per-layer probes: the run's own bytes pushed through each layer's
//! public functions in isolation — kernel, erasure codec, access planner
//! and executor, file codec, wire framing, block store, one datanode over
//! one socket, metadata log and router. Each probe reports the median of
//! repeated calls. Together with the client-level numbers of the traced
//! workload pass they form the ledger that says which layer a put or a
//! get spends its time in.

use std::hint::black_box;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use access::{MemorySource, PlanCache, PlanExecutor, ReadPlan};
use cluster::protocol::{self, BlockId, Request, Response};
use cluster::{BlockStore, ClusterError, Coordinator, DataNode, DataNodeConfig};
use cluster::{FilePlacement, MetaLog, MetaRecord};
use dfs::Placement;
use erasure::{DecodePlan, ErasureCode, SparseEncoder};
use filestore::format::{AnyCode, CodeSpec};
use filestore::FileCodec;
use gf256::Gf256;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::Rng;
use crate::report::Metric;
use crate::stats::{gbps, sample_calls};
use crate::workloads::{Code, Tally, BULK, CODES, K, NODES, SMALL};

/// Summed call time each probe measures for.
const PROBE_BUDGET: Duration = Duration::from_millis(100);
/// Calls each probe makes at least.
const MIN_CALLS: usize = 5;

/// Median seconds per call of `f`.
fn per_call(f: impl FnMut()) -> f64 {
    sample_calls(PROBE_BUDGET, MIN_CALLS, f).percentile(50.0)
}

/// The probes' results, and the per-object layer times the ledger sums.
pub struct LayerReport {
    /// Every per-layer probe metric.
    pub metrics: Vec<Metric>,
    /// The probes' output checks, attempted and failed.
    pub tally: Tally,
    /// Summed layer-probe seconds for putting one bulk object, per code.
    pub put_layer_secs: [f64; 2],
    /// Summed layer-probe seconds for getting one bulk object, per code.
    pub get_layer_secs: [f64; 2],
}

struct Probes {
    metrics: Vec<Metric>,
    /// Each probe's output check is one operation.
    tally: Tally,
}

impl Probes {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records `bytes` per call of `f` as GB/s; returns seconds per call.
    fn gbps(&mut self, name: impl Into<String>, bytes: usize, f: impl FnMut()) -> f64 {
        let secs = per_call(f);
        self.push(name, gbps(bytes as u64, secs), "GB/s");
        secs
    }

    /// Records the time per call of `f` in microseconds; returns seconds.
    fn micros(&mut self, name: impl Into<String>, f: impl FnMut()) -> f64 {
        let secs = per_call(f);
        self.push(name, secs * 1e6, "us");
        secs
    }
}

fn build(code: Code) -> AnyCode {
    CodeSpec::parse(code.spec)
        .expect("benchmark code specs parse")
        .build()
        .expect("benchmark code specs build")
}

fn block_id(file: &str, block: u32) -> BlockId {
    BlockId {
        file: file.into(),
        stripe: 0,
        block,
    }
}

/// What the codec probes of one code measured, for the ledger.
struct CodecSecs {
    /// `FileCodec` encode of one bulk stripe.
    encode_stripe: f64,
    /// `FileCodec` decode of one healthy bulk stripe.
    decode_stripe: f64,
    /// Blocks a healthy stripe read touches (the paper's `p`).
    parallelism: usize,
}

fn gf256_probes(p: &mut Probes, stripe: &[u8]) {
    let kernel = gf256::kernel();
    let block = BULK.block_bytes;
    let mut dst = vec![0u8; block];
    p.gbps("gf256.mul_acc_GBps", block, || {
        kernel.mul_acc(Gf256::new(0x53), &stripe[..block], &mut dst);
        black_box(&mut dst);
    });
    let terms: Vec<(Gf256, &[u8])> = stripe
        .chunks_exact(block)
        .enumerate()
        .map(|(i, src)| (Gf256::new(0x1d + i as u8), src))
        .collect();
    p.gbps("gf256.mul_acc_rows_GBps", K * block, || {
        kernel.mul_acc_rows(&terms, &mut dst);
        black_box(&mut dst);
    });
}

/// Erasure, access and filestore probes of one code on one bulk stripe.
fn codec_probes(p: &mut Probes, code: Code, stripe: &[u8]) -> CodecSecs {
    let tag = code.tag;
    let any = build(code);
    let linear = any.linear();
    let (n, sub) = (linear.n(), linear.sub());
    let block = BULK.block_bytes;

    // erasure: encode, decode from k blocks with block 0 erased, repair.
    let encoder = SparseEncoder::new(linear);
    p.push(
        format!("erasure.encode_mul_ops_{tag}"),
        encoder.mul_ops() as f64,
        "count",
    );
    let mut encoded = encoder
        .encode_with_unit_bytes(stripe, block / sub)
        .expect("encode one stripe");
    p.gbps(format!("erasure.encode_GBps_{tag}"), stripe.len(), || {
        encoder
            .encode_into(stripe, &mut encoded)
            .expect("encode one stripe");
        black_box(&mut encoded);
    });
    let blocks: Vec<&[u8]> = encoded.blocks.iter().map(Vec::as_slice).collect();
    let survivors: Vec<usize> = (1..=K).collect();
    p.micros(format!("erasure.decode_plan_us_{tag}"), || {
        black_box(DecodePlan::for_nodes(linear, &survivors).expect("any k blocks decode"));
    });
    let plan = DecodePlan::for_nodes(linear, &survivors).expect("any k blocks decode");
    p.gbps(format!("erasure.decode_GBps_{tag}"), stripe.len(), || {
        black_box(plan.decode(&blocks[1..=K]).expect("decode from k blocks"));
    });
    let decoded = plan.decode(&blocks[1..=K]).expect("decode from k blocks");
    p.tally.record(
        &format!("erasure decode ({tag}) returns the stripe"),
        decoded[..stripe.len()] == *stripe,
    );
    let helpers: Vec<usize> = (1..=any.d()).collect();
    let repair = any.repair_plan(0, &helpers).expect("repair plan");
    p.gbps(format!("erasure.repair_GBps_{tag}"), block, || {
        black_box(repair.run(&blocks[1..=any.d()]).expect("repair block 0"));
    });
    let (rebuilt, _) = repair.run(&blocks[1..=any.d()]).expect("repair block 0");
    p.tally.record(
        &format!("erasure repair ({tag}) rebuilds block 0"),
        rebuilt == blocks[0],
    );

    // access: planning and plan execution over in-memory blocks.
    let all: Vec<usize> = (0..n).collect();
    let parallelism = ReadPlan::plan(&any, &all)
        .expect("healthy read plan")
        .parallelism();
    p.push(
        format!("access.read_parallelism_{tag}"),
        parallelism as f64,
        "count",
    );
    // The paper's mechanism: a healthy read is served by p > k nodes.
    p.tally.record(
        &format!(
            "a healthy {tag} stripe read touches {} blocks",
            code.read_parallelism
        ),
        parallelism == code.read_parallelism,
    );
    let cold = PlanCache::disabled();
    p.micros(format!("access.plan_cold_us_{tag}"), || {
        black_box(cold.read_plan(&any, &all[1..]).expect("degraded read plan"));
    });
    let cache = PlanCache::new(8);
    let executor = PlanExecutor::new(&cache);
    let healthy: Vec<Option<&[u8]>> = blocks.iter().copied().map(Some).collect();
    let mut degraded = healthy.clone();
    degraded[0] = None;
    for (name, present) in [("exec_read", &healthy), ("exec_degraded", &degraded)] {
        p.gbps(format!("access.{name}_GBps_{tag}"), stripe.len(), || {
            let mut source = MemorySource::new(present.clone(), sub);
            black_box(
                executor
                    .read_stripe(&any, &mut source)
                    .expect("read stripe"),
            );
        });
    }

    // filestore: the codec the client encodes and decodes with.
    p.micros(format!("filestore.codespec_build_us_{tag}"), || {
        black_box(build(code));
    });
    let codec = FileCodec::new(any.clone(), block).expect("bulk geometry fits the code");
    let mut out = codec.empty_stripe();
    let encode_stripe = p.gbps(format!("filestore.encode_GBps_{tag}"), stripe.len(), || {
        codec
            .encode_stripe_into(stripe, &mut out)
            .expect("encode one stripe");
        black_box(&mut out);
    });
    let mut stored: Vec<Option<Vec<u8>>> = out.blocks.iter().cloned().map(Some).collect();
    let decode_stripe = p.gbps(format!("filestore.decode_GBps_{tag}"), stripe.len(), || {
        black_box(codec.decode_stripe(&stored).expect("decode one stripe"));
    });
    stored[0] = None;
    p.gbps(
        format!("filestore.decode_degraded_GBps_{tag}"),
        stripe.len(),
        || {
            black_box(codec.decode_stripe(&stored).expect("decode one stripe"));
        },
    );
    let decoded = codec.decode_stripe(&stored).expect("decode one stripe");
    p.tally.record(
        &format!("filestore degraded decode ({tag}) returns the stripe"),
        decoded[..stripe.len()] == *stripe,
    );
    CodecSecs {
        encode_stripe,
        decode_stripe,
        parallelism,
    }
}

/// Seconds per bulk block of each wire and store step, for the ledger.
struct BlockSecs {
    write_frame: f64,
    read_frame: f64,
    small_frame: f64,
    store_put: f64,
    store_get: f64,
}

fn protocol_and_store_probes(
    p: &mut Probes,
    dir: &Path,
    bulk_block: &[u8],
) -> Result<BlockSecs, ClusterError> {
    let block = bulk_block.len();
    let put = Request::PutBlock {
        id: block_id("probe", 0),
        data: bulk_block.to_vec(),
    };
    let mut wire = Vec::with_capacity(block + 64);
    let write_frame = p.gbps("protocol.write_request_GBps", block, || {
        wire.clear();
        protocol::write_request(&mut wire, &put).expect("write to a Vec");
        black_box(&mut wire);
    });
    let frame = Response::Data(bulk_block.to_vec()).encode();
    let mut scratch = Vec::new();
    let read_frame = p.gbps("protocol.read_response_GBps", block, || {
        let got = protocol::read_response_into(&mut frame.as_slice(), &mut scratch);
        black_box(got.expect("well-formed frame"));
    });
    let units = Request::GetUnits {
        id: block_id("probe", 0),
        sub: 10,
        units: (0..5).collect(),
    };
    let small_frame = p.micros("protocol.small_frame_us", || {
        wire.clear();
        protocol::write_request(&mut wire, &units).expect("write to a Vec");
        black_box(protocol::read_request(&mut wire.as_slice()).expect("well-formed frame"));
    });

    let store = BlockStore::open(dir.join("store"))?;
    let id = block_id("probe", 1);
    let store_put = p.gbps("store.put_GBps", block, || {
        store.put(&id, bulk_block).expect("store put");
    });
    let store_get = p.gbps("store.get_GBps", block, || {
        black_box(store.get(&id).expect("store get"));
    });
    let small_id = block_id("probe", 2);
    let small_block = &bulk_block[..SMALL.block_bytes];
    p.micros("store.put_small_us", || {
        store.put(&small_id, small_block).expect("store put");
    });
    p.micros("store.get_small_us", || {
        black_box(store.get(&small_id).expect("store get"));
    });
    Ok(BlockSecs {
        write_frame,
        read_frame,
        small_frame,
        store_put,
        store_get,
    })
}

/// One request/response exchange on an open connection.
fn exchange(stream: &mut TcpStream, scratch: &mut Vec<u8>, request: &Request) -> Response {
    protocol::write_request(stream, request).expect("send request");
    protocol::read_response_into(stream, scratch)
        .expect("read response")
        .expect("datanode keeps the connection open")
        .0
}

fn datanode_probes(p: &mut Probes, dir: &Path, bulk_block: &[u8]) -> Result<(), ClusterError> {
    let node = DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(0, dir.join("node")))?;
    let mut stream = TcpStream::connect(node.addr())?;
    stream.set_nodelay(true)?;
    let mut scratch = Vec::new();
    p.micros("datanode.ping_rtt_us", || {
        assert_eq!(
            exchange(&mut stream, &mut scratch, &Request::Ping),
            Response::Pong
        );
    });
    let block = bulk_block.len();
    let put = Request::PutBlock {
        id: block_id("probe", 0),
        data: bulk_block.to_vec(),
    };
    p.gbps("datanode.put_block_GBps", block, || {
        assert_eq!(exchange(&mut stream, &mut scratch, &put), Response::Done);
    });
    let get = Request::GetBlock {
        id: block_id("probe", 0),
    };
    p.gbps("datanode.get_block_GBps", block, || {
        black_box(exchange(&mut stream, &mut scratch, &get));
    });
    p.tally.record(
        "datanode returns the block it stored",
        exchange(&mut stream, &mut scratch, &get) == Response::Data(bulk_block.to_vec()),
    );
    // The Carousel read shape on a small-geometry block: half its units.
    let small = Request::PutBlock {
        id: block_id("probe", 1),
        data: bulk_block[..SMALL.block_bytes].to_vec(),
    };
    assert_eq!(exchange(&mut stream, &mut scratch, &small), Response::Done);
    let units = Request::GetUnits {
        id: block_id("probe", 1),
        sub: 10,
        units: (0..5).collect(),
    };
    p.micros("datanode.get_units_us", || {
        black_box(exchange(&mut stream, &mut scratch, &units));
    });
    drop(stream);
    node.shutdown();
    Ok(())
}

fn metadata_probes(p: &mut Probes, dir: &Path, seed: u64) -> Result<(), ClusterError> {
    let spec = CodeSpec::parse(CODES[1].spec).expect("benchmark code specs parse");
    let mut rng = StdRng::seed_from_u64(seed);
    let placement = |name: String, rng: &mut StdRng| FilePlacement {
        name,
        spec,
        file_len: BULK.object_bytes() as u64,
        block_bytes: BULK.block_bytes,
        stripes: BULK.stripes,
        nodes: (0..BULK.stripes)
            .map(|_| Placement::Random.place(NODES, 12, rng))
            .collect(),
    };
    let mut log = MetaLog::create(&dir.join("probe.log"))?;
    let mut serial = 0u32;
    p.micros("metalog.append_us", || {
        serial += 1;
        let record = MetaRecord::FilePlaced(placement(format!("f{serial}"), &mut rng));
        log.append(&record).expect("append to the probe log");
    });
    let coordinator = Coordinator::create_log(&dir.join("router.log"))?;
    for id in 0..NODES {
        let addr = format!("127.0.0.1:{}", 40_000 + id);
        coordinator.register(id, addr.parse().expect("socket address"));
    }
    let router = cluster::MetaRouter::single(std::sync::Arc::new(coordinator));
    p.micros("router.place_file_us", || {
        serial += 1;
        let placed = router.place_file(
            &format!("f{serial}"),
            spec,
            BULK.object_bytes() as u64,
            BULK.block_bytes,
            BULK.stripes,
            Placement::Random,
            &mut rng,
        );
        black_box(placed.expect("place a file on 13 alive nodes"));
    });
    Ok(())
}

/// Runs every probe on bytes generated from `seed`, with scratch files
/// under `dir` (removed afterwards).
pub fn probe(seed: u64, dir: &Path) -> Result<LayerReport, ClusterError> {
    std::fs::create_dir_all(dir)?;
    let stripe = Rng::new(seed, 3).bytes(K * BULK.block_bytes);
    let bulk_block = &stripe[..BULK.block_bytes];
    let mut p = Probes {
        metrics: Vec::new(),
        tally: Tally::default(),
    };
    gf256_probes(&mut p, &stripe);
    p.gbps("filestore.crc32_GBps", bulk_block.len(), || {
        black_box(filestore::checksum::crc32(bulk_block));
    });
    let build_ms = per_call(|| {
        black_box(carousel::Carousel::new(12, K, 10, 12).expect("the benchmark's Carousel code"));
    }) * 1e3;
    p.push("carousel.build_ms", build_ms, "ms");
    let codec = CODES.map(|code| codec_probes(&mut p, code, &stripe));
    p.micros("access.plan_hit_us", {
        let any = build(CODES[1]);
        let cache = PlanCache::new(8);
        let available: Vec<usize> = (1..12).collect();
        move || {
            black_box(
                cache
                    .read_plan(&any, &available)
                    .expect("degraded read plan"),
            );
        }
    });
    let wire = protocol_and_store_probes(&mut p, dir, bulk_block)?;
    datanode_probes(&mut p, dir, bulk_block)?;
    metadata_probes(&mut p, dir, seed)?;
    std::fs::remove_dir_all(dir)?;

    // The ledger's numerators: one bulk object through the layers, one
    // after another. A put encodes every stripe, then each of its 12
    // blocks is framed, read off the wire, stored and acknowledged. A get
    // asks `p` nodes per stripe; each reads its *whole* block from the
    // store (the CRC trailer covers the block), the client receives k
    // blocks' worth of frames, and decodes.
    let stripes = BULK.stripes as f64;
    let put_block = wire.write_frame + wire.read_frame + wire.store_put + wire.small_frame;
    let frames_k_blocks = K as f64 * (wire.write_frame + wire.read_frame);
    let put_layer_secs = codec
        .each_ref()
        .map(|c| stripes * (c.encode_stripe + 12.0 * put_block));
    let get_layer_secs = codec.each_ref().map(|c| {
        let per_node = wire.small_frame + wire.store_get;
        stripes * (c.parallelism as f64 * per_node + frames_k_blocks + c.decode_stripe)
    });
    Ok(LayerReport {
        metrics: p.metrics,
        tally: p.tally,
        put_layer_secs,
        get_layer_secs,
    })
}
