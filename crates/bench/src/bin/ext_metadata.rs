//! Metadata scale-out benchmark: placement throughput, cached manifest
//! read latency, and epoch-invalidation correctness over the sharded
//! coordinator layer (`cluster::MetaRouter` + per-shard record logs).
//!
//! The experiment: place a large file namespace across several
//! coordinator shards (every placement appended to that shard's record
//! log), then hammer the metadata layer with many concurrent clients
//! doing cached manifest reads (`ClusterClient::file_manifest`) while a
//! mutator re-homes blocks — each commit flows through the owning
//! shard's log and bumps its epoch, invalidating every client's cached
//! manifests for that shard. The headline numbers are placement ops/s,
//! read ops/s with p50/p95/p99, and the client cache hit rate, written
//! to `results/BENCH_metadata.json`.
//!
//! Correctness gates (asserted in both modes): a manifest read after a
//! re-home always reflects the committed placement — the epoch check
//! makes stale cache hits impossible — and every shard's log, replayed
//! from scratch, reproduces the final namespace.
//!
//! Knobs: `BENCH_META_FILES`, `BENCH_META_SHARDS`, `BENCH_META_CLIENTS`,
//! `BENCH_META_OPS` (reads per client). `--smoke` runs a small
//! two-shard namespace and is the CI gate wired into `scripts/check.sh`
//! (both feature configs); the full run places 1M files over 4 shards
//! and reads them from thousands of concurrent clients.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use access::CodeSpec;
use bench_support::env_knob;
use cluster::{ClusterClient, Coordinator, MetaRouter};
use dfs::Placement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Registered (fake-addressed) datanodes: metadata placement needs a
/// pool of alive nodes but never dials them.
const NODES: usize = 12;

struct Config {
    files: usize,
    shards: usize,
    clients: usize,
    ops_per_client: usize,
    mutations: usize,
    placers: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn file_name(i: usize) -> String {
    format!("f{i:07}.dat")
}

fn spec() -> CodeSpec {
    CodeSpec::Rs { n: 4, k: 2 }
}

/// Builds the sharded metadata layer with one record log per shard.
fn build_router(base: &std::path::Path, shards: usize) -> Arc<MetaRouter> {
    let coords: Vec<Arc<Coordinator>> = (0..shards)
        .map(|i| {
            Arc::new(
                Coordinator::create_log(&base.join(format!("meta{i:02}.log")))
                    .expect("create shard log"),
            )
        })
        .collect();
    let meta = MetaRouter::sharded(coords);
    for id in 0..NODES {
        let addr: SocketAddr = format!("127.0.0.1:{}", 40000 + id).parse().expect("addr");
        meta.register(id, addr);
    }
    meta
}

fn main() {
    let _metrics = bench_support::init_metrics("ext_metadata");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = Config {
        files: env_knob("BENCH_META_FILES", if smoke { 2_000 } else { 1_000_000 }),
        shards: env_knob("BENCH_META_SHARDS", if smoke { 2 } else { 4 }),
        clients: env_knob("BENCH_META_CLIENTS", if smoke { 8 } else { 2_000 }),
        ops_per_client: env_knob("BENCH_META_OPS", 500),
        mutations: if smoke { 25 } else { 1_000 },
        placers: if smoke { 4 } else { 64 },
    };
    let base = std::env::temp_dir().join(format!("carousel-meta-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create bench dir");
    let meta = build_router(&base, cfg.shards);

    println!(
        "== Metadata scale-out: {} files over {} shard(s), {} client(s) x {} reads, {} re-homes ==",
        cfg.files, cfg.shards, cfg.clients, cfg.ops_per_client, cfg.mutations
    );

    // ---- Phase 1: placement. Disjoint file ranges per placer thread;
    // every placement is a log append on the owning shard.
    let place_t0 = Instant::now();
    // A load generator: the threads *are* the simulated placers and
    // clients, not a fan-out that `ParallelCtx` should own.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|scope| {
        for p in 0..cfg.placers {
            let meta = Arc::clone(&meta);
            let files = cfg.files;
            let placers = cfg.placers;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 + p as u64);
                let mut i = p;
                while i < files {
                    meta.place_file(
                        &file_name(i),
                        spec(),
                        4096,
                        2048,
                        1,
                        Placement::Random,
                        &mut rng,
                    )
                    .expect("place file");
                    i += placers;
                }
            });
        }
    });
    let place_secs = place_t0.elapsed().as_secs_f64();
    let place_ops_per_sec = cfg.files as f64 / place_secs.max(1e-9);
    println!(
        "placed {} files in {:.2}s ({:.0} ops/s)",
        cfg.files, place_secs, place_ops_per_sec
    );
    let by_shard: Vec<usize> = meta.shards().iter().map(|s| s.files().len()).collect();
    println!("shard spread: {by_shard:?}");
    assert_eq!(by_shard.iter().sum::<usize>(), cfg.files);
    assert!(
        by_shard.iter().all(|&c| c > 0),
        "a shard received no files: {by_shard:?}"
    );

    // ---- Phase 2: concurrent cached reads under epoch churn. Each
    // client loops over a bounded working set (so its manifest cache
    // can serve repeats) while the mutator re-homes random blocks,
    // bumping the owning shard's epoch and invalidating caches.
    // Working set well under the client cache capacity: repeat reads hit
    // until an epoch bump on the owning shard invalidates them.
    let window = cfg.files.min(256);
    let read_t0 = Instant::now();
    #[allow(clippy::disallowed_methods)] // simulated clients, as above
    let (mut latencies_us, hits, misses, rehomed) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for c in 0..cfg.clients {
            let meta = Arc::clone(&meta);
            let files = cfg.files;
            let ops = cfg.ops_per_client;
            readers.push(scope.spawn(move || {
                let mut client = ClusterClient::routed(Arc::clone(&meta));
                let mut rng = StdRng::seed_from_u64(1000 + c as u64);
                let start = rng.gen_range(0..files);
                let mut lat = Vec::with_capacity(ops);
                for _ in 0..ops {
                    let name = file_name((start + rng.gen_range(0..window)) % files);
                    let t0 = Instant::now();
                    let fp = client.file_manifest(&name).expect("manifest read");
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(fp.name, name, "manifest for the wrong file");
                    assert_eq!(fp.stripes, 1);
                }
                let (h, m) = client.manifest_cache_stats();
                (lat, h, m)
            }));
        }
        // The mutator: re-home block (stripe 0, role 0) of random files.
        // Every commit goes through the owning shard's record log and
        // advances its epoch.
        let mutator = {
            let meta = Arc::clone(&meta);
            let files = cfg.files;
            let mutations = cfg.mutations;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(99);
                let mut rehomed: HashMap<String, usize> = HashMap::new();
                for _ in 0..mutations {
                    let name = file_name(rng.gen_range(0..files));
                    let target = rng.gen_range(0..NODES);
                    meta.set_block_node(&name, 0, 0, target).expect("re-home");
                    rehomed.insert(name, target);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                rehomed
            })
        };
        let rehomed = mutator.join().expect("mutator panicked");
        let mut all = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for r in readers {
            let (lat, h, m) = r.join().expect("reader panicked");
            all.extend(lat);
            hits += h;
            misses += m;
        }
        (all, hits, misses, rehomed)
    });
    let read_secs = read_t0.elapsed().as_secs_f64();
    let reads = latencies_us.len();
    let read_ops_per_sec = reads as f64 / read_secs.max(1e-9);
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p95, p99) = (
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.95),
        percentile(&latencies_us, 0.99),
    );
    let hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);
    println!(
        "{reads} reads in {read_secs:.2}s ({read_ops_per_sec:.0} ops/s), \
         p50 {p50:.1}us p95 {p95:.1}us p99 {p99:.1}us, cache hit rate {:.1}%",
        hit_rate * 100.0
    );

    // ---- Correctness: epoch invalidation makes stale reads impossible.
    // A fresh read of every re-homed file must see the committed node —
    // including through a warm cache that watched the epoch move.
    let mut checker = ClusterClient::routed(Arc::clone(&meta));
    for (name, &node) in &rehomed {
        let fp = checker.file_manifest(name).expect("post-mutation read");
        assert_eq!(
            fp.nodes[0][0], node,
            "stale manifest for {name:?} after re-home"
        );
    }
    // And the warm-cache path specifically: cache a file, re-home it,
    // re-read — the epoch mismatch must force a refetch.
    let probe = rehomed
        .keys()
        .next()
        .cloned()
        .unwrap_or_else(|| file_name(0));
    let _ = checker.file_manifest(&probe).expect("warm the cache");
    let (_, miss_before) = checker.manifest_cache_stats();
    let new_target =
        (NODES - 1) - checker.file_manifest(&probe).expect("probe").nodes[0][0] % NODES;
    meta.set_block_node(&probe, 0, 0, new_target)
        .expect("probe re-home");
    let fp = checker.file_manifest(&probe).expect("post-bump read");
    let (_, miss_after) = checker.manifest_cache_stats();
    assert_eq!(
        fp.nodes[0][0], new_target,
        "stale cache hit after epoch bump"
    );
    assert!(
        miss_after > miss_before,
        "epoch bump did not invalidate the cached manifest"
    );
    assert!(hits > 0, "no cache hits across {reads} reads");

    // ---- Durability: each shard's log, compacted and replayed cold,
    // reproduces the final namespace (placements and re-homes).
    let mut log_records = 0u64;
    let mut log_bytes = 0u64;
    for (i, shard) in meta.shards().iter().enumerate() {
        shard.compact_log().expect("compact shard log");
        let path = base.join(format!("meta{i:02}.log"));
        log_bytes += std::fs::metadata(&path).expect("log metadata").len();
        let replayed = Coordinator::open_log(&path).expect("replay shard log");
        assert_eq!(
            replayed.files().len(),
            shard.files().len(),
            "shard {i}: replay lost files"
        );
        log_records += replayed.files().len() as u64;
    }
    for (name, &node) in &rehomed {
        let fp = meta.file(name).expect("re-homed file present");
        if name != &probe {
            assert_eq!(fp.nodes[0][0], node, "log lost a re-home for {name:?}");
        }
    }
    println!(
        "durability: {} files replayed from {} compacted log bytes across {} shard(s)",
        log_records, log_bytes, cfg.shards
    );

    let epochs: Vec<u64> = meta.shards().iter().map(|s| s.epoch()).collect();
    let json = format!(
        "{{\n  \"bench\": \"metadata\",\n  \"smoke\": {smoke},\n  \
         \"config\": {{\"files\": {}, \"shards\": {}, \"clients\": {}, \
         \"ops_per_client\": {}, \"mutations\": {}, \"nodes\": {NODES}, \
         \"kernel\": \"{}\"}},\n  \
         \"place\": {{\"ops\": {}, \"secs\": {:.3}, \"ops_per_sec\": {:.0}}},\n  \
         \"read\": {{\"ops\": {reads}, \"secs\": {:.3}, \"ops_per_sec\": {:.0}, \
         \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}}},\n  \
         \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {:.4}}},\n  \
         \"shards\": {{\"files\": {by_shard:?}, \"epochs\": {epochs:?}, \
         \"log_bytes_compacted\": {log_bytes}}}\n}}\n",
        cfg.files,
        cfg.shards,
        cfg.clients,
        cfg.ops_per_client,
        cfg.mutations,
        gf256::kernel().name(),
        cfg.files,
        place_secs,
        place_ops_per_sec,
        read_secs,
        read_ops_per_sec,
        p50,
        p95,
        p99,
        hit_rate,
    );
    let path = if smoke {
        std::env::temp_dir().join("BENCH_metadata.smoke.json")
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        PathBuf::from("results/BENCH_metadata.json")
    };
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {} ({} bytes)", path.display(), json.len());

    let _ = std::fs::remove_dir_all(&base);
    if smoke {
        println!(
            "smoke: {} placements, {reads} cached reads (hit rate {:.1}%), \
             {} re-homes all epoch-consistent",
            cfg.files,
            hit_rate * 100.0,
            rehomed.len()
        );
    }
}
