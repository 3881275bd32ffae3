//! Repair-storm benchmark: foreground read latency *under background
//! rebuild*, RS vs Carousel, on a loopback cluster whose datanodes
//! serve through a byte-rate service model (one service unit per node,
//! held for `bytes_moved / rate` — so repair traffic and foreground
//! reads genuinely contend, like on a real disk/NIC).
//!
//! The experiment: place the same file with the same seeded placement
//! under RS(8,4) and Carousel(8,4,6,8), attach a
//! [`cluster::RepairScheduler`], then kill nodes on an identical
//! schedule while pipelined foreground `get` clients hammer the
//! cluster. RS rebuilds a block by reading `k = 4` whole blocks;
//! Carousel (MSR regime) reads `β/sub` of `d = 6` blocks — `d/(d−k+1) =
//! 2` block-sizes, half the bytes — so its rebuild both finishes sooner
//! and steals less service time from foreground reads. The headline
//! numbers are the post-kill foreground get p50/p95/p99 and the repair
//! payload throughput for each code, written to
//! `results/BENCH_repair_storm.json`.
//!
//! Knobs: `BENCH_STORM_RATE` (per-node service rate in bytes/sec),
//! `BENCH_STORM_BW` (global repair-bandwidth budget in bytes/sec),
//! `BENCH_STORM_CLIENTS` (foreground client threads),
//! `BENCH_STORM_STRIPES`. `--smoke` runs a small single-kill storm on 9
//! nodes and asserts (a) every foreground read during the rebuild is
//! byte-identical, (b) the repair queue drains to empty — the CI gate
//! wired into `scripts/check.sh`. The full run uses 11 nodes, a
//! two-kill schedule, and asserts the paper's claim: Carousel
//! foreground get p99 ≤ RS p99 at equal-or-higher repair throughput.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use access::CodeSpec;
use access::{ObjectStore, PutOptions};
use bench_support::env_knob;
use cluster::testing::LocalCluster;
use cluster::{ClusterClient, Coordinator, RepairConfig, RepairScheduler};
use workloads::parallel::ParallelCtx;

/// Everything measured for one code under the storm.
struct CodeResult {
    code: String,
    fg_gets: usize,
    fg_p50_ms: f64,
    fg_p95_ms: f64,
    fg_p99_ms: f64,
    repair_secs: f64,
    blocks_rebuilt: u64,
    repair_payload_bytes: u64,
    repair_mbps: f64,
    requeued: u64,
    abandoned: u64,
    queue_drained: bool,
}

/// The shared shape of one storm run.
struct StormConfig {
    nodes: usize,
    kills: usize,
    stripes: usize,
    block_bytes: usize,
    delay: Duration,
    service_rate: u64,
    repair_bandwidth: u64,
    clients: usize,
    drain_timeout: Duration,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// A fresh pipelined foreground client against `coord`.
fn foreground_client(coord: &Arc<Coordinator>) -> ClusterClient {
    ClusterClient::new(Arc::clone(coord))
        .with_timeout(Duration::from_secs(10))
        .with_fanout(ParallelCtx::builder().threads(8).build())
}

/// Runs one code through the storm and measures it.
fn run_code(label: &str, spec: CodeSpec, cfg: &StormConfig) -> CodeResult {
    let mut cluster =
        LocalCluster::start_with_service(cfg.nodes, cfg.delay, Some(cfg.service_rate))
            .expect("start cluster");
    let coord = cluster.coordinator();
    let data: Vec<u8> = (0..cfg.stripes * 4 * cfg.block_bytes)
        .map(|i| (i * 131 + 7) as u8)
        .collect();

    // Identical placement for every code: same seed, same node count,
    // same stripe count (both codes have k = 4), so the Random draws —
    // and therefore the kill schedule's blast radius — match exactly.
    let mut put_client = foreground_client(&coord).with_seed(4242);
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(cfg.block_bytes);
    put_client
        .put_opts("storm", &data, &opts)
        .expect("put storm file");
    let fp = coord.file("storm").expect("placement after put");
    assert_eq!(
        put_client.get("storm").expect("healthy get"),
        data,
        "healthy read corrupted the file"
    );

    // Deterministic kill schedule derived from the (shared) placement.
    let victim1 = fp.nodes[0][0];
    let victim2 = fp
        .nodes
        .iter()
        .flatten()
        .copied()
        .find(|&n| n != victim1)
        .expect("second victim");

    let scheduler = RepairScheduler::spawn(
        Arc::clone(&coord),
        RepairConfig {
            workers: 2,
            node_fanin: 2,
            // 0 = unthrottled: rebuild as fast as the service model
            // allows, so each code's repair traffic fully contends with
            // the foreground — the regime the headline numbers compare.
            bandwidth: (cfg.repair_bandwidth > 0).then_some(cfg.repair_bandwidth),
            ..RepairConfig::default()
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    let (kill_at, drain_secs, mut samples) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..cfg.clients {
            let coord = Arc::clone(&coord);
            let stop = Arc::clone(&stop);
            let data = &data;
            workers.push(scope.spawn(move || {
                let mut client = foreground_client(&coord);
                let mut taken: Vec<(Instant, f64)> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let bytes = client.get("storm").expect("foreground get");
                    assert_eq!(
                        bytes.len(),
                        data.len(),
                        "foreground read changed length mid-rebuild"
                    );
                    assert!(bytes == *data, "foreground read not byte-identical");
                    taken.push((Instant::now(), t0.elapsed().as_secs_f64() * 1e3));
                }
                taken
            }));
        }

        // Warm up, then fire the kill schedule. `fail` marks the node
        // dead at the coordinator, which is the liveness event the
        // scheduler turns into a prioritized queue of degraded stripes.
        std::thread::sleep(Duration::from_millis(300));
        let kill_at = Instant::now();
        cluster.fail(victim1);
        if cfg.kills > 1 {
            std::thread::sleep(Duration::from_millis(400));
            cluster.fail(victim2);
        }
        let drained = scheduler.wait_idle(cfg.drain_timeout);
        let drain_secs = kill_at.elapsed().as_secs_f64();
        assert!(
            drained,
            "{label}: repair queue did not drain within {:?}",
            cfg.drain_timeout
        );
        stop.store(true, Ordering::Relaxed);
        let samples: Vec<(Instant, f64)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("foreground client panicked"))
            .collect();
        (kill_at, drain_secs, samples)
    });

    let status = scheduler.status();
    let queue_drained = status.queue_depth == 0 && status.in_flight == 0;
    scheduler.shutdown();

    // The rebuilt data must also be durable: a fresh client, after the
    // storm, still reads identical bytes.
    assert_eq!(
        foreground_client(&coord)
            .get("storm")
            .expect("post-storm get"),
        data,
        "{label}: post-storm read not byte-identical"
    );

    // Foreground latency under rebuild: gets that completed after the
    // first kill (the run stops right after the queue drains, so this
    // window *is* the rebuild window).
    samples.retain(|(done, _)| *done >= kill_at);
    let mut ms: Vec<f64> = samples.iter().map(|(_, m)| *m).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let repair_payload_bytes = status.blocks_rebuilt * cfg.block_bytes as u64;
    CodeResult {
        code: label.to_string(),
        fg_gets: ms.len(),
        fg_p50_ms: percentile(&ms, 0.50),
        fg_p95_ms: percentile(&ms, 0.95),
        fg_p99_ms: percentile(&ms, 0.99),
        repair_secs: drain_secs,
        blocks_rebuilt: status.blocks_rebuilt,
        repair_payload_bytes,
        repair_mbps: repair_payload_bytes as f64 / drain_secs.max(1e-9) / (1024.0 * 1024.0),
        requeued: status.requeued,
        abandoned: status.abandoned,
        queue_drained,
    }
}

fn to_json(smoke: bool, cfg: &StormConfig, results: &[CodeResult]) -> String {
    let rows = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"code\": \"{}\", \"fg_gets\": {}, \"fg_p50_ms\": {:.3}, \
                 \"fg_p95_ms\": {:.3}, \"fg_p99_ms\": {:.3}, \"repair_secs\": {:.3}, \
                 \"blocks_rebuilt\": {}, \"repair_payload_bytes\": {}, \
                 \"repair_mbps\": {:.3}, \"requeued\": {}, \"abandoned\": {}, \
                 \"queue_drained\": {}}}",
                r.code,
                r.fg_gets,
                r.fg_p50_ms,
                r.fg_p95_ms,
                r.fg_p99_ms,
                r.repair_secs,
                r.blocks_rebuilt,
                r.repair_payload_bytes,
                r.repair_mbps,
                r.requeued,
                r.abandoned,
                r.queue_drained
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let (rs, carousel) = (&results[0], &results[1]);
    format!(
        "{{\n  \"bench\": \"repair_storm\",\n  \"smoke\": {smoke},\n  \
         \"config\": {{\"nodes\": {}, \"kills\": {}, \"stripes\": {}, \"block_bytes\": {}, \
         \"request_delay_us\": {}, \"service_rate\": {}, \"repair_bandwidth\": {}, \
         \"clients\": {}, \"repair_workers\": 2, \"node_fanin\": 2, \"kernel\": \"{}\"}},\n  \
         \"codes\": [\n{rows}\n  ],\n  \
         \"carousel_vs_rs\": {{\"p99_ratio\": {:.3}, \"throughput_ratio\": {:.3}}}\n}}\n",
        cfg.nodes,
        cfg.kills,
        cfg.stripes,
        cfg.block_bytes,
        cfg.delay.as_micros(),
        cfg.service_rate,
        cfg.repair_bandwidth,
        cfg.clients,
        gf256::kernel().name(),
        carousel.fg_p99_ms / rs.fg_p99_ms.max(1e-9),
        carousel.repair_mbps / rs.repair_mbps.max(1e-9),
    )
}

fn main() {
    let _metrics = bench_support::init_metrics("ext_repair_storm");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = StormConfig {
        nodes: if smoke { 9 } else { 11 },
        kills: if smoke { 1 } else { 2 },
        stripes: env_knob("BENCH_STORM_STRIPES", if smoke { 6 } else { 16 }),
        block_bytes: if smoke { 6 * 1024 } else { 48 * 1024 },
        delay: Duration::from_micros(if smoke { 300 } else { 200 }),
        service_rate: env_knob(
            "BENCH_STORM_RATE",
            if smoke {
                16 * 1024 * 1024
            } else {
                4 * 1024 * 1024
            },
        ) as u64,
        // 0 means unthrottled; the smoke run keeps a budget to exercise
        // the RateLimiter path in CI.
        repair_bandwidth: env_knob("BENCH_STORM_BW", if smoke { 2 * 1024 * 1024 } else { 0 })
            as u64,
        clients: env_knob("BENCH_STORM_CLIENTS", if smoke { 2 } else { 3 }),
        drain_timeout: Duration::from_secs(if smoke { 60 } else { 180 }),
    };

    // RS first, Carousel second: `to_json` and the acceptance check
    // index them that way. Both are (n=8, k=4) so stripes and placement
    // match; Carousel adds the d=6 MSR repair regime and p=8 read
    // parallelism.
    let rs = run_code("rs(8,4)", CodeSpec::Rs { n: 8, k: 4 }, &cfg);
    let carousel = run_code(
        "carousel(8,4,6,8)",
        CodeSpec::Carousel {
            n: 8,
            k: 4,
            d: 6,
            p: 8,
        },
        &cfg,
    );
    let results = vec![rs, carousel];

    println!(
        "== Repair storm: {} nodes, {} kill(s), {} stripes x {} B blocks, \
         service {} B/s, repair budget {} B/s, {} foreground clients ==",
        cfg.nodes,
        cfg.kills,
        cfg.stripes,
        cfg.block_bytes,
        cfg.service_rate,
        cfg.repair_bandwidth,
        cfg.clients
    );
    let table: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.code.clone(),
                r.fg_gets.to_string(),
                format!("{:.1}", r.fg_p50_ms),
                format!("{:.1}", r.fg_p95_ms),
                format!("{:.1}", r.fg_p99_ms),
                format!("{:.2}", r.repair_secs),
                r.blocks_rebuilt.to_string(),
                format!("{:.2}", r.repair_mbps),
            ]
        })
        .collect();
    println!(
        "{}",
        bench_support::render_table(
            &["code", "fg_gets", "p50_ms", "p95_ms", "p99_ms", "repair_s", "blocks", "MB/s"],
            &table
        )
    );

    let json = to_json(smoke, &cfg, &results);
    let path = if smoke {
        std::env::temp_dir().join("BENCH_repair_storm.smoke.json")
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::path::PathBuf::from("results/BENCH_repair_storm.json")
    };
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {} ({} bytes)", path.display(), json.len());

    let (rs, carousel) = (&results[0], &results[1]);
    for r in &results {
        assert!(r.queue_drained, "{}: queue not drained at shutdown", r.code);
        assert!(r.blocks_rebuilt > 0, "{}: storm rebuilt nothing", r.code);
        assert!(
            r.fg_gets > 0,
            "{}: no foreground gets during rebuild",
            r.code
        );
        assert_eq!(r.abandoned, 0, "{}: abandoned repair tasks", r.code);
    }
    if smoke {
        println!(
            "smoke: byte-identity held across {} foreground gets under rebuild; \
             queue drained ({} + {} blocks rebuilt)",
            rs.fg_gets + carousel.fg_gets,
            rs.blocks_rebuilt,
            carousel.blocks_rebuilt
        );
    } else {
        // The paper's claim, as an acceptance gate: at equal-or-higher
        // repair throughput, Carousel's foreground tail is no worse.
        assert!(
            carousel.repair_mbps >= rs.repair_mbps * 0.999,
            "carousel repair throughput {:.3} MB/s below RS {:.3} MB/s",
            carousel.repair_mbps,
            rs.repair_mbps
        );
        assert!(
            carousel.fg_p99_ms <= rs.fg_p99_ms,
            "carousel foreground p99 {:.1} ms above RS {:.1} ms",
            carousel.fg_p99_ms,
            rs.fg_p99_ms
        );
        println!(
            "acceptance: carousel p99 {:.1} ms <= rs p99 {:.1} ms at {:.2} vs {:.2} MB/s rebuilt",
            carousel.fg_p99_ms, rs.fg_p99_ms, carousel.repair_mbps, rs.repair_mbps
        );
    }
}
