//! Wire-parallelism benchmark: serial vs fanned-out/pipelined cluster
//! data paths on a loopback cluster whose datanodes charge a per-request
//! service delay (the stand-in for the network/disk service time of a
//! real cluster — loopback RTTs are otherwise nanoseconds, and this
//! machine may have a single core, so the win must come from *overlapping
//! waits*, which is exactly what the paper's `p`-server data parallelism
//! is about).
//!
//! Measures `put`, healthy `get`, degraded `get` (one node down) and
//! `repair_file` latency twice each: once with a serial client
//! (sequential fan-out, no pipelining — the pre-batching wire behavior)
//! and once with the parallel client (8-way fan-out, stripe pipeline).
//! Writes `results/BENCH_pipeline.json`.
//!
//! Knobs: `BENCH_REPS` (best-of reps for gets, default 3),
//! `BENCH_DELAY_US` (per-request service delay, default 3000; 2000 in
//! smoke), `BENCH_FANOUT` (worker pool width, default 8),
//! `BENCH_PIPELINE_W` (stripes in flight, default 2). `--smoke` runs a
//! tiny file in under a minute, writes the JSON to a temporary file and
//! asserts the fanned-out healthy get is ≥ 1.2× faster than serial — the
//! CI gate wired into `scripts/check.sh` (the full run targets ≥ 2×).

use std::time::{Duration, Instant};

use access::CodeSpec;
use access::{ObjectStore, PutOptions};
use bench_support::env_knob;
use cluster::testing::LocalCluster;
use workloads::parallel::ParallelCtx;

/// One measured latency point.
struct Sample {
    op: &'static str,
    mode: &'static str,
    ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-`reps` latency of `f` in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(ms(t0.elapsed()));
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    smoke: bool,
    reps: usize,
    delay_us: usize,
    stripes: usize,
    block_bytes: usize,
    fanout: usize,
    depth: usize,
    samples: &[Sample],
) -> String {
    let rows = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"op\": \"{}\", \"mode\": \"{}\", \"ms\": {:.3}}}",
                s.op, s.mode, s.ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let ratio = |op: &str| -> f64 {
        let at = |mode: &str| {
            samples
                .iter()
                .find(|s| s.op == op && s.mode == mode)
                .map_or(f64::NAN, |s| s.ms)
        };
        at("serial") / at("fanout").max(1e-9)
    };
    format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \
         \"geometry\": \"carousel(8,4,6,8)\",\n  \"request_delay_us\": {delay_us},\n  \
         \"stripes\": {stripes},\n  \"block_bytes\": {block_bytes},\n  \
         \"config\": {{\"kernel\": \"{}\", \"fanout\": {fanout}, \"pipeline_depth\": {depth}, \
         \"request_delay_us\": {delay_us}}},\n  \"samples\": [\n{rows}\n  ],\n  \
         \"speedup\": {{\"put\": {:.2}, \"get\": {:.2}, \"degraded_get\": {:.2}, \"repair\": {:.2}}}\n}}\n",
        gf256::kernel().name(),
        ratio("put"),
        ratio("get"),
        ratio("degraded_get"),
        ratio("repair")
    )
}

fn main() {
    let _metrics = bench_support::init_metrics("ext_pipeline");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = env_knob("BENCH_REPS", if smoke { 2 } else { 3 });
    let delay_us = env_knob("BENCH_DELAY_US", if smoke { 2000 } else { 3000 });
    let fanout_width = env_knob("BENCH_FANOUT", 8);
    let depth = env_knob("BENCH_PIPELINE_W", 2);
    // Carousel(8,4,6,8): sub = 6, MSR regime (d > k), on 9 nodes so a
    // spare exists for repair re-homing.
    let spec = CodeSpec::Carousel {
        n: 8,
        k: 4,
        d: 6,
        p: 8,
    };
    let block_bytes = if smoke { 60 } else { 6 * 1024 };
    let stripes = if smoke { 6 } else { 16 };
    let data: Vec<u8> = (0..stripes * 4 * block_bytes)
        .map(|i| (i * 131 + 7) as u8)
        .collect();

    let delay = Duration::from_micros(delay_us as u64);
    let mut cluster = LocalCluster::start_with_delay(9, delay).expect("start cluster");
    let serial_client = || {
        cluster
            .client()
            .with_fanout(ParallelCtx::sequential())
            .with_pipeline_depth(0)
            .with_seed(42)
    };
    let fanout_client = |depth: usize| {
        cluster
            .client()
            .with_fanout(ParallelCtx::builder().threads(fanout_width).build())
            .with_pipeline_depth(depth)
            .with_seed(43)
    };
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(block_bytes);

    let mut samples: Vec<Sample> = Vec::new();

    // --- put: serial upload vs pipelined encode + fanned-out upload.
    let mut serial = serial_client();
    let t0 = Instant::now();
    serial.put_opts("bench", &data, &opts).expect("serial put");
    samples.push(Sample {
        op: "put",
        mode: "serial",
        ms: ms(t0.elapsed()),
    });
    let fp = serial
        .coordinator()
        .file("bench")
        .expect("placement after put");
    let mut parallel = fanout_client(depth);
    let t0 = Instant::now();
    parallel
        .put_opts("bench2", &data, &opts)
        .expect("fanout put");
    samples.push(Sample {
        op: "put",
        mode: "fanout",
        ms: ms(t0.elapsed()),
    });

    // --- healthy get: all p blocks reachable, direct parallel read.
    let serial_bytes = serial.get("bench").expect("serial get");
    assert_eq!(serial_bytes, data, "serial get corrupted the file");
    let fanout_bytes = parallel.get("bench").expect("fanout get");
    assert_eq!(fanout_bytes, data, "fanout get corrupted the file");
    samples.push(Sample {
        op: "get",
        mode: "serial",
        ms: best_ms(reps, || {
            serial.get("bench").expect("serial get");
        }),
    });
    samples.push(Sample {
        op: "get",
        mode: "fanout",
        ms: best_ms(reps, || {
            parallel.get("bench").expect("fanout get");
        }),
    });

    // --- degraded get: one known-dead node, parity units fill the gap.
    let victim1 = fp.nodes[0][2];
    cluster.fail(victim1);
    assert_eq!(serial.get("bench").expect("degraded"), data);
    samples.push(Sample {
        op: "degraded_get",
        mode: "serial",
        ms: best_ms(reps, || {
            serial.get("bench").expect("serial degraded get");
        }),
    });
    assert_eq!(parallel.get("bench").expect("degraded"), data);
    samples.push(Sample {
        op: "degraded_get",
        mode: "fanout",
        ms: best_ms(reps, || {
            parallel.get("bench").expect("fanout degraded get");
        }),
    });

    // --- repair: rebuild victim1's blocks serially (re-homed onto the
    // spare), then fail a second node and rebuild fanned-out. Each repair
    // rebuilds one block per stripe hosting the victim, so the two passes
    // move comparable traffic.
    let t0 = Instant::now();
    let serial_report = serial.repair_file("bench").expect("serial repair");
    samples.push(Sample {
        op: "repair",
        mode: "serial",
        ms: ms(t0.elapsed()),
    });
    assert!(serial_report.blocks_repaired > 0, "victim1 hosted no block");
    cluster.restart(victim1, true).expect("restart victim1");
    let victim2 = fp.nodes[0][5];
    cluster.fail(victim2);
    let t0 = Instant::now();
    let fanout_report = parallel.repair_file("bench").expect("fanout repair");
    samples.push(Sample {
        op: "repair",
        mode: "fanout",
        ms: ms(t0.elapsed()),
    });
    assert!(fanout_report.blocks_repaired > 0, "victim2 hosted no block");
    assert_eq!(parallel.get("bench").expect("post-repair get"), data);

    // --- report.
    println!(
        "== Wire parallelism: serial vs {fanout_width}-way fan-out + depth-{depth} pipeline \
         (delay {delay_us}us, {stripes} stripes) =="
    );
    let table: Vec<Vec<String>> = samples
        .iter()
        .map(|s| vec![s.op.to_string(), s.mode.to_string(), format!("{:.2}", s.ms)])
        .collect();
    println!(
        "{}",
        bench_support::render_table(&["op", "mode", "ms"], &table)
    );
    let at = |op: &str, mode: &str| {
        samples
            .iter()
            .find(|s| s.op == op && s.mode == mode)
            .map_or(f64::NAN, |s| s.ms)
    };
    for op in ["put", "get", "degraded_get", "repair"] {
        println!(
            "{op}: fan-out is {:.2}x serial ({:.2} vs {:.2} ms)",
            at(op, "serial") / at(op, "fanout").max(1e-9),
            at(op, "fanout"),
            at(op, "serial"),
        );
    }

    let json = to_json(
        smoke,
        reps,
        delay_us,
        stripes,
        block_bytes,
        fanout_width,
        depth,
        &samples,
    );
    let path = if smoke {
        std::env::temp_dir().join("BENCH_pipeline.smoke.json")
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::path::PathBuf::from("results/BENCH_pipeline.json")
    };
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {} ({} bytes)", path.display(), json.len());

    let get_speedup = at("get", "serial") / at("get", "fanout").max(1e-9);
    if smoke {
        let reread = std::fs::read_to_string(&path).expect("re-read bench json");
        assert!(reread.starts_with('{') && reread.trim_end().ends_with('}'));
        assert_eq!(
            reread.matches('{').count(),
            reread.matches('}').count(),
            "unbalanced JSON braces"
        );
        for s in &samples {
            assert!(
                s.ms.is_finite() && s.ms > 0.0,
                "bogus latency for {} {}",
                s.op,
                s.mode
            );
        }
        assert!(
            get_speedup >= 1.2,
            "fan-out healthy get only {get_speedup:.2}x serial (bar: 1.2x)"
        );
        println!("smoke: byte-identity held, fan-out get {get_speedup:.2}x serial (bar 1.2x)");
    } else if get_speedup < 2.0 {
        eprintln!("warning: fan-out get speedup {get_speedup:.2} below the 2x acceptance bar");
    }
}
