//! Extension: the paper's read and repair paths over **real TCP**.
//!
//! Everything else in the harness simulates the network; this experiment
//! spins up nine loopback datanodes (`cluster::testing::LocalCluster`)
//! and measures actual wire bytes and wall time:
//!
//! * **reads** — Carousel(9,6,6,9) vs RS(9,6): healthy parallel read and
//!   degraded read after a silent node kill, both verified byte-identical
//!   to the original file;
//! * **repair** — Carousel(8,4,6,8) vs RS(8,4) on the same nodes: a
//!   failed node's blocks are rebuilt over the network, and the measured
//!   Carousel helper traffic must be ≤ the measured RS repair traffic ×
//!   (d−k+1)/d plus protocol framing — the paper's optimal-repair bound
//!   checked against bytes that actually crossed sockets.
//!
//! Exits nonzero if any byte-identity check or the repair bound fails.
//! Knobs: `EXT_CLUSTER_BLOCK_BYTES` (default 6000, must be a multiple of
//! 6), `EXT_CLUSTER_FILE_KB` (default 96), `EXT_CLUSTER_THREADS`
//! (default 4).

use std::process::ExitCode;
use std::time::Instant;

use access::CodeSpec;
use access::{ObjectStore, PutOptions};
use bench_support::{env_knob, render_table};
use cluster::protocol::FRAME_OVERHEAD;
use cluster::testing::LocalCluster;
use cluster::ClusterClient;
use workloads::parallel::ParallelCtx;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 89) as u8).collect()
}

fn put(
    client: &mut ClusterClient,
    name: &str,
    data: &[u8],
    spec: CodeSpec,
    block_bytes: usize,
) -> cluster::FilePlacement {
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(block_bytes);
    client.put_opts(name, data, &opts).expect("put");
    client
        .coordinator()
        .file(name)
        .expect("placement after put")
}

/// One timed, verified read; returns `(millis, rx_bytes, identical)`.
fn timed_read(client: &mut ClusterClient, name: &str, expect: &[u8]) -> (f64, u64, bool) {
    let rx0 = client.wire_counters().1;
    let t0 = Instant::now();
    let got = client.get(name).expect("get");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, client.wire_counters().1 - rx0, got == expect)
}

fn read_phase(block_bytes: usize, file_bytes: usize, ctx: &ParallelCtx) -> bool {
    let data = payload(file_bytes);
    let mut cluster = LocalCluster::start(9).expect("start cluster");
    let mut client = cluster.client().with_fanout(ctx.clone()).with_seed(1);
    let schemes = [
        (
            "Carousel(9,6,6,9)",
            "carousel",
            CodeSpec::Carousel {
                n: 9,
                k: 6,
                d: 6,
                p: 9,
            },
        ),
        ("RS(9,6)", "rs", CodeSpec::Rs { n: 9, k: 6 }),
    ];
    for &(_, name, spec) in &schemes {
        put(&mut client, name, &data, spec, block_bytes);
    }
    let mut rows = Vec::new();
    let mut all_ok = true;
    for &(label, name, _) in &schemes {
        let (ms, rx, ok) = timed_read(&mut client, name, &data);
        all_ok &= ok;
        rows.push(vec![
            label.to_string(),
            "healthy".into(),
            format!("{ms:.1}"),
            rx.to_string(),
            ok.to_string(),
        ]);
    }
    // Silent kill: clients discover the dead node mid-read.
    cluster.kill(3);
    for &(label, name, _) in &schemes {
        let (ms, rx, ok) = timed_read(&mut client, name, &data);
        all_ok &= ok;
        rows.push(vec![
            label.to_string(),
            "degraded".into(),
            format!("{ms:.1}"),
            rx.to_string(),
            ok.to_string(),
        ]);
    }
    println!(
        "== Reads over loopback TCP: 9 nodes, {} KiB file, {} B blocks ==",
        file_bytes / 1024,
        block_bytes
    );
    println!(
        "{}",
        render_table(
            &["scheme", "mode", "read (ms)", "rx bytes", "identical"],
            &rows
        )
    );
    all_ok
}

/// Repairs one failed node's blocks for both codes and checks the
/// optimal-traffic bound on measured wire bytes.
fn repair_phase(block_bytes: usize, file_bytes: usize, ctx: &ParallelCtx) -> bool {
    let data = payload(file_bytes);
    let mut cluster = LocalCluster::start(9).expect("start cluster");
    let mut client = cluster.client().with_fanout(ctx.clone()).with_seed(2);
    let (d, k) = (6usize, 4usize);
    let fp_car = put(
        &mut client,
        "carousel",
        &data,
        CodeSpec::Carousel { n: 8, k, d, p: 8 },
        block_bytes,
    );
    let fp_rs = put(
        &mut client,
        "rs",
        &data,
        CodeSpec::Rs { n: 8, k },
        block_bytes,
    );
    // A victim hosting blocks of both files' first stripes (8-wide rows
    // over 9 nodes always intersect).
    let victim = *fp_car.nodes[0]
        .iter()
        .find(|n| fp_rs.nodes[0].contains(n))
        .expect("rows intersect");
    cluster.fail(victim);

    let mut rows = Vec::new();
    let mut per_block = Vec::new();
    for (label, name) in [("Carousel(8,4,6,8)", "carousel"), ("RS(8,4)", "rs")] {
        let report = client.repair_file(name).expect("repair");
        assert!(report.blocks_repaired > 0, "victim hosted no {name} blocks");
        let payload_per_block = report.helper_payload_bytes / report.blocks_repaired as u64;
        let wire_per_block = report.wire_bytes / report.blocks_repaired as u64;
        per_block.push((report.blocks_repaired, payload_per_block, wire_per_block));
        rows.push(vec![
            label.to_string(),
            report.blocks_repaired.to_string(),
            report.helper_payload_bytes.to_string(),
            report.wire_bytes.to_string(),
            format!("{:.2}", payload_per_block as f64 / block_bytes as f64),
        ]);
    }
    println!("== Repair of one failed node over loopback TCP: n = 8, k = {k}, d = {d} ==");
    println!(
        "{}",
        render_table(
            &[
                "scheme",
                "blocks",
                "payload bytes",
                "wire bytes",
                "blocks moved/repair"
            ],
            &rows
        )
    );

    // The acceptance bound: measured Carousel repair wire bytes per block
    // ≤ measured RS repair bytes × (d−k+1)/d + framing. Each Carousel
    // repair makes d helper calls; allow each response one frame plus the
    // 5-byte Data header.
    let (_, _, car_wire) = per_block[0];
    let (_, rs_payload, _) = per_block[1];
    let framing = (d * (FRAME_OVERHEAD + 5)) as u64;
    let bound = rs_payload * (d - k + 1) as u64 / d as u64 + framing;
    let ok = car_wire <= bound;
    println!(
        "repair bound: carousel {car_wire} B/block <= rs {rs_payload} x (d-k+1)/d + framing = {bound} B/block -> {}",
        if ok { "PASS" } else { "FAIL" }
    );

    // Post-repair byte identity for both files.
    let identical =
        client.get("carousel").expect("read") == data && client.get("rs").expect("read") == data;
    println!("post-repair contents identical: {identical}");
    ok && identical
}

fn main() -> ExitCode {
    let _metrics = bench_support::init_metrics("ext_cluster");
    let block_bytes = env_knob("EXT_CLUSTER_BLOCK_BYTES", 6000);
    assert!(
        block_bytes > 0 && block_bytes.is_multiple_of(6),
        "EXT_CLUSTER_BLOCK_BYTES must be a positive multiple of 6"
    );
    let file_bytes = env_knob("EXT_CLUSTER_FILE_KB", 96) * 1024;
    let ctx = ParallelCtx::builder()
        .threads(env_knob("EXT_CLUSTER_THREADS", 4))
        .build();
    let reads_ok = read_phase(block_bytes, file_bytes, &ctx);
    let repair_ok = repair_phase(block_bytes, file_bytes, &ctx);
    if reads_ok && repair_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ext_cluster: verification FAILED");
        ExitCode::FAILURE
    }
}
