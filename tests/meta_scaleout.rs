//! Scale-out metadata over real loopback TCP: sharded coordinators
//! behind the `MetaRouter`, durable record logs, client-side manifest
//! caching with epoch invalidation, and byte-identity through a
//! coordinator crash-and-replay mid-workload.

use std::time::Duration;

use access::{ObjectStore, PutOptions};
use cluster::testing::LocalCluster;
use cluster::ClusterError;
use workloads::parallel::ParallelCtx;

fn ctx(threads: usize) -> ParallelCtx {
    ParallelCtx::builder().threads(threads).build()
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

fn opts(block_bytes: usize) -> PutOptions {
    PutOptions::new()
        .code("carousel(6,3,3,6)")
        .block_bytes(block_bytes)
}

/// Several files over two shards: each routes to exactly one shard, the
/// merged namespace sees all of them, and every read is byte-identical.
#[test]
fn sharded_namespace_routes_and_reads() {
    let cluster = LocalCluster::start_sharded(6, 2).unwrap();
    let router = cluster.router();
    assert_eq!(router.shards().len(), 2);
    let mut client = cluster.client().with_fanout(ctx(2)).with_seed(5);
    let mut bodies = Vec::new();
    for i in 0..8 {
        let name = format!("shard-file-{i}");
        let data = payload(500 + i * 97);
        client.put_opts(&name, &data, &opts(60)).unwrap();
        bodies.push((name, data));
    }
    assert_eq!(router.files().len(), 8, "merged namespace sees every file");
    let mut used = [0usize; 2];
    for (name, data) in &bodies {
        let owner = router.shard_index(name);
        used[owner] += 1;
        for (s, shard) in router.shards().iter().enumerate() {
            assert_eq!(
                shard.file(name).is_some(),
                s == owner,
                "{name:?} must live only on shard {owner}"
            );
        }
        assert_eq!(&client.get(name).unwrap(), data);
    }
    assert!(
        used.iter().all(|&c| c > 0),
        "8 files all hashed onto one shard: {used:?}"
    );
}

/// The client manifest cache: repeat reads hit, a repair-driven re-home
/// bumps the shard epoch, and the next read refetches instead of
/// serving the stale placement.
#[test]
fn manifest_cache_invalidates_on_repair_rehome() {
    let mut cluster = LocalCluster::start_sharded(7, 2).unwrap();
    let mut client = cluster.client().with_fanout(ctx(2)).with_seed(8);
    let data = payload(1200);
    client.put_opts("hot", &data, &opts(60)).unwrap();
    let fp = client.router().file("hot").expect("placement after put");

    // Two manifest reads: one miss, then a hit at the same epoch.
    let m1 = client.file_manifest("hot").unwrap();
    let m2 = client.file_manifest("hot").unwrap();
    assert_eq!(*m1, *m2);
    let (hits, misses) = client.manifest_cache_stats();
    assert_eq!((hits, misses), (1, 1));

    // Fail a block-hosting node and repair: the rebuilt block re-homes,
    // committing through the shard's log and bumping its epoch.
    let victim = fp.nodes[0][0];
    cluster.fail(victim);
    let report = client.repair_file("hot").unwrap();
    assert!(report.blocks_repaired > 0, "repair rebuilt nothing");

    // The next manifest read must observe the epoch bump: a refetch
    // (miss), with the victim gone from the placement.
    let m3 = client.file_manifest("hot").unwrap();
    let (hits2, misses2) = client.manifest_cache_stats();
    assert_eq!(hits2, hits, "stale cache hit after repair re-home");
    assert_eq!(misses2, misses + 1, "epoch bump must force a refetch");
    assert!(
        m3.nodes.iter().all(|row| !row.contains(&victim)),
        "refetched manifest still references the failed node"
    );
    assert_eq!(client.get("hot").unwrap(), data);
}

/// Satellite: kill-and-restart the *coordinators* mid-workload. Every
/// shard is rebuilt purely from its record log, recovered nodes start
/// dead until a live ping revives them, and `get` returns
/// byte-identical contents for files placed both before and after the
/// restart.
#[test]
fn coordinator_restart_mid_workload_keeps_bytes_identical() {
    let mut cluster = LocalCluster::start_sharded(6, 2).unwrap();
    let mut client = cluster.client().with_fanout(ctx(2)).with_seed(13);
    let mut bodies = Vec::new();
    for i in 0..4 {
        let name = format!("pre-{i}");
        let data = payload(700 + i * 131);
        client.put_opts(&name, &data, &opts(70)).unwrap();
        bodies.push((name, data));
    }

    // Crash and replay the metadata service. The datanodes never
    // stopped serving, so the ping pass revives every one.
    let revived = cluster.restart_coordinators().unwrap();
    assert_eq!(revived, vec![0, 1, 2, 3, 4, 5]);
    for shard in cluster.router().shards() {
        assert_eq!(shard.alive_nodes().len(), 6);
    }

    // The old client still points at the dead coordinators; a fresh one
    // sees the replayed namespace. The workload continues: reads of
    // pre-restart files and new placements both work.
    let mut client = cluster.client().with_fanout(ctx(2)).with_seed(14);
    for (name, data) in &bodies {
        assert_eq!(&client.get(name).unwrap(), data, "{name} after restart");
    }
    for i in 0..3 {
        let name = format!("post-{i}");
        let data = payload(900 + i * 53);
        client.put_opts(&name, &data, &opts(90)).unwrap();
        bodies.push((name, data));
    }

    // Restart again: the logs now hold both generations (and the
    // post-restart placements were appended to the *reopened* logs).
    cluster.restart_coordinators().unwrap();
    let mut client = cluster.client().with_fanout(ctx(2));
    assert_eq!(client.router().files().len(), 7);
    for (name, data) in &bodies {
        assert_eq!(&client.get(name).unwrap(), data, "{name} after 2nd restart");
    }
}

/// A node that died before a coordinator restart stays dead after the
/// replay (its ping fails), so the replayed coordinator never plans
/// reads against it — while degraded reads still return exact bytes.
#[test]
fn restart_keeps_vanished_nodes_dead() {
    let mut cluster = LocalCluster::start_sharded(7, 1).unwrap();
    let mut client = cluster.client().with_fanout(ctx(2)).with_seed(3);
    let data = payload(1100);
    client.put_opts("doc", &data, &opts(60)).unwrap();
    let fp = client.router().file("doc").expect("placement after put");
    let victim = fp.nodes[0][0];
    cluster.kill(victim);

    let revived = cluster.restart_coordinators().unwrap();
    assert!(
        !revived.contains(&victim),
        "dead node revived without a ping"
    );
    assert_eq!(revived.len(), 6);
    let router = cluster.router();
    assert!(!router.is_alive(victim));
    std::thread::sleep(Duration::from_millis(10));
    let mut client = cluster.client().with_fanout(ctx(2));
    assert_eq!(
        client.get("doc").unwrap(),
        data,
        "degraded post-restart read"
    );
}

/// Placements are outside input: a CRC-valid `FilePlaced` record whose
/// numbers do not fit its own code is replayed by the coordinator — and
/// refused by the client's one `open`, by field name, on every path that
/// would otherwise divide by, index with or allocate from it. (The parent divided by zero on the first one.)
#[test]
fn malformed_placements_are_refused_not_trusted() {
    use cluster::{metalog, FilePlacement, MetaRecord};
    use std::io::Write as _;

    let mut cluster = LocalCluster::start(7).unwrap();
    let data = payload(900);
    cluster
        .client()
        .with_seed(3)
        .put_opts("good", &data, &opts(60))
        .unwrap();
    let good = cluster.router().file("good").expect("placement after put");
    assert_eq!(good.stripes, 5, "900 bytes over 180-byte stripes");

    let short_row = {
        let mut nodes = good.nodes.clone();
        nodes[1].pop();
        nodes
    };
    let tampered: Vec<(&str, FilePlacement)> = vec![
        (
            "block_bytes",
            FilePlacement {
                block_bytes: 0,
                ..good.clone()
            },
        ),
        (
            "block_bytes",
            FilePlacement {
                block_bytes: 61, // sub = 2
                ..good.clone()
            },
        ),
        (
            "stripes",
            FilePlacement {
                stripes: 4, // 900 bytes need five
                nodes: good.nodes[..4].to_vec(),
                ..good.clone()
            },
        ),
        (
            "stripes",
            FilePlacement {
                file_len: 181, // two stripes' worth, five recorded
                ..good.clone()
            },
        ),
        (
            "nodes",
            FilePlacement {
                nodes: short_row,
                ..good.clone()
            },
        ),
    ];
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(cluster.meta_log_path(0))
        .unwrap();
    for (i, (_, fp)) in tampered.iter().enumerate() {
        let record = MetaRecord::FilePlaced(FilePlacement {
            name: format!("bad-{i}"),
            ..fp.clone()
        });
        log.write_all(&metalog::encode_record(&record)).unwrap();
    }
    log.sync_all().unwrap();
    drop(log);

    // Replay the log into fresh coordinators.
    cluster.restart_coordinators().unwrap();
    let mut client = cluster.client().with_fanout(ctx(2));
    assert_eq!(client.get("good").unwrap(), data);

    for (i, (field, _)) in tampered.iter().enumerate() {
        let name = format!("bad-{i}");
        assert!(cluster.router().file(&name).is_some(), "{name} replayed");
        let outcomes = [
            ("get", client.get(&name).map(drop)),
            ("get_range", client.get_range(&name, 0, 1).map(drop)),
            ("write_range", client.write_range(&name, 0, &[1])),
            ("append", client.append(&name, &[1, 2, 3]).map(drop)),
            ("repair_file", client.repair_file(&name).map(drop)),
        ];
        for (op, outcome) in outcomes {
            match outcome {
                Err(ClusterError::Protocol { reason }) => assert!(
                    reason.contains(field) && reason.contains(&name),
                    "{name} {op}: {reason}"
                ),
                other => panic!("{name} {op}: expected a refusal naming {field}, got {other:?}"),
            }
        }
    }
    assert_eq!(client.get("good").unwrap(), data, "refusals broke nothing");
}
