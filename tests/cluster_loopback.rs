//! End-to-end tests of the networked cluster over real loopback TCP:
//! the paper's read and repair paths executed across sockets, asserting
//! byte-identical contents on the healthy, degraded and post-repair
//! paths — all through the unified [`ObjectStore`] API.

use access::blockfile::{self, CHUNK};
use access::{ObjectStore, PutOptions};
use cluster::protocol::{read_response_into, write_request};
use cluster::testing::LocalCluster;
use cluster::{BlockId, ClusterError, MetaRecord, Request, Response};

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 17) as u8).collect()
}

/// The acceptance scenario: a 9-node cluster serving a multi-stripe
/// Carousel(9,6,6,9) file. Healthy parallel read, degraded read after a
/// *silent* mid-read node kill, and post-repair read must all return the
/// exact original bytes.
#[test]
fn carousel_9_6_cluster_survives_kill_and_repair() {
    let mut cluster = LocalCluster::start(9).unwrap();
    let mut client = cluster.client().with_seed(11);
    // sub = 3 for this code; 120-byte blocks give 720-byte stripes.
    let data = payload(2500); // 4 stripes, last one partial
    let opts = PutOptions::new().code("carousel(9,6,6,9)").block_bytes(120);
    client.put_opts("movie", &data, &opts).unwrap();
    let fp = client.coordinator().file("movie").unwrap();
    assert!(fp.stripes >= 2, "need a multi-stripe file");
    assert_eq!(client.object_len("movie").unwrap(), data.len() as u64);

    // Healthy read: the direct p-way parallel path.
    assert_eq!(client.get("movie").unwrap(), data);

    // Kill a node WITHOUT telling the coordinator: the client still
    // believes it alive, discovers the failure through a connection
    // error mid-read, replans, and completes degraded.
    cluster.kill(4);
    assert!(client.coordinator().is_alive(4), "kill must stay silent");
    assert_eq!(client.get("movie").unwrap(), data);
    assert!(
        !client.coordinator().is_alive(4),
        "the failed read reports the node dead"
    );

    // Replace the machine (same id, empty disk) and repair onto it.
    cluster.restart(4, true).unwrap();
    let report = client.repair_file("movie").unwrap();
    // Every stripe is 9 blocks over 9 nodes, so node 4 held one block of
    // each stripe.
    assert_eq!(report.blocks_repaired, fp.stripes);
    // RS-regime repair (d = k) downloads k blocks per repaired block.
    assert_eq!(report.helper_payload_bytes, (fp.stripes * 6 * 120) as u64);
    assert!(report.wire_bytes > report.helper_payload_bytes);

    // Post-repair read is healthy again and byte-identical.
    assert_eq!(client.get("movie").unwrap(), data);
    let again = client.repair_file("movie").unwrap();
    assert_eq!(again.blocks_repaired, 0, "nothing left to repair");
}

/// MSR-regime Carousel on the same 9 physical nodes: repairing a lost
/// block moves d/(d−k+1) = 2 block-sizes over the wire instead of the
/// k = 4 a systematic-RS repair-by-decode would.
#[test]
fn msr_regime_repair_moves_optimal_traffic() {
    let mut cluster = LocalCluster::start(9).unwrap();
    let mut client = cluster.client().with_seed(5);
    // sub = α·N₀ = 3·2 = 6 for this code.
    let block_bytes = 120;
    let data = payload(1800);
    let opts = PutOptions::new()
        .code("carousel(8,4,6,8)")
        .block_bytes(block_bytes);
    client.put_opts("msr", &data, &opts).unwrap();
    let fp = client.coordinator().file("msr").unwrap();
    assert_eq!(client.get("msr").unwrap(), data);

    // Fail a node that hosts at least the first stripe's first block.
    let victim = fp.nodes[0][0];
    let lost_blocks = fp.nodes.iter().filter(|row| row.contains(&victim)).count();
    cluster.fail(victim);
    assert_eq!(client.get("msr").unwrap(), data, "degraded read");

    let report = client.repair_file("msr").unwrap();
    assert_eq!(report.blocks_repaired, lost_blocks);
    // Optimal repair traffic: d/(d−k+1) = 2 block-sizes per block…
    assert_eq!(
        report.helper_payload_bytes,
        (lost_blocks * 2 * block_bytes) as u64
    );
    // …which beats the k = 4 block-sizes RS would move, even counting
    // the wire framing.
    assert!(report.wire_bytes < (lost_blocks * 4 * block_bytes) as u64);

    // The rebuilt blocks landed on the spare node and read back clean.
    assert_eq!(client.get("msr").unwrap(), data);
}

/// Generic (non-Carousel) path: an RS file served block-wise, degrading
/// to parity blocks when a data node dies. Range reads fetch only the
/// touched stripes and agree with the full read.
#[test]
fn rs_cluster_reads_and_degrades() {
    let mut cluster = LocalCluster::start(6).unwrap();
    let mut client = cluster.client().with_seed(9);
    let data = payload(1000);
    let opts = PutOptions::new().code("rs(5,3)").block_bytes(100);
    client.put_opts("log", &data, &opts).unwrap();
    let fp = client.coordinator().file("log").unwrap();
    assert_eq!(client.get("log").unwrap(), data);
    // A range crossing a stripe boundary (stripes hold 300 bytes).
    assert_eq!(client.get_range("log", 250, 100).unwrap(), &data[250..350]);
    // Kill whichever node holds the first data block of stripe 0.
    cluster.kill(fp.nodes[0][0]);
    assert_eq!(client.get("log").unwrap(), data);
    assert_eq!(client.get_range("log", 0, 10).unwrap(), &data[..10]);
    // Unknown names fail cleanly.
    assert!(matches!(
        client.get("nope"),
        Err(ClusterError::UnknownFile { .. })
    ));
}

/// Bit rot on a *live* node, for a block-wise and a unit-wise code: one
/// flipped byte of a stored `.blk`. The node serves what it can still
/// vouch for — units whose chunks are intact — and reports the block
/// missing to `Stat`; the client reads around it, and repair rebuilds the
/// block where it was.
#[test]
fn bit_rot_is_read_around_and_repaired_in_place() {
    for spec in ["rs(6,3)", "carousel(6,3,3,6)"] {
        let cluster = LocalCluster::start(7).unwrap();
        let mut client = cluster.client().with_seed(13);
        // Four chunks per block, whatever the code's sub-packetization.
        let block_bytes = 4 * CHUNK;
        let data = payload(5 * block_bytes); // 2 stripes, last one partial
        let opts = PutOptions::new().code(spec).block_bytes(block_bytes);
        client.put_opts("rot", &data, &opts).unwrap();
        let fp = client.coordinator().file("rot").unwrap();
        assert_eq!(client.get("rot").unwrap(), data, "{spec}");

        // Flip one byte in the last chunk of stripe 0's first block.
        let node = fp.nodes[0][0];
        let path = cluster.node_root(node).join("rot.s00000.b000.blk");
        let block = blockfile::read(&path).unwrap().expect("stored block");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3 * CHUNK + 5] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();

        let addr = cluster.router().node_addr(node).unwrap();
        let call = |request: &Request| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            write_request(&mut stream, request).unwrap();
            read_response_into(&mut stream, &mut Vec::new())
                .unwrap()
                .unwrap()
                .0
        };
        let id = BlockId {
            file: "rot".into(),
            stripe: 0,
            block: 0,
        };
        let units = |units: Vec<u32>| Request::GetUnits {
            id: id.clone(),
            sub: 4,
            units,
        };
        // Units 0..3 sit in chunks the flip did not touch.
        assert_eq!(
            call(&units(vec![0, 1, 2])),
            Response::Data(block[..3 * CHUNK].to_vec()),
            "{spec}"
        );
        for covering in [
            units(vec![3]),
            units(vec![0, 3]),
            Request::Stat { id: id.clone() },
        ] {
            assert!(
                matches!(call(&covering), Response::Error(_)),
                "{spec}: {covering:?} must not vouch for the damaged chunk"
            );
        }

        // The client reads around the damage without declaring the node dead.
        assert_eq!(client.get("rot").unwrap(), data, "{spec}");
        assert!(client.coordinator().is_alive(node), "{spec}");
        let report = client.repair_file("rot").unwrap();
        assert_eq!(report.blocks_repaired, 1, "{spec}");
        assert_eq!(client.coordinator().file("rot").unwrap().nodes, fp.nodes);
        assert_eq!(blockfile::read(&path).unwrap(), Some(block), "{spec}");
        assert_eq!(client.get("rot").unwrap(), data, "{spec}");
        assert_eq!(client.repair_file("rot").unwrap().blocks_repaired, 0);
    }
}

/// In-place writes and appends over live TCP: `write_range` ships only
/// deltas (`WriteDelta` frames), `append` fills the last stripe's
/// padding by delta and grows the file with freshly placed stripes, and
/// both survive a degraded read afterwards.
#[test]
fn write_range_and_append_update_parity_over_the_wire() {
    let mut cluster = LocalCluster::start(8).unwrap();
    let mut client = cluster.client().with_seed(21);
    // carousel(6,3,3,6): sub = 3, 120-byte blocks, 360-byte stripes.
    let mut expect = payload(900); // 3 stripes, last partial
    let opts = PutOptions::new().code("carousel(6,3,3,6)").block_bytes(120);
    client.put_opts("mut", &expect, &opts).unwrap();

    // Patch a span crossing the stripe-0/1 boundary.
    let patch: Vec<u8> = (0..100u32).map(|i| (i * 7 + 3) as u8).collect();
    client.write_range("mut", 300, &patch).unwrap();
    expect[300..400].copy_from_slice(&patch);
    assert_eq!(client.get("mut").unwrap(), expect);

    // Append past the last stripe: 900 -> 1500 bytes fills stripe 2's
    // padding (180 bytes) and adds two fresh stripes.
    let tail = payload(600);
    let new_len = client.append("mut", &tail).unwrap();
    assert_eq!(new_len, 1500);
    expect.extend_from_slice(&tail);
    assert_eq!(client.get("mut").unwrap(), expect);
    assert_eq!(client.object_len("mut").unwrap(), 1500);
    let fp = client.coordinator().file("mut").unwrap();
    assert_eq!(fp.stripes, 5, "two stripes appended");

    // Writes must have kept parity consistent: kill a node silently and
    // the degraded read still sees every mutation.
    let victim = fp.nodes[0][0];
    cluster.kill(victim);
    assert_eq!(client.get("mut").unwrap(), expect, "degraded after update");

    // And repair rebuilds the *updated* bytes.
    let report = client.repair_file("mut").unwrap();
    assert!(report.blocks_repaired > 0);
    assert_eq!(client.get("mut").unwrap(), expect, "post-repair");

    // write_range cannot extend — growth is append's job.
    assert!(client.write_range("mut", 1499, &[0, 0]).is_err());
}

/// Small objects packed into shared stripes over the cluster: extents
/// resolve through the metadata service, reads slice the pack, repair
/// under packing rebuilds shared stripes, and deleting a packed object
/// removes only its extent.
#[test]
fn packed_objects_share_cluster_stripes() {
    let mut cluster = LocalCluster::start(6).unwrap();
    let mut client = cluster
        .client()
        .with_seed(13)
        .with_default_code(access::CodeSpec::Rs { n: 5, k: 3 })
        .with_default_block_bytes(120)
        .with_pack_limit(1000);
    let objects: Vec<(String, Vec<u8>)> = (0..8)
        .map(|i| (format!("obj-{i}"), payload(90 + i * 7)))
        .collect();
    let packed = PutOptions::new().pack(true);
    for (name, bytes) in &objects {
        client.put_opts(name, bytes, &packed).unwrap();
    }
    // All eight objects fit in at most two shared pack files.
    let packs: Vec<String> = client.coordinator().files();
    assert!(
        packs.len() <= 2,
        "8 small objects should share stripes, got packs {packs:?}"
    );
    assert_eq!(client.coordinator().packed_objects().len(), 8);
    for (name, bytes) in &objects {
        assert_eq!(&client.get(name).unwrap(), bytes);
        assert_eq!(client.object_len(name).unwrap(), bytes.len() as u64);
        assert_eq!(client.get_range(name, 10, 20).unwrap(), &bytes[10..30]);
    }

    // Repair under packing: fail a node hosting pack blocks, reads
    // degrade, repair rebuilds, reads are healthy again.
    let fp = client.coordinator().file(&packs[0]).unwrap();
    cluster.fail(fp.nodes[0][0]);
    for (name, bytes) in &objects {
        assert_eq!(&client.get(name).unwrap(), bytes, "degraded packed get");
    }
    for pack in &packs {
        client.repair_file(pack).unwrap();
    }
    for (name, bytes) in &objects {
        assert_eq!(&client.get(name).unwrap(), bytes, "post-repair packed get");
    }

    // Packed objects are immutable in size and deletable by extent.
    assert!(client.append("obj-0", &[1]).is_err());
    assert!(client.delete("obj-0").unwrap());
    assert!(client.get("obj-0").is_err());
    assert!(!client.delete("obj-0").unwrap());
    // The name is free again.
    client.put_opts("obj-0", &payload(40), &packed).unwrap();
    assert_eq!(client.get("obj-0").unwrap(), payload(40));
    // Reserved pack names are refused.
    assert!(client.put_opts(".pack-9999", &[1], &packed).is_err());
}

/// Deleting a file reclaims its blocks on the datanodes, appends a
/// `FileDeleted` record to the metadata log, and frees the name.
#[test]
fn delete_reclaims_blocks_and_logs_the_record() {
    let cluster = LocalCluster::start(6).unwrap();
    let mut client = cluster.client().with_seed(7);
    let data = payload(600);
    let opts = PutOptions::new().code("rs(4,2)").block_bytes(100);
    client.put_opts("victim", &data, &opts).unwrap();
    assert_eq!(client.get("victim").unwrap(), data);

    assert!(client.delete("victim").unwrap());
    assert!(
        !client.delete("victim").unwrap(),
        "second delete is a no-op"
    );
    assert!(matches!(
        client.get("victim"),
        Err(ClusterError::UnknownFile { .. })
    ));

    // The removal is durable: the record log carries a FileDeleted.
    let (records, _, _) = cluster::metalog::read_records(&cluster.meta_log_path(0)).unwrap();
    assert!(
        records
            .iter()
            .any(|r| matches!(r, MetaRecord::FileDeleted { file } if file == "victim")),
        "FileDeleted record missing from the log"
    );

    // Blocks were reclaimed on the datanodes: re-putting the name works
    // and a fresh replayed coordinator agrees the file is gone.
    client.put_opts("victim", &payload(99), &opts).unwrap();
    assert_eq!(client.get("victim").unwrap(), payload(99));
}

/// The metadata record log round-trips through disk: a brand-new
/// coordinator replayed purely from the harness's log — with its
/// recovered nodes revived by a live ping — serves a client that reads
/// the same bytes.
#[test]
fn manifest_reconnect_reads_same_bytes() {
    let cluster = LocalCluster::start(6).unwrap();
    let mut client = cluster.client().with_seed(3);
    let data = payload(700);
    let opts = PutOptions::new().code("carousel(6,3,3,6)").block_bytes(60);
    client.put_opts("doc", &data, &opts).unwrap();

    let coord = cluster::Coordinator::open_log(&cluster.meta_log_path(0)).unwrap();
    // Replayed registrations start dead (satellite liveness fix): the
    // nodes are all still serving, so pinging them revives every one.
    assert!(coord.alive_nodes().is_empty());
    let revived = coord.verify_nodes(std::time::Duration::from_secs(2));
    assert_eq!(revived, vec![0, 1, 2, 3, 4, 5]);
    let mut fresh = cluster::ClusterClient::new(std::sync::Arc::new(coord));
    assert_eq!(fresh.get("doc").unwrap(), data);
}

/// Stopping a node does not wait out its heartbeat period: a 13-node
/// cluster (the benchmark's size) is torn down in well under one 200 ms
/// heartbeat per node.
#[test]
fn dropping_a_cluster_does_not_wait_out_heartbeats() {
    let cluster = LocalCluster::start(13).unwrap();
    let started = std::time::Instant::now();
    drop(cluster);
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_millis(500),
        "dropping 13 nodes took {took:?}"
    );
}
