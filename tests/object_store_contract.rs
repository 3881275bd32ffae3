//! One executable contract, run against every [`ObjectStore`]: the
//! in-memory `filestore::LocalObjects` and a loopback-TCP
//! `cluster::ClusterClient`. Both are only [`ObjectBackend`]s — the
//! object policy they are held to here is written once, in
//! `access::object` — so a behaviour that differs between the two is a
//! backend bug by construction. The drift detector at the end makes that
//! sharp: the same seeded put sequence under the same pack limit must
//! land at the same `(pack, offset, len)` extents on both stores.
//!
//! The contract runs once per code family of the registry — MDS-shaped
//! ones and MBR, whose stripes are *not* `k` blocks of data — and in its
//! middle loses a block of every stripe and repairs it, so "which stripe
//! and unit does this byte live in" is held to one answer per family on
//! both transports, healthy, degraded and rebuilt.

use access::CodeSpec;
use access::{Extent, ObjectBackend, ObjectStore, PutOptions};
use cluster::testing::LocalCluster;
use filestore::{FileCodec, LocalObjects};

/// Every family splits a 360-byte block into whole units.
const BLOCK_BYTES: usize = 360;
const PACK_LIMIT: u64 = 1000;

/// The two things the contract asks of the harness around a store: lose
/// one block per stripe of `"obj"` behind the store's back, and rebuild it.
enum Fault {
    Lose,
    Repair,
}

fn bytes(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 17) % 251) as u8)
        .collect()
}

/// Drives the whole object lifecycle through `store`, whose stripes carry
/// `stripe` data bytes, and returns the extent of every packed put, in put
/// order.
fn contract<S: ObjectStore + ObjectBackend>(
    store: &mut S,
    stripe: usize,
    fault: &mut dyn FnMut(&mut S, Fault),
) -> Vec<Extent> {
    let packed = PutOptions::new().pack(true);

    // --- Unpacked: put / get / get_range / object_len, multi-stripe.
    let mut expect = bytes(2 * stripe + 100, 1);
    store.put("obj", &expect).unwrap();
    assert_eq!(store.get("obj").unwrap(), expect);
    assert_eq!(store.object_len("obj").unwrap(), expect.len() as u64);
    assert_eq!(store.get_range("obj", 100, 50).unwrap(), &expect[100..150]);
    // A range spanning all three stripes, and the empty range.
    assert_eq!(
        store
            .get_range("obj", stripe as u64 - 10, stripe as u64 + 20)
            .unwrap(),
        &expect[stripe - 10..2 * stripe + 10]
    );
    assert!(store.get_range("obj", 7, 0).unwrap().is_empty());

    // write_range across a stripe boundary; it cannot extend.
    let patch = bytes(120, 9);
    store
        .write_range("obj", stripe as u64 - 60, &patch)
        .unwrap();
    expect[stripe - 60..stripe + 60].copy_from_slice(&patch);
    assert_eq!(store.get("obj").unwrap(), expect);
    let end = expect.len() as u64;
    assert!(store.write_range("obj", end - 1, &[0, 0]).is_err());
    assert!(store.get_range("obj", end - 1, 2).is_err());

    // append fills the last stripe's padding, then adds stripes.
    let tail = bytes(stripe + 33, 3);
    let new_len = store.append("obj", &tail).unwrap();
    expect.extend_from_slice(&tail);
    assert_eq!(new_len, expect.len() as u64);
    assert_eq!(store.object_len("obj").unwrap(), new_len);
    assert_eq!(store.get("obj").unwrap(), expect);

    // A lost block degrades reads without changing a byte; repair puts
    // back blocks that still decode to the mutated, grown object.
    fault(store, Fault::Lose);
    assert_eq!(store.get("obj").unwrap(), expect, "degraded get");
    assert_eq!(
        store.get_range("obj", 2 * stripe as u64 - 7, 40).unwrap(),
        &expect[2 * stripe - 7..2 * stripe + 33],
        "degraded range"
    );
    fault(store, Fault::Repair);
    assert_eq!(store.get("obj").unwrap(), expect, "get after repair");

    // Refusals: duplicate, reserved, empty — packed or not.
    assert!(store.put("obj", b"x").is_err(), "duplicate put");
    assert!(store.put_opts("obj", b"x", &packed).is_err(), "duplicate");
    assert!(store.put(".pack-9999", b"nope").is_err(), "reserved name");
    assert!(store.put_opts(".pack-9999", b"nope", &packed).is_err());
    assert!(store.put("empty", &[]).is_err(), "empty put");
    assert!(store.put_opts("empty", &[], &packed).is_err());

    // An offset near u64::MAX is a range error, not a wrapped-around pass.
    assert!(store.get_range("obj", u64::MAX, 2).is_err());
    assert!(store.write_range("obj", u64::MAX, &[1, 2]).is_err());

    // Unknown names.
    assert!(store.get("ghost").is_err());
    assert!(store.get_range("ghost", 0, 1).is_err());
    assert!(store.write_range("ghost", 0, &[1]).is_err());
    assert!(store.append("ghost", &[1]).is_err());
    assert!(store.object_len("ghost").is_err());
    assert!(!store.delete("ghost").unwrap());

    // delete, then the name is free again.
    assert!(store.delete("obj").unwrap());
    assert!(!store.delete("obj").unwrap());
    assert!(store.get("obj").is_err());
    assert!(store.object_len("obj").is_err());
    store.put("obj", b"fresh").unwrap();
    assert_eq!(store.get("obj").unwrap(), b"fresh");

    // --- Packed: ten small objects share packs.
    let mut extents = Vec::new();
    let mut put_packed = |store: &mut S, name: &str, data: &[u8]| {
        store.put_opts(name, data, &packed).unwrap();
        let ext = store.extent(name).expect("packed put records an extent");
        assert_eq!(ext.len, data.len() as u64);
        extents.push(ext);
    };
    let objs: Vec<Vec<u8>> = (0..10).map(|i| bytes(40 + i * 13, i)).collect();
    for (i, data) in objs.iter().enumerate() {
        put_packed(store, &format!("small-{i}"), data);
    }
    for (i, data) in objs.iter().enumerate() {
        let name = format!("small-{i}");
        assert_eq!(&store.get(&name).unwrap(), data);
        assert_eq!(store.object_len(&name).unwrap(), data.len() as u64);
        let mid = data.len() / 2;
        assert_eq!(
            store.get_range(&name, 1, mid as u64).unwrap(),
            &data[1..1 + mid]
        );
    }
    // With an open pack, an empty packed put is still refused.
    assert!(store.put_opts("empty", &[], &packed).is_err());

    // In-place updates of a packed object stay within its extent.
    store.write_range("small-3", 5, b"PATCH").unwrap();
    let mut small3 = objs[3].clone();
    small3[5..10].copy_from_slice(b"PATCH");
    assert_eq!(store.get("small-3").unwrap(), small3);
    assert_eq!(store.get("small-2").unwrap(), objs[2], "left neighbour");
    assert_eq!(store.get("small-4").unwrap(), objs[4], "right neighbour");
    // Ranges past the extent are refused even though the pack continues
    // past the object.
    let len3 = small3.len() as u64;
    assert!(store.write_range("small-3", len3 - 2, b"xxx").is_err());
    assert!(store.get_range("small-3", 0, len3 + 1).is_err());
    assert!(store.get_range("small-3", u64::MAX, 2).is_err());
    assert!(store.write_range("small-3", u64::MAX, &[1, 2]).is_err());
    assert_eq!(
        store.get("small-4").unwrap(),
        objs[4],
        "refusals wrote nothing"
    );
    // Packed objects cannot grow.
    assert!(store.append("small-3", b"y").is_err());
    // Deleting one drops only its extent; the name is free again.
    assert!(store.delete("small-3").unwrap());
    assert!(!store.delete("small-3").unwrap());
    assert!(store.get("small-3").is_err());
    assert_eq!(store.get("small-4").unwrap(), objs[4]);
    put_packed(store, "small-3", &bytes(40, 77));
    assert_eq!(store.get("small-3").unwrap(), bytes(40, 77));

    // --- The rollover rule, probed at its edges: roll over exactly when
    // a pack is open and `open_len + len > limit`. Sizes chosen so the
    // sequence hits an exact fit, a one-byte overshoot, an object larger
    // than the limit, and the put after it.
    let limit = PACK_LIMIT as usize;
    for (i, len) in [400, limit, 1, limit - 1, 300, limit + 200, 10]
        .into_iter()
        .enumerate()
    {
        let name = format!("edge-{i}");
        let data = bytes(len, 100 + i);
        put_packed(store, &name, &data);
        assert_eq!(store.get(&name).unwrap(), data);
    }
    let edges = &extents[extents.len() - 7..];
    assert_ne!(edges[1].pack, edges[0].pack, "400 + limit overshoots");
    assert_eq!(edges[1].offset, 0);
    assert_ne!(edges[2].pack, edges[1].pack, "a full pack rolls over");
    assert_eq!(
        (&edges[3].pack, edges[3].offset),
        (&edges[2].pack, 1),
        "an exact fit stays in the open pack"
    );
    assert_ne!(edges[4].pack, edges[3].pack);
    assert_ne!(edges[5].pack, edges[4].pack, "oversized object, own pack");
    assert_ne!(edges[6].pack, edges[5].pack);
    extents
}

#[test]
fn local_objects_and_cluster_client_uphold_one_contract() {
    for family in ["rs(6,4)", "carousel(9,6,6,9)", "msr(6,3,4)", "mbr(6,3,4)"] {
        let spec = CodeSpec::parse(family).unwrap();
        let codec = FileCodec::new(spec.build().unwrap(), BLOCK_BYTES).unwrap();
        let stripe = codec.stripe_data_bytes();
        let n = spec.n();

        let mut local = LocalObjects::new(codec).with_pack_limit(PACK_LIMIT);
        let local_extents = contract(&mut local, stripe, &mut |store, fault| {
            let file = store.encoded_mut("obj").unwrap();
            for s in 0..file.stripes() {
                match fault {
                    Fault::Lose => file.drop_block(s, s % n),
                    Fault::Repair => file.repair_block(s, s % n).unwrap(),
                }
            }
        });

        let mut cluster = LocalCluster::start(n + 1).unwrap();
        let mut client = cluster
            .client()
            .with_seed(13)
            .with_default_code(spec)
            .with_default_block_bytes(BLOCK_BYTES)
            .with_pack_limit(PACK_LIMIT);
        // The node holding stripe 0's first block (and whatever else
        // placement put there): killed silently, then replaced by an empty
        // machine that `repair_file` refills.
        let mut victim = 0;
        let cluster_extents = contract(&mut client, stripe, &mut |client, fault| match fault {
            Fault::Lose => {
                victim = client.file_manifest("obj").unwrap().nodes[0][0];
                cluster.kill(victim);
            }
            Fault::Repair => {
                cluster.restart(victim, true).unwrap();
                let report = client.repair_file("obj").unwrap();
                assert!(report.blocks_repaired > 0, "{family}: nothing rebuilt");
            }
        });

        // The drift detector: one policy, so one extent sequence.
        assert_eq!(local_extents, cluster_extents, "{family}");
    }
}
