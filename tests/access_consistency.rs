//! Cross-transport consistency: the two byte-moving stacks that plan
//! through the `access` layer — the in-memory filestore and the loopback
//! TCP cluster — must return byte-identical data for the same code, the
//! same file and the same failure pattern, and a cached decode plan must
//! never change the decoded bytes.

use std::sync::Arc;

use access::CodeSpec;
use access::{ObjectStore, PlanCache, PutOptions};
use carousel::Carousel;
use cluster::testing::LocalCluster;
use erasure::ErasureCode;
use filestore::FileCodec;
use proptest::prelude::*;
use workloads::parallel::ParallelCtx;

/// Small Carousel geometries every stack supports, with distinct
/// sub-packetizations (RS regime d = k here keeps clusters tiny).
const GEOMETRIES: [(usize, usize, usize, usize); 3] = [(4, 2, 2, 4), (5, 3, 3, 5), (6, 3, 3, 6)];

/// `fails` distinct roles starting at `offset`, wrapping modulo `n`.
fn failure_roles(n: usize, fails: usize, offset: usize) -> Vec<usize> {
    (0..fails).map(|i| (offset + i) % n).collect()
}

proptest! {
    // Each case boots a real TCP cluster, so keep the count low; the
    // filestore gets a broader sweep in the test below.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same code, same bytes, same number of losses: the filestore and
    /// the TCP cluster both return the original file.
    #[test]
    fn both_stacks_reads_are_byte_identical(
        geometry in proptest::sample::select(GEOMETRIES.to_vec()),
        data in proptest::collection::vec(any::<u8>(), 1..600),
        fails_seed in 0usize..100,
        offset in 0usize..6,
    ) {
        let (n, k, d, p) = geometry;
        let fails = fails_seed % (n - k + 1);
        let offset = offset % n;
        let roles = failure_roles(n, fails, offset);

        let code = Carousel::new(n, k, d, p).unwrap();
        let block_bytes = code.linear().sub() * 8;

        // Stack 1: in-memory filestore.
        let codec = FileCodec::new(code, block_bytes).unwrap();
        let mut file = codec.encode(&data).unwrap();
        for s in 0..file.stripes() {
            for &r in &roles {
                file.drop_block(s, r);
            }
        }
        let from_filestore = file.decode().unwrap();
        prop_assert_eq!(&from_filestore, &data);

        // Stack 2: loopback TCP cluster. One node per stripe role, so a
        // failed node loses exactly one block of every stripe.
        let mut cluster = LocalCluster::start(n).unwrap();
        let mut client = cluster
            .client()
            .with_fanout(ParallelCtx::sequential())
            .with_seed(7);
        let spec = CodeSpec::Carousel { n, k, d, p };
        let opts = PutOptions::new()
            .code(&spec.to_string())
            .block_bytes(block_bytes);
        client.put_opts("f", &data, &opts).unwrap();
        for &node in &roles {
            cluster.fail(node);
        }
        let from_cluster = client.get("f").unwrap();
        prop_assert_eq!(&from_cluster, &data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A decode served from the plan cache is byte-identical to one that
    /// rebuilds its inverse from scratch every time.
    #[test]
    fn cached_plans_decode_identically(
        geometry in proptest::sample::select(GEOMETRIES.to_vec()),
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        fails_seed in 0usize..100,
        offset in 0usize..6,
    ) {
        let (n, k, d, p) = geometry;
        let fails = fails_seed % (n - k + 1);
        let offset = offset % n;
        let roles = failure_roles(n, fails, offset);
        let code = Carousel::new(n, k, d, p).unwrap();
        let block_bytes = code.linear().sub() * 4;

        let cached = FileCodec::new(code.clone(), block_bytes).unwrap();
        let fresh = FileCodec::new(code, block_bytes)
            .unwrap()
            .with_plan_cache(Arc::new(PlanCache::disabled()));
        prop_assert!(!fresh.plan_cache().is_enabled());

        let mut cached_file = cached.encode(&data).unwrap();
        let mut fresh_file = fresh.encode(&data).unwrap();
        for s in 0..cached_file.stripes() {
            for &r in &roles {
                cached_file.drop_block(s, r);
                fresh_file.drop_block(s, r);
            }
        }
        prop_assert_eq!(cached_file.decode().unwrap(), fresh_file.decode().unwrap());
        if fails > 0 && cached_file.stripes() > 1 {
            prop_assert!(cached.plan_cache().hits() > 0, "repeated patterns must hit");
        }
        prop_assert_eq!(fresh.plan_cache().hits(), 0);
    }
}

/// The acceptance scenario for the plan cache: a multi-stripe degraded
/// read with one fixed failure pattern plans once and hits the cache for
/// every other stripe, without changing a byte of output.
#[test]
fn fixed_pattern_degraded_read_hits_cache_ninety_percent() {
    let code = Carousel::new(6, 3, 3, 6).unwrap();
    let block_bytes = code.linear().sub() * 20;
    let codec = FileCodec::new(code.clone(), block_bytes).unwrap();
    let stripes = 12;
    let data: Vec<u8> = (0..codec.stripe_data_bytes() * stripes)
        .map(|i| (i * 131 + 29) as u8)
        .collect();

    let mut file = codec.encode(&data).unwrap();
    for s in 0..stripes {
        file.drop_block(s, 1); // the same role in every stripe
    }
    let decoded = file.decode().unwrap();
    assert_eq!(decoded, data);
    assert_eq!(codec.plan_cache().misses(), 1, "one plan per pattern");
    assert_eq!(codec.plan_cache().hits() as usize, stripes - 1);
    assert!(
        codec.plan_cache().hit_rate() >= 0.9,
        "hit rate {} below the 90% acceptance bar",
        codec.plan_cache().hit_rate()
    );

    // Disabling the cache rebuilds every inverse yet decodes identically.
    let uncached = FileCodec::new(code, block_bytes)
        .unwrap()
        .with_plan_cache(Arc::new(PlanCache::disabled()));
    let mut file = uncached.encode(&data).unwrap();
    for s in 0..stripes {
        file.drop_block(s, 1);
    }
    assert_eq!(file.decode().unwrap(), decoded);
    assert_eq!(uncached.plan_cache().hits(), 0);
}

/// The fixed two-stack scenario run by
/// [`both_stacks_bytes_identical_for_every_kernel`] in a child process with
/// `CAROUSEL_KERNEL` pinned to one registered kernel. Marked `#[ignore]`
/// so it only ever runs with that variable set by the parent test.
#[test]
#[ignore = "spawned per kernel by both_stacks_bytes_identical_for_every_kernel"]
fn stack_scenario_for_pinned_kernel() {
    let kernel = std::env::var("CAROUSEL_KERNEL").expect("parent pins CAROUSEL_KERNEL");
    assert_eq!(
        gf256::kernel().name(),
        kernel,
        "pinned kernel must win dispatch"
    );

    let (n, k, d, p) = (6, 3, 3, 6);
    let code = Carousel::new(n, k, d, p).unwrap();
    let block_bytes = code.linear().sub() * 16;
    let data: Vec<u8> = (0..4096usize).map(|i| (i * 137 + 11) as u8).collect();
    let roles = failure_roles(n, n - k, 1);

    let codec = FileCodec::new(code, block_bytes).unwrap();
    let mut file = codec.encode(&data).unwrap();
    for s in 0..file.stripes() {
        for &r in &roles {
            file.drop_block(s, r);
        }
    }
    assert_eq!(
        file.decode().unwrap(),
        data,
        "filestore under kernel {kernel}"
    );

    let mut cluster = LocalCluster::start(n).unwrap();
    let mut client = cluster
        .client()
        .with_fanout(ParallelCtx::sequential())
        .with_seed(7);
    let spec = CodeSpec::Carousel { n, k, d, p };
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(block_bytes);
    client.put_opts("f", &data, &opts).unwrap();
    for &node in &roles {
        cluster.fail(node);
    }
    assert_eq!(
        client.get("f").unwrap(),
        data,
        "cluster under kernel {kernel}"
    );
}

/// One two-stack byte-identity case per registered kernel: re-runs
/// [`stack_scenario_for_pinned_kernel`] in a child process with
/// `CAROUSEL_KERNEL` set, so every kernel — not just the process default —
/// drives the filestore and TCP-cluster read paths end to end, including
/// the env-override dispatch itself.
#[test]
fn both_stacks_bytes_identical_for_every_kernel() {
    let exe = std::env::current_exe().expect("test binary path");
    for kernel in gf256::kernels() {
        let output = std::process::Command::new(&exe)
            .args([
                "--exact",
                "stack_scenario_for_pinned_kernel",
                "--ignored",
                "--test-threads=1",
            ])
            .env("CAROUSEL_KERNEL", kernel.name())
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "two-stack identity failed under kernel {}:\n{}\n{}",
            kernel.name(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}
