//! Background repair scheduler, end to end on the loopback cluster:
//! a node death becomes a prioritized queue of degraded stripes drained
//! by throttled workers *while foreground reads keep flowing* — and the
//! foreground never observes a wrong byte. Also covers the two
//! idempotence layers (a flapping node cancels queued work; a healthy
//! stripe is absorbed without a rebuild), the capped exponential
//! backoff on transient failures, and the heartbeat monitor that turns a
//! silent death into the `Down` event nobody else would raise.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use access::CodeSpec;
use access::{ObjectStore, PutOptions};
use cluster::testing::LocalCluster;
use cluster::{ClusterClient, Coordinator, RepairConfig, RepairScheduler};
use workloads::parallel::ParallelCtx;

fn put_storm_file(
    coord: &Arc<Coordinator>,
    spec: CodeSpec,
    stripes: usize,
    block_bytes: usize,
) -> (Vec<u8>, cluster::FilePlacement) {
    let data: Vec<u8> = (0..stripes * spec_k(spec) * block_bytes)
        .map(|i| (i * 37 + 11) as u8)
        .collect();
    let mut client = ClusterClient::new(Arc::clone(coord))
        .with_timeout(Duration::from_secs(5))
        .with_fanout(ParallelCtx::sequential())
        .with_seed(7);
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(block_bytes);
    client
        .put_opts("storm", &data, &opts)
        .expect("put storm file");
    let fp = coord.file("storm").expect("placement after put");
    (data, fp)
}

fn spec_k(spec: CodeSpec) -> usize {
    match spec {
        CodeSpec::Carousel { k, .. } => k,
        CodeSpec::Rs { k, .. } => k,
        _ => panic!("unexpected spec"),
    }
}

/// Kill a node mid-storm: foreground reads stay byte-identical during
/// and after the rebuild, the queue drains to empty no faster than the
/// bandwidth budget allows, the per-node fan-in cap is never exceeded
/// (from the recorded metric), the coordinator's stats snapshot carries
/// the repair-queue gauges, and a live node's `repair_status` scrape
/// accounts for the rebuild.
#[test]
fn storm_rebuild_is_byte_identical_and_fan_in_capped() {
    let fanin_cap = 2;
    let budget = 16 * 1024; // repair bytes per second
    let mut cluster = LocalCluster::start(9).expect("start cluster");
    let coord = cluster.coordinator();
    let spec = CodeSpec::Carousel {
        n: 8,
        k: 4,
        d: 6,
        p: 8,
    };
    let (data, fp) = put_storm_file(&coord, spec, 3, 768);

    let scheduler = RepairScheduler::spawn(
        Arc::clone(&coord),
        RepairConfig {
            workers: 2,
            node_fanin: fanin_cap,
            bandwidth: Some(budget),
            ..RepairConfig::default()
        },
    );

    let victim = fp.nodes[0][0];
    let stop = Arc::new(AtomicBool::new(false));
    // Foreground readers running beside the scheduler: each is a user.
    #[allow(clippy::disallowed_methods)]
    let rebuild_took = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..2 {
            let coord = Arc::clone(&coord);
            let stop = Arc::clone(&stop);
            let data = &data;
            readers.push(scope.spawn(move || {
                let mut client = ClusterClient::new(coord).with_timeout(Duration::from_secs(5));
                let mut gets = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let bytes = client.get("storm").expect("foreground get");
                    assert!(bytes == *data, "foreground read not byte-identical");
                    gets += 1;
                }
                gets
            }));
        }

        // The kill: mark a block-hosting node dead mid-storm. The
        // liveness event enqueues every stripe it hosted.
        std::thread::sleep(Duration::from_millis(50));
        let killed_at = Instant::now();
        cluster.fail(victim);
        assert!(
            scheduler.wait_idle(Duration::from_secs(30)),
            "repair queue did not drain"
        );
        let rebuild_took = killed_at.elapsed();
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            let gets = reader.join().expect("reader panicked");
            assert!(gets > 0, "a foreground reader never completed a get");
        }
        rebuild_took
    });

    let status = scheduler.status();
    assert_eq!(status.queue_depth, 0, "queue not empty after drain");
    assert_eq!(status.in_flight, 0, "work left in flight after drain");
    assert!(status.completed >= 1, "no stripe was rebuilt");
    assert!(status.blocks_rebuilt >= 1, "no block was rebuilt");
    assert_eq!(status.abandoned, 0, "a stripe was abandoned");
    // Pacing: each worker sleeps off the shared limiter's debt before it
    // reports its stripe done, so an idle queue means the repair bytes
    // were paid for at the budgeted rate. The floor counts helper bytes
    // only and forgives one stripe's worth; a slow host can only make the
    // rebuild longer, never shorter.
    let paced_bytes = status.helper_bytes - status.helper_bytes / status.completed;
    let floor = Duration::from_secs_f64(paced_bytes as f64 / budget as f64);
    assert!(
        rebuild_took >= floor,
        "{} helper bytes rebuilt in {rebuild_took:?}, under the {floor:?} the budget allows",
        status.helper_bytes
    );

    // After the rebuild, a fresh client — planning against the updated
    // placement — still reads identical bytes.
    let mut fresh = ClusterClient::new(Arc::clone(&coord)).with_timeout(Duration::from_secs(5));
    assert_eq!(fresh.get("storm").expect("post-rebuild get"), data);

    // The same totals over the wire, from any live node. At least the
    // scheduler's own: the registry behind the reply is process-wide and
    // the other tests of this file repair too.
    let live = (0..cluster.len()).find(|&node| node != victim).unwrap();
    let wire = fresh.repair_status(live).expect("repair status scrape");
    assert!(wire.completed >= status.completed, "{wire:?} vs {status:?}");
    assert!(wire.blocks_rebuilt >= status.blocks_rebuilt);
    assert!(wire.helper_bytes >= status.helper_bytes);

    let snap = coord.stats();
    // Satellite: the coordinator's stats snapshot shows rebuild
    // progress — the queue gauges and the stripe counters are there.
    for gauge in ["repair.queue.depth", "repair.inflight"] {
        assert!(
            snap.gauges.iter().any(|(name, _)| name == gauge),
            "stats snapshot is missing the {gauge} gauge"
        );
    }
    // The fan-in throttle: every recorded concurrency level —
    // sampled at each permit acquisition — is within the cap.
    let fanin = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "repair.node.fanin")
        .map(|(_, h)| h.clone())
        .expect("repair.node.fanin histogram missing");
    assert!(fanin.count > 0, "fan-in histogram recorded nothing");
    assert!(
        fanin.max <= fanin_cap as u64,
        "per-node fan-in reached {} (cap {fanin_cap})",
        fanin.max
    );
    scheduler.shutdown();
}

/// Flapping idempotence, both layers. Queue layer: a node that
/// re-registers after being marked dead cancels the repair work its
/// death enqueued (workers = 0 keeps the queue inspectable). Worker
/// layer: a stripe enqueued by hand with nothing actually missing is
/// absorbed by the presence probe without rebuilding anything.
#[test]
fn flapping_node_cancels_and_healthy_stripe_absorbs() {
    let mut cluster = LocalCluster::start(6).expect("start cluster");
    let coord = cluster.coordinator();
    let spec = CodeSpec::Carousel {
        n: 4,
        k: 2,
        d: 2,
        p: 4,
    };
    let (data, fp) = put_storm_file(&coord, spec, 3, 64);
    let victim = fp.nodes[0][0];

    // Queue layer: no workers, so the queue holds whatever liveness
    // events put there.
    let queue_only = RepairScheduler::spawn(
        Arc::clone(&coord),
        RepairConfig {
            workers: 0,
            ..RepairConfig::default()
        },
    );
    cluster.fail(victim);
    let depth_after_death = queue_only.status().queue_depth;
    assert!(depth_after_death > 0, "node death enqueued nothing");

    // The flap: the node comes back (same blocks — a reboot, not a
    // replacement). Re-registration is an Up event; every queued stripe
    // recounts to zero erasures and is cancelled.
    cluster.restart(victim, false).expect("restart victim");
    let status = queue_only.status();
    assert_eq!(
        status.queue_depth, 0,
        "flapping node left stale repair work queued"
    );
    assert!(
        status.cancelled >= depth_after_death as u64,
        "cancellation counter did not absorb the flap"
    );
    queue_only.shutdown();

    // Worker layer: enqueue a perfectly healthy stripe by hand. The
    // worker's presence probe finds nothing missing and absorbs it.
    let scheduler = RepairScheduler::spawn(Arc::clone(&coord), RepairConfig::default());
    scheduler.enqueue_stripe("storm", 0);
    assert!(
        scheduler.wait_idle(Duration::from_secs(30)),
        "absorb did not drain"
    );
    let status = scheduler.status();
    assert_eq!(status.completed, 0, "a healthy stripe was 'rebuilt'");
    assert_eq!(status.blocks_rebuilt, 0, "absorb rebuilt a block");
    assert!(status.cancelled >= 1, "healthy stripe was not absorbed");
    scheduler.shutdown();

    let mut client = ClusterClient::new(coord).with_timeout(Duration::from_secs(5));
    assert_eq!(client.get("storm").expect("get after flap"), data);
}

/// Transient failures back off. With two nodes dead, a Carousel(4,2,3,4)
/// stripe cannot gather its `d = 3` helpers (nor find a live spare), so
/// every attempt requeues with a capped exponential delay. After the
/// second node returns, the retries — which may run no earlier than
/// their backoff deadlines — drain the queue; the drain therefore takes
/// at least one full backoff period from the first attempt.
#[test]
fn transient_failures_requeue_with_backoff() {
    let backoff_base = Duration::from_millis(1500);
    let mut cluster = LocalCluster::start(5).expect("start cluster");
    let coord = cluster.coordinator();
    let spec = CodeSpec::Carousel {
        n: 4,
        k: 2,
        d: 3,
        p: 4,
    };
    let (data, fp) = put_storm_file(&coord, spec, 3, 64);
    let v1 = fp.nodes[0][0];
    let v2 = fp.nodes[0][1];
    cluster.fail(v1);
    cluster.fail(v2);

    // Spawning after the deaths seeds the queue from the already-dead
    // nodes; every first repair attempt fails (not enough helpers, or
    // no live spare to re-home onto) and requeues.
    let spawned_at = Instant::now();
    let scheduler = RepairScheduler::spawn(
        Arc::clone(&coord),
        RepairConfig {
            workers: 1,
            node_fanin: 2,
            backoff_base,
            backoff_cap: Duration::from_secs(3),
            ..RepairConfig::default()
        },
    );
    let observe_deadline = spawned_at + Duration::from_millis(1200);
    while scheduler.status().requeued == 0 {
        assert!(
            Instant::now() < observe_deadline,
            "no attempt was requeued while the cluster was unrepairable"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The second node comes back (blocks intact) well inside the first
    // backoff window, so the *earliest* possible success is still gated
    // on the backoff deadline of a failed attempt.
    cluster.restart(v2, false).expect("restart v2");
    assert!(
        Instant::now() < spawned_at + backoff_base,
        "restart landed after the backoff window; timing assertion void"
    );
    assert!(
        scheduler.wait_idle(Duration::from_secs(60)),
        "queue did not drain after the node returned"
    );
    let drained_after = spawned_at.elapsed();
    let status = scheduler.status();
    assert!(status.requeued >= 1, "nothing was requeued");
    assert_eq!(status.abandoned, 0, "a stripe was abandoned");
    assert!(status.completed >= 1, "nothing was rebuilt after the flap");
    // No attempt can have failed before the scheduler existed, so a
    // drain earlier than `spawned_at + backoff_base` would mean a
    // requeued stripe retried before its deadline.
    assert!(
        drained_after >= backoff_base,
        "requeued stripes retried after {drained_after:?}, inside the {backoff_base:?} backoff"
    );
    scheduler.shutdown();

    let mut client = ClusterClient::new(coord).with_timeout(Duration::from_secs(5));
    assert_eq!(client.get("storm").expect("get after backoff"), data);
}

/// A node that stops *silently* — `LocalCluster::kill` tells nobody, and
/// no client touches the node afterwards — is noticed by the scheduler
/// itself: its heartbeats age past `heartbeat_ttl`, the monitor thread
/// raises the `Down` event, and the workers rebuild every block it hosted
/// onto the spares. The TTL sits well above the 200 ms heartbeat period so
/// a live node is not expired by a late beat.
#[test]
fn silent_death_is_noticed_by_the_heartbeat_monitor() {
    let mut cluster = LocalCluster::start(6).expect("start cluster");
    let coord = cluster.coordinator();
    let spec = CodeSpec::Carousel {
        n: 4,
        k: 2,
        d: 2,
        p: 4,
    };
    let (data, fp) = put_storm_file(&coord, spec, 3, 64);
    let victim = fp.nodes[0][0];
    let hosted = fp.nodes.iter().filter(|row| row.contains(&victim)).count() as u64;

    let scheduler = RepairScheduler::spawn(
        Arc::clone(&coord),
        RepairConfig {
            heartbeat_ttl: Some(Duration::from_secs(1)),
            ..RepairConfig::default()
        },
    );
    cluster.kill(victim);
    assert!(coord.is_alive(victim), "a silent stop must not be reported");

    // This test sends nothing until the rebuild is over: only the monitor
    // can have raised the event that starts it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while scheduler.status().blocks_rebuilt < hosted {
        assert!(
            Instant::now() < deadline,
            "the monitor never turned the silent death into repair work: {:?}",
            scheduler.status()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        scheduler.wait_idle(Duration::from_secs(30)),
        "repair queue did not drain"
    );
    assert!(!coord.is_alive(victim), "the victim was never expired");
    assert_eq!(scheduler.status().abandoned, 0, "a stripe was abandoned");
    scheduler.shutdown();

    let rebuilt = coord.file("storm").expect("placement after rebuild");
    assert!(
        rebuilt.nodes.iter().all(|row| !row.contains(&victim)),
        "a stripe is still homed on the dead node: {:?}",
        rebuilt.nodes
    );
    let mut client = ClusterClient::new(coord).with_timeout(Duration::from_secs(5));
    assert_eq!(client.get("storm").expect("get after rebuild"), data);
}
