//! Concurrency stress: several `ClusterClient`s hammering the same
//! loopback cluster from threads — readers fetching one shared file
//! (fanned out and pipelined) while another client repairs a second file
//! — must all see byte-identical data, and every client's wire counters
//! must account exactly for its own operations (no cross-client or
//! cross-worker races in the tallies). The storm also runs under a
//! trace-capturing event sink, and the captured span forest must be
//! properly partitioned: span ids unique, and every span whose parent was
//! captured belongs to its parent's trace — concurrent pipelined readers
//! never observe spans from another request's trace — with one get's tree
//! complete from the client's root down to the datanodes' service spans.
//! Around the storm, one healthy get, one degraded get and one repair run
//! alone, each of which must feed every per-phase latency histogram.

use std::sync::{Arc, Barrier, Mutex};

use access::{ObjectStore, PutOptions};
use cluster::testing::LocalCluster;
use workloads::parallel::ParallelCtx;

fn payload(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + salt * 7 + 17) as u8).collect()
}

/// A `Write` sink collecting telemetry event lines into shared memory.
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pulls the `"key":<digits>` value out of a raw JSON event line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Sample counts of the five per-phase latency histograms: the four wire
/// phases of every exchange, then `decode` (the read paths' decode time is
/// recorded in the client, repair's in the access layer).
fn phase_counts(decode: &'static str) -> [(&'static str, u64); 5] {
    let snap = telemetry::Registry::global().snapshot();
    [
        "cluster.phase.connect_us",
        "cluster.phase.send_us",
        "cluster.phase.wait_us",
        "cluster.phase.recv_us",
        decode,
    ]
    .map(|name| (name, snap.histogram(name).map_or(0, |h| h.count)))
}

/// Runs `op` on a fresh client (so it dials) and checks it left samples
/// in every phase histogram.
fn feeds_every_phase<T>(
    cluster: &LocalCluster,
    decode: &'static str,
    op: impl FnOnce(&mut cluster::ClusterClient) -> T,
) -> T {
    let before = phase_counts(decode);
    let out = op(&mut cluster.client());
    for ((name, was), (_, now)) in before.into_iter().zip(phase_counts(decode)) {
        assert!(now > was, "{name} recorded nothing");
    }
    out
}

#[test]
fn concurrent_clients_read_and_repair_consistently() {
    const READERS: usize = 3;
    const READS_EACH: usize = 4;

    let mut cluster = LocalCluster::start(7).unwrap();
    // sub = 3; 120-byte blocks → 360-byte stripes.
    let shared = payload(3000, 1); // 9 stripes
    let fixme = payload(1500, 2); // 5 stripes
    let opts = PutOptions::new().code("carousel(6,3,3,6)").block_bytes(120);
    let mut setup = cluster
        .client()
        .with_fanout(ParallelCtx::builder().threads(4).build())
        .with_seed(23);
    setup.put_opts("shared", &shared, &opts).unwrap();
    setup.put_opts("fixme", &fixme, &opts).unwrap();
    let shared_fp = setup.coordinator().file("shared").unwrap();
    let fixme_fp = setup.coordinator().file("fixme").unwrap();
    feeds_every_phase(&cluster, "cluster.phase.decode_us", |client| {
        assert_eq!(client.get("shared").unwrap(), shared, "healthy get");
    });

    // Fail a node hosting blocks of both files, so readers run degraded
    // while the repairer rebuilds fixme's lost blocks concurrently.
    let victim = shared_fp.nodes[0]
        .iter()
        .copied()
        .find(|node| fixme_fp.nodes.iter().any(|row| row.contains(node)))
        .expect("some node hosts blocks of both files");
    cluster.fail(victim);
    let lost_blocks =
        |fp: &cluster::FilePlacement| fp.nodes.iter().filter(|row| row.contains(&victim)).count();
    let (shared_lost, fixme_lost) = (lost_blocks(&shared_fp), lost_blocks(&fixme_fp));
    feeds_every_phase(&cluster, "cluster.phase.decode_us", |client| {
        assert_eq!(client.get("shared").unwrap(), shared, "degraded get");
    });

    // Capture every trace line the storm emits (client op roots,
    // per-stripe spans, and the datanodes' wire-propagated spans — the
    // nodes are in-process, so their lines land in the same sink).
    let capture = Capture(Arc::new(Mutex::new(Vec::new())));
    telemetry::set_event_sink(capture.clone());

    let start = Barrier::new(READERS + 1);
    // Concurrent clients against one cluster: each thread is a user.
    #[allow(clippy::disallowed_methods)]
    let (reader_results, repair_report) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cluster = &cluster;
                let start = &start;
                let shared = &shared;
                scope.spawn(move || {
                    let mut client = cluster
                        .client()
                        .with_fanout(ParallelCtx::builder().threads(6).build());
                    start.wait();
                    let mut delta_sum = (0u64, 0u64);
                    for _ in 0..READS_EACH {
                        let before = client.wire_counters();
                        assert_eq!(client.get("shared").unwrap(), *shared, "corrupt read");
                        let after = client.wire_counters();
                        assert!(after.0 > before.0 && after.1 > before.1);
                        delta_sum.0 += after.0 - before.0;
                        delta_sum.1 += after.1 - before.1;
                    }
                    (delta_sum, client.wire_counters())
                })
            })
            .collect();
        let repairer = {
            let cluster = &cluster;
            let start = &start;
            scope.spawn(move || {
                let mut client = cluster
                    .client()
                    .with_fanout(ParallelCtx::builder().threads(6).build());
                start.wait();
                client.repair_file("fixme").unwrap()
            })
        };
        (
            readers
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            repairer.join().unwrap(),
        )
    });

    // Let the datanodes' request spans (which close just after the
    // last response is written) drain into the sink.
    std::thread::sleep(std::time::Duration::from_millis(100));
    telemetry::clear_event_sink();
    let text = String::from_utf8(capture.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"trace\""))
        .collect();

    // Span ids are globally unique, and every captured span maps to
    // exactly one trace.
    let mut span_trace = std::collections::HashMap::new();
    for line in &lines {
        let trace = num_field(line, "trace").expect("trace id");
        let span = num_field(line, "span").expect("span id");
        assert!(
            span_trace.insert(span, trace).is_none(),
            "span id {span} emitted twice"
        );
    }
    // Trace isolation under concurrency: a span's parent, wherever it
    // was captured, belongs to the *same* trace — no reader's spans
    // ever link into another request's trace. (Parents emitted after
    // the sink closed are simply absent, which is fine.)
    for line in &lines {
        let trace = num_field(line, "trace").unwrap();
        if let Some(parent) = num_field(line, "parent") {
            if let Some(&parent_trace) = span_trace.get(&parent) {
                assert_eq!(
                    parent_trace,
                    trace,
                    "span {} links into a foreign trace",
                    num_field(line, "span").unwrap()
                );
            }
        }
    }
    // Every one of the readers' gets (and the repair) rooted its own
    // distinct trace.
    let get_roots: std::collections::HashSet<u64> = lines
        .iter()
        .filter(|l| l.contains("\"name\":\"cluster.op.get_us\""))
        .map(|l| num_field(l, "trace").unwrap())
        .collect();
    assert_eq!(
        get_roots.len(),
        READERS * READS_EACH,
        "expected one distinct trace per concurrent get"
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"name\":\"cluster.op.repair_us\""))
            .count(),
        1
    );
    // The wire propagated: the first get to finish has its per-stripe
    // fetch and decode spans and the serving datanodes' request and
    // service spans all below its root, in its trace.
    let root = lines
        .iter()
        .find(|l| l.contains("\"name\":\"cluster.op.get_us\""))
        .unwrap();
    let (root_trace, root_span) = (num_field(root, "trace"), num_field(root, "span"));
    let parent_of: std::collections::HashMap<u64, u64> = lines
        .iter()
        .filter_map(|l| Some((num_field(l, "span")?, num_field(l, "parent")?)))
        .collect();
    for name in [
        "cluster.fetch.stripe_us",
        "cluster.decode.stripe_us",
        "cluster.node.request_us",
        "cluster.node.service_us",
    ] {
        let tag = format!("\"name\":\"{name}\"");
        let under_root = lines
            .iter()
            .filter(|l| l.contains(&tag) && num_field(l, "trace") == root_trace)
            .any(|l| {
                let mut at = num_field(l, "span");
                while at.is_some() && at != root_span {
                    at = at.and_then(|span| parent_of.get(&span).copied());
                }
                at == root_span
            });
        assert!(under_root, "no {name} span under the get's root");
    }

    // Per-client accounting is exact: the sum of before/after deltas of a
    // client's own operations equals its final counters — workers folding
    // tallies concurrently never lose or double-count a byte.
    for (delta_sum, finals) in &reader_results {
        assert_eq!(*delta_sum, *finals, "wire counters raced");
    }
    assert_eq!(repair_report.blocks_repaired, fixme_lost);
    assert!(repair_report.helper_payload_bytes > 0);
    assert!(repair_report.wire_bytes > repair_report.helper_payload_bytes);

    // The storm left `shared` degraded; repairing it alone feeds the
    // phase histograms too, with decode time recorded by the access layer.
    let report = feeds_every_phase(&cluster, "access.phase.decode_us", |client| {
        client.repair_file("shared").unwrap()
    });
    assert_eq!(report.blocks_repaired, shared_lost);

    // A fresh client sees both files intact after the storm.
    let mut verify = cluster.client();
    assert_eq!(verify.get("shared").unwrap(), shared);
    assert_eq!(verify.get("fixme").unwrap(), fixme);
}
