//! The ingestion path: encoding a file and distributing its blocks.
//!
//! The paper's prototype includes "a tool that converts the original data
//! into blocks encoded with Carousel codes" (§VIII-A). This module
//! simulates that conversion inside the cluster: a writer node reads the
//! original data from its disk, encodes stripe by stripe (CPU cost at the
//! measured encode rate), and ships each encoded block to its target
//! datanode, which writes it to disk. Replication ships `copies` replicas
//! of each block instead.

use std::sync::LazyLock;

use simcore::Engine;

use crate::namenode::StoredFile;
use crate::policy::Policy;
use crate::topology::{ClusterSpec, Topology};

static INGESTS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("dfs.ingests"));
static INGEST_MB: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("dfs.ingest.network_mb"));
static INGEST_ENCODED_MB: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("dfs.ingest.encoded_mb"));

/// Coding CPU throughputs for ingestion, MB of original data per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeRates {
    /// Systematic RS encode throughput.
    pub rs_encode_mbps: f64,
    /// Carousel encode throughput (≈ RS thanks to generator sparsity —
    /// the paper's Fig. 6a observation).
    pub carousel_encode_mbps: f64,
}

impl Default for EncodeRates {
    fn default() -> Self {
        // Release-mode figures from this repository's kernels at k = 6.
        EncodeRates {
            rs_encode_mbps: 165.0,
            carousel_encode_mbps: 174.0,
        }
    }
}

/// Outcome of a simulated ingestion.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Wall-clock completion (all blocks durable), seconds.
    pub seconds: f64,
    /// Bytes shipped from the writer to datanodes, MB.
    pub network_mb: f64,
    /// Bytes of encoding CPU work charged, MB.
    pub encoded_mb: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Stripe read + encoded; start distributing its blocks.
    StripeEncoded(usize),
    /// One block landed on its datanode; start the disk write.
    BlockArrived(usize),
    /// Block durable.
    BlockWritten,
}

/// Simulates writing `file` into the cluster from `writer_node`.
///
/// Stripes are pipelined: each stripe is read + encoded (serially, one
/// core), then its blocks fan out over the network concurrently with the
/// next stripe's encoding.
///
/// # Panics
///
/// Panics if `writer_node` is out of range.
pub fn ingest_file(
    spec: &ClusterSpec,
    file: &StoredFile,
    writer_node: usize,
    rates: EncodeRates,
) -> IngestReport {
    assert!(writer_node < spec.nodes, "writer node out of range");
    let mut engine: Engine<Ev> = Engine::new();
    let topo = Topology::build(spec, &mut engine);

    let (encode_rate, encoded_per_stripe) = match file.policy {
        Policy::Replication { .. } => (f64::INFINITY, 0.0),
        Policy::Rs { k, .. } => (rates.rs_encode_mbps, k as f64 * file.block_mb),
        Policy::Carousel { k, .. } => (rates.carousel_encode_mbps, k as f64 * file.block_mb),
    };
    let stripe_data_mb = file.policy.stripe_data_blocks() as f64 * file.block_mb;

    // Destination node per (stripe, role).
    let targets: Vec<Vec<usize>> = file
        .stripes
        .iter()
        .map(|s| s.blocks.iter().map(|b| b.node).collect())
        .collect();

    // Kick off the first stripe: read from the writer's disk + encode CPU.
    let start_stripe = |engine: &mut Engine<Ev>, s: usize| {
        // Read the stripe's data and charge the encode CPU as one pipeline
        // stage: the work is max(read, encode) in a streaming encoder; we
        // model it as a read flow followed at the slower of the two rates,
        // i.e. a flow of stripe_data_mb through the disk plus a CPU flow.
        let read = stripe_data_mb;
        let cpu_s = if encode_rate.is_finite() {
            stripe_data_mb / encode_rate
        } else {
            0.0
        };
        // Encode modeled as CPU-capped flow; completion fires when both the
        // disk read and the CPU work are done — approximated by chaining
        // the slower one via two flows and counting completions.
        engine.start_flow(
            read,
            &topo.local_read(writer_node),
            None,
            Ev::StripeEncoded(s),
        );
        engine.start_flow(
            cpu_s,
            &[topo.cpu(writer_node)],
            Some(1.0),
            Ev::StripeEncoded(s),
        );
    };
    start_stripe(&mut engine, 0);

    let mut stripe_parts = vec![2u8; file.stripes.len()];
    let mut network_mb = 0.0;
    let mut encoded_mb = 0.0;
    let mut last_t = 0.0;
    while let Some((t, ev)) = engine.next_event() {
        last_t = t;
        match ev {
            Ev::StripeEncoded(s) => {
                stripe_parts[s] -= 1;
                if stripe_parts[s] > 0 {
                    continue;
                }
                encoded_mb += encoded_per_stripe;
                // Fan the blocks out.
                for &dst in &targets[s] {
                    if dst == writer_node {
                        engine.start_flow(0.0, &topo.local_read(dst), None, Ev::BlockArrived(dst));
                    } else {
                        let path = topo
                            .transfer(writer_node, dst)
                            .expect("distinct nodes transfer");
                        engine.start_flow(file.block_mb, &path, None, Ev::BlockArrived(dst));
                        network_mb += file.block_mb;
                    }
                }
                // Pipeline: encode the next stripe while blocks ship.
                if s + 1 < file.stripes.len() {
                    start_stripe(&mut engine, s + 1);
                }
            }
            Ev::BlockArrived(dst) => {
                engine.start_flow(
                    file.block_mb,
                    &topo.local_write(dst),
                    None,
                    Ev::BlockWritten,
                );
            }
            Ev::BlockWritten => {}
        }
    }
    INGESTS.inc();
    INGEST_MB.record_f64(network_mb);
    INGEST_ENCODED_MB.add(encoded_mb.round() as u64);
    IngestReport {
        seconds: last_t,
        network_mb,
        encoded_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namenode::Namenode;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    fn stored(policy: Policy) -> (ClusterSpec, StoredFile) {
        let spec = ClusterSpec::r3_large_cluster();
        let mut nn = Namenode::new(spec.nodes);
        let f = nn.store("f", 3072.0, 512.0, policy, &mut rng()).clone();
        (spec, f)
    }

    #[test]
    fn carousel_ingest_costs_like_rs() {
        // Paper Fig. 6a: Carousel encoding throughput ≈ RS, so ingestion
        // time is comparable.
        let (spec, rs) = stored(Policy::Rs { n: 12, k: 6 });
        let (_, ca) = stored(Policy::Carousel {
            n: 12,
            k: 6,
            d: 10,
            p: 12,
        });
        let r_rs = ingest_file(&spec, &rs, 0, EncodeRates::default());
        let r_ca = ingest_file(&spec, &ca, 0, EncodeRates::default());
        assert!(r_rs.seconds > 0.0 && r_ca.seconds > 0.0);
        let ratio = r_ca.seconds / r_rs.seconds;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
        // Both ship n blocks per stripe (minus any landing on the writer).
        assert!(r_ca.network_mb >= 11.0 * 512.0);
        assert_eq!(r_ca.encoded_mb, 3072.0);
    }

    #[test]
    fn replication_ships_more_bytes_than_coding() {
        let (spec, rep) = stored(Policy::Replication { copies: 3 });
        let (_, ca) = stored(Policy::Carousel {
            n: 12,
            k: 6,
            d: 10,
            p: 12,
        });
        let r_rep = ingest_file(&spec, &rep, 0, EncodeRates::default());
        let r_ca = ingest_file(&spec, &ca, 0, EncodeRates::default());
        // 3x replication ships 3 copies = 9216 MB; (12,6) coding ships
        // 2x = 6144 MB (minus writer-local blocks).
        assert!(r_rep.network_mb > r_ca.network_mb);
        assert_eq!(r_rep.encoded_mb, 0.0);
    }

    #[test]
    #[should_panic(expected = "writer node out of range")]
    fn bad_writer_rejected() {
        let (spec, f) = stored(Policy::Rs { n: 12, k: 6 });
        ingest_file(&spec, &f, 99, EncodeRates::default());
    }
}
