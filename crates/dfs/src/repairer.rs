//! Cluster-level block reconstruction — what HDFS does after a node dies.
//!
//! The paper's Figs. 7–8 microbenchmark repair traffic and CPU; this module
//! plays the same repair *inside the simulated cluster*: every stripe that
//! lost a block picks a newcomer node, `d` helpers read their blocks from
//! disk, compress them (for MSR-family codes) and ship the payloads across
//! the NIC fabric; the newcomer combines and writes the rebuilt block. The
//! result quantifies the cluster-wide cost of the RS-vs-Carousel repair
//! trade-off: identical MDS storage, but `k` versus `d/(d−k+1)` blocks of
//! repair traffic per loss.

use std::sync::LazyLock;

use carousel::Carousel;
use erasure::{CodeError, ErasureCode};
use rs_code::ReedSolomon;
use simcore::Engine;

static REPAIRED_BLOCKS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("dfs.repair.blocks"));
static REPAIR_MB: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("dfs.repair.traffic_mb"));
static REPAIR_MS: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("dfs.repair.ms"));

use crate::namenode::StoredFile;
use crate::policy::{CodingRates, Policy};
use crate::topology::{ClusterSpec, Topology};

/// Outcome of repairing every dead block of a file.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Wall-clock time until the last rebuilt block is durable, seconds.
    pub seconds: f64,
    /// Total helper→newcomer network traffic, MB.
    pub network_mb: f64,
    /// Number of blocks reconstructed.
    pub blocks_repaired: usize,
}

/// Simulator events: each marks the completion of one repair stage.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Helper(usize),
    Decode(usize),
    Write,
}

/// Repairs every dead block of `file` and reports time and traffic.
///
/// Helpers transfer `β/sub` of a block each (taken from the real repair
/// plans of the respective code); the newcomer's combine is charged at the
/// measured decode rate before the rebuilt block is written to its disk.
///
/// # Errors
///
/// Returns [`CodeError::InvalidParameters`] for replicated files (their
/// "repair" is a plain replica copy — model it as a read) and
/// [`CodeError::InsufficientData`] if a stripe lacks `d` live helpers.
pub fn repair_file(
    spec: &ClusterSpec,
    file: &StoredFile,
    rates: CodingRates,
) -> Result<RepairReport, CodeError> {
    // Per-lost-block repair shape: helper payload fraction and d, taken
    // from the real repair plan the access layer would execute.
    let (code, d, decode_rate): (Box<dyn ErasureCode>, usize, f64) = match file.policy {
        Policy::Replication { .. } => {
            return Err(CodeError::InvalidParameters {
                reason: "replicated blocks are re-copied, not code-repaired".into(),
            })
        }
        Policy::Rs { n, k } => (Box::new(ReedSolomon::new(n, k)?), k, rates.rs_decode_mbps),
        Policy::Carousel { n, k, d, p } => (
            Box::new(Carousel::new(n, k, d, p)?),
            d,
            rates.carousel_decode_mbps,
        ),
    };
    let helpers: Vec<usize> = (1..=d).collect();
    let plan = code.repair_plan(0, &helpers)?;
    let payload_fraction = plan.traffic_blocks() / d as f64;

    let mut engine: Engine<Ev> = Engine::new();
    let topo = Topology::build(spec, &mut engine);
    let payload_mb = file.block_mb * payload_fraction;

    struct Pending {
        helpers_left: usize,
        newcomer: usize,
    }
    let mut repairs: Vec<Pending> = Vec::new();

    for stripe in &file.stripes {
        let dead: Vec<usize> = (0..stripe.blocks.len())
            .filter(|&r| !stripe.blocks[r].alive)
            .collect();
        for &lost in &dead {
            let alive = stripe.alive_roles();
            if alive.len() < d {
                return Err(CodeError::InsufficientData {
                    needed: d,
                    got: alive.len(),
                });
            }
            // Newcomer: first node hosting no block of this stripe.
            let hosted: Vec<usize> = stripe.blocks.iter().map(|b| b.node).collect();
            let newcomer = (0..topo.nodes())
                .find(|nd| !hosted.contains(nd))
                .unwrap_or(stripe.blocks[lost].node);
            let idx = repairs.len();
            repairs.push(Pending {
                helpers_left: d,
                newcomer,
            });
            for &h in alive.iter().take(d) {
                let src = stripe.blocks[h].node;
                engine.start_flow(
                    payload_mb,
                    &topo.remote_read(src, newcomer),
                    None,
                    Ev::Helper(idx),
                );
            }
        }
    }
    let blocks_repaired = repairs.len();
    let network_mb = blocks_repaired as f64 * d as f64 * payload_mb;

    let mut last_t = 0.0;
    while let Some((t, ev)) = engine.next_event() {
        last_t = t;
        match ev {
            Ev::Helper(idx) => {
                repairs[idx].helpers_left -= 1;
                if repairs[idx].helpers_left == 0 {
                    // Combine at the newcomer (one core), then write.
                    let cpu = file.block_mb / decode_rate;
                    engine.start_flow(
                        cpu,
                        &[topo.cpu(repairs[idx].newcomer)],
                        Some(1.0),
                        Ev::Decode(idx),
                    );
                }
            }
            Ev::Decode(idx) => {
                engine.start_flow(
                    file.block_mb,
                    &topo.local_write(repairs[idx].newcomer),
                    None,
                    Ev::Write,
                );
            }
            Ev::Write => {}
        }
    }
    if blocks_repaired > 0 {
        REPAIRED_BLOCKS.add(blocks_repaired as u64);
        REPAIR_MB.record_f64(network_mb);
        REPAIR_MS.record_f64(last_t * 1e3);
    }
    Ok(RepairReport {
        seconds: last_t,
        network_mb,
        blocks_repaired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namenode::Namenode;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn setup(policy: Policy) -> (ClusterSpec, Namenode) {
        let spec = ClusterSpec::r3_large_cluster();
        let mut nn = Namenode::new(spec.nodes);
        nn.store("f", 3072.0, 512.0, policy, &mut rng());
        (spec, nn)
    }

    #[test]
    fn carousel_repair_moves_less_data_and_finishes_faster() {
        let (spec, mut nn_rs) = setup(Policy::Rs { n: 12, k: 6 });
        nn_rs.fail_block("f", 0, 2);
        let (_, mut nn_ca) = setup(Policy::Carousel {
            n: 12,
            k: 6,
            d: 10,
            p: 12,
        });
        nn_ca.fail_block("f", 0, 2);
        let r_rs = repair_file(&spec, nn_rs.file("f").unwrap(), CodingRates::default()).unwrap();
        let r_ca = repair_file(&spec, nn_ca.file("f").unwrap(), CodingRates::default()).unwrap();
        assert_eq!(r_rs.blocks_repaired, 1);
        assert_eq!(r_ca.blocks_repaired, 1);
        // RS moves k = 6 blocks; Carousel (d = 10) moves 10/5 = 2 blocks.
        assert!((r_rs.network_mb - 6.0 * 512.0).abs() < 1e-6);
        assert!((r_ca.network_mb - 2.0 * 512.0).abs() < 1e-6);
        assert!(r_ca.seconds < r_rs.seconds);
    }

    #[test]
    fn node_failure_triggers_repairs_across_stripes() {
        let spec = ClusterSpec::r3_large_cluster().with_nodes(13);
        let mut nn = Namenode::new(13);
        // 2 stripes: 6 GB file.
        nn.store(
            "f",
            6144.0,
            512.0,
            Policy::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12,
            },
            &mut rng(),
        );
        // With 13 nodes and 12-wide stripes, some node hosts blocks of both
        // stripes with high probability; fail node 0 and repair whatever died.
        nn.fail_node(0);
        let file = nn.file("f").unwrap();
        let dead: usize = file
            .stripes
            .iter()
            .map(|s| s.blocks.iter().filter(|b| !b.alive).count())
            .sum();
        if dead == 0 {
            return; // node 0 hosted nothing for this seed; nothing to check
        }
        let report = repair_file(&spec, file, CodingRates::default()).unwrap();
        assert_eq!(report.blocks_repaired, dead);
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn replicated_files_rejected() {
        let (spec, mut nn) = setup(Policy::Replication { copies: 3 });
        nn.fail_block("f", 0, 0);
        assert!(repair_file(&spec, nn.file("f").unwrap(), CodingRates::default()).is_err());
    }

    #[test]
    fn insufficient_helpers_detected() {
        let (spec, mut nn) = setup(Policy::Carousel {
            n: 12,
            k: 6,
            d: 10,
            p: 12,
        });
        for r in 0..4 {
            nn.fail_block("f", 0, r);
        }
        // 8 alive < d = 10.
        assert!(matches!(
            repair_file(&spec, nn.file("f").unwrap(), CodingRates::default()),
            Err(CodeError::InsufficientData { .. })
        ));
    }

    #[test]
    fn no_failures_is_a_noop() {
        let (spec, nn) = setup(Policy::Rs { n: 12, k: 6 });
        let report = repair_file(&spec, nn.file("f").unwrap(), CodingRates::default()).unwrap();
        assert_eq!(report.blocks_repaired, 0);
        assert_eq!(report.network_mb, 0.0);
        assert_eq!(report.seconds, 0.0);
    }
}
