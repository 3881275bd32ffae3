//! Long-horizon durability: does faster repair actually save data?
//!
//! Repair traffic (paper Fig. 7) is not just a bandwidth bill — it sets the
//! *repair window*, and stripes lose data when failures pile up faster than
//! repairs complete. This module runs an event-driven Monte-Carlo: nodes
//! fail with exponential inter-arrival times, every lost block starts a
//! repair whose duration is proportional to the scheme's repair traffic,
//! and a stripe dies permanently once fewer than `k` of its blocks are
//! live. Comparing RS (repair = `k` blocks) with Carousel/MSR (repair =
//! `d/(d−k+1)` blocks) at identical storage makes the reliability value of
//! regenerating codes concrete.

use rand::Rng;
use simcore::Engine;

use crate::namenode::{Namenode, StoredFile};
use crate::policy::Policy;

/// Parameters of a durability simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityParams {
    /// Mean time between failures of one node, hours (exponential).
    pub node_mtbf_hours: f64,
    /// Cluster-wide bandwidth available to each repair, MB/s.
    pub repair_mbps: f64,
    /// Simulated horizon, hours.
    pub horizon_hours: f64,
    /// Optional rack-correlated failures: `(racks, rack_mtbf_hours)`.
    /// A rack failure kills every node `nd` with `nd % racks == rack`
    /// simultaneously; nodes come back (replaced) immediately, but their
    /// blocks must be repaired.
    pub rack_failures: Option<(usize, f64)>,
}

impl Default for DurabilityParams {
    fn default() -> Self {
        DurabilityParams {
            // Aggressive failure rate so effects show in short simulations.
            node_mtbf_hours: 500.0,
            repair_mbps: 50.0,
            horizon_hours: 24.0 * 365.0,
            rack_failures: None,
        }
    }
}

/// Outcome of one durability run.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityReport {
    /// Stripes that dropped below `k` live blocks (permanent data loss).
    pub stripes_lost: usize,
    /// Total stripes simulated.
    pub stripes_total: usize,
    /// Node failures injected.
    pub failures: usize,
    /// Block repairs completed.
    pub repairs: usize,
    /// Duration of one block repair, hours.
    pub repair_hours: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    NodeFails(usize),
    RackFails(usize),
    RepairDone { stripe: usize, role: usize },
    End,
}

/// Repair traffic of one lost block under `policy`, in block-sizes.
fn repair_traffic_blocks(policy: Policy) -> f64 {
    match policy {
        Policy::Replication { .. } => 1.0,
        Policy::Rs { k, .. } => k as f64,
        Policy::Carousel { k, d, .. } => d as f64 / (d - k + 1) as f64,
    }
}

/// Runs the Monte-Carlo for one stored file.
///
/// Failed nodes are replaced immediately (infinite spare pool); each lost
/// block's repair completes after `traffic / repair_mbps`; a stripe that
/// ever has fewer than `k` live blocks is counted lost and abandoned.
///
/// # Panics
///
/// Panics on non-positive parameters.
pub fn simulate(
    nn: &Namenode,
    file: &StoredFile,
    params: &DurabilityParams,
    rng: &mut impl Rng,
) -> DurabilityReport {
    assert!(params.node_mtbf_hours > 0.0 && params.repair_mbps > 0.0);
    assert!(params.horizon_hours > 0.0);
    let nodes = nn.nodes();
    let needed = file.policy.stripe_data_blocks();
    let traffic_mb = repair_traffic_blocks(file.policy) * file.block_mb;
    let repair_hours = traffic_mb / params.repair_mbps / 3600.0;

    // Live-state copy: stripe -> role -> (node, alive); lost stripes -> None.
    let mut state: Vec<Option<Vec<(usize, bool)>>> = file
        .stripes
        .iter()
        .map(|s| Some(s.blocks.iter().map(|b| (b.node, b.alive)).collect()))
        .collect();
    let stripes_total = state.len();

    let mut engine: Engine<Ev> = Engine::new();
    let exp = |rng: &mut dyn rand::RngCore, mean: f64| -> f64 {
        let u: f64 = rand::Rng::gen_range(rng, f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    };
    for node in 0..nodes {
        let dt = exp(rng, params.node_mtbf_hours);
        engine.schedule(dt, Ev::NodeFails(node));
    }
    if let Some((racks, mtbf)) = params.rack_failures {
        for rack in 0..racks {
            let dt = exp(rng, mtbf);
            engine.schedule(dt, Ev::RackFails(rack));
        }
    }
    engine.schedule(params.horizon_hours, Ev::End);

    // Killing a node's blocks and scheduling their repairs, shared by node
    // and rack failure events.
    let kill_node = |node: usize,
                     state: &mut Vec<Option<Vec<(usize, bool)>>>,
                     engine: &mut Engine<Ev>,
                     stripes_lost: &mut usize| {
        for (stripe, entry) in state.iter_mut().enumerate() {
            let Some(blocks) = entry else { continue };
            let mut newly_dead = Vec::new();
            for (role, (nd, alive)) in blocks.iter_mut().enumerate() {
                if *nd == node && *alive {
                    *alive = false;
                    newly_dead.push(role);
                }
            }
            let live = blocks.iter().filter(|(_, a)| *a).count();
            if live < needed {
                *entry = None;
                *stripes_lost += 1;
            } else {
                for role in newly_dead {
                    engine.schedule(repair_hours, Ev::RepairDone { stripe, role });
                }
            }
        }
    };

    let mut failures = 0usize;
    let mut repairs = 0usize;
    let mut stripes_lost = 0usize;
    while let Some((_, ev)) = engine.next_event() {
        match ev {
            Ev::End => break,
            Ev::NodeFails(node) => {
                failures += 1;
                kill_node(node, &mut state, &mut engine, &mut stripes_lost);
                // The node is replaced; its next failure clock restarts.
                let dt = exp(rng, params.node_mtbf_hours);
                engine.schedule(dt, Ev::NodeFails(node));
            }
            Ev::RackFails(rack) => {
                let (racks, mtbf) = params.rack_failures.expect("rack event implies config");
                failures += 1;
                for node in (0..nodes).filter(|nd| nd % racks == rack) {
                    kill_node(node, &mut state, &mut engine, &mut stripes_lost);
                }
                let dt = exp(rng, mtbf);
                engine.schedule(dt, Ev::RackFails(rack));
            }
            Ev::RepairDone { stripe, role } => {
                if let Some(blocks) = state[stripe].as_mut() {
                    if !blocks[role].1 {
                        blocks[role].1 = true;
                        repairs += 1;
                    }
                }
            }
        }
    }
    DurabilityReport {
        stripes_lost,
        stripes_total,
        failures,
        repairs,
        repair_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(policy: Policy, mtbf: f64, repair_mbps: f64, seed: u64) -> DurabilityReport {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut nn = Namenode::new(30);
        // 100 stripes of data.
        let data_mb = policy.stripe_data_blocks() as f64 * 512.0 * 100.0;
        let file = nn.store("f", data_mb, 512.0, policy, &mut rng).clone();
        simulate(
            &nn,
            &file,
            &DurabilityParams {
                node_mtbf_hours: mtbf,
                repair_mbps,
                horizon_hours: 24.0 * 365.0,
                rack_failures: None,
            },
            &mut rng,
        )
    }

    #[test]
    fn rack_aware_placement_survives_rack_storms() {
        use access::Placement;
        // Only rack failures (no independent node failures). Rack-aware
        // (12,6) stripes lose <= 2 blocks per rack event and always recover;
        // single-rack placement loses everything at once.
        let run_with = |placement: Placement, seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut nn = Namenode::new(30);
            let policy = Policy::Rs { n: 12, k: 6 };
            let file = nn
                .store_with("f", 6.0 * 512.0 * 50.0, 512.0, policy, placement, &mut rng)
                .clone();
            simulate(
                &nn,
                &file,
                &DurabilityParams {
                    node_mtbf_hours: 1e12,
                    repair_mbps: 5.0,
                    horizon_hours: 24.0 * 365.0,
                    rack_failures: Some((6, 200.0)),
                },
                &mut rng,
            )
        };
        let mut aware = 0;
        let mut colocated = 0;
        for seed in 0..4 {
            aware += run_with(Placement::RackAware { racks: 6 }, seed).stripes_lost;
            // Adversarial: racks = 30 means rack i is exactly node i; use
            // rack-aware over 1 "rack" to colocate whole stripes per rack
            // grouping... instead approximate colocated placement by 2
            // racks: 6 of 12 blocks per rack, so any rack failure leaves
            // exactly k and a second event during repair is fatal.
            colocated += run_with(Placement::RackAware { racks: 2 }, seed).stripes_lost;
        }
        assert_eq!(aware, 0, "2 losses per rack event are always repairable");
        assert!(colocated > 0, "6 losses per rack event eventually overlap");
    }

    #[test]
    fn repair_windows_match_traffic() {
        assert_eq!(
            repair_traffic_blocks(Policy::Replication { copies: 3 }),
            1.0
        );
        assert_eq!(repair_traffic_blocks(Policy::Rs { n: 12, k: 6 }), 6.0);
        assert_eq!(
            repair_traffic_blocks(Policy::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12
            }),
            2.0
        );
    }

    #[test]
    fn low_failure_rate_loses_nothing() {
        let r = run(Policy::Rs { n: 12, k: 6 }, 1e9, 50.0, 7);
        assert_eq!(r.stripes_lost, 0);
        assert_eq!(r.failures + r.repairs, r.failures + r.repairs); // shape only
    }

    #[test]
    fn failures_do_occur_and_get_repaired() {
        let r = run(
            Policy::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12,
            },
            500.0,
            50.0,
            7,
        );
        assert!(r.failures > 100, "a year at MTBF 500h should fail often");
        assert!(r.repairs > 0);
        assert!(r.repair_hours < 1.0);
    }

    #[test]
    fn faster_repair_loses_fewer_stripes() {
        // A repair pipe slow enough (0.2 MB/s) that RS's 6-block windows
        // stretch to ~4.3 h while Carousel's 2-block windows are ~1.4 h.
        // With node MTBF 50 h the multi-hour RS windows overlap enough
        // failures to kill stripes; Carousel's shorter windows rarely do.
        // Aggregate over seeds to dodge Monte-Carlo noise.
        let mut rs_losses = 0;
        let mut ca_losses = 0;
        for seed in 0..8 {
            rs_losses += run(Policy::Rs { n: 12, k: 6 }, 50.0, 0.2, seed).stripes_lost;
            ca_losses += run(
                Policy::Carousel {
                    n: 12,
                    k: 6,
                    d: 10,
                    p: 12,
                },
                50.0,
                0.2,
                seed,
            )
            .stripes_lost;
        }
        assert!(rs_losses > 0, "slow repairs must overwhelm RS eventually");
        assert!(
            ca_losses < rs_losses,
            "carousel {ca_losses} vs rs {rs_losses}"
        );
    }
}
