//! Block placement policies: where a stripe's blocks land.
//!
//! HDFS spreads replicas across racks so a rack-level failure (switch,
//! PDU) cannot take out a whole stripe. The same logic applies to coded
//! stripes: with `n` blocks spread over `r` racks, losing one rack kills
//! at most `⌈n/r⌉` blocks, which an `(n, k)` code survives as long as
//! `⌈n/r⌉ ≤ n − k`.

use rand::seq::SliceRandom;
use rand::Rng;

/// How stripes map onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uniformly random distinct nodes (the default elsewhere).
    Random,
    /// Nodes are grouped into `racks` equal racks; a stripe's blocks are
    /// spread round-robin across racks (and randomly within each rack).
    RackAware {
        /// Number of racks; must divide into the cluster at least 1 node
        /// per rack.
        racks: usize,
    },
}

impl Placement {
    /// Picks `width` distinct nodes out of `nodes` according to the policy.
    ///
    /// # Panics
    ///
    /// Panics if `width > nodes`, or for [`Placement::RackAware`] if
    /// `racks` is zero or exceeds the node count.
    pub fn place(&self, nodes: usize, width: usize, rng: &mut impl Rng) -> Vec<usize> {
        assert!(width <= nodes, "stripe wider than the cluster");
        match *self {
            Placement::Random => {
                let mut all: Vec<usize> = (0..nodes).collect();
                all.shuffle(rng);
                all.truncate(width);
                all
            }
            Placement::RackAware { racks } => {
                assert!(racks > 0 && racks <= nodes, "invalid rack count");
                // Partition nodes into racks by index stripes, shuffle
                // within each rack, then deal blocks round-robin.
                let mut per_rack: Vec<Vec<usize>> = (0..racks)
                    .map(|r| (0..nodes).filter(|&nd| nd % racks == r).collect())
                    .collect();
                for rack in &mut per_rack {
                    rack.shuffle(rng);
                }
                let mut order: Vec<usize> = (0..racks).collect();
                order.shuffle(rng);
                let mut out = Vec::with_capacity(width);
                let mut round = 0;
                while out.len() < width {
                    for &r in &order {
                        if let Some(&nd) = per_rack[r].get(round) {
                            out.push(nd);
                            if out.len() == width {
                                break;
                            }
                        }
                    }
                    round += 1;
                    assert!(round <= nodes, "placement failed to fill the stripe (bug)");
                }
                out
            }
        }
    }

    /// The rack of a node under this policy (`None` for random placement).
    pub fn rack_of(&self, node: usize) -> Option<usize> {
        match *self {
            Placement::Random => None,
            Placement::RackAware { racks } => Some(node % racks),
        }
    }

    /// Worst-case blocks lost from one stripe when a whole rack fails.
    pub fn max_blocks_per_rack(&self, width: usize) -> usize {
        match *self {
            Placement::Random => width,
            Placement::RackAware { racks } => width.div_ceil(racks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn random_places_distinct_nodes() {
        let mut r = rng();
        let nodes = Placement::Random.place(30, 12, &mut r);
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
    }

    #[test]
    fn rack_aware_spreads_evenly() {
        let mut r = rng();
        let policy = Placement::RackAware { racks: 6 };
        for _ in 0..20 {
            let nodes = policy.place(30, 12, &mut r);
            // 12 blocks over 6 racks: exactly 2 per rack.
            let mut per_rack = [0usize; 6];
            for nd in nodes {
                per_rack[policy.rack_of(nd).unwrap()] += 1;
            }
            assert!(per_rack.iter().all(|&c| c == 2), "{per_rack:?}");
        }
        assert_eq!(policy.max_blocks_per_rack(12), 2);
    }

    #[test]
    fn rack_failure_survivable_iff_spread_suffices() {
        // (12, 6): tolerates 6 losses. 6 racks -> 2 per rack (fine);
        // 1 rack -> all 12 blocks colocated (fatal).
        let six = Placement::RackAware { racks: 6 };
        let one = Placement::RackAware { racks: 1 };
        assert!(six.max_blocks_per_rack(12) <= 6);
        assert!(one.max_blocks_per_rack(12) > 6);
    }

    #[test]
    fn uneven_width_still_fills() {
        let mut r = rng();
        let policy = Placement::RackAware { racks: 5 };
        let nodes = policy.place(30, 12, &mut r);
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        // 12 over 5 racks: at most ceil(12/5) = 3 per rack.
        let mut per_rack = [0usize; 5];
        for nd in nodes {
            per_rack[nd % 5] += 1;
        }
        assert!(per_rack.iter().all(|&c| c <= 3), "{per_rack:?}");
    }

    #[test]
    #[should_panic(expected = "wider than the cluster")]
    fn width_validation() {
        let mut r = rng();
        Placement::Random.place(4, 5, &mut r);
    }
}
