//! Namenode metadata: files, stripes, block placement and failures.

use rand::Rng;

use crate::policy::{Policy, SplitSpec};
use access::Placement;

/// One placed block of a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedBlock {
    /// Datanode hosting the block.
    pub node: usize,
    /// Whether the block is currently readable.
    pub alive: bool,
}

/// A stripe: `stripe_width` blocks placed on distinct nodes. For coded
/// policies, index `i` is code role `i` (data-bearing roles first); for
/// replication, index `i` is replica `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stripe {
    /// The placed blocks, indexed by code role / replica number.
    pub blocks: Vec<PlacedBlock>,
}

impl Stripe {
    /// Roles whose blocks are readable.
    pub fn alive_roles(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.alive.then_some(i))
            .collect()
    }
}

/// A stored file: size, policy and stripe placements.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFile {
    /// File name.
    pub name: String,
    /// Logical size, MB.
    pub size_mb: f64,
    /// HDFS block size, MB (512 in the paper's experiments).
    pub block_mb: f64,
    /// Storage policy.
    pub policy: Policy,
    /// Stripe placements.
    pub stripes: Vec<Stripe>,
}

impl StoredFile {
    /// MapReduce input splits with their candidate *nodes* (locality).
    ///
    /// Splits whose every holder is dead become *degraded*: the task still
    /// runs, but must fetch the reconstruction inputs instead of the split
    /// — `k` blocks for RS, the affected `k/p` share of `k` blocks for
    /// Carousel codes, or nothing extra for replication (another replica
    /// would have been used; with all replicas dead the data is simply
    /// unavailable, which we surface as `read_mb = size_mb` remote).
    pub fn map_splits(&self) -> Vec<MapSplit> {
        let per_stripe: Vec<SplitSpec> = self.policy.splits(self.block_mb);
        let degraded_fetch = match self.policy {
            Policy::Replication { .. } => None,
            Policy::Rs { k, .. } => Some(k as f64 * self.block_mb),
            Policy::Carousel { k, p, .. } => Some(k as f64 * self.block_mb * k as f64 / p as f64),
        };
        let mut out = Vec::new();
        for stripe in &self.stripes {
            for spec in &per_stripe {
                let nodes: Vec<usize> = spec
                    .candidates
                    .iter()
                    .filter(|&&role| stripe.blocks[role].alive)
                    .map(|&role| stripe.blocks[role].node)
                    .collect();
                let (read_mb, decode_mb) = if nodes.is_empty() {
                    match degraded_fetch {
                        Some(fetch) => (fetch, fetch),
                        None => (spec.size_mb, 0.0),
                    }
                } else {
                    (spec.size_mb, 0.0)
                };
                out.push(MapSplit {
                    size_mb: spec.size_mb,
                    local_nodes: nodes,
                    read_mb,
                    decode_mb,
                });
            }
        }
        out
    }
}

/// A map task's input: size and the nodes that hold it locally (empty if
/// every replica is dead — the task must read degraded/remote).
#[derive(Debug, Clone, PartialEq)]
pub struct MapSplit {
    /// Input size, MB.
    pub size_mb: f64,
    /// Nodes holding the split's data locally.
    pub local_nodes: Vec<usize>,
    /// Bytes that must actually be fetched to produce the input. Equals
    /// `size_mb` for a healthy split; larger for a degraded read, where the
    /// split is reconstructed from other blocks (`k` blocks for RS, the
    /// affected `k/p` share of `k` blocks for Carousel codes).
    pub read_mb: f64,
    /// Bytes that must pass through the erasure decoder (0 for healthy
    /// splits and for replication).
    pub decode_mb: f64,
}

/// Central metadata service: places blocks, tracks files and failures.
///
/// # Examples
///
/// ```
/// use dfs::{Namenode, Policy};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut nn = Namenode::new(30);
/// nn.store("f", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng);
/// let file = nn.file("f").unwrap();
/// assert_eq!(file.stripes.len(), 1);
/// assert_eq!(file.map_splits().len(), 6);
/// ```
#[derive(Debug)]
pub struct Namenode {
    nodes: usize,
    files: Vec<StoredFile>,
}

impl Namenode {
    /// Creates a namenode managing `nodes` datanodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        Namenode {
            nodes,
            files: Vec::new(),
        }
    }

    /// Stores a file: splits it into stripes and places each stripe's
    /// blocks on distinct, randomly chosen nodes (HDFS-style failure
    /// domains).
    ///
    /// # Panics
    ///
    /// Panics if the stripe width exceeds the cluster size or inputs are
    /// non-positive.
    pub fn store(
        &mut self,
        name: &str,
        size_mb: f64,
        block_mb: f64,
        policy: Policy,
        rng: &mut impl Rng,
    ) -> &StoredFile {
        self.store_with(name, size_mb, block_mb, policy, Placement::Random, rng)
    }

    /// Like [`Namenode::store`] with an explicit [`Placement`] policy
    /// (e.g. rack-aware spreading).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Namenode::store`].
    pub fn store_with(
        &mut self,
        name: &str,
        size_mb: f64,
        block_mb: f64,
        policy: Policy,
        placement: Placement,
        rng: &mut impl Rng,
    ) -> &StoredFile {
        assert!(size_mb > 0.0 && block_mb > 0.0, "sizes must be positive");
        let width = policy.stripe_width();
        assert!(
            width <= self.nodes,
            "stripe width {width} exceeds cluster size {}",
            self.nodes
        );
        let stripe_data_mb = policy.stripe_data_blocks() as f64 * block_mb;
        let stripes = (size_mb / stripe_data_mb).ceil().max(1.0) as usize;
        let mut placed = Vec::with_capacity(stripes);
        for _ in 0..stripes {
            placed.push(Stripe {
                blocks: placement
                    .place(self.nodes, width, rng)
                    .into_iter()
                    .map(|node| PlacedBlock { node, alive: true })
                    .collect(),
            });
        }
        self.files.push(StoredFile {
            name: name.to_string(),
            size_mb,
            block_mb,
            policy,
            stripes: placed,
        });
        self.files.last().expect("just pushed")
    }

    /// Looks up a file by name.
    pub fn file(&self, name: &str) -> Option<&StoredFile> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Marks every block on `node` unreadable (node failure).
    pub fn fail_node(&mut self, node: usize) {
        for f in &mut self.files {
            for s in &mut f.stripes {
                for b in &mut s.blocks {
                    if b.node == node {
                        b.alive = false;
                    }
                }
            }
        }
    }

    /// Marks one specific block dead (the paper's Fig. 11 "randomly
    /// removing one block that contains original data").
    ///
    /// # Panics
    ///
    /// Panics on unknown file or out-of-range indices.
    pub fn fail_block(&mut self, name: &str, stripe: usize, role: usize) {
        let f = self
            .files
            .iter_mut()
            .find(|f| f.name == name)
            .expect("unknown file");
        f.stripes[stripe].blocks[role].alive = false;
    }

    /// Number of datanodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn store_places_blocks_on_distinct_nodes() {
        let mut nn = Namenode::new(30);
        let f = nn.store(
            "f",
            3072.0,
            512.0,
            Policy::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12,
            },
            &mut rng(),
        );
        assert_eq!(f.stripes.len(), 1, "3 GB / (6 x 512 MB) = 1 stripe");
        let stripe = &f.stripes[0];
        assert_eq!(stripe.blocks.len(), 12);
        let mut nodes: Vec<usize> = stripe.blocks.iter().map(|b| b.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 12, "blocks on distinct nodes");
    }

    #[test]
    fn replication_stripes_per_block() {
        let mut nn = Namenode::new(10);
        let f = nn.store(
            "r",
            3072.0,
            512.0,
            Policy::Replication { copies: 3 },
            &mut rng(),
        );
        assert_eq!(f.stripes.len(), 6, "one stripe per 512 MB block");
        assert_eq!(f.stripes[0].blocks.len(), 3);
    }

    #[test]
    fn map_splits_reflect_policy() {
        let mut nn = Namenode::new(30);
        nn.store("rs", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng());
        nn.store(
            "ca",
            3072.0,
            512.0,
            Policy::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 12,
            },
            &mut rng(),
        );
        let rs = nn.file("rs").unwrap().map_splits();
        let ca = nn.file("ca").unwrap().map_splits();
        assert_eq!(rs.len(), 6);
        assert_eq!(ca.len(), 12);
        assert!((ca[0].size_mb - 256.0).abs() < 1e-9);
        assert_eq!(ca[0].local_nodes.len(), 1);
    }

    #[test]
    fn failures_update_liveness_and_splits() {
        let mut nn = Namenode::new(30);
        nn.store("f", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng());
        let victim = nn.file("f").unwrap().stripes[0].blocks[0].node;
        nn.fail_node(victim);
        let f = nn.file("f").unwrap();
        assert!(!f.stripes[0].blocks[0].alive);
        assert_eq!(f.stripes[0].alive_roles().len(), 11);
        let splits = f.map_splits();
        assert!(
            splits[0].local_nodes.is_empty(),
            "split lost its local node"
        );
    }

    #[test]
    fn fail_block_is_targeted() {
        let mut nn = Namenode::new(15);
        nn.store("f", 1024.0, 512.0, Policy::Rs { n: 6, k: 2 }, &mut rng());
        nn.fail_block("f", 0, 3);
        let f = nn.file("f").unwrap();
        assert!(!f.stripes[0].blocks[3].alive);
        assert!(f.stripes[0].blocks[2].alive);
    }

    #[test]
    fn rack_aware_placement_survives_rack_failure() {
        let mut nn = Namenode::new(30);
        nn.store_with(
            "f",
            3072.0,
            512.0,
            Policy::Rs { n: 12, k: 6 },
            Placement::RackAware { racks: 6 },
            &mut rng(),
        );
        // Kill rack 0 (node `nd` is in rack `nd % 6`): at most 2 of the
        // stripe's 12 blocks die.
        for nd in (0..30).step_by(6) {
            nn.fail_node(nd);
        }
        let f = nn.file("f").unwrap();
        let alive = f.stripes[0].alive_roles().len();
        assert!(alive >= 10, "rack failure killed too many blocks: {alive}");
        assert!(alive >= 6, "stripe remains decodable");
    }

    #[test]
    #[should_panic(expected = "exceeds cluster size")]
    fn store_rejects_wide_stripes() {
        let mut nn = Namenode::new(4);
        nn.store("f", 100.0, 10.0, Policy::Rs { n: 6, k: 3 }, &mut rng());
    }
}
