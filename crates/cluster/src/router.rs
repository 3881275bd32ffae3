//! Sharded metadata routing: consistent hashing of file names over
//! multiple [`Coordinator`] instances.
//!
//! One coordinator per namespace is the paper's single-namenode model;
//! scaling metadata means splitting the file → stripe namespace into
//! disjoint shards, each served by its own coordinator (with its own
//! record log and its own epoch). The [`MetaRouter`] is the thin layer
//! that keeps this transparent: file-keyed operations route to the
//! owning shard via a consistent-hash ring, while *membership* (node
//! registrations, heartbeats, death reports) broadcasts to every shard
//! so each one plans placements against the same liveness view.
//!
//! The hash is a hand-rolled FNV-1a-64: `std`'s `DefaultHasher` is
//! explicitly not stable across releases, and shard assignment must
//! never move just because the toolchain did (a file logged to shard 2's
//! record log has to route to shard 2 forever). Each shard contributes
//! [`VNODES`] points to the ring, so shard loads stay within a few
//! percent of each other for large namespaces.

use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use access::Placement;
use access::{CodeSpec, Extent};
use rand::Rng;

use crate::coordinator::{Coordinator, FilePlacement, NodeInfo};
use crate::error::ClusterError;

/// Ring points contributed by each shard.
pub const VNODES: usize = 64;

/// FNV-1a 64-bit: tiny, dependency-free, and *stable* — the shard
/// assignment of every file name is part of the durable metadata
/// contract, so the hash can never change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ring key of an arbitrary byte string: FNV-1a pushed through a
/// 64-bit finalizer (the MurmurHash3 `fmix64` constants). Raw FNV
/// avalanches too weakly for short, similar strings — sequential file
/// names land lopsidedly on the ring without it (observed 4× load skew
/// across 4 shards). Same stability contract as [`fnv1a`].
pub fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Routes metadata operations across one or more coordinator shards.
///
/// With a single shard every operation passes straight through, so
/// `MetaRouter::single(coord)` behaves exactly like the coordinator it
/// wraps — the unsharded topology is just the 1-shard special case.
pub struct MetaRouter {
    shards: Vec<Arc<Coordinator>>,
    /// `(ring position, shard index)`, sorted by position. Empty for a
    /// single shard (no hashing needed).
    ring: Vec<(u64, usize)>,
}

impl fmt::Debug for MetaRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetaRouter")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl MetaRouter {
    /// Wraps one coordinator — the unsharded topology.
    pub fn single(shard: Arc<Coordinator>) -> Arc<MetaRouter> {
        MetaRouter::sharded(vec![shard])
    }

    /// Builds a router over `shards` disjoint coordinators.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty.
    pub fn sharded(shards: Vec<Arc<Coordinator>>) -> Arc<MetaRouter> {
        assert!(!shards.is_empty(), "router needs at least one shard");
        let mut ring = Vec::new();
        if shards.len() > 1 {
            for shard in 0..shards.len() {
                for v in 0..VNODES {
                    ring.push((ring_hash(format!("shard:{shard}:{v}").as_bytes()), shard));
                }
            }
            ring.sort_unstable();
        }
        Arc::new(MetaRouter { shards, ring })
    }

    /// The shard index owning `name`.
    pub fn shard_index(&self, name: &str) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        let h = ring_hash(name.as_bytes());
        let at = self.ring.partition_point(|&(pos, _)| pos < h);
        self.ring[at % self.ring.len()].1
    }

    /// The coordinator owning `name`.
    pub fn shard(&self, name: &str) -> &Arc<Coordinator> {
        &self.shards[self.shard_index(name)]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Arc<Coordinator>] {
        &self.shards
    }

    // ---- membership: broadcast so every shard shares one liveness view.

    /// Registers a datanode on every shard.
    pub fn register(&self, id: usize, addr: SocketAddr) {
        for s in &self.shards {
            s.register(id, addr);
        }
    }

    /// Heartbeats a node on every shard.
    pub fn heartbeat(&self, id: usize) {
        for s in &self.shards {
            s.heartbeat(id);
        }
    }

    /// Reports a node dead to every shard.
    pub fn mark_dead(&self, id: usize) {
        for s in &self.shards {
            s.mark_dead(id);
        }
    }

    /// Pings dead nodes (on every shard) and revives responders — see
    /// [`Coordinator::verify_nodes`]. Returns the union of revived ids.
    pub fn verify_nodes(&self, timeout: Duration) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .shards
            .iter()
            .flat_map(|s| s.verify_nodes(timeout))
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    // ---- node views: shards agree on membership, so ask the first.

    /// Whether node `id` is believed alive.
    pub fn is_alive(&self, id: usize) -> bool {
        self.shards[0].is_alive(id)
    }

    /// A node's address, if registered.
    pub fn node_addr(&self, id: usize) -> Option<SocketAddr> {
        self.shards[0].node_addr(id)
    }

    /// Snapshot of every registered node.
    pub fn nodes(&self) -> Vec<NodeInfo> {
        self.shards[0].nodes()
    }

    /// Ids of the currently-alive nodes, ascending.
    pub fn alive_nodes(&self) -> Vec<usize> {
        self.shards[0].alive_nodes()
    }

    // ---- file-keyed operations: route to the owning shard.

    /// Places a file on its owning shard — see
    /// [`Coordinator::place_file`].
    ///
    /// # Errors
    ///
    /// Propagates the shard's placement errors.
    #[allow(clippy::too_many_arguments)]
    pub fn place_file(
        &self,
        name: &str,
        spec: CodeSpec,
        file_len: u64,
        block_bytes: usize,
        stripes: usize,
        placement: Placement,
        rng: &mut impl Rng,
    ) -> Result<FilePlacement, ClusterError> {
        self.shard(name)
            .place_file(name, spec, file_len, block_bytes, stripes, placement, rng)
    }

    /// Looks up a file's placement on its owning shard.
    pub fn file(&self, name: &str) -> Option<FilePlacement> {
        self.shard(name).file(name)
    }

    /// The epoch of the shard owning `name`. A caching client reads it
    /// *before* [`MetaRouter::file`]: a manifest tagged with an epoch
    /// read earlier than itself can only look staler than it is (an extra
    /// refetch, never a stale read).
    pub fn epoch_of(&self, name: &str) -> u64 {
        self.shard(name).epoch()
    }

    /// Re-homes one block on the owning shard — see
    /// [`Coordinator::set_block_node`].
    ///
    /// # Errors
    ///
    /// Propagates the shard's log-append failure.
    pub fn set_block_node(
        &self,
        name: &str,
        stripe: usize,
        role: usize,
        node: usize,
    ) -> Result<(), ClusterError> {
        self.shard(name).set_block_node(name, stripe, role, node)
    }

    /// Deletes a file from its owning shard — see
    /// [`Coordinator::delete_file`].
    ///
    /// # Errors
    ///
    /// Propagates the shard's log-append failure.
    pub fn delete_file(&self, name: &str) -> Result<bool, ClusterError> {
        self.shard(name).delete_file(name)
    }

    /// Extends a file on its owning shard — see
    /// [`Coordinator::extend_file`].
    ///
    /// # Errors
    ///
    /// Propagates the shard's extension errors.
    pub fn extend_file(
        &self,
        name: &str,
        new_file_len: u64,
        added_stripes: usize,
        placement: Placement,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<usize>>, ClusterError> {
        self.shard(name)
            .extend_file(name, new_file_len, added_stripes, placement, rng)
    }

    /// Records a packed object's extent on the shard owning the *object*
    /// name — see [`Coordinator::put_extent`]. (The pack file itself may
    /// route to a different shard; extents and packs are independent
    /// namespace entries.)
    ///
    /// # Errors
    ///
    /// Propagates the shard's duplicate-name and log-append failures.
    pub fn put_extent(&self, object: &str, extent: Extent) -> Result<(), ClusterError> {
        self.shard(object).put_extent(object, extent)
    }

    /// Looks up a packed object's extent on its owning shard.
    pub fn extent(&self, object: &str) -> Option<Extent> {
        self.shard(object).extent(object)
    }

    /// Removes a packed object's extent from its owning shard — see
    /// [`Coordinator::delete_extent`].
    ///
    /// # Errors
    ///
    /// Propagates the shard's log-append failure.
    pub fn delete_extent(&self, object: &str) -> Result<bool, ClusterError> {
        self.shard(object).delete_extent(object)
    }

    /// Names of all packed objects across every shard, ascending.
    pub fn packed_objects(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.packed_objects())
            .collect();
        all.sort_unstable();
        all
    }

    /// The stripe's erasure count on the owning shard.
    pub fn stripe_erasures(&self, name: &str, stripe: usize) -> usize {
        self.shard(name).stripe_erasures(name, stripe)
    }

    // ---- namespace-wide views: merge across shards.

    /// Names of all placed files across every shard, ascending.
    pub fn files(&self) -> Vec<String> {
        let mut all: Vec<String> = self.shards.iter().flat_map(|s| s.files()).collect();
        all.sort_unstable();
        all
    }

    /// Every `(file, stripe)` hosted on `node`, across all shards.
    pub fn stripes_on(&self, node: usize) -> Vec<(String, usize)> {
        self.shards
            .iter()
            .flat_map(|s| s.stripes_on(node))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn fnv_vectors_are_stable() {
        // Reference FNV-1a 64 values; the shard contract depends on
        // these never changing.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(ring_hash(b""), 0xefd0_1f60_ba99_2926);
        assert_eq!(ring_hash(b"a"), 0x82a2_a958_a9be_ce5b);
        assert_eq!(ring_hash(b"foobar"), 0x2c22_1949_22d1_672b);
    }

    #[test]
    fn single_shard_routes_everything_to_it() {
        let router = MetaRouter::single(Arc::new(Coordinator::new()));
        for name in ["a", "b", "zzz", "file-123"] {
            assert_eq!(router.shard_index(name), 0);
        }
    }

    #[test]
    fn sharded_routing_is_deterministic_and_spread() {
        let shards: Vec<Arc<Coordinator>> = (0..4).map(|_| Arc::new(Coordinator::new())).collect();
        let router = MetaRouter::sharded(shards);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let name = format!("file-{i:05}.bin");
            let idx = router.shard_index(&name);
            assert_eq!(idx, router.shard_index(&name), "routing is stable");
            counts[idx] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 400,
                "shard {i} starved: {counts:?} — ring is unbalanced"
            );
        }
    }

    #[test]
    fn membership_broadcasts_and_files_route_disjointly() {
        let shards: Vec<Arc<Coordinator>> = (0..3).map(|_| Arc::new(Coordinator::new())).collect();
        let router = MetaRouter::sharded(shards);
        for id in 0..6 {
            router.register(id, addr(9800 + id as u16));
        }
        for s in router.shards() {
            assert_eq!(s.alive_nodes().len(), 6, "every shard sees every node");
        }
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..30 {
            let name = format!("f{i}");
            router
                .place_file(
                    &name,
                    CodeSpec::Rs { n: 4, k: 2 },
                    400,
                    100,
                    1,
                    Placement::Random,
                    &mut rng,
                )
                .unwrap();
        }
        // Each file lives on exactly its owning shard.
        for i in 0..30 {
            let name = format!("f{i}");
            let owner = router.shard_index(&name);
            for (s, shard) in router.shards().iter().enumerate() {
                assert_eq!(shard.file(&name).is_some(), s == owner);
            }
            assert!(router.file(&name).is_some());
        }
        assert_eq!(router.files().len(), 30, "merged namespace sees all");
        // Death broadcasts; epochs stay per-shard.
        router.mark_dead(2);
        for s in router.shards() {
            assert!(!s.is_alive(2));
        }
        let by_shard: Vec<u64> = router.shards().iter().map(|s| s.epoch()).collect();
        assert_eq!(by_shard.iter().sum::<u64>(), 30, "one bump per placement");
    }
}
