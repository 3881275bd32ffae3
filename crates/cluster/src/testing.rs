//! A loopback cluster harness: `n` real datanodes on ephemeral
//! `127.0.0.1` ports plus a sharded metadata layer, all in one process.
//!
//! Used by the integration tests, the `ext_*` cluster benches and the
//! `benchmark/` package.
//! The crucial knob is the difference between [`LocalCluster::kill`] and
//! [`LocalCluster::fail`]: `kill` stops a datanode *without telling the
//! coordinator*, so a client discovers the failure mid-read through a
//! connection error and must degrade on its own — the scenario the
//! paper's degraded-read path exists for. `fail` additionally marks the
//! node dead up front, modeling a failure the namenode already knows
//! about.
//!
//! Metadata runs through a [`MetaRouter`] over one or more coordinator
//! shards (see [`LocalCluster::start_sharded`]), each with its own
//! record log under the harness temp directory — so
//! [`LocalCluster::restart_coordinators`] can model a namenode crash:
//! every shard is rebuilt purely from its log and dead-until-verified
//! nodes are revived by pinging them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::ClusterClient;
use crate::coordinator::Coordinator;
use crate::datanode::{DataNode, DataNodeConfig};
use crate::error::ClusterError;
use crate::router::MetaRouter;

static HARNESS_SEQ: AtomicUsize = AtomicUsize::new(0);

/// An in-process cluster of real TCP datanodes.
#[derive(Debug)]
pub struct LocalCluster {
    meta: Arc<MetaRouter>,
    nodes: Vec<Option<DataNode>>,
    roots: Vec<PathBuf>,
    base: PathBuf,
}

impl LocalCluster {
    /// Starts `n` datanodes on ephemeral loopback ports, registered with
    /// a fresh single-shard metadata layer. Block stores and the shard's
    /// record log live under a per-harness temp directory removed on
    /// drop.
    ///
    /// # Errors
    ///
    /// Propagates bind and filesystem failures.
    pub fn start(n: usize) -> Result<Self, ClusterError> {
        Self::start_sharded(n, 1)
    }

    /// Like [`LocalCluster::start`], but with `shards` coordinator
    /// instances serving disjoint slices of the file namespace behind
    /// one [`MetaRouter`], each with its own record log and epoch.
    ///
    /// # Errors
    ///
    /// Propagates bind and filesystem failures.
    pub fn start_sharded(n: usize, shards: usize) -> Result<Self, ClusterError> {
        let base = std::env::temp_dir().join(format!(
            "carousel-cluster-{}-{}",
            std::process::id(),
            HARNESS_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base)?;
        let coords: Vec<Arc<Coordinator>> = (0..shards.max(1))
            .map(|i| Coordinator::create_log(&base.join(format!("meta{i:02}.log"))).map(Arc::new))
            .collect::<Result<_, _>>()?;
        let meta = MetaRouter::sharded(coords);
        let mut nodes = Vec::with_capacity(n);
        let mut roots = Vec::with_capacity(n);
        for id in 0..n {
            let root = base.join(format!("node{id:02}"));
            let config = DataNodeConfig::new(id, &root).with_router(Arc::clone(&meta));
            nodes.push(Some(DataNode::spawn("127.0.0.1:0", config)?));
            roots.push(root);
        }
        Ok(LocalCluster {
            meta,
            nodes,
            roots,
            base,
        })
    }

    /// The first (or only) coordinator shard. Membership is broadcast,
    /// so any shard answers liveness questions; file lookups on it see
    /// only its own slice of a sharded namespace — use
    /// [`LocalCluster::router`] for routed access.
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::clone(&self.meta.shards()[0])
    }

    /// The metadata router over every shard.
    pub fn router(&self) -> Arc<MetaRouter> {
        Arc::clone(&self.meta)
    }

    /// The record-log path of shard `shard`.
    pub fn meta_log_path(&self, shard: usize) -> PathBuf {
        self.base.join(format!("meta{shard:02}.log"))
    }

    /// The block-store directory of node `id` — where a test reaches in
    /// to damage a stored block behind the node's back.
    pub fn node_root(&self, id: usize) -> &Path {
        &self.roots[id]
    }

    /// A fresh client with a short timeout suited to loopback tests.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::routed(Arc::clone(&self.meta)).with_timeout(Duration::from_secs(5))
    }

    /// Number of node slots (running or not).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the harness has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Stops node `id` **silently**: the coordinator still believes it is
    /// alive, so the next client touching it discovers the failure
    /// itself. Idempotent.
    pub fn kill(&mut self, id: usize) {
        if let Some(node) = self.nodes[id].take() {
            node.shutdown();
        }
    }

    /// Stops node `id` and reports it dead to every metadata shard — a
    /// known failure rather than a surprise.
    pub fn fail(&mut self, id: usize) {
        self.kill(id);
        self.meta.mark_dead(id);
    }

    /// Restarts node `id` on a fresh ephemeral port, re-registering it.
    /// With `wipe`, its block store is emptied first — a replacement
    /// machine rather than a reboot.
    ///
    /// # Errors
    ///
    /// Propagates bind and filesystem failures.
    pub fn restart(&mut self, id: usize, wipe: bool) -> Result<(), ClusterError> {
        self.kill(id);
        if wipe {
            let _ = std::fs::remove_dir_all(&self.roots[id]);
        }
        let config = DataNodeConfig::new(id, &self.roots[id]).with_router(Arc::clone(&self.meta));
        self.nodes[id] = Some(DataNode::spawn("127.0.0.1:0", config)?);
        Ok(())
    }

    /// Models a metadata-service crash: throws away every coordinator
    /// shard and rebuilds each one purely from its record log, then
    /// pings the recovered (dead-until-verified) nodes to revive the
    /// ones still serving. Returns the revived node ids.
    ///
    /// Running datanodes keep heartbeating the *old* shards (their
    /// router handle is immutable), so recovered liveness rests on
    /// [`Coordinator::verify_nodes`] — exactly the cold-start situation
    /// a real restart faces. Clients made by [`LocalCluster::client`]
    /// after this call see the rebuilt shards.
    ///
    /// # Errors
    ///
    /// Propagates log-recovery failures.
    pub fn restart_coordinators(&mut self) -> Result<Vec<usize>, ClusterError> {
        let shards = self.meta.shards().len();
        let coords: Vec<Arc<Coordinator>> = (0..shards)
            .map(|i| Coordinator::open_log(&self.meta_log_path(i)).map(Arc::new))
            .collect::<Result<_, _>>()?;
        self.meta = MetaRouter::sharded(coords);
        Ok(self.meta.verify_nodes(Duration::from_millis(500)))
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.base);
    }
}
