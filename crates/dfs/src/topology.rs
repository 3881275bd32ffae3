//! Cluster topology: nodes with disks, NICs and CPU pools, plus a client.

use simcore::{Engine, ResourceId};

/// Hardware description of a simulated cluster.
///
/// The defaults model the paper's MapReduce testbed: 30 Amazon r3.large
/// slaves (2 cores, local SSD) — see [`ClusterSpec::r3_large_cluster`]. The
/// Fig. 11 experiment additionally caps datanode read throughput at
/// 300 Mbps, modeled by [`ClusterSpec::with_disk_read_mbps`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker (data) nodes.
    pub nodes: usize,
    /// CPU cores per node (also the MapReduce slot count per node).
    pub cores_per_node: f64,
    /// Sequential read bandwidth of one node's storage, MB/s.
    pub disk_read_mbps: f64,
    /// Sequential write bandwidth, MB/s.
    pub disk_write_mbps: f64,
    /// NIC bandwidth per direction, MB/s.
    pub nic_mbps: f64,
    /// Downlink bandwidth of the external client, MB/s.
    pub client_nic_mbps: f64,
    /// Single-core throughput of erasure decoding on the worker nodes,
    /// MB/s (see `carousel-workloads`' calibration; charged to map tasks
    /// that perform degraded reads).
    pub decode_mbps: f64,
    /// Number of *straggler* nodes (the first `slow_nodes` indices) whose
    /// disk and CPU run at `1/slow_factor` of nominal speed — real
    /// clusters are never uniform, and smaller map tasks hedge against
    /// stragglers.
    pub slow_nodes: usize,
    /// Slow-down factor of straggler nodes (≥ 1.0).
    pub slow_factor: f64,
}

impl ClusterSpec {
    /// The paper's Hadoop cluster: 30 r3.large slaves (2 vCPU, 15 GB,
    /// 32 GB local SSD, "moderate" network ≈ 0.7 Gbps).
    pub fn r3_large_cluster() -> Self {
        ClusterSpec {
            nodes: 30,
            cores_per_node: 2.0,
            disk_read_mbps: 180.0,
            disk_write_mbps: 120.0,
            nic_mbps: 90.0,
            client_nic_mbps: 312.0,
            decode_mbps: 350.0,
            slow_nodes: 0,
            slow_factor: 1.0,
        }
    }

    /// Returns a copy with `count` straggler nodes running `factor`× slower
    /// (disk and CPU).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn with_stragglers(mut self, count: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "slow factor must be at least 1.0");
        self.slow_nodes = count;
        self.slow_factor = factor;
        self
    }

    /// Returns a copy with a different node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Returns a copy with the given datanode read throughput (the paper's
    /// Fig. 11 caps it at 300 Mbps = 37.5 MB/s to emulate enterprise HDDs).
    pub fn with_disk_read_mbps(mut self, mbps: f64) -> Self {
        self.disk_read_mbps = mbps;
        self
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::r3_large_cluster()
    }
}

/// Resource handles for a built cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    disk: Vec<ResourceId>,
    write_disk: Vec<ResourceId>,
    up: Vec<ResourceId>,
    down: Vec<ResourceId>,
    cpu: Vec<ResourceId>,
    client_down: ResourceId,
    client_cpu: ResourceId,
    core_rate: Vec<f64>,
    nodes: usize,
}

impl Topology {
    /// Instantiates the spec's resources in an engine.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero nodes or non-positive rates.
    pub fn build<E>(spec: &ClusterSpec, engine: &mut Engine<E>) -> Self {
        assert!(spec.nodes > 0, "cluster needs at least one node");
        let mut disk = Vec::with_capacity(spec.nodes);
        let mut write_disk = Vec::with_capacity(spec.nodes);
        let mut up = Vec::with_capacity(spec.nodes);
        let mut down = Vec::with_capacity(spec.nodes);
        let mut cpu = Vec::with_capacity(spec.nodes);
        let mut core_rate = Vec::with_capacity(spec.nodes);
        for i in 0..spec.nodes {
            let slow = if i < spec.slow_nodes {
                spec.slow_factor
            } else {
                1.0
            };
            disk.push(engine.add_resource(&format!("disk[{i}]"), spec.disk_read_mbps / slow));
            write_disk
                .push(engine.add_resource(&format!("wdisk[{i}]"), spec.disk_write_mbps / slow));
            up.push(engine.add_resource(&format!("up[{i}]"), spec.nic_mbps));
            down.push(engine.add_resource(&format!("down[{i}]"), spec.nic_mbps));
            cpu.push(engine.add_resource(&format!("cpu[{i}]"), spec.cores_per_node / slow));
            core_rate.push(1.0 / slow);
        }
        let client_down = engine.add_resource("client.down", spec.client_nic_mbps);
        let client_cpu = engine.add_resource("client.cpu", 16.0);
        Topology {
            disk,
            write_disk,
            up,
            down,
            cpu,
            client_down,
            client_cpu,
            core_rate,
            nodes: spec.nodes,
        }
    }

    /// Number of worker nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Path for reading from a node's own disk.
    pub fn local_read(&self, node: usize) -> Vec<ResourceId> {
        vec![self.disk[node]]
    }

    /// Path for writing to a node's own disk.
    pub fn local_write(&self, node: usize) -> Vec<ResourceId> {
        vec![self.write_disk[node]]
    }

    /// Path for a remote read: source disk → source uplink → dest downlink.
    pub fn remote_read(&self, src: usize, dst: usize) -> Vec<ResourceId> {
        if src == dst {
            return self.local_read(src);
        }
        vec![self.disk[src], self.up[src], self.down[dst]]
    }

    /// Path for an internal node-to-node transfer (no disk), e.g. shuffle.
    pub fn transfer(&self, src: usize, dst: usize) -> Option<Vec<ResourceId>> {
        (src != dst).then(|| vec![self.up[src], self.down[dst]])
    }

    /// Path for the external client downloading from a datanode.
    pub fn client_read(&self, src: usize) -> Vec<ResourceId> {
        vec![self.disk[src], self.up[src], self.client_down]
    }

    /// The CPU pool of a node (capacity = cores × core rate; cap tasks at
    /// [`Topology::core_rate`]).
    pub fn cpu(&self, node: usize) -> ResourceId {
        self.cpu[node]
    }

    /// The speed of one core on `node` (1.0 nominal, less on stragglers) —
    /// use as the `max_rate` of single-threaded task flows.
    pub fn core_rate(&self, node: usize) -> f64 {
        self.core_rate[node]
    }

    /// The client's CPU pool (for decode work during degraded reads).
    pub fn client_cpu(&self) -> ResourceId {
        self.client_cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_cluster() {
        let spec = ClusterSpec::r3_large_cluster();
        assert_eq!(spec.nodes, 30);
        assert_eq!(spec.cores_per_node, 2.0);
    }

    #[test]
    fn build_creates_resources() {
        let mut engine: Engine<u32> = Engine::new();
        let topo = Topology::build(&ClusterSpec::default().with_nodes(3), &mut engine);
        assert_eq!(topo.nodes(), 3);
        assert_eq!(topo.local_read(0).len(), 1);
        assert_eq!(topo.remote_read(0, 1).len(), 3);
        assert_eq!(topo.remote_read(2, 2).len(), 1, "same-node read is local");
        assert!(topo.transfer(1, 1).is_none());
        assert_eq!(topo.transfer(0, 2).unwrap().len(), 2);
        assert_eq!(topo.client_read(1).len(), 3);
    }

    #[test]
    fn disk_cap_override() {
        let spec = ClusterSpec::default().with_disk_read_mbps(37.5);
        assert_eq!(spec.disk_read_mbps, 37.5);
    }

    #[test]
    fn stragglers_get_derated_resources() {
        let mut engine: Engine<u32> = Engine::new();
        let spec = ClusterSpec::default().with_nodes(4).with_stragglers(2, 2.0);
        let topo = Topology::build(&spec, &mut engine);
        // A local read on a straggler takes twice as long.
        engine.start_flow(180.0, &topo.local_read(0), None, 1); // slow
        engine.start_flow(180.0, &topo.local_read(3), None, 2); // nominal
        let (t_first, ev) = engine.next_event().unwrap();
        assert_eq!(ev, 2, "nominal node finishes first");
        assert!((t_first - 1.0).abs() < 1e-9);
        let (t_second, _) = engine.next_event().unwrap();
        assert!((t_second - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flows_respect_topology() {
        // Two client reads from the same node share that node's disk.
        let mut engine: Engine<u32> = Engine::new();
        let topo = Topology::build(
            &ClusterSpec {
                nodes: 2,
                cores_per_node: 2.0,
                disk_read_mbps: 40.0,
                disk_write_mbps: 40.0,
                nic_mbps: 1000.0,
                client_nic_mbps: 1000.0,
                decode_mbps: 350.0,
                slow_nodes: 0,
                slow_factor: 1.0,
            },
            &mut engine,
        );
        engine.start_flow(40.0, &topo.client_read(0), None, 1);
        engine.start_flow(40.0, &topo.client_read(0), None, 2);
        let (t1, _) = engine.next_event().unwrap();
        assert!((t1 - 2.0).abs() < 1e-9, "two flows at 20 MB/s each");
    }
}
