//! The flow network: resources, flows, and max-min fair rate allocation.

/// Identifies a capacity resource (disk, link, CPU pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// The raw index of this resource (stable insertion order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Parameters of one flow, used internally and exposed for inspection.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Work remaining (MB for network/disk flows, core-seconds for CPU).
    pub remaining: f64,
    /// Resources traversed.
    pub path: Vec<ResourceId>,
    /// Optional per-flow rate cap (e.g. 1.0 core for a CPU task).
    pub max_rate: Option<f64>,
}

#[derive(Debug, Clone)]
struct Resource {
    #[allow(dead_code)]
    name: String,
    capacity: f64,
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    spec: FlowSpec,
    rate: f64,
}

/// A set of resources and active flows with max-min fair sharing.
///
/// Rates are recomputed by progressive filling every time the flow set
/// changes: repeatedly find the most-congested resource (or the tightest
/// per-flow cap), freeze the implicated flows at that fair share, subtract,
/// and continue. Every flow must traverse at least one resource.
#[derive(Debug, Default)]
pub struct FlowNet {
    resources: Vec<Resource>,
    flows: Vec<Option<ActiveFlow>>,
    free_slots: Vec<usize>,
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Adds a resource with the given capacity (in MB/s or cores).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn add_resource(&mut self, name: &str, capacity: f64) -> ResourceId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "resource capacity must be positive and finite"
        );
        self.resources.push(Resource {
            name: name.to_string(),
            capacity,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.iter().flatten().count()
    }

    pub(crate) fn insert(&mut self, spec: FlowSpec) -> usize {
        assert!(
            !spec.path.is_empty(),
            "a flow must traverse at least one resource"
        );
        for r in &spec.path {
            assert!(r.0 < self.resources.len(), "unknown resource in path");
        }
        assert!(spec.remaining >= 0.0, "negative flow size");
        if let Some(cap) = spec.max_rate {
            assert!(cap > 0.0, "flow rate cap must be positive");
        }
        let flow = ActiveFlow { spec, rate: 0.0 };
        let slot = if let Some(s) = self.free_slots.pop() {
            self.flows[s] = Some(flow);
            s
        } else {
            self.flows.push(Some(flow));
            self.flows.len() - 1
        };
        self.reallocate();
        slot
    }

    pub(crate) fn remove(&mut self, slot: usize) -> Option<FlowSpec> {
        let f = self.flows.get_mut(slot)?.take()?;
        self.free_slots.push(slot);
        self.reallocate();
        Some(f.spec)
    }

    #[cfg(test)]
    fn rate(&self, slot: usize) -> f64 {
        self.flows[slot].as_ref().map_or(0.0, |f| f.rate)
    }

    #[cfg(test)]
    fn remaining(&self, slot: usize) -> f64 {
        self.flows[slot].as_ref().map_or(0.0, |f| f.spec.remaining)
    }

    /// Advances all flows by `dt` seconds, consuming work at current rates.
    pub(crate) fn advance(&mut self, dt: f64) {
        for f in self.flows.iter_mut().flatten() {
            f.spec.remaining = (f.spec.remaining - f.rate * dt).max(0.0);
        }
    }

    /// Time until the earliest active flow completes, with its slot.
    pub(crate) fn next_completion(&self) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            let eta = if f.spec.remaining <= 0.0 {
                0.0
            } else if f.rate <= 0.0 {
                continue; // starved (cannot happen with positive capacities)
            } else {
                f.spec.remaining / f.rate
            };
            match best {
                Some((t, _)) if t <= eta => {}
                _ => best = Some((eta, i)),
            }
        }
        best
    }

    /// Current total allocated rate through a resource.
    ///
    /// # Panics
    ///
    /// Panics for an unknown resource.
    pub fn allocated(&self, r: ResourceId) -> f64 {
        assert!(r.0 < self.resources.len(), "unknown resource");
        self.flows
            .iter()
            .flatten()
            .filter(|f| f.spec.path.contains(&r))
            .map(|f| f.rate)
            .sum()
    }

    /// The configured capacity of a resource.
    ///
    /// # Panics
    ///
    /// Panics for an unknown resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.0].capacity
    }

    /// Progressive-filling max-min fair allocation with per-flow caps.
    fn reallocate(&mut self) {
        let nr = self.resources.len();
        let mut remaining_cap: Vec<f64> = self.resources.iter().map(|r| r.capacity).collect();
        let active: Vec<usize> = (0..self.flows.len())
            .filter(|&i| self.flows[i].is_some())
            .collect();
        let mut unfrozen: Vec<bool> = vec![false; self.flows.len()];
        for &i in &active {
            unfrozen[i] = true;
            if let Some(f) = self.flows[i].as_mut() {
                f.rate = 0.0;
            }
        }
        let mut remaining_unfrozen = active.len();
        while remaining_unfrozen > 0 {
            // Count unfrozen flows per resource.
            let mut count = vec![0usize; nr];
            for &i in &active {
                if unfrozen[i] {
                    for r in &self.flows[i].as_ref().expect("active").spec.path {
                        count[r.0] += 1;
                    }
                }
            }
            // Tightest constraint: resource fair share or per-flow cap.
            let mut level = f64::INFINITY;
            for r in 0..nr {
                if count[r] > 0 {
                    level = level.min(remaining_cap[r] / count[r] as f64);
                }
            }
            for &i in &active {
                if unfrozen[i] {
                    if let Some(cap) = self.flows[i].as_ref().expect("active").spec.max_rate {
                        level = level.min(cap);
                    }
                }
            }
            debug_assert!(level.is_finite(), "flow without binding constraint");
            let level = level.max(0.0);
            // Freeze flows bound at this level: those whose cap equals the
            // level, or those traversing a resource whose share equals it.
            let mut bottleneck = vec![false; nr];
            for r in 0..nr {
                if count[r] > 0 && remaining_cap[r] / count[r] as f64 <= level + 1e-12 {
                    bottleneck[r] = true;
                }
            }
            let mut froze_any = false;
            for &i in &active {
                if !unfrozen[i] {
                    continue;
                }
                let f = self.flows[i].as_ref().expect("active");
                let capped = f.spec.max_rate.is_some_and(|c| c <= level + 1e-12);
                let blocked = f.spec.path.iter().any(|r| bottleneck[r.0]);
                if capped || blocked {
                    let path: Vec<ResourceId> = f.spec.path.clone();
                    if let Some(f) = self.flows[i].as_mut() {
                        f.rate = level;
                    }
                    for r in path {
                        remaining_cap[r.0] = (remaining_cap[r.0] - level).max(0.0);
                    }
                    unfrozen[i] = false;
                    remaining_unfrozen -= 1;
                    froze_any = true;
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
            if !froze_any {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_with(caps: &[f64]) -> (FlowNet, Vec<ResourceId>) {
        let mut net = FlowNet::new();
        let ids = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_resource(&format!("r{i}"), c))
            .collect();
        (net, ids)
    }

    fn flow(path: &[ResourceId], size: f64) -> FlowSpec {
        FlowSpec {
            remaining: size,
            path: path.to_vec(),
            max_rate: None,
        }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let (mut net, r) = net_with(&[100.0]);
        let f = net.insert(flow(&[r[0]], 500.0));
        assert!((net.rate(f) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let (mut net, r) = net_with(&[90.0]);
        let a = net.insert(flow(&[r[0]], 100.0));
        let b = net.insert(flow(&[r[0]], 100.0));
        let c = net.insert(flow(&[r[0]], 100.0));
        for f in [a, b, c] {
            assert!((net.rate(f) - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn max_min_fairness_y_topology() {
        // Flow A uses r0 only (cap 100); flows B, C use r0 and r1 (cap 20).
        // B and C are bottlenecked at 10 each; A gets the leftover 80.
        let (mut net, r) = net_with(&[100.0, 20.0]);
        let a = net.insert(flow(&[r[0]], 1e6));
        let b = net.insert(flow(&[r[0], r[1]], 1e6));
        let c = net.insert(flow(&[r[0], r[1]], 1e6));
        assert!((net.rate(b) - 10.0).abs() < 1e-9);
        assert!((net.rate(c) - 10.0).abs() < 1e-9);
        assert!((net.rate(a) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn per_flow_caps_respected() {
        let (mut net, r) = net_with(&[10.0]);
        let a = net.insert(FlowSpec {
            remaining: 100.0,
            path: vec![r[0]],
            max_rate: Some(1.0),
        });
        let b = net.insert(flow(&[r[0]], 100.0));
        assert!((net.rate(a) - 1.0).abs() < 1e-9, "capped at one core");
        assert!((net.rate(b) - 9.0).abs() < 1e-9, "uncapped takes the rest");
    }

    #[test]
    fn removal_reallocates() {
        let (mut net, r) = net_with(&[100.0]);
        let a = net.insert(flow(&[r[0]], 100.0));
        let b = net.insert(flow(&[r[0]], 100.0));
        assert!((net.rate(a) - 50.0).abs() < 1e-9);
        net.remove(b);
        assert!((net.rate(a) - 100.0).abs() < 1e-9);
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn advance_consumes_work() {
        let (mut net, r) = net_with(&[10.0]);
        let a = net.insert(flow(&[r[0]], 100.0));
        net.advance(3.0);
        assert!((net.remaining(a) - 70.0).abs() < 1e-9);
        let (eta, slot) = net.next_completion().unwrap();
        assert_eq!(slot, a);
        assert!((eta - 7.0).abs() < 1e-9);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let (mut net, r) = net_with(&[10.0]);
        let a = net.insert(flow(&[r[0]], 1.0));
        net.remove(a);
        let b = net.insert(flow(&[r[0]], 1.0));
        assert_eq!(a, b, "slot should be recycled");
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_path_rejected() {
        let mut net = FlowNet::new();
        net.insert(flow(&[], 1.0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_capacity_rejected() {
        let mut net = FlowNet::new();
        net.add_resource("bad", 0.0);
    }
}
