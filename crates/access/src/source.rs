//! The transport abstraction: everything the executor needs from a place
//! that holds encoded blocks.
//!
//! A [`BlockSource`] serves one stripe. Implementations in this workspace:
//! [`MemorySource`] (blocks in RAM — the `filestore` backend and the
//! reference the other is compared against) and the TCP client's stripe
//! source in `cluster`. The trait is three methods, and only one of them
//! moves bytes: [`BlockSource::fetch`] takes every request of one plan at
//! once, so a transport can fan them out to distinct nodes concurrently,
//! and a new kind of read is a new [`BatchRequest`] variant, not a new
//! method every implementer and wrapper must forward.
//!
//! The contract that makes replanning work: *expected* failures (a dead
//! node, a missing block, a truncated payload) are reported as
//! [`Fetch::Unavailable`] at the request's slot, not as `Err` — `Err` is
//! reserved for faults the executor cannot route around (protocol
//! violations, local I/O errors). A source need not check what it hands
//! back: the executor holds every [`Fetch::Data`] to
//! [`BatchRequest::payload_bytes`] and treats any other length — or a
//! slot the source left out — as that node failing.

use erasure::HelperTask;

/// Result of asking a source for bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetch {
    /// The requested payload, exactly as long as requested.
    Data(Vec<u8>),
    /// The node could not serve the request (dead, missing block…); the
    /// executor will drop it from the availability set and replan.
    Unavailable,
}

/// One request of a fetch — the unit the executor hands to
/// [`BlockSource::fetch`]. Each request targets one node; a plan's batch
/// never addresses the same node twice, so a transport may serve every
/// request of a batch concurrently.
#[derive(Debug, Clone)]
pub enum BatchRequest<'a> {
    /// Fetch the listed stored units of `node`, concatenated in order;
    /// each unit is [`BlockSource::unit_bytes`] long.
    Units {
        /// The node (block slot) to read from.
        node: usize,
        /// Stored unit indices, in the order wanted back.
        units: Vec<usize>,
    },
    /// Helper-side repair read: `node` applies `task`'s `β × sub`
    /// coefficient matrix to its block and returns the `β` combined
    /// units. Transports with compute at the node (the cluster's
    /// `RepairRead`) push the matrix down so only `β/sub` of a block
    /// crosses the wire.
    Repair {
        /// The helper node to read from.
        node: usize,
        /// The helper's `β × sub` coefficient task.
        task: &'a HelperTask,
    },
}

impl BatchRequest<'_> {
    /// The node this request targets.
    pub fn node(&self) -> usize {
        match self {
            BatchRequest::Units { node, .. } | BatchRequest::Repair { node, .. } => *node,
        }
    }

    /// The exact payload length that answers this request on a source
    /// whose units are `unit_bytes` wide.
    pub fn payload_bytes(&self, unit_bytes: usize) -> usize {
        let units = match self {
            BatchRequest::Units { units, .. } => units.len(),
            BatchRequest::Repair { task, .. } => task.beta(),
        };
        units * unit_bytes
    }
}

/// One stripe's worth of remotely (or locally) stored blocks.
pub trait BlockSource {
    /// Transport-fatal error type (never used for a merely-dead node).
    type Error;

    /// Width of one stored unit in bytes (`block_bytes / sub`).
    fn unit_bytes(&self) -> usize;

    /// Blocks currently believed readable. The executor plans against this
    /// set and shrinks it as fetches fail.
    fn available(&mut self) -> Vec<usize>;

    /// Serves every request of one plan in a single call:
    ///
    /// * **ordering** — one [`Fetch`] per request, at the request's index;
    /// * **partial failure** — a node that cannot serve yields
    ///   [`Fetch::Unavailable`] *at its slot* without disturbing the other
    ///   requests; the executor collects every failed slot of the round
    ///   and replans once around all of them;
    /// * **fatal failure** — `Err` aborts the whole operation.
    ///
    /// Transports whose requests leave the process (the TCP cluster) fan
    /// the batch out to all nodes concurrently — that is where planned
    /// parallelism becomes wall-clock parallelism.
    ///
    /// # Errors
    ///
    /// Only for transport-fatal faults; an unreachable node is
    /// `Ok` with [`Fetch::Unavailable`] at its slot.
    fn fetch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, Self::Error>;
}

/// A [`BlockSource`] over blocks already in memory — the `filestore`
/// transport, and the reference implementation the consistency proptests
/// compare the real transports against.
#[derive(Debug)]
pub struct MemorySource<'a> {
    blocks: Vec<Option<&'a [u8]>>,
    sub: usize,
    unit_bytes: usize,
}

impl<'a> MemorySource<'a> {
    /// Wraps one stripe's blocks (`None` = lost) with sub-packetization
    /// `sub`. All present blocks must share one length divisible by `sub`.
    pub fn new(blocks: Vec<Option<&'a [u8]>>, sub: usize) -> Self {
        let block_bytes = blocks.iter().flatten().next().map_or(0, |b| b.len());
        MemorySource {
            blocks,
            sub,
            unit_bytes: block_bytes / sub.max(1),
        }
    }

    /// The stored block at `node`, if present and well-formed.
    fn whole_block(&self, node: usize) -> Option<&'a [u8]> {
        let block = self.blocks.get(node).copied().flatten()?;
        (block.len() == self.sub * self.unit_bytes).then_some(block)
    }

    /// Serves one [`BatchRequest::Units`].
    fn serve_units(&self, node: usize, units: &[usize]) -> Fetch {
        let Some(block) = self.whole_block(node) else {
            return Fetch::Unavailable;
        };
        let w = self.unit_bytes;
        let mut out = Vec::with_capacity(units.len() * w);
        for &u in units {
            if u >= self.sub {
                return Fetch::Unavailable;
            }
            out.extend_from_slice(&block[u * w..(u + 1) * w]);
        }
        Fetch::Data(out)
    }
}

impl BlockSource for MemorySource<'_> {
    type Error = std::convert::Infallible;

    fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    fn available(&mut self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&i| self.blocks[i].is_some())
            .collect()
    }

    /// Every block is already in memory, so the whole batch is answered
    /// in one pass; repair requests run the helper task directly on the
    /// stored block slice.
    fn fetch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, Self::Error> {
        Ok(requests
            .iter()
            .map(|request| match request {
                BatchRequest::Units { node, units } => self.serve_units(*node, units),
                BatchRequest::Repair { node, task } => match self.whole_block(*node) {
                    Some(block) => task.run(block).map_or(Fetch::Unavailable, Fetch::Data),
                    None => Fetch::Unavailable,
                },
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_answers_in_request_order_and_isolates_losses() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let mut src = MemorySource::new(vec![Some(&a[..]), None, Some(&b[..])], 2);
        assert_eq!(src.unit_bytes(), 2);
        assert_eq!(src.available(), vec![0, 2]);
        let units = |node, units: &[usize]| BatchRequest::Units {
            node,
            units: units.to_vec(),
        };
        let requests = [
            units(2, &[0]),
            units(1, &[0]),
            units(0, &[1, 0]),
            units(2, &[7]),
        ];
        assert_eq!(requests[1].node(), 1);
        assert_eq!(requests[2].payload_bytes(2), 4);
        assert_eq!(
            src.fetch(&requests).unwrap(),
            vec![
                Fetch::Data(vec![5, 6]),
                Fetch::Unavailable,
                Fetch::Data(vec![3, 4, 1, 2]),
                Fetch::Unavailable,
            ]
        );
    }
}
