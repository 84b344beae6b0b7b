//! Ring AllReduce motif.
//!
//! A standard collective pattern (Ember ships an allreduce motif alongside
//! sweep3d/halo3d): `n` nodes reduce a vector of `bytes` using the
//! bandwidth-optimal ring algorithm — `n − 1` reduce-scatter steps followed
//! by `n − 1` allgather steps, each step sending one `bytes / n` chunk to
//! the ring successor. Per-message data is small but every step is a
//! serialized dependency, so the motif stresses exactly the per-message
//! coordination RVMA removes.

use crate::runner::MOTIF_DONE_HIST;
use rvma_nic::{HostLogic, RecvInfo, TermApi};
use rvma_sim::SimTime;

/// AllReduce workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct AllReduceConfig {
    /// Ring size (nodes participating).
    pub nodes: u32,
    /// Total vector bytes being reduced.
    pub bytes: u64,
    /// Consecutive allreduce operations to run.
    pub iters: u32,
    /// Host reduction compute per received chunk.
    pub compute_per_chunk: SimTime,
}

impl Default for AllReduceConfig {
    fn default() -> Self {
        AllReduceConfig {
            nodes: 8,
            bytes: 1 << 20,
            iters: 4,
            compute_per_chunk: SimTime::from_ns(500),
        }
    }
}

impl AllReduceConfig {
    /// Steps per allreduce: reduce-scatter + allgather.
    pub fn steps(&self) -> u32 {
        2 * (self.nodes - 1)
    }

    /// Chunk bytes sent per step.
    pub fn chunk_bytes(&self) -> u64 {
        self.bytes.div_ceil(self.nodes as u64)
    }

    /// Total messages the whole job sends.
    pub fn total_messages(&self) -> u64 {
        self.nodes as u64 * self.steps() as u64 * self.iters as u64
    }
}

/// Channel tag for ring traffic (one channel per predecessor).
const RING_TAG: u64 = 0x41; // 'A'

#[derive(Debug, PartialEq)]
enum State {
    /// Waiting for the predecessor's chunk for the current step.
    Waiting,
    /// Reducing/copying the received chunk.
    Computing,
    Done,
}

/// Per-node ring-allreduce behaviour.
pub struct AllReduceNode {
    cfg: AllReduceConfig,
    node: u32,
    iter: u32,
    step: u32,
    /// Chunks received from the predecessor (monotonic, across iters).
    recvd: u64,
    consumed: u64,
    state: State,
}

impl AllReduceNode {
    /// Behaviour for `node` under `cfg`.
    pub fn new(cfg: AllReduceConfig, node: u32) -> Self {
        debug_assert!(node < cfg.nodes);
        AllReduceNode {
            cfg,
            node,
            iter: 0,
            step: 0,
            recvd: 0,
            consumed: 0,
            state: State::Waiting,
        }
    }

    fn successor(&self) -> u32 {
        (self.node + 1) % self.cfg.nodes
    }

    fn send_chunk(&self, api: &mut TermApi<'_, '_>) {
        api.send(self.successor(), RING_TAG, self.cfg.chunk_bytes());
    }

    fn try_advance(&mut self, api: &mut TermApi<'_, '_>) {
        if self.state != State::Waiting || self.recvd < self.consumed + 1 {
            return;
        }
        self.consumed += 1;
        self.state = State::Computing;
        api.compute(self.cfg.compute_per_chunk, 0);
    }
}

impl HostLogic for AllReduceNode {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        // Step 0 of iteration 0: every node sends its first chunk.
        self.send_chunk(api);
        self.try_advance(api);
    }

    fn on_recv(&mut self, msg: RecvInfo, api: &mut TermApi<'_, '_>) {
        debug_assert_eq!(msg.tag, RING_TAG);
        self.recvd += 1;
        self.try_advance(api);
    }

    fn on_compute_done(&mut self, _tag: u64, api: &mut TermApi<'_, '_>) {
        debug_assert_eq!(self.state, State::Computing);
        self.step += 1;
        if self.step >= self.cfg.steps() {
            self.step = 0;
            self.iter += 1;
            if self.iter >= self.cfg.iters {
                self.state = State::Done;
                let now = api.now();
                api.record_time(MOTIF_DONE_HIST, now);
                api.count("motif.nodes_done");
                return;
            }
        }
        // Forward the reduced/gathered chunk for the next step.
        self.send_chunk(api);
        self.state = State::Waiting;
        self.try_advance(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_motif;
    use rvma_net::fabric::FabricConfig;
    use rvma_net::router::RoutingKind;
    use rvma_net::topology::{torus3d, TorusParams};
    use rvma_nic::{NicConfig, Protocol};
    use rvma_sim::SimConfig;

    fn cfg() -> AllReduceConfig {
        AllReduceConfig {
            nodes: 8,
            bytes: 64 << 10,
            iters: 2,
            compute_per_chunk: SimTime::from_ns(200),
        }
    }

    #[test]
    fn accounting() {
        let c = cfg();
        assert_eq!(c.steps(), 14);
        assert_eq!(c.chunk_bytes(), 8 << 10);
        assert_eq!(c.total_messages(), 8 * 14 * 2);
    }

    #[test]
    fn chunk_bytes_rounds_up() {
        let c = AllReduceConfig {
            nodes: 3,
            bytes: 10,
            ..cfg()
        };
        assert_eq!(c.chunk_bytes(), 4);
    }

    #[test]
    fn ring_completes_under_both_protocols() {
        let c = cfg();
        let spec = torus3d(
            TorusParams {
                dims: [2, 2, 2],
                tps: 1,
            },
            RoutingKind::Adaptive,
        );
        for proto in [Protocol::Rvma, Protocol::Rdma] {
            let r = run_motif(
                &spec,
                &FabricConfig::at_gbps(100),
                NicConfig::default(),
                proto,
                1,
                SimConfig::default(),
                |n| Box::new(AllReduceNode::new(c, n)) as _,
            );
            assert_eq!(r.nodes_done, 8, "{proto}");
            assert_eq!(r.msgs_sent, c.total_messages(), "{proto}");
        }
    }

    #[test]
    fn rvma_faster_than_rdma_on_ring() {
        let c = cfg();
        let spec = torus3d(
            TorusParams {
                dims: [2, 2, 2],
                tps: 1,
            },
            RoutingKind::Adaptive,
        );
        let time = |proto| {
            run_motif(
                &spec,
                &FabricConfig::at_gbps(400),
                NicConfig::default(),
                proto,
                1,
                SimConfig::default(),
                |n| Box::new(AllReduceNode::new(c, n)) as _,
            )
            .makespan
        };
        assert!(time(Protocol::Rvma) < time(Protocol::Rdma));
    }
}
