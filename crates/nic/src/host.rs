//! The host-application interface of a simulated node.
//!
//! Application behaviour (the motifs) plugs into a [`Terminal`] as a
//! [`HostLogic`] trait object. Callbacks receive a [`TermApi`] through which
//! the logic issues sends, schedules compute, and records measurements into
//! the engine's stats registry.
//!
//! [`Terminal`]: crate::terminal::Terminal

use rvma_net::packet::NetEvent;
use rvma_sim::{Ctx, SimTime};

/// A message delivered to the host (completion fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    /// Sending terminal.
    pub src: u32,
    /// Application tag (RVMA mailbox address / RDMA channel tag).
    pub tag: u64,
    /// Message payload bytes.
    pub bytes: u64,
    /// Sender-assigned message id.
    pub msg_id: u64,
}

/// Node-level application behaviour (one instance per terminal).
pub trait HostLogic: Send {
    /// Simulation start (t = 0).
    fn on_start(&mut self, api: &mut TermApi<'_, '_>);

    /// A message this node sent has fully left the NIC (send-side
    /// completion; the send buffer is reusable).
    fn on_send_complete(&mut self, msg_id: u64, api: &mut TermApi<'_, '_>) {
        let _ = (msg_id, api);
    }

    /// A message arrived and its receive completion reached the host.
    fn on_recv(&mut self, msg: RecvInfo, api: &mut TermApi<'_, '_>);

    /// A compute block scheduled via [`TermApi::compute`] finished.
    fn on_compute_done(&mut self, tag: u64, api: &mut TermApi<'_, '_>) {
        let _ = (tag, api);
    }

    /// A one-sided read issued via [`TermApi::get`] completed: all response
    /// data has landed in local memory.
    fn on_get_complete(&mut self, msg_id: u64, api: &mut TermApi<'_, '_>) {
        let _ = (msg_id, api);
    }
}

/// Commands a [`HostLogic`] may issue during a callback. The terminal
/// executes them after the callback returns (sends incur the host→NIC bus
/// latency; compute timers run purely on the host).
#[derive(Debug)]
pub(crate) enum HostCmd {
    Send {
        dst: u32,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    },
    Get {
        dst: u32,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    },
    Compute {
        dur: SimTime,
        tag: u64,
    },
}

/// The API surface handed to [`HostLogic`] callbacks.
pub struct TermApi<'a, 'c> {
    pub(crate) node: u32,
    pub(crate) cmds: Vec<HostCmd>,
    pub(crate) next_msg_id: &'a mut u64,
    pub(crate) ctx: &'a mut Ctx<'c, NetEvent>,
}

impl TermApi<'_, '_> {
    /// This node's terminal id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Send `bytes` to terminal `dst` under application `tag`. Returns the
    /// message id (reported back via `on_send_complete`). The protocol
    /// machinery (handshake, credits, fences) is applied by the terminal.
    pub fn send(&mut self, dst: u32, tag: u64, bytes: u64) -> u64 {
        let id = *self.next_msg_id;
        *self.next_msg_id += 1;
        self.cmds.push(HostCmd::Send {
            dst,
            tag,
            bytes,
            msg_id: id,
        });
        id
    }

    /// One-sided read: fetch `bytes` from `dst`'s buffer under `tag`.
    /// Completion is initiator-side (`on_get_complete(msg_id)` fires when
    /// all response data has arrived) — correct in any delivery order for
    /// both protocols, though RDMA must first hold a registered channel.
    pub fn get(&mut self, dst: u32, tag: u64, bytes: u64) -> u64 {
        let id = *self.next_msg_id;
        *self.next_msg_id += 1;
        self.cmds.push(HostCmd::Get {
            dst,
            tag,
            bytes,
            msg_id: id,
        });
        id
    }

    /// Run host compute for `dur`; `on_compute_done(tag)` fires when done.
    pub fn compute(&mut self, dur: SimTime, tag: u64) {
        self.cmds.push(HostCmd::Compute { dur, tag });
    }

    /// Record a sample into the engine-wide histogram `name`.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.ctx.stats().histogram(name).record(value);
    }

    /// Record a [`SimTime`] sample (in ns) into histogram `name`.
    pub fn record_time(&mut self, name: &'static str, t: SimTime) {
        self.ctx.stats().histogram(name).record_time(t);
    }

    /// Bump the engine-wide counter `name`.
    pub fn count(&mut self, name: &'static str) {
        self.ctx.stats().counter(name).inc();
    }
}
