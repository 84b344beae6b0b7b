//! # rvma-nic — simulated RDMA and RVMA network interface controllers
//!
//! Terminal (NIC + host) models for the large-scale simulations of the
//! paper's Figs. 7–8. A [`Terminal`] attaches to an `rvma-net` fabric,
//! speaks either [`Protocol::Rdma`] or [`Protocol::Rvma`], and hosts an
//! application behaviour ([`HostLogic`]) — the motifs live in `rvma-motifs`.
//!
//! The protocol differences modeled here are exactly the paper's:
//!
//! | | RDMA | RVMA |
//! |---|---|---|
//! | first contact | registration handshake (REQ → pin/register → RESP) | none |
//! | per message | RTR credit from the receiver's single buffer | none (bucket of buffers) |
//! | unordered nets | trailing send/recv fence per message | threshold completion |
//! | completion | last-byte poll (ordered) / fence + CQ (unordered) | completion-pointer write |
//!
//! Both share identical timing for everything else (links, switches, PCIe
//! at 150 ns, MTU) per the paper's methodology.
//!
//! ```
//! use rvma_net::{FabricConfig, RoutingKind, topology::star, packet::NetEvent};
//! use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol, RecvInfo, TermApi};
//! use rvma_sim::{ParEngine, SimConfig};
//!
//! struct Ping;
//! impl HostLogic for Ping {
//!     fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
//!         if api.node() == 0 { api.send(1, 7, 4096); }
//!     }
//!     fn on_recv(&mut self, m: RecvInfo, api: &mut TermApi<'_, '_>) {
//!         assert_eq!(m.bytes, 4096);
//!         api.count("got");
//!     }
//! }
//!
//! let mut engine: ParEngine<NetEvent> = ParEngine::new(1, SimConfig::default());
//! build_cluster(
//!     &mut engine,
//!     &star(2, RoutingKind::Static),
//!     &FabricConfig::at_gbps(100),
//!     NicConfig::default(),
//!     Protocol::Rvma,
//!     |_| Box::new(Ping) as Box<dyn HostLogic>,
//! );
//! engine.run_to_completion();
//! assert_eq!(engine.stats().counter_value("got"), 1);
//! ```

pub mod cluster;
pub mod config;
pub mod host;
pub mod terminal;

pub use cluster::{build_cluster, Cluster};
pub use config::{NicConfig, Protocol};
pub use host::{HostLogic, RecvInfo, TermApi};
pub use terminal::Terminal;
