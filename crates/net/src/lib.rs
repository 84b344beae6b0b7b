//! # rvma-net — packet-level network models
//!
//! The fabric substrate for the RVMA reproduction's large-scale simulations
//! (the SST networking-layer substitute). It provides:
//!
//! * [`Packet`]/[`NetEvent`] — the wire unit and the engine event type,
//! * [`Switch`] — an output-queued switch with a crossbar modeled at 1.5×
//!   the link rate (the paper's stated ratio) and queue-backlog signals for
//!   adaptive routing,
//! * [`Router`] — the routing interface, with static (ordered) and adaptive
//!   (out-of-order) implementations per topology,
//! * [`topology`] — fat-tree, 3-D torus, dragonfly and 2-D HyperX builders,
//! * [`build_fabric`] — assembly of a topology into engine components.
//!
//! Terminals (NICs) are provided by the `rvma-nic` crate; this crate only
//! reserves their component ids during fabric assembly.
//!
//! ```
//! use rvma_net::{build_fabric, FabricConfig, RoutingKind};
//! use rvma_net::topology::{dragonfly, DragonflyParams};
//! use rvma_net::packet::NetEvent;
//! use rvma_sim::{ParEngine, SimConfig};
//!
//! // A 72-terminal UGAL-routed dragonfly, 400 Gbps links.
//! let spec = dragonfly(DragonflyParams { a: 4, p: 2, h: 2 }, RoutingKind::Adaptive);
//! spec.validate().unwrap();
//! let mut engine: ParEngine<NetEvent> = ParEngine::new(42, SimConfig::default());
//! let fabric = build_fabric(&mut engine, &spec, &FabricConfig::at_gbps(400));
//! assert_eq!(fabric.switch_cids.len(), 36);
//! assert_eq!(fabric.terminal_cids.len(), 72);
//! // ... add one terminal component per reserved id, then run the engine.
//! ```

pub mod fabric;
pub mod link;
pub mod packet;
pub mod router;
pub mod summary;
pub mod switch;
pub mod topology;

pub use fabric::{build_fabric, partition_fabric, Fabric, FabricConfig, TopologySpec};
pub use link::LinkParams;
pub use packet::{NetEvent, Packet, PacketHeader, PacketKind, RouteState, HEADER_BYTES};
pub use router::{Router, RoutingKind};
pub use summary::{summarize, TopologySummary};
pub use switch::{OutPort, PortView, Switch};
pub use topology::{
    dragonfly, fattree, hyperx, star, torus3d, DragonflyParams, FatTreeParams, HyperXParams,
    TorusParams,
};
