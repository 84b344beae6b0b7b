//! # rvma-core — Remote Virtual Memory Access
//!
//! A complete, thread-safe software implementation of **RVMA** (Grant,
//! Levenhagen, Dosanjh, Widener — Sandia National Laboratories, 2021):
//! one-sided remote memory access with *receiver-managed* resources and
//! *threshold-based* completion, designed for adaptively-routed (i.e.
//! out-of-order) networks.
//!
//! ## The model
//!
//! * Initiators target a 64-bit **virtual mailbox address** ([`VirtAddr`]) —
//!   never a remote physical address, so no buffer handshake is needed.
//! * Receivers post buffers to a mailbox through a [`Window`]; each buffer
//!   serves one **epoch** and carries a [`Threshold`] (bytes or operations).
//! * The endpoint (the "NIC", [`RvmaEndpoint`]) steers each arriving
//!   fragment through a single-lookup table ([`lut::Lut`]), writes the
//!   payload at its offset, counts it, and — when the threshold is reached —
//!   performs the single **completing write** to that buffer's cache-line
//!   aligned [`NotificationSlot`], rotates the mailbox to the next posted
//!   buffer, and retires the completed one for [`Window::rewind`].
//! * Because placement uses offsets and completion uses counts, **any
//!   arrival order yields the same completed buffer** — the property that
//!   lets RVMA run at full speed on adaptively-routed networks where RDMA
//!   needs a trailing send/recv fence.
//!
//! ## Quickstart
//!
//! ```
//! use rvma_core::{
//!     LoopbackNetwork, DeliveryOrder, NodeAddr, VirtAddr, Threshold,
//! };
//!
//! // An adaptively-routed (out-of-order) in-process network.
//! let net = LoopbackNetwork::with_options(512, DeliveryOrder::OutOfOrder { seed: 7 });
//! let server = net.add_endpoint(NodeAddr::node(0));
//! let client = net.initiator(NodeAddr::node(1));
//!
//! // Receiver: one mailbox, one 4 KiB buffer, complete after 4096 bytes.
//! let win = server.init_window(VirtAddr::new(0x1000), Threshold::bytes(4096))?;
//! let mut done = win.post_buffer(vec![0u8; 4096])?;
//!
//! // Sender: no handshake — just put. Fragments are delivered out of order.
//! client.put(NodeAddr::node(0), VirtAddr::new(0x1000), &vec![0xAB; 4096])?;
//!
//! // Receiver: the completion pointer has been written.
//! let buf = done.poll().expect("epoch complete");
//! assert!(buf.data().iter().all(|&b| b == 0xAB));
//! # Ok::<(), rvma_core::RvmaError>(())
//! ```
//!
//! The [`api`] module additionally mirrors the paper's exact
//! `RVMA_*` call names for side-by-side reading with the specification.

pub mod addr;
pub mod api;
pub mod buffer;
#[cfg(feature = "check")]
pub mod check;
pub mod cq;
pub(crate) mod csync;
pub mod endpoint;
pub mod error;
pub(crate) mod link;
pub mod lut;
pub mod mailbox;
pub mod mpix;
pub mod notify;
pub mod pool;
pub mod retry;
pub mod ring;
pub mod shm;
pub mod telemetry;
pub mod transport;
pub mod transport_lossy;
pub mod transport_shm;
pub mod transport_threaded;
pub mod window;
pub(crate) mod wire;

pub use addr::{NodeAddr, VirtAddr};
pub use buffer::{CompletedBuffer, EpochType, Threshold};
pub use bytes::Bytes;
pub use cq::{CompletionQueue, CqCompletion, CqStats};
pub use endpoint::{
    DeliverResult, EndpointConfig, Fragment, RvmaEndpoint, StatsSnapshot, DEFAULT_EAGER_THRESHOLD,
    DEFAULT_SHM_BULK_BYTES, DEFAULT_SHM_REQ_SLOTS, DEFAULT_SHM_RSP_SLOTS, DEFAULT_WIRE_IDLE_SPINS,
    DEFAULT_WIRE_IDLE_YIELDS,
};
pub use error::{NackReason, Result, RvmaError};
pub use lut::LUT_SHARDS;
pub use mailbox::{EpochProgress, Mailbox, MailboxMode, DEFAULT_RETAIN_EPOCHS};
pub use mpix::MpixWindow;
pub use notify::{
    wait_all, wait_any, wait_any_timeout, AsyncNotifyStats, Notification, NotificationSlot,
    NotifyFuture,
};
pub use pool::{BufferPool, PayloadPool, PoolStats};
pub use retry::{
    DedupWindow, FaultInjector, FaultStats, PutReport, ReliableInitiator, RetryConfig,
    DEFAULT_DEDUP_WINDOW, DEFAULT_RETRY_BUDGET,
};
pub use ring::{PushError, RingQueue, RingStats, RingStatsSnapshot, DEFAULT_WIRE_QUEUE_CAP};
pub use shm::{shm_supported, ShmSegment};
pub use telemetry::{Event, EventKind, Histogram, Span, Telemetry, TelemetrySnapshot};
pub use transport::{DeliveryOrder, Initiator, LoopbackNetwork, PutResult, Transport, DEFAULT_MTU};
pub use transport_lossy::{
    FaultModel, InlineChannel, LossyInitiator, LossyNetwork, TransmitOutcome,
};
pub use transport_shm::{shm_pair, BulkExtent, BulkStats, ShmClient, ShmServer};
pub use transport_threaded::{
    AsyncInitiator, AsyncNetwork, PutBatch, PutDelivery, PutFuture, RouteStats,
    DEFAULT_DOORBELL_FRAGS,
};
pub use window::{EpochOutcome, Window};
