//! Cross-process transport: the RVMA wire protocol over shared memory.
//!
//! This is the first backend where initiator and target live in *different
//! OS processes*. A file-backed [`ShmSegment`]
//! carries two bounded rings of fixed-size slots — [`crate::ring`]'s one
//! protocol over segment storage, each with the futex doorbell every ring
//! carries in its cursor block:
//!
//! * the **request ring** (MPSC: any number of initiator threads → the
//!   server's single wire worker) carries put fragments and flush markers;
//! * the **response ring** (SPSC: wire worker → whichever client thread
//!   holds the drain) carries per-fragment delivery acks for notified
//!   puts, NACKs, and flush acks.
//!
//! Layering is the point: the server thread *is* a wire worker, the same
//! receive loop the threaded transport runs per ring — receive runs,
//! dedup windows ([`crate::retry`]), seeded fault injection under the
//! same [link discipline](crate::retry#the-link-discipline), the same
//! flush rule and teardown, op-level telemetry. This module supplies only
//! its wire: popping and decoding request slots, sleeping on the request
//! doorbell, pushing NACKs and acks onto the response ring, and gathering
//! rendezvous descriptors from the bulk region. The client resolves the
//! *same* [`PutFuture`] the threaded transport hands out, fed by acks
//! crossing the segment instead of an in-process countdown. Nothing above
//! the wire knows the peer is in another address space.
//!
//! ## Sending
//!
//! [`ShmClient`] is the crate's one send engine (`crate::link`) over this
//! wire: eager puts are copied into one request slot per MTU, large ones
//! into a bulk extent sent as one RTS descriptor, and a flush is one
//! tokened marker. The worker acks the marker under the wire worker's one
//! flush rule (after its own pending retransmissions), and the response
//! ring is FIFO, so the ack follows every NACK of the traffic before it.
//! Acks reach their futures through whoever waits on them: a
//! [`PutFuture`] poll (a flush is one) drains the response ring while the
//! thread's adaptive spin budget lasts, then arms the client's otherwise
//! parked response pump; a put blocked on a full request ring drains too.
//! See DESIGN.md §12 for the whole progress rule.
//!
//! ## Stop and peer death
//!
//! [`ShmServer::stop`] closes the request ring as the threaded transport
//! closes its rings: a put claimed before the close is delivered and
//! acked, a push after it fails at once. Every blocking loop is bounded:
//! futex waits time out and re-check, the segment header carries both
//! PIDs plus a `state` word the server flips to `SERVER_GONE` once
//! stopped, and stuck producers probe `/proc/<pid>`. A dead server fails
//! client calls with [`RvmaError::TransportFailed`] and resolves
//! outstanding [`PutFuture`]s as NACKed; a dead client makes the server
//! drop undeliverable responses and give up a slot it claimed but never
//! published. The segment file is unlinked
//! by its creator; an already-mapped segment stays usable until the last
//! mapping drops (POSIX unlink semantics), so no state leaks even when a
//! peer dies mid-conversation. See DESIGN.md §12.

use crate::addr::{NodeAddr, VirtAddr};
use crate::csync::Idle;
use crate::endpoint::{mtu_ranges, EndpointConfig, Fragment, RvmaEndpoint};
use crate::error::{NackReason, Result, RvmaError};
use crate::link::{
    self, notified, Initiator, Link, NackSink, Op, Progress, PutFuture, PutNotify, Unit,
};
use crate::retry::{FaultStats, LinkFaults};
use crate::ring::{Cursors, PushError, Ring, SegmentRing, DOORBELL_WAIT};
use crate::shm::{self, ShmSegment};
use crate::telemetry::{self, EventKind, Telemetry};
use crate::wire::{Fabric, Wire, WireMsg, WireWorker};
use bytes::Bytes;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Segment magic ("RVMASHM1") — a peer mapping the wrong file fails fast.
const SHM_MAGIC: u64 = 0x5256_4D41_5348_4D31;
/// Wire-layout version; bump on any slot/header change. v2 added the
/// bulk region (rendezvous lane) and the `bulk_bytes`/`eager_threshold`
/// header words; v3 the closed word on each ring's consumer line; v4
/// moved the doorbells from the header into each ring's cursor block.
const SHM_VERSION: u32 = 4;

/// Handshake states; a fresh mapping reads 0 until the server publishes
/// `STATE_READY`.
const STATE_READY: u32 = 1;
const STATE_SERVER_GONE: u32 = 2;

// Request-ring message kinds.
const REQ_PUT: u32 = 1;
const REQ_FLUSH: u32 = 2;
/// Rendezvous RTS: the payload already sits in the segment's bulk region;
/// the slot carries only the extent offset (8 bytes). The server gathers
/// straight from the extent into the posted window buffer and the client
/// releases the extent when the `RSP_PUT_DONE` ack comes back.
const REQ_BULK: u32 = 3;

// Response-ring message kinds.
const RSP_PUT_DONE: u32 = 1;
const RSP_NACK: u32 = 2;
const RSP_FLUSH_ACK: u32 = 3;

/// How often an unarmed response pump wakes to drain acks nobody waits
/// for (rendezvous extent releases, NACKs) and to probe the server.
const PUMP_TICK: Duration = Duration::from_millis(10);

/// A thread's drain probes the server's liveness on every this-many-th
/// call, if that call finds the response ring empty (the probe is a `stat`).
const PEER_CHECK_EVERY: u32 = 4096;

/// How long `connect` waits for the server to initialise the segment.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

const fn round64(n: usize) -> usize {
    n.saturating_add(63) & !63
}

/// The next token from `counter`. Token 0 means "no ack requested" (and
/// no flush), so it is skipped on wrap.
fn next_token(counter: &AtomicU32) -> u32 {
    match counter.fetch_add(1, Ordering::Relaxed).wrapping_add(1) {
        0 => counter.fetch_add(1, Ordering::Relaxed).wrapping_add(1),
        token => token,
    }
}

/// Whether the process whose pid `word` holds is gone (0: none yet).
fn pid_gone(word: &AtomicU32) -> bool {
    let pid = word.load(Ordering::SeqCst);
    pid != 0 && cfg!(target_os = "linux") && !Path::new(&format!("/proc/{pid}")).exists()
}

fn encode_nack(r: NackReason) -> u32 {
    match r {
        NackReason::WindowClosed => 1,
        NackReason::NoSuchMailbox => 2,
        NackReason::NoBufferPosted => 3,
        NackReason::OutOfBounds => 4,
    }
}

fn decode_nack(v: u32) -> NackReason {
    match v {
        1 => NackReason::WindowClosed,
        3 => NackReason::NoBufferPosted,
        4 => NackReason::OutOfBounds,
        _ => NackReason::NoSuchMailbox,
    }
}

// ---------------------------------------------------------------------------
// Segment layout
// ---------------------------------------------------------------------------

/// First bytes of the segment: identification, handshake state, geometry
/// and liveness PIDs. Everything is atomics — the header is one of the
/// regions both processes write concurrently.
#[repr(C)]
struct SegHeader {
    magic: AtomicU64,
    mtu: AtomicU64,
    req_slots: AtomicU64,
    rsp_slots: AtomicU64,
    /// Bulk (rendezvous) region size in bytes; 0 disables the lane.
    bulk_bytes: AtomicU64,
    /// Puts longer than this take the rendezvous lane. The server
    /// publishes it so both processes agree on lane policy without any
    /// out-of-band configuration channel.
    eager_threshold: AtomicU64,
    version: AtomicU32,
    state: AtomicU32,
    server_pid: AtomicU32,
    client_pid: AtomicU32,
}

/// Space reserved for [`SegHeader`] at offset 0.
const HDR_SPACE: usize = 128;

/// Space reserved for each ring's cursor block.
const CTRL_SPACE: usize = std::mem::size_of::<Cursors>();

/// Per-slot request header (fixed 64 bytes after the slot's sequence
/// word; the inline payload follows). `Bytes` handles cannot cross
/// address spaces, so the fragment is fully serialised: identification,
/// placement, and the payload bytes themselves.
#[repr(C)]
struct ReqHdr {
    kind: AtomicU32,
    len: AtomicU32,
    dest_nid: AtomicU32,
    dest_pid: AtomicU32,
    init_nid: AtomicU32,
    init_pid: AtomicU32,
    /// Nonzero for notified puts: the client-side key the delivery ack
    /// comes back under. Doubles as the flush token for `REQ_FLUSH`.
    token: AtomicU32,
    _rsv: AtomicU32,
    op_id: AtomicU64,
    vaddr: AtomicU64,
    total_len: AtomicU64,
    offset: AtomicU64,
}

const REQ_HDR_SIZE: usize = 64;

/// Per-slot response header (acks flowing server → client).
#[repr(C)]
struct RspHdr {
    kind: AtomicU32,
    token: AtomicU32,
    reason: AtomicU32,
    nacked: AtomicU32,
    vaddr: AtomicU64,
}

const RSP_HDR_SIZE: usize = 24;

/// A response slot: its sequence word and header, on one line.
const RSP_STRIDE: usize = round64(8 + RSP_HDR_SIZE);

/// Computed segment geometry; both sides derive it from the header's
/// `(mtu, req_slots, rsp_slots)` so they always agree on offsets.
#[derive(Clone, Copy)]
struct SegGeometry {
    mtu: usize,
    req_slots: usize,
    rsp_slots: usize,
    req_stride: usize,
    /// Where each ring's cursor block starts; its slots follow it.
    req_at: usize,
    rsp_at: usize,
    /// Start of the bulk (rendezvous) region; extents on the wire are
    /// offsets relative to this base.
    bulk_base: usize,
    /// Bulk region size (a power of two, or 0 when the lane is disabled).
    bulk_bytes: usize,
    total: usize,
}

impl SegGeometry {
    /// Saturating: sizes from a header the peer wrote give a geometry no
    /// mapping fits, never an overflow.
    fn new(mtu: usize, req_slots: usize, rsp_slots: usize, bulk_bytes: usize) -> SegGeometry {
        let req_stride = round64(mtu.saturating_add(8 + REQ_HDR_SIZE));
        let past = |at: usize, slots: usize, stride: usize| {
            round64(
                at.saturating_add(CTRL_SPACE)
                    .saturating_add(slots.saturating_mul(stride)),
            )
        };
        let req_at = HDR_SPACE;
        let rsp_at = past(req_at, req_slots, req_stride);
        let bulk_base = past(rsp_at, rsp_slots, RSP_STRIDE);
        let total = round64(bulk_base.saturating_add(bulk_bytes));
        SegGeometry {
            mtu,
            req_slots,
            rsp_slots,
            req_stride,
            req_at,
            rsp_at,
            bulk_base,
            bulk_bytes,
            total,
        }
    }

    /// The request and response rings laid over `seg`, or `None` unless
    /// both capacities are valid (see [`SegmentRing::new`]).
    fn rings(&self, seg: &Arc<ShmSegment>) -> Option<(SegmentRing, SegmentRing)> {
        Some((
            SegmentRing::new(seg, self.req_at, self.req_stride, self.req_slots)?,
            SegmentRing::new(seg, self.rsp_at, RSP_STRIDE, self.rsp_slots)?,
        ))
    }
}

fn header(seg: &ShmSegment) -> &SegHeader {
    // SAFETY: offset 0 is 64-aligned and HDR_SPACE covers the struct; the
    // mapping outlives every borrow (the segment Arc is held alongside).
    unsafe { seg.at::<SegHeader>(0) }
}

/// The request header at a slot's payload offset.
fn req_hdr(seg: &ShmSegment, payload: usize) -> &ReqHdr {
    // SAFETY: a payload starts one sequence word past a 64-aligned slot
    // base, so it is u64-aligned, and the geometry keeps it in bounds.
    unsafe { seg.at::<ReqHdr>(payload) }
}

fn rsp_hdr(seg: &ShmSegment, payload: usize) -> &RspHdr {
    // SAFETY: as above.
    unsafe { seg.at::<RspHdr>(payload) }
}

// ---------------------------------------------------------------------------
// Server (receiver process)
// ---------------------------------------------------------------------------

/// The server's state, and — by reference — its [`Wire`]: single consumer
/// of the request ring, single producer of the response ring.
struct ServerInner {
    seg: Arc<ShmSegment>,
    geo: SegGeometry,
    req: SegmentRing,
    rsp: SegmentRing,
    fabric: Fabric,
    delivered: AtomicU64,
    /// Payload bytes the worker copied out of request slots into owned
    /// `Bytes` (the eager lane's wire copy). The rendezvous lane adds
    /// nothing here — the gather goes segment → posted buffer directly.
    wire_copied: AtomicU64,
}

/// The receiving (server) half of the shared-memory transport: owns the
/// segment, hosts [`RvmaEndpoint`]s, and runs one wire-worker thread on
/// the request ring — the threaded transport's receive loop (runs, dedup,
/// fault injection, telemetry, notification) over this wire.
pub struct ShmServer {
    inner: Arc<ServerInner>,
    worker: Option<JoinHandle<()>>,
}

impl ShmServer {
    /// Create the segment at `path` and start the wire worker. Ring
    /// capacities come from [`EndpointConfig::shm_req_slots`] /
    /// [`EndpointConfig::shm_rsp_slots`]; fault model, dedup window,
    /// retry budget, and telemetry all plumb through unchanged from the
    /// same config the in-process transports take.
    pub fn create(path: &Path, mtu: usize, config: EndpointConfig) -> Result<ShmServer> {
        assert!(mtu > 0, "MTU must be positive");
        let req_slots = config.shm_req_slots.next_power_of_two().max(2);
        let rsp_slots = config.shm_rsp_slots.next_power_of_two().max(2);
        // The bulk region must be a power of two for the buddy allocator,
        // sized down so a config request never inflates the segment;
        // anything below one minimum block disables the rendezvous lane.
        let bulk_bytes = match config.shm_bulk_bytes {
            n if n >= 1 << BULK_MIN_ORDER => 1 << n.ilog2(),
            _ => 0,
        };
        let geo = SegGeometry::new(mtu, req_slots, rsp_slots, bulk_bytes);
        let seg = Arc::new(ShmSegment::create(path, geo.total)?);

        let (req, rsp) = geo.rings(&seg).expect("capacities are powers of two");
        req.init();
        rsp.init();
        let inner = Arc::new(ServerInner {
            seg: seg.clone(),
            geo,
            req,
            rsp,
            fabric: Fabric::new(config),
            delivered: AtomicU64::new(0),
            wire_copied: AtomicU64::new(0),
        });
        let hdr = header(&seg);
        hdr.mtu.store(mtu as u64, Ordering::Relaxed);
        hdr.req_slots.store(req_slots as u64, Ordering::Relaxed);
        hdr.rsp_slots.store(rsp_slots as u64, Ordering::Relaxed);
        hdr.bulk_bytes.store(bulk_bytes as u64, Ordering::Relaxed);
        let eager_threshold = inner.fabric.config.eager_threshold as u64;
        hdr.eager_threshold
            .store(eager_threshold, Ordering::Relaxed);
        hdr.version.store(SHM_VERSION, Ordering::Relaxed);
        hdr.server_pid.store(std::process::id(), Ordering::Relaxed);
        hdr.magic.store(SHM_MAGIC, Ordering::Relaxed);
        // Publish: a connecting client acquires everything above through
        // this store.
        hdr.state.store(STATE_READY, Ordering::Release);

        let worker = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("rvma-shm-wire".into())
                .spawn(move || WireWorker::new(&*inner, &inner.fabric, 0, Duration::ZERO).run())
                .expect("spawn shm wire worker")
        };
        Ok(ShmServer {
            inner,
            worker: Some(worker),
        })
    }

    /// Create with defaults at a fresh unique path (see
    /// [`crate::shm::default_segment_path`]).
    pub fn create_default(mtu: usize, config: EndpointConfig) -> Result<ShmServer> {
        ShmServer::create(&shm::default_segment_path("srv"), mtu, config)
    }

    /// The segment path a peer passes to [`ShmClient::connect`].
    pub fn path(&self) -> &Path {
        self.inner.seg.path()
    }

    /// The wire MTU.
    pub fn mtu(&self) -> usize {
        self.inner.geo.mtu
    }

    /// Create and host an endpoint at `addr` (the shm analogue of
    /// `AsyncNetwork::add_endpoint`).
    pub fn add_endpoint(&self, addr: NodeAddr) -> Arc<RvmaEndpoint> {
        let ep = RvmaEndpoint::with_config(addr, self.inner.fabric.config.clone());
        self.register(ep.clone());
        ep
    }

    /// Attach an existing endpoint.
    pub fn register(&self, endpoint: Arc<RvmaEndpoint>) {
        self.inner.fabric.register(endpoint);
    }

    /// Detach the endpoint at `addr`; queued fragments NACK with
    /// `NoSuchMailbox` when the worker reaches them — the crash-fault
    /// behaviour, triggerable explicitly.
    pub fn remove_endpoint(&self, addr: NodeAddr) -> bool {
        self.inner.fabric.remove(addr)
    }

    /// The server-side telemetry recorder, when enabled.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.inner.fabric.telemetry.clone()
    }

    /// Network-wide fault counters, when fault injection is active.
    pub fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        self.inner.fabric.fault_stats()
    }

    /// Link-level retransmissions not yet fully processed (nonzero ⇒ a
    /// flush ack is being held back).
    pub fn pending_retries(&self) -> u64 {
        self.inner
            .fabric
            .faults
            .as_ref()
            .map_or(0, LinkFaults::pending_retries)
    }

    /// Fragments delivered to endpoints so far.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Payload bytes copied slot → owned `Bytes` by the wire worker (the
    /// eager lane's extra copy; rendezvous gathers add nothing here).
    pub fn wire_copied(&self) -> u64 {
        self.inner.wire_copied.load(Ordering::Relaxed)
    }

    /// Close the request ring and join the wire worker, which first
    /// delivers and acks every put claimed before the close. A client push
    /// after the close fails with [`RvmaError::TransportFailed`] at once;
    /// the header then reads server-gone, failing what the client awaits.
    pub fn stop(&mut self) {
        let hdr = header(&self.inner.seg);
        self.inner.req.close();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        hdr.state.store(STATE_SERVER_GONE, Ordering::SeqCst);
    }
}

impl Drop for ShmServer {
    fn drop(&mut self) {
        self.stop();
        // Segment unlinks when the Arc drops (we are the creator).
    }
}

type ShmMsg<'a> = WireMsg<&'a ServerInner>;

impl ServerInner {
    /// Push one response slot. Acks must not drop while the client lives:
    /// a full ring rings its doorbell again (a sleeping pump drains it)
    /// and backs off; if the client process is gone the response is
    /// dropped (nobody is left to read it).
    fn respond(&self, kind: u32, token: u32, reason: u32, nacked: bool, vaddr: VirtAddr) {
        let fill = |off| {
            let h = rsp_hdr(&self.seg, off);
            h.kind.store(kind, Ordering::Relaxed);
            h.token.store(token, Ordering::Relaxed);
            h.reason.store(reason, Ordering::Relaxed);
            h.nacked.store(nacked as u32, Ordering::Relaxed);
            h.vaddr.store(vaddr.0, Ordering::Relaxed);
        };
        let stall = |probe| {
            self.rsp.doorbell().ring();
            !(probe && pid_gone(&header(&self.seg).client_pid))
        };
        let _ = self.rsp.push(fill, stall);
    }
}

impl<'a> Wire for &'a ServerInner {
    /// A rendezvous RTS descriptor's extent: its offset in the bulk
    /// region. The client keeps the extent reserved until the
    /// `RSP_PUT_DONE` ack, so a retransmitted descriptor still reads valid
    /// bytes.
    type Desc = usize;
    /// The put's token (0 = fire-and-forget eager fragment).
    type Reply = u32;
    /// The flush marker's token.
    type Ack = u32;

    /// Decode the next request slot into an owned message. The decode is
    /// total: a slot of unknown kind is released undelivered, and acked as
    /// refused when it carries a token, so no countdown hangs on it.
    fn pop(&mut self) -> Option<ShmMsg<'a>> {
        let inner: &'a ServerInner = self;
        let seg = &inner.seg;
        let (u, w) = (
            |a: &AtomicU32| a.load(Ordering::Relaxed),
            |a: &AtomicU64| a.load(Ordering::Relaxed),
        );
        let decode = |idx| -> Option<ShmMsg<'a>> {
            let off = inner.req.payload(idx);
            let h = req_hdr(seg, off);
            let (kind, token, vaddr) = (u(&h.kind), u(&h.token), VirtAddr::new(w(&h.vaddr)));
            // SAFETY: in-bounds payload region of the published slot.
            let payload = unsafe { seg.as_ptr().add(off + REQ_HDR_SIZE) };
            let (data, desc) = match kind {
                REQ_FLUSH => return Some(WireMsg::Flush(token)),
                REQ_PUT => {
                    let len = (u(&h.len) as usize).min(inner.geo.mtu);
                    // SAFETY: the producer wrote `len <= mtu` bytes there
                    // before the release-publish we acquired.
                    let data = unsafe { std::slice::from_raw_parts(payload, len) };
                    inner.wire_copied.fetch_add(len as u64, Ordering::Relaxed);
                    (Bytes::copy_from_slice(data), None)
                }
                // SAFETY: the producer wrote the 8-byte extent offset there
                // before the release-publish we acquired.
                REQ_BULK => (
                    Bytes::new(),
                    Some(unsafe { std::ptr::read_unaligned(payload as *const u64) } as usize),
                ),
                _ => {
                    if token != 0 {
                        inner.respond(RSP_PUT_DONE, token, 0, true, vaddr);
                    }
                    return None;
                }
            };
            Some(WireMsg::Deliver {
                dest: NodeAddr::new(u(&h.dest_nid), u(&h.dest_pid)),
                frag: Fragment {
                    initiator: NodeAddr::new(u(&h.init_nid), u(&h.init_pid)),
                    op_id: w(&h.op_id),
                    dst_vaddr: vaddr,
                    op_total_len: w(&h.total_len),
                    offset: w(&h.offset) as usize,
                    data,
                },
                desc,
                reply: token,
                attempt: 0,
            })
        };
        loop {
            if let Some(msg) = inner.req.pop_with(decode)? {
                return Some(msg);
            }
        }
    }

    /// Sleep on the request ring's doorbell: advertise, re-check, bounded
    /// wait. After the close, a slot still unpublished a whole wait later
    /// by a client process now gone never will be: give it up.
    fn park(&mut self) {
        let req = &self.req;
        let slept = req
            .doorbell()
            .sleep_unless(|| req.ready() || req.is_drained(), DOORBELL_WAIT);
        if slept && req.is_closed() && !req.ready() && pid_gone(&header(&self.seg).client_pid) {
            req.abandon();
        }
    }

    fn closed(&self) -> bool {
        self.req.is_drained()
    }

    /// The server cannot produce into the client's request ring: a
    /// retransmission waits in the worker's deferred queue.
    fn requeue(&mut self, msg: ShmMsg<'a>) -> std::result::Result<(), ShmMsg<'a>> {
        Err(msg)
    }

    fn reply(&self, token: u32, frags: usize, nacks: &[(usize, VirtAddr, NackReason)]) {
        for &(_, vaddr, reason) in nacks {
            self.respond(RSP_NACK, 0, encode_nack(reason), true, vaddr);
        }
        self.delivered.fetch_add(frags as u64, Ordering::Relaxed);
        // Rendezvous tokens are always nonzero: the ack doubles as the
        // extent-release message, so it flows even for un-notified puts.
        if token != 0 {
            self.respond(RSP_PUT_DONE, token, 0, !nacks.is_empty(), VirtAddr(0));
        }
    }

    fn flush_ack(&self, token: u32) {
        self.respond(RSP_FLUSH_ACK, token, 0, false, VirtAddr(0));
    }

    /// The extent, or `None` unless it sits wholly inside the bulk region:
    /// checked before anything a peer wrote into a descriptor is
    /// dereferenced.
    fn gather<'w>(&'w self, frag: &'w Fragment, &ext_off: &'w usize) -> Option<&'w [u8]> {
        let key = telemetry::initiator_key(frag.initiator.nid, frag.initiator.pid);
        let len = frag.op_total_len;
        telemetry::record(
            &self.fabric.telemetry,
            EventKind::BulkDeliver,
            key,
            frag.op_id,
            len,
        );
        let geo = &self.geo;
        let end = ext_off.checked_add(len as usize)?;
        if geo.bulk_bytes == 0 || end > geo.bulk_bytes {
            return None;
        }
        // SAFETY: bounds validated against the bulk region above; the
        // client keeps the extent reserved (and unwritten) until it sees
        // our ack.
        Some(unsafe {
            let p = self.seg.as_ptr().add(geo.bulk_base + ext_off);
            std::slice::from_raw_parts(p, len as usize)
        })
    }
}

// ---------------------------------------------------------------------------
// Client (initiator process)
// ---------------------------------------------------------------------------

/// Smallest buddy block: 2^6 = 64 bytes (one cache line).
const BULK_MIN_ORDER: u32 = 6;

/// Buddy allocator over the segment's bulk region. The metadata lives
/// **client-side only**: the client is the sole mutator (reserve on
/// submit, release on ack), so no cross-process synchronisation is needed
/// and a crashing client can never wedge allocator state the server
/// depends on — the server only ever *reads* extents it was handed.
/// Offsets are relative to the bulk region base.
#[derive(Default)]
struct BulkAllocator {
    /// Free block offsets per order; index 0 holds order
    /// [`BULK_MIN_ORDER`]. Lists stay short (≤ region/min-block blocks,
    /// in practice a handful), so linear buddy lookup is fine.
    free: Vec<Vec<usize>>,
    max_order: u32,
    enabled: bool,
    stats: BulkStats,
}

impl BulkAllocator {
    fn new(bulk_bytes: usize) -> BulkAllocator {
        if bulk_bytes < (1usize << BULK_MIN_ORDER) {
            return BulkAllocator::default();
        }
        debug_assert!(bulk_bytes.is_power_of_two());
        let max_order = bulk_bytes.trailing_zeros();
        let mut free = vec![Vec::new(); (max_order - BULK_MIN_ORDER + 1) as usize];
        free.last_mut().expect("at least one order").push(0);
        BulkAllocator {
            free,
            max_order,
            enabled: true,
            stats: BulkStats::default(),
        }
    }

    /// Reserve a power-of-two extent covering `len` bytes. Returns the
    /// bulk-relative offset and block order, or `None` when the region is
    /// exhausted (or the lane disabled) — the caller falls back to eager.
    fn reserve(&mut self, len: usize) -> Option<(usize, u32)> {
        if !self.enabled || len == 0 {
            return None;
        }
        let order = len.next_power_of_two().trailing_zeros().max(BULK_MIN_ORDER);
        if order > self.max_order {
            return None;
        }
        // Smallest order >= `order` with a free block, split down.
        let mut have = order;
        while self.free[(have - BULK_MIN_ORDER) as usize].is_empty() {
            if have == self.max_order {
                return None;
            }
            have += 1;
        }
        let off = self.free[(have - BULK_MIN_ORDER) as usize]
            .pop()
            .expect("non-empty free list");
        while have > order {
            have -= 1;
            let buddy = off + (1usize << have);
            self.free[(have - BULK_MIN_ORDER) as usize].push(buddy);
        }
        Some((off, order))
    }

    /// Return an extent, merging with its buddy while possible.
    fn release(&mut self, mut off: usize, mut order: u32) {
        while order < self.max_order {
            let buddy = off ^ (1usize << order);
            let list = &mut self.free[(order - BULK_MIN_ORDER) as usize];
            match list.iter().position(|&b| b == buddy) {
                Some(i) => {
                    list.swap_remove(i);
                    off &= !(1usize << order);
                    order += 1;
                }
                None => break,
            }
        }
        self.free[(order - BULK_MIN_ORDER) as usize].push(off);
    }
}

/// A client-owned registered extent in the segment's bulk region (see
/// [`ShmClient::reserve_extent`]). Holds its reservation until dropped;
/// disjoint from every other live extent by buddy-allocator construction.
pub struct BulkExtent {
    inner: Arc<ClientInner>,
    /// Bulk-relative offset (what the RTS descriptor carries).
    off: usize,
    order: u32,
    /// Usable length as requested (the block itself is `1 << order`).
    len: usize,
}

impl BulkExtent {
    /// Usable capacity in bytes (the length passed to `reserve_extent`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length reservation (never constructed: the
    /// allocator rejects `len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The extent's payload region. Write the message here, then
    /// [`ShmClient::put_from_extent`]. Must not be written while a put
    /// from this extent is unresolved (the server reads the region
    /// until its ack).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: the allocator hands out disjoint blocks, `&mut self`
        // is the only client-side borrow, and the documented contract
        // keeps the server out of the region while it is borrowed.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.inner
                    .seg
                    .as_ptr()
                    .add(self.inner.geo.bulk_base + self.off),
                self.len,
            )
        }
    }
}

impl Drop for BulkExtent {
    fn drop(&mut self) {
        self.inner.release_extent((self.off, self.order, self.len));
    }
}

/// Bulk-region accounting of one [`ShmClient`] — the quiesce balance
/// check (`reserved_bytes == released_bytes`, `in_flight == 0` after a
/// [`flush`](ShmClient::flush)) proves no extent leaks, including under
/// fault injection and retransmitted RTS descriptors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Payload bytes reserved into bulk extents so far.
    pub reserved_bytes: u64,
    /// Payload bytes whose extents have been released (acked).
    pub released_bytes: u64,
    /// Extents currently reserved and awaiting their ack.
    pub in_flight: u64,
    /// Large puts that fell back to the eager lane because the bulk
    /// region was exhausted (or disabled).
    pub eager_fallbacks: u64,
}

/// What a token's acks resolve: a put's countdown when one was asked for
/// (without one, the put is a one-unit descriptor), and a rendezvous
/// extent `(offset, order, len)` the last ack releases. The entry is
/// removed exactly once — by the last ack, a push the link refused, or
/// peer death — so a duplicate ack finds nothing: no double count, no
/// double free.
struct PendingPut {
    notify: Option<Arc<PutNotify>>,
    extent: Option<Extent>,
}

/// A bulk extent: offset in the region, buddy order, payload length.
type Extent = (usize, u32, usize);

struct ClientInner {
    seg: Arc<ShmSegment>,
    geo: SegGeometry,
    req: SegmentRing,
    rsp: SegmentRing,
    /// Held by the one thread emptying `rsp` (the ring's single consumer).
    drain_claimed: AtomicBool,
    /// Waiters (futures and flushes) that ran out of spin and handed the
    /// drain to the pump; it sleeps on the response doorbell while > 0.
    armed: AtomicU32,
    pump: OnceLock<Thread>,
    src: NodeAddr,
    next_token: AtomicU32,
    tokens: Mutex<HashMap<u32, PendingPut>>,
    /// The engine's sink, where `RSP_NACK`s land.
    nacks: NackSink,
    stop: AtomicBool,
    telemetry: Option<Arc<Telemetry>>,
    /// Bulk-region buddy allocator (see [`BulkAllocator`]) and its
    /// accounting.
    bulk: Mutex<BulkAllocator>,
}

impl ClientInner {
    /// The one response-ring drain: if no other thread holds the consumer
    /// role, pop every ready ack into [`handle_rsp`]. When it finds the
    /// ring empty and `check_peer` is set (or at a fixed cadence of a
    /// thread's calls) it probes the server, and on death fails everything
    /// outstanding. Returns whether it handled anything.
    fn progress(&self, check_peer: bool) -> bool {
        thread_local! {
            static CALLS: Cell<u32> = const { Cell::new(0) };
        }
        let check_peer = check_peer
            || CALLS.with(|c| {
                c.set(c.get().wrapping_add(1));
                c.get() % PEER_CHECK_EVERY == 0
            });
        if !(check_peer || self.rsp.ready()) || self.drain_claimed.swap(true, Ordering::Acquire) {
            return false;
        }
        let handle = |idx| handle_rsp(self, rsp_hdr(&self.seg, self.rsp.payload(idx)));
        let drain = || std::iter::from_fn(|| self.rsp.pop_with(handle)).count();
        let handled = drain();
        if handled == 0 && check_peer && self.server_dead() {
            // Drain what the server managed to push before dying, then
            // fail the rest.
            drain();
            self.fail_all_pending();
        }
        self.drain_claimed.store(false, Ordering::Release);
        handled > 0
    }

    /// The token a put's acks come back under, or 0 when nothing waits
    /// on them (an un-notified eager put).
    fn track(&self, notify: Option<Arc<PutNotify>>, extent: Option<Extent>) -> u32 {
        if notify.is_none() && extent.is_none() {
            return 0;
        }
        let token = next_token(&self.next_token);
        self.tokens
            .lock()
            .insert(token, PendingPut { notify, extent });
        token
    }

    /// Resolve `p` as failed and release its extent.
    fn fail(&self, p: PendingPut) {
        if let Some(n) = p.notify {
            n.fail_rest();
        }
        if let Some(extent) = p.extent {
            self.release_extent(extent);
        }
    }

    /// Reserve and account a bulk extent; when the region is exhausted,
    /// drain the acks that release extents once and retry.
    fn reserve_bulk(&self, len: usize) -> Option<(usize, u32)> {
        let reserve = || {
            let mut bulk = self.bulk.lock();
            let extent = bulk.reserve(len)?;
            bulk.stats.reserved_bytes += len as u64;
            bulk.stats.in_flight += 1;
            Some(extent)
        };
        reserve().or_else(|| self.progress(false).then(reserve).flatten())
    }

    fn server_dead(&self) -> bool {
        let hdr = header(&self.seg);
        hdr.state.load(Ordering::SeqCst) == STATE_SERVER_GONE || pid_gone(&hdr.server_pid)
    }

    /// Record one initiator-side telemetry event of this client.
    fn record(&self, kind: EventKind, op_id: u64, arg: u64) {
        let key = telemetry::initiator_key(self.src.nid, self.src.pid);
        telemetry::record(&self.telemetry, kind, key, op_id, arg);
    }

    /// Release a rendezvous extent (exactly once per reservation: the
    /// callers are the single ack-path removal, a refused push, and the
    /// peer-death drain — mutually exclusive by token ownership).
    fn release_extent(&self, (off, order, len): Extent) {
        let mut bulk = self.bulk.lock();
        bulk.release(off, order);
        bulk.stats.released_bytes += len as u64;
        bulk.stats.in_flight -= 1;
        drop(bulk);
        self.record(EventKind::BulkRelease, 0, off as u64);
    }

    /// Resolve every outstanding future and flush as failed (peer death).
    fn fail_all_pending(&self) {
        let drained: Vec<PendingPut> = self.tokens.lock().drain().map(|(_, p)| p).collect();
        for p in drained {
            self.fail(p);
        }
    }

    /// Claim, fill, publish one request slot acked under `token` (0:
    /// none); blocks (bounded, liveness-checked) while the ring is full —
    /// backpressure, never drops. Each retry drains the response ring: a
    /// server blocked on a full response ring stops consuming requests.
    /// A stopped server's closed ring fails at once, and what the token
    /// tracks fails with it.
    fn push_req(
        &self,
        token: u32,
        fill: impl FnOnce(&ReqHdr, *mut u8),
    ) -> std::result::Result<(), PushError<()>> {
        let seg = &self.seg;
        let fill = |off| {
            let h = req_hdr(seg, off);
            h.token.store(token, Ordering::Relaxed);
            // SAFETY: in-bounds payload region of the claimed slot.
            fill(h, unsafe { seg.as_ptr().add(off + REQ_HDR_SIZE) })
        };
        let stall = |probe| {
            self.progress(false);
            let gone = probe && self.server_dead();
            if gone {
                self.fail_all_pending();
            }
            !gone
        };
        if let Err(e) = self.req.push(fill, stall) {
            // Refused: what the token tracks fails with it.
            let pending = self.tokens.lock().remove(&token);
            if let Some(p) = pending {
                self.fail(p);
            }
            return Err(e);
        }
        Ok(())
    }
}

/// Fill a put's request header: `kind`, `len` bytes in this slot, placed
/// at `at`.
fn fill_put(h: &ReqHdr, kind: u32, len: usize, op: &Op<'_>, at: usize) {
    h.kind.store(kind, Ordering::Relaxed);
    h.len.store(len as u32, Ordering::Relaxed);
    h.dest_nid.store(op.dest.nid, Ordering::Relaxed);
    h.dest_pid.store(op.dest.pid, Ordering::Relaxed);
    h.init_nid.store(op.src.nid, Ordering::Relaxed);
    h.init_pid.store(op.src.pid, Ordering::Relaxed);
    h.op_id.store(op.id, Ordering::Relaxed);
    h.vaddr.store(op.vaddr.0, Ordering::Relaxed);
    h.total_len.store(op.len as u64, Ordering::Relaxed);
    h.offset.store(at as u64, Ordering::Relaxed);
}

/// The shm backend's [`Link`]: one request ring, slots copied per MTU, a
/// bulk region for the large lane, and acks the waiter drains.
impl Link for Arc<ClientInner> {
    type Route = ();
    /// A bulk extent, and whether the put's ack releases it (an extent
    /// the application reserved stays its own).
    type Desc = (Extent, bool);

    fn route(&self, _: NodeAddr, _: VirtAddr) -> Result<()> {
        Ok(())
    }

    /// The lane's single staging copy: caller buffer → a reserved extent.
    /// An exhausted (or disabled) region declines: eager still works —
    /// rendezvous is an optimisation, never a requirement.
    fn stage(&self, op: &Op<'_>, data: &[u8]) -> Option<(Extent, bool)> {
        let len = data.len();
        let Some((off, order)) = self.reserve_bulk(len) else {
            self.bulk.lock().stats.eager_fallbacks += 1;
            return None;
        };
        self.record(EventKind::BulkReserve, op.id, off as u64);
        // SAFETY: the extent was reserved from this segment's bulk region
        // and covers `len` bytes by construction. The copy completes
        // before the descriptor publishes (the ring slot's release store
        // orders it for the server's acquire pop).
        unsafe {
            let dst = self.seg.as_ptr().add(self.geo.bulk_base + off);
            std::ptr::copy_nonoverlapping(data.as_ptr(), dst, len);
        }
        Some(((off, order, len), true))
    }

    /// Eager: one request slot per MTU, the payload copied in, each
    /// `RingEnqueue`d with its offset. A descriptor: one RTS slot carrying
    /// the extent's offset, always tokened — its ack releases the extent.
    fn push(
        &self,
        _: (),
        op: &Op<'_>,
        unit: Unit<'_, (Extent, bool)>,
        notify: Option<Arc<PutNotify>>,
    ) -> std::result::Result<(), PushError<()>> {
        match unit {
            Unit::Eager(data) => {
                let ranges = mtu_ranges(data.len(), self.geo.mtu);
                let token = self.track(notify, None);
                for (s, e) in ranges {
                    op.enqueued((op.offset + s) as u64);
                    self.push_req(token, |h, payload| {
                        fill_put(h, REQ_PUT, e - s, op, op.offset + s);
                        // SAFETY: payload points at this slot's mtu-sized
                        // region and e - s <= mtu.
                        unsafe {
                            std::ptr::copy_nonoverlapping(data.as_ptr().add(s), payload, e - s);
                        }
                    })?;
                }
                Ok(())
            }
            Unit::Desc((extent, owned)) => {
                let token = self.track(notify, owned.then_some(extent));
                op.enqueued(op.offset as u64);
                self.push_req(token, |h, payload| {
                    fill_put(h, REQ_BULK, 8, op, op.offset);
                    // SAFETY: the payload region is at least MTU (> 8) bytes.
                    unsafe { std::ptr::write_unaligned(payload as *mut u64, extent.0 as u64) };
                })
            }
        }
    }

    /// One tokened marker, acked `RSP_FLUSH_ACK` under the server's flush
    /// rule (see the module docs).
    fn push_flush(&self) -> Arc<PutNotify> {
        let done = PutNotify::new(1);
        let token = self.track(Some(done.clone()), None);
        let _ = self.push_req(token, |h, _| {
            h.kind.store(REQ_FLUSH, Ordering::Relaxed);
            h.len.store(0, Ordering::Relaxed);
        });
        done
    }

    fn hook(&self) -> Option<Arc<dyn Progress>> {
        Some(self.clone())
    }
}

impl Progress for ClientInner {
    fn drive(&self) {
        self.progress(false);
    }

    fn arm(&self) {
        self.armed.fetch_add(1, Ordering::SeqCst);
        if let Some(pump) = self.pump.get() {
            pump.unpark();
        }
    }

    fn disarm(&self) {
        self.armed.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The initiating (client) half: maps a server's segment and speaks the
/// wire protocol through it — the crate's one send engine over this
/// link. All puts go through the request ring; acks come back through
/// the response ring, drained by whoever waits on them (a [`PutFuture`]
/// poll, a [`flush`](ShmClient::flush)) and by a parked response pump
/// only for a waiter that stopped spinning.
///
/// Lanes: a put above the [`eager_threshold`](ShmClient::eager_threshold)
/// is copied into a bulk extent and crosses as one RTS descriptor, or in
/// eager slots while the region is exhausted; a put from a registered
/// extent ([`put_from_extent`](ShmClient::put_from_extent)) copies nothing.
pub struct ShmClient {
    engine: Initiator<Arc<ClientInner>>,
    pump: Option<JoinHandle<()>>,
}

link::initiator_api!(ShmClient, "shm");

impl ShmClient {
    /// Map the segment at `path` (waiting up to 10 s for the server to
    /// initialise it) and start the response pump, which stays parked
    /// (ticking every 10 ms) while no waiter has armed it.
    pub fn connect(path: &Path, src: NodeAddr) -> Result<ShmClient> {
        ShmClient::connect_with(path, src, None)
    }

    /// [`connect`](ShmClient::connect) with an initiator-side telemetry
    /// recorder for `Submit`/`RingEnqueue` events (pass the server's
    /// recorder in an in-process pair to trace the full put lifecycle).
    pub fn connect_with(
        path: &Path,
        src: NodeAddr,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<ShmClient> {
        let refuse = |why: String| {
            let path = path.display();
            Err(RvmaError::TransportFailed(format!("segment {path}: {why}")))
        };
        let t0 = Instant::now();
        let seg = loop {
            match ShmSegment::open(path) {
                Ok(seg) if seg.len() >= HDR_SPACE => {
                    match header(&seg).state.load(Ordering::Acquire) {
                        STATE_READY => break seg,
                        STATE_SERVER_GONE => return refuse("server already gone".into()),
                        _ => {}
                    }
                }
                Ok(_) | Err(_) if t0.elapsed() < CONNECT_TIMEOUT => {}
                Ok(_) => return refuse("never became ready".into()),
                Err(e) => return Err(e),
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let seg = Arc::new(seg);
        let hdr = header(&seg);
        let magic = hdr.magic.load(Ordering::Relaxed);
        let version = hdr.version.load(Ordering::Relaxed);
        if magic != SHM_MAGIC || version != SHM_VERSION {
            let found = format!("magic {magic:#x}, version {version}");
            return refuse(format!(
                "not an RVMA segment of wire version {SHM_VERSION} ({found})"
            ));
        }
        let geo = SegGeometry::new(
            hdr.mtu.load(Ordering::Relaxed) as usize,
            hdr.req_slots.load(Ordering::Relaxed) as usize,
            hdr.rsp_slots.load(Ordering::Relaxed) as usize,
            hdr.bulk_bytes.load(Ordering::Relaxed) as usize,
        );
        let eager_threshold = hdr.eager_threshold.load(Ordering::Relaxed) as usize;
        let fits = geo.mtu > 0 && seg.len() >= geo.total;
        let Some((req, rsp)) = geo.rings(&seg).filter(|_| fits) else {
            let (mapped, slots) = (seg.len(), (geo.req_slots, geo.rsp_slots));
            return refuse(format!(
                "invalid geometry ({mapped} B mapped, {} B required, {slots:?} slots)",
                geo.total
            ));
        };
        hdr.client_pid.store(std::process::id(), Ordering::SeqCst);

        // Write-fault the client-owned regions up front — the shm
        // analogue of RDMA buffer registration. Extents in the bulk
        // region and request-slot payloads are written by this process
        // only (the server just reads them at gather/deliver), so the
        // touch cannot race a peer store; without it every first store
        // into a fresh rendezvous extent takes a write-protect fault on
        // the datapath, which dominates large-message goodput.
        seg.prefault_writable(geo.req_at + CTRL_SPACE, geo.req_stride * geo.req_slots);
        if geo.bulk_bytes > 0 {
            seg.prefault_writable(geo.bulk_base, geo.bulk_bytes);
        }

        let nacks = NackSink::default();
        let inner = Arc::new(ClientInner {
            req,
            rsp,
            seg,
            geo,
            drain_claimed: AtomicBool::new(false),
            armed: AtomicU32::new(0),
            pump: OnceLock::new(),
            src,
            next_token: AtomicU32::new(0),
            tokens: Mutex::new(HashMap::new()),
            nacks: nacks.clone(),
            stop: AtomicBool::new(false),
            telemetry: telemetry.clone(),
            bulk: Mutex::new(BulkAllocator::new(geo.bulk_bytes)),
        });
        let pump = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("rvma-shm-pump".into())
                .spawn(move || rsp_pump(inner))
                .expect("spawn shm response pump")
        };
        let _ = inner.pump.set(pump.thread().clone());
        let engine = Initiator::new(inner, src, (geo.mtu, eager_threshold), telemetry, nacks);
        Ok(ShmClient {
            engine,
            pump: Some(pump),
        })
    }

    /// The wire MTU agreed with the server.
    pub fn mtu(&self) -> usize {
        self.engine.link.geo.mtu
    }

    /// The lane policy the server published in the segment header: puts
    /// longer than this take the rendezvous lane (0 forces it for every
    /// non-empty put, `usize::MAX` disables it).
    pub fn eager_threshold(&self) -> usize {
        self.engine.eager_threshold
    }

    /// Reserve a client-owned **registered extent** in the segment's bulk
    /// region — the shm analogue of an RDMA-registered send buffer. The
    /// application writes payload directly into it
    /// ([`BulkExtent::as_mut_slice`]) and puts from it with
    /// [`put_from_extent`](ShmClient::put_from_extent): no staging copy at
    /// all, the server gathers straight from the extent (one copy per
    /// byte, the one no lane can avoid). Returns `None` when the region
    /// is exhausted (after one drain of pending acks) or the rendezvous
    /// lane is disabled. The extent is returned to the allocator on drop.
    pub fn reserve_extent(&self, len: usize) -> Option<BulkExtent> {
        let inner = &self.engine.link;
        let (off, order) = inner.reserve_bulk(len)?;
        inner.record(EventKind::BulkReserve, 0, off as u64);
        Some(BulkExtent {
            inner: inner.clone(),
            off,
            order,
            len,
        })
    }

    /// Zero-copy `RVMA_Put` of a registered extent's contents: one RTS
    /// descriptor through the request ring, no payload copy client-side.
    /// The returned future resolves once the server finished gathering
    /// (same ack as [`put_notify_at`](ShmClient::put_notify_at)) — until
    /// then the extent contents must not be rewritten, and the extent
    /// must not be dropped (the RDMA "don't deregister while posted"
    /// contract).
    pub fn put_from_extent(
        &self,
        ext: &BulkExtent,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
    ) -> Result<PutFuture> {
        assert!(
            Arc::ptr_eq(&ext.inner, &self.engine.link),
            "extent belongs to a different client"
        );
        // The application owns the extent's lifetime: the ack resolves
        // the future but releases nothing.
        let desc = ((ext.off, ext.order, ext.len), false);
        let at = (dest, vaddr, offset);
        notified(self.engine.put_desc(at, ext.len, desc, true))
    }

    /// Drain barrier: blocks until every previously submitted fragment
    /// reached its final disposition at the server, link-level
    /// retransmissions included (see the module docs). Errors
    /// [`TransportFailed`](RvmaError::TransportFailed) once the server has
    /// stopped or died.
    pub fn flush(&self) -> Result<()> {
        self.engine.flush()
    }

    /// Bulk-region accounting. After a [`flush`](ShmClient::flush) with
    /// no puts in flight, `reserved_bytes == released_bytes` and
    /// `in_flight == 0` — the no-extent-leak invariant.
    pub fn bulk_stats(&self) -> BulkStats {
        self.engine.link.bulk.lock().stats
    }
}

impl Drop for ShmClient {
    fn drop(&mut self) {
        let inner = &self.engine.link;
        inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            h.thread().unpark();
            inner.rsp.doorbell().ring();
            let _ = h.join();
        }
    }
}

/// The client's response pump: the fallback drainer. Parked, it ticks
/// every [`PUMP_TICK`] to drain acks nobody waits for. Armed by a waiter
/// that ran out of spin, it sleeps on the response doorbell and drains
/// every ack, until no armed waiter is left. Either way it probes the
/// server at most once a tick, and a dead server fails everything
/// outstanding, so no future or flush ever hangs on a dead peer.
fn rsp_pump(inner: Arc<ClientInner>) {
    let armed = || inner.armed.load(Ordering::SeqCst) > 0;
    let mut probed = Instant::now();
    // Waits out another thread's hold on the drain while acks are queued.
    let mut idle = Idle::new();
    while !inner.stop.load(Ordering::Acquire) {
        let probe = probed.elapsed() >= PUMP_TICK;
        if probe {
            probed = Instant::now();
        }
        let handled = inner.progress(probe);
        if handled {
            idle.done();
        }
        if !armed() {
            std::thread::park_timeout(PUMP_TICK);
        } else if !handled {
            let ready = || inner.rsp.ready() || inner.stop.load(Ordering::Acquire) || !armed();
            if !inner.rsp.doorbell().sleep_unless(ready, DOORBELL_WAIT) {
                idle.snooze();
            }
        }
    }
}

/// Act on one response slot, read in place while the drain owns it. A
/// flush marker's ack resolves its token like a put's.
fn handle_rsp(inner: &ClientInner, h: &RspHdr) {
    let token = h.token.load(Ordering::Relaxed);
    match h.kind.load(Ordering::Relaxed) {
        RSP_PUT_DONE | RSP_FLUSH_ACK => {
            // A duplicate ack (possible only through fault injection)
            // finds the token already removed and is ignored — that is
            // what makes the extent release below exactly-once.
            let mut tokens = inner.tokens.lock();
            let Some(p) = tokens.get(&token) else {
                return;
            };
            let nacked = h.nacked.load(Ordering::Relaxed) != 0;
            if !p
                .notify
                .as_ref()
                .is_none_or(|n| n.fragments_done(1, nacked))
            {
                return;
            }
            let extent = tokens.remove(&token).and_then(|p| p.extent);
            drop(tokens);
            if let Some(extent) = extent {
                inner.release_extent(extent);
            }
        }
        RSP_NACK => {
            let vaddr = VirtAddr::new(h.vaddr.load(Ordering::Relaxed));
            let reason = decode_nack(h.reason.load(Ordering::Relaxed));
            inner.nacks.lock().push((vaddr, reason));
        }
        _ => {}
    }
}

/// Server + client halves over one real segment in a single process — the
/// unit-test/bench harness shape (the conformance suite additionally runs
/// the client in a forked child process; the wire protocol is identical).
pub fn shm_pair(
    mtu: usize,
    config: EndpointConfig,
    src: NodeAddr,
) -> Result<(ShmServer, ShmClient)> {
    let server = ShmServer::create_default(mtu, config)?;
    let telemetry = server.telemetry();
    let client = ShmClient::connect_with(server.path(), src, telemetry)?;
    Ok((server, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Threshold;
    use crate::shm::shm_supported;

    const SERVER: NodeAddr = NodeAddr::node(0);
    const CLIENT: NodeAddr = NodeAddr::node(1);

    #[test]
    fn geometry_is_consistent_and_aligned() {
        let g = SegGeometry::new(2048, 1024, 512, 1 << 20);
        assert_eq!(g.req_at % 64, 0);
        assert_eq!(g.rsp_at % 64, 0);
        assert_eq!(g.req_stride % 64, 0);
        assert_eq!(g.bulk_base % 64, 0);
        assert!(g.req_stride >= 8 + REQ_HDR_SIZE + 2048);
        assert!(g.bulk_base >= g.rsp_at + CTRL_SPACE + 512 * RSP_STRIDE);
        assert!(g.total >= g.bulk_base + (1 << 20));
        assert_eq!(std::mem::size_of::<ReqHdr>(), REQ_HDR_SIZE);
        assert_eq!(std::mem::size_of::<RspHdr>(), RSP_HDR_SIZE);
        assert!(std::mem::size_of::<SegHeader>() <= HDR_SPACE);
        assert_eq!(
            CTRL_SPACE, 192,
            "one cache line per side, one for the doorbell"
        );
        // A zero-sized bulk region must not change the classic layout.
        let g0 = SegGeometry::new(2048, 1024, 512, 0);
        assert_eq!(g0.total, round64(g0.bulk_base));
    }

    #[test]
    fn bulk_allocator_splits_merges_and_exhausts() {
        let mut a = BulkAllocator::new(1 << 12); // 4 KiB region
        let (o1, r1) = a.reserve(100).unwrap(); // order 7 (128 B)
        assert_eq!(r1, 7);
        let (o2, r2) = a.reserve(1 << 11).unwrap(); // order 11
        assert_eq!(r2, 11);
        assert_ne!(o1, o2);
        // Too big for what remains → None (caller falls back to eager).
        assert!(a.reserve(1 << 11).is_none());
        // Oversize vs the whole region → None.
        assert!(a.reserve((1 << 12) + 1).is_none());
        a.release(o1, r1);
        a.release(o2, r2);
        // Everything merged back: the full region is allocatable again.
        let (o3, r3) = a.reserve(1 << 12).unwrap();
        assert_eq!((o3, r3), (0, 12));
        a.release(o3, r3);
    }

    #[test]
    fn pair_roundtrip_multi_fragment_put() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x10), Threshold::bytes(1000))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 1000]).unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        client.put(SERVER, VirtAddr::new(0x10), &payload).unwrap();
        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .expect("epoch completes across the segment");
        assert_eq!(buf.data(), &payload[..], "byte-exact delivery");
    }

    #[test]
    fn put_notify_resolves_including_zero_length() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(128, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x20), Threshold::ops(2))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; 256]).unwrap();
        let f1 = client
            .put_notify(SERVER, VirtAddr::new(0x20), &[7u8; 200])
            .unwrap();
        // Zero-length put: no wire payload, but the future must resolve.
        let f2 = client.put_notify(SERVER, VirtAddr::new(0x20), &[]).unwrap();
        let d1 = pollster::block_on(f1);
        let d2 = pollster::block_on(f2);
        assert_eq!(d1.fragments, 2);
        assert!(!d1.nacked);
        assert_eq!(d2.fragments, 1);
        assert!(!d2.nacked);
    }

    #[test]
    fn registered_extent_put_is_byte_exact_and_copyless() {
        if !shm_supported() {
            return;
        }
        const LEN: usize = 24 << 10; // multi-MTU, above the default threshold
        let (server, client) = shm_pair(4096, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x30), Threshold::bytes(2 * LEN as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 2 * LEN]).unwrap();

        let mut ext = client.reserve_extent(LEN).expect("bulk region");
        assert_eq!(ext.len(), LEN);
        for (i, b) in ext.as_mut_slice().iter_mut().enumerate() {
            *b = (i % 253) as u8;
        }
        // Same extent put twice at different offsets: reuse after the ack
        // resolves, contents untouched in between.
        let f1 = client
            .put_from_extent(&ext, SERVER, VirtAddr::new(0x30), 0)
            .unwrap();
        assert!(!pollster::block_on(f1).nacked);
        let f2 = client
            .put_from_extent(&ext, SERVER, VirtAddr::new(0x30), LEN)
            .unwrap();
        assert!(!pollster::block_on(f2).nacked);

        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .expect("epoch completes");
        for half in 0..2 {
            for (i, &b) in buf.data()[half * LEN..(half + 1) * LEN].iter().enumerate() {
                assert_eq!(b, (i % 253) as u8, "byte {i} of half {half}");
            }
        }
        // Zero staging, zero slot-pop: the gather is the only copy.
        assert_eq!(client.staged_bytes(), 0, "registered puts must not stage");
        assert_eq!(server.wire_copied(), 0, "RTS descriptors carry no payload");
        assert_eq!(ep.stats().bytes_copied, 2 * LEN as u64);

        // Dropping the extent returns it: the full region is allocatable
        // again and the quiesce balance holds.
        drop(ext);
        let stats = client.bulk_stats();
        assert_eq!(stats.reserved_bytes, stats.released_bytes);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn nacks_cross_the_segment() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let _ep = server.add_endpoint(SERVER);
        // No mailbox at this vaddr → NoSuchMailbox NACK back to the client.
        client
            .put(SERVER, VirtAddr::new(0x999), &[1, 2, 3])
            .unwrap();
        client.flush().unwrap();
        let nacks = client.take_nacks();
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0], (VirtAddr::new(0x999), NackReason::NoSuchMailbox));
    }

    #[test]
    fn unknown_request_kind_is_released_undelivered_and_acked_refused() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x80), Threshold::ops(1))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
        // A tokened slot of a kind no server speaks, addressed to a live
        // mailbox: it must not be delivered, and its countdown must end.
        let inner = &client.engine.link;
        let notify = PutNotify::new(1);
        let token = inner.track(Some(notify.clone()), None);
        inner
            .push_req(token, |h, payload| {
                h.kind.store(0x7F, Ordering::Relaxed);
                h.len.store(8, Ordering::Relaxed);
                h.dest_nid.store(SERVER.nid, Ordering::Relaxed);
                h.dest_pid.store(SERVER.pid, Ordering::Relaxed);
                h.init_nid.store(CLIENT.nid, Ordering::Relaxed);
                h.init_pid.store(CLIENT.pid, Ordering::Relaxed);
                h.op_id.store(1, Ordering::Relaxed);
                h.vaddr.store(0x80, Ordering::Relaxed);
                h.total_len.store(8, Ordering::Relaxed);
                h.offset.store(0, Ordering::Relaxed);
                // SAFETY: the payload region is at least MTU (> 8) bytes.
                unsafe { std::ptr::write_bytes(payload, 0xEE, 8) };
            })
            .map_err(crate::link::refused)
            .unwrap();
        let done = pollster::block_on(PutFuture::from_notify(notify, inner.hook()));
        assert!(done.nacked, "the unknown slot is acked as refused");
        client.flush().unwrap();
        assert_eq!(ep.stats().fragments_accepted, 0, "nothing was delivered");
        assert_eq!(server.delivered(), 0);
        assert!(note.poll().is_none());
        assert!(client.take_nacks().is_empty());
        // The ring carries on: the next put lands.
        client.put(SERVER, VirtAddr::new(0x80), &[1; 8]).unwrap();
        client.flush().unwrap();
        assert_eq!(note.poll().expect("epoch complete").data(), &[1; 8]);
    }

    #[test]
    fn flush_holds_for_parked_retries() {
        if !shm_supported() {
            return;
        }
        let cfg = EndpointConfig {
            dedup_window: 1 << 12,
            fault_model: crate::retry::FaultModel {
                drop_p: 0.3,
                ..crate::retry::FaultModel::NONE
            },
            fault_seed: 0xF00D,
            ..Default::default()
        };
        let (server, client) = shm_pair(32, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x30), Threshold::bytes(4096))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; 4096]).unwrap();
        client
            .put(SERVER, VirtAddr::new(0x30), &[0xAB; 4096])
            .unwrap();
        // The barrier must cover the fault layer's parked retransmissions:
        // after it, the epoch is complete without any further waiting.
        client.flush().unwrap();
        let buf = note.poll().expect("flush drained every retransmission");
        assert!(buf.data().iter().all(|&b| b == 0xAB));
        let stats = server.fault_stats().unwrap();
        assert!(stats.dropped() > 0, "fault model actually fired");
        assert_eq!(server.pending_retries(), 0);
    }

    #[test]
    fn rendezvous_roundtrip_is_byte_exact_and_releases_extent() {
        if !shm_supported() {
            return;
        }
        let cfg = EndpointConfig {
            shm_bulk_bytes: 1 << 20,
            ..Default::default()
        };
        let (server, client) = shm_pair(64, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let len = 64 * 1024; // far above the default eager threshold
        let win = ep
            .init_window(VirtAddr::new(0x50), Threshold::bytes(len as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; len]).unwrap();
        let payload: Vec<u8> = (0..len as u32).map(|i| (i % 239) as u8).collect();
        client.put(SERVER, VirtAddr::new(0x50), &payload).unwrap();
        client.flush().unwrap();
        let buf = note.poll().expect("rendezvous epoch complete");
        assert_eq!(buf.data(), &payload[..], "byte-exact gather from extent");
        // Extent balance: the ack released exactly what was reserved.
        let bs = client.bulk_stats();
        assert_eq!(bs.reserved_bytes, len as u64);
        assert_eq!(bs.released_bytes, len as u64);
        assert_eq!(bs.in_flight, 0);
        assert_eq!(bs.eager_fallbacks, 0);
        // Zero eager wire copies: the worker never copied a slot payload.
        assert_eq!(server.wire_copied(), 0);
    }

    #[test]
    fn rendezvous_notify_future_resolves_as_one_fragment() {
        if !shm_supported() {
            return;
        }
        let cfg = EndpointConfig {
            shm_bulk_bytes: 1 << 20,
            ..Default::default()
        };
        let (server, client) = shm_pair(64, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let len = 32 * 1024;
        let win = ep
            .init_window(VirtAddr::new(0x55), Threshold::bytes(len as u64))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; len]).unwrap();
        let fut = client
            .put_notify(SERVER, VirtAddr::new(0x55), &vec![0x5A; len])
            .unwrap();
        let d = pollster::block_on(fut);
        assert_eq!(d.fragments, 1, "an RTS is one logical fragment");
        assert!(!d.nacked);
        client.flush().unwrap();
        assert_eq!(client.bulk_stats().in_flight, 0);
    }

    #[test]
    fn rendezvous_survives_retransmitted_rts_without_extent_leak() {
        if !shm_supported() {
            return;
        }
        // Drop AND duplicate dice on the RTS descriptor: deferred copies
        // must gather bytes that are still valid, duplicated deliveries
        // must dedup, and exactly one ack must release each extent.
        let cfg = EndpointConfig {
            dedup_window: 1 << 15,
            shm_bulk_bytes: 1 << 22,
            fault_model: crate::retry::FaultModel {
                drop_p: 0.3,
                dup_p: 0.2,
                ..crate::retry::FaultModel::NONE
            },
            fault_seed: 0xB17E,
            ..Default::default()
        };
        let (server, client) = shm_pair(64, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let len = 16 * 1024;
        let rounds = 8u64;
        let win = ep
            .init_window(VirtAddr::new(0x60), Threshold::bytes(len as u64))
            .unwrap();
        let mut notes = Vec::new();
        for _ in 0..rounds {
            notes.push(win.post_buffer(vec![0u8; len]).unwrap());
        }
        let payload: Vec<u8> = (0..len as u32).map(|i| (i % 241) as u8).collect();
        for _ in 0..rounds {
            client.put(SERVER, VirtAddr::new(0x60), &payload).unwrap();
        }
        client.flush().unwrap();
        for mut note in notes {
            let buf = note.poll().expect("every faulted epoch completes");
            assert_eq!(buf.data(), &payload[..], "byte-exact under faults");
        }
        let bs = client.bulk_stats();
        assert_eq!(bs.reserved_bytes, rounds * len as u64);
        assert_eq!(
            bs.released_bytes, bs.reserved_bytes,
            "no extent leaked under drop/dup faults"
        );
        assert_eq!(bs.in_flight, 0);
        assert_eq!(server.pending_retries(), 0);
        let stats = server.fault_stats().unwrap();
        assert!(
            stats.dropped() + stats.duplicated() > 0,
            "dice actually fired"
        );
    }

    #[test]
    fn bulk_exhaustion_falls_back_to_eager() {
        if !shm_supported() {
            return;
        }
        // A 16 KiB region cannot hold a 32 KiB extent: that put must fall
        // back to the eager fragment lane deterministically, while a
        // 12 KiB put still rides rendezvous. Both must land byte-exact.
        let cfg = EndpointConfig {
            shm_bulk_bytes: 16 << 10,
            ..Default::default()
        };
        let (server, client) = shm_pair(256, cfg, CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let big = 32 * 1024; // > bulk region → eager fallback
        let small = 12 * 1024; // fits → rendezvous
        let win = ep
            .init_window(VirtAddr::new(0x70), Threshold::bytes((big + small) as u64))
            .unwrap();
        let mut note = win.post_buffer(vec![0u8; big + small]).unwrap();
        let a: Vec<u8> = vec![0xA1; big];
        let b: Vec<u8> = vec![0xB2; small];
        client.put_at(SERVER, VirtAddr::new(0x70), 0, &a).unwrap();
        client.put_at(SERVER, VirtAddr::new(0x70), big, &b).unwrap();
        client.flush().unwrap();
        let buf = note.poll().expect("both puts landed");
        assert_eq!(&buf.data()[..big], &a[..]);
        assert_eq!(&buf.data()[big..], &b[..]);
        let bs = client.bulk_stats();
        assert_eq!(bs.eager_fallbacks, 1, "oversize put fell back exactly once");
        assert_eq!(bs.reserved_bytes, small as u64);
        assert_eq!(bs.released_bytes, small as u64);
        assert_eq!(bs.in_flight, 0);
        // The fallback's bytes crossed as slot copies; the rendezvous
        // put's did not.
        assert_eq!(server.wire_copied(), big as u64);
    }

    #[test]
    fn server_drop_fails_client_cleanly() {
        if !shm_supported() {
            return;
        }
        let (server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x40), Threshold::ops(1))
            .unwrap();
        let _n = win.post_buffer(vec![0u8; 64]).unwrap();
        client.put(SERVER, VirtAddr::new(0x40), &[1u8; 64]).unwrap();
        client.flush().unwrap();
        drop(server);
        // New work against a gone server errors instead of hanging.
        let err = client.flush();
        assert!(matches!(err, Err(RvmaError::TransportFailed(_))));
    }

    #[test]
    fn put_after_stop_fails_at_once() {
        if !shm_supported() {
            return;
        }
        let (mut server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let _ep = server.add_endpoint(SERVER);
        server.stop();
        // The request ring has room, but it is closed: the put must fail,
        // not sit in a ring no worker will pop again.
        let put = client.put_at(SERVER, VirtAddr::new(0x10), 0, &[1u8; 8]);
        assert!(
            matches!(put, Err(RvmaError::TransportFailed(_))),
            "a put after stop was {put:?}"
        );
        assert_eq!(server.delivered(), 0);
    }

    #[test]
    fn stop_racing_puts_strands_none() {
        if !shm_supported() {
            return;
        }
        const PUTS: usize = 1 << 16;
        let (mut server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x10), Threshold::ops(PUTS as u64 + 1))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; 8 * PUTS]).unwrap();
        let accepted = std::thread::scope(|s| {
            let spammer = s.spawn(|| {
                let mut ok = 0u64;
                for i in 0..PUTS {
                    match client.put_at(SERVER, VirtAddr::new(0x10), 8 * i, &[1u8; 8]) {
                        Ok(()) => ok += 1,
                        Err(e) => assert!(matches!(e, RvmaError::TransportFailed(_)), "{e:?}"),
                    }
                }
                ok
            });
            std::thread::sleep(Duration::from_millis(2));
            server.stop();
            spammer.join().unwrap()
        });
        // Each put is one fragment: every accepted one was delivered.
        assert_eq!(server.delivered(), accepted);
    }

    #[test]
    fn connect_rejects_invalid_ring_capacities() {
        if !shm_supported() {
            return;
        }
        type Word = fn(&SegHeader) -> &AtomicU64;
        let cases: [(&str, Word, u64); 4] = [
            ("req_slots", |h| &h.req_slots, 0),
            ("req_slots", |h| &h.req_slots, 3),
            ("req_slots", |h| &h.req_slots, 1 << 62),
            ("rsp_slots", |h| &h.rsp_slots, 0),
        ];
        for (field, word, value) in cases {
            let server = ShmServer::create_default(64, EndpointConfig::default()).unwrap();
            word(header(&server.inner.seg)).store(value, Ordering::Relaxed);
            let connected = ShmClient::connect(server.path(), CLIENT);
            assert!(
                matches!(connected, Err(RvmaError::TransportFailed(_))),
                "a header with {field} = {value} was accepted"
            );
        }
    }

    #[test]
    fn stop_gives_up_a_dead_clients_claimed_slot() {
        if !shm_supported() {
            return;
        }
        let (mut server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        // The client claimed a request slot and died before publishing it.
        assert!(client.engine.link.req.claim().is_ok(), "the ring has room");
        let mut child = std::process::Command::new("/bin/true").spawn().unwrap();
        child.wait().unwrap();
        header(&client.engine.link.seg)
            .client_pid
            .store(child.id(), Ordering::SeqCst);
        let t0 = Instant::now();
        server.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stop waited {:?} on a dead client's slot",
            t0.elapsed()
        );
    }

    #[test]
    fn scribbled_doorbells_cost_wakes_not_puts() {
        if !shm_supported() {
            return;
        }
        const PUTS: usize = 64;
        let (mut server, client) = shm_pair(64, EndpointConfig::default(), CLIENT).unwrap();
        let ep = server.add_endpoint(SERVER);
        let win = ep
            .init_window(VirtAddr::new(0x10), Threshold::ops(PUTS as u64 + 1))
            .unwrap();
        let _note = win.post_buffer(vec![0u8; 8 * PUTS]).unwrap();
        // A peer wrote `waiters = u32::MAX` and a garbage `seq` into both
        // doorbells: a sleeper's own advertisement wraps `waiters` to 0,
        // so every wake is lost and each sleep runs to its bound.
        for ring in [&server.inner.req, &server.inner.rsp] {
            ring.doorbell().scribble(0x5eed_f00d, u32::MAX);
        }
        for i in 0..PUTS {
            // Spaced, so the server goes idle and sleeps between puts.
            std::thread::sleep(Duration::from_millis(1));
            client
                .put_at(SERVER, VirtAddr::new(0x10), 8 * i, &[1u8; 8])
                .unwrap();
        }
        client.flush().unwrap();
        assert_eq!(server.delivered(), PUTS as u64);
        let t0 = Instant::now();
        server.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stop waited {:?} behind a scribbled doorbell",
            t0.elapsed()
        );
    }
}
