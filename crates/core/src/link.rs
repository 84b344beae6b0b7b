//! The send engine: one initiator above every wire.
//!
//! PAPER.md §III gives the initiator one `RVMA_Put` whatever the network.
//! [`Initiator`] is that put, written once: the lane rule, op ids and the
//! `Submit`/`RingEnqueue` events, the countdown behind a [`PutFuture`],
//! the NACK sink, the staged-byte count, the closed-link error and the
//! flush. [`Link`] lists what differs between the wires — the send-side
//! mirror of [`Wire`](crate::wire::Wire) — and the engine is generic over
//! it, so a put is statically dispatched.
//!
//! * **Lanes.** A payload above the eager threshold crosses as one
//!   descriptor when the link takes it ([`Link::lend`] an owned `Bytes`
//!   as it is, [`Link::stage`] a copy of a borrowed slice); otherwise it
//!   goes eager, cut at the MTU.
//! * **Flush.** A flush is a put future: its markers share one countdown,
//!   each wire's flush ack steps it down, and a marker the link refuses
//!   steps it down failed at once. The wait is [`PutFuture::wait`].

use crate::addr::{NodeAddr, VirtAddr};
use crate::csync::{self, AtomicBool, AtomicU64 as CheckedU64, Idle, Mutation};
use crate::endpoint::{mtu_ranges, Fragment};
use crate::error::{NackReason, Result, RvmaError};
use crate::notify::{park_waker, AtomicWaker};
use crate::ring::PushError;
use crate::telemetry::{self, EventKind, Telemetry};
use bytes::Bytes;
use parking_lot::Mutex;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Where an initiator's asynchronous NACKs land.
pub(crate) type NackSink = Arc<Mutex<Vec<(VirtAddr, NackReason)>>>;

/// Where a put lands: destination, mailbox, and offset in its buffer.
pub(crate) type At = (NodeAddr, VirtAddr, usize);

/// What a put hands its link.
pub(crate) enum Unit<'a, D> {
    /// Copied and cut at the MTU.
    Eager(&'a [u8]),
    /// One descriptor, whatever its length.
    Desc(D),
}

/// What one wire does differently on the send side.
pub(crate) trait Link {
    /// Where a put's units go: a worker ring, or nothing (one ring).
    type Route: Copy;
    /// A large-lane descriptor: the caller's `Bytes`, or a bulk extent.
    type Desc;

    /// Route a put; fails only for a destination absent from the fabric.
    fn route(&self, dest: NodeAddr, vaddr: VirtAddr) -> Result<Self::Route>;
    /// Take an owned payload as its own descriptor, or hand it back (by
    /// default: nothing crosses by reference).
    fn lend(&self, data: Bytes) -> std::result::Result<Self::Desc, Bytes> {
        Err(data)
    }
    /// Copy a borrowed payload into large-lane storage, or decline (by
    /// default: a borrowed slice stays eager at any size).
    #[inline(always)]
    fn stage(&self, _: &Op<'_>, _: &[u8]) -> Option<Self::Desc> {
        None
    }
    /// Push a put's units, blocking while the link is full; `notify`
    /// counts them down at their final disposition.
    fn push(
        &self,
        route: Self::Route,
        op: &Op<'_>,
        unit: Unit<'_, Self::Desc>,
        notify: Option<Arc<PutNotify>>,
    ) -> std::result::Result<(), PushError<()>>;
    /// Push one flush's markers and return their countdown: an ack steps
    /// it down, a marker the link refuses at once (failed).
    fn push_flush(&self) -> Arc<PutNotify>;
    /// What a future drives when its waiter must drain the acks itself (by
    /// default nothing: the link counts futures down on its own).
    fn hook(&self) -> Option<Arc<dyn Progress>> {
        None
    }
}

/// The one closed-link error: the destination exists, the link to it is
/// gone. (A destination absent from the fabric is `UnknownDestination`.)
pub(crate) fn refused(e: PushError<()>) -> RvmaError {
    RvmaError::TransportFailed(match e {
        PushError::Closed(()) => "link closed".into(),
        PushError::Full(()) => "peer gone (link stalled)".into(),
    })
}

/// A notified put's future: the engine returns one whenever asked to.
pub(crate) fn notified(put: Result<Option<PutFuture>>) -> Result<PutFuture> {
    put.map(|f| f.expect("a notified put returns its future"))
}

/// The `pub` put API of a wire's initiator, written once for both: `$ty`
/// holds its engine in the field `engine`. Which lane a put takes is the
/// wire's, stated in `$ty`'s docs.
macro_rules! initiator_api {
    ($ty:ident, $backend:literal) => {
        impl $ty {
            /// The initiator's source address.
            pub fn src(&self) -> NodeAddr {
                self.engine.src
            }

            /// `RVMA_Put` at offset 0.
            pub fn put(&self, dest: NodeAddr, vaddr: VirtAddr, data: &[u8]) -> Result<()> {
                self.put_at(dest, vaddr, 0, data)
            }

            /// Asynchronous `RVMA_Put` at an explicit buffer offset:
            /// enqueue and return. Delivery, counting and completion
            /// happen at the target's wire worker; a refusal comes back
            /// as an asynchronous NACK. All fragments of a put target one
            /// mailbox, so submission order is preserved end-to-end
            /// unless the network reorders. A full link **blocks** the
            /// put until a slot frees; it never drops.
            pub fn put_at(
                &self,
                dest: NodeAddr,
                vaddr: VirtAddr,
                offset: usize,
                data: &[u8],
            ) -> Result<()> {
                let at = (dest, vaddr, offset);
                self.engine.put(at, data, false).map(drop)
            }

            /// Notified put at offset 0 (see `put_notify_at`).
            pub fn put_notify(
                &self,
                dest: NodeAddr,
                vaddr: VirtAddr,
                data: &[u8],
            ) -> Result<PutFuture> {
                self.put_notify_at(dest, vaddr, 0, data)
            }

            /// `put_at` returning a [`PutFuture`] that resolves when every
            /// fragment of **this** put reached its final disposition at
            /// the target (delivered, or NACKed): the initiator's
            /// buffer-reuse point.
            pub fn put_notify_at(
                &self,
                dest: NodeAddr,
                vaddr: VirtAddr,
                offset: usize,
                data: &[u8],
            ) -> Result<PutFuture> {
                $crate::link::notified(self.engine.put((dest, vaddr, offset), data, true))
            }

            /// Drain the asynchronous NACKs received so far; complete for
            /// every put submitted before the last flush.
            pub fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
                self.engine.take_nacks()
            }

            /// Payload bytes copied before the wire (a pool buffer, ring
            /// slots, a bulk extent); a zero-copy put adds nothing.
            pub fn staged_bytes(&self) -> u64 {
                self.engine.staged_bytes()
            }
        }

        impl $crate::transport::Transport for $ty {
            fn backend(&self) -> &'static str {
                $backend
            }

            fn put_at(
                &self,
                dest: NodeAddr,
                vaddr: VirtAddr,
                offset: usize,
                data: &[u8],
            ) -> Result<()> {
                $ty::put_at(self, dest, vaddr, offset, data)
            }

            fn put_bytes_at(
                &self,
                dest: NodeAddr,
                vaddr: VirtAddr,
                offset: usize,
                data: Bytes,
            ) -> Result<()> {
                let at = (dest, vaddr, offset);
                self.engine.put_bytes(at, data, false).map(drop)
            }

            fn flush(&self) -> Result<()> {
                self.engine.flush()
            }

            fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
                self.engine.take_nacks()
            }

            fn staged_bytes(&self) -> u64 {
                self.engine.staged_bytes()
            }
        }
    };
}
pub(crate) use initiator_api;

#[inline(always)]
fn record(t: &Option<Arc<Telemetry>>, src: NodeAddr, kind: EventKind, id: u64, arg: u64) {
    telemetry::record(t, kind, telemetry::initiator_key(src.nid, src.pid), id, arg);
}

/// One put on its way to the link: what every unit it becomes carries.
pub(crate) struct Op<'a> {
    pub(crate) src: NodeAddr,
    pub(crate) dest: NodeAddr,
    pub(crate) vaddr: VirtAddr,
    pub(crate) offset: usize,
    pub(crate) id: u64,
    pub(crate) len: usize,
    pub(crate) nacks: &'a NackSink,
    telemetry: &'a Option<Arc<Telemetry>>,
}

impl Op<'_> {
    /// Record `RingEnqueue`, tagged the wire's way: the threaded ring
    /// index once per op, the shm fragment offset once per fragment.
    #[inline(always)]
    pub(crate) fn enqueued(&self, tag: u64) {
        let (t, src) = (self.telemetry, self.src);
        record(t, src, EventKind::RingEnqueue, self.id, tag);
    }

    /// The op's wire fragment carrying `data` at `offset + at`.
    #[inline(always)]
    pub(crate) fn fragment(&self, at: usize, data: Bytes) -> Fragment {
        Fragment {
            initiator: self.src,
            op_id: self.id,
            dst_vaddr: self.vaddr,
            op_total_len: self.len as u64,
            offset: self.offset + at,
            data,
        }
    }
}

/// The send engine over one link (see the module docs).
pub(crate) struct Initiator<L: Link> {
    pub(crate) link: L,
    pub(crate) src: NodeAddr,
    mtu: usize,
    /// Puts longer than this try the large lane.
    pub(crate) eager_threshold: usize,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    next_op: AtomicU64,
    pub(crate) nacks: NackSink,
    /// Payload bytes copied before the wire: a pool buffer, ring slots or
    /// a bulk extent. A lent `Bytes` adds nothing.
    staged: AtomicU64,
}

impl<L: Link> Initiator<L> {
    /// An engine over `link` whose puts are cut at `mtu` and try the
    /// large lane above `eager_threshold`.
    pub(crate) fn new(link: L, src: NodeAddr, (mtu, eager_threshold): (usize, usize)) -> Self {
        Initiator {
            link,
            src,
            mtu,
            eager_threshold,
            telemetry: None,
            next_op: AtomicU64::new(1),
            nacks: NackSink::default(),
            staged: AtomicU64::new(0),
        }
    }

    /// Draw the op id and record `Submit`; a `copied` payload counts as
    /// staged.
    #[inline(always)]
    pub(crate) fn begin(&self, (dest, vaddr, offset): At, len: usize, copied: bool) -> Op<'_> {
        let id = self.next_op.fetch_add(1, Ordering::Relaxed);
        record(&self.telemetry, self.src, EventKind::Submit, id, len as u64);
        if copied {
            self.staged.fetch_add(len as u64, Ordering::Relaxed);
        }
        Op {
            src: self.src,
            dest,
            vaddr,
            offset,
            id,
            len,
            nacks: &self.nacks,
            telemetry: &self.telemetry,
        }
    }

    /// Record `RingEnqueue` for an op a batch pushes later.
    pub(crate) fn enqueued(&self, id: u64, tag: u64) {
        record(&self.telemetry, self.src, EventKind::RingEnqueue, id, tag);
    }

    /// `RVMA_Put` of a borrowed payload: one descriptor if it is above the
    /// eager threshold and the link stages it, else eager. With `notify`,
    /// returns the future of its final disposition.
    #[inline(always)]
    pub(crate) fn put(&self, at: At, data: &[u8], notify: bool) -> Result<Option<PutFuture>> {
        let route = self.link.route(at.0, at.1)?;
        let op = self.begin(at, data.len(), true);
        let staged = match data.len() > self.eager_threshold {
            true => self.link.stage(&op, data),
            false => None,
        };
        let unit = staged.map_or(Unit::Eager(data), Unit::Desc);
        self.push(route, &op, unit, notify)
    }

    /// `RVMA_Put` of an owned payload: above the eager threshold a link
    /// that lends it sends it as its own descriptor, uncopied; otherwise
    /// it is [`Self::put`].
    pub(crate) fn put_bytes(&self, at: At, data: Bytes, notify: bool) -> Result<Option<PutFuture>> {
        let len = data.len();
        if len <= self.eager_threshold {
            return self.put(at, &data, notify);
        }
        match self.link.lend(data) {
            Ok(desc) => self.put_desc(at, len, desc, notify),
            Err(data) => self.put(at, &data, notify),
        }
    }

    /// A put of a descriptor for `len` bytes nobody copied.
    pub(crate) fn put_desc(
        &self,
        at: At,
        len: usize,
        desc: L::Desc,
        notify: bool,
    ) -> Result<Option<PutFuture>> {
        let route = self.link.route(at.0, at.1)?;
        let op = self.begin(at, len, false);
        self.push(route, &op, Unit::Desc(desc), notify)
    }

    /// The countdown steps once per unit the link pushes: per MTU
    /// fragment (one even for an empty put, so its future resolves too),
    /// or once for a descriptor.
    #[inline(always)]
    fn push(
        &self,
        route: L::Route,
        op: &Op<'_>,
        unit: Unit<'_, L::Desc>,
        notify: bool,
    ) -> Result<Option<PutFuture>> {
        let units = match &unit {
            _ if !notify => 0,
            Unit::Eager(data) => mtu_ranges(data.len(), self.mtu).len() as u64,
            Unit::Desc(_) => 1,
        };
        let done = notify.then(|| PutNotify::new(units));
        self.link
            .push(route, op, unit, done.clone())
            .map_err(refused)?;
        Ok(done.map(|n| PutFuture::from_notify(n, self.link.hook())))
    }

    /// The drain barrier (see [`flush`]).
    pub(crate) fn flush(&self) -> Result<()> {
        flush(self.link.push_flush(), self.link.hook())
    }

    pub(crate) fn take_nacks(&self) -> Vec<(VirtAddr, NackReason)> {
        std::mem::take(&mut *self.nacks.lock())
    }

    pub(crate) fn staged_bytes(&self) -> u64 {
        self.staged.load(Ordering::Relaxed)
    }
}

/// A flush: wait on the countdown of the markers pushed (`done`) as on a
/// put. A wire acks a marker once all queued ahead of it reached its final
/// disposition (the wire worker's flush rule), so the countdown's end is
/// the barrier; one that ends failed — a marker refused, or the peer died
/// first — is the closed-link error.
pub(crate) fn flush(done: Arc<PutNotify>, hook: Option<Arc<dyn Progress>>) -> Result<()> {
    match PutFuture::from_notify(done, hook).wait().nacked {
        false => Ok(()),
        true => Err(refused(PushError::Closed(()))),
    }
}

/// Shared delivery-completion state of a notified put or a flush: one
/// atomic countdown travelling with the wire messages (or, on shm, held
/// under the token their acks come back with), decremented at each
/// unit's **final disposition** — delivered, NACKed, or refused by the
/// link — never on a retransmission (the retried copy carries the handle
/// onward). The last decrement publishes `done` and wakes the registered
/// [`PutFuture`] through the same [`AtomicWaker`] handoff the
/// notification path uses: no lock, one `fetch_sub` + one `wake`.
pub(crate) struct PutNotify {
    /// Units counted down in all.
    units: u64,
    /// Units not yet at their final disposition.
    remaining: CheckedU64,
    /// Any unit NACKed or refused.
    nacked: AtomicBool,
    /// Published after the last decrement, before the wake.
    done: AtomicBool,
    waker: AtomicWaker,
}

impl PutNotify {
    pub(crate) fn new(units: u64) -> Arc<PutNotify> {
        debug_assert!(units > 0);
        Arc::new(PutNotify {
            units,
            remaining: CheckedU64::new(units),
            nacked: AtomicBool::new(false),
            done: AtomicBool::new(false),
            waker: AtomicWaker::new(),
        })
    }

    /// `n > 0` units reached their final disposition.
    pub(crate) fn fragments_done(&self, n: u64, any_nacked: bool) {
        if any_nacked {
            self.nacked.store(true, Ordering::SeqCst);
        }
        let prev = self.remaining.fetch_sub(n, Ordering::SeqCst);
        debug_assert!(prev >= n, "put_notify fragment countdown underflow");
        if prev == n {
            self.done.store(true, Ordering::SeqCst);
            self.waker.wake();
        }
    }
}

/// What a [`PutFuture`] resolves to: the put's fragments all reached the
/// wire's final disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutDelivery {
    /// Wire fragments the put travelled as: one per MTU on the eager
    /// lane, 1 for a rendezvous put (one descriptor, whatever its length).
    pub fragments: u64,
    /// True when any fragment was NACKed (e.g. `NoSuchMailbox` after a
    /// crash fault); the NACK reasons themselves are in
    /// [`AsyncInitiator::take_nacks`](crate::transport_threaded::AsyncInitiator::take_nacks).
    pub nacked: bool,
}

/// Future side of a notified put
/// ([`AsyncInitiator::put_notify`](crate::transport_threaded::AsyncInitiator::put_notify),
/// [`ShmClient::put_notify`](crate::transport_shm::ShmClient::put_notify)):
/// resolves when every fragment of the put has been delivered (or NACKed).
///
/// This is the *initiator's* local-completion signal — the moment the
/// paper's `RVMA_Put` buffer-reuse guarantee holds — not the receiver's
/// threshold completion, which remains the notification machinery's job.
/// The future is independent of any executor; poll it from one, or
/// `block_on` it. `poll` never blocks: a backend whose acks must be
/// drained by the waiter (the shm client) is driven a step per poll, and
/// the future wakes itself while it spins.
#[must_use = "a PutFuture does nothing unless polled"]
pub struct PutFuture {
    notify: Arc<PutNotify>,
    drain: Option<Drain>,
}

/// A backend whose completions advance only while someone drains them
/// (the shm client's response ring). The waiter is its progress engine;
/// a helper takes over only while some waiter has armed it.
pub(crate) trait Progress: Send + Sync {
    /// Drain whatever completions are ready, unless another thread is.
    fn drive(&self);
    /// The caller stops driving: the helper drains until the matching
    /// [`disarm`](Progress::disarm).
    fn arm(&self);
    fn disarm(&self);
}

/// A driven [`PutFuture`]'s progress hook and how far its spin has got.
struct Drain {
    hook: Arc<dyn Progress>,
    idle: Idle,
    armed: bool,
}

impl Drain {
    /// A poll found the put unresolved. While the thread's adaptive budget
    /// lasts, spin one step and wake the task so it polls (and drives)
    /// again; once it runs out (the wait settles as a miss), arm the
    /// helper, whose drain wakes the registered waker.
    fn pend(&mut self, waker: &Waker) {
        if self.armed {
            return;
        }
        if self.idle.spin() {
            waker.wake_by_ref();
        } else {
            self.armed = true;
            self.hook.arm();
        }
    }

    /// The put resolved: credit the spin, and hand the helper back.
    fn resolved(&mut self) {
        self.idle.done();
        if std::mem::take(&mut self.armed) {
            self.hook.disarm();
        }
    }
}

impl Drop for Drain {
    fn drop(&mut self) {
        if self.armed {
            self.hook.disarm();
        }
    }
}

impl PutFuture {
    /// Wrap a countdown shared with a link (the threaded workers count it
    /// down in-process; the shm client from cross-process acks, drained
    /// through `hook`).
    pub(crate) fn from_notify(notify: Arc<PutNotify>, hook: Option<Arc<dyn Progress>>) -> Self {
        PutFuture {
            notify,
            drain: hook.map(|hook| Drain {
                hook,
                idle: Idle::new(),
                armed: false,
            }),
        }
    }

    /// True once delivery finished (the future would resolve immediately).
    pub fn is_done(&self) -> bool {
        self.notify.done.load(Ordering::SeqCst)
    }

    /// Block the calling thread until the future resolves: spin on the
    /// countdown under the thread's idle budget, then park until its
    /// wake. A driven future spins inside its own poll instead, waking
    /// itself, until it arms its helper.
    pub(crate) fn wait(mut self) -> PutDelivery {
        let mut idle = Idle::new();
        while self.drain.is_none() && !self.is_done() && idle.spin() {}
        idle.done();
        let waker = park_waker();
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(delivery) = Pin::new(&mut self).poll(&mut cx) {
                return delivery;
            }
            csync::thread::park();
        }
    }
}

impl Future for PutFuture {
    type Output = PutDelivery;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<PutDelivery> {
        let this = self.get_mut();
        if let Some(d) = &this.drain {
            d.hook.drive();
        }
        if !this.notify.done.load(Ordering::SeqCst) {
            this.notify.waker.register(cx.waker());
            // Re-check after registration: a completer that published
            // `done` between the first check and the register either saw
            // the waker (and woke it) or lost the race to this load.
            // Either way no wake is missed. (Seeded mutation, checker
            // builds only: skip it, and the model loses that wake.)
            if csync::mutation(Mutation::PutFutureSkipRecheck)
                || !this.notify.done.load(Ordering::SeqCst)
            {
                if let Some(d) = &mut this.drain {
                    d.pend(cx.waker());
                }
                return Poll::Pending;
            }
        }
        if let Some(d) = &mut this.drain {
            d.resolved();
        }
        Poll::Ready(PutDelivery {
            fragments: this.notify.units,
            nacked: this.notify.nacked.load(Ordering::SeqCst),
        })
    }
}

impl std::fmt::Debug for PutFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PutFuture")
            .field("fragments", &self.notify.units)
            .field("done", &self.is_done())
            .finish()
    }
}
