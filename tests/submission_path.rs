//! End-to-end checks of the batched submission path: route caching, payload
//! pooling, doorbell batches, and pooled receive buffers working together
//! across the async wire-worker pool.

use rvma::core::{
    shm_pair, shm_supported, AsyncInitiator, AsyncNetwork, Bytes, DeliveryOrder, EndpointConfig,
    NackReason, NodeAddr, PutFuture, Result, RvmaEndpoint, ShmClient, Threshold, Transport,
    VirtAddr, DEFAULT_DOORBELL_FRAGS,
};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn steady_state_submission_is_cached_and_pooled() {
    // A message loop over one route: after warm-up, every put rides the
    // route cache and the payload pool, and the receiver's pooled epoch
    // buffers recycle — this is the acceptance check that the steady-state
    // small-put path performs no RwLock acquisition and no allocation
    // beyond the pooled payload copy.
    let net = AsyncNetwork::with_options(256, DeliveryOrder::InOrder, Duration::ZERO, 8);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    let win = server
        .init_window(VirtAddr::new(0x10), Threshold::ops(1))
        .unwrap();

    const ROUNDS: u64 = 64;
    // Warm-up put (route miss, payload-pool miss), drained before the loop.
    let mut warm = win.post_pooled(64).unwrap();
    client
        .put(NodeAddr::node(0), VirtAddr::new(0x10), &[0xAA; 64])
        .unwrap();
    net.quiesce();
    assert_eq!(warm.wait().len(), 64);
    // Steady state: post → put → complete, one epoch per round.
    for _ in 0..ROUNDS {
        let mut n = win.post_pooled(64).unwrap();
        client
            .put(NodeAddr::node(0), VirtAddr::new(0x10), &[0xBB; 64])
            .unwrap();
        net.quiesce();
        assert_eq!(n.wait().len(), 64);
    }

    let routes = client.route_stats();
    assert_eq!(routes.misses, 1, "only the cold put consults the table");
    assert_eq!(routes.hits, ROUNDS);
    let payloads = client.pool_stats();
    assert_eq!(payloads.misses, 1, "only the cold put allocates a payload");
    assert_eq!(payloads.hits, ROUNDS);
    // Receiver side: pooled epoch buffers recycle once they leave the
    // retired ring, so posts stop allocating too.
    let bufs = win.pool_stats();
    assert!(
        bufs.hits >= ROUNDS / 2,
        "pooled posts mostly reuse allocations: {bufs:?}"
    );
}

#[test]
fn doorbell_batches_deliver_across_shards() {
    // A batch spraying many mailboxes through an 8-worker pool: doorbell
    // auto-flush keeps the channel crossings bounded while every epoch
    // still completes with the right bytes.
    let net = AsyncNetwork::with_options(128, DeliveryOrder::InOrder, Duration::ZERO, 8);
    let server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));

    const MAILBOXES: u64 = 16;
    const PUTS_EACH: u64 = 8;
    let mut notes = Vec::new();
    for i in 0..MAILBOXES {
        let win = server
            .init_window(VirtAddr::new(i), Threshold::ops(PUTS_EACH))
            .unwrap();
        notes.push(win.post_buffer(vec![0; (PUTS_EACH as usize) * 16]).unwrap());
    }
    // Keep each group under the doorbell so the explicit flush below is
    // what rings it for the tail.
    assert!(MAILBOXES * PUTS_EACH <= 2 * DEFAULT_DOORBELL_FRAGS as u64);
    let mut batch = client.batch();
    for k in 0..PUTS_EACH {
        for i in 0..MAILBOXES {
            batch
                .put_at(
                    NodeAddr::node(0),
                    VirtAddr::new(i),
                    (k as usize) * 16,
                    &[i as u8 + 1; 16],
                )
                .unwrap();
        }
    }
    batch.flush().unwrap();
    for (i, n) in notes.iter_mut().enumerate() {
        let buf = n.wait();
        assert!(buf.full_buffer().iter().all(|&b| b == i as u8 + 1));
    }
    assert_eq!(server.stats().epochs_completed, MAILBOXES);
    net.quiesce();
    assert!(client.take_nacks().is_empty());
}

/// What the receive-run test needs of an initiator, on either backend.
trait RunInitiator: Transport {
    fn put_notify_at(
        &self,
        dest: NodeAddr,
        vaddr: VirtAddr,
        offset: usize,
        data: &[u8],
    ) -> Result<PutFuture>;
}

impl RunInitiator for AsyncInitiator {
    fn put_notify_at(&self, d: NodeAddr, v: VirtAddr, o: usize, data: &[u8]) -> Result<PutFuture> {
        AsyncInitiator::put_notify_at(self, d, v, o, data)
    }
}

impl RunInitiator for ShmClient {
    fn put_notify_at(&self, d: NodeAddr, v: VirtAddr, o: usize, data: &[u8]) -> Result<PutFuture> {
        ShmClient::put_notify_at(self, d, v, o, data)
    }
}

const RUN_MTU: usize = 256;

/// A wire worker delivers the eager puts queued behind each other as one
/// run. A run that mixes initiators, notified puts and a refused put
/// must still hand every NACK to the sink of the put that caused it, in
/// submission order, and resolve every `PutFuture` with its own outcome;
/// every NACK must be in before the flush that covers it returns. `a` and
/// `b` may be one initiator (one sink).
fn one_run_routes(server: &Arc<RvmaEndpoint>, a: &dyn RunInitiator, b: &dyn RunInitiator) {
    let server_addr = server.addr();
    let (open, evicted, gate) = (VirtAddr::new(1), VirtAddr::new(2), VirtAddr::new(3));
    let win = server.init_window(open, Threshold::ops(u64::MAX)).unwrap();
    let _open_buf = win.post_buffer(vec![0; 64 << 10]).unwrap();
    let _evicted_win = server.init_window(evicted, Threshold::ops(1)).unwrap();
    assert!(server.evict(evicted));
    let gate_win = server.init_window(gate, Threshold::ops(1)).unwrap();
    let mut gate_note = gate_win.post_buffer(vec![0; 16 << 10]).unwrap();
    let before = server.stats();

    // A rendezvous descriptor never joins a run: the worker delivers it
    // alone, and holding its mailbox's lock holds the worker there while
    // the rest queue behind it. Released, the eager puts up to the next
    // descriptor are one run.
    let gate_mailbox = server.mailbox(gate).unwrap();
    let held = gate_mailbox.lock();
    a.put_bytes_at(server_addr, gate, 0, Bytes::from(vec![7u8; 16 << 10]))
        .unwrap();
    a.put_at(server_addr, open, 0, &[1; 8]).unwrap();
    b.put_at(server_addr, evicted, 0, &[2; 8]).unwrap();
    let fb = b.put_notify_at(server_addr, open, 8, &[3; 600]).unwrap();
    a.put_at(server_addr, open, 1 << 20, &[4; 8]).unwrap();
    let fa = a.put_notify_at(server_addr, evicted, 8, &[5; 8]).unwrap();
    b.put_at(server_addr, open, 1024, &[6; 8]).unwrap();
    // A descriptor queued between eager puts: placed alone, it ends the
    // run, and the put behind it starts the next one.
    a.put_bytes_at(
        server_addr,
        open,
        32 << 10,
        Bytes::from(vec![8u8; 16 << 10]),
    )
    .unwrap();
    b.put_at(server_addr, open, 2048, &[9; 8]).unwrap();
    drop(held);

    // The flush returns only after every NACK of the traffic before it.
    a.flush().unwrap();
    let (a_nacks, b_nacks) = (a.take_nacks(), b.take_nacks());
    let (oob, gone) = (
        (open, NackReason::OutOfBounds),
        (evicted, NackReason::NoSuchMailbox),
    );
    if std::ptr::addr_eq(a, b) {
        assert_eq!(a_nacks, vec![gone, oob, gone], "one sink, submission order");
    } else {
        assert_eq!(
            a_nacks,
            vec![oob, gone],
            "a's refusals, in submission order"
        );
        assert_eq!(
            b_nacks,
            vec![gone],
            "b's refusal reaches b, not the run's first put"
        );
    }
    assert!(
        fa.is_done() && fb.is_done(),
        "the flush settled both futures"
    );
    let (fa, fb) = (pollster::block_on(fa), pollster::block_on(fb));
    assert_eq!(gate_note.wait().len(), 16 << 10);
    assert_eq!(
        (fb.fragments, fb.nacked),
        (3, false),
        "b's notified put landed"
    );
    assert_eq!(
        (fa.fragments, fa.nacked),
        (1, true),
        "a's notified put was refused"
    );

    // It was one run: one LUT lookup per same-mailbox stretch (open |
    // evicted | open, open | evicted | open) after the gate's own lookup,
    // where per-message delivery would look `open` up four times. Then
    // the descriptor's own lookup, and the last put's run of one.
    let after = server.stats();
    assert_eq!(after.lut_hits - before.lut_hits, 1 + 3 + 1 + 1);
    assert_eq!(after.lut_misses - before.lut_misses, 2);
    assert_eq!(
        after.fragments_accepted - before.fragments_accepted,
        1 + 1 + 3 + 1 + 1 + 1
    );
    assert_eq!(
        after.bytes_accepted - before.bytes_accepted,
        2 * (16 << 10) + 8 + 600 + 8 + 8,
        "both descriptors placed their whole payload"
    );
}

#[test]
fn one_run_routes_each_nack_and_countdown_to_its_own_put() {
    // One worker, so every put shares one ring.
    let net = AsyncNetwork::new(RUN_MTU, DeliveryOrder::InOrder, Duration::ZERO);
    let server = net.add_endpoint(NodeAddr::node(0));
    let (a, b) = (
        net.initiator(NodeAddr::node(1)),
        net.initiator(NodeAddr::node(2)),
    );
    one_run_routes(&server, &a, &b);
}

#[test]
fn one_run_routes_each_nack_and_countdown_to_its_own_put_shm() {
    if !shm_supported() {
        return;
    }
    // The shm server's one worker pops the one request ring of one client.
    let (shm, client) = shm_pair(RUN_MTU, EndpointConfig::default(), NodeAddr::node(1)).unwrap();
    let server = shm.add_endpoint(NodeAddr::node(0));
    one_run_routes(&server, &client, &client);
}

#[test]
fn removal_invalidates_routes_and_nacks_in_flight() {
    let net = AsyncNetwork::with_options(256, DeliveryOrder::InOrder, Duration::ZERO, 4);
    let _server = net.add_endpoint(NodeAddr::node(0));
    let client = net.initiator(NodeAddr::node(1));
    // Warm the route, then remove the endpoint: the cached route goes
    // stale via the generation counter and the next put fails fast.
    client
        .put(NodeAddr::node(0), VirtAddr::new(1), &[0; 8])
        .unwrap();
    assert!(net.remove_endpoint(NodeAddr::node(0)));
    assert!(client
        .put(NodeAddr::node(0), VirtAddr::new(1), &[0; 8])
        .is_err());
    net.quiesce();
    // The first put raced the removal: whichever way it resolved, it never
    // errors twice — either it delivered to a missing mailbox (NACK) or it
    // landed before the removal took effect.
    let nacks = client.take_nacks();
    assert!(nacks.len() <= 1);
}
