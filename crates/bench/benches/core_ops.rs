//! Criterion benches of the rvma-core datapath: the software-endpoint
//! costs that a hardware RVMA NIC would hide. These quantify the library's
//! own overheads (LUT lookup, fragment delivery, completion signalling),
//! not the paper's figures (see the `figures` bench and the `fig*` bins).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rvma_core::{
    Bytes, FaultModel, Fragment, LossyNetwork, NodeAddr, RvmaEndpoint, Threshold, VirtAddr,
    DEFAULT_MTU,
};
use std::hint::black_box;

/// One put, varying message size: through the inline network in transmit
/// order, and as fragments delivered last-first straight to the endpoint
/// (the order an adaptively-routed fabric may produce).
fn bench_put_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("core/put");
    for &size in &[64usize, 4096, 65536] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("in_order", size), &size, |b, &size| {
            let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
            let target = net.add_endpoint(NodeAddr::node(1));
            let init = net.initiator(NodeAddr::node(2));
            let win = target
                .init_window(VirtAddr::new(1), Threshold::bytes(size as u64))
                .unwrap();
            let payload = vec![0xABu8; size];
            b.iter(|| {
                let mut n = win.post_buffer(vec![0u8; size]).unwrap();
                init.put(NodeAddr::node(1), VirtAddr::new(1), &payload)
                    .unwrap();
                black_box(n.poll().unwrap());
            });
        });
        g.bench_with_input(BenchmarkId::new("out_of_order", size), &size, |b, &size| {
            let target = RvmaEndpoint::new(NodeAddr::node(1));
            let win = target
                .init_window(VirtAddr::new(1), Threshold::bytes(size as u64))
                .unwrap();
            let payload = Bytes::from(vec![0xABu8; size]);
            let frags: Vec<Fragment> = (0..size)
                .step_by(512)
                .rev()
                .map(|at| Fragment {
                    initiator: NodeAddr::node(2),
                    op_id: 1,
                    dst_vaddr: VirtAddr::new(1),
                    op_total_len: size as u64,
                    offset: at,
                    data: payload.slice(at..(at + 512).min(size)),
                })
                .collect();
            b.iter(|| {
                let mut n = win.post_buffer(vec![0u8; size]).unwrap();
                for f in &frags {
                    target.deliver(f);
                }
                black_box(n.poll().unwrap());
            });
        });
    }
    g.finish();
}

/// The endpoint receive datapath in isolation: one fragment that completes
/// an epoch (LUT hit + copy + count + completing write), then the waiter's
/// poll (the Monitor/MWait fast path).
fn bench_notification(c: &mut Criterion) {
    let ep = RvmaEndpoint::new(NodeAddr::node(1));
    let win = ep
        .init_window(VirtAddr::new(9), Threshold::bytes(64))
        .unwrap();
    let frag = Fragment {
        initiator: NodeAddr::node(2),
        op_id: 1,
        dst_vaddr: VirtAddr::new(9),
        op_total_len: 64,
        offset: 0,
        data: bytes::Bytes::from(vec![0xCDu8; 64]),
    };
    c.bench_function("core/deliver_complete_poll", |b| {
        b.iter_batched(
            || win.post_buffer(vec![0u8; 64]).unwrap(),
            |mut n| {
                ep.deliver(&frag);
                black_box(n.poll().unwrap());
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

/// Window creation + single-lookup resolution under a loaded LUT.
fn bench_lut(c: &mut Criterion) {
    let ep = RvmaEndpoint::new(NodeAddr::node(1));
    for i in 0..10_000u64 {
        let w = ep
            .init_window(VirtAddr::new(i), Threshold::bytes(64))
            .unwrap();
        std::mem::forget(w); // keep the mailboxes registered
    }
    c.bench_function("core/lut_lookup_10k_entries", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(ep.mailbox(VirtAddr::new(i)).is_some());
        });
    });
}

criterion_group!(benches, bench_put_latency, bench_notification, bench_lut);
criterion_main!(benches);
