//! The output-queued switch model.
//!
//! Each switch port models a link with a `next_free` horizon: a packet
//! eligible at time *t* begins serialization at `max(t, next_free)` and the
//! port's horizon advances by the serialization time. Queue depth for
//! adaptive routing decisions is exactly that horizon minus now — the time a
//! new packet would wait. Per the paper's simulation setup, queues are
//! effectively unbounded ("we ensured that full queue stalls were not a
//! constraining factor ... by providing ample queue depths"), so no
//! credit-based flow control is modeled.
//!
//! The crossbar is modeled as a fixed traversal latency plus serialization
//! at the crossbar rate (the paper: "crossbar bandwidth is always 50%
//! greater than link bandwidth").

use crate::link::LinkParams;
use crate::packet::NetEvent;
use crate::router::Router;
use rvma_sim::{Bandwidth, Component, ComponentId, Ctx, SimTime};
use std::sync::Arc;

/// One output port: where it leads and when its link is next idle.
#[derive(Debug, Clone)]
pub struct OutPort {
    /// Component (switch or terminal) at the far end.
    pub to: ComponentId,
    /// Link characteristics.
    pub link: LinkParams,
    /// Horizon: the instant the link finishes its last accepted packet.
    pub next_free: SimTime,
}

/// Read-only view of a switch's ports for routing decisions.
pub struct PortView<'a> {
    now: SimTime,
    ports: &'a [OutPort],
}

impl<'a> PortView<'a> {
    /// Construct a view over a port slice at instant `now`.
    pub fn new(now: SimTime, ports: &'a [OutPort]) -> Self {
        PortView { now, ports }
    }

    /// Time a packet handed to `port` right now would wait before its first
    /// bit hits the wire (the adaptive-routing congestion signal).
    pub fn busy(&self, port: usize) -> SimTime {
        self.ports[port].next_free.saturating_sub(self.now)
    }

    /// Among `candidates`, the port with the smallest backlog (first wins
    /// ties, keeping static tie-breaks deterministic).
    pub fn least_busy(&self, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut best: Option<(usize, SimTime)> = None;
        for c in candidates {
            let b = self.busy(c);
            match best {
                Some((_, bb)) if bb <= b => {}
                _ => best = Some((c, b)),
            }
        }
        best.map(|(p, _)| p)
    }

    /// Number of ports on the switch.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// True when the switch has no ports (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }
}

/// An output-queued switch.
pub struct Switch {
    id: u32,
    /// Terminals `[term_base, term_base + term_count)` attach to ports
    /// `[0, term_count)`.
    term_base: u32,
    term_count: u32,
    ports: Vec<OutPort>,
    router: Arc<dyn Router>,
    /// Fixed per-hop traversal latency (arbitration + internal pipeline).
    switch_latency: SimTime,
    /// Crossbar serialization rate (1.5× link rate per the paper).
    xbar: Bandwidth,
}

impl Switch {
    /// Build a switch. Ports must already be fully wired.
    pub fn new(
        id: u32,
        term_base: u32,
        term_count: u32,
        ports: Vec<OutPort>,
        router: Arc<dyn Router>,
        switch_latency: SimTime,
        xbar: Bandwidth,
    ) -> Self {
        Switch {
            id,
            term_base,
            term_count,
            ports,
            router,
            switch_latency,
            xbar,
        }
    }

    /// This switch's topology-level id.
    pub fn id(&self) -> u32 {
        self.id
    }

    fn is_local_terminal(&self, dst: u32) -> bool {
        dst >= self.term_base && dst < self.term_base + self.term_count
    }
}

impl Component<NetEvent> for Switch {
    fn handle(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        let NetEvent::Packet(mut pkt) = ev else {
            // Switches schedule no local events; stray ones are a model bug.
            debug_assert!(false, "switch received a Local event");
            return;
        };

        let out = if self.is_local_terminal(pkt.dst) {
            (pkt.dst - self.term_base) as usize
        } else {
            let view = PortView {
                now: ctx.now(),
                ports: &self.ports,
            };
            self.router.route(self.id, &mut pkt, &view, ctx.rng())
        };
        debug_assert!(out < self.ports.len(), "router returned invalid port");

        pkt.route.hops += 1;
        let wire = pkt.wire_bytes();
        // Crossbar traversal, then queue at the output port.
        let eligible = ctx.now() + self.switch_latency + self.xbar.serialization_time(wire as u64);
        let port = &mut self.ports[out];
        let start = eligible.max(port.next_free);
        let done = start + port.link.serialize(wire);
        port.next_free = done;
        ctx.stats().counter("net.switch_forwarded").inc();
        ctx.stats().counter("net.wire_bytes").add(wire as u64);
        // Aggregate queueing delay (ns): how long the packet waited for the
        // output link beyond its crossbar-eligible instant.
        ctx.stats()
            .counter("net.queue_wait_ns")
            .add(start.saturating_sub(eligible).as_ns_f64() as u64);
        let arrive = done + port.link.latency;
        let to = port.to;
        ctx.schedule_at(arrive, to, NetEvent::Packet(pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketHeader, PacketKind, RouteState};
    use rvma_sim::{ParEngine, SimConfig, SimRng};

    /// A terminal that records packet arrival times.
    pub struct Sink {
        pub arrived: Vec<(u64, SimTime)>,
    }

    impl Component<NetEvent> for Sink {
        fn handle(&mut self, ev: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
            if let NetEvent::Packet(p) = ev {
                self.arrived.push((p.id, ctx.now()));
            }
        }

        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }

        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    struct ToZero;
    impl Router for ToZero {
        fn route(&self, _sw: u32, _p: &mut Packet, _v: &PortView<'_>, _r: &mut SimRng) -> usize {
            0
        }
        fn ordered(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "to-zero"
        }
    }

    fn pkt(id: u64, dst: u32, bytes: u32) -> Packet {
        Packet {
            id,
            src: 0,
            dst,
            payload_bytes: bytes,
            header: PacketHeader {
                kind: PacketKind::Ctrl,
                msg_id: 0,
                msg_bytes: bytes as u64,
                offset: 0,
                vaddr: 0,
                tag: 0,
            },
            route: RouteState::default(),
            injected_at: SimTime::ZERO,
        }
    }

    /// One switch with a single terminal port to a sink; link 100 Gbps,
    /// 100 ns latency; switch latency 100 ns; xbar 150 Gbps.
    fn one_switch() -> (ParEngine<NetEvent>, ComponentId, ComponentId) {
        let mut eng = ParEngine::new(1, SimConfig::default());
        // Sink gets id 0, switch id 1; wire the switch's port 0 to the sink.
        let sink = eng.add_component(Sink { arrived: vec![] });
        let port = OutPort {
            to: sink,
            link: LinkParams::gbps_ns(100, 100),
            next_free: SimTime::ZERO,
        };
        let sw = eng.add_component(Switch::new(
            0,
            0,
            1,
            vec![port],
            Arc::new(ToZero),
            SimTime::from_ns(100),
            Bandwidth::from_gbps(150),
        ));
        (eng, sw, sink)
    }

    #[test]
    fn single_packet_latency_decomposes() {
        let (mut eng, sw, _sink) = one_switch();
        // 1210-byte payload -> 1250 wire bytes: 100ns on the link, 66.67ns xbar.
        eng.schedule(SimTime::ZERO, sw, NetEvent::Packet(pkt(1, 0, 1210)));
        eng.run_to_completion();
        // switch 100ns + xbar 1250B@150G = 66.667ns + ser 100ns + link 100ns
        let expect_ns = 100.0 + (1250.0 * 8.0 / 150.0) + 100.0 + 100.0;
        assert!((eng.now().as_ns_f64() - expect_ns).abs() < 0.01);
    }

    #[test]
    fn back_to_back_packets_queue_at_port() {
        let (mut eng, sw, sink) = one_switch();
        for i in 0..3 {
            eng.schedule(SimTime::ZERO, sw, NetEvent::Packet(pkt(i, 0, 1210)));
        }
        eng.run_to_completion();
        // Arrival spacing must equal the serialization time (100 ns per
        // 1250-byte packet), i.e. the port serialized them sequentially.
        let arrived = &eng.component_as::<Sink>(sink).expect("sink").arrived;
        assert_eq!(arrived.len(), 3);
        for w in arrived.windows(2) {
            assert_eq!(w[1].1 - w[0].1, SimTime::from_ns(100));
        }
        assert_eq!(eng.stats().counter_value("net.switch_forwarded"), 3);
        // Total time = first-packet pipeline + 2 extra serializations.
        let first = 100.0 + (1250.0 * 8.0 / 150.0) + 100.0 + 100.0;
        let expect = first + 2.0 * 100.0;
        assert!(
            (eng.now().as_ns_f64() - expect).abs() < 0.01,
            "got {} want {}",
            eng.now().as_ns_f64(),
            expect
        );
    }

    #[test]
    fn port_view_reports_backlog() {
        let ports = vec![
            OutPort {
                to: ComponentId::from_raw(0),
                link: LinkParams::gbps_ns(100, 0),
                next_free: SimTime::from_ns(500),
            },
            OutPort {
                to: ComponentId::from_raw(0),
                link: LinkParams::gbps_ns(100, 0),
                next_free: SimTime::from_ns(100),
            },
        ];
        let v = PortView {
            now: SimTime::from_ns(200),
            ports: &ports,
        };
        assert_eq!(v.busy(0), SimTime::from_ns(300));
        assert_eq!(v.busy(1), SimTime::ZERO); // already free
        assert_eq!(v.least_busy([0, 1]), Some(1));
        assert_eq!(v.least_busy([0]), Some(0));
        assert_eq!(v.least_busy([]), None);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn least_busy_breaks_ties_by_first() {
        let ports = vec![
            OutPort {
                to: ComponentId::from_raw(0),
                link: LinkParams::gbps_ns(100, 0),
                next_free: SimTime::ZERO,
            };
            3
        ];
        let v = PortView {
            now: SimTime::ZERO,
            ports: &ports,
        };
        assert_eq!(v.least_busy([2, 1, 0]), Some(2));
    }
}
