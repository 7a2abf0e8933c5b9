//! Property-based tests for the network substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hivemind_net::fabric::{Fabric, Transfer};
use hivemind_net::link::Link;
use hivemind_net::rpc::RateGate;
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The two-heap link the FIFO [`Link`] replaced, kept as a reference: a
/// `waiting` heap ordered by `(arrived, seq)` drained into an
/// `in_flight` heap ordered by `(deliver_at, seq)` on every enqueue.
struct HeapLink {
    bytes_per_sec: f64,
    propagation: SimDuration,
    busy_until: SimTime,
    seq: u64,
    waiting: BinaryHeap<Reverse<(SimTime, u64, u64, u32)>>,
    in_flight: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
}

impl HeapLink {
    fn new(bytes_per_sec: f64, propagation: SimDuration) -> Self {
        HeapLink {
            bytes_per_sec,
            propagation,
            busy_until: SimTime::ZERO,
            seq: 0,
            waiting: BinaryHeap::new(),
            in_flight: BinaryHeap::new(),
        }
    }

    fn enqueue(&mut self, now: SimTime, bytes: u64, payload: u32) {
        self.waiting.push(Reverse((now, self.seq, bytes, payload)));
        self.seq += 1;
        while let Some(Reverse((arrived, seq, bytes, payload))) = self.waiting.pop() {
            let start = self.busy_until.max(arrived);
            let done = start + SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
            self.busy_until = done;
            self.in_flight
                .push(Reverse((done + self.propagation, seq, payload)));
        }
    }

    fn pop_ready(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
        let &Reverse((t, _, _)) = self.in_flight.peek()?;
        if t > now {
            return None;
        }
        self.in_flight.pop().map(|Reverse((t, _, p))| (t, p))
    }

    fn load(&self) -> usize {
        self.waiting.len() + self.in_flight.len()
    }
}

proptest! {
    /// The FIFO link pops exactly what the two-heap reference pops, in
    /// the same order and at the same instants, under non-monotone
    /// arrival clocks, zero-byte items and arbitrary capacities.
    #[test]
    fn fifo_link_matches_two_heap_reference(
        steps in prop::collection::vec((any::<bool>(), 0u64..3_000_000, 0u64..400_000), 1..200),
        bw_kbps in 1.0f64..1e6,
        prop_us in 0u64..50_000,
    ) {
        let bytes_per_sec = bw_kbps * 1e3;
        let propagation = SimDuration::from_micros(prop_us);
        let mut fifo: Link<u32> = Link::new(bytes_per_sec, propagation);
        let mut reference = HeapLink::new(bytes_per_sec, propagation);
        for (i, &(enqueue, t_us, bytes)) in steps.iter().enumerate() {
            let now = SimTime::ZERO + SimDuration::from_micros(t_us);
            if enqueue {
                // Every tenth item is zero-byte (propagation only).
                let bytes = if i % 10 == 0 { 0 } else { bytes };
                fifo.enqueue(now, bytes, i as u32);
                reference.enqueue(now, bytes, i as u32);
            } else {
                prop_assert_eq!(fifo.pop_ready(now), reference.pop_ready(now));
            }
            prop_assert_eq!(fifo.load(), reference.load());
        }
        loop {
            let popped = fifo.pop_ready(SimTime::MAX);
            prop_assert_eq!(popped, reference.pop_ready(SimTime::MAX));
            prop_assert_eq!(fifo.load(), reference.load());
            if popped.is_none() {
                break;
            }
        }
    }

    /// FIFO links deliver in arrival order, never faster than the wire
    /// allows, and conserve every byte.
    #[test]
    fn link_is_fifo_and_work_conserving(
        arrivals in prop::collection::vec((0u64..5_000_000, 1u64..2_000_000), 1..100),
        bw_mbps in 1.0f64..1000.0,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|&(t, _)| t);
        let bytes_per_sec = bw_mbps * 1e6;
        let mut link: Link<usize> = Link::new(bytes_per_sec, SimDuration::from_micros(10));
        let mut total_bytes = 0u64;
        for (i, &(t_us, bytes)) in arrivals.iter().enumerate() {
            link.enqueue(SimTime::ZERO + SimDuration::from_micros(t_us), bytes, i);
            total_bytes += bytes;
        }
        let mut deliveries = Vec::new();
        while let Some((t, id)) = link.pop_ready(SimTime::MAX) {
            deliveries.push((t, id));
        }
        prop_assert_eq!(deliveries.len(), arrivals.len());
        prop_assert_eq!(link.bytes_carried(), total_bytes);
        // FIFO: delivery order equals arrival order.
        for (pos, &(_, id)) in deliveries.iter().enumerate() {
            prop_assert_eq!(id, pos);
        }
        // Work conservation: the last delivery is no earlier than
        // first-arrival + total transmission time, and no later than
        // last-arrival + total transmission time (+propagation).
        let tx_total = SimDuration::from_secs_f64(total_bytes as f64 / bytes_per_sec);
        let first_in = SimTime::ZERO + SimDuration::from_micros(arrivals[0].0);
        let last_in = SimTime::ZERO + SimDuration::from_micros(arrivals.last().unwrap().0);
        let last_out = deliveries.last().unwrap().0;
        prop_assert!(last_out >= first_in + tx_total);
        prop_assert!(
            last_out <= last_in + tx_total + SimDuration::from_micros(10) + SimDuration::from_nanos(arrivals.len() as u64)
        );
    }

    /// The multi-hop fabric preserves per-(src,dst) pair ordering: two
    /// transfers between the same endpoints arrive in send order.
    #[test]
    fn fabric_preserves_flow_order(
        sends in prop::collection::vec((0u64..1_000_000, 1u64..3_000_000), 2..60),
        dev in 0u32..16,
        srv in 0u32..12,
    ) {
        let mut sends = sends;
        sends.sort_by_key(|&(t, _)| t);
        let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
        for (i, &(t_us, bytes)) in sends.iter().enumerate() {
            fabric.send(
                SimTime::ZERO + SimDuration::from_micros(t_us),
                Transfer {
                    src: Node::Device(dev),
                    dst: Node::Server(srv),
                    bytes,
                    tag: i as u64,
                },
            );
        }
        let mut deliveries = Vec::new();
        while let Some(t) = fabric.next_wakeup() {
            deliveries.extend(fabric.advance_to(t));
        }
        prop_assert_eq!(deliveries.len(), sends.len());
        for (pos, d) in deliveries.iter().enumerate() {
            prop_assert_eq!(d.tag, pos as u64, "same-flow transfers stay ordered");
        }
    }

    /// Rate gates never admit above their configured rate, and delays are
    /// monotone within a burst.
    #[test]
    fn rate_gate_enforces_rate(rps in 1.0f64..1e6, burst in 2usize..50) {
        let mut gate = RateGate::new(rps);
        let mut last = SimDuration::ZERO;
        for i in 0..burst {
            let delay = gate.admit(SimTime::ZERO);
            prop_assert!(delay >= last);
            let expected = i as f64 / rps;
            // The gate quantizes its interval to whole nanoseconds, so
            // allow up to a nanosecond of drift per admitted message.
            prop_assert!(
                (delay.as_secs_f64() - expected).abs() <= (i as f64 + 1.0) * 1e-9
            );
            last = delay;
        }
    }

    /// Every route in every topology size starts and ends at the right
    /// link classes and stays in bounds.
    #[test]
    fn topology_routes_are_wellformed(devices in 1u32..200, servers in 1u32..24, d in 0u32..200, s in 0u32..24) {
        prop_assume!(d < devices && s < servers);
        let topo = Topology::new(TopologyParams {
            devices,
            servers,
            ..TopologyParams::default()
        });
        let up = topo.path(Node::Device(d), Node::Server(s));
        prop_assert!(!up.is_empty());
        for link in &up {
            prop_assert!(link.index() < topo.links().len());
        }
        use hivemind_net::topology::LinkClass;
        prop_assert_eq!(topo.links()[up[0].index()].class, LinkClass::WirelessMedium);
        prop_assert_eq!(
            topo.links()[up.last().unwrap().index()].class,
            LinkClass::ServerNic
        );
        let down = topo.path(Node::Server(s), Node::Device(d));
        prop_assert_eq!(up.len(), down.len());
    }
}
