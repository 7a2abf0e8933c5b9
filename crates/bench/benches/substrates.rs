//! Substrate throughput benchmarks: how fast the simulator itself runs —
//! event kernel, network fabric, serverless cluster, warm-container
//! index, data plane.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hivemind_faas::cluster::{Cluster, ClusterParams};
use hivemind_faas::container::{ContainerParams, WarmPool};
use hivemind_faas::dataplane::{DataPlane, ExchangeProtocol};
use hivemind_faas::types::{AppId, AppProfile, Invocation};
use hivemind_net::fabric::{Fabric, Transfer};
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::engine::{Context, Engine, Model};
use hivemind_sim::rng::RngForge;
use hivemind_sim::time::{SimDuration, SimTime};

struct PingPong {
    left: u64,
}
impl Model for PingPong {
    type Event = ();
    fn handle(&mut self, ctx: &mut Context<()>, _ev: ()) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_after(SimDuration::from_micros(1), ());
        }
    }
}

fn bench_event_kernel(c: &mut Criterion) {
    c.bench_function("des_kernel_10k_events", |b| {
        b.iter(|| {
            let mut engine = Engine::new(PingPong { left: 10_000 });
            engine.schedule_at(SimTime::ZERO, ());
            engine.run_to_completion();
            engine.events_processed()
        })
    });
}

fn bench_fabric(c: &mut Criterion) {
    c.bench_function("fabric_1k_uplink_transfers", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(Topology::new(TopologyParams::default()));
            for i in 0..1000u64 {
                fabric.send(
                    SimTime::from_nanos(i * 1_000_000),
                    Transfer {
                        src: Node::Device((i % 16) as u32),
                        dst: Node::Server((i % 12) as u32),
                        bytes: 100_000,
                        tag: i,
                    },
                );
            }
            let mut n = 0;
            while let Some(t) = fabric.next_wakeup() {
                n += fabric.advance_to(t).len();
            }
            assert_eq!(n, 1000);
            n
        })
    });
}

/// The mission's capture burst at fleet scale: every one of 2,048
/// drones uploads a 2 MB frame at the same instant, so each router's
/// WiFi, trunk and the server NICs queue deep. A fresh fabric per
/// iteration; the drain is the measured hop-completion work.
fn bench_fabric_saturated(c: &mut Criterion) {
    const DEVICES: u32 = 2048;
    const SERVERS: u32 = 1536;
    let topology = Topology::new(TopologyParams {
        devices: DEVICES,
        servers: SERVERS,
        ..TopologyParams::default()
    });
    c.bench_function("fabric_saturated_uplinks", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(topology.clone());
            for dev in 0..DEVICES {
                fabric.send(
                    SimTime::ZERO,
                    Transfer {
                        src: Node::Device(dev),
                        dst: Node::Server(dev % SERVERS),
                        bytes: 2_000_000,
                        tag: dev as u64,
                    },
                );
            }
            let mut out = Vec::new();
            while let Some(t) = fabric.next_wakeup() {
                fabric.advance_into(t, &mut out);
            }
            assert_eq!(out.len(), DEVICES as usize);
            fabric.hops_completed()
        })
    });
}

/// Warm-container steering on a mission-sized cluster: each cycle parks
/// a container on one of 1,536 servers, asks for the lowest warm server
/// and takes it back, so the pool stays nearly empty — the case where a
/// per-server walk over drained servers is most expensive.
fn bench_warm_pool(c: &mut Criterion) {
    const SERVERS: u64 = 1536;
    let app = AppId(0);
    let mut pool = WarmPool::new(ContainerParams::hivemind());
    for s in 0..SERVERS as u32 {
        pool.park(SimTime::ZERO, s, app);
        pool.try_take(SimTime::ZERO, s, app);
    }
    let mut i = 0u64;
    c.bench_function("warm_pool_take_park", |b| {
        b.iter(|| {
            i += 1;
            let now = SimTime::from_nanos(i * 1_000);
            let server = (i * 7919 % SERVERS) as u32;
            pool.park(now, server, app);
            let warm = black_box(pool.warm_server(now, app));
            assert_eq!(warm, Some(server));
            pool.try_take(now, server, app)
        })
    });
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("cluster_1k_invocations", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(ClusterParams::default(), RngForge::new(1));
            cluster.register_app(AppId(0), AppProfile::test_profile(50.0));
            for i in 0..1000u64 {
                cluster.submit(
                    SimTime::from_nanos(i * 10_000_000),
                    Invocation::root(AppId(0), i),
                );
            }
            let mut n = 0;
            while let Some(t) = cluster.next_wakeup() {
                n += cluster.advance_to(t).len();
            }
            assert_eq!(n, 1000);
            n
        })
    });
}

fn bench_dataplane(c: &mut Criterion) {
    for (name, proto) in [
        ("dataplane_couchdb", ExchangeProtocol::CouchDb),
        ("dataplane_remote_memory", ExchangeProtocol::RemoteMemory),
    ] {
        c.bench_function(name, |b| {
            let mut plane = DataPlane::new();
            let mut rng = RngForge::new(2).stream("bench");
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                plane.exchange(
                    SimTime::from_nanos(i * 1_000_000),
                    black_box(proto),
                    200_000,
                    &mut rng,
                )
            })
        });
    }
}

criterion_group! {
    name = substrates;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_event_kernel,
        bench_fabric,
        bench_fabric_saturated,
        bench_cluster,
        bench_warm_pool,
        bench_dataplane
}
criterion_main!(substrates);
