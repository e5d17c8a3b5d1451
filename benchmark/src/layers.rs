//! `--layers`: isolated timing loops, each over one layer's public
//! functions with no network wait in the way (ROADMAP open item 1a). They
//! say what a layer costs by itself; the workloads say what that cost is
//! worth end to end.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use music::node::{serve_node_frame, STORE_DATA, STORE_LOCK};
use music_lockstore::{LockMutation, LockPartition, LockRef, LockStore};
use music_paxos::{Acceptor, Ballot};
use music_quorumstore::{
    DataRow, Put, ReplicatedTable, StoreReq, TableConfig, TableReplica, WriteStamp,
};
use music_runtime::{NativeRuntime, Runtime, TcpServer, TcpTransport, Transport, Wire};
use music_simnet::executor::Sim;
use music_simnet::net::{NetConfig, Network, NodeId};
use music_simnet::time::SimDuration;
use music_simnet::topology::{LatencyProfile, SiteId};
use music_telemetry::Recorder;

use crate::util::{pctl, ratio};
use crate::workloads;

fn row(name: &str, value: f64, unit: &str) {
    println!("{:<18} {name:<36} {value:>16.4} {unit}", "layers");
}

/// Nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn store_write(len: usize) -> StoreReq<DataRow> {
    StoreReq::Apply {
        key: "s1-c0-k17".into(),
        mutation: Put::value(Bytes::from(vec![7u8; len])),
        stamp: WriteStamp::new(1 << 40),
    }
}

fn lock_lwt() -> StoreReq<LockPartition> {
    StoreReq::Accept {
        key: "s1-c0-k17".into(),
        ballot: Ballot::new(9, 1_000_000),
        mutation: LockMutation::Enqueue {
            lock_ref: LockRef::new(41),
            token: 1 << 42,
            lease_until: None,
        },
        stamp: WriteStamp::new(1 << 40),
    }
}

/// `Wire`: encode + decode of the two frames a section sends most.
fn wire(iters: u64) {
    let w64 = store_write(64);
    let w4k = store_write(4096);
    let lwt = lock_lwt();
    let round = |req: &StoreReq<DataRow>| {
        let buf = black_box(req).to_vec();
        black_box(StoreReq::<DataRow>::from_slice(&buf).expect("round trip"));
    };
    row(
        "wire.store_write64_ns",
        ns_per_call(iters, || round(&w64)),
        "ns",
    );
    row(
        "wire.store_write4k_ns",
        ns_per_call(iters, || round(&w4k)),
        "ns",
    );
    row(
        "wire.lock_lwt_ns",
        ns_per_call(iters, || {
            let buf = black_box(&lwt).to_vec();
            black_box(StoreReq::<LockPartition>::from_slice(&buf).expect("round trip"));
        }),
        "ns",
    );
    row(
        "wire.store_write64_bytes",
        w64.to_vec().len() as f64,
        "count",
    );
    row("wire.lock_lwt_bytes", lwt.to_vec().len() as f64, "count");
}

/// `music-paxos`: one acceptor stepping through rising ballots.
fn paxos(iters: u64) {
    let mut acceptor = Acceptor::<u64>::new();
    let mut round = 0;
    row(
        "paxos.prepare_ns",
        ns_per_call(iters, || {
            round += 1;
            black_box(acceptor.prepare(Ballot::new(round, 1)));
        }),
        "ns",
    );
    row(
        "paxos.accept_ns",
        ns_per_call(iters, || {
            round += 1;
            black_box(acceptor.accept(Ballot::new(round, 1), round));
        }),
        "ns",
    );
}

/// `music-simnet`: the executor on nothing but timers, then on nothing but
/// messages (zero propagation, so no waiting either way).
fn simnet(scale: u64) {
    let sim = Sim::new();
    let tasks = 64;
    let sleeps = 2_000 * scale;
    let t0 = Instant::now();
    for t in 0..tasks {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..sleeps {
                s.sleep(SimDuration::from_micros(1 + (t + i) % 7)).await;
            }
        });
    }
    sim.run();
    row(
        "simnet.timer_storm_events_per_s",
        ratio(sim.profile().events() as f64, t0.elapsed().as_secs_f64()),
        "1/s",
    );

    let (sim, net, nodes) = flat_cluster(Recorder::off());
    let rpcs = 2_000 * scale;
    let t0 = Instant::now();
    for t in 0..tasks as usize {
        let (net, from, to) = (net.clone(), nodes[t % 3], nodes[(t + 1) % 3]);
        sim.spawn(async move {
            for _ in 0..rpcs {
                net.rpc(from, to, 64, || ((), 64)).await;
            }
        });
    }
    sim.run();
    row(
        "simnet.msg_storm_msgs_per_s",
        ratio(net.stats().0 as f64, t0.elapsed().as_secs_f64()),
        "1/s",
    );
}

/// `NativeRuntime`: spawn-and-join, and a timer that is already due.
fn native(iters: u64) {
    let rt = NativeRuntime::new();
    let rt2 = rt.clone();
    let per_spawn = rt.block_on(async move {
        let t0 = Instant::now();
        for i in 0..iters {
            black_box(rt2.spawn(async move { i }).await);
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    });
    row("native.spawn_wake_ns", per_spawn, "ns");
    let rt2 = rt.clone();
    let per_timer = rt.block_on(async move {
        let t0 = Instant::now();
        for _ in 0..iters {
            rt2.sleep(SimDuration::from_micros(1)).await;
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    });
    row("native.timer_ns", per_timer, "ns");
}

/// `TcpTransport` / `TcpServer`: an echo handler over loopback — the
/// floor under `transport.rtt_p50_us`.
fn tcp(iters: u64) {
    let server = TcpServer::bind("127.0.0.1:0".parse().expect("loopback")).expect("bind echo");
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let node = std::thread::spawn(move || {
        let rt = NativeRuntime::new();
        let done = server.serve(&rt, |req| req.to_vec());
        rt.block_on(done);
    });
    let rt = NativeRuntime::new();
    let t = TcpTransport::new(rt.clone(), HashMap::from([(1u32, addr)]));
    for (name, len) in [
        ("tcp.echo64_rtt_p50_us", 64),
        ("tcp.echo4k_rtt_p50_us", 4096),
    ] {
        let t2 = t.clone();
        let mut rtts = rt.block_on(async move {
            let mut rtts = Vec::with_capacity(iters as usize);
            for _ in 0..iters {
                let t0 = Instant::now();
                let reply = t2.request(NodeId(0), NodeId(1), vec![1u8; len]).await;
                rtts.push(t0.elapsed().as_nanos() as u64);
                assert_eq!(reply.map(|r| r.len()), Ok(len), "echo reply");
            }
            rtts
        });
        rtts.sort_unstable();
        row(name, pctl(&rtts, 0.5) / 1e3, "us");
    }
    let t2 = t.clone();
    let rounds = iters / 16;
    let per_s = rt.block_on(async move {
        let t0 = Instant::now();
        for _ in 0..rounds {
            let inflight: Vec<_> = (0..16)
                .map(|_| t2.request(NodeId(0), NodeId(1), vec![1u8; 64]))
                .collect();
            for f in inflight {
                f.await.expect("echo reply");
            }
        }
        (rounds * 16) as f64 / t0.elapsed().as_secs_f64()
    });
    row("tcp.echo64_depth16_per_s", per_s, "1/s");
    t.disconnect_all();
    stop.shutdown();
    node.join().expect("echo node thread");
}

/// Three nodes on one site with zero RTT and free service: protocol CPU
/// with the WAN wait taken out.
fn flat_cluster(recorder: Recorder) -> (Sim, Network, Vec<NodeId>) {
    let sim = Sim::new();
    let profile = LatencyProfile::from_upper_triangle("flat", &["a", "b", "c"], &[0.0, 0.0, 0.0]);
    let cfg = NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX,
        loss: 0.0,
        jitter_frac: 0.0,
    };
    let net = Network::new(sim.clone(), profile, cfg, 1);
    net.set_recorder(recorder);
    let nodes = (0..3).map(|s| net.add_node(SiteId(s))).collect();
    (sim, net, nodes)
}

/// Wall µs per call of an async op run `iters` times on the simulator.
fn sim_us_per_op<F, Fut>(sim: &Sim, iters: u64, mut op: F) -> f64
where
    F: FnMut(u64) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let t0 = Instant::now();
    sim.block_on(async move {
        for i in 0..iters {
            op(i).await;
        }
    });
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// `music-quorumstore` and `music-lockstore` coordinators on the flat
/// cluster, and the replica-side handlers called directly.
fn stores(iters: u64) {
    let (sim, net, nodes) = flat_cluster(Recorder::off());
    let coord = nodes[0];
    let table: ReplicatedTable<DataRow> =
        ReplicatedTable::new(net.clone(), nodes.clone(), 3, TableConfig::default());
    let value = Bytes::from(vec![7u8; 64]);
    let (t, v) = (table.clone(), value.clone());
    row(
        "quorumstore.write_quorum_us",
        sim_us_per_op(&sim, iters, move |i| {
            let (t, v) = (t.clone(), v.clone());
            async move {
                let key = format!("k{}", i % 64);
                t.write_quorum(coord, &key, Put::value(v), WriteStamp::new(i + 1))
                    .await
                    .expect("flat quorum write");
            }
        }),
        "us",
    );
    let t = table.clone();
    row(
        "quorumstore.read_quorum_us",
        sim_us_per_op(&sim, iters, move |i| {
            let t = t.clone();
            async move {
                let key = format!("k{}", i % 64);
                black_box(t.read_quorum(coord, &key).await.expect("flat quorum read"));
            }
        }),
        "us",
    );
    let (t, v) = (table.clone(), value.clone());
    let msgs_before = net.stats().0;
    row(
        "quorumstore.lwt_us",
        sim_us_per_op(&sim, iters, move |i| {
            let (t, v) = (t.clone(), v.clone());
            async move {
                let key = format!("k{}", i % 64);
                t.lwt(coord, &key, |_, suggested| {
                    Some((Put::value(v.clone()), suggested))
                })
                .await
                .expect("flat lwt");
            }
        }),
        "us",
    );
    row(
        "quorumstore.lwt_msgs",
        ratio((net.stats().0 - msgs_before) as f64, iters as f64),
        "count",
    );

    let locks = LockStore::new(net.clone(), nodes.clone(), 3, TableConfig::default());
    let refs = Rc::new(RefCell::new(Vec::new()));
    let (l, r) = (locks.clone(), Rc::clone(&refs));
    row(
        "lockstore.enqueue_us",
        sim_us_per_op(&sim, iters, move |i| {
            let (l, r) = (l.clone(), Rc::clone(&r));
            async move {
                let key = format!("k{}", i % 64);
                let lock_ref = l
                    .generate_and_enqueue(coord, &key)
                    .await
                    .expect("flat enqueue");
                r.borrow_mut().push((key, lock_ref));
            }
        }),
        "us",
    );
    let l = locks.clone();
    row(
        "lockstore.peek_us",
        sim_us_per_op(&sim, iters, move |i| {
            let l = l.clone();
            async move {
                let key = format!("k{}", i % 64);
                black_box(l.peek_local(coord, &key).await.expect("flat peek"));
            }
        }),
        "us",
    );
    let l = locks.clone();
    row(
        "lockstore.dequeue_us",
        sim_us_per_op(&sim, iters, move |i| {
            let (l, r) = (l.clone(), Rc::clone(&refs));
            async move {
                let (key, lock_ref) = r.borrow()[i as usize].clone();
                l.dequeue(coord, &key, lock_ref)
                    .await
                    .expect("flat dequeue");
            }
        }),
        "us",
    );

    // Replica side: the frame handler `music-node` serves, fed directly.
    let mut data = TableReplica::<DataRow>::default();
    let mut lock_tbl = TableReplica::<LockPartition>::default();
    let mut write_frame = vec![STORE_DATA];
    write_frame.extend(store_write(64).to_vec());
    row(
        "quorumstore.serve_write_ns",
        ns_per_call(iters * 20, || {
            black_box(serve_node_frame(
                &mut data,
                &mut lock_tbl,
                black_box(&write_frame),
            ));
        }),
        "ns",
    );
    let mut round = 0u64;
    row(
        "quorumstore.serve_lwt_ns",
        ns_per_call(iters * 20, || {
            round += 1;
            let mut frame = vec![STORE_LOCK];
            frame.extend(
                StoreReq::<LockPartition>::Prepare {
                    key: "s1-c0-k17".into(),
                    ballot: Ballot::new(round, 1_000_000),
                }
                .to_vec(),
            );
            black_box(serve_node_frame(&mut data, &mut lock_tbl, &frame));
        }),
        "ns",
    );
}

/// `music-telemetry`: what a recorder costs a run that does not read it —
/// a short `sim_wan_disjoint`, per mode, against recorder-off.
fn telemetry(scale: u64) {
    let workloads::Workload::Sim(spec) = workloads::all()
        .into_iter()
        .find(|w| w.name() == "sim_wan_disjoint")
        .expect("sim_wan_disjoint is defined")
    else {
        unreachable!("sim_wan_disjoint is a simulator workload");
    };
    let sections = 1_000 * scale;
    let cost = |recorder: fn() -> Recorder| {
        let pass = crate::sim::one_pass_with(&spec, 1, sections, 100, recorder(), false, None);
        pass.cpu_us_per_cs()
    };
    let off = cost(Recorder::off);
    row(
        "telemetry.metrics_only_us_per_cs",
        cost(Recorder::metrics_only) - off,
        "us",
    );
    row(
        "telemetry.tracing_us_per_cs",
        cost(Recorder::tracing) - off,
        "us",
    );
}

pub fn run(quick: bool) {
    let scale = if quick { 1 } else { 10 };
    wire(20_000 * scale);
    paxos(200_000 * scale);
    simnet(scale);
    native(5_000 * scale);
    tcp(1_000 * scale);
    stores(500 * scale);
    telemetry(scale);
}
