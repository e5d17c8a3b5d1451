//! End-to-end behaviour of the replicated store over the simulated WAN:
//! latency structure, consistency levels, failure handling, and LWT
//! linearizability.
//!
//! Every case runs twice, once per [`ReplicaLink`]: over the simulator link
//! ([`ReplicatedTable`]) and over the wire link ([`RemoteTable`] on
//! [`SimTransport`], each store node serving frames with [`serve_frame`]).
//! The network is the same simulated WAN either way, so the coordinator's
//! handling of contention, partitions, silent replicas and divergence is
//! checked on both media. `links_behave_identically` then runs one scripted
//! history over each and requires the same results, replica states, counters
//! and events.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use music_quorumstore::{
    serve_frame, DataRow, Partition, Put, RemoteTable, ReplicaLink, ReplicatedTable, RowSnapshot,
    SimLink, StoreError, Table, TableConfig, TableReplica, WireLink, WriteStamp, HEADER_BYTES,
    SCAN_ROW_BYTES,
};
use music_runtime::SimTransport;
use music_simnet::prelude::*;
use music_telemetry::{EventKind, LwtPhase, Recorder, Scope};

/// Network-free view of a key at the replica with the given index.
type Peek = Rc<dyn Fn(usize, &str) -> RowSnapshot>;

struct Fixture<L: ReplicaLink<DataRow>> {
    sim: Sim,
    net: Network,
    table: Table<DataRow, L>,
    store_nodes: Vec<NodeId>,
    clients: Vec<NodeId>,
    peek: Peek,
}

impl<L: ReplicaLink<DataRow>> Fixture<L> {
    fn peek_replica(&self, idx: usize, key: &str) -> RowSnapshot {
        (self.peek)(idx, key)
    }

    /// Whether all three replicas hold the same snapshot of `key`.
    fn converged(&self, key: &str) -> bool {
        (1..3).all(|i| self.peek_replica(i, key) == self.peek_replica(0, key))
    }
}

/// Zero service costs: pure latency structure, and byte counts (modelled on
/// one link, real on the other) cannot move a timing.
fn quiet() -> NetConfig {
    NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.0,
        jitter_frac: 0.0,
    }
}

/// The 1Us WAN with one store node and one client per site.
fn wan(cfg: NetConfig) -> (Sim, Network, Vec<NodeId>, Vec<NodeId>) {
    let sim = Sim::new();
    let profile = LatencyProfile::one_us();
    let net = Network::new(sim.clone(), profile.clone(), cfg, 7);
    let sites = 0..profile.site_count() as u32;
    let store_nodes = sites.clone().map(|s| net.add_node(SiteId(s))).collect();
    let clients = sites.map(|s| net.add_node(SiteId(s))).collect();
    (sim, net, store_nodes, clients)
}

fn sim_fixture(cfg: NetConfig, recorder: Recorder) -> Fixture<SimLink<DataRow>> {
    let (sim, net, store_nodes, clients) = wan(cfg);
    net.set_recorder(recorder);
    let table = ReplicatedTable::new(net.clone(), store_nodes.clone(), 3, TableConfig::default());
    let peeked = table.clone();
    Fixture {
        sim,
        net,
        table,
        store_nodes,
        clients,
        peek: Rc::new(move |idx, key| peeked.peek_replica(idx, key)),
    }
}

fn wire_fixture(cfg: NetConfig, recorder: Recorder) -> Fixture<WireLink<DataRow, SimTransport>> {
    let (sim, net, store_nodes, clients) = wan(cfg);
    let transport = SimTransport::new(net.clone());
    let replicas: Vec<Rc<RefCell<TableReplica<DataRow>>>> =
        store_nodes.iter().map(|_| Rc::default()).collect();
    for (&node, replica) in store_nodes.iter().zip(&replicas) {
        let replica = Rc::clone(replica);
        transport.serve(node, move |raw| serve_frame(&mut replica.borrow_mut(), raw));
    }
    let table = RemoteTable::new(
        transport,
        store_nodes.clone(),
        3,
        TableConfig::default(),
        recorder,
    );
    Fixture {
        sim,
        net,
        table,
        store_nodes,
        clients,
        peek: Rc::new(move |idx, key| replicas[idx].borrow_mut().snapshot(key)),
    }
}

/// Instantiates each generic case once per link.
macro_rules! on_both_links {
    ($($case:ident),* $(,)?) => {
        mod sim_link {
            $(#[test] fn $case() { super::$case(super::sim_fixture) })*
        }
        mod wire_link {
            $(#[test] fn $case() { super::$case(super::wire_fixture) })*
        }
    };
}

on_both_links!(
    quorum_write_then_quorum_read_round_trips,
    quorum_write_latency_is_one_rtt_to_second_nearest_replica,
    eventual_write_acks_locally_and_converges_globally,
    eventual_read_hits_one_replica_and_may_be_stale,
    quorum_survives_one_replica_crash_but_not_two,
    unacknowledged_write_may_still_land,
    lwt_takes_about_four_wan_round_trips,
    lwt_compare_failure_reports_current_state,
    racing_lwt_appends_apply_exactly_once,
    lwt_under_message_loss_still_linearizes,
    scan_local_lists_live_rows_in_order,
    transient_partition_only_delays_propagation,
    read_repair_heals_divergent_replicas,
    anti_entropy_sweep_heals_everything,
    anti_entropy_tolerates_a_down_replica,
);

fn b(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

fn quorum_write_then_quorum_read_round_trips<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client) = (f.table.clone(), f.clients[0]);
    f.sim.block_on(async move {
        table
            .write_quorum(client, "k", Put::value(b("hello")), WriteStamp::new(1))
            .await
            .unwrap();
        let snap = table.read_quorum(client, "k").await.unwrap();
        assert_eq!(snap.value, Some(b("hello")));
        assert_eq!(snap.stamp, WriteStamp::new(1));
    });
}

fn quorum_write_latency_is_one_rtt_to_second_nearest_replica<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    // Client at Ohio (site 0); replicas at Ohio/N.Cal/Oregon. Quorum = 2:
    // the local replica (0.2ms RTT) and the nearest remote (N.Cal, 53.79ms).
    let f = mk(quiet(), Recorder::off());
    let (table, client, sim) = (f.table.clone(), f.clients[0], f.sim.clone());
    let elapsed = f.sim.block_on(async move {
        let t0 = sim.now();
        table
            .write_quorum(client, "k", Put::value(b("x")), WriteStamp::new(1))
            .await
            .unwrap();
        sim.now() - t0
    });
    assert_eq!(elapsed.as_micros(), 53_790);
}

fn eventual_write_acks_locally_and_converges_globally<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client, sim) = (f.table.clone(), f.clients[0], f.sim.clone());
    let elapsed = f.sim.block_on(async move {
        let t0 = sim.now();
        table
            .write_one(client, "k", Put::value(b("v")), WriteStamp::new(1))
            .await
            .unwrap();
        sim.now() - t0
    });
    // Acknowledged by the intra-site replica: one intra-site RTT (0.2ms).
    assert_eq!(elapsed.as_micros(), 200);
    // Background propagation has not necessarily finished yet; drain it.
    f.sim.run();
    assert!(f.converged("k"), "all replicas converge after propagation");
}

fn eventual_read_hits_one_replica_and_may_be_stale<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let table = f.table.clone();
    let (ohio_client, frankfurt_client) = (f.clients[0], f.clients[2]);
    f.sim.block_on(async move {
        table
            .write_quorum(ohio_client, "k", Put::value(b("new")), WriteStamp::new(5))
            .await
            .unwrap();
        // Quorum = Ohio + N.Cal; the Oregon replica may still be stale.
        let near = table.read_one(frankfurt_client, "k").await.unwrap();
        // Value is either stale (None) or new, but never corrupt.
        assert!(near.value.is_none() || near.value == Some(b("new")));
    });
}

fn quorum_survives_one_replica_crash_but_not_two<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client, net) = (f.table.clone(), f.clients[0], f.net.clone());
    let (s1, s2) = (f.store_nodes[1], f.store_nodes[2]);
    f.sim.block_on(async move {
        net.set_node_up(s2, false);
        table
            .write_quorum(client, "k", Put::value(b("v1")), WriteStamp::new(1))
            .await
            .expect("quorum of 2/3 still available");
        net.set_node_up(s1, false);
        let err = table
            .write_quorum(client, "k", Put::value(b("v2")), WriteStamp::new(2))
            .await
            .unwrap_err();
        assert_eq!(err, StoreError::Unavailable);
        // Reads also fail without a quorum.
        let err = table.read_quorum(client, "k").await.unwrap_err();
        assert_eq!(err, StoreError::Unavailable);
    });
}

fn unacknowledged_write_may_still_land<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    // The coordinator times out (no quorum), yet the surviving replica has
    // applied the write: this is the "pending forever" case of §V-C that
    // MUSIC's synchFlag machinery exists to repair.
    let f = mk(quiet(), Recorder::off());
    let (table, client, net) = (f.table.clone(), f.clients[0], f.net.clone());
    let (s1, s2) = (f.store_nodes[1], f.store_nodes[2]);
    f.sim.block_on(async move {
        net.set_node_up(s1, false);
        net.set_node_up(s2, false);
        let err = table
            .write_quorum(client, "k", Put::value(b("ghost")), WriteStamp::new(9))
            .await
            .unwrap_err();
        assert_eq!(err, StoreError::Unavailable);
    });
    f.sim.run();
    // Replica 0 (co-located with the client) applied it anyway.
    let snap = f.peek_replica(0, "k");
    assert_eq!(snap.value, Some(b("ghost")));
}

fn lwt_takes_about_four_wan_round_trips<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client, sim) = (f.table.clone(), f.clients[0], f.sim.clone());
    let elapsed = f.sim.block_on(async move {
        let t0 = sim.now();
        table
            .lwt(client, "k", |_, suggested| {
                Some((Put::value(b("cas")), suggested))
            })
            .await
            .unwrap();
        sim.now() - t0
    });
    // 4 phases × quorum RTT (53.79ms) = ~215ms, matching the paper's
    // measured 219-230ms for LWT operations on the 1Us profile (§VIII-b).
    assert_eq!(elapsed.as_micros(), 4 * 53_790);
}

fn lwt_compare_failure_reports_current_state<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client) = (f.table.clone(), f.clients[0]);
    f.sim.block_on(async move {
        table
            .write_quorum(client, "k", Put::value(b("taken")), WriteStamp::new(1))
            .await
            .unwrap();
        let outcome = table
            .lwt(client, "k", |snap, suggested| {
                if snap.value.is_none() {
                    Some((Put::value(b("mine")), suggested))
                } else {
                    None // compare failed: key already set
                }
            })
            .await
            .unwrap();
        assert!(!outcome.applied);
        assert_eq!(outcome.before.value, Some(b("taken")));
        let snap = table.read_quorum(client, "k").await.unwrap();
        assert_eq!(snap.value, Some(b("taken")));
    });
}

fn racing_lwt_appends_apply_exactly_once<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    // Linearizability test with *idempotent* CAS operations (blind
    // increments can legitimately double-apply under LWT retries, exactly
    // as in Cassandra): each worker appends its unique tag only if the tag
    // is not yet present. Every tag must end up present exactly once.
    let f = mk(quiet(), Recorder::off());
    let table = f.table.clone();
    let clients = f.clients.clone();
    let sim = f.sim.clone();
    let total: usize = 10;
    let mut handles = Vec::new();
    for i in 0..total {
        let table = table.clone();
        let client = clients[i % 3];
        let tag = format!("w{i}");
        handles.push(sim.spawn(async move {
            loop {
                let res = table
                    .lwt(client, "set", |snap, suggested| {
                        let cur = snap
                            .value
                            .as_ref()
                            .map(|v| String::from_utf8(v.to_vec()).unwrap())
                            .unwrap_or_default();
                        if cur.split(',').any(|t| t == tag) {
                            return None; // already applied
                        }
                        let next = if cur.is_empty() {
                            tag.clone()
                        } else {
                            format!("{cur},{tag}")
                        };
                        Some((Put::value(Bytes::from(next.into_bytes())), suggested))
                    })
                    .await;
                if res.is_ok() {
                    break;
                }
                // Contention: client-level retry, per §III-A failure
                // semantics.
            }
        }));
    }
    sim.run();
    for h in &handles {
        assert!(h.is_done(), "all appends completed");
    }
    let final_snap = f.sim.block_on({
        let table = table.clone();
        let client = clients[0];
        async move { table.read_quorum(client, "set").await.unwrap() }
    });
    let text = String::from_utf8(final_snap.value.unwrap().to_vec()).unwrap();
    let mut tags: Vec<&str> = text.split(',').collect();
    tags.sort_unstable();
    let mut expected: Vec<String> = (0..total).map(|i| format!("w{i}")).collect();
    expected.sort();
    assert_eq!(tags, expected, "each tag applied exactly once");
}

fn lwt_under_message_loss_still_linearizes<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let mut cfg = NetConfig {
        service_fixed: SimDuration::ZERO,
        bandwidth_bytes_per_sec: u64::MAX / 2,
        loss: 0.05,
        jitter_frac: 0.1,
    };
    cfg.loss = 0.05;
    let f = mk(cfg, Recorder::off());
    let table = f.table.clone();
    let clients = f.clients.clone();
    let sim = f.sim.clone();
    let total: u64 = 6;
    let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
    for i in 0..total {
        let table = table.clone();
        let client = clients[(i % 3) as usize];
        let done = std::rc::Rc::clone(&done);
        sim.spawn(async move {
            // Clients retry on Unavailable, as the paper's failure
            // semantics require.
            loop {
                let res = table
                    .lwt(client, "counter", |snap, suggested| {
                        let cur = snap
                            .value
                            .as_ref()
                            .map(|v| {
                                let mut buf = [0u8; 8];
                                buf.copy_from_slice(v);
                                u64::from_be_bytes(buf)
                            })
                            .unwrap_or(0);
                        Some((
                            Put::value(Bytes::copy_from_slice(&(cur + 1).to_be_bytes())),
                            suggested,
                        ))
                    })
                    .await;
                if res.is_ok() {
                    done.set(done.get() + 1);
                    break;
                }
            }
        });
    }
    sim.run();
    assert_eq!(done.get(), total, "all increments eventually succeeded");
    let final_snap = f.sim.block_on({
        let table = table.clone();
        let client = clients[0];
        async move { table.read_quorum(client, "counter").await.unwrap() }
    });
    let mut buf = [0u8; 8];
    buf.copy_from_slice(final_snap.value.as_ref().unwrap());
    // Loss can cause an unacknowledged LWT to be retried after it actually
    // applied, so the counter may exceed `total` — but it can never be less.
    assert!(
        u64::from_be_bytes(buf) >= total,
        "no lost updates under loss"
    );
}

fn scan_local_lists_live_rows_in_order<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client) = (f.table.clone(), f.clients[0]);
    f.sim.block_on(async move {
        for (key, value) in [
            ("cherry", "x"),
            ("apple", "x"),
            ("date", "skip"),
            ("banana", "x"),
        ] {
            table
                .write_quorum(client, key, Put::value(b(value)), WriteStamp::new(1))
                .await
                .unwrap();
        }
        // A deleted row must not appear.
        table
            .write_quorum(client, "apple", Put::delete(), WriteStamp::new(2))
            .await
            .unwrap();
    });
    f.sim.run();
    let scan = |keep: fn(&DataRow) -> Option<Bytes>| {
        let table = f.table.clone();
        let rows = f
            .sim
            .block_on(async move { table.scan_local(client, keep).await.unwrap() });
        rows.into_iter()
            .map(|(k, v)| (k, String::from_utf8(v.to_vec()).unwrap()))
            .collect::<Vec<_>>()
    };
    let row = |k: &str, v: &str| (k.to_string(), v.to_string());
    assert_eq!(
        scan(|p| p.snapshot().value),
        vec![row("banana", "x"), row("cherry", "x"), row("date", "skip")],
        "sorted, tombstones excluded"
    );
    // The extractor may drop live rows too; the rest keep their order.
    assert_eq!(
        scan(|p| p.snapshot().value.filter(|v| v.as_ref() != b"skip")),
        vec![row("banana", "x"), row("cherry", "x")],
    );
    assert_eq!(scan(|_| None), vec![]);
}

fn transient_partition_only_delays_propagation<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    // rpc_reliable retransmission: a replica cut off during a write still
    // receives it after the partition heals (within the retry window).
    let f = mk(quiet(), Recorder::off());
    let (table, client, net) = (f.table.clone(), f.clients[0], f.net.clone());
    let s2 = f.store_nodes[2];
    f.sim.block_on(async move {
        net.set_link(client, s2, false);
        table
            .write_quorum(client, "k", Put::value(b("through")), WriteStamp::new(3))
            .await
            .unwrap();
        // Heal within the retransmission window (10 × 2 s).
        net.sim().sleep(SimDuration::from_secs(5)).await;
        net.set_link(client, s2, true);
    });
    f.sim.run();
    assert_eq!(
        f.peek_replica(2, "k").value,
        Some(b("through")),
        "retransmission delivered the write after healing"
    );
}

fn read_repair_heals_divergent_replicas<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client, net) = (f.table.clone(), f.clients[0], f.net.clone());
    let s2 = f.store_nodes[2];
    f.sim.block_on(async move {
        // Write while one replica is dead: it stays stale even after its
        // recovery (the propagation window has passed).
        net.set_node_up(s2, false);
        table
            .write_quorum(client, "k", Put::value(b("fresh")), WriteStamp::new(7))
            .await
            .unwrap();
    });
    f.sim.run(); // exhaust retransmission attempts against the dead node
    f.net.set_node_up(s2, true);
    assert_eq!(f.peek_replica(2, "k").value, None, "replica 2 is stale");

    // A quorum read that *sees the divergence* repairs all replicas.
    // Force the read to include the stale replica by killing replica 0.
    let (table, client, net) = (f.table.clone(), f.clients[1], f.net.clone());
    let s0 = f.store_nodes[0];
    f.sim.block_on(async move {
        net.set_node_up(s0, false);
        let snap = table.read_quorum(client, "k").await.unwrap();
        assert_eq!(snap.value, Some(b("fresh")), "reconciled value is correct");
        net.set_node_up(s0, true);
    });
    f.sim.run(); // let the repair writes land
    assert_eq!(
        f.peek_replica(2, "k").value,
        Some(b("fresh")),
        "read repair healed the straggler"
    );
}

fn anti_entropy_sweep_heals_everything<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    // Diverge one replica across several keys (writes during a partition,
    // retransmission window exhausted), then one repair_all pass heals it.
    let f = mk(quiet(), Recorder::off());
    let (table, client, net) = (f.table.clone(), f.clients[0], f.net.clone());
    let s2 = f.store_nodes[2];
    f.sim.block_on(async move {
        net.set_node_up(s2, false);
        for i in 0..4 {
            table
                .write_quorum(
                    client,
                    &format!("ae-{i}"),
                    Put::value(b("healed")),
                    WriteStamp::new(5),
                )
                .await
                .unwrap();
        }
    });
    f.sim.run(); // exhaust retransmissions against the dead node
    f.net.set_node_up(s2, true);
    for i in 0..4 {
        assert_eq!(f.peek_replica(2, &format!("ae-{i}")).value, None);
    }

    let (table, client) = (f.table.clone(), f.clients[1]);
    let repaired = f
        .sim
        .block_on(async move { table.repair_all(client).await.unwrap() });
    assert_eq!(repaired, 4, "all four keys were divergent");
    f.sim.run(); // let straggler repair writes land
    for i in 0..4 {
        let key = format!("ae-{i}");
        assert!(f.converged(&key), "{key} healed everywhere");
        assert_eq!(f.peek_replica(2, &key).value, Some(b("healed")));
    }

    // A second sweep finds nothing to do.
    let (table, client) = (f.table.clone(), f.clients[1]);
    let repaired = f
        .sim
        .block_on(async move { table.repair_all(client).await.unwrap() });
    assert_eq!(repaired, 0, "idempotent once converged");
}

fn anti_entropy_tolerates_a_down_replica<L: ReplicaLink<DataRow>>(
    mk: fn(NetConfig, Recorder) -> Fixture<L>,
) {
    let f = mk(quiet(), Recorder::off());
    let (table, client, net) = (f.table.clone(), f.clients[0], f.net.clone());
    let s1 = f.store_nodes[1];
    f.sim.block_on(async move {
        table
            .write_quorum(client, "k", Put::value(b("v")), WriteStamp::new(1))
            .await
            .unwrap();
        net.set_node_up(s1, false);
        // Repair proceeds with the majority that answers.
        let repaired = table.repair_all(client).await.unwrap();
        let _ = repaired; // divergence depends on straggler timing; key point: no error
        net.set_node_up(s1, true);
    });
}

/// The simulator link filters at the replica but charges the reply for
/// every live partition, kept or not: the byte model the schedule rests on.
#[test]
fn sim_link_scan_is_charged_for_every_live_row() {
    let rec = Recorder::metrics_only();
    let f = sim_fixture(quiet(), rec.clone());
    let (table, client) = (f.table.clone(), f.clients[0]);
    f.sim.block_on(async move {
        for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
            let value = if i % 2 == 0 { "keep" } else { "drop" };
            table
                .write_quorum(client, key, Put::value(b(value)), WriteStamp::new(1))
                .await
                .unwrap();
        }
    });
    f.sim.run();
    let live = 4;
    // The client's nearest replica is the store node at its own site.
    let replica = f.store_nodes[0];
    let bytes = move || {
        let snap = rec.metrics();
        (
            snap.get(Scope::Link(client.0, replica.0), "bytes_sent"),
            snap.get(Scope::Link(replica.0, client.0), "bytes_sent"),
        )
    };
    type Keep = fn(&DataRow) -> Option<()>;
    let scans: [(Keep, usize); 3] = [
        (|_| Some(()), 4),
        (
            |p| (p.snapshot().value.as_deref() == Some(b"keep")).then_some(()),
            2,
        ),
        (|_| None, 0),
    ];
    for (keep, kept) in scans {
        let (table, bytes) = (f.table.clone(), bytes.clone());
        let (before, rows, after) = f.sim.block_on(async move {
            let before = bytes();
            let rows = table.scan_local(client, keep).await.unwrap();
            (before, rows, bytes())
        });
        assert_eq!(rows.len(), kept);
        assert_eq!(after.0 - before.0, HEADER_BYTES as u64, "request");
        assert_eq!(
            after.1 - before.1,
            (HEADER_BYTES + live * SCAN_ROW_BYTES) as u64,
            "reply of a scan keeping {kept} of {live} rows"
        );
    }
}

#[test]
fn sharded_nine_node_cluster_places_and_serves_keys() {
    let sim = Sim::new();
    let profile = LatencyProfile::one_us();
    let net = Network::new(sim.clone(), profile, NetConfig::default(), 3);
    // 9 nodes, site-interleaved: s0 s1 s2 s0 s1 s2 s0 s1 s2.
    let nodes: Vec<_> = (0..9).map(|i| net.add_node(SiteId(i % 3))).collect();
    let client = net.add_node(SiteId(0));
    let table: ReplicatedTable<DataRow> =
        ReplicatedTable::new(net, nodes, 3, TableConfig::default());
    let table2 = table.clone();
    sim.block_on(async move {
        for i in 0..30 {
            let key = format!("key-{i}");
            table
                .write_quorum(client, &key, Put::value(b("v")), WriteStamp::new(1))
                .await
                .unwrap();
            let snap = table.read_quorum(client, &key).await.unwrap();
            assert_eq!(snap.value, Some(b("v")), "{key}");
        }
    });
    // Each key has exactly 3 replicas on 3 distinct sites.
    for i in 0..30 {
        let key = format!("key-{i}");
        let replicas = table2.placement().replicas_of(&key);
        assert_eq!(replicas.len(), 3);
        let sites: std::collections::HashSet<usize> = replicas.iter().map(|r| r % 3).collect();
        assert_eq!(sites.len(), 3, "{key} must span all sites");
    }
}

/// What one run of [`scripted_history`] observed.
#[derive(PartialEq, Debug)]
struct History {
    /// Every operation's result and the virtual time it returned at.
    results: Vec<String>,
    /// Final snapshot of every key at every replica.
    replicas: Vec<String>,
    /// Totals of `quorum_reads`, `quorum_writes`, `lwt_retries`,
    /// `read_repairs`.
    counters: [u64; 4],
    /// The store-level events each of the two coordinators emitted, in
    /// order.
    events: [Vec<EventKind>; 2],
}

/// One fixed history touching every coordinator path: quorum write/read, a
/// CL=ONE read, LWTs racing from two coordinators, an LWT that finds
/// another's in-progress proposal, a read that repairs a stale replica, and
/// a write whose replicas stay cut off until the operation times out.
fn scripted_history<L: ReplicaLink<DataRow>>(f: Fixture<L>) -> History {
    let recorder = f.table.link().recorder();
    let (table, sim, net) = (f.table.clone(), f.sim.clone(), f.net.clone());
    let (a, c, clients) = (f.clients[0], f.clients[1], f.clients.clone());
    let (s0, s1, s2) = (f.store_nodes[0], f.store_nodes[1], f.store_nodes[2]);
    let append = |tag: &'static str| {
        move |snap: &RowSnapshot, suggested| {
            let mut text = snap.value.as_ref().map_or(Vec::new(), |v| v.to_vec());
            text.extend_from_slice(tag.as_bytes());
            Some((Put::value(Bytes::from(text)), suggested))
        }
    };
    let results = f.sim.block_on(async move {
        let mut results = Vec::new();
        let mut log = |what: &str, result: String| {
            results.push(format!("{} {what}: {result}", sim.now()));
        };
        let settle = || sim.sleep(SimDuration::from_secs(30));

        let w = table.write_quorum(a, "k", Put::value(b("v1")), WriteStamp::new(1));
        log("write", format!("{:?}", w.await));
        log("read", format!("{:?}", table.read_quorum(a, "k").await));
        settle().await;
        // The CL=ONE target is the one thing the links choose differently
        // (nearest replica vs the key's primary); read from the primary's
        // own site, where the two coincide.
        let near_primary = clients[table.placement().replicas_of("k")[0]];
        let r = table.read_one(near_primary, "k");
        log("read one", format!("{:?}", r.await));

        // Two coordinators race three rounds of LWTs on one key.
        for round in 0..3 {
            let racers: Vec<_> = [(a, "a"), (c, "c")]
                .into_iter()
                .map(|(coord, tag)| {
                    let table = table.clone();
                    sim.spawn(async move { table.lwt(coord, "race", append(tag)).await })
                })
                .collect();
            for racer in racers {
                log(&format!("race {round}"), format!("{:?}", racer.await));
            }
        }

        // `a` crashes after its accept reached every replica but before any
        // remote reply returns: its proposal stays in progress, and `c`'s
        // next LWT on the key must complete it first.
        let (sim2, net2) = (sim.clone(), net.clone());
        let orphaned = table.lwt(a, "orphan", move |_, suggested| {
            let (sim, net) = (sim2.clone(), net2.clone());
            sim2.spawn(async move {
                sim.sleep(SimDuration::from_millis(45)).await;
                net.set_node_up(a, false);
            });
            Some((Put::value(b("from-a")), suggested))
        });
        log("orphaned lwt", format!("{:?}", orphaned.await));
        net.set_node_up(a, true);
        let completing = table.lwt(c, "orphan", append("+c"));
        log("completing lwt", format!("{:?}", completing.await));

        // A write misses replica 2 for good (retransmissions run out while
        // it is down); a later quorum read that includes it repairs it.
        net.set_node_up(s2, false);
        let w = table.write_quorum(a, "stale", Put::value(b("fresh")), WriteStamp::new(7));
        log("write past a dead replica", format!("{:?}", w.await));
        settle().await;
        net.set_node_up(s2, true);
        net.set_node_up(s0, false);
        log(
            "repairing read",
            format!("{:?}", table.read_quorum(c, "stale").await),
        );
        net.set_node_up(s0, true);

        // Two of three replicas are cut off until the operation times out;
        // the write still reaches them once the links heal.
        net.set_link(a, s1, false);
        net.set_link(a, s2, false);
        let w = table.write_quorum(a, "cut", Put::value(b("late")), WriteStamp::new(3));
        log("write across a cut", format!("{:?}", w.await));
        net.set_link(a, s1, true);
        net.set_link(a, s2, true);
        settle().await;
        results
    });
    let replicas = ["k", "race", "orphan", "stale", "cut"]
        .iter()
        .flat_map(|key| (0..3).map(move |idx| (key, idx)))
        .map(|(key, idx)| format!("{key}@{idx}: {:?}", f.peek_replica(idx, key)))
        .collect();
    let metrics = recorder.metrics();
    let counters = [
        "quorum_reads",
        "quorum_writes",
        "lwt_retries",
        "read_repairs",
    ]
    .map(|n| metrics.total(n));
    let events = [a, c].map(|coord| {
        let store_level = |kind: &EventKind| {
            use EventKind::*;
            matches!(
                kind,
                QuorumRead { .. }
                    | QuorumWrite { .. }
                    | ReadRepair { .. }
                    | Lwt { .. }
                    | LwtRetry { .. }
                    | LwtResult { .. }
            )
        };
        let of_coord = recorder.events().into_iter().filter(|e| e.node == coord.0);
        of_coord
            .map(|e| e.kind)
            .filter(store_level)
            .collect::<Vec<_>>()
    });
    History {
        results,
        replicas,
        counters,
        events,
    }
}

#[test]
fn links_behave_identically() {
    let on_sim = scripted_history(sim_fixture(quiet(), Recorder::tracing()));
    let on_wire = scripted_history(wire_fixture(quiet(), Recorder::tracing()));
    assert_eq!(on_sim, on_wire);

    // The script did reach the paths it is meant to compare.
    let [_, _, lwt_retries, read_repairs] = on_sim.counters;
    assert!(lwt_retries > 0, "the racing LWTs never collided");
    assert_eq!(read_repairs, 1);
    let saw = |what: &str| on_sim.results.iter().any(|line| line.contains(what));
    assert!(saw("orphaned lwt: Err(Unavailable)"));
    assert!(saw("write across a cut: Err(Unavailable)"));
    let completed = on_sim.events[1].iter().any(|kind| {
        matches!(
            kind,
            EventKind::Lwt {
                phase: LwtPhase::MustComplete,
                ..
            }
        )
    });
    assert!(completed, "no in-progress proposal was found and completed");
    assert!(on_sim.replicas.iter().all(|line| !line.contains("None")));
}
