//! Socket-runtime smoke test: an in-process 3-replica cluster on loopback
//! ports, driven through the full MUSIC client stack — the library-level
//! twin of `scripts/local_cluster.sh`.

use bytes::Bytes;
use music::node::{remote_client, serve_node_frame, CLIENT_ID_BASE};
use music::prelude::*;
use music_lockstore::LockPartition;
use music_quorumstore::{DataRow, TableReplica};
use music_runtime::{NativeRuntime, TcpServer};
use music_telemetry::Recorder;

#[test]
fn three_replica_loopback_cluster_round_trips() {
    let rt = NativeRuntime::new();

    // Bind three ephemeral loopback ports, then serve a full storage
    // replica (data + lock tables behind the store-tag mux) on each.
    let mut peers = Vec::new();
    let mut servers = Vec::new();
    for id in 1..=3u32 {
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap()).expect("bind loopback");
        peers.push((id, server.local_addr()));
        servers.push(server);
    }
    let mut shutdowns = Vec::new();
    let mut serve_handles = Vec::new();
    for server in servers {
        shutdowns.push(server.shutdown_handle());
        let mut data = TableReplica::<DataRow>::default();
        let mut locks = TableReplica::<LockPartition>::default();
        serve_handles
            .push(server.serve(&rt, move |raw| serve_node_frame(&mut data, &mut locks, raw)));
    }

    let client = remote_client(
        &rt,
        CLIENT_ID_BASE,
        &peers,
        3,
        MusicConfig::default(),
        Recorder::off(),
    )
    .expect("client over sockets");

    rt.block_on(async move {
        // Two full critical sections: the second round proves the first
        // round's state survived real socket round trips.
        for round in 1..=2u64 {
            let cs = client.enter("counter").await.expect("enter");
            let prev = cs.get().await.expect("criticalGet");
            let n = prev.map_or(0, |b| {
                u64::from_be_bytes(b.as_ref().try_into().expect("counter width"))
            });
            assert_eq!(n, round - 1, "latest state over sockets");
            cs.put(Bytes::copy_from_slice(&round.to_be_bytes()))
                .await
                .expect("criticalPut");
            cs.release().await.expect("release");
        }
        // Outside any section, the eventual read still sees the data.
        let v = client.get("counter").await.expect("eventualGet");
        assert_eq!(v, Some(Bytes::copy_from_slice(&2u64.to_be_bytes())));
    });

    // Clean shutdown: stop all three servers and drain their serve tasks.
    for s in &shutdowns {
        s.shutdown();
    }
    rt.block_on(async move {
        for h in serve_handles {
            h.await;
        }
    });
    assert_eq!(rt.live_tasks(), 0, "shutdown leaves no serve tasks behind");
}
