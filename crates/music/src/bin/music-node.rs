//! `music-node`: serves one MUSIC storage replica — the data table and the
//! lock table, multiplexed by store-tag byte — over length-prefixed TCP
//! frames.
//!
//! The node is pure storage: all protocol coordination (quorum fan-out,
//! LWTs, lock-queue transitions, critical sections) runs client-side in
//! `music-load` or any embedder of [`music::node::remote_client`]. That
//! mirrors the paper's deployment, where MUSIC's logic lives in a library
//! over Cassandra-style stores.
//!
//! `music-node --id 1 --peers "1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103"`
//! serves node 1. A command line it cannot read exits 2 with the usage,
//! which lists the flags of [`music::node::NODE_USAGE`].
//!
//! Runs until killed; `scripts/local_cluster.sh` manages a 3-node cluster.

use music::node::{serve_node_frame, NodeConfig, NODE_USAGE};
use music_lockstore::LockPartition;
use music_quorumstore::{DataRow, TableReplica};
use music_runtime::{NativeRuntime, TcpServer};

fn main() {
    let cfg = match NodeConfig::from_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("music-node: {e}");
            eprintln!("{NODE_USAGE}");
            std::process::exit(2);
        }
    };

    let server = match TcpServer::bind(cfg.listen) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("music-node: cannot bind {}: {e}", cfg.listen);
            std::process::exit(1);
        }
    };
    println!(
        "music-node {}: serving data+lock stores on {} ({} peers, rf {})",
        cfg.id,
        server.local_addr(),
        cfg.peers.len(),
        cfg.rf
    );

    let rt = NativeRuntime::new();
    let mut data = TableReplica::<DataRow>::default();
    let mut locks = TableReplica::<LockPartition>::default();
    let done = server.serve(&rt, move |raw| serve_node_frame(&mut data, &mut locks, raw));
    // Serve until killed; the drain task only returns on shutdown.
    rt.block_on(done);
}
