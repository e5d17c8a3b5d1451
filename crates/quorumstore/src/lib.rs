//! # music-quorumstore
//!
//! A Cassandra-like geo-replicated store, built for the MUSIC reproduction:
//! last-write-wins [`Partition`]s replicated across simulated WAN sites,
//! with three coordinator paths:
//!
//! | Operation | Consistency | Cost | Paper role |
//! |---|---|---|---|
//! | [`ReplicatedTable::read_one`] / [`ReplicatedTable::write_one`] | eventual (CL=ONE) | local | `get`/`put`, `CassaEV` baseline |
//! | [`ReplicatedTable::read_quorum`] / [`ReplicatedTable::write_quorum`] | majority | 1 WAN RTT | `dsGetQuorum`/`dsPutQuorum` |
//! | [`ReplicatedTable::lwt`] | linearizable CAS | 4 WAN RTTs | lock store ops, `MSCP` baseline |
//!
//! The LWT path drives the pure Paxos state machines of `music-paxos` with
//! the same four-phase structure as Cassandra's light-weight transactions.
//!
//! There is one coordinator, [`Table`], and one replica-side dispatch,
//! [`TableReplica::serve`]; between them sits a [`ReplicaLink`] — how a
//! [`StoreReq`] reaches a replica and its [`StoreResp`] comes back.
//! [`ReplicatedTable`] is the table over the deterministic simulator's
//! link, [`RemoteTable`] the table over a
//! [`Transport`](music_runtime::Transport) (real sockets via `music-node`,
//! or the simulated transport in tests). Protocol layers program against
//! [`TableApi`], which [`Table`] implements for every link.
//!
//! ## Quickstart (simulated runtime)
//!
//! ```
//! use music_quorumstore::{DataRow, Put, ReplicatedTable, TableConfig, WriteStamp};
//! use music_simnet::prelude::*;
//! use bytes::Bytes;
//!
//! let sim = Sim::new();
//! let net = Network::new(sim.clone(), LatencyProfile::one_us(), NetConfig::default(), 1);
//! let nodes: Vec<_> = (0..3).map(|s| net.add_node(SiteId(s))).collect();
//! let client = net.add_node(SiteId(0));
//! let table: ReplicatedTable<DataRow> =
//!     ReplicatedTable::new(net, nodes, 3, TableConfig::default());
//!
//! sim.block_on({
//!     let table = table.clone();
//!     async move {
//!         table
//!             .write_quorum(client, "k", Put::value(Bytes::from_static(b"v")), WriteStamp::new(1))
//!             .await
//!             .unwrap();
//!         let snap = table.read_quorum(client, "k").await.unwrap();
//!         assert_eq!(snap.value.unwrap(), Bytes::from_static(b"v"));
//!     }
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod error;
pub mod link;
pub mod partition;
pub mod remote;
pub mod replica;
pub mod ring;
pub mod stamp;
pub mod table;

pub use api::TableApi;
pub use error::StoreError;
pub use link::{ReplicaLink, SimLink, WireLink, SCAN_ROW_BYTES};
pub use partition::{DataRow, Partition, Put, RowSnapshot, HEADER_BYTES};
pub use remote::{serve_frame, RemoteTable};
pub use replica::{Proposal, StoreReq, StoreResp, TableReplica};
pub use ring::{key_hash, Placement};
pub use stamp::WriteStamp;
pub use table::{LwtOutcome, ReplicatedTable, Table, TableConfig};
