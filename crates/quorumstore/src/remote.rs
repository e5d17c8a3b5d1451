//! The store protocol on the wire: [`Wire`] forms of [`StoreReq`] and
//! [`StoreResp`], the frame handler a `music-node` process runs
//! ([`serve_frame`]), and [`RemoteTable`] — the coordinator over a
//! [`Transport`].
//!
//! Nothing here decides protocol behaviour. The coordinator is
//! [`Table`], the replica-side transitions are [`TableReplica::serve`];
//! this module only carries their messages across a socket. What the medium
//! does force on a remote table is stated on [`WireLink`]: no latency oracle
//! (CL=ONE reads target the key's primary, scans the first store node),
//! scans ship whole partitions, and a replica that errors is treated as one
//! that stays silent.

use music_paxos::{AcceptReply, Ballot, PrepareReply};
use music_runtime::{Transport, Wire, WireError, WireReader};
use music_simnet::net::NodeId;
use music_telemetry::Recorder;

use crate::link::WireLink;
use crate::partition::{DataRow, Partition, Put, RowSnapshot};
use crate::replica::{Proposal, StoreReq, StoreResp, TableReplica};
use crate::stamp::WriteStamp;
use crate::table::{Table, TableConfig};

// ---------------------------------------------------------------------------
// Wire codecs for the store's value types.
// ---------------------------------------------------------------------------

impl Wire for WriteStamp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WriteStamp::new(u64::decode(r)?))
    }
}

impl Wire for Put {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Put {
            value: Wire::decode(r)?,
        })
    }
}

impl Wire for RowSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.value.encode(buf);
        self.stamp.encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RowSnapshot {
            value: Wire::decode(r)?,
            stamp: Wire::decode(r)?,
        })
    }
}

// A `DataRow` is exactly its snapshot: replaying the cell as one stamped
// put onto a default row reconstructs identical state (last-write-wins,
// and a live value always carries a non-zero stamp).
impl Wire for DataRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.snapshot().encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let snap = RowSnapshot::decode(r)?;
        let mut row = DataRow::default();
        row.apply(&Put { value: snap.value }, snap.stamp);
        Ok(row)
    }
}

// `Ballot` lives in `music-paxos`, which does not know about the wire
// format (orphan rule), so it is framed by these helpers.
fn encode_ballot(b: Ballot, buf: &mut Vec<u8>) {
    b.round.encode(buf);
    b.proposer.encode(buf);
}

fn decode_ballot(r: &mut WireReader<'_>) -> Result<Ballot, WireError> {
    let round = u64::decode(r)?;
    let proposer = u32::decode(r)?;
    Ok(Ballot::new(round, proposer))
}

// ---------------------------------------------------------------------------
// Request / reply frames.
// ---------------------------------------------------------------------------

impl<P: Partition> Wire for StoreReq<P>
where
    P::Mutation: Wire,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreReq::Snapshot { key } => {
                buf.push(0);
                key.encode(buf);
            }
            StoreReq::Apply {
                key,
                mutation,
                stamp,
            } => {
                buf.push(1);
                key.encode(buf);
                mutation.encode(buf);
                stamp.encode(buf);
            }
            StoreReq::Prepare { key, ballot } => {
                buf.push(2);
                key.encode(buf);
                encode_ballot(*ballot, buf);
            }
            StoreReq::Accept {
                key,
                ballot,
                mutation,
                stamp,
            } => {
                buf.push(3);
                key.encode(buf);
                encode_ballot(*ballot, buf);
                mutation.encode(buf);
                stamp.encode(buf);
            }
            StoreReq::Commit {
                key,
                ballot,
                mutation,
                stamp,
            } => {
                buf.push(4);
                key.encode(buf);
                encode_ballot(*ballot, buf);
                mutation.encode(buf);
                stamp.encode(buf);
            }
            StoreReq::ListKeys => buf.push(5),
            StoreReq::Scan => buf.push(6),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => StoreReq::Snapshot {
                key: String::decode(r)?,
            },
            1 => StoreReq::Apply {
                key: String::decode(r)?,
                mutation: Wire::decode(r)?,
                stamp: Wire::decode(r)?,
            },
            2 => StoreReq::Prepare {
                key: String::decode(r)?,
                ballot: decode_ballot(r)?,
            },
            3 => StoreReq::Accept {
                key: String::decode(r)?,
                ballot: decode_ballot(r)?,
                mutation: Wire::decode(r)?,
                stamp: Wire::decode(r)?,
            },
            4 => StoreReq::Commit {
                key: String::decode(r)?,
                ballot: decode_ballot(r)?,
                mutation: Wire::decode(r)?,
                stamp: Wire::decode(r)?,
            },
            5 => StoreReq::ListKeys,
            6 => StoreReq::Scan,
            _ => return Err(WireError("invalid store request tag")),
        })
    }
}

impl<P: Partition + Wire> Wire for StoreResp<P>
where
    P::Mutation: Wire,
    P::Snapshot: Wire,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreResp::Snapshot(snap) => {
                buf.push(0);
                snap.encode(buf);
            }
            StoreResp::Ack => buf.push(1),
            StoreResp::Promise(reply) => {
                buf.push(2);
                reply.promised.encode(buf);
                encode_ballot(reply.current_promise, buf);
                match &reply.in_progress {
                    None => buf.push(0),
                    Some((ballot, proposal)) => {
                        buf.push(1);
                        encode_ballot(*ballot, buf);
                        proposal.mutation.encode(buf);
                        proposal.stamp.encode(buf);
                    }
                }
            }
            StoreResp::Accepted(reply) => {
                buf.push(3);
                reply.accepted.encode(buf);
                encode_ballot(reply.current_promise, buf);
            }
            StoreResp::Keys(keys) => {
                buf.push(4);
                keys.encode(buf);
            }
            StoreResp::Rows(rows) => {
                buf.push(5);
                rows.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => StoreResp::Snapshot(Wire::decode(r)?),
            1 => StoreResp::Ack,
            2 => StoreResp::Promise(PrepareReply {
                promised: bool::decode(r)?,
                current_promise: decode_ballot(r)?,
                in_progress: match r.u8()? {
                    0 => None,
                    1 => Some((
                        decode_ballot(r)?,
                        Proposal {
                            mutation: Wire::decode(r)?,
                            stamp: Wire::decode(r)?,
                        },
                    )),
                    _ => return Err(WireError("invalid in-progress tag")),
                },
            }),
            3 => StoreResp::Accepted(AcceptReply {
                accepted: bool::decode(r)?,
                current_promise: decode_ballot(r)?,
            }),
            4 => StoreResp::Keys(Wire::decode(r)?),
            5 => StoreResp::Rows(Wire::decode(r)?),
            _ => return Err(WireError("invalid store reply tag")),
        })
    }
}

// ---------------------------------------------------------------------------
// Server side.
// ---------------------------------------------------------------------------

/// Serves one raw [`StoreReq`] frame against a replica's state, returning
/// the encoded [`StoreResp`]: decode, [`TableReplica::serve`], encode.
///
/// A frame that fails to decode yields an empty response. No reply encodes
/// to zero bytes, so the coordinator's decode rejects it and retransmits
/// (every request is idempotent by stamps/ballots).
pub fn serve_frame<P>(replica: &mut TableReplica<P>, raw: &[u8]) -> Vec<u8>
where
    P: Partition + Wire,
    P::Mutation: Wire,
    P::Snapshot: Wire,
{
    match StoreReq::<P>::from_slice(raw) {
        Ok(req) => replica.serve(&req).to_vec(),
        Err(_) => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// The table whose replicas live in other processes, reached via `T`.
pub type RemoteTable<P, T> = Table<P, WireLink<P, T>>;

impl<P, T> Table<P, WireLink<P, T>>
where
    P: Partition + Wire,
    P::Mutation: Wire,
    P::Snapshot: Wire,
    T: Transport,
{
    /// A coordinator for replicas at `nodes` with replication factor `rf`.
    ///
    /// # Panics
    ///
    /// Panics if `rf` is zero or exceeds `nodes.len()`.
    pub fn new(
        transport: T,
        nodes: Vec<NodeId>,
        rf: usize,
        cfg: TableConfig,
        recorder: Recorder,
    ) -> Self {
        Table::over(WireLink::new(transport, recorder), nodes, rf, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::ReplicaLink;
    use bytes::Bytes;
    use music_runtime::SimTransport;
    use music_simnet::executor::Sim;
    use music_simnet::net::{NetConfig, Network};
    use music_simnet::topology::{LatencyProfile, SiteId};

    fn remote_fixture() -> (Sim, RemoteTable<DataRow, SimTransport>, NodeId) {
        let sim = Sim::new();
        let net = Network::new(
            sim.clone(),
            LatencyProfile::one_l(),
            NetConfig::default(),
            7,
        );
        let nodes: Vec<_> = (0..3).map(|_| net.add_node(SiteId(0))).collect();
        let client = net.add_node(SiteId(0));
        let transport = SimTransport::new(net);
        for &n in &nodes {
            let mut replica = TableReplica::<DataRow>::new();
            transport.serve(n, move |raw| serve_frame(&mut replica, raw));
        }
        let recorder = Recorder::off();
        let table = RemoteTable::new(transport, nodes, 3, TableConfig::default(), recorder);
        (sim, table, client)
    }

    #[test]
    fn empty_responses_do_not_count_toward_a_write_quorum() {
        let (sim, table, client) = remote_fixture();
        // Two of the three nodes answer every frame the way `serve_frame`
        // answers one it cannot decode: with nothing.
        for &node in &table.nodes()[1..] {
            table.link().rt().serve(node, |_| Vec::new());
        }
        let err = sim.block_on(async move {
            let put = Put::value(Bytes::from_static(b"v"));
            table
                .write_quorum(client, "k", put, WriteStamp::new(1))
                .await
        });
        assert_eq!(err, Err(crate::StoreError::Unavailable));
    }

    #[test]
    fn quorum_write_then_read_roundtrips() {
        let (sim, table, client) = remote_fixture();
        let t = table.clone();
        sim.block_on(async move {
            t.write_quorum(
                client,
                "k",
                Put::value(Bytes::from_static(b"v")),
                WriteStamp::new(1),
            )
            .await
            .unwrap();
            let snap = t.read_quorum(client, "k").await.unwrap();
            assert_eq!(snap.value.unwrap(), Bytes::from_static(b"v"));
        });
    }

    #[test]
    fn lwt_applies_and_read_one_sees_it() {
        let (sim, table, client) = remote_fixture();
        let t = table.clone();
        sim.block_on(async move {
            let out = t
                .lwt(client, "cas", |before, stamp| {
                    assert!(before.value.is_none());
                    Some((Put::value(Bytes::from_static(b"won")), stamp))
                })
                .await
                .unwrap();
            assert!(out.applied);
            let snap = t.read_one(client, "cas").await.unwrap();
            assert_eq!(snap.value.unwrap(), Bytes::from_static(b"won"));
            // A compare-failed LWT leaves the row alone.
            let out = t
                .lwt(client, "cas", |before, _| {
                    assert!(before.value.is_some());
                    None
                })
                .await
                .unwrap();
            assert!(!out.applied);
        });
    }

    #[test]
    fn scans_and_key_listing_work_over_the_wire() {
        let (sim, table, client) = remote_fixture();
        let t = table.clone();
        sim.block_on(async move {
            for key in ["a", "b"] {
                t.write_quorum(
                    client,
                    key,
                    Put::value(Bytes::from_static(b"x")),
                    WriteStamp::new(1),
                )
                .await
                .unwrap();
            }
            let keys = t.list_keys_local(client).await.unwrap();
            assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
            let rows = t
                .scan_local(client, |p: &DataRow| Some(p.snapshot().value))
                .await
                .unwrap();
            assert_eq!(rows.len(), 2);
            assert!(rows.iter().all(|(_, v)| v.is_some()));
        });
    }

    #[test]
    fn store_requests_roundtrip_the_codec() {
        let reqs: Vec<StoreReq<DataRow>> = vec![
            StoreReq::Snapshot { key: "k".into() },
            StoreReq::Apply {
                key: "k".into(),
                mutation: Put::value(Bytes::from_static(b"v")),
                stamp: WriteStamp::new(9),
            },
            StoreReq::Prepare {
                key: "k".into(),
                ballot: Ballot::new(3, 1),
            },
            StoreReq::ListKeys,
            StoreReq::Scan,
        ];
        for req in reqs {
            let buf = req.to_vec();
            let back = StoreReq::<DataRow>::from_slice(&buf).unwrap();
            assert_eq!(buf, back.to_vec());
        }
    }
}
