//! The replica side of the store protocol: one node's state
//! ([`TableReplica`]), the requests a coordinator sends it ([`StoreReq`]),
//! the replies it gives ([`StoreResp`]), and the single dispatch between
//! them ([`TableReplica::serve`]).
//!
//! Every replica-side state transition lives in `serve`. The simulator link
//! calls it on the in-process replica at the virtual instant a request is
//! delivered; `music-node` calls it on each decoded frame
//! ([`crate::remote::serve_frame`]). All requests are idempotent (stamped
//! last-write-wins applications and Paxos messages), so a link may deliver
//! one more than once.

use std::collections::HashMap;

use music_paxos::{AcceptReply, Acceptor, Ballot, PrepareReply};

use crate::partition::Partition;
use crate::stamp::WriteStamp;

/// A Paxos proposal replicated by the LWT path: an absolute mutation plus
/// the stamp it will be applied with.
#[derive(Clone, Debug)]
pub struct Proposal<P: Partition> {
    /// The mutation to apply on commit.
    pub mutation: P::Mutation,
    /// Stamp the mutation is applied with (last-write-wins).
    pub stamp: WriteStamp,
}

/// One coordinator→replica request of the store protocol.
#[derive(Clone)]
pub enum StoreReq<P: Partition> {
    /// Read one partition's snapshot.
    Snapshot {
        /// Partition key.
        key: String,
    },
    /// Apply a stamped mutation (quorum/eventual write).
    Apply {
        /// Partition key.
        key: String,
        /// The mutation.
        mutation: P::Mutation,
        /// Its last-write-wins stamp.
        stamp: WriteStamp,
    },
    /// LWT phase 1: prepare/promise.
    Prepare {
        /// Partition key.
        key: String,
        /// The coordinator's ballot.
        ballot: Ballot,
    },
    /// LWT phase 3: propose/accept.
    Accept {
        /// Partition key.
        key: String,
        /// The coordinator's ballot.
        ballot: Ballot,
        /// Proposed mutation.
        mutation: P::Mutation,
        /// Stamp the mutation commits with.
        stamp: WriteStamp,
    },
    /// LWT phase 4: commit (clears the round and applies the mutation).
    Commit {
        /// Partition key.
        key: String,
        /// The committing ballot.
        ballot: Ballot,
        /// Committed mutation.
        mutation: P::Mutation,
        /// Stamp the mutation is applied with.
        stamp: WriteStamp,
    },
    /// Sorted keys of all live partitions.
    ListKeys,
    /// All live partitions (range scan).
    Scan,
}

/// A replica's reply to one [`StoreReq`]. Every variant, the bare
/// acknowledgement included, encodes to at least a tag byte, so an empty or
/// garbage response never decodes as a reply.
pub enum StoreResp<P: Partition> {
    /// Reply to [`StoreReq::Snapshot`].
    Snapshot(P::Snapshot),
    /// Reply to [`StoreReq::Apply`] and [`StoreReq::Commit`]: applied.
    Ack,
    /// Reply to [`StoreReq::Prepare`].
    Promise(PrepareReply<Proposal<P>>),
    /// Reply to [`StoreReq::Accept`].
    Accepted(AcceptReply),
    /// Reply to [`StoreReq::ListKeys`].
    Keys(Vec<String>),
    /// Reply to [`StoreReq::Scan`].
    Rows(Vec<(String, P)>),
}

// The coordinator names the reply kind it expects by one of these
// projections; `None` means the replica answered something else.
impl<P: Partition> StoreResp<P> {
    pub(crate) fn snapshot(self) -> Option<P::Snapshot> {
        match self {
            StoreResp::Snapshot(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn ack(self) -> Option<()> {
        matches!(self, StoreResp::Ack).then_some(())
    }

    pub(crate) fn promise(self) -> Option<PrepareReply<Proposal<P>>> {
        match self {
            StoreResp::Promise(r) => Some(r),
            _ => None,
        }
    }

    pub(crate) fn accepted(self) -> Option<AcceptReply> {
        match self {
            StoreResp::Accepted(r) => Some(r),
            _ => None,
        }
    }

    pub(crate) fn keys(self) -> Option<Vec<String>> {
        match self {
            StoreResp::Keys(k) => Some(k),
            _ => None,
        }
    }
}

/// Replica-side state of one store node: its partitions plus the per-key
/// Paxos acceptors the LWT path drives. The simulator holds one per store
/// node inside its link; a real deployment hosts one per `music-node`
/// process.
pub struct TableReplica<P: Partition> {
    partitions: HashMap<String, P>,
    paxos: HashMap<String, Acceptor<Proposal<P>>>,
}

impl<P: Partition> Default for TableReplica<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Partition> TableReplica<P> {
    /// An empty replica.
    pub fn new() -> Self {
        TableReplica {
            partitions: HashMap::new(),
            paxos: HashMap::new(),
        }
    }

    /// Snapshot of `key`'s partition; an absent key answers an empty
    /// partition's snapshot and is not inserted, so reads create no state.
    pub fn snapshot(&self, key: &str) -> P::Snapshot {
        match self.partitions.get(key) {
            Some(p) => p.snapshot(),
            None => P::default().snapshot(),
        }
    }

    /// Applies a stamped mutation to `key`'s partition, creating it on the
    /// first write (the key's `String` is allocated only then).
    pub fn apply(&mut self, key: &str, mutation: &P::Mutation, stamp: WriteStamp) {
        if let Some(p) = self.partitions.get_mut(key) {
            p.apply(mutation, stamp);
        } else {
            let mut p = P::default();
            p.apply(mutation, stamp);
            self.partitions.insert(key.to_string(), p);
        }
    }

    /// The Paxos acceptor guarding `key`'s LWT rounds.
    pub fn acceptor(&mut self, key: &str) -> &mut Acceptor<Proposal<P>> {
        self.paxos
            .entry(key.to_string())
            .or_insert_with(Acceptor::new)
    }

    /// The rows `extract` keeps (`Some`) of every live partition, sorted
    /// by key, and how many live partitions the pass visited (the scan
    /// primitive). A dropped row costs no key clone and no sort slot.
    pub fn scan<R>(&self, extract: impl Fn(&P) -> Option<R>) -> (Vec<(String, R)>, usize) {
        let mut live = 0;
        let mut rows: Vec<(String, R)> = self
            .partitions
            .iter()
            .filter(|(_, p)| p.exists())
            .inspect(|_| live += 1)
            .filter_map(|(k, p)| extract(p).map(|r| (k.clone(), r)))
            .collect();
        // Keys are unique, so an unstable sort gives the one sorted order.
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (rows, live)
    }

    /// Runs one request against this replica's state and returns the reply:
    /// the whole replica-side protocol.
    pub fn serve(&mut self, req: &StoreReq<P>) -> StoreResp<P> {
        match req {
            StoreReq::Snapshot { key } => StoreResp::Snapshot(self.snapshot(key)),
            StoreReq::Apply {
                key,
                mutation,
                stamp,
            } => {
                self.apply(key, mutation, *stamp);
                StoreResp::Ack
            }
            StoreReq::Prepare { key, ballot } => {
                StoreResp::Promise(self.acceptor(key).prepare(*ballot))
            }
            StoreReq::Accept {
                key,
                ballot,
                mutation,
                stamp,
            } => {
                let proposal = Proposal {
                    mutation: mutation.clone(),
                    stamp: *stamp,
                };
                StoreResp::Accepted(self.acceptor(key).accept(*ballot, proposal))
            }
            // Commit carries the proposal itself (as Cassandra's commit
            // writes the mutation into the table): a replica that missed the
            // accept still applies the committed value, so even CL=ONE reads
            // converge. Clearing the round is a no-op if it never accepted.
            StoreReq::Commit {
                key,
                ballot,
                mutation,
                stamp,
            } => {
                let _ = self.acceptor(key).commit(*ballot);
                self.apply(key, mutation, *stamp);
                StoreResp::Ack
            }
            StoreReq::ListKeys => {
                let (keys, _) = self.scan(|_| Some(()));
                StoreResp::Keys(keys.into_iter().map(|(k, ())| k).collect())
            }
            StoreReq::Scan => StoreResp::Rows(self.scan(|p| Some(p.clone())).0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{DataRow, Put};
    use bytes::Bytes;

    #[test]
    fn reading_an_absent_key_creates_no_state() {
        let mut replica = TableReplica::<DataRow>::new();
        let read = |replica: &mut TableReplica<DataRow>| match replica
            .serve(&StoreReq::Snapshot { key: "k".into() })
        {
            StoreResp::Snapshot(s) => s,
            _ => panic!("a snapshot request answers a snapshot"),
        };
        assert_eq!(read(&mut replica), DataRow::default().snapshot());
        assert_eq!(replica.partitions.len(), 0, "the read inserted nothing");
        replica.apply(
            "k",
            &Put::value(Bytes::from_static(b"v")),
            WriteStamp::new(1),
        );
        assert_eq!(replica.partitions.len(), 1, "the write created the row");
        assert_eq!(read(&mut replica).value, Some(Bytes::from_static(b"v")));
    }
}
