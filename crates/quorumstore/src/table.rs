//! [`Table`]: the coordinator of a geo-replicated table of [`Partition`]s,
//! with Cassandra-style operations.
//!
//! * `read_one` / `write_one` — eventual consistency (CL=ONE): reads hit
//!   one replica (the link picks which); writes go to every replica but
//!   acknowledge after the first. This is the `CassaEV` baseline of §VIII-b.
//! * `read_quorum` / `write_quorum` — majority operations (CL=QUORUM),
//!   one WAN round trip. These implement `dsGetQuorum` / `dsPutQuorum`.
//! * `lwt` — Paxos-based compare-and-set in four phases
//!   (prepare/promise → read → propose/accept → commit), exactly the
//!   Cassandra LWT structure the paper builds its lock store on (§VI,
//!   §X-A1). An in-progress proposal discovered during prepare is completed
//!   before the caller's own update runs.
//!
//! Writes always propagate to *all* replicas; the consistency level only
//! chooses how many acknowledgments the coordinator waits for. Straggler
//! deliveries continue in the background (detached tasks), which is what
//! makes the store eventually consistent.
//!
//! The coordinator exists once, generic over the [`ReplicaLink`] that
//! carries its requests. [`ReplicatedTable`] names it over the simulator
//! link, [`RemoteTable`](crate::remote::RemoteTable) over the wire link.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

use music_paxos::{choose_value, Ballot, BallotGenerator, Chosen};
use music_runtime::{never, quorum, timeout, Runtime};
use music_simnet::net::{Network, NodeId};
use music_simnet::time::SimDuration;
use music_telemetry::{EventKind, LwtPhase, Scope};

use crate::error::StoreError;
use crate::link::{ReplicaAddr, ReplicaLink, SimLink};
use crate::partition::Partition;
use crate::replica::{Proposal, StoreReq, StoreResp};
use crate::ring::{key_hash, Placement};
use crate::stamp::WriteStamp;

/// Tunables for coordinator operations.
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// How long a coordinator waits for a quorum before nacking the client.
    pub op_timeout: SimDuration,
    /// Maximum LWT ballot-race retries before reporting
    /// [`StoreError::Contention`].
    pub lwt_retries: u32,
    /// Base back-off between LWT retries (scaled by attempt and skewed per
    /// coordinator to break livelock symmetry).
    pub lwt_backoff: SimDuration,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            op_timeout: SimDuration::from_secs(4),
            lwt_retries: 16,
            lwt_backoff: SimDuration::from_millis(5),
        }
    }
}

/// Result of a [`Table::lwt`] call.
#[derive(Debug)]
pub struct LwtOutcome<P: Partition> {
    /// Whether the caller's mutation was applied (`false` = the `decide`
    /// closure declined, i.e. the compare failed).
    pub applied: bool,
    /// The reconciled quorum snapshot the decision was made against.
    pub before: P::Snapshot,
}

/// A ballot as one integer, round in the high bits: the `ballot` field of
/// LWT telemetry events and the value of ballot-derived stamps.
fn ballot_code(ballot: Ballot) -> u64 {
    (ballot.round << 20) | u64::from(ballot.proposer)
}

/// Default stamp an LWT mutation gets if the `decide` closure keeps the
/// suggestion: derived from the ballot, so stamps of successive LWTs on a
/// key are strictly increasing. The round owns the high bits; the proposer
/// id must fit the low 20 bits or stamps could invert across rounds.
fn ballot_stamp(ballot: Ballot) -> WriteStamp {
    assert!(
        u64::from(ballot.proposer) < (1 << 20),
        "LWT coordinator node id {} exceeds the stamp's proposer field",
        ballot.proposer
    );
    WriteStamp::new(ballot_code(ballot))
}

struct TableInner<P, L> {
    link: L,
    nodes: Vec<NodeId>,
    placement: Placement,
    cfg: TableConfig,
    /// Highest ballot each (coordinator, key) pair has observed.
    ballots: RefCell<HashMap<(NodeId, String), BallotGenerator>>,
    _partition: PhantomData<P>,
}

/// Coordinator handle for a replicated table of `P` partitions whose
/// replicas are reached over `L`. Clone handles freely.
#[derive(Clone)]
pub struct Table<P: Partition, L: ReplicaLink<P>> {
    inner: Rc<TableInner<P, L>>,
}

/// The table over the deterministic simulator: replicas held in-process,
/// shared by all coordinators in the simulation.
pub type ReplicatedTable<P> = Table<P, SimLink<P>>;

type Handle<P, L, R> = <<L as ReplicaLink<P>>::Rt as Runtime>::JoinHandle<R>;

impl<P: Partition, L: ReplicaLink<P>> fmt::Debug for Table<P, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("nodes", &self.inner.nodes)
            .field("rf", &self.inner.placement.rf())
            .finish()
    }
}

impl<P: Partition> Table<P, SimLink<P>> {
    /// Creates a table replicated across `nodes` with replication factor
    /// `rf`.
    ///
    /// For site-spread replicas, order `nodes` site-interleaved
    /// (`s0n0, s1n0, s2n0, s0n1, …`) — see [`Placement`].
    ///
    /// # Panics
    ///
    /// Panics if `rf` is zero or exceeds `nodes.len()`.
    pub fn new(net: Network, nodes: Vec<NodeId>, rf: usize, cfg: TableConfig) -> Self {
        Table::over(SimLink::new(net, nodes.len()), nodes, rf, cfg)
    }

    /// The network this table communicates over.
    pub fn net(&self) -> &Network {
        self.inner.link.net()
    }

    /// Direct, network-free view of one replica's partition state — test
    /// and experiment instrumentation only.
    pub fn peek_replica(&self, replica_idx: usize, key: &str) -> P::Snapshot {
        self.inner
            .link
            .replica(replica_idx)
            .borrow_mut()
            .snapshot(key)
    }

    /// Whether every replica of `key` currently holds an identical
    /// snapshot (by `Debug` rendering) — convergence check for tests.
    pub fn converged(&self, key: &str) -> bool {
        let snaps: Vec<String> = self
            .replicas_of(key)
            .into_iter()
            .map(|(i, _)| format!("{:?}", self.peek_replica(i, key)))
            .collect();
        snaps.windows(2).all(|w| w[0] == w[1])
    }
}

impl<P: Partition, L: ReplicaLink<P>> Table<P, L> {
    /// A coordinator for the replicas at `nodes`, reached over `link`.
    pub(crate) fn over(link: L, nodes: Vec<NodeId>, rf: usize, cfg: TableConfig) -> Self {
        Table {
            inner: Rc::new(TableInner {
                link,
                placement: Placement::new(nodes.len(), rf),
                nodes,
                cfg,
                ballots: RefCell::new(HashMap::new()),
                _partition: PhantomData,
            }),
        }
    }

    /// The link requests travel over.
    pub fn link(&self) -> &L {
        &self.inner.link
    }

    /// Placement (ring) of this table.
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// Node ids of all store replicas.
    pub fn nodes(&self) -> &[NodeId] {
        &self.inner.nodes
    }

    fn rt(&self) -> &L::Rt {
        self.inner.link.rt()
    }

    /// Replica indices and node ids holding `key`.
    fn replicas_of(&self, key: &str) -> Vec<ReplicaAddr> {
        self.inner
            .placement
            .replicas_of(key)
            .into_iter()
            .map(|i| (i, self.inner.nodes[i]))
            .collect()
    }

    /// The CL=ONE target for scans, which are not per-key routed: the
    /// link's pick among all store nodes.
    fn scan_target(&self, coord: NodeId) -> ReplicaAddr {
        let all: Vec<ReplicaAddr> = self.inner.nodes.iter().copied().enumerate().collect();
        self.inner.link.pick_one(coord, &all)
    }

    fn quorum_size(&self) -> usize {
        self.inner.placement.quorum()
    }

    /// Records a telemetry event attributed to `node`, stamped with the
    /// runtime's clock and the running task's trace tag.
    fn emit(&self, node: NodeId, kind: impl FnOnce() -> EventKind) {
        let (rt, rec) = (self.rt(), self.link().recorder());
        rec.record(rt.now().as_micros(), rt.trace(), node.0, kind);
    }

    /// Spawns one reliable request per replica of `key`; `pick` names the
    /// reply kind expected. Retransmission means a transient partition
    /// delays a replica's update instead of dropping it forever — the
    /// hinted-handoff behaviour the store's eventual consistency relies on.
    /// A replica that answers with another kind counts as silent.
    fn fan_out<R: 'static>(
        &self,
        coord: NodeId,
        key: &str,
        req: &StoreReq<P>,
        pick: fn(StoreResp<P>) -> Option<R>,
    ) -> Vec<Handle<P, L, R>> {
        self.replicas_of(key)
            .into_iter()
            .map(|to| {
                let (link, req) = (self.inner.link.clone(), req.clone());
                self.rt().spawn(async move {
                    match pick(link.call_reliable(coord, to, req).await) {
                        Some(reply) => reply,
                        None => never().await,
                    }
                })
            })
            .collect()
    }

    /// Fans `req` out and waits for the first `need` replies, in arrival
    /// order, within the operation timeout.
    async fn quorum_of<R: 'static>(
        &self,
        coord: NodeId,
        key: &str,
        req: &StoreReq<P>,
        pick: fn(StoreResp<P>) -> Option<R>,
        need: usize,
    ) -> Result<Vec<R>, StoreError> {
        let handles = self.fan_out(coord, key, req, pick);
        let replies = timeout(self.rt(), self.inner.cfg.op_timeout, quorum(handles, need))
            .await
            .map_err(|_| StoreError::Unavailable)?;
        Ok(replies.into_iter().map(|(_, reply)| reply).collect())
    }

    /// One single-attempt request to `to`, bounded by the operation
    /// timeout.
    async fn call_once<R>(
        &self,
        coord: NodeId,
        to: ReplicaAddr,
        req: StoreReq<P>,
        pick: fn(StoreResp<P>) -> Option<R>,
    ) -> Result<R, StoreError> {
        let call = self.inner.link.call(coord, to, req);
        let reply = timeout(self.rt(), self.inner.cfg.op_timeout, call)
            .await
            .map_err(|_| StoreError::Unavailable)??;
        pick(reply).ok_or(StoreError::Unavailable)
    }

    /// Eventual-consistency read (CL=ONE) from one replica of `key`: the
    /// nearest to `coord` on the simulator, the key's primary on sockets.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the replica does not answer in time.
    pub async fn read_one(&self, coord: NodeId, key: &str) -> Result<P::Snapshot, StoreError> {
        let to = self.inner.link.pick_one(coord, &self.replicas_of(key));
        let req = StoreReq::Snapshot {
            key: key.to_string(),
        };
        self.call_once(coord, to, req, StoreResp::snapshot).await
    }

    /// Eventual-consistency write (CL=ONE): ships the mutation to every
    /// replica, acknowledges after the first, and lets the rest land in the
    /// background.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if no replica acknowledges in time.
    pub async fn write_one(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Result<(), StoreError> {
        self.write_with_cl(coord, key, mutation, stamp, 1).await
    }

    /// Quorum write (`dsPutQuorum`): acknowledged once a majority of the
    /// key's replicas applied the mutation.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if a majority does not acknowledge in
    /// time. The write may still land at some replicas — exactly the
    /// "unacknowledged put" case MUSIC's `synchFlag` machinery exists for.
    pub async fn write_quorum(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Result<(), StoreError> {
        let need = self.quorum_size();
        self.write_with_cl(coord, key, mutation, stamp, need).await
    }

    /// Starts a quorum write without awaiting it: the returned handle
    /// resolves once a majority has acknowledged (or the operation timed
    /// out). The fan-out happens immediately; this is the primitive the
    /// pipelined `criticalPut` path builds its bounded in-flight window on.
    pub fn write_quorum_spawned(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
    ) -> Handle<P, L, Result<(), StoreError>> {
        let table = self.clone();
        let key = key.to_string();
        self.rt()
            .spawn(async move { table.write_quorum(coord, &key, mutation, stamp).await })
    }

    async fn write_with_cl(
        &self,
        coord: NodeId,
        key: &str,
        mutation: P::Mutation,
        stamp: WriteStamp,
        need: usize,
    ) -> Result<(), StoreError> {
        let req = StoreReq::Apply {
            key: key.to_string(),
            mutation,
            stamp,
        };
        self.quorum_of(coord, key, &req, StoreResp::ack, need)
            .await?;
        let rec = self.link().recorder();
        rec.count(Scope::Node(coord.0), "quorum_writes", 1);
        self.emit(coord, || EventKind::QuorumWrite {
            key: key.to_string(),
            acks: need as u32,
        });
        Ok(())
    }

    /// Snapshots from the first `need` replicas of `key` to answer.
    async fn read_replies(
        &self,
        coord: NodeId,
        key: &str,
        need: usize,
    ) -> Result<Vec<P::Snapshot>, StoreError> {
        let req = StoreReq::Snapshot {
            key: key.to_string(),
        };
        self.quorum_of(coord, key, &req, StoreResp::snapshot, need)
            .await
    }

    /// Quorum read (`dsGetQuorum`): reconciles snapshots from a majority of
    /// the key's replicas and returns the newest. When the replies
    /// diverge (digest mismatch), the reconciled state is written back to
    /// every replica in the background — Cassandra-style read repair.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if a majority does not answer in time.
    pub async fn read_quorum(&self, coord: NodeId, key: &str) -> Result<P::Snapshot, StoreError> {
        let snaps = self.read_replies(coord, key, self.quorum_size()).await?;
        let rec = self.link().recorder();
        rec.count(Scope::Node(coord.0), "quorum_reads", 1);
        self.emit(coord, || EventKind::QuorumRead {
            key: key.to_string(),
            replies: snaps.len() as u32,
        });
        let (newest, diverged) = reconcile::<P>(&snaps);
        if diverged {
            rec.count(Scope::Node(coord.0), "read_repairs", 1);
            self.emit(coord, || EventKind::ReadRepair {
                key: key.to_string(),
            });
            for (mutation, stamp) in P::repair(&newest) {
                let req = StoreReq::Apply {
                    key: key.to_string(),
                    mutation,
                    stamp,
                };
                // Background write-back to every replica.
                drop(self.fan_out(coord, key, &req, StoreResp::ack));
            }
        }
        Ok(newest)
    }

    /// Light-weight transaction: linearizable read-decide-write on one key
    /// in four phases (prepare, read, propose, commit — 4 WAN round trips,
    /// §X-A1).
    ///
    /// `decide` receives the reconciled quorum snapshot and a suggested
    /// stamp (ballot-derived, strictly increasing per key); it returns the
    /// mutation to apply, or `None` to abort (compare failed). It may run
    /// multiple times if the LWT must retry after ballot races.
    ///
    /// # Errors
    ///
    /// * [`StoreError::Unavailable`] — some phase could not reach a quorum.
    /// * [`StoreError::Contention`] — ballot races exhausted the retry
    ///   budget.
    pub async fn lwt(
        &self,
        coord: NodeId,
        key: &str,
        mut decide: impl FnMut(&P::Snapshot, WriteStamp) -> Option<(P::Mutation, WriteStamp)>,
    ) -> Result<LwtOutcome<P>, StoreError> {
        let need = self.quorum_size();
        for attempt in 0..self.inner.cfg.lwt_retries {
            if attempt > 0 {
                let rec = self.link().recorder();
                rec.count(Scope::Node(coord.0), "lwt_retries", 1);
                self.emit(coord, || EventKind::LwtRetry {
                    key: key.to_string(),
                    attempt,
                });
                // Deterministic pseudo-random exponential back-off: racing
                // proposers must desynchronize or they preempt each other
                // forever (Cassandra uses randomized back-off here too).
                let exp = 1u64 << attempt.min(6);
                let jitter = key_hash(&format!("{}-{}-{}", coord.0, key, attempt))
                    % (self.inner.cfg.lwt_backoff.as_micros().max(1) * exp);
                let backoff =
                    self.inner.cfg.lwt_backoff * exp / 2 + SimDuration::from_micros(jitter);
                self.rt().sleep(backoff).await;
            }
            let ballot = self.next_ballot(coord, key);
            let phase = |phase| {
                self.emit(coord, || EventKind::Lwt {
                    key: key.to_string(),
                    phase,
                    ballot: ballot_code(ballot),
                })
            };

            // Phase 1: prepare / promise.
            phase(LwtPhase::Prepare);
            let req = StoreReq::Prepare {
                key: key.to_string(),
                ballot,
            };
            let replies = self
                .quorum_of(coord, key, &req, StoreResp::promise, need)
                .await?;
            let mut promises = Vec::new();
            let mut preempted = false;
            for reply in replies {
                self.observe_ballot(coord, key, reply.current_promise);
                if reply.promised {
                    promises.push(reply);
                } else {
                    preempted = true;
                }
            }
            if preempted || promises.len() < need {
                continue;
            }

            // Complete any in-progress proposal before our own update.
            if let Chosen::MustComplete(_, proposal) = choose_value(&promises) {
                phase(LwtPhase::MustComplete);
                if self.accept_quorum(coord, key, ballot, &proposal).await? {
                    self.commit_quorum(coord, key, ballot, proposal).await?;
                }
                // Either way, re-run from prepare with a fresh view.
                continue;
            }

            // Phase 2: quorum read of the current partition state.
            phase(LwtPhase::Read);
            let before = self.read_quorum(coord, key).await?;

            // Phase 3: decide and propose.
            let decision = decide(&before, ballot_stamp(ballot));
            let applied = decision.is_some();
            if let Some((mutation, stamp)) = decision {
                phase(LwtPhase::Propose);
                let proposal = Proposal { mutation, stamp };
                if !self.accept_quorum(coord, key, ballot, &proposal).await? {
                    continue;
                }

                // Phase 4: commit (replicas apply the mutation).
                phase(LwtPhase::Commit);
                self.commit_quorum(coord, key, ballot, proposal).await?;
            }
            self.emit(coord, || EventKind::LwtResult {
                key: key.to_string(),
                applied,
                attempts: attempt + 1,
            });
            return Ok(LwtOutcome { applied, before });
        }
        let rec = self.link().recorder();
        rec.count(Scope::Node(coord.0), "lwt_contention", 1);
        Err(StoreError::Contention)
    }

    /// Whether a quorum accepted `proposal` under `ballot`.
    async fn accept_quorum(
        &self,
        coord: NodeId,
        key: &str,
        ballot: Ballot,
        proposal: &Proposal<P>,
    ) -> Result<bool, StoreError> {
        let req = StoreReq::Accept {
            key: key.to_string(),
            ballot,
            mutation: proposal.mutation.clone(),
            stamp: proposal.stamp,
        };
        let replies = self
            .quorum_of(coord, key, &req, StoreResp::accepted, self.quorum_size())
            .await?;
        let mut ok = true;
        for reply in &replies {
            self.observe_ballot(coord, key, reply.current_promise);
            ok &= reply.accepted;
        }
        Ok(ok)
    }

    async fn commit_quorum(
        &self,
        coord: NodeId,
        key: &str,
        ballot: Ballot,
        proposal: Proposal<P>,
    ) -> Result<(), StoreError> {
        let req = StoreReq::Commit {
            key: key.to_string(),
            ballot,
            mutation: proposal.mutation,
            stamp: proposal.stamp,
        };
        self.quorum_of(coord, key, &req, StoreResp::ack, self.quorum_size())
            .await?;
        Ok(())
    }

    fn next_ballot(&self, coord: NodeId, key: &str) -> Ballot {
        let mut ballots = self.inner.ballots.borrow_mut();
        let gen = ballots
            .entry((coord, key.to_string()))
            .or_insert_with(|| BallotGenerator::new(coord.0));
        gen.next()
    }

    fn observe_ballot(&self, coord: NodeId, key: &str, ballot: Ballot) {
        let mut ballots = self.inner.ballots.borrow_mut();
        let gen = ballots
            .entry((coord, key.to_string()))
            .or_insert_with(|| BallotGenerator::new(coord.0));
        gen.observe(ballot);
    }

    /// Scans one replica for all live keys, in sorted order (Cassandra
    /// full-table scan at CL=ONE; the paper's `getAllKeys` helper, §VII-a).
    /// The view may be stale, which the paper's job-scheduler pattern
    /// explicitly tolerates.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the replica does not answer in time.
    pub async fn list_keys_local(&self, coord: NodeId) -> Result<Vec<String>, StoreError> {
        let to = self.scan_target(coord);
        self.call_once(coord, to, StoreReq::ListKeys, StoreResp::keys)
            .await
    }

    /// Range scan at one replica: applies `extract` to every live
    /// partition and returns, sorted by key, the `(key, value)` pairs of
    /// the rows it keeps (`Some`), in one round trip (Cassandra range query
    /// at CL=ONE with a row filter). Used by monitoring sweeps (the failure
    /// detector) that would otherwise issue one RPC per key.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the replica does not answer in time.
    pub async fn scan_local<R: 'static>(
        &self,
        coord: NodeId,
        extract: impl Fn(&P) -> Option<R> + 'static,
    ) -> Result<Vec<(String, R)>, StoreError> {
        let scan = self
            .inner
            .link
            .scan(coord, self.scan_target(coord), extract);
        timeout(self.rt(), self.inner.cfg.op_timeout, scan)
            .await
            .map_err(|_| StoreError::Unavailable)?
    }

    /// Live keys at one specific replica (one round trip) — used by
    /// anti-entropy to build the union key set.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the replica does not answer in time.
    pub async fn list_keys_at(
        &self,
        coord: NodeId,
        replica_idx: usize,
    ) -> Result<Vec<String>, StoreError> {
        let to = (replica_idx, self.inner.nodes[replica_idx]);
        self.call_once(coord, to, StoreReq::ListKeys, StoreResp::keys)
            .await
    }

    /// Anti-entropy repair of one key: reads every reachable replica,
    /// reconciles, and writes the newest state back to all replicas
    /// (`nodetool repair` for a single partition). Returns whether any
    /// divergence was observed.
    ///
    /// Unlike the quorum path, this *tries* to hear from every replica
    /// (falling back to a majority when some are down), so it heals
    /// replicas that quorum traffic never touches.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if not even a majority answers.
    pub async fn repair_key(&self, coord: NodeId, key: &str) -> Result<bool, StoreError> {
        let need = self.quorum_size();
        // Prefer all rf replies; settle for a majority if stragglers hang.
        let snaps = match self
            .read_replies(coord, key, self.inner.placement.rf())
            .await
        {
            Ok(snaps) => snaps,
            Err(_) => self.read_replies(coord, key, need).await?,
        };
        let (newest, diverged) = reconcile::<P>(&snaps);
        if diverged {
            for (mutation, stamp) in P::repair(&newest) {
                let req = StoreReq::Apply {
                    key: key.to_string(),
                    mutation,
                    stamp,
                };
                // Wait for a majority of each repair write; stragglers
                // continue in the background.
                let _ = self.quorum_of(coord, key, &req, StoreResp::ack, need).await;
            }
        }
        Ok(diverged)
    }

    /// Anti-entropy sweep over the whole table: repairs every key present
    /// at any reachable replica. Returns the number of keys that had
    /// diverged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if no replica can enumerate keys.
    pub async fn repair_all(&self, coord: NodeId) -> Result<u64, StoreError> {
        let mut keys = std::collections::BTreeSet::new();
        let mut any_listed = false;
        for idx in 0..self.inner.nodes.len() {
            if let Ok(ks) = self.list_keys_at(coord, idx).await {
                any_listed = true;
                keys.extend(ks);
            }
        }
        if !any_listed {
            return Err(StoreError::Unavailable);
        }
        let mut repaired = 0;
        for key in keys {
            if self.repair_key(coord, &key).await? {
                repaired += 1;
            }
        }
        Ok(repaired)
    }
}

/// The newest view across `snaps` (non-empty), and whether any of them
/// differs from it.
fn reconcile<P: Partition>(snaps: &[P::Snapshot]) -> (P::Snapshot, bool) {
    let mut it = snaps.iter().cloned();
    let first = it.next().expect("at least one reply");
    let newest = it.fold(first, |acc, s| P::reconcile(acc, s));
    let diverged = snaps.iter().any(|s| *s != newest);
    (newest, diverged)
}
