//! Coordinator-side lock store operations.

use music_quorumstore::{ReplicatedTable, StoreError, TableApi, TableConfig, WriteStamp};
use music_runtime::Runtime;
use music_simnet::net::{Network, NodeId};
use music_simnet::time::SimTime;
use music_telemetry::{EventKind, Scope};

use crate::partition::{LockEntry, LockMutation, LockPartition, LockRef};

/// What an enqueue does when the queue head is an *unclaimed lease*. A
/// *claimed* lease (start time set) is an active holder and is always
/// queued behind.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum LeaseRule {
    /// Queue behind the lease like behind any live holder (safe — the
    /// lease acts as a normal queue head until it expires or is claimed).
    /// The paper's lease-oblivious `lsGenerateAndEnqueue`.
    #[default]
    QueueBehind,
    /// Enqueue nothing and report [`EnqueueOutcome::LeaseBlocked`], so the
    /// caller can force resynchronization (write the synch flag) first.
    Decline,
    /// Collect the leased row and enqueue in the same LWT — but only if
    /// the leased head is this reference, which proves the caller already
    /// forced resynchronization for it; any other lease declines.
    Break(LockRef),
}

/// One `lsGenerateAndEnqueue` request ([`LockStore::enqueue`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct EnqueueReq {
    /// `None` for a single enqueue (committed as
    /// [`LockMutation::Enqueue`] / [`LockMutation::BreakEnqueue`]);
    /// `Some(n)` for one combining round minting `n` consecutive
    /// references for `n` same-key waiters (committed as
    /// [`LockMutation::EnqueueBatch`]).
    pub batch: Option<u32>,
    /// What to do about an unclaimed leased head.
    pub lease: LeaseRule,
}

/// Result of [`LockStore::enqueue`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// `count` consecutive references `first .. first + count` were minted
    /// and enqueued in one LWT (possibly collecting an authorized lease in
    /// the same round). Waiter `i` of a combining round owns `first + i`.
    Minted {
        /// The first (lowest) minted reference.
        first: LockRef,
        /// How many references were minted (1 for a single enqueue).
        count: u32,
    },
    /// The queue head is an unclaimed lease the request declined to
    /// break: nothing was enqueued. The caller must force
    /// resynchronization and retry with [`LeaseRule::Break`] on this
    /// reference.
    LeaseBlocked(LockRef),
}

/// The replicated lock store.
///
/// Generic over the backing table: the default `Tbl` is the in-simulation
/// [`ReplicatedTable`]; a remote deployment instantiates
/// `LockStore<RemoteTable<LockPartition, T>>` and the same coordinator
/// logic (the LWT decide closures below) runs over sockets.
///
/// One [`LockStore`] is shared by every MUSIC replica in the simulation;
/// operations take the calling replica's [`NodeId`] so messages originate
/// from (and queue at) the right place.
///
/// `generate_and_enqueue` is **idempotent per invocation**: every call
/// mints a unique client token included in the enqueue, and a retried LWT
/// whose first attempt actually committed recognizes its own row instead
/// of stranding an orphan reference in the queue (orphans still arise when
/// the *client* dies between calls — `forcedRelease` collects those,
/// §IV-B).
///
/// # Examples
///
/// ```
/// use music_lockstore::LockStore;
/// use music_quorumstore::TableConfig;
/// use music_simnet::prelude::*;
///
/// let sim = Sim::new();
/// let net = Network::new(sim.clone(), LatencyProfile::one_us(), NetConfig::default(), 1);
/// let nodes: Vec<_> = (0..3).map(|s| net.add_node(SiteId(s))).collect();
/// let me = net.add_node(SiteId(0));
/// let locks = LockStore::new(net, nodes, 3, TableConfig::default());
///
/// sim.block_on({
///     let locks = locks.clone();
///     async move {
///         let r1 = locks.generate_and_enqueue(me, "job").await.unwrap();
///         let r2 = locks.generate_and_enqueue(me, "job").await.unwrap();
///         assert!(r2 > r1);
///     }
/// });
/// ```
#[derive(Clone, Debug)]
pub struct LockStore<Tbl = ReplicatedTable<LockPartition>> {
    table: Tbl,
    next_token: std::rc::Rc<std::cell::Cell<u64>>,
}

impl LockStore<ReplicatedTable<LockPartition>> {
    /// Creates a lock store replicated over `nodes` with replication factor
    /// `rf` (simulated-network backing).
    pub fn new(net: Network, nodes: Vec<NodeId>, rf: usize, cfg: TableConfig) -> Self {
        Self::from_table(ReplicatedTable::new(net, nodes, rf, cfg))
    }
}

impl<Tbl: TableApi<LockPartition>> LockStore<Tbl> {
    /// Wraps an existing backing table (for sharing nodes with a data
    /// store in experiments, or for a remote deployment).
    pub fn from_table(table: Tbl) -> Self {
        LockStore {
            table,
            next_token: std::rc::Rc::new(std::cell::Cell::new(1)),
        }
    }

    /// The underlying table (instrumentation and tests).
    pub fn table(&self) -> &Tbl {
        &self.table
    }

    /// `lsGenerateAndEnqueue`: atomically mints the next per-key lock
    /// reference and enqueues it, in **one** LWT (the batch trick of §VI:
    /// increment the `guard` and insert the row in the same consensus
    /// write). Lease-oblivious: [`LockStore::enqueue`] with the default
    /// request.
    ///
    /// Cost: one LWT = 4 WAN round trips.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] when a quorum is unreachable or the ballot
    /// race is lost repeatedly. Per §III-A the caller retries, possibly at
    /// another MUSIC replica; an enqueue that succeeded without the caller
    /// learning the reference leaves an *orphan* lockRef that
    /// `forcedRelease` eventually collects.
    pub async fn generate_and_enqueue(
        &self,
        coord: NodeId,
        key: &str,
    ) -> Result<LockRef, StoreError> {
        match self.enqueue(coord, key, EnqueueReq::default()).await? {
            EnqueueOutcome::Minted { first, .. } => Ok(first),
            EnqueueOutcome::LeaseBlocked(_) => unreachable!("lease-oblivious enqueue blocked"),
        }
    }

    /// The one enqueue: mints one reference, or `n` consecutive ones for
    /// a combining round (under a flash crowd, `n` waiters pay one
    /// consensus write instead of `n`), and applies `req.lease` to an
    /// unclaimed leased head. References are assigned in arrival order,
    /// ascending, so a combined round preserves exactly the FIFO order a
    /// sequence of single enqueues would have produced — and the trace
    /// carries one `lockEnqueue` per minted reference either way.
    ///
    /// Cost: one LWT = 4 WAN round trips, whatever the batch size (plus
    /// the caller's flag write on the blocked path).
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] exactly like
    /// [`LockStore::generate_and_enqueue`].
    ///
    /// # Panics
    ///
    /// Panics if `req.batch == Some(0)`.
    pub async fn enqueue(
        &self,
        coord: NodeId,
        key: &str,
        req: EnqueueReq,
    ) -> Result<EnqueueOutcome, StoreError> {
        let count = req.batch.unwrap_or(1);
        assert!(count > 0, "batch enqueue needs at least one waiter");
        // Unique per invocation (coordinator id in the high bits), and
        // consecutive per waiter, so waiter i of a retried (already
        // committed) round adopts its own row via `find_token(token + i)`.
        let token = (u64::from(coord.0) << 40) | self.next_token.get();
        self.next_token
            .set(self.next_token.get() + u64::from(count));
        let minted = std::cell::Cell::new(LockRef::NONE);
        let blocked = std::cell::Cell::new(LockRef::NONE);
        let broke = std::cell::Cell::new(LockRef::NONE);
        self.table
            .lwt(coord, key, |snap, suggested| {
                // The closure may run once per ballot attempt: re-derive
                // every outcome cell from the latest snapshot.
                blocked.set(LockRef::NONE);
                broke.set(LockRef::NONE);
                if let Some(existing) = snap.find_token(token) {
                    // A previous ballot attempt of this very call already
                    // committed: adopt it rather than minting an orphan.
                    minted.set(existing);
                    return None;
                }
                if let Some((leased, _until)) = snap.lease_head() {
                    match req.lease {
                        LeaseRule::QueueBehind => {}
                        LeaseRule::Break(authorized) if authorized == leased => broke.set(leased),
                        LeaseRule::Decline | LeaseRule::Break(_) => {
                            minted.set(LockRef::NONE);
                            blocked.set(leased);
                            return None;
                        }
                    }
                }
                let (first, broken) = (LockRef::new(snap.guard() + 1), broke.get());
                minted.set(first);
                let mutation = match req.batch {
                    Some(count) => LockMutation::EnqueueBatch {
                        broken,
                        first,
                        count,
                        token,
                    },
                    None if broken != LockRef::NONE => LockMutation::BreakEnqueue {
                        broken,
                        lock_ref: first,
                        token,
                    },
                    None => LockMutation::Enqueue {
                        lock_ref: first,
                        token,
                        lease_until: None,
                    },
                };
                Some((mutation, suggested))
            })
            .await?;
        if blocked.get() != LockRef::NONE {
            return Ok(EnqueueOutcome::LeaseBlocked(blocked.get()));
        }
        let first = minted.get();
        let (rec, rt, node) = (self.table.recorder(), self.table.rt(), Scope::Node(coord.0));
        let (at_us, trace) = (rt.now().as_micros(), rt.trace());
        if broke.get() != LockRef::NONE {
            rec.count(node, "lease_breaks", 1);
            rec.record(at_us, trace, coord.0, || EventKind::LeaseBreak {
                key: key.to_string(),
                lock_ref: broke.get().value(),
            });
        }
        if count > 1 {
            rec.count(node, "enqueue_combines", 1);
            rec.count(node, "combined_refs", u64::from(count));
        }
        if req.batch.is_some() {
            rec.record(at_us, trace, coord.0, || EventKind::EnqueueCombine {
                key: key.to_string(),
                first: first.value(),
                count,
            });
        }
        // One `lockEnqueue` per minted reference, in ascending (queue)
        // order — the stream the refinement checker sees is
        // indistinguishable from `count` well-ordered singles.
        for i in 0..u64::from(count) {
            rec.record(at_us, trace, coord.0, || EventKind::LockEnqueue {
                key: key.to_string(),
                lock_ref: first.value() + i,
            });
        }
        Ok(EnqueueOutcome::Minted { first, count })
    }

    /// Current queue depth at the **closest** replica: a cheap, possibly
    /// stale contention signal (admission control reads this before paying
    /// the enqueue LWT).
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the local replica does not answer.
    pub async fn queue_depth_local(&self, coord: NodeId, key: &str) -> Result<usize, StoreError> {
        let snap = self.table.read_one(coord, key).await?;
        Ok(snap.queue().len())
    }

    /// The local view's queue position of `lock_ref` (0 = head), `None`
    /// if the reference is not in the local queue view. The same cheap
    /// intra-site peek as [`LockStore::queue_depth_local`]; the adaptive
    /// acquire loop uses it to pace its polls proportionally to how deep
    /// it is queued (tight near the head, stretched when deep).
    pub async fn queue_position_local(
        &self,
        coord: NodeId,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<Option<usize>, StoreError> {
        let snap = self.table.read_one(coord, key).await?;
        Ok(snap.queue().iter().position(|r| *r == lock_ref))
    }

    /// `releaseLock` with lease retention: dequeues `lock_ref`, and **iff**
    /// it was the only queued reference, pre-mints the successor reference
    /// as a lease (valid until `until`) in the same LWT. Returns the leased
    /// reference and deadline when one was granted, `None` when the queue
    /// had competitors (plain dequeue) or the reference was already
    /// collected (no-op).
    ///
    /// Cost: one LWT = 4 WAN round trips — the same release the caller
    /// already pays for; the lease rides along for free.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] when a quorum is unreachable or ballot
    /// contention persists.
    pub async fn release_with_lease(
        &self,
        coord: NodeId,
        key: &str,
        lock_ref: LockRef,
        until: SimTime,
    ) -> Result<Option<(LockRef, SimTime)>, StoreError> {
        let token = (u64::from(coord.0) << 40) | self.next_token.get();
        self.next_token.set(self.next_token.get() + 1);
        let granted = std::cell::Cell::new(LockRef::NONE);
        self.table
            .lwt(coord, key, |snap, suggested| {
                granted.set(LockRef::NONE);
                if let Some(existing) = snap.find_token(token) {
                    // An earlier ballot of this very call already committed
                    // the lease row: adopt it.
                    granted.set(existing);
                    return None;
                }
                if !snap.contains(lock_ref) {
                    return None; // already collected: no-op, no lease
                }
                if snap.queue() == [lock_ref] {
                    let next = LockRef::new(snap.guard() + 1);
                    granted.set(next);
                    Some((
                        LockMutation::ReleaseWithLease {
                            released: lock_ref,
                            next_ref: next,
                            token,
                            until,
                        },
                        suggested,
                    ))
                } else {
                    // Competitors queued behind: hand over normally.
                    Some((LockMutation::Dequeue { lock_ref }, suggested))
                }
            })
            .await?;
        if granted.get() == LockRef::NONE {
            return Ok(None);
        }
        // The `leaseGrant` event is the caller's to record: only it knows
        // whether the lease can still be claimed now that the LWT returned.
        let rec = self.table.recorder();
        rec.count(Scope::Node(coord.0), "lease_grants", 1);
        Ok(Some((granted.get(), until)))
    }

    /// `lsPeek`: eventual read of the **closest** replica's queue head.
    /// Cheap (intra-site round trip), possibly stale — callers poll.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the local replica does not answer.
    pub async fn peek_local(
        &self,
        coord: NodeId,
        key: &str,
    ) -> Result<Option<(LockRef, LockEntry)>, StoreError> {
        let snap = self.table.read_one(coord, key).await?;
        Ok(snap.head())
    }

    /// Quorum peek: reconciled view of the queue head across a majority.
    /// Used by tests and by monitoring; the MUSIC algorithms themselves
    /// only need the cheap [`LockStore::peek_local`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if a majority does not answer.
    pub async fn peek_quorum(
        &self,
        coord: NodeId,
        key: &str,
    ) -> Result<Option<(LockRef, LockEntry)>, StoreError> {
        let snap = self.table.read_quorum(coord, key).await?;
        Ok(snap.head())
    }

    /// Queue heads of **all** keys that have one, sorted by key, at the
    /// closest replica, in one range scan (monitoring sweeps / failure
    /// detection). Headless keys cost the reply nothing. The view may be
    /// stale, exactly like a per-key [`LockStore::peek_local`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the replica does not answer.
    pub async fn scan_heads(
        &self,
        coord: NodeId,
    ) -> Result<Vec<(String, LockRef, LockEntry)>, StoreError> {
        // Headless partitions are dropped at the replica.
        let rows = self.table.scan_local(coord, LockPartition::head).await?;
        Ok(rows.into_iter().map(|(k, (r, e))| (k, r, e)).collect())
    }

    /// Full queue (ascending) from the closest replica — `getAllKeys`-style
    /// monitoring helper.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if the local replica does not answer.
    pub async fn queue_local(&self, coord: NodeId, key: &str) -> Result<Vec<LockRef>, StoreError> {
        let snap = self.table.read_one(coord, key).await?;
        Ok(snap.queue())
    }

    /// `lsDequeue`: removes `lock_ref` from the queue with an LWT delete.
    /// A no-op (still successful) if the reference is not queued.
    ///
    /// Cost: one LWT = 4 WAN round trips.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] when a quorum is unreachable or ballot
    /// contention persists.
    pub async fn dequeue(
        &self,
        coord: NodeId,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<(), StoreError> {
        self.table
            .lwt(coord, key, |snap, suggested| {
                if snap.contains(lock_ref) {
                    Some((LockMutation::Dequeue { lock_ref }, suggested))
                } else {
                    None // already gone: no-op
                }
            })
            .await?;
        Ok(())
    }

    /// Records the critical-section start time for a just-granted
    /// reference (initialized by `acquireLock` when it returns true, §VI).
    ///
    /// A cheap CL=ONE write (acknowledged by the closest replica,
    /// propagated to the rest in the background): only the single lock
    /// holder writes this cell, it is advisory metadata for the duration
    /// bound `T`, and keeping it off the grant path preserves the paper's
    /// ~1-quorum-RTT `acquireLock` grant cost (Fig. 5(b)).
    ///
    /// # Errors
    ///
    /// [`StoreError::Unavailable`] if no replica acknowledges.
    pub async fn set_start_time(
        &self,
        coord: NodeId,
        key: &str,
        lock_ref: LockRef,
        at: SimTime,
    ) -> Result<(), StoreError> {
        // Stamped with the grant instant: unique per reference because a
        // reference is granted at most once.
        let stamp = WriteStamp::new(at.as_micros().max(1));
        self.table
            .write_one(
                coord,
                key,
                LockMutation::SetStartTime { lock_ref, at },
                stamp,
            )
            .await
    }
}
