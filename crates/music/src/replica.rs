//! The MUSIC replica: a stateless front-end executing the §IV algorithms
//! against the lock store and data store.
//!
//! Clients send each operation to a MUSIC replica of their choice (usually
//! the closest); the replica runs a single-threaded sequence of back-end
//! requests and reports success or failure. All ECF guarantees come from
//! the algorithms here plus the stores' semantics — replicas themselves
//! hold no authoritative state and can be lost or bypassed freely.
//!
//! The replica is generic over the runtime split (see `music-runtime`): a
//! [`Runtime`] `RT` supplies the clock, timers, and task spawning, and two
//! [`TableApi`] back-ends `D`/`L` supply the data table and the lock-store
//! table. The defaults (`Sim` + [`ReplicatedTable`]) are the deterministic
//! simulator deployment every test runs on; `music-node`/`music-load` run
//! the same code over `NativeRuntime` + `RemoteTable`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;

use music_lockstore::{EnqueueOutcome, EnqueueReq, LeaseRule, LockPartition, LockRef, LockStore};
use music_quorumstore::{DataRow, Put, ReplicatedTable, RowSnapshot, StoreError, TableApi};
use music_runtime::Runtime;
use music_simnet::executor::Sim;
use music_simnet::net::{Network, NodeId};
use music_simnet::time::{SimDuration, SimTime};
use music_telemetry::{EventKind, Recorder, Scope, SpanId, SpanPhase};

use crate::config::{MusicConfig, PeekMode, PutMode, ACQUIRE_POLL, DELTA};
use crate::error::{AcquireOutcome, CriticalError};
use crate::stats::{OpKind, OpStats};
use crate::timestamp::{lease_claimable, V2s, VectorTimestamp};

/// Reserved separator for internal keys; client keys must not contain it.
const INTERNAL_SEP: char = '\u{1}';

/// The data-store key holding `key`'s `synchFlag`.
pub(crate) fn synch_key(key: &str) -> String {
    format!("{key}{INTERNAL_SEP}synch")
}

fn is_internal_key(key: &str) -> bool {
    key.contains(INTERNAL_SEP)
}

const FLAG_TRUE: Bytes = Bytes::from_static(b"1");
const FLAG_FALSE: Bytes = Bytes::from_static(b"0");

/// A lease retained by a clean release: the pre-minted successor reference
/// and the deadline until which the departing client may re-enter without
/// paying the LWT (see [`MusicReplica::release_lock_leased`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LeaseGrant {
    /// The pre-minted (already enqueued) lock reference.
    pub lock_ref: LockRef,
    /// Expiry deadline; past it the watchdog revokes the lease.
    pub until: SimTime,
}

fn flag_is_true(snap: &RowSnapshot) -> bool {
    snap.value.as_deref() == Some(b"1")
}

/// A forming enqueue-combining round on one key (see
/// [`MusicReplica::create_lock_ref_combined`]): the first arrival becomes
/// the round's *leader*, later arrivals park and are assigned consecutive
/// indices in arrival order — which becomes lock-reference order, so the
/// FIFO-with-preemption queue refinement is preserved exactly as if each
/// waiter had enqueued itself.
struct CombineRound {
    /// Waiters in the round so far, the leader included.
    joiners: u32,
    /// The settlement cell parked waiters poll.
    settled: Rc<Cell<Settled>>,
}

/// Outcome of one combining round, filled by the leader.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
enum Settled {
    /// The round is forming, or its batch LWT is in flight.
    #[default]
    Pending,
    /// The round minted `count` references; waiter `i` owns `first + i`.
    Minted { first: LockRef, count: u32 },
    /// The round failed (store nack, persistent lease block, or a
    /// cancelled leader); every member falls back to the single enqueue
    /// path independently.
    Failed,
}

/// The leader's ownership of a combining round. Dropped unsettled — the
/// batch LWT failed, or the leader's future was cancelled mid-gather,
/// mid-gate-wait or mid-LWT — it closes a still-open round and settles it
/// as failed, so parked members fall back to the single path instead of
/// polling a round nobody will ever settle, and later arrivals form a
/// fresh round.
struct RoundLead {
    combiner: Rc<RefCell<HashMap<String, CombineRound>>>,
    key: String,
    settled: Rc<Cell<Settled>>,
    /// Whether the round is still in `combiner`, accepting joiners.
    open: bool,
}

impl RoundLead {
    /// Stops accepting joiners; returns the round's size, leader included.
    fn close(&mut self) -> u32 {
        self.open = false;
        let round = self.combiner.borrow_mut().remove(&self.key);
        round.expect("leader owns the forming round").joiners
    }
}

impl Drop for RoundLead {
    fn drop(&mut self) {
        if self.open {
            self.combiner.borrow_mut().remove(&self.key);
        }
        if self.settled.get() == Settled::Pending {
            self.settled.set(Settled::Failed);
        }
    }
}

/// A MUSIC replica bound to a node identity.
///
/// Cheap to clone; all clones share the same back-end handles and stats
/// sink. Build simulated deployments with
/// [`crate::system::MusicSystemBuilder`]; build socket deployments with
/// [`MusicReplica::with_runtime`] over a `RemoteTable`.
pub struct MusicReplica<RT = Sim, D = ReplicatedTable<DataRow>, L = ReplicatedTable<LockPartition>>
{
    node: NodeId,
    rt: RT,
    site: u32,
    recorder: Recorder,
    locks: LockStore<L>,
    data: D,
    v2s: V2s,
    cfg: MusicConfig,
    stats: OpStats,
    /// Per-key floor on the `elapsed` component of put stamps, as
    /// `key → (lockRef, last stamped elapsed µs)`. A drifting local clock
    /// need not be *strictly* increasing (a slow rate or a clamped
    /// backward step stalls local time), and the data store breaks
    /// equal-stamp ties by value bytes, not issue order — so successive
    /// puts of one section must be forced onto strictly increasing
    /// stamps or a later put can lose last-write-wins to an earlier one.
    /// All of a reference's puts are issued through one replica, so a
    /// replica-local floor suffices.
    stamp_floor: Rc<RefCell<HashMap<String, (u64, u64)>>>,
    /// Forming enqueue-combining rounds, by key. Shared across clones —
    /// co-located clients hold clones of the same replica, so their
    /// same-key enqueues meet here and batch into one LWT round.
    combiner: Rc<RefCell<HashMap<String, CombineRound>>>,
    /// In-flight lock-LWT markers, by key, shared across clones. Releases
    /// and combining-round leaders mark their LWT here; a forming round's
    /// leader *waits* for the marker to clear before launching (waiters
    /// keep joining meanwhile), so same-site proposers chain into
    /// consecutive batched rounds instead of preempting each other's
    /// ballots — and a release, which never waits, always goes first: the
    /// handoff is the critical path, the enqueue is not.
    lock_lwt_gate: Rc<RefCell<HashMap<String, u32>>>,
}

/// RAII marker for one in-flight lock LWT on one key (see
/// [`MusicReplica::lock_lwt_gate`]); drop-based so every early return and
/// `?` inside the LWT path clears the marker.
struct GateGuard {
    gate: Rc<RefCell<HashMap<String, u32>>>,
    key: String,
}

impl GateGuard {
    fn mark(gate: &Rc<RefCell<HashMap<String, u32>>>, key: &str) -> GateGuard {
        *gate.borrow_mut().entry(key.to_string()).or_insert(0) += 1;
        GateGuard {
            gate: gate.clone(),
            key: key.to_string(),
        }
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        let mut gate = self.gate.borrow_mut();
        if let Some(n) = gate.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                gate.remove(&self.key);
            }
        }
    }
}

impl<RT: Clone, D: Clone, L: Clone> Clone for MusicReplica<RT, D, L> {
    fn clone(&self) -> Self {
        MusicReplica {
            node: self.node,
            rt: self.rt.clone(),
            site: self.site,
            recorder: self.recorder.clone(),
            locks: self.locks.clone(),
            data: self.data.clone(),
            v2s: self.v2s,
            cfg: self.cfg.clone(),
            stats: self.stats.clone(),
            stamp_floor: self.stamp_floor.clone(),
            combiner: self.combiner.clone(),
            lock_lwt_gate: self.lock_lwt_gate.clone(),
        }
    }
}

impl<RT, D, L> fmt::Debug for MusicReplica<RT, D, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MusicReplica")
            .field("node", &self.node)
            .field("site", &self.site)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl MusicReplica {
    /// Creates a simulated replica at `node` over shared store handles,
    /// inheriting clock, site placement, and recorder from the network.
    pub fn new(
        node: NodeId,
        net: Network,
        locks: LockStore,
        data: ReplicatedTable<DataRow>,
        cfg: MusicConfig,
        stats: OpStats,
    ) -> Self {
        let rt = net.sim().clone();
        let site = net.site_of(node).0;
        let recorder = net.recorder();
        MusicReplica::with_runtime(node, rt, site, recorder, locks, data, cfg, stats)
    }
}

impl<RT, D, L> MusicReplica<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    /// Creates a replica over an explicit runtime and back-end pair; the
    /// runtime-generic twin of [`MusicReplica::new`]. `site` attributes
    /// grant latency and phase spans.
    #[allow(clippy::too_many_arguments)]
    pub fn with_runtime(
        node: NodeId,
        rt: RT,
        site: u32,
        recorder: Recorder,
        locks: LockStore<L>,
        data: D,
        cfg: MusicConfig,
        stats: OpStats,
    ) -> Self {
        MusicReplica {
            node,
            rt,
            site,
            recorder,
            locks,
            data,
            v2s: V2s::new(cfg.t_max),
            cfg,
            stats,
            stamp_floor: Rc::new(RefCell::new(HashMap::new())),
            combiner: Rc::new(RefCell::new(HashMap::new())),
            lock_lwt_gate: Rc::new(RefCell::new(HashMap::new())),
        }
    }

    /// Whether a same-key lock LWT (a release or a combining round) is in
    /// flight through this replica's clones.
    fn lock_lwt_in_flight(&self, key: &str) -> bool {
        self.lock_lwt_gate.borrow().contains_key(key)
    }

    /// The node this replica runs at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The site this replica's node lives at (per-site attribution of
    /// grant latency and phase spans).
    pub fn site(&self) -> u32 {
        self.site
    }

    /// This replica's configuration.
    pub fn config(&self) -> &MusicConfig {
        &self.cfg
    }

    /// The shared stats sink.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The lock store handle (instrumentation/tests).
    pub fn locks(&self) -> &LockStore<L> {
        &self.locks
    }

    /// The data table handle (instrumentation/tests).
    pub fn data(&self) -> &D {
        &self.data
    }

    /// The runtime this replica schedules on.
    pub fn runtime(&self) -> &RT {
        &self.rt
    }

    fn now(&self) -> SimTime {
        self.rt.now()
    }

    /// The telemetry recorder shared through the deployment (see
    /// [`crate::system::MusicSystemBuilder::telemetry`]).
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Records a telemetry event attributed to this replica's node, stamped
    /// with its clock and the running task's trace tag.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        let (at_us, trace) = (self.rt.now().as_micros(), self.rt.trace());
        self.recorder.record(at_us, trace, self.node.0, kind);
    }

    /// The bracket every public operation runs `body` in: checks the key
    /// and, when tracing, mints a fresh trace id, tags the current task
    /// with it (so every message the operation sends inherits the id),
    /// wraps the body in `opStart` / `opEnd` and restores the task's
    /// previous trace tag.
    ///
    /// `body` makes the future instead of being one: an async fn keeps a
    /// future argument in its state twice (as the argument and as the
    /// future it awaits), which would double every operation's future.
    async fn run_op<T, E, F: Future<Output = Result<T, E>>>(
        &self,
        op: &'static str,
        key: &str,
        body: impl FnOnce() -> F,
    ) -> Result<T, E> {
        Self::assert_client_key(key);
        // Skips minting and setting a trace tag no event would carry.
        if !self.recorder.is_tracing() {
            return body().await;
        }
        let prev = self.rt.trace();
        self.rt.set_trace(self.recorder.next_trace());
        let key = || key.to_string();
        self.emit(|| EventKind::OpStart { op, key: key() });
        let r = body().await;
        let ok = r.is_ok();
        self.emit(|| EventKind::OpEnd { op, key: key(), ok });
        self.rt.set_trace(prev);
        r
    }

    /// Opens a phase span on `rt`'s running task, parented on its current
    /// span tag and attributed to this replica's node and site. The client
    /// opens its phases here too, on its own clock. No-op unless tracing.
    /// Returns `(span, previous tag)` for [`MusicReplica::phase_close`].
    pub(crate) fn phase_open(&self, rt: &RT, phase: SpanPhase, key: &str) -> (SpanId, u64) {
        // Skips reading and setting a span tag no span would carry.
        if !self.recorder.is_tracing() {
            return (0, 0);
        }
        let (rec, node, site) = (&self.recorder, self.node.0, self.site);
        let (parent, at_us, trace) = (rt.span(), rt.now().as_micros(), rt.trace());
        let id = rec.span_open(at_us, parent, trace, node, site, phase, key);
        rt.set_span(id);
        (id, parent)
    }

    /// Closes a phase span opened on `rt` and restores the task's previous
    /// span tag.
    pub(crate) fn phase_close(&self, rt: &RT, (id, parent): (SpanId, u64)) {
        if id != 0 {
            self.recorder.span_close(rt.now().as_micros(), id);
            rt.set_span(parent);
        }
    }

    /// Lock-queue head view per the configured [`PeekMode`].
    async fn peek(
        &self,
        key: &str,
    ) -> Result<Option<(LockRef, music_lockstore::LockEntry)>, StoreError> {
        match self.cfg.peek_mode {
            PeekMode::Local => self.locks.peek_local(self.node, key).await,
            PeekMode::Quorum => self.locks.peek_quorum(self.node, key).await,
        }
    }

    fn assert_client_key(key: &str) {
        assert!(
            !is_internal_key(key),
            "client keys must not contain the internal separator"
        );
    }

    /// `createLockRef`: enqueues a per-key unique increasing identifier,
    /// good for one critical section. Cost: one consensus write (LWT).
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] when the lock store cannot reach a quorum;
    /// the client retries (§III-A). A nacked call may still have enqueued
    /// an orphan reference, which `forcedRelease` eventually collects.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains the reserved internal separator `'\u{1}'`.
    pub async fn create_lock_ref(&self, key: &str) -> Result<LockRef, StoreError> {
        self.create_lock_ref_via(key, false).await
    }

    /// `createLockRef` through the **enqueue combiner** (the Hot-mode path
    /// of [`crate::contention`]): same-key concurrent callers on this
    /// replica's clones are batched into one
    /// [`LockMutation::EnqueueBatch`](music_lockstore::LockMutation) LWT
    /// round — one consensus write for the whole batch instead of one per
    /// waiter, which is exactly the round-trip amplification a flash crowd
    /// dies of. Arrival order becomes reference order, so the queue
    /// refinement cannot tell a combined round from individual enqueues.
    ///
    /// The first caller on a key becomes the round *leader*: it waits one
    /// [`ACQUIRE_POLL`] gather window for co-arriving waiters, closes the
    /// round, and runs the batch LWT (with the same bounded lease-break
    /// loop as the single path). Parked waiters poll the round's
    /// settlement cell and receive `first + index`. Any round failure —
    /// including the leader being cancelled — degrades every member to the
    /// plain single-enqueue path: combining is an optimization, never a
    /// correctness dependency.
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] exactly like
    /// [`MusicReplica::create_lock_ref`].
    ///
    /// # Panics
    ///
    /// Panics if `key` contains the reserved internal separator `'\u{1}'`.
    pub async fn create_lock_ref_combined(&self, key: &str) -> Result<LockRef, StoreError> {
        self.create_lock_ref_via(key, true).await
    }

    /// The span/stats wrapper both `createLockRef` flavours share.
    async fn create_lock_ref_via(&self, key: &str, combine: bool) -> Result<LockRef, StoreError> {
        self.run_op("createLockRef", key, || async {
            let t0 = self.now();
            let r = if combine {
                self.enqueue_combined(key).await
            } else {
                self.enqueue_single(key).await
            };
            if r.is_ok() {
                self.stats.record(OpKind::CreateLockRef, self.now() - t0);
            }
            r
        })
        .await
    }

    async fn enqueue_single(&self, key: &str) -> Result<LockRef, StoreError> {
        // Mark (never wait on) the gate: combining-round leaders chain
        // behind this enqueue's LWT instead of racing its ballots.
        let _gate = GateGuard::mark(&self.lock_lwt_gate, key);
        match self.enqueue_breaking_leases(key, None).await? {
            EnqueueOutcome::Minted { first, .. } => Ok(first),
            // Always safe: it queues behind the lease exactly like behind
            // any live holder.
            EnqueueOutcome::LeaseBlocked(_) => {
                self.locks.generate_and_enqueue(self.node, key).await
            }
        }
    }

    /// The lease-aware enqueue with bounded break attempts (back-to-back
    /// lease grants by a hot leaseholder could otherwise starve it): up to
    /// 4 tries, each blocked one followed by the covering `synchFlag`
    /// write (§IV-B) and an authorized break of the blocking lease. Gives
    /// up with the last blocking lease so the caller can fall back.
    async fn enqueue_breaking_leases(
        &self,
        key: &str,
        batch: Option<u32>,
    ) -> Result<EnqueueOutcome, StoreError> {
        let mut req = EnqueueReq {
            batch,
            lease: LeaseRule::Decline,
        };
        let mut last_blocked = LockRef::NONE;
        for _ in 0..4 {
            let leased = match self.locks.enqueue(self.node, key, req).await? {
                EnqueueOutcome::LeaseBlocked(leased) => leased,
                minted => return Ok(minted),
            };
            // Force resynchronization *before* breaking the lease: the
            // leaseholder may have re-entered invisibly (the claim is a
            // CL.ONE start-time write the break LWT's quorum read can
            // miss) with puts already in flight — exactly the mid-put
            // preemption of §IV-B, so the break must leave the synchFlag
            // set for the next holder. Stamped like a forcedRelease of the
            // leased reference: above any reset it could have issued,
            // below the next holder's.
            let stamp = self.v2s.forced_release_stamp(leased, DELTA);
            self.data
                .write_quorum(self.node, &synch_key(key), Put::value(FLAG_TRUE), stamp)
                .await?;
            // The break deposes the leased reference exactly like a
            // forcedRelease does, and is recorded the same way: after the
            // covering flag is durable, before the collecting LWT commits,
            // so a successor's grant sorts after it in the trace. If the
            // break then loses to a concurrent claim, the event is
            // spuriously early — the checker treats the claimed section's
            // acts as stale (the safe direction) rather than missing a
            // deposal.
            self.emit(|| EventKind::LockForcedRelease {
                key: key.to_string(),
                lock_ref: leased.value(),
            });
            req.lease = LeaseRule::Break(leased);
            last_blocked = leased;
        }
        Ok(EnqueueOutcome::LeaseBlocked(last_blocked))
    }

    async fn enqueue_combined(&self, key: &str) -> Result<LockRef, StoreError> {
        let (lead, index, settled) = {
            let mut rounds = self.combiner.borrow_mut();
            match rounds.get_mut(key) {
                Some(round) => {
                    round.joiners += 1;
                    (None, round.joiners - 1, round.settled.clone())
                }
                None => {
                    let settled = Rc::new(Cell::new(Settled::Pending));
                    rounds.insert(
                        key.to_string(),
                        CombineRound {
                            joiners: 1,
                            settled: settled.clone(),
                        },
                    );
                    let lead = RoundLead {
                        combiner: self.combiner.clone(),
                        key: key.to_string(),
                        settled: settled.clone(),
                        open: true,
                    };
                    (Some(lead), 0, settled)
                }
            }
        };
        let Some(mut lead) = lead else {
            loop {
                match settled.get() {
                    Settled::Pending => self.rt.sleep(ACQUIRE_POLL).await,
                    Settled::Minted { first, count } if index < count => {
                        return Ok(LockRef::new(first.value() + u64::from(index)))
                    }
                    _ => return self.enqueue_single(key).await,
                }
            }
        };
        // Gather window: a few poll intervals for co-arriving waiters to
        // join, scaled by the local queue depth — when the queue is
        // already `d` deep, a joiner's section is at least `d` handoffs
        // away, so holding the round open a little longer costs nothing
        // and batches the trickle of re-enqueues into fewer LWT rounds.
        // Skipped when a same-key lock LWT is already in flight: the wait
        // on the gate below *is* the gather window then.
        if !self.lock_lwt_in_flight(key) {
            let polls = match self.locks.queue_depth_local(self.node, key).await {
                Ok(d) if d > 1 => d.min(8) as u64,
                _ => 1,
            };
            self.rt
                .sleep(SimDuration::from_micros(
                    ACQUIRE_POLL.as_micros().saturating_mul(polls),
                ))
                .await;
        }
        // Chain on the gate: launching a ballot against an in-flight
        // release or sibling round would only preempt it (the 5ms-base
        // exponential ballot backoff is exactly what a flash crowd dies
        // of). The round stays open while we wait, so later arrivals
        // still join it.
        while self.lock_lwt_in_flight(key) {
            self.rt.sleep(ACQUIRE_POLL).await;
        }
        // Close the round *before* the LWT: arrivals during the round form
        // the next one (its leader chains on the gate behind this round's
        // LWT).
        let count = lead.close();
        let _gate = GateGuard::mark(&self.lock_lwt_gate, key);
        match self.enqueue_breaking_leases(key, Some(count)).await {
            Ok(EnqueueOutcome::Minted { first, count }) => {
                settled.set(Settled::Minted { first, count });
                Ok(first)
            }
            Ok(EnqueueOutcome::LeaseBlocked(_)) | Err(_) => {
                // Settles the round as failed: the leader degrades to the
                // single path, and the parked waiters observe
                // `Settled::Failed` and do the same.
                drop(lead);
                self.enqueue_single(key).await
            }
        }
    }

    /// Lease fast re-entry: claims the pre-minted leased reference with
    /// **zero extra WAN round trips** — one local peek to revalidate that
    /// the lease still heads the queue, then the same cheap CL.ONE
    /// start-time write the normal grant path uses. Returns
    /// [`AcquireOutcome::Acquired`] on success; any other outcome means the
    /// lease is gone (broken, revoked, or not yet visible locally) and the
    /// caller must fall back to `createLockRef` + `acquireLock`.
    ///
    /// Skipping the grant path's `synchFlag` quorum read is sound: between
    /// a *clean* release-with-lease and this re-entry, the flag can only
    /// have been raised for this reference by a `forcedRelease` or a lease
    /// break — and both also dequeue the reference, which this
    /// revalidation (or the per-operation holder guard, for a stale local
    /// view) detects; in the residual stale-peek race our writes carry
    /// dominated `v2s` stamps, the standard preempted-holder safety of
    /// §IV-B.
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] when the lock store does not answer.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains the reserved internal separator `'\u{1}'`.
    pub async fn lease_reenter(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<AcquireOutcome, StoreError> {
        self.run_op("leaseReenter", key, || async {
            let r = self.lease_reenter_inner(key, lock_ref).await;
            if matches!(r, Ok(AcquireOutcome::Acquired)) {
                self.recorder
                    .count(Scope::Node(self.node.0), "lease_hits", 1);
                self.note_grant(key, lock_ref);
            }
            r
        })
        .await
    }

    async fn lease_reenter_inner(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<AcquireOutcome, StoreError> {
        let t0 = self.now();
        let head = self.peek(key).await?;
        let Some((head, entry)) = head else {
            // Local lock-store replica has not learned the lease row yet.
            return Ok(AcquireOutcome::NotYet);
        };
        if lock_ref > head {
            return Ok(AcquireOutcome::NotYet);
        }
        if lock_ref < head {
            return Ok(AcquireOutcome::NoLongerHolder);
        }
        let Some(until) = entry.lease_until else {
            // Head matches but is not a lease row: claim through the slow
            // path (defensive; should not happen for a cached grant).
            return Ok(AcquireOutcome::NoLongerHolder);
        };
        let now = self.now();
        if !lease_claimable(now, until, self.cfg.clock_epsilon) {
            // Expired — or within ε of expiry on this node's (possibly
            // skewed) clock, where a drift-shifted watchdog may already be
            // revoking it. Take the slow path (which resynchronizes)
            // rather than racing it.
            if now < until {
                self.recorder
                    .count(Scope::Node(self.node.0), "lease_drift_rejects", 1);
                self.emit(|| EventKind::LeaseDriftReject {
                    key: key.to_string(),
                    lock_ref: lock_ref.value(),
                    guard: "claim",
                    now_us: now.as_micros(),
                    until_us: until.as_micros(),
                });
            }
            return Ok(AcquireOutcome::NoLongerHolder);
        }
        // Claim: record the section start for the duration bound T and the
        // failure detector, like the normal grant path (§VI).
        if entry.start_time.is_none() {
            self.locks
                .set_start_time(self.node, key, lock_ref, self.now())
                .await?;
        }
        // Same zombie-grant revalidation as the slow path: the watchdog may
        // have revoked the lease while the startTime write was in flight.
        match self.peek(key).await? {
            Some((head, _)) if head == lock_ref => {}
            _ => return Ok(AcquireOutcome::NoLongerHolder),
        }
        self.stats.record(OpKind::LeaseReenter, self.now() - t0);
        Ok(AcquireOutcome::Acquired)
    }

    /// `acquireLock`: returns [`AcquireOutcome::Acquired`] iff `lock_ref`
    /// is first in the queue; synchronizes the data store first when the
    /// `synchFlag` is set (a previous holder was preempted mid-put).
    ///
    /// Cost: a local peek; plus, for the winning poll, a lock-queue quorum
    /// confirmation of headship and a `synchFlag` quorum read (issued
    /// concurrently: one quorum RTT of wall-clock) — and only
    /// after a forced release, a value quorum read, a value quorum write,
    /// and a `synchFlag` quorum write (§IV-A, hardened: confirming
    /// headship at quorum *before* any grant side effect closes the
    /// gappy-local-view misgrant a nemesis schedule can produce, and keeps
    /// the §III-A synchronization rewrite from poisoning the key with an
    /// unjustified `v2s(ref, 0)` stamp).
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] if the data store cannot reach a quorum
    /// during synchronization.
    pub async fn acquire_lock(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<AcquireOutcome, StoreError> {
        self.run_op("acquireLock", key, || async {
            let r = self.acquire_lock_inner(key, lock_ref).await;
            if matches!(r, Ok(AcquireOutcome::Acquired)) {
                self.note_grant(key, lock_ref);
            }
            r
        })
        .await
    }

    /// Counts and records a grant of `lock_ref`, on either acquire path.
    fn note_grant(&self, key: &str, lock_ref: LockRef) {
        self.recorder
            .count(Scope::Node(self.node.0), "lock_grants", 1);
        self.emit(|| EventKind::LockGrant {
            key: key.to_string(),
            lock_ref: lock_ref.value(),
        });
    }

    async fn acquire_lock_inner(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<AcquireOutcome, StoreError> {
        let t0 = self.now();
        let head = self.peek(key).await?;
        self.stats.record(OpKind::AcquirePeek, self.now() - t0);
        let Some((head, _)) = head else {
            // Local lock-store replica not updated yet: retry.
            return Ok(AcquireOutcome::NotYet);
        };
        if lock_ref > head {
            return Ok(AcquireOutcome::NotYet);
        }
        if lock_ref < head {
            return Ok(AcquireOutcome::NoLongerHolder);
        }

        // We are first in the *local* queue: the grant path. Before any
        // grant side effect, confirm headship at *quorum*. The waiting
        // polls stay local (they run many times per section, the cost
        // §IV-A avoids), but the winning poll must not trust the local
        // view alone: a restarted or loss-degraded lock replica can serve
        // a *gappy* queue — later enqueues applied, an earlier one never
        // delivered — whose local head skips still-queued references
        // entirely. Acting on such a misgrant is worse than a zombie
        // grant: the §III-A synchronization below re-writes the current
        // value under `v2s(ourRef, 0)`, and if `ourRef` has unconfirmed
        // predecessors that stamp *poisons* the key — every write by the
        // genuine intervening holders is silently dominated, so their
        // acked puts never become visible (a latest-state violation with
        // no release event anywhere near it). Confirming first keeps the
        // rewrite stamp justified: our reference really is the head, so
        // `v2s(ourRef, 0)` dominates exactly the writes §IV-B says it may.
        //
        // One lock-queue quorum read per granted section, overlapped with
        // the synchFlag quorum read the grant already pays, so the grant
        // still costs one quorum RTT of wall-clock (Fig. 5(b)). Reading
        // the flag concurrently is sound: both reads are side-effect-free
        // and every grant side effect below stays gated on the
        // confirmation succeeding. The §IV-B flag-visibility argument
        // survives the overlap because both reads start only after the
        // *local* head observation — and a genuine local head means the
        // dequeue LWT committed, which in turn means the forced release's
        // flag quorum write completed before it, so our flag read's quorum
        // must intersect it. (A spurious gappy-view head fails the
        // confirmation and the flag value is discarded unused.) A
        // forcedRelease can still land *after* this confirmation and
        // before the caller acts — that residual zombie window is the one
        // §IV-B argues safe (dominated stamps), the trace checker excuses
        // (deposed-reference accounting), and the per-operation holder
        // guards cut short.
        let span = self.phase_open(&self.rt, SpanPhase::HeadConfirm, key);
        let r = self.confirm_and_grant(key, lock_ref).await;
        self.phase_close(&self.rt, span);
        r
    }

    /// The winning poll's grant path: quorum headship confirm overlapped
    /// with the `synchFlag` read, optional §III-A synchronization, and the
    /// `startTime` write. Split out of `acquire_lock_inner` so the
    /// `lock.headConfirm` span covers exactly this quorum-priced section.
    async fn confirm_and_grant(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<AcquireOutcome, StoreError> {
        let t0 = self.now();
        let flag_read = {
            let data = self.data.clone();
            let node = self.node;
            let skey = synch_key(key);
            self.rt
                .spawn(async move { data.read_quorum(node, &skey).await })
        };
        let entry = match self.locks.peek_quorum(self.node, key).await? {
            Some((head, entry)) if head == lock_ref => entry,
            Some((head, _)) if lock_ref > head => return Ok(AcquireOutcome::NotYet),
            _ => return Ok(AcquireOutcome::NoLongerHolder),
        };
        let flag = flag_read.await?;
        if flag_is_true(&flag) {
            // A previous holder may have died mid-criticalPut: synchronize.
            // Quorum-read the key, re-write the result under our lockRef
            // (committing the non-deterministic choice of §III-A), then
            // reset the flag.
            let snap = self.data.read_quorum(self.node, key).await?;
            let stamp = self
                .v2s
                .scalar(VectorTimestamp::new(lock_ref, SimDuration::ZERO));
            let rewrite = match snap.value {
                Some(v) => Put::value(v),
                None => Put::delete(),
            };
            self.data
                .write_quorum(self.node, key, rewrite, stamp)
                .await?;
            self.data
                .write_quorum(self.node, &synch_key(key), Put::value(FLAG_FALSE), stamp)
                .await?;
        }
        // Initialize startTime for the duration bound T (§VI). Re-granting
        // an already-started entry (a duplicate winning poll) keeps the
        // original start because the LWW stamp is the grant instant.
        if entry.start_time.is_none() {
            self.locks
                .set_start_time(self.node, key, lock_ref, self.now())
                .await?;
        }
        self.stats.record(OpKind::AcquireGrant, self.now() - t0);
        Ok(AcquireOutcome::Acquired)
    }

    /// Guards shared by `criticalPut`/`criticalGet`: holder check via the
    /// local peek, then the duration bound. Returns the elapsed-in-CS time.
    async fn critical_guard(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<SimDuration, CriticalError> {
        let head = self.peek(key).await?;
        let Some((head, entry)) = head else {
            return Err(CriticalError::NotYetHolder);
        };
        if lock_ref > head {
            return Err(CriticalError::NotYetHolder);
        }
        if lock_ref < head {
            return Err(CriticalError::NoLongerHolder);
        }
        let Some(start) = entry.start_time else {
            // Granted, but this replica's local view lacks startTime yet.
            return Err(CriticalError::NotYetHolder);
        };
        let elapsed = self.now() - start;
        if elapsed >= self.cfg.t_max {
            return Err(CriticalError::Expired);
        }
        Ok(elapsed)
    }

    /// `criticalPut`: writes the latest value of `key` for the current
    /// lockholder. Cost: one value quorum write (or an LWT under
    /// [`PutMode::Lwt`], the MSCP baseline).
    ///
    /// # Errors
    ///
    /// See [`CriticalError`]; on [`CriticalError::Store`] the write is
    /// *unacknowledged* — it may or may not have landed, and the client
    /// must retry until acknowledged or abandon the critical section.
    pub async fn critical_put(
        &self,
        key: &str,
        lock_ref: LockRef,
        value: Bytes,
    ) -> Result<(), CriticalError> {
        self.critical_put_req(key, lock_ref, PutReq::new(Put::value(value)))
            .await
            .map(|_| ())
    }

    /// `criticalPut` as a [`PutReq`]: a value or a delete, a fresh stamp
    /// above a session floor or a replayed one, awaited or pipelined. The
    /// one body every put runs:
    ///
    /// 1. the holder guard (re-run for a replay, so a preempted or expired
    ///    holder is rejected);
    /// 2. the stamp `v2s(lock_ref, elapsed)` — fresh (monotonized above
    ///    this replica's and the request's floors) or the replayed
    ///    `elapsed`;
    /// 3. `critPutStart`, for fresh valued writes only (a replay's original
    ///    `critPutStart` is still the outstanding logical write; deletes
    ///    have no digest — the checker tracks valued writes only);
    /// 4. the write: awaited (a quorum write, or an LWT under
    ///    [`PutMode::Lwt`]), or a detached quorum write returned as
    ///    [`PutIssued::Pending`] — pipelined writes and replays are always
    ///    quorum writes, since the pipelined window is defined over the
    ///    quorum store's commutative last-write-wins semantics, which LWTs
    ///    do not have;
    /// 5. on the ack, stats and `critPutAck`.
    ///
    /// # Errors
    ///
    /// Same as [`MusicReplica::critical_put`]. For a pipelined request
    /// these cover the *issue* step only; store errors of the write itself
    /// surface when the pending put is awaited.
    pub async fn critical_put_req(
        &self,
        key: &str,
        lock_ref: LockRef,
        req: PutReq,
    ) -> Result<PutIssued<RT>, CriticalError> {
        self.run_op("criticalPut", key, || {
            self.critical_put_inner(key, lock_ref, req)
        })
        .await
    }

    /// Monotonizes the `elapsed` component of a fresh put stamp: at least
    /// 1µs (strictly above the grant-time synchronization re-write at
    /// elapsed 0), strictly above every stamp this replica already minted
    /// for `key` under `lock_ref` ([`Self::stamp_floor`], covering a
    /// stalled or stepped-back local clock), and strictly above the
    /// caller-supplied `floor` (the client session floor, covering
    /// cross-replica fail-over under clock skew).
    fn stamped_elapsed(
        &self,
        key: &str,
        lock_ref: LockRef,
        elapsed: SimDuration,
        floor: SimDuration,
    ) -> SimDuration {
        let mut floors = self.stamp_floor.borrow_mut();
        let entry = floors
            .entry(key.to_string())
            .or_insert((lock_ref.value(), 0));
        if entry.0 != lock_ref.value() {
            *entry = (lock_ref.value(), 0);
        }
        let bumped = elapsed
            .as_micros()
            .max(entry.1 + 1)
            .max(floor.as_micros().saturating_add(1));
        entry.1 = bumped;
        SimDuration::from_micros(bumped)
    }

    async fn critical_put_inner(
        &self,
        key: &str,
        lock_ref: LockRef,
        req: PutReq,
    ) -> Result<PutIssued<RT>, CriticalError> {
        let t0 = self.now();
        let elapsed = self.critical_guard(key, lock_ref).await?;
        let elapsed = match req.stamp {
            PutStamp::Fresh { floor } => self.stamped_elapsed(key, lock_ref, elapsed, floor),
            PutStamp::Replay { elapsed } => elapsed,
        };
        let stamp = self.v2s.scalar(VectorTimestamp::new(lock_ref, elapsed));
        let digest = req.put.value.as_deref().map(music_telemetry::digest);
        if let (PutStamp::Fresh { .. }, Some(d)) = (req.stamp, digest) {
            self.emit(|| EventKind::CritPutStart {
                key: key.to_string(),
                lock_ref: lock_ref.value(),
                digest: d,
            });
        }
        if req.pipelined {
            // The write runs detached (inheriting this span's trace tag),
            // so the caller can keep issuing puts while it is in flight.
            let me = self.clone();
            let key = key.to_string();
            let write = self
                .data
                .write_quorum_spawned(self.node, &key, req.put.clone(), stamp);
            let handle = self.rt.spawn(async move {
                let r = write.await;
                if r.is_ok() {
                    me.put_acked(&key, lock_ref, OpKind::CriticalPut, t0, digest);
                }
                r.map_err(CriticalError::from)
            });
            return Ok(PutIssued::Pending(PendingPut {
                put: req.put,
                elapsed,
                handle,
            }));
        }
        let kind = match (self.cfg.put_mode, req.stamp) {
            (PutMode::Lwt, PutStamp::Fresh { .. }) => {
                self.data
                    .lwt(self.node, key, |_, _| Some((req.put.clone(), stamp)))
                    .await?;
                OpKind::MscpPut
            }
            _ => {
                self.data
                    .write_quorum(self.node, key, req.put, stamp)
                    .await?;
                OpKind::CriticalPut
            }
        };
        self.put_acked(key, lock_ref, kind, t0, digest);
        Ok(PutIssued::Acked(elapsed))
    }

    /// A put's quorum ack: latency, the `crit_puts` counter, `critPutAck`.
    fn put_acked(
        &self,
        key: &str,
        lock_ref: LockRef,
        kind: OpKind,
        t0: SimTime,
        digest: Option<u64>,
    ) {
        self.stats.record(kind, self.now() - t0);
        self.recorder
            .count(Scope::Node(self.node.0), "crit_puts", 1);
        if let Some(d) = digest {
            self.emit(|| EventKind::CritPutAck {
                key: key.to_string(),
                lock_ref: lock_ref.value(),
                digest: d,
            });
        }
    }

    /// Marks `key`'s `synchFlag` on behalf of a holder whose flush failed:
    /// some pipelined write is unacknowledged, so the *next* holder must
    /// resynchronize exactly as after a forced release. Stamped at
    /// `v2s(lock_ref, 0) + δ` — above this holder's grant-time reset,
    /// below the next holder's (§IV-B).
    ///
    /// Best-effort from the client's perspective: if this write also fails,
    /// safety still holds because the failed flush fails the release, the
    /// reference stays queued, and the failure detector's `forcedRelease`
    /// quorum-writes the flag before dequeueing it.
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] when the data store cannot reach a quorum.
    pub async fn mark_synch(&self, key: &str, lock_ref: LockRef) -> Result<(), StoreError> {
        self.run_op("markSynch", key, || async {
            let stamp = self.v2s.forced_release_stamp(lock_ref, DELTA);
            let r = self
                .data
                .write_quorum(self.node, &synch_key(key), Put::value(FLAG_TRUE), stamp)
                .await;
            if r.is_ok() {
                self.recorder
                    .count(Scope::Node(self.node.0), "synch_marks", 1);
                self.emit(|| EventKind::SynchMark {
                    key: key.to_string(),
                    lock_ref: lock_ref.value(),
                });
            }
            r
        })
        .await
    }

    /// `criticalGet`: reads the latest (true) value of `key` for the
    /// current lockholder. Cost: one value quorum read.
    ///
    /// # Errors
    ///
    /// See [`CriticalError`].
    pub async fn critical_get(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<Option<Bytes>, CriticalError> {
        self.run_op("criticalGet", key, || {
            self.critical_get_inner(key, lock_ref)
        })
        .await
    }

    async fn critical_get_inner(
        &self,
        key: &str,
        lock_ref: LockRef,
    ) -> Result<Option<Bytes>, CriticalError> {
        let t0 = self.now();
        self.critical_guard(key, lock_ref).await?;
        let snap = self.data.read_quorum(self.node, key).await?;
        // Re-run the guard after the quorum read: a forcedRelease landing
        // while the read was in flight deposed this reference, and the
        // value must not be returned (or recorded) as a holder's read.
        self.critical_guard(key, lock_ref).await?;
        self.stats.record(OpKind::CriticalGet, self.now() - t0);
        self.recorder
            .count(Scope::Node(self.node.0), "crit_gets", 1);
        self.emit(|| EventKind::CritGet {
            key: key.to_string(),
            lock_ref: lock_ref.value(),
            digest: snap.value.as_deref().map(music_telemetry::digest),
        });
        Ok(snap.value)
    }

    /// `releaseLock`: removes `lock_ref` from the queue. Succeeds (as a
    /// no-op) if the lock was already forcibly released. Cost: one
    /// consensus write (LWT).
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] when the lock store cannot reach a quorum.
    pub async fn release_lock(&self, key: &str, lock_ref: LockRef) -> Result<(), StoreError> {
        self.release(key, lock_ref, None).await.map(|_| ())
    }

    /// `releaseLock` with lease retention: like
    /// [`MusicReplica::release_lock`], but when nothing is queued behind
    /// the released reference, the same LWT pre-mints the successor as a
    /// lease valid for `window`. Returns the grant when one was retained —
    /// the caller may then re-enter via [`MusicReplica::lease_reenter`]
    /// within the window at zero extra WAN cost.
    ///
    /// Cost: one LWT = 4 WAN round trips, identical to a plain release.
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] when the lock store cannot reach a quorum.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains the reserved internal separator `'\u{1}'`.
    pub async fn release_lock_leased(
        &self,
        key: &str,
        lock_ref: LockRef,
        window: SimDuration,
    ) -> Result<Option<LeaseGrant>, StoreError> {
        self.release(key, lock_ref, Some(window)).await
    }

    async fn release(
        &self,
        key: &str,
        lock_ref: LockRef,
        lease: Option<SimDuration>,
    ) -> Result<Option<LeaseGrant>, StoreError> {
        self.run_op("releaseLock", key, || {
            self.release_inner(key, lock_ref, lease)
        })
        .await
    }

    async fn release_inner(
        &self,
        key: &str,
        lock_ref: LockRef,
        lease: Option<SimDuration>,
    ) -> Result<Option<LeaseGrant>, StoreError> {
        // Mark the gate so combining-round leaders chain behind this
        // release instead of preempting its ballots; marking is pure
        // bookkeeping (no await), so the path is unchanged when no
        // combiner runs.
        let _gate = GateGuard::mark(&self.lock_lwt_gate, key);
        let t0 = self.now();
        if let Some((head, _)) = self.peek(key).await? {
            if lock_ref < head {
                return Ok(None); // lock was forcibly released already
            }
        }
        let until = lease.map(|window| self.now() + window);
        // Emit at abdication, *before* the dequeue commits: a successor's
        // local peek can observe the dequeue (and record its grant) before
        // this coordinator's LWT round returns, so emitting afterwards
        // would order the grant ahead of the release in the trace. From
        // here the holder never acts again, so this is the release point
        // as far as exclusivity is concerned; if the LWT nacks, the retry
        // re-emits and the checker treats the duplicate as a no-op.
        self.emit(|| EventKind::LockRelease {
            key: key.to_string(),
            lock_ref: lock_ref.value(),
        });
        let granted = match until {
            None => {
                self.locks.dequeue(self.node, key, lock_ref).await?;
                None
            }
            Some(until) => self
                .locks
                .release_with_lease(self.node, key, lock_ref, until)
                .await?
                .map(|(r, until)| LeaseGrant { lock_ref: r, until }),
        };
        // Announce the mint only if the lease can still be claimed: a slow
        // LWT can return after a competitor broke the expired lease and
        // enqueued past it, and the trace must not mint that reference
        // again.
        if let Some(g) =
            granted.filter(|g| lease_claimable(self.now(), g.until, self.cfg.clock_epsilon))
        {
            self.emit(|| EventKind::LeaseGrant {
                key: key.to_string(),
                lock_ref: g.lock_ref.value(),
                until_us: g.until.as_micros(),
            });
        }
        self.stats.record(OpKind::ReleaseLock, self.now() - t0);
        Ok(granted)
    }

    /// `forcedRelease`: preempts `lock_ref` on behalf of a presumed-failed
    /// holder (internal; driven by the failure detector or by takeover
    /// logic like the Portal's, §VII-b).
    ///
    /// Sets the `synchFlag` **before** dequeueing, stamped at
    /// `v2s(lockRef, 0) + δ` so it overrides the holder's own concurrent
    /// flag reset but yields to the next holder's (§IV-B).
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] when either store cannot reach a quorum.
    pub async fn forced_release(&self, key: &str, lock_ref: LockRef) -> Result<(), StoreError> {
        self.run_op("forcedRelease", key, || {
            self.forced_release_inner(key, lock_ref)
        })
        .await
    }

    async fn forced_release_inner(&self, key: &str, lock_ref: LockRef) -> Result<(), StoreError> {
        let t0 = self.now();
        if let Some((head, _)) = self.peek(key).await? {
            if lock_ref < head {
                return Ok(()); // previously released
            }
        }
        let stamp = self.v2s.forced_release_stamp(lock_ref, DELTA);
        self.data
            .write_quorum(self.node, &synch_key(key), Put::value(FLAG_TRUE), stamp)
            .await?;
        // Emitted once the covering flag is durable but *before* the
        // dequeue commits: the preempted reference's entitlement is
        // formally dead here (any write it still lands is dominated by
        // the flag's stamp), and the successor's grant — which a local
        // peek may record before our LWT round returns — must sort after
        // this event in the trace.
        self.emit(|| EventKind::LockForcedRelease {
            key: key.to_string(),
            lock_ref: lock_ref.value(),
        });
        // No-op if lock_ref is not in the queue.
        self.locks.dequeue(self.node, key, lock_ref).await?;
        self.stats.record(OpKind::ForcedRelease, self.now() - t0);
        self.recorder
            .count(Scope::Node(self.node.0), "forced_releases", 1);
        Ok(())
    }

    /// Lock-free eventual `get` — only for keys where no ECF guarantees are
    /// expected (§VI "Additional Functions").
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] if the closest replica does not answer.
    pub async fn get(&self, key: &str) -> Result<Option<Bytes>, StoreError> {
        self.run_op("eventualGet", key, || async {
            let t0 = self.now();
            let snap = self.data.read_one(self.node, key).await?;
            self.stats.record(OpKind::EventualGet, self.now() - t0);
            Ok(snap.value)
        })
        .await
    }

    /// Lock-free eventual `put` — only for keys where no ECF guarantees are
    /// expected. Stamped with the local wall clock, far below any `v2s`
    /// stamp, so it can never clobber critical writes.
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] if no replica acknowledges.
    pub async fn put(&self, key: &str, value: Bytes) -> Result<(), StoreError> {
        self.run_op("eventualPut", key, || async {
            let t0 = self.now();
            let stamp = music_quorumstore::WriteStamp::new(self.now().as_micros().max(1));
            self.data
                .write_one(self.node, key, Put::value(value), stamp)
                .await?;
            self.stats.record(OpKind::EventualPut, self.now() - t0);
            Ok(())
        })
        .await
    }

    /// `getAllKeys`: all live client keys visible at the closest data-store
    /// replica (possibly stale — the job-scheduler pattern tolerates that,
    /// §VII-a).
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] if the replica does not answer.
    pub async fn get_all_keys(&self) -> Result<Vec<String>, StoreError> {
        let keys = self.data.list_keys_local(self.node).await?;
        Ok(keys.into_iter().filter(|k| !is_internal_key(k)).collect())
    }

    /// The current queue head for `key` as seen by this replica's local
    /// lock-store view (monitoring / failure detection).
    ///
    /// # Errors
    ///
    /// Nacks with [`StoreError`] if the replica does not answer.
    pub async fn peek_holder(
        &self,
        key: &str,
    ) -> Result<Option<(LockRef, Option<SimTime>)>, StoreError> {
        let head = self.peek(key).await?;
        Ok(head.map(|(r, e)| (r, e.start_time)))
    }
}

/// How a `criticalPut` request stamps its write (see [`PutReq`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PutStamp {
    /// Mint a fresh stamp, strictly above this replica's per-key floor and
    /// above `floor` — the client's *session* floor: after a mid-section
    /// fail-over, successive puts of one section run on different
    /// replicas whose drifted clocks can disagree by up to 2ε, so each
    /// replica's own `elapsed = now − start_time` is not monotone across
    /// the hand-off. Threading the last stamped elapsed through keeps
    /// last-write-wins aligned with issue order.
    Fresh {
        /// The session floor (`ZERO` for none).
        floor: SimDuration,
    },
    /// Re-drive a write whose quorum write failed with its **original**
    /// stamp `v2s(lock_ref, elapsed)`: a retry must not mint a fresh
    /// (higher) stamp, or a retried early write could clobber a later
    /// write of the same section under last-write-wins.
    Replay {
        /// The elapsed the original write was stamped with.
        elapsed: SimDuration,
    },
}

/// One `criticalPut` request for [`MusicReplica::critical_put_req`].
#[derive(Clone, Debug)]
pub struct PutReq {
    /// The write: a value, or a delete (footnote 3 of the paper).
    pub put: Put,
    /// How the write is stamped.
    pub stamp: PutStamp,
    /// Return as soon as the quorum write is *issued*, as a
    /// [`PutIssued::Pending`], instead of awaiting its ack.
    pub pipelined: bool,
}

impl PutReq {
    /// An awaited write of `put` under a fresh stamp with no session
    /// floor — the paper's `criticalPut`.
    pub fn new(put: Put) -> Self {
        PutReq {
            put,
            stamp: PutStamp::Fresh {
                floor: SimDuration::ZERO,
            },
            pipelined: false,
        }
    }
}

/// What [`MusicReplica::critical_put_req`] returns.
#[derive(Debug)]
pub enum PutIssued<RT: Runtime = Sim> {
    /// The write was awaited and is quorum-acknowledged; it was stamped
    /// with this elapsed-in-section time.
    Acked(SimDuration),
    /// The write was issued pipelined and is still in flight.
    Pending(PendingPut<RT>),
}

impl<RT: Runtime> PutIssued<RT> {
    /// Elapsed-in-section time the write was stamped with, known at issue
    /// time — so a client can advance its session floor before the ack.
    pub fn elapsed(&self) -> SimDuration {
        match self {
            PutIssued::Acked(elapsed) => *elapsed,
            PutIssued::Pending(pp) => pp.elapsed,
        }
    }
}

/// A pipelined `criticalPut` that has been issued but not yet quorum
/// acknowledged; it resolves when a quorum acknowledges (emitting
/// `critPutAck` at that instant).
///
/// Dropping a pending put does **not** cancel the write — it keeps
/// propagating, exactly like a crashed holder's in-flight put.
pub struct PendingPut<RT: Runtime = Sim> {
    put: Put,
    elapsed: SimDuration,
    handle: RT::JoinHandle<Result<(), CriticalError>>,
}

impl<RT: Runtime> fmt::Debug for PendingPut<RT> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingPut")
            .field("put", &self.put)
            .field("elapsed", &self.elapsed)
            .finish_non_exhaustive()
    }
}

impl<RT: Runtime> PendingPut<RT> {
    /// Awaits the quorum acknowledgment.
    ///
    /// # Errors
    ///
    /// [`CriticalError::Store`] if the quorum write failed; the write is
    /// then unacknowledged and may still land.
    pub async fn wait(self) -> Result<(), CriticalError> {
        self.handle.await
    }

    /// Awaits the acknowledgment, returning alongside the outcome the
    /// request that replays the write with its original stamp.
    pub async fn outcome(self) -> (PutReq, Result<(), CriticalError>) {
        let replay = PutReq {
            stamp: PutStamp::Replay {
                elapsed: self.elapsed,
            },
            ..PutReq::new(self.put)
        };
        (replay, self.handle.await)
    }
}
