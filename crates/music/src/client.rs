//! The client-side view of MUSIC: replica fail-over, retry policy, and the
//! ergonomic critical-section guard.
//!
//! Per §III-A, a client may use *any* non-failed MUSIC replica; when one
//! nacks (back-end quorum unreachable) the client retries the operation at
//! the next replica. [`MusicClient`] encodes exactly that policy, and
//! [`CriticalSection`] packages the Listing-1 pattern (create → poll
//! acquire → critical ops → release).
//!
//! Like [`MusicReplica`], the client is generic over the runtime split: the
//! defaults run on the deterministic simulator, while `music-load` runs the
//! identical retry/fail-over/pipelining logic over `NativeRuntime` +
//! `RemoteTable`.
//!
//! # Write modes
//!
//! Under [`WriteMode::Sync`] every [`CriticalSection::put`] awaits its
//! quorum acknowledgment (one WAN RTT per put). Under
//! [`WriteMode::Pipelined`] puts are *issued* and return immediately, with
//! a bounded in-flight window; [`CriticalSection::flush`] — run implicitly
//! by `release`, `get`, and multi-key crossings — awaits every outstanding
//! ack before the section proceeds. A failed flush marks the `synchFlag`
//! (the next holder resynchronizes, §IV-B), poisons the section, and fails
//! the release, so entry consistency is preserved even when acknowledgments
//! never arrive.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;

use music_lockstore::{LockPartition, LockRef};
use music_quorumstore::{DataRow, Put, ReplicatedTable, StoreError, TableApi};
use music_runtime::Runtime;
use music_simnet::executor::Sim;
use music_simnet::time::{SimDuration, SimTime};
use music_telemetry::{EventKind, Scope, SpanId, SpanPhase};

use crate::backoff;
use crate::config::{WriteMode, ACQUIRE_POLL, BREAKER_THRESHOLD};
use crate::contention::ContentionController;
use crate::error::{AcquireOutcome, AttemptTrail, CriticalError, MusicError};
use crate::health::ReplicaHealth;
use crate::replica::{LeaseGrant, MusicReplica, PendingPut, PutIssued, PutReq, PutStamp};
use crate::stats::OpKind;

/// A MUSIC client bound to an ordered list of replicas (closest first).
///
/// # Examples
///
/// See [`crate::system::MusicSystemBuilder`] for a runnable end-to-end
/// example.
pub struct MusicClient<RT = Sim, D = ReplicatedTable<DataRow>, L = ReplicatedTable<LockPartition>> {
    replicas: Vec<MusicReplica<RT, D, L>>,
    rt: RT,
    /// Per-client override of the deployment's configured write mode.
    write_mode: Option<WriteMode>,
    /// Per-client override of the deployment's configured lease window.
    lease_window: Option<SimDuration>,
    /// Leases retained by this client's clean releases, by key. Shared
    /// across clones so a cloned handle sees (and consumes) the same
    /// grants — a lease belongs to the client, not to one handle.
    leases: Rc<RefCell<HashMap<String, LeaseGrant>>>,
    /// Per-replica circuit breakers, shared across clones: what one
    /// handle learned about a dead replica benefits every section the
    /// client runs.
    health: Rc<ReplicaHealth>,
    /// Session stamp floor, by key: `(lockRef, last stamped elapsed µs)`
    /// of the newest put this client issued. Each replica keeps its own
    /// per-key floor, but a mid-section fail-over routes successive puts
    /// of *one* section through replicas whose drifted clocks can
    /// disagree by up to 2ε — enough to invert the v2s stamps of writes
    /// issued close together, so the older write wins last-write-wins.
    /// The client is the section's single writer, so it carries the floor
    /// to whichever replica executes; shared across clones like `leases`.
    stamp_floors: Rc<RefCell<HashMap<String, (u64, u64)>>>,
    /// The contention-adaptive controller ([`crate::contention`]): per-key
    /// strategy (spin-then-queue vs. enqueue-and-stretch), enqueue
    /// combining, lease auto-tuning/suspension, and admission control.
    /// Inert unless the deployment config enables it; shared across clones
    /// like `leases` — contention is a property of the client, not of one
    /// handle.
    contention: ContentionController,
}

impl<RT: Clone, D: Clone, L: Clone> Clone for MusicClient<RT, D, L> {
    fn clone(&self) -> Self {
        MusicClient {
            replicas: self.replicas.clone(),
            rt: self.rt.clone(),
            write_mode: self.write_mode,
            lease_window: self.lease_window,
            leases: self.leases.clone(),
            health: self.health.clone(),
            stamp_floors: self.stamp_floors.clone(),
            contention: self.contention.clone(),
        }
    }
}

impl<RT, D, L> fmt::Debug for MusicClient<RT, D, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MusicClient")
            .field("replicas", &self.replicas.len())
            .field("write_mode", &self.write_mode)
            .field("lease_window", &self.lease_window)
            .finish_non_exhaustive()
    }
}

impl<RT, D, L> MusicClient<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    /// Creates a client that prefers `replicas[0]` and fails over in order.
    ///
    /// # Errors
    ///
    /// [`MusicError::NoReplicas`] if `replicas` is empty.
    pub fn new(rt: RT, replicas: Vec<MusicReplica<RT, D, L>>) -> Result<Self, MusicError> {
        if replicas.is_empty() {
            return Err(MusicError::NoReplicas);
        }
        let cfg = replicas[0].config();
        let health = ReplicaHealth::new(
            replicas.iter().map(|r| r.node().0).collect(),
            BREAKER_THRESHOLD,
            cfg.breaker_cooldown,
            replicas[0].recorder(),
        );
        let contention = ContentionController::new(cfg.adaptive);
        Ok(MusicClient {
            replicas,
            rt,
            write_mode: None,
            lease_window: None,
            leases: Rc::new(RefCell::new(HashMap::new())),
            health: Rc::new(health),
            stamp_floors: Rc::new(RefCell::new(HashMap::new())),
            contention,
        })
    }

    /// The contention controller driving this client's adaptive behavior
    /// (instrumentation/tests; inert when the config leaves it disabled).
    pub fn contention(&self) -> &ContentionController {
        &self.contention
    }

    /// This client with its write mode overridden (sections entered through
    /// it pipeline or not regardless of the deployment config).
    ///
    /// This is a *per-client* override for running mixed modes over one
    /// deployment; to configure the deployment itself, use
    /// [`MusicConfig::write_mode`](crate::MusicConfig::write_mode).
    #[must_use]
    pub fn with_write_mode(mut self, mode: WriteMode) -> Self {
        self.write_mode = Some(mode);
        self
    }

    /// This client with lease retention enabled at the given window,
    /// regardless of the deployment config: clean releases retain a lease
    /// and re-entries within `window` take the 0-RTT fast path.
    ///
    /// This is a *per-client* override; to enable leasing deployment-wide,
    /// use [`MusicConfig::lease_window`](crate::MusicConfig::lease_window).
    #[must_use]
    pub fn with_lease_window(mut self, window: SimDuration) -> Self {
        self.lease_window = Some(window);
        self
    }

    /// The write mode sections entered through this client use.
    pub fn write_mode(&self) -> WriteMode {
        self.write_mode
            .unwrap_or(self.primary().config().write_mode)
    }

    /// The lease window in effect for this client, if leasing is on.
    pub fn lease_window(&self) -> Option<SimDuration> {
        self.lease_window.or(self.primary().config().lease_window)
    }

    /// The lease this client currently holds on `key`, if any. The grant
    /// may already be expired — it is consumed (and validated) by the next
    /// [`MusicClient::enter`].
    pub fn lease(&self, key: impl AsRef<str>) -> Option<LeaseGrant> {
        self.leases.borrow().get(key.as_ref()).copied()
    }

    /// The replica currently preferred by this client.
    pub fn primary(&self) -> &MusicReplica<RT, D, L> {
        &self.replicas[0]
    }

    fn retries(&self) -> u32 {
        self.primary().config().client_retries
    }

    /// Records a telemetry event attributed to this client's home
    /// (primary) replica, stamped with the client's clock and the running
    /// task's trace tag.
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        let (rec, node) = (self.primary().recorder(), self.primary().node().0);
        rec.record(self.rt.now().as_micros(), self.rt.trace(), node, kind);
    }

    /// Records one replica fail-over: bumps the global counter and emits a
    /// `clientFailover` event under the current trace.
    fn note_failover(&self, op: &'static str, attempt: u32, cause: &'static str) {
        let rec = self.primary().recorder();
        rec.count(Scope::Global, "client_failovers", 1);
        self.emit(|| EventKind::ClientFailover { op, attempt, cause });
    }

    /// Opens a phase span on the client's clock, attributed to its home
    /// (primary) replica; see [`MusicReplica::phase_open`].
    fn phase_open(&self, phase: SpanPhase, key: &str) -> (SpanId, u64) {
        self.primary().phase_open(&self.rt, phase, key)
    }

    /// Closes a phase span opened by [`MusicClient::phase_open`].
    fn phase_close(&self, span: (SpanId, u64)) {
        self.primary().phase_close(&self.rt, span);
    }

    /// Records one per-key grant for fairness accounting and feeds the
    /// contention controller: the enqueue→grant latency lands in this
    /// site's histogram (so a far site's starvation shows up as a runaway
    /// per-site p99.9) *and* in the key's grant-wait EWMA, which drives
    /// the spin-vs-queue hysteresis. A strategy switch is recorded as a
    /// `strategySwitch` event.
    fn note_grant(&self, key: &str, entered: SimTime) {
        let wait = self.rt.now() - entered;
        let rec = self.primary().recorder();
        if let Some((mode, ewma)) = self.contention.on_grant_wait(key, wait.as_micros()) {
            rec.count(Scope::Global, "strategy_switches", 1);
            self.emit(|| EventKind::StrategySwitch {
                key: key.to_string(),
                mode: mode.label(),
                wait_us: ewma,
            });
        }
        let site = Scope::Site(self.primary().site());
        rec.count(site, "sections_entered", 1);
        rec.observe(site, "grant_wait_us", wait.as_micros());
    }

    /// The graceful-degradation floor: when the admission guard is
    /// configured, peek the local queue depth and fast-reject with
    /// [`MusicError::Overloaded`] once the bound is reached — a bounded
    /// queue and a bounded rejection instead of an unbounded pile-up. The
    /// depth peek is the same cheap intra-site read the acquire polls use;
    /// a peek failure fails *open* (admission control must never make an
    /// unavailable system less available).
    async fn admission_check(&self, key: &str) -> Result<(), MusicError> {
        if !self.contention.enabled() {
            return Ok(());
        }
        let primary = self.primary();
        let Ok(depth) = primary.locks().queue_depth_local(primary.node(), key).await else {
            return Ok(());
        };
        let Err(retry_after) = self.contention.admit(depth) else {
            return Ok(());
        };
        let rec = primary.recorder();
        rec.count(Scope::Global, "admission_rejects", 1);
        self.emit(|| EventKind::AdmissionReject {
            key: key.to_string(),
            depth: depth as u64,
            retry_after_us: retry_after.as_micros(),
        });
        Err(MusicError::Overloaded { retry_after })
    }

    /// The deterministic jitter salt for this client's `op_name` retries:
    /// a pure hash of the op and the client's home node, so co-located
    /// clients drift apart while a seeded run replays byte-identically.
    fn backoff_salt(&self, op_name: &'static str, extra: u64) -> u64 {
        backoff::salt(&[
            backoff::hash_str(op_name),
            u64::from(self.primary().node().0),
            extra,
        ])
    }

    /// Runs `op` against replicas in preference order until one succeeds,
    /// up to the configured retry budget. Replicas whose circuit breaker
    /// is open are skipped, so a crashed primary does not burn the whole
    /// budget; failed attempts are separated by jittered exponential
    /// backoff.
    async fn with_failover<T, F, Fut>(
        &self,
        op_name: &'static str,
        mut op: F,
    ) -> Result<T, MusicError>
    where
        F: FnMut(MusicReplica<RT, D, L>) -> Fut,
        Fut: std::future::Future<Output = Result<T, StoreError>>,
    {
        let budget = self.retries().max(1);
        let salt = self.backoff_salt(op_name, 0);
        let mut trail = AttemptTrail::new();
        for attempt in 0..budget {
            let idx = self
                .health
                .pick(attempt as usize, self.rt.now(), self.rt.trace());
            let replica = self.replicas[idx].clone();
            match op(replica).await {
                Ok(v) => {
                    self.health.on_success(idx, self.rt.now(), self.rt.trace());
                    return Ok(v);
                }
                Err(e) => {
                    self.health.on_failure(idx, self.rt.now(), self.rt.trace());
                    trail.note(e);
                    self.note_failover(op_name, attempt + 1, e.code());
                    if attempt + 1 < budget {
                        self.rt
                            .sleep(backoff::delay(ACQUIRE_POLL, attempt, salt))
                            .await;
                    }
                }
            }
        }
        Err(MusicError::Unavailable { attempts: trail })
    }

    /// Polls `acquireLock` (with the configured back-off) until the lock is
    /// granted or the reference is preempted.
    ///
    /// # Errors
    ///
    /// * [`MusicError::NoLongerHolder`] — the reference was forcibly
    ///   released before being granted.
    /// * [`MusicError::Unavailable`] — repeated nacks from every replica.
    pub async fn acquire_lock(
        &self,
        key: impl AsRef<str>,
        lock_ref: LockRef,
    ) -> Result<(), MusicError> {
        let key = key.as_ref();
        // Contention-adaptive polling: when the controller is on, each
        // `NotYet` peeks the *local* queue position and paces the next
        // poll proportionally to the depth — tight near the head (a
        // handoff is one release away), stretched when deep (nothing can
        // change for at least `pos` handoffs). A failed peek falls back
        // to a short bounded schedule seeded by the Cool-mode spin budget;
        // the Hot-mode `stretch` applies to the failover backoff only.
        // All of it collapses to the plain blind-exponential schedule
        // when the controller is disabled (spin = 0, stretch = 0, no
        // position peek).
        let spin = self.contention.spin_budget(key);
        let stretch = self.contention.backoff_shift(key);
        let base_poll = SimDuration::from_micros(ACQUIRE_POLL.as_micros() << stretch);
        // "Standard back-off mechanisms can be used to alleviate the cost
        // of polling" (§III-A): exponential with deterministic jitter,
        // always within [base, 64×base], so co-located contenders do not
        // poll in lockstep.
        let salt = self.backoff_salt("acquireLock", lock_ref.value() ^ backoff::hash_str(key));
        let mut polls = 0u32;
        let mut consecutive_failures = 0;
        let mut trail = AttemptTrail::new();
        let mut replica_idx = 0usize;
        loop {
            let idx = self
                .health
                .pick(replica_idx, self.rt.now(), self.rt.trace());
            let replica = &self.replicas[idx];
            match replica.acquire_lock(key, lock_ref).await {
                Ok(outcome) => {
                    // Any protocol-level answer proves the replica alive.
                    self.health.on_success(idx, self.rt.now(), self.rt.trace());
                    match outcome {
                        AcquireOutcome::Acquired => return Ok(()),
                        AcquireOutcome::NoLongerHolder => return Err(MusicError::NoLongerHolder),
                        AcquireOutcome::NotYet => {
                            consecutive_failures = 0;
                            let delay = if self.contention.enabled() {
                                match replica
                                    .locks()
                                    .queue_position_local(replica.node(), key, lock_ref)
                                    .await
                                {
                                    // Next in line (or an unconfirmed
                                    // head): poll tight, the handoff is
                                    // one release away.
                                    Ok(Some(pos)) if pos <= 1 => {
                                        backoff::delay(ACQUIRE_POLL, 0, salt)
                                    }
                                    // Deep in the queue: pace the poll by
                                    // the position — nothing can change
                                    // for at least `pos` handoffs. The
                                    // position *is* the stretch; layering
                                    // the Hot-mode shift on top would
                                    // over-delay the eventual handoff.
                                    Ok(Some(pos)) => {
                                        let scaled = SimDuration::from_micros(
                                            ACQUIRE_POLL
                                                .as_micros()
                                                .saturating_mul(pos.min(16) as u64),
                                        );
                                        backoff::delay(scaled, 0, salt)
                                    }
                                    // Not in the local view yet (or the
                                    // peek failed): local convergence is
                                    // quick, so retry on a short bounded
                                    // schedule — never the accumulated
                                    // blind exponent, which after a long
                                    // paced wait would sleep for the full
                                    // 64× cap at the worst moment.
                                    _ => backoff::delay(
                                        ACQUIRE_POLL,
                                        polls.saturating_sub(spin).min(4),
                                        salt,
                                    ),
                                }
                            } else {
                                let attempt = polls.saturating_sub(spin);
                                backoff::delay(base_poll, attempt, salt)
                            };
                            self.rt.sleep(delay).await;
                            polls = polls.saturating_add(1);
                        }
                    }
                }
                Err(e) => {
                    self.health.on_failure(idx, self.rt.now(), self.rt.trace());
                    trail.note(e);
                    consecutive_failures += 1;
                    if consecutive_failures >= self.retries().max(1) {
                        return Err(MusicError::Unavailable { attempts: trail });
                    }
                    replica_idx = idx + 1; // fail over
                    self.note_failover("acquireLock", consecutive_failures, e.code());
                    self.rt.sleep(backoff::delay(base_poll, polls, salt)).await;
                    polls = polls.saturating_add(1);
                }
            }
        }
    }

    /// `createLockRef` with fail-over.
    ///
    /// # Errors
    ///
    /// [`MusicError::Unavailable`] after the retry budget is exhausted.
    pub async fn create_lock_ref(&self, key: impl AsRef<str>) -> Result<LockRef, MusicError> {
        let key = key.as_ref();
        self.with_failover("createLockRef", |r| {
            let key = key.to_string();
            async move { r.create_lock_ref(&key).await }
        })
        .await
    }

    /// One retried critical operation (put/get share this policy):
    /// `NotYetHolder` and store nacks are retried (the latter with
    /// fail-over); holder-loss and expiry abort.
    async fn critical_with_retry<T, F, Fut>(
        &self,
        op_name: &'static str,
        mut op: F,
    ) -> Result<T, MusicError>
    where
        F: FnMut(MusicReplica<RT, D, L>) -> Fut,
        Fut: std::future::Future<Output = Result<T, CriticalError>>,
    {
        let budget = self.retries().max(1);
        let salt = self.backoff_salt(op_name, 1);
        let mut failures = 0u32;
        let mut trail = AttemptTrail::new();
        let mut replica_idx = 0usize;
        loop {
            let idx = self
                .health
                .pick(replica_idx, self.rt.now(), self.rt.trace());
            let replica = self.replicas[idx].clone();
            match op(replica).await {
                Ok(v) => {
                    self.health.on_success(idx, self.rt.now(), self.rt.trace());
                    return Ok(v);
                }
                Err(CriticalError::NotYetHolder) => {
                    // The replica answered — alive, merely a stale view.
                    self.health.on_success(idx, self.rt.now(), self.rt.trace());
                    trail.note_opaque();
                    failures += 1;
                    if failures >= budget {
                        return Err(MusicError::Unavailable { attempts: trail });
                    }
                    // A persistently stale local lock-store view at one
                    // replica must not starve the holder: rotate replicas
                    // after a few polls.
                    if failures.is_multiple_of(4) {
                        replica_idx = idx + 1;
                        self.note_failover(op_name, failures, "notYetHolder");
                    }
                    // Stale-view polls wait one jittered base interval
                    // (convergence is local; exponential growth would
                    // only delay the holder).
                    let nonce = salt.wrapping_add(u64::from(failures));
                    self.rt.sleep(backoff::delay(ACQUIRE_POLL, 0, nonce)).await;
                }
                Err(CriticalError::NoLongerHolder) => {
                    self.health.on_success(idx, self.rt.now(), self.rt.trace());
                    return Err(MusicError::NoLongerHolder);
                }
                Err(CriticalError::Expired) => {
                    self.health.on_success(idx, self.rt.now(), self.rt.trace());
                    return Err(MusicError::Expired);
                }
                Err(CriticalError::Store(e)) => {
                    self.health.on_failure(idx, self.rt.now(), self.rt.trace());
                    trail.note(e);
                    failures += 1;
                    if failures >= budget {
                        return Err(MusicError::Unavailable { attempts: trail });
                    }
                    replica_idx = idx + 1;
                    self.note_failover(op_name, failures, e.code());
                    self.rt
                        .sleep(backoff::delay(ACQUIRE_POLL, failures - 1, salt))
                        .await;
                }
            }
        }
    }

    /// `criticalPut` with retry/fail-over.
    ///
    /// # Errors
    ///
    /// [`MusicError::NoLongerHolder`], [`MusicError::Expired`], or
    /// [`MusicError::Unavailable`]. After `Unavailable` the client must not
    /// attempt other MUSIC operations on this key in this critical section
    /// (§III-A).
    pub async fn critical_put(
        &self,
        key: impl AsRef<str>,
        lock_ref: LockRef,
        value: impl Into<Bytes>,
    ) -> Result<(), MusicError> {
        let req = PutReq::new(Put::value(value.into()));
        self.put_req(key.as_ref(), lock_ref, req).await.map(|_| ())
    }

    /// One `criticalPut` request with retry/fail-over. A fresh stamp is
    /// minted above the client's session floor for the key — zero when no
    /// put of this section was stamped yet (a stale entry from an earlier
    /// lock reference does not constrain the new section: the higher
    /// reference already dominates in the v2s scalar) — and the floor
    /// advances with the elapsed the replica stamped, at *issue* time, so
    /// later puts of the section stamp above even unacknowledged earlier
    /// ones. A replay keeps its original stamp and leaves the floor alone.
    async fn put_req(
        &self,
        key: &str,
        lock_ref: LockRef,
        req: PutReq,
    ) -> Result<PutIssued<RT>, MusicError> {
        let lr = lock_ref.value();
        self.critical_with_retry("criticalPut", |r| {
            let key = key.to_string();
            let mut req = req.clone();
            let floors = self.stamp_floors.clone();
            async move {
                let fresh = match &mut req.stamp {
                    PutStamp::Fresh { floor } => {
                        *floor = match floors.borrow().get(&key) {
                            Some(&(owner, e)) if owner == lr => SimDuration::from_micros(e),
                            _ => SimDuration::ZERO,
                        };
                        true
                    }
                    PutStamp::Replay { .. } => false,
                };
                let issued = r.critical_put_req(&key, lock_ref, req).await?;
                if fresh {
                    let mut floors = floors.borrow_mut();
                    let entry = floors.entry(key).or_insert((lr, 0));
                    if entry.0 != lr {
                        *entry = (lr, 0);
                    }
                    entry.1 = entry.1.max(issued.elapsed().as_micros());
                }
                Ok(issued)
            }
        })
        .await
    }

    /// `criticalGet` with retry/fail-over.
    ///
    /// # Errors
    ///
    /// Same as [`MusicClient::critical_put`].
    pub async fn critical_get(
        &self,
        key: impl AsRef<str>,
        lock_ref: LockRef,
    ) -> Result<Option<Bytes>, MusicError> {
        let key = key.as_ref();
        self.critical_with_retry("criticalGet", |r| {
            let key = key.to_string();
            async move { r.critical_get(&key, lock_ref).await }
        })
        .await
    }

    /// `releaseLock` with fail-over.
    ///
    /// # Errors
    ///
    /// [`MusicError::Unavailable`] after the retry budget is exhausted.
    pub async fn release_lock(
        &self,
        key: impl AsRef<str>,
        lock_ref: LockRef,
    ) -> Result<(), MusicError> {
        let key = key.as_ref();
        self.with_failover("releaseLock", |r| {
            let key = key.to_string();
            async move { r.release_lock(&key, lock_ref).await }
        })
        .await
    }

    /// Lock-free eventual `get` with fail-over.
    ///
    /// # Errors
    ///
    /// [`MusicError::Unavailable`] after the retry budget is exhausted.
    pub async fn get(&self, key: impl AsRef<str>) -> Result<Option<Bytes>, MusicError> {
        let key = key.as_ref();
        self.with_failover("eventualGet", |r| {
            let key = key.to_string();
            async move { r.get(&key).await }
        })
        .await
    }

    /// Lock-free eventual `put` with fail-over.
    ///
    /// # Errors
    ///
    /// [`MusicError::Unavailable`] after the retry budget is exhausted.
    pub async fn put(
        &self,
        key: impl AsRef<str>,
        value: impl Into<Bytes>,
    ) -> Result<(), MusicError> {
        let key = key.as_ref();
        let value = value.into();
        self.with_failover("eventualPut", |r| {
            let key = key.to_string();
            let value = value.clone();
            async move { r.put(&key, value).await }
        })
        .await
    }

    /// Enters a critical section on `key`: `createLockRef` + blocking
    /// `acquireLock` (Listing 1), returning a guard for the critical
    /// operations.
    ///
    /// When this client holds an unexpired lease on `key` (retained by a
    /// previous clean release under a configured lease window), entry
    /// takes the fast path instead: the pre-minted leased reference is
    /// revalidated against the local lock-store replica and claimed with
    /// a single intra-site write — no LWT, no quorum read. Any doubt
    /// (lease broken, expired, or the local view stale for too long)
    /// falls back to the full protocol.
    ///
    /// # Errors
    ///
    /// Any [`MusicError`] from the two steps.
    pub async fn enter(
        &self,
        key: impl AsRef<str>,
    ) -> Result<CriticalSection<RT, D, L>, MusicError> {
        let key = key.as_ref();
        let t0 = self.rt.now();
        self.contention.on_enter(key, t0.as_micros());
        // The section root span stays open until release (or drop) and
        // every phase below — including replica-side headship confirms —
        // parents onto it through the task's span tag.
        let section_span = self.phase_open(SpanPhase::Section, key);
        let holds_lease = self.leases.borrow().contains_key(key);
        if holds_lease && !self.contention.lease_retention_allowed(key) {
            // Anti-starvation: while retention is suspended, hand the key
            // back through the FIFO queue instead of monopolizing it via
            // 0-RTT re-entries. Best-effort — a failed relinquish leaves
            // the lease to competitors' break path or the watchdog.
            let _ = self.relinquish(key).await;
        } else if let Some(lock_ref) = self.try_lease_reenter(key).await {
            // Counted as an entered section only under the adaptive
            // controller: the starvation instrument must see a site's
            // 0-RTT lease monopoly, but the pre-adaptive accounting (and
            // the committed BENCH baselines) counts slow-path grants only.
            if self.contention.enabled() {
                self.note_grant(key, t0);
            }
            return Ok(self.section(key, lock_ref, self.rt.now(), section_span));
        }
        // Only the lease fast path, which consumes no queue slot, is exempt
        // from admission control: every enter that reaches the enqueue is
        // checked, lease holders included.
        if let Err(e) = self.admission_check(key).await {
            self.phase_close(section_span);
            return Err(e);
        }
        // Anti-starvation politeness: while lease retention is suspended
        // the key is known-contended, so an empty queue means a
        // competitor's enqueue is in flight, not that the key is free —
        // we can re-enqueue in microseconds while a far site pays 4 WAN
        // round trips to land a reference. Give it a bounded head start
        // and queue behind it; observing one refreshes the suspension.
        if let Some(patience) = self.contention.enqueue_yield(key) {
            self.yield_to_competitors(key, patience).await;
        }
        let acquire_span = self.phase_open(SpanPhase::LockAcquire, key);
        let enqueue_span = self.phase_open(SpanPhase::Enqueue, key);
        let lock_ref = if self.contention.combine_now(key) {
            self.with_failover("createLockRef", |r| {
                let key = key.to_string();
                async move { r.create_lock_ref_combined(&key).await }
            })
            .await
        } else {
            self.create_lock_ref(key).await
        };
        self.phase_close(enqueue_span);
        let lock_ref = match lock_ref {
            Ok(r) => r,
            Err(e) => {
                self.phase_close(acquire_span);
                self.phase_close(section_span);
                return Err(e);
            }
        };
        let entered_at = self.rt.now();
        let head_wait_span = self.phase_open(SpanPhase::HeadWait, key);
        let acquired = self.acquire_lock(key, lock_ref).await;
        self.phase_close(head_wait_span);
        self.phase_close(acquire_span);
        if let Err(e) = acquired {
            self.phase_close(section_span);
            return Err(e);
        }
        self.note_grant(key, t0);
        Ok(self.section(key, lock_ref, entered_at, section_span))
    }

    fn section(
        &self,
        key: &str,
        lock_ref: LockRef,
        entered_at: SimTime,
        span: (SpanId, u64),
    ) -> CriticalSection<RT, D, L> {
        CriticalSection {
            client: self.clone(),
            key: key.to_string(),
            lock_ref,
            entered_at,
            write_mode: self.write_mode(),
            pending: RefCell::new(VecDeque::new()),
            poisoned: Cell::new(None),
            span: Cell::new(span.0),
            span_parent: span.1,
        }
    }

    /// Attempts the lease fast path on `key`: consumes the cached grant,
    /// revalidates it at the primary replica, and returns the leased
    /// reference on success. `None` means "take the slow path" (which is
    /// always safe — a still-standing lease of our own would be broken by
    /// our own `createLockRef`, merely wasting the grant).
    async fn try_lease_reenter(&self, key: &str) -> Option<LockRef> {
        self.lease_window()?;
        let grant = self.leases.borrow_mut().remove(key)?;
        // Conservative ε-aware pre-check on the client's own clock: within
        // ε of expiry a drift-shifted watchdog may already be revoking, so
        // skip the fast path. The replica-side guard is authoritative.
        let eps = self.primary().config().clock_epsilon;
        if !crate::timestamp::lease_claimable(self.rt.now(), grant.until, eps) {
            return None;
        }
        let span = self.phase_open(SpanPhase::LeaseReenter, key);
        // A couple of polls tolerate a local replica that has not yet
        // applied the release LWT; beyond that, fall back rather than spin.
        let mut reentered = None;
        for _ in 0..3 {
            match self.primary().lease_reenter(key, grant.lock_ref).await {
                Ok(AcquireOutcome::Acquired) => {
                    reentered = Some(grant.lock_ref);
                    break;
                }
                Ok(AcquireOutcome::NotYet) => self.rt.sleep(ACQUIRE_POLL).await,
                Ok(AcquireOutcome::NoLongerHolder) => {
                    // Our cached lease was broken or revoked: direct
                    // evidence of competitors on this key. Suspend lease
                    // retention for the cooloff (anti-starvation).
                    self.contention.note_lease_contention(key);
                    break;
                }
                Err(_) => break,
            }
        }
        self.phase_close(span);
        reentered
    }

    /// The anti-starvation yield (see
    /// [`YIELD_PATIENCE`](crate::contention::YIELD_PATIENCE)): polls the
    /// cheap local queue view until a competitor's reference appears (then
    /// refreshes the lease-contention suspension and returns — we enqueue
    /// *behind* them) or the patience runs out (the competitor left;
    /// retention may resume once the cooloff decays). A peek failure ends
    /// the yield: politeness must never reduce availability.
    async fn yield_to_competitors(&self, key: &str, patience: SimDuration) {
        let primary = self.primary();
        // Coarse polling: the point is to notice a competitor's enqueue
        // within a few tens of milliseconds (one WAN hop's precision),
        // not to race it — a tight poll here would multiply RPC load on
        // every suspended key for no fairness gain.
        let poll = SimDuration::from_micros(ACQUIRE_POLL.as_micros() * 4);
        let deadline = self.rt.now() + patience;
        let salt = self.backoff_salt("enqueueYield", backoff::hash_str(key));
        let mut attempt = 0u32;
        loop {
            match primary.locks().queue_depth_local(primary.node(), key).await {
                Ok(0) => {}
                Ok(_) => {
                    self.contention.note_lease_contention(key);
                    return;
                }
                Err(_) => return,
            }
            if self.rt.now() >= deadline {
                return;
            }
            self.rt
                .sleep(backoff::delay(poll, attempt.min(3), salt))
                .await;
            attempt = attempt.saturating_add(1);
        }
    }

    /// Voluntarily surrenders the lease this client holds on `key`, if
    /// any: the pre-minted reference is released through the normal LWT
    /// path so other clients need not break (or wait out) the lease.
    ///
    /// # Errors
    ///
    /// [`MusicError::Unavailable`] after the retry budget is exhausted.
    pub async fn relinquish(&self, key: impl AsRef<str>) -> Result<(), MusicError> {
        let key = key.as_ref();
        let grant = self.leases.borrow_mut().remove(key);
        match grant {
            Some(g) => self.release_lock(key, g.lock_ref).await,
            None => Ok(()),
        }
    }

    /// Enters a critical section over *several* keys, following the
    /// deadlock-avoidance rule of §III-A: locks are always acquired in
    /// lexicographic order, and the multi-key acquire succeeds only if it
    /// succeeds individually for every key. On any failure, already-held
    /// locks are released before the error is returned.
    ///
    /// # Errors
    ///
    /// [`MusicError::EmptyKeySet`] for an empty `keys`, otherwise any
    /// [`MusicError`] from the per-key steps.
    pub async fn enter_many(
        &self,
        keys: &[impl AsRef<str>],
    ) -> Result<MultiCriticalSection<RT, D, L>, MusicError> {
        if keys.is_empty() {
            return Err(MusicError::EmptyKeySet);
        }
        let mut sorted: Vec<&str> = keys.iter().map(AsRef::as_ref).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut sections: Vec<CriticalSection<RT, D, L>> = Vec::with_capacity(sorted.len());
        for key in sorted {
            match self.enter(key).await {
                Ok(cs) => sections.push(cs),
                Err(e) => {
                    // Roll back in reverse order; best-effort (a failed
                    // release is collected by the failure detector).
                    while let Some(cs) = sections.pop() {
                        let _ = cs.release().await;
                    }
                    return Err(e);
                }
            }
        }
        Ok(MultiCriticalSection { sections })
    }
}

/// A critical section spanning several keys, held in lexicographic order.
#[derive(Debug)]
pub struct MultiCriticalSection<
    RT = Sim,
    D = ReplicatedTable<DataRow>,
    L = ReplicatedTable<LockPartition>,
> where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    sections: Vec<CriticalSection<RT, D, L>>,
}

impl<RT, D, L> MultiCriticalSection<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    /// The held keys, in acquisition (lexicographic) order.
    pub fn keys(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.key()).collect()
    }

    fn section(&self, key: &str) -> Result<&CriticalSection<RT, D, L>, MusicError> {
        self.sections
            .iter()
            .find(|s| s.key() == key)
            .ok_or(MusicError::NotInSection)
    }

    /// Flush barrier on key crossings: before operating on `key`, every
    /// *other* section's pipelined writes are flushed, so per-key program
    /// order inside the multi-section is acknowledged in the order the
    /// application crossed between keys.
    async fn flush_others(&self, key: &str) -> Result<(), MusicError> {
        for s in &self.sections {
            if s.key() != key && s.in_flight() > 0 {
                s.flush().await?;
            }
        }
        Ok(())
    }

    /// `criticalGet` on one of the held keys. Crossing to `key` flushes the
    /// other sections' pipelined writes first.
    ///
    /// # Errors
    ///
    /// [`MusicError::NotInSection`] if `key` is not part of this critical
    /// section; otherwise see [`MusicClient::critical_get`].
    pub async fn get(&self, key: impl AsRef<str>) -> Result<Option<Bytes>, MusicError> {
        let key = key.as_ref();
        let section = self.section(key)?;
        self.flush_others(key).await?;
        section.get().await
    }

    /// `criticalPut` on one of the held keys. Crossing to `key` flushes the
    /// other sections' pipelined writes first.
    ///
    /// # Errors
    ///
    /// [`MusicError::NotInSection`] if `key` is not part of this critical
    /// section; otherwise see [`MusicClient::critical_put`].
    pub async fn put(
        &self,
        key: impl AsRef<str>,
        value: impl Into<Bytes>,
    ) -> Result<(), MusicError> {
        let key = key.as_ref();
        let section = self.section(key)?;
        self.flush_others(key).await?;
        section.put(value).await
    }

    /// Releases every held lock, in reverse (anti-lexicographic) order.
    /// Each per-key release flushes that key's pipelined writes first.
    ///
    /// # Errors
    ///
    /// The first release error, after attempting all releases.
    pub async fn release(mut self) -> Result<(), MusicError> {
        let mut first_err = None;
        while let Some(cs) = self.sections.pop() {
            if let Err(e) = cs.release().await {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// A held critical section: the Listing-1 pattern as a guard object.
///
/// Call [`CriticalSection::release`] when done; merely dropping the guard
/// leaves the lock to the failure detector (as a crashed client would) —
/// including any pipelined writes still in flight.
pub struct CriticalSection<
    RT = Sim,
    D = ReplicatedTable<DataRow>,
    L = ReplicatedTable<LockPartition>,
> where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    client: MusicClient<RT, D, L>,
    key: String,
    lock_ref: LockRef,
    entered_at: SimTime,
    write_mode: WriteMode,
    /// Issued-but-unacknowledged pipelined puts, in issue order.
    pending: RefCell<VecDeque<PendingPut<RT>>>,
    /// Set once a flush fails: every further operation (including release)
    /// fails with this error, because an unacknowledged write may still
    /// land and only a resynchronizing handoff is safe (§III-A).
    poisoned: Cell<Option<MusicError>>,
    /// The open `cs` root span (0 when tracing is off or already closed).
    span: Cell<SpanId>,
    /// Task span tag to restore when the root span closes.
    span_parent: u64,
}

impl<RT, D, L> fmt::Debug for CriticalSection<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CriticalSection")
            .field("key", &self.key)
            .field("lock_ref", &self.lock_ref)
            .field("write_mode", &self.write_mode)
            .field("in_flight", &self.pending.borrow().len())
            .finish_non_exhaustive()
    }
}

impl<RT, D, L> CriticalSection<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    /// The lock reference held by this critical section.
    pub fn lock_ref(&self) -> LockRef {
        self.lock_ref
    }

    /// The key this critical section guards.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The write mode this section was entered with.
    pub fn write_mode(&self) -> WriteMode {
        self.write_mode
    }

    /// How many pipelined puts are currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.borrow().len()
    }

    fn check_poisoned(&self) -> Result<(), MusicError> {
        match self.poisoned.get() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Closes the section's root span (idempotent). Runs on release *and*
    /// on drop, so abandoned sections still close their span — an
    /// unclosed `cs` span in a trace means a task died mid-section.
    fn close_section_span(&self) {
        let id = self.span.replace(0);
        if id == 0 {
            return;
        }
        let rt = &self.client.rt;
        self.client
            .primary()
            .recorder()
            .span_close(rt.now().as_micros(), id);
        // Restore the enclosing tag only if this guard's span is still the
        // current one — a guard dropped from a foreign task must not
        // clobber that task's tag.
        if rt.span() == id {
            rt.set_span(self.span_parent);
        }
    }

    /// `criticalGet` of the guarded key — guaranteed to return the *true
    /// value* (Latest-State Property). A flush barrier: all pipelined
    /// writes are acknowledged before the read is issued.
    ///
    /// # Errors
    ///
    /// See [`MusicClient::critical_get`]; also any flush error.
    pub async fn get(&self) -> Result<Option<Bytes>, MusicError> {
        self.flush().await?;
        let span = self.client.phase_open(SpanPhase::DataGet, &self.key);
        let r = self.client.critical_get(&self.key, self.lock_ref).await;
        self.client.phase_close(span);
        r
    }

    /// `criticalPut` of the guarded key — on success the written value is
    /// the new true value.
    ///
    /// Under [`WriteMode::Sync`] this awaits the quorum acknowledgment;
    /// under [`WriteMode::Pipelined`] it behaves like
    /// [`CriticalSection::put_async`].
    ///
    /// # Errors
    ///
    /// See [`MusicClient::critical_put`].
    pub async fn put(&self, value: impl Into<Bytes>) -> Result<(), MusicError> {
        match self.write_mode {
            WriteMode::Sync => {
                self.check_poisoned()?;
                let span = self.client.phase_open(SpanPhase::DataPut, &self.key);
                let r = self
                    .client
                    .critical_put(&self.key, self.lock_ref, value)
                    .await;
                self.client.phase_close(span);
                r
            }
            WriteMode::Pipelined { .. } => self.put_async(value).await,
        }
    }

    /// Issues a `criticalPut` without awaiting its quorum ack. Returns once
    /// the write is issued; if the in-flight window is full, the oldest
    /// pending put is awaited (and re-driven if it failed) first.
    ///
    /// Available in every write mode — in [`WriteMode::Sync`] the window is
    /// 1, i.e. each issue first drains the previous put.
    ///
    /// # Errors
    ///
    /// Issue errors ([`MusicError::NoLongerHolder`], [`MusicError::Expired`],
    /// [`MusicError::Unavailable`]) and any error from settling the oldest
    /// pending put. After an error the section is poisoned: see
    /// [`CriticalSection::flush`].
    pub async fn put_async(&self, value: impl Into<Bytes>) -> Result<(), MusicError> {
        self.check_poisoned()?;
        let value = value.into();
        let window = self.write_mode.window();
        // The span covers the *issue* (window drain + guard + quorum
        // launch): pipelined acks land later and are accounted by the
        // flush span, which is exactly the decomposition the pipelining
        // optimization is supposed to show off.
        let span = self.client.phase_open(SpanPhase::DataPut, &self.key);
        let r = self.put_async_inner(value, window).await;
        self.client.phase_close(span);
        r
    }

    async fn put_async_inner(&self, value: Bytes, window: usize) -> Result<(), MusicError> {
        loop {
            let oldest = {
                let mut pending = self.pending.borrow_mut();
                if pending.len() < window {
                    break;
                }
                pending.pop_front().expect("window is non-empty")
            };
            self.settle(oldest).await?;
        }
        let req = PutReq {
            pipelined: true,
            ..PutReq::new(Put::value(value))
        };
        // An awaited ack would need no window slot; pipelined requests
        // always come back pending.
        if let PutIssued::Pending(pp) = self.client.put_req(&self.key, self.lock_ref, req).await? {
            let depth = {
                let mut pending = self.pending.borrow_mut();
                pending.push_back(pp);
                pending.len()
            };
            let rec = self.client.primary().recorder();
            rec.count(Scope::Global, "pipelined_puts", 1);
            rec.gauge_max(Scope::Global, "cs_inflight_peak", depth as u64);
        }
        Ok(())
    }

    /// Awaits one pending put; a store failure re-drives the write with its
    /// original stamp (program order inside the section must not be
    /// reordered by retries). A terminal failure poisons the section.
    async fn settle(&self, pp: PendingPut<RT>) -> Result<(), MusicError> {
        let (replay, res) = pp.outcome().await;
        let err = match res {
            Ok(()) => return Ok(()),
            Err(CriticalError::NoLongerHolder) => MusicError::NoLongerHolder,
            Err(CriticalError::Expired) => MusicError::Expired,
            Err(CriticalError::NotYetHolder) | Err(CriticalError::Store(_)) => {
                match self.client.put_req(&self.key, self.lock_ref, replay).await {
                    Ok(_) => return Ok(()),
                    Err(e) => e,
                }
            }
        };
        // Some write of this section may never be acknowledged: poison the
        // section, drop the remaining pending puts (their writes keep
        // propagating, like a crashed holder's), and mark the synchFlag so
        // the next holder resynchronizes. The mark is best-effort — if it
        // fails too, the failed release leaves the reference queued and the
        // failure detector's forcedRelease sets the flag before dequeueing.
        self.poisoned.set(Some(err));
        self.pending.borrow_mut().clear();
        let rec = self.client.primary().recorder();
        rec.count(Scope::Global, "flush_failures", 1);
        self.mark_synch_best_effort().await;
        Err(err)
    }

    /// One `markSynch` attempt per replica, stopping at the first success.
    async fn mark_synch_best_effort(&self) {
        for r in &self.client.replicas {
            if r.mark_synch(&self.key, self.lock_ref).await.is_ok() {
                return;
            }
        }
    }

    /// Flush barrier: awaits every outstanding pipelined put, re-driving
    /// failed writes. No-op when nothing is in flight.
    ///
    /// # Errors
    ///
    /// The settling error, after marking the `synchFlag` and poisoning the
    /// section — all further operations (including release) fail, leaving
    /// the lock to the failure detector's resynchronizing preemption.
    pub async fn flush(&self) -> Result<(), MusicError> {
        self.check_poisoned()?;
        let n = self.pending.borrow().len();
        if n == 0 {
            return Ok(());
        }
        let rec = self.client.primary().recorder();
        rec.count(Scope::Global, "cs_flushes", 1);
        self.client.emit(|| EventKind::CsFlush {
            key: self.key.clone(),
            lock_ref: self.lock_ref.value(),
            pending: n as u64,
        });
        let span = self.client.phase_open(SpanPhase::Flush, &self.key);
        let r = self.drain_pending().await;
        self.client.phase_close(span);
        r
    }

    async fn drain_pending(&self) -> Result<(), MusicError> {
        loop {
            let Some(pp) = self.pending.borrow_mut().pop_front() else {
                return Ok(());
            };
            self.settle(pp).await?;
        }
    }

    /// Exits the critical section, releasing the lock. A flush barrier: the
    /// lock is handed off only after every pipelined write of this section
    /// is quorum-acknowledged.
    ///
    /// # Errors
    ///
    /// Any flush error (the lock is then *not* released — the failure
    /// detector will preempt it with a resynchronizing `forcedRelease`), or
    /// [`MusicError::Unavailable`] if no replica can reach the lock store.
    ///
    /// When the client has a lease window in effect, a clean release with
    /// nothing queued behind it retains a lease: the next
    /// [`MusicClient::enter`] on this key within the window skips the lock
    /// protocol entirely.
    pub async fn release(self) -> Result<(), MusicError> {
        self.flush().await?;
        // Lease retention rides on a configured window, gated by the
        // anti-starvation rule: while the key is Hot or inside a
        // lease-contention cooloff, release plainly so competitors get the
        // FIFO queue instead of a 0-RTT monopoly.
        let retain = self
            .client
            .lease_window()
            .filter(|_| self.client.contention.lease_retention_allowed(&self.key));
        let res = match retain {
            Some(window) => {
                // Auto-tune the minted window from the observed think-time
                // EWMA, clamped to the safety floor/ceiling (identity when
                // the controller is disabled).
                let window = self.client.contention.auto_window(&self.key, window);
                let span = self.client.phase_open(SpanPhase::LeaseHandoff, &self.key);
                let res = self.release_leased(window).await;
                self.client.phase_close(span);
                res
            }
            None => {
                let span = self.client.phase_open(SpanPhase::Release, &self.key);
                let res = self.client.release_lock(&self.key, self.lock_ref).await;
                self.client.phase_close(span);
                res
            }
        };
        if res.is_ok() {
            self.client
                .contention
                .on_release(&self.key, self.client.rt.now().as_micros());
            self.client.primary().stats().record(
                OpKind::CriticalSection,
                self.client.rt.now() - self.entered_at,
            );
        }
        self.close_section_span();
        res
    }

    /// Lease-retaining release: one LWT, same cost as a plain release,
    /// caching the grant (if one was retained) on the client.
    async fn release_leased(&self, window: SimDuration) -> Result<(), MusicError> {
        let key = self.key.clone();
        let lock_ref = self.lock_ref;
        let granted = self
            .client
            .with_failover("releaseLock", |r| {
                let key = key.clone();
                async move { r.release_lock_leased(&key, lock_ref, window).await }
            })
            .await?;
        let mut leases = self.client.leases.borrow_mut();
        match granted {
            Some(g) => {
                leases.insert(self.key.clone(), g);
            }
            None => {
                leases.remove(&self.key);
                // The release found competitors queued behind us (or the
                // reference already collected): the key is contended, so
                // suspend lease retention for the cooloff.
                self.client.contention.note_lease_contention(&self.key);
            }
        }
        Ok(())
    }
}

impl<RT, D, L> Drop for CriticalSection<RT, D, L>
where
    RT: Runtime,
    D: TableApi<DataRow, Rt = RT>,
    L: TableApi<LockPartition, Rt = RT>,
{
    fn drop(&mut self) {
        self.close_section_span();
    }
}
