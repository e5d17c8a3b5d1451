//! The failure detector: time-out based preemption of presumed-failed
//! lockholders (§III-A "any MUSIC replica can preempt the lock from a
//! lockholder that appears to have failed, using time-outs for failure
//! detection").
//!
//! The detector is deliberately *imperfect*: it watches only the lock
//! store's observable state (queue head and grant time). A holder that is
//! alive but slow, partitioned, or stalled looks identical to a dead one
//! and will be preempted — the false-failure-detection case whose safety
//! the ECF semantics (and §IV-B) guarantee.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use music_lockstore::LockRef;
use music_simnet::time::{SimDuration, SimTime};

use crate::replica::MusicReplica;
use crate::timestamp::lease_breakable;

#[derive(Debug)]
struct Observation {
    head: LockRef,
    first_seen: SimTime,
    /// Whether the head had a start time when last observed. A lease claim
    /// (start time appearing on an unchanged head) is progress: it resets
    /// the staleness clock just like a head change does.
    started: bool,
}

/// A watchdog task bound to one MUSIC replica.
///
/// Tracks each watched key's queue head. A head is preempted
/// (`forcedRelease`) when it has not changed for `failure_timeout` —
/// whether it was granted and the holder stopped progressing, was granted
/// and expired, or was never granted at all (an *orphan* reference whose
/// client died before acquiring, §IV-B).
#[derive(Clone, Debug)]
pub struct Watchdog {
    replica: MusicReplica,
    interval: SimDuration,
    /// Keyed observations in key order, so that two keys becoming
    /// preemptable in the same scan are always preempted in the same
    /// order (replay determinism).
    watched: Rc<RefCell<BTreeMap<String, Observation>>>,
    running: Rc<std::cell::Cell<bool>>,
    preemptions: Rc<std::cell::Cell<u64>>,
    lease_revocations: Rc<std::cell::Cell<u64>>,
    drift_defers: Rc<std::cell::Cell<u64>>,
}

impl Watchdog {
    /// Creates a watchdog that scans every `interval`.
    pub fn new(replica: MusicReplica, interval: SimDuration) -> Self {
        Watchdog {
            replica,
            interval,
            watched: Rc::new(RefCell::new(BTreeMap::new())),
            running: Rc::new(std::cell::Cell::new(false)),
            preemptions: Rc::new(std::cell::Cell::new(0)),
            lease_revocations: Rc::new(std::cell::Cell::new(0)),
            drift_defers: Rc::new(std::cell::Cell::new(0)),
        }
    }

    /// Registers a key for failure monitoring.
    pub fn watch(&self, key: &str) {
        self.watched
            .borrow_mut()
            .entry(key.to_string())
            .or_insert(Observation {
                head: LockRef::NONE,
                first_seen: SimTime::ZERO,
                started: false,
            });
    }

    /// Stops the scan loop after its current iteration.
    pub fn stop(&self) {
        self.running.set(false);
    }

    /// Total forced releases issued by this watchdog (including lease
    /// revocations).
    pub fn preemptions(&self) -> u64 {
        self.preemptions.get()
    }

    /// How many of the forced releases revoked an expired, unclaimed lease.
    pub fn lease_revocations(&self) -> u64 {
        self.lease_revocations.get()
    }

    /// How many revocations were deferred because the lease deadline fell
    /// inside the configured clock-uncertainty margin ε: this node's clock
    /// read the lease as expired, but a clock running ε slower would not —
    /// so a drift-shifted holder may still legitimately claim it.
    pub fn drift_defers(&self) -> u64 {
        self.drift_defers.get()
    }

    /// Records one ε-deferred revocation (counter + telemetry).
    fn note_drift_defer(&self, key: &str, head: LockRef, now: SimTime, until: SimTime) {
        self.drift_defers.set(self.drift_defers.get() + 1);
        let rec = self.replica.recorder();
        if !rec.is_on() {
            return;
        }
        let node = self.replica.node().0;
        rec.count(
            music_telemetry::Scope::Node(node),
            "watchdog_drift_defers",
            1,
        );
        if rec.is_tracing() {
            let rt = self.replica.runtime();
            rec.record(
                rt.now().as_micros(),
                rt.trace(),
                node,
                music_telemetry::EventKind::LeaseDriftReject {
                    key: key.to_string(),
                    lock_ref: head.value(),
                    guard: "break",
                    now_us: now.as_micros(),
                    until_us: until.as_micros(),
                },
            );
        }
    }

    /// Spawns the periodic scan loop on the replica's simulation.
    pub fn spawn(&self) {
        if self.running.replace(true) {
            return; // already running
        }
        let this = self.clone();
        // The replica's runtime, not the network's: a drifted deployment
        // hands each replica a skewed clock, and the watchdog must judge
        // lease expiries on the same (local) clock its replica uses.
        let sim = this.replica.runtime().clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            while this.running.get() {
                this.scan_once().await;
                sim2.sleep(this.interval).await;
            }
        });
    }

    /// One scan over all watched keys (also callable directly for
    /// deterministic tests). Uses a single range scan of the local
    /// lock-store replica rather than one peek per key.
    ///
    /// Lease handling: an *unclaimed* leased head is not a stuck holder —
    /// it is a standing reservation, exempt from the staleness timeout
    /// until its deadline; once the deadline passes unclaimed, it is
    /// revoked immediately (same resynchronizing `forcedRelease` as a
    /// preemption). A *claimed* lease (start time set) is an ordinary
    /// holder, and the claim itself resets the staleness clock.
    pub async fn scan_once(&self) {
        let timeout = self.replica.config().failure_timeout;
        let eps = self.replica.config().clock_epsilon;
        let now = self.replica.runtime().now();
        let Ok(heads) = self.replica.locks().scan_heads(self.replica.node()).await else {
            return; // store unavailable; try next round
        };
        let head_of: std::collections::HashMap<String, (LockRef, music_lockstore::LockEntry)> =
            heads.into_iter().map(|(k, r, e)| (k, (r, e))).collect();
        let keys: Vec<String> = self.watched.borrow().keys().cloned().collect();
        for key in keys {
            let Some(&(head, entry)) = head_of.get(&key) else {
                // Queue currently empty: reset the observation but keep
                // watching — new references may arrive at any time.
                if let Some(obs) = self.watched.borrow_mut().get_mut(&key) {
                    obs.head = LockRef::NONE;
                    obs.first_seen = now;
                    obs.started = false;
                }
                continue;
            };
            let claimed = entry.start_time.is_some();
            let stale_since = {
                let mut watched = self.watched.borrow_mut();
                let obs = watched.entry(key.clone()).or_insert(Observation {
                    head: LockRef::NONE,
                    first_seen: now,
                    started: false,
                });
                if obs.head != head {
                    obs.head = head;
                    obs.first_seen = now;
                    obs.started = claimed;
                } else if claimed && !obs.started {
                    obs.started = true;
                    obs.first_seen = now;
                }
                obs.first_seen
            };
            let expired_lease = match (claimed, entry.lease_until) {
                // A standing, unclaimed lease: exempt from the staleness
                // timeout no matter how long it has sat at the head, and
                // revoked only once its deadline is more than ε past on
                // this node's clock (drift-safe break guard: a holder
                // whose clock runs up to ε slow may still legitimately
                // claim until then).
                (false, Some(until)) => {
                    if !lease_breakable(now, until, eps) {
                        if now >= until {
                            self.note_drift_defer(&key, head, now, until);
                        }
                        continue;
                    }
                    true
                }
                _ => false,
            };
            if expired_lease || now - stale_since >= timeout {
                // Presumed failed (or orphaned, or an expired lease never
                // claimed): preempt. The release is safe even if the
                // holder is actually alive (ECF).
                if self.replica.forced_release(&key, head).await.is_ok() {
                    self.preemptions.set(self.preemptions.get() + 1);
                    if expired_lease {
                        self.lease_revocations.set(self.lease_revocations.get() + 1);
                    }
                    let rec = self.replica.recorder();
                    if rec.is_on() {
                        let node = self.replica.node().0;
                        let counter = if expired_lease {
                            "watchdog_lease_revocations"
                        } else {
                            "watchdog_preemptions"
                        };
                        rec.count(music_telemetry::Scope::Node(node), counter, 1);
                        if rec.is_tracing() {
                            let sim = self.replica.runtime();
                            rec.record(
                                sim.now().as_micros(),
                                sim.trace(),
                                node,
                                music_telemetry::EventKind::WatchdogPreempt {
                                    key: key.clone(),
                                    lock_ref: head.value(),
                                },
                            );
                        }
                    }
                    if let Some(obs) = self.watched.borrow_mut().get_mut(&key) {
                        obs.head = LockRef::NONE;
                        obs.first_seen = now;
                        obs.started = false;
                    }
                }
            }
        }
    }
}
