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
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use music_lockstore::{LockEntry, LockRef};
use music_simnet::time::{SimDuration, SimTime};
use music_telemetry::{EventKind, Scope};

use crate::replica::MusicReplica;
use crate::timestamp::lease_breakable;

/// What the watchdog last saw at the head of one watched key. Only keys
/// that currently have a head are observed: a head that goes away drops
/// its observation, and one that (re)appears starts a fresh clock.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    head: LockRef,
    first_seen: SimTime,
    /// Whether the head had a start time when last observed. A lease claim
    /// (start time appearing on an unchanged head) is progress: it resets
    /// the staleness clock just like a head change does.
    started: bool,
}

/// One decision of a scan, for one watched key's head.
#[derive(Debug)]
enum Action<'a> {
    /// An unclaimed lease whose deadline has passed on this node's clock
    /// but by no more than ε: not revoked yet, only noted.
    Defer {
        key: &'a str,
        head: LockRef,
        until: SimTime,
    },
    /// Presumed failed (or orphaned, or an expired lease never claimed):
    /// `forcedRelease` the head.
    Preempt {
        key: &'a str,
        head: LockRef,
        expired_lease: bool,
    },
}

/// The synchronous part of one scan. Brings `observed` up to date with
/// `heads` (sorted by key, as the scan returns them) for the keys in
/// `watched`, and returns what to do, in key order.
///
/// Lease handling: an *unclaimed* leased head is not a stuck holder — it
/// is a standing reservation, exempt from the staleness timeout until its
/// deadline; once the deadline is more than ε past, it is revoked at once
/// (same resynchronizing `forcedRelease` as a preemption). A *claimed*
/// lease (start time set) is an ordinary holder, and the claim itself
/// resets the staleness clock.
///
/// Work and allocation are in proportion to the heads, not to `watched`.
fn scan_step<'a>(
    observed: &mut BTreeMap<String, Observation>,
    heads: &'a [(String, LockRef, LockEntry)],
    watched: &BTreeSet<String>,
    now: SimTime,
    timeout: SimDuration,
    eps: SimDuration,
) -> Vec<Action<'a>> {
    // A key whose queue emptied loses its observation (both sides are in
    // key order, so one merge pass finds them). Keep watching: new
    // references may arrive at any time.
    let mut next = heads.iter().map(|(k, _, _)| k.as_str()).peekable();
    observed.retain(|key, _| {
        while next.next_if(|k| *k < key.as_str()).is_some() {}
        next.next_if_eq(&key.as_str()).is_some()
    });

    let mut actions = Vec::new();
    for (key, head, entry) in heads {
        if !watched.contains(key) {
            continue;
        }
        let (head, claimed) = (*head, entry.start_time.is_some());
        let stale_since = match observed.get_mut(key) {
            Some(obs) => {
                if obs.head != head {
                    *obs = Observation {
                        head,
                        first_seen: now,
                        started: claimed,
                    };
                } else if claimed && !obs.started {
                    obs.started = true;
                    obs.first_seen = now;
                }
                obs.first_seen
            }
            None => {
                observed.insert(
                    key.clone(),
                    Observation {
                        head,
                        first_seen: now,
                        started: claimed,
                    },
                );
                now
            }
        };
        let expired_lease = match (claimed, entry.lease_until) {
            // A standing, unclaimed lease: exempt from the staleness
            // timeout no matter how long it has sat at the head, and
            // revoked only once its deadline is more than ε past on this
            // node's clock (drift-safe break guard: a holder whose clock
            // runs up to ε slow may still legitimately claim until then).
            (false, Some(until)) => {
                if !lease_breakable(now, until, eps) {
                    if now >= until {
                        actions.push(Action::Defer { key, head, until });
                    }
                    continue;
                }
                true
            }
            _ => false,
        };
        if expired_lease || now - stale_since >= timeout {
            actions.push(Action::Preempt {
                key,
                head,
                expired_lease,
            });
        }
    }
    actions
}

/// A watchdog task bound to one MUSIC replica.
///
/// Tracks the queue head of each watched key that has one. A head is
/// preempted (`forcedRelease`) when it has not changed for
/// `failure_timeout` — whether it was granted and the holder stopped
/// progressing, was granted and expired, or was never granted at all (an
/// *orphan* reference whose client died before acquiring, §IV-B).
#[derive(Clone, Debug)]
pub struct Watchdog {
    replica: MusicReplica,
    interval: SimDuration,
    watched: Rc<RefCell<BTreeSet<String>>>,
    /// Observations of the watched keys that have a head, in key order, so
    /// that two keys becoming preemptable in the same scan are always
    /// preempted in the same order (replay determinism).
    observed: Rc<RefCell<BTreeMap<String, Observation>>>,
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
            watched: Rc::new(RefCell::new(BTreeSet::new())),
            observed: Rc::new(RefCell::new(BTreeMap::new())),
            running: Rc::new(std::cell::Cell::new(false)),
            preemptions: Rc::new(std::cell::Cell::new(0)),
            lease_revocations: Rc::new(std::cell::Cell::new(0)),
            drift_defers: Rc::new(std::cell::Cell::new(0)),
        }
    }

    /// Registers a key for failure monitoring.
    pub fn watch(&self, key: &str) {
        self.watched.borrow_mut().insert(key.to_string());
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
        let (rec, rt) = (self.replica.recorder(), self.replica.runtime());
        let node = self.replica.node().0;
        rec.count(Scope::Node(node), "watchdog_drift_defers", 1);
        rec.record(rt.now().as_micros(), rt.trace(), node, || {
            EventKind::LeaseDriftReject {
                key: key.to_string(),
                lock_ref: head.value(),
                guard: "break",
                now_us: now.as_micros(),
                until_us: until.as_micros(),
            }
        });
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
    /// lock-store replica, which returns only the keys that have a head,
    /// rather than one peek per key; `scan_step` makes the decisions.
    pub async fn scan_once(&self) {
        let cfg = self.replica.config();
        let (timeout, eps) = (cfg.failure_timeout, cfg.clock_epsilon);
        let now = self.replica.runtime().now();
        let Ok(heads) = self.replica.locks().scan_heads(self.replica.node()).await else {
            return; // store unavailable; try next round
        };
        let actions = scan_step(
            &mut self.observed.borrow_mut(),
            &heads,
            &self.watched.borrow(),
            now,
            timeout,
            eps,
        );
        for action in actions {
            match action {
                Action::Defer { key, head, until } => self.note_drift_defer(key, head, now, until),
                Action::Preempt {
                    key,
                    head,
                    expired_lease,
                } => self.preempt(key, head, expired_lease).await,
            }
        }
    }

    /// Forced release of a presumed-failed head. The release is safe even
    /// if the holder is actually alive (ECF).
    async fn preempt(&self, key: &str, head: LockRef, expired_lease: bool) {
        if self.replica.forced_release(key, head).await.is_err() {
            return;
        }
        self.preemptions.set(self.preemptions.get() + 1);
        if expired_lease {
            self.lease_revocations.set(self.lease_revocations.get() + 1);
        }
        let (rec, rt) = (self.replica.recorder(), self.replica.runtime());
        let node = self.replica.node().0;
        let counter = if expired_lease {
            "watchdog_lease_revocations"
        } else {
            "watchdog_preemptions"
        };
        rec.count(Scope::Node(node), counter, 1);
        rec.record(rt.now().as_micros(), rt.trace(), node, || {
            EventKind::WatchdogPreempt {
                key: key.to_string(),
                lock_ref: head.value(),
            }
        });
        // Whatever heads the key next, its clock starts afresh.
        self.observed.borrow_mut().remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KEYS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// One generated head: a small reference range makes an unchanged head
    /// across scans common; a lease deadline is given relative to the scan.
    #[derive(Clone, Copy, Debug)]
    struct HeadCase {
        lock_ref: u64,
        claimed: bool,
        lease_ms: Option<i64>,
    }

    /// One generated scan: how far the clock moved, a key newly watched
    /// before it, each key's head (if any), and whether a forced release
    /// of each key succeeds.
    #[derive(Clone, Debug)]
    struct ScanCase {
        advance_ms: u64,
        watch: Option<usize>,
        heads: Vec<Option<HeadCase>>,
        released: Vec<bool>,
    }

    prop_compose! {
        fn head_case()(
            present in 0u8..10,
            lock_ref in 1u64..4,
            claimed in proptest::bool::weighted(0.4),
            leased in proptest::bool::weighted(0.4),
            lease_ms in -1_500i64..1_500,
        ) -> Option<HeadCase> {
            (present >= 3).then_some(HeadCase {
                lock_ref,
                claimed,
                lease_ms: leased.then_some(lease_ms),
            })
        }
    }

    prop_compose! {
        fn scan_case()(
            advance_ms in 0u64..1_500,
            watch in 0usize..2 * KEYS.len(),
            heads in proptest::collection::vec(head_case(), KEYS.len()),
            released in proptest::collection::vec(proptest::bool::weighted(0.7), KEYS.len()),
        ) -> ScanCase {
            ScanCase {
                advance_ms,
                watch: (watch < KEYS.len()).then_some(watch),
                heads,
                released,
            }
        }
    }

    /// A scan decision, as either implementation makes it.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Decision {
        Defer(String, LockRef, SimTime),
        Preempt(String, LockRef, bool),
    }

    /// The per-key loop `scan_once` ran when every watched key kept an
    /// observation (reset to `LockRef::NONE` while its queue is empty),
    /// with each forced release's outcome given instead of awaited.
    #[derive(Default)]
    struct Model {
        watched: BTreeMap<String, Observation>,
    }

    impl Model {
        fn watch(&mut self, key: &str) {
            self.watched.entry(key.to_string()).or_insert(Observation {
                head: LockRef::NONE,
                first_seen: SimTime::ZERO,
                started: false,
            });
        }

        fn scan(
            &mut self,
            heads: &[(String, LockRef, LockEntry)],
            now: SimTime,
            timeout: SimDuration,
            eps: SimDuration,
            released: impl Fn(&str) -> bool,
        ) -> Vec<Decision> {
            let head_of: BTreeMap<String, (LockRef, LockEntry)> = heads
                .iter()
                .map(|(k, r, e)| (k.clone(), (*r, *e)))
                .collect();
            let keys: Vec<String> = self.watched.keys().cloned().collect();
            let mut out = Vec::new();
            for key in keys {
                let Some(&(head, entry)) = head_of.get(&key) else {
                    if let Some(obs) = self.watched.get_mut(&key) {
                        obs.head = LockRef::NONE;
                        obs.first_seen = now;
                        obs.started = false;
                    }
                    continue;
                };
                let claimed = entry.start_time.is_some();
                let stale_since = {
                    let obs = self.watched.entry(key.clone()).or_insert(Observation {
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
                    (false, Some(until)) => {
                        if !lease_breakable(now, until, eps) {
                            if now >= until {
                                out.push(Decision::Defer(key.clone(), head, until));
                            }
                            continue;
                        }
                        true
                    }
                    _ => false,
                };
                if expired_lease || now - stale_since >= timeout {
                    out.push(Decision::Preempt(key.clone(), head, expired_lease));
                    if released(&key) {
                        if let Some(obs) = self.watched.get_mut(&key) {
                            obs.head = LockRef::NONE;
                            obs.first_seen = now;
                            obs.started = false;
                        }
                    }
                }
            }
            out
        }
    }

    fn check(
        initial: Vec<bool>,
        timeout_ms: u64,
        eps_ms: u64,
        scans: Vec<ScanCase>,
    ) -> Result<(), String> {
        let timeout = SimDuration::from_millis(timeout_ms);
        let eps = SimDuration::from_millis(eps_ms);
        let mut model = Model::default();
        let mut watched = BTreeSet::new();
        let mut observed = BTreeMap::new();
        for (key, _) in KEYS.iter().zip(&initial).filter(|(_, w)| **w) {
            model.watch(key);
            watched.insert(key.to_string());
        }
        let mut now = SimTime::from_micros(10_000_000);
        for scan in &scans {
            now += SimDuration::from_millis(scan.advance_ms);
            if let Some(i) = scan.watch {
                model.watch(KEYS[i]);
                watched.insert(KEYS[i].to_string());
            }
            let heads: Vec<(String, LockRef, LockEntry)> = KEYS
                .iter()
                .zip(&scan.heads)
                .filter_map(|(key, h)| {
                    let h = (*h)?;
                    let mut entry = LockEntry::default();
                    entry.present = true;
                    entry.start_time = h.claimed.then_some(now);
                    entry.lease_until = h.lease_ms.map(|ms| {
                        SimTime::from_micros((now.as_micros() as i64 + ms * 1_000) as u64)
                    });
                    Some((key.to_string(), LockRef::new(h.lock_ref), entry))
                })
                .collect();
            let released = |key: &str| scan.released[KEYS.iter().position(|k| *k == key).unwrap()];

            let expected = model.scan(&heads, now, timeout, eps, released);
            let actions = scan_step(&mut observed, &heads, &watched, now, timeout, eps);
            let got: Vec<Decision> = actions
                .iter()
                .map(|a| match *a {
                    Action::Defer { key, head, until } => Decision::Defer(key.into(), head, until),
                    Action::Preempt {
                        key,
                        head,
                        expired_lease,
                    } => Decision::Preempt(key.into(), head, expired_lease),
                })
                .collect();
            prop_assert_eq!(&got, &expected, "at {}", now);
            // What `scan_once` does after a successful forced release.
            for a in &actions {
                if let Action::Preempt { key, .. } = *a {
                    if released(key) {
                        observed.remove(key);
                    }
                }
            }
            // The same clocks: a key is observed exactly when the model
            // holds a head for it, and with the model's observation.
            for (key, obs) in &model.watched {
                let headed = obs.head != LockRef::NONE;
                prop_assert_eq!(
                    observed.get(key),
                    headed.then_some(obs),
                    "{} at {}",
                    key,
                    now
                );
            }
            prop_assert!(observed.keys().all(|k| model.watched.contains_key(k)));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn scan_step_decides_as_the_per_key_loop_did(
            initial in proptest::collection::vec(proptest::bool::weighted(0.5), KEYS.len()),
            timeout_ms in 200u64..3_000,
            eps_ms in 0u64..800,
            scans in proptest::collection::vec(scan_case(), 1..40),
        ) {
            check(initial, timeout_ms, eps_ms, scans)?;
        }
    }
}
