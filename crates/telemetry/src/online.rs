//! The checker: the ECF properties plus a replication-aware
//! **lock-queue refinement** check, streamed.
//!
//! [`OnlineChecker`] consumes events **incrementally**, one at a time,
//! holding only per-key state for the keys that are currently *live*, so
//! it rides a recorder through a run of any length — or a live socket
//! cluster — in O(live keys) memory. A stored log is replayed through the
//! same checker ([`check_online`]; [`crate::ecf::check`] keeps its ECF
//! core). Per key it checks two layers:
//!
//! * the Exclusivity / Latest-State rules of [`crate::ecf`];
//! * a **queue refinement** layer, in the spirit of replication-aware
//!   linearizability: every `lockEnqueue` / `lockGrant` / `lockRelease` /
//!   `lockForcedRelease` / `leaseGrant` / `leaseBreak` is validated
//!   against an abstract FIFO-with-preemption queue. This catches
//!   *internal* lockstore anomalies that the end-to-end ECF predicate
//!   can mask through later synchronization: an out-of-order grant, a
//!   re-grant of a reference already collected by a `forcedRelease` (ECF
//!   excuses it as a zombie), or a grant of a reference that was never
//!   minted at all.
//!
//! ## Window semantics & the memory bound
//!
//! Per-key state is **retired** once the key is quiescent (no holder, no
//! in-flight puts, no open references) and has been idle for at least
//! [`OnlineConfig::window_us`]. Retirement forgets the key's pinned true
//! value and deposed set: activity resuming after a full idle window is
//! treated as a fresh first observation. That is the explicit
//! soundness/memory trade — a latest-state violation spanning more than a
//! window of total silence on a key is missed — and it buys O(live keys)
//! memory instead of O(distinct keys). With the default unbounded window
//! nothing is ever retired.
//!
//! ## Sampling
//!
//! [`OnlineConfig::sample_every`] = N checks only keys whose FNV digest
//! is ≡ 0 (mod N). Sampling is whole-key: a checked key sees *all* of
//! its events, so its state machines stay sound; skipped keys cost
//! nothing. This is how `music-load` keeps live coverage over a real
//! socket cluster without tracing every key.

use std::collections::BTreeMap;

use crate::ecf::{EcfKey, EcfReport};
use crate::event::{Event, EventKind};

/// How many closed (released / collected) references per key are kept
/// for validating the late duplicate events that legitimately reference
/// them (retried release re-emissions, zombie grants). Older closed refs
/// are evicted; events touching evicted refs are counted, not judged.
const CLOSED_REFS_KEPT: usize = 64;

/// How often (in events pushed) the retirement sweep runs.
const SWEEP_INTERVAL: u64 = 1024;

/// Configuration of an [`OnlineChecker`].
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Idle time (virtual µs) after which a quiescent key's state is
    /// retired. `u64::MAX` (the default) never retires.
    pub window_us: u64,
    /// Check only keys whose FNV digest is divisible by this. `1` (the
    /// default) checks every key.
    pub sample_every: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window_us: u64::MAX,
            sample_every: 1,
        }
    }
}

impl OnlineConfig {
    /// Unbounded window, every key checked: what [`check_online`] replays
    /// a stored log with.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Retire quiescent keys after `window_us` idle virtual µs.
    pub fn windowed(window_us: u64) -> Self {
        OnlineConfig {
            window_us,
            ..Self::default()
        }
    }

    /// Sets key sampling (see [`OnlineConfig::sample_every`]).
    #[must_use]
    pub fn with_sampling(mut self, sample_every: u64) -> Self {
        self.sample_every = sample_every.max(1);
        self
    }
}

/// Verdict snapshot of an [`OnlineChecker`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OnlineReport {
    /// The ECF core (see [`crate::ecf`]).
    pub ecf: EcfReport,
    /// Lock-queue events validated against the abstract queue model.
    pub queue_checked: u64,
    /// Refinement violations: anomalies of the lock queue itself, which
    /// the end-to-end ECF predicate may not see.
    pub queue_violations: Vec<String>,
    /// Forced releases of references whose mint event was never recorded
    /// (orphan collection by the watchdog — expected, not a violation).
    pub orphan_collections: u64,
    /// Events referencing a closed-and-evicted reference: too old to
    /// judge, counted for visibility.
    pub untracked_ref_events: u64,
    /// Events consumed (including sampled-out ones).
    pub events_seen: u64,
    /// Events skipped by key sampling.
    pub sampled_out: u64,
    /// Keys currently live (holding state) at snapshot time.
    pub keys_live: u64,
    /// High-water mark of simultaneously live keys.
    pub peak_live_keys: u64,
    /// Quiescent keys whose state was retired by the window.
    pub keys_retired: u64,
}

impl OnlineReport {
    /// Whether both the ECF properties and the queue refinement held.
    pub fn ok(&self) -> bool {
        self.ecf.ok() && self.queue_violations.is_empty()
    }

    /// One JSON object on a single line, sharing the ECF field layout
    /// with [`EcfReport::to_json`].
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Obj::new("ecfOnline");
        self.ecf.write_fields(&mut o);
        o.u64("queueChecked", self.queue_checked)
            .str_list("queueViolations", &self.queue_violations)
            .u64("orphanCollections", self.orphan_collections)
            .u64("untrackedRefEvents", self.untracked_ref_events)
            .u64("eventsSeen", self.events_seen)
            .u64("sampledOut", self.sampled_out)
            .u64("keysLive", self.keys_live)
            .u64("peakLiveKeys", self.peak_live_keys)
            .u64("keysRetired", self.keys_retired);
        o.finish()
    }
}

impl std::fmt::Display for OnlineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "online: {} ({}, queue {} checked / {} violations, \
             {} keys live (peak {}), {} retired)",
            if self.ok() { "OK" } else { "VIOLATED" },
            self.ecf,
            self.queue_checked,
            self.queue_violations.len(),
            self.keys_live,
            self.peak_live_keys,
            self.keys_retired
        )
    }
}

/// Abstract-queue view of one lock reference.
#[derive(Clone, Debug, Default)]
struct RefState {
    /// Minted via `lockEnqueue` or `leaseGrant`.
    enqueued: bool,
    /// Minted as a lease and not yet claimed by a grant.
    leased: bool,
    /// Effectively granted at least once.
    granted: bool,
    /// Cleanly released.
    released: bool,
    /// Collected by a `forcedRelease` (or lease break).
    deposed: bool,
}

/// Per-key streaming state: the ECF state plus the abstract queue.
#[derive(Debug, Default)]
struct KeyState {
    /// Exclusivity / Latest-State (see [`crate::ecf`]).
    ecf: EcfKey,
    /// Open references: minted, neither released nor collected yet.
    open: BTreeMap<u64, RefState>,
    /// Recently closed references (bounded; see [`CLOSED_REFS_KEPT`]).
    closed: BTreeMap<u64, RefState>,
    /// Highest closed reference evicted from `closed`.
    evicted_floor: u64,
    /// Highest effectively granted reference.
    max_granted: u64,
    /// Virtual timestamp of the key's most recent event.
    last_at_us: u64,
}

impl KeyState {
    /// Whether the key holds no active obligation: nothing granted,
    /// nothing in flight, no open reference (a held lock, an unclaimed
    /// lease, and a queued waiter all keep the key live).
    fn quiescent(&self) -> bool {
        self.ecf.idle() && self.open.is_empty()
    }

    fn ref_mut(&mut self, r: u64) -> Option<&mut RefState> {
        if let Some(rs) = self.open.get_mut(&r) {
            return Some(rs);
        }
        self.closed.get_mut(&r)
    }

    /// Moves `r` from the open set into the bounded closed buffer.
    fn close_ref(&mut self, r: u64) {
        if let Some(rs) = self.open.remove(&r) {
            self.closed.insert(r, rs);
            while self.closed.len() > CLOSED_REFS_KEPT {
                if let Some((evicted, _)) = self.closed.pop_first() {
                    self.evicted_floor = self.evicted_floor.max(evicted);
                }
            }
        }
    }

    /// Queue-refinement validation of one `lockGrant`.
    fn check_grant(&mut self, rep: &mut OnlineReport, key: &str, r: u64, seq: u64) {
        let max_granted = self.max_granted;
        let Some(rs) = self.ref_mut(r) else {
            if r <= self.evicted_floor {
                rep.untracked_ref_events += 1;
            } else {
                rep.queue_violations.push(format!(
                    "queue: grant of never-enqueued reference {r} on {key:?} at seq {seq}"
                ));
            }
            return;
        };
        if rs.deposed {
            if rs.granted {
                // ECF excuses this as a zombie; the queue model knows the
                // reference was already granted once and then collected —
                // a second grant is a resurrection.
                rep.queue_violations.push(format!(
                    "queue: re-grant of collected reference {r} on {key:?} at seq {seq}"
                ));
            } else {
                // First announcement after the deposal: the legitimate
                // zombie-grant race (acquire round in flight when the
                // forced release landed). Void, benign.
                rs.granted = true;
            }
            return;
        }
        if rs.released {
            rep.queue_violations.push(format!(
                "queue: grant of cleanly released reference {r} on {key:?} at seq {seq}"
            ));
            return;
        }
        if rs.granted {
            return; // duplicate winning poll: benign re-grant
        }
        rs.granted = true;
        rs.leased = false;
        if r < max_granted {
            rep.queue_violations.push(format!(
                "queue: out-of-order grant of {r} on {key:?} at seq {seq} \
                 (a later reference {max_granted} was already granted)"
            ));
        }
        self.max_granted = self.max_granted.max(r);
    }

    /// Queue-refinement validation of one `lockRelease`/`lockForcedRelease`.
    fn check_close(&mut self, rep: &mut OnlineReport, key: &str, r: u64, forced: bool, seq: u64) {
        match self.ref_mut(r) {
            None => {
                if forced {
                    // Orphan collection: the mint's LWT committed but its
                    // coordinator never learned it, so no enqueue event
                    // exists. The watchdog collecting it is expected.
                    rep.orphan_collections += 1;
                    self.open.entry(r).or_default().deposed = true;
                    self.close_ref(r);
                } else if r <= self.evicted_floor {
                    rep.untracked_ref_events += 1;
                } else {
                    rep.queue_violations.push(format!(
                        "queue: release of never-enqueued reference {r} on {key:?} at seq {seq}"
                    ));
                }
            }
            Some(rs) => {
                if forced {
                    rs.deposed = true;
                } else {
                    // A clean release must come from a holder (or be the
                    // voluntary relinquish of an unclaimed lease, or a
                    // retried duplicate of either).
                    if !rs.granted && !rs.leased && !rs.released && !rs.deposed {
                        rep.queue_violations.push(format!(
                            "queue: release of never-granted reference {r} on {key:?} at seq {seq}"
                        ));
                    }
                    rs.released = true;
                }
                self.close_ref(r);
            }
        }
    }
}

/// The streaming checker. Feed events in sequence order via
/// [`OnlineChecker::push`]; snapshot the verdict any time with
/// [`OnlineChecker::report`].
#[derive(Debug, Default)]
pub struct OnlineChecker {
    cfg: OnlineConfig,
    /// The verdict so far; `keys_live` is filled in by [`Self::report`].
    report: OnlineReport,
    keys: BTreeMap<String, KeyState>,
    last_seq: Option<u64>,
    now_us: u64,
}

impl OnlineChecker {
    /// A checker with the given window/sampling configuration.
    pub fn new(cfg: OnlineConfig) -> Self {
        OnlineChecker {
            cfg,
            ..Self::default()
        }
    }

    /// Number of keys currently holding state (the memory bound is
    /// proportional to this, not to events consumed).
    pub fn live_keys(&self) -> usize {
        self.keys.len()
    }

    /// Snapshot of the verdict so far.
    pub fn report(&self) -> OnlineReport {
        OnlineReport {
            keys_live: self.keys.len() as u64,
            ..self.report.clone()
        }
    }

    /// Consumes one event. Events must arrive in assigned sequence order
    /// (the recorder guarantees this; a replayed log is already sorted).
    pub fn push(&mut self, e: &Event) {
        self.report.events_seen += 1;
        self.now_us = self.now_us.max(e.at_us);
        if let Some(prev) = self.last_seq {
            if e.seq <= prev {
                self.report
                    .ecf
                    .violations
                    .push(format!("seq order broken: {} after {prev}", e.seq));
            }
        }
        self.last_seq = Some(e.seq);

        if let Some(key) = event_key(&e.kind) {
            if self.cfg.sample_every > 1
                && !crate::digest(key.as_bytes()).is_multiple_of(self.cfg.sample_every)
            {
                self.report.sampled_out += 1;
            } else {
                self.consume(key, e);
            }
        }

        if self.cfg.window_us != u64::MAX && self.report.events_seen.is_multiple_of(SWEEP_INTERVAL)
        {
            self.sweep();
        }
    }

    /// Retires quiescent keys idle for at least one window.
    fn sweep(&mut self) {
        let window = self.cfg.window_us;
        let now = self.now_us;
        let mut retired = 0u64;
        self.keys.retain(|_, st| {
            let retire = st.quiescent() && now.saturating_sub(st.last_at_us) >= window;
            if retire {
                retired += 1;
            }
            !retire
        });
        self.report.keys_retired += retired;
    }

    /// Applies one event to `key`'s state, allocating that state (and its
    /// key string) only when the key is first seen.
    fn consume(&mut self, key: &str, e: &Event) {
        let st = match self.keys.get_mut(key) {
            Some(st) => st,
            None => {
                let live = self.keys.len() as u64 + 1;
                self.report.peak_live_keys = self.report.peak_live_keys.max(live);
                self.keys.entry(key.to_owned()).or_default()
            }
        };
        st.last_at_us = st.last_at_us.max(e.at_us);
        let rep = &mut self.report;
        match &e.kind {
            EventKind::LockEnqueue { lock_ref, .. } => {
                rep.queue_checked += 1;
                st.open.entry(*lock_ref).or_default().enqueued = true;
            }
            EventKind::LeaseGrant { lock_ref, .. } => {
                rep.queue_checked += 1;
                match st.ref_mut(*lock_ref) {
                    // A retried release LWT can adopt and re-announce the
                    // same lease row, and a competitor can break a lease
                    // (seen here as an orphan collection) before the LWT
                    // that minted it returns to announce it. Only
                    // re-minting a reference that already progressed past
                    // "unclaimed lease" is an anomaly.
                    Some(rs) if rs.granted || rs.released || (rs.deposed && rs.enqueued) => {
                        rep.queue_violations.push(format!(
                            "queue: lease mint of existing reference {lock_ref} on {key:?} \
                             at seq {}",
                            e.seq
                        ));
                    }
                    Some(rs) => rs.enqueued = true,
                    None => {
                        let rs = st.open.entry(*lock_ref).or_default();
                        rs.enqueued = true;
                        rs.leased = true;
                    }
                }
            }
            EventKind::LeaseBreak { lock_ref, .. } => {
                // Bookkeeping only: the deposal is carried by the
                // accompanying forcedRelease event.
                if let Some(rs) = st.ref_mut(*lock_ref) {
                    rs.leased = false;
                }
            }
            EventKind::LockGrant { lock_ref, .. } => {
                rep.queue_checked += 1;
                st.check_grant(rep, key, *lock_ref, e.seq);
            }
            EventKind::LockRelease { lock_ref, .. }
            | EventKind::LockForcedRelease { lock_ref, .. } => {
                rep.queue_checked += 1;
                let forced = matches!(e.kind, EventKind::LockForcedRelease { .. });
                st.check_close(rep, key, *lock_ref, forced, e.seq);
            }
            _ => {}
        }
        st.ecf.apply(&mut rep.ecf, key, e);
    }
}

/// The key an event is about, if any.
fn event_key(kind: &EventKind) -> Option<&str> {
    match kind {
        EventKind::LockEnqueue { key, .. }
        | EventKind::LockGrant { key, .. }
        | EventKind::LockRelease { key, .. }
        | EventKind::LockForcedRelease { key, .. }
        | EventKind::LeaseGrant { key, .. }
        | EventKind::LeaseBreak { key, .. }
        | EventKind::WatchdogPreempt { key, .. }
        | EventKind::CritPutStart { key, .. }
        | EventKind::CritPutAck { key, .. }
        | EventKind::CritGet { key, .. }
        | EventKind::SynchMark { key, .. } => Some(key),
        _ => None,
    }
}

/// Replays a full event log through a fresh unbounded [`OnlineChecker`].
pub fn check_online(events: &[Event]) -> OnlineReport {
    let mut c = OnlineChecker::new(OnlineConfig::unbounded());
    for e in events {
        c.push(e);
    }
    c.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceId;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            at_us: seq * 10,
            trace: TraceId::default(),
            node: 0,
            kind,
        }
    }

    fn enqueue(seq: u64, r: u64) -> Event {
        ev(
            seq,
            EventKind::LockEnqueue {
                key: "k".into(),
                lock_ref: r,
            },
        )
    }

    fn grant(seq: u64, r: u64) -> Event {
        ev(
            seq,
            EventKind::LockGrant {
                key: "k".into(),
                lock_ref: r,
            },
        )
    }

    fn release(seq: u64, r: u64) -> Event {
        ev(
            seq,
            EventKind::LockRelease {
                key: "k".into(),
                lock_ref: r,
            },
        )
    }

    fn forced(seq: u64, r: u64) -> Event {
        ev(
            seq,
            EventKind::LockForcedRelease {
                key: "k".into(),
                lock_ref: r,
            },
        )
    }

    fn get(seq: u64, r: u64, d: Option<u64>) -> Event {
        ev(
            seq,
            EventKind::CritGet {
                key: "k".into(),
                lock_ref: r,
                digest: d,
            },
        )
    }

    /// One clean section on `key` with reference `r`; returns the next seq.
    fn section(events: &mut Vec<Event>, key: &str, mut seq: u64, r: u64) -> u64 {
        for kind in [
            EventKind::LockEnqueue {
                key: key.into(),
                lock_ref: r,
            },
            EventKind::LockGrant {
                key: key.into(),
                lock_ref: r,
            },
            EventKind::CritGet {
                key: key.into(),
                lock_ref: r,
                digest: None,
            },
            EventKind::LockRelease {
                key: key.into(),
                lock_ref: r,
            },
        ] {
            events.push(ev(seq, kind));
            seq += 1;
        }
        seq
    }

    #[test]
    fn clean_trace_passes_both_layers() {
        let mut events = Vec::new();
        let seq = section(&mut events, "k", 0, 1);
        section(&mut events, "k", seq, 2);
        let r = check_online(&events);
        assert!(r.ok(), "{:?} {:?}", r.ecf.violations, r.queue_violations);
        assert_eq!(r.queue_checked, 6); // enqueue+grant+release per section
    }

    #[test]
    fn out_of_order_grant_is_a_queue_violation_ecf_passes() {
        // Refs 1..3 all minted; the queue grants 1, then 3, then 2 —
        // FIFO refinement broken, yet every grant lands on an idle lock
        // so the end-to-end ECF predicate sees nothing.
        let trace = [
            enqueue(0, 1),
            enqueue(1, 2),
            enqueue(2, 3),
            grant(3, 1),
            release(4, 1),
            grant(5, 3),
            release(6, 3),
            grant(7, 2),
            release(8, 2),
        ];
        let r = check_online(&trace);
        assert!(r.ecf.ok());
        assert!(!r.ok());
        assert!(
            r.queue_violations[0].contains("out-of-order grant of 2"),
            "{:?}",
            r.queue_violations
        );
    }

    #[test]
    fn regrant_after_forced_release_is_a_queue_violation_ecf_passes() {
        // Reference 1 was granted, collected by the failure detector,
        // then granted AGAIN: ECF excuses the second grant as a zombie,
        // but the queue model knows 1 already held — a tombstoned row was
        // resurrected.
        let trace = [
            enqueue(0, 1),
            grant(1, 1),
            forced(2, 1),
            enqueue(3, 2),
            grant(4, 2),
            release(5, 2),
            grant(6, 1),
        ];
        let r = check_online(&trace);
        assert!(r.ecf.ok(), "{:?}", r.ecf.violations);
        assert_eq!(r.ecf.zombie_grants, 1);
        assert!(!r.ok());
        assert!(
            r.queue_violations[0].contains("re-grant of collected reference 1"),
            "{:?}",
            r.queue_violations
        );
    }

    #[test]
    fn grant_after_clean_release_is_a_queue_violation_ecf_passes() {
        let mut trace = Vec::new();
        let seq = section(&mut trace, "k", 0, 1);
        let seq = section(&mut trace, "k", seq, 2);
        trace.push(grant(seq, 1)); // resurrect the released ref
        let r = check_online(&trace);
        assert!(r.ecf.ok());
        assert!(!r.ok());
        assert!(
            r.queue_violations[0].contains("grant of cleanly released reference 1"),
            "{:?}",
            r.queue_violations
        );
    }

    #[test]
    fn grant_of_unminted_reference_is_a_queue_violation() {
        let trace = [enqueue(0, 1), grant(1, 1), release(2, 1), grant(3, 7)];
        let r = check_online(&trace);
        assert!(r.ecf.ok());
        assert!(!r.ok());
        assert!(
            r.queue_violations[0].contains("never-enqueued reference 7"),
            "{:?}",
            r.queue_violations
        );
    }

    #[test]
    fn zombie_first_grant_and_orphan_collection_are_benign() {
        // forcedRelease lands first (emitted at the abdication point),
        // the in-flight acquire announces afterwards: benign. A forced
        // release of a reference never minted in the trace is orphan
        // collection: benign too.
        let trace = [
            enqueue(0, 1),
            forced(1, 1),
            grant(2, 1),   // zombie first announcement
            forced(3, 99), // orphan collection
            enqueue(4, 2),
            grant(5, 2),
            release(6, 2),
        ];
        let r = check_online(&trace);
        assert!(r.ok(), "{:?} {:?}", r.ecf.violations, r.queue_violations);
        assert_eq!(r.orphan_collections, 1);
        assert_eq!(r.ecf.zombie_grants, 1);
    }

    #[test]
    fn lease_lifecycle_is_modeled() {
        let lease = |seq, r| {
            ev(
                seq,
                EventKind::LeaseGrant {
                    key: "k".into(),
                    lock_ref: r,
                    until_us: 1_000_000,
                },
            )
        };
        // Mint → claim → clean release: fine. Duplicate mint of the
        // unclaimed lease (retried release LWT): fine. Relinquish of an
        // unclaimed lease (release without grant): fine. A competitor's
        // break recorded before the minting LWT returned: fine.
        let trace = [
            enqueue(0, 1),
            grant(1, 1),
            release(2, 1),
            lease(3, 2),
            lease(4, 2),
            grant(5, 2),
            release(6, 2),
            lease(7, 3),
            release(8, 3), // voluntary relinquish, never claimed
            forced(9, 4),  // the break of lease 4 ...
            lease(10, 4),  // ... announced before its mint
        ];
        let r = check_online(&trace);
        assert!(r.ok(), "{:?} {:?}", r.ecf.violations, r.queue_violations);

        // Re-minting a lease over a reference that already progressed is
        // an anomaly: a released one, or a collected one whose mint was
        // already announced.
        for (bad, r) in [
            (
                vec![enqueue(0, 1), grant(1, 1), release(2, 1), lease(3, 1)],
                1,
            ),
            (vec![lease(0, 2), forced(1, 2), lease(2, 2)], 2),
            (vec![forced(0, 3), lease(1, 3), lease(2, 3)], 3),
        ] {
            let report = check_online(&bad);
            assert!(
                report.queue_violations[0]
                    .contains(&format!("lease mint of existing reference {r}")),
                "{:?}",
                report.queue_violations
            );
        }
    }

    #[test]
    fn release_of_never_granted_reference_is_flagged() {
        let trace = [enqueue(0, 1), enqueue(1, 2), grant(2, 1), release(3, 2)];
        let r = check_online(&trace);
        assert!(
            r.queue_violations[0].contains("release of never-granted reference 2"),
            "{:?}",
            r.queue_violations
        );
    }

    #[test]
    fn windowed_checker_retires_quiescent_keys() {
        let mut c = OnlineChecker::new(OnlineConfig::windowed(1_000));
        let total_keys = 100 * SWEEP_INTERVAL / 4; // many distinct keys
        let mut seq = 0u64;
        for k in 0..total_keys {
            let key = format!("key-{k}");
            let mut events = Vec::new();
            seq = section(&mut events, &key, seq, 1);
            for e in &events {
                c.push(e);
            }
        }
        let r = c.report();
        assert!(r.ok(), "{:?} {:?}", r.ecf.violations, r.queue_violations);
        assert!(r.keys_retired > 0);
        assert!(
            c.live_keys() as u64 <= 2 * SWEEP_INTERVAL,
            "live {} for {} keys",
            c.live_keys(),
            total_keys
        );
    }

    #[test]
    fn held_keys_survive_the_window() {
        let mut c = OnlineChecker::new(OnlineConfig::windowed(10));
        c.push(&enqueue(0, 1));
        c.push(&grant(1, 1));
        // Spin far past the window on another key; "k" stays held.
        let mut seq = 2;
        for k in 0..3 * SWEEP_INTERVAL {
            let key = format!("other-{k}");
            let mut events = Vec::new();
            seq = section(&mut events, &key, seq, 1);
            for e in &mut events {
                e.at_us = 1_000_000 + e.seq;
                c.push(e);
            }
        }
        // The holder read on "k" is still checked against live state.
        let mut late = get(seq, 1, None);
        late.at_us = 10_000_000;
        c.push(&late);
        let r = c.report();
        assert!(r.ok(), "{:?}", r.ecf.violations);
        assert_eq!(r.ecf.reads_checked, 1 + 3 * SWEEP_INTERVAL);
        assert!(r.keys_retired > 0);
    }

    #[test]
    fn sampling_skips_whole_keys_deterministically() {
        let mut c = OnlineChecker::new(OnlineConfig::unbounded().with_sampling(2));
        let mut seq = 0;
        let mut checked_keys = 0u64;
        for k in 0..32 {
            let key = format!("key-{k}");
            if crate::digest(key.as_bytes()).is_multiple_of(2) {
                checked_keys += 1;
            }
            let mut events = Vec::new();
            seq = section(&mut events, &key, seq, 1);
            for e in &events {
                c.push(e);
            }
        }
        let r = c.report();
        assert!(r.ok());
        assert!(checked_keys > 0 && checked_keys < 32, "digest split");
        assert_eq!(r.queue_checked, checked_keys * 3);
        assert_eq!(r.sampled_out, (32 - checked_keys) * 4);
    }

    #[test]
    fn report_json_shares_the_ecf_field_layout() {
        let r = check_online(&[grant(0, 1), release(1, 1)]);
        let json = r.to_json();
        assert!(
            json.starts_with("{\"kind\":\"ecfOnline\",\"ok\":"),
            "{json}"
        );
        assert!(json.contains("\"grants\":1"), "{json}");
        assert!(json.contains("\"queueChecked\":"), "{json}");
        assert!(json.ends_with("}"), "{json}");
    }
}
