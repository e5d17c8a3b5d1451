//! The ECF properties (§IV of the paper) as per-key transitions.
//!
//! [`EcfKey`] holds one key's state and [`EcfKey::apply`] is its
//! transition function. The streaming checker ([`crate::online`]) embeds
//! one per live key; [`check`] replays a recorded event log through it.
//! Per key, the rules are:
//!
//! * **Exclusivity** — lock grants never overlap: between a
//!   `lockGrant(r)` and the matching `lockRelease`/`lockForcedRelease`,
//!   no other reference is granted; and every successful critical read
//!   was issued by the reference holding the lock at that instant.
//! * **Latest-State** — every `critGet` by the holder returns the *true
//!   value*: the digest of the most recent quorum-acknowledged
//!   `critPutAck`, refined (as the paper refines it, §IV-B) when the
//!   previous holder was forcibly released mid-put: a put that was
//!   started but never acknowledged before the preemption **may** be
//!   what the next holder reads, because the resynchronization rewrite
//!   pins whichever value the grant-time quorum read observed.
//!
//! The checker is deliberately conservative about acknowledged writes
//! from *preempted* holders (the false-failure-detection case): such
//! acks are counted as `stale_put_acks`, not violations — MUSIC's
//! `v2s` stamping makes them invisible rather than impossible, so a
//! correct run can contain them. A holder's read is the authoritative
//! observation that collapses the acceptable set back to one value.
//!
//! The same reasoning extends to the other two acts a preempted-but-alive
//! reference can still perform (§IV-B permits all of them transiently,
//! because the local lock peek is eventual by design, §IV-A):
//!
//! * a **zombie grant** — an `acquireLock` round that was already in
//!   flight when the forced release landed announces `lockGrant` *after*
//!   the `lockForcedRelease`. The reference's entitlement is formally
//!   dead (the covering `synchFlag` stamp dominates anything it writes),
//!   so the grant is void: counted as `zombie_grants`, it does not
//!   reinstate holdership and does not overlap the successor's grant;
//! * a **stale read** — a `critGet` whose guard passed before the
//!   preemption but whose quorum read completed after it. Counted as
//!   `stale_reads`; its value is not checked (read-only, and the client
//!   will learn `youAreNoLongerLockHolder` on its next guarded act).
//!
//! Both remain violations for references that were *never* force-released:
//! a grant overlapping a live holder, or a read by a reference that never
//! held (or cleanly released) the lock, is a genuine exclusivity breach.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{Event, EventKind};

/// The ECF verdict: the core of every [`crate::OnlineReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EcfReport {
    /// Violations found (empty iff `ok`).
    pub violations: Vec<String>,
    /// Lock grants checked for overlap.
    pub grants: u64,
    /// Critical reads whose value was verified.
    pub reads_checked: u64,
    /// Critical put acks observed from the current holder.
    pub put_acks: u64,
    /// Put acks from a reference that no longer held the lock (allowed:
    /// their stamps are dominated, §IV-B).
    pub stale_put_acks: u64,
    /// Forced releases observed.
    pub forced_releases: u64,
    /// Grants announced for a reference *after* its forced release (an
    /// acquire round that raced the failure detector): void, not an
    /// overlap. See the module docs.
    pub zombie_grants: u64,
    /// Critical reads that completed after their reference was forcibly
    /// released: allowed transiently, value unchecked.
    pub stale_reads: u64,
}

impl EcfReport {
    /// Whether both ECF properties held over the whole trace.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One JSON object on a single line, e.g.
    /// `{"kind":"ecf","ok":true,"grants":3,...,"violations":[]}`.
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Obj::new("ecf");
        self.write_fields(&mut o);
        o.finish()
    }

    /// Writes this report's fields into `o` (shared with the online
    /// report, which embeds the same ECF core under the same field names).
    pub(crate) fn write_fields(&self, o: &mut crate::json::Obj) {
        o.bool("ok", self.ok())
            .u64("grants", self.grants)
            .u64("readsChecked", self.reads_checked)
            .u64("putAcks", self.put_acks)
            .u64("stalePutAcks", self.stale_put_acks)
            .u64("forcedReleases", self.forced_releases)
            .u64("zombieGrants", self.zombie_grants)
            .u64("staleReads", self.stale_reads)
            .str_list("violations", &self.violations);
    }
}

impl std::fmt::Display for EcfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ecf: {} ({} grants ({} zombie), {} reads checked ({} stale), \
             {} put acks ({} stale), {} forced releases",
            if self.ok() { "OK" } else { "VIOLATED" },
            self.grants,
            self.zombie_grants,
            self.reads_checked,
            self.stale_reads,
            self.put_acks,
            self.stale_put_acks,
            self.forced_releases
        )?;
        if !self.ok() {
            write!(f, "; {} violations", self.violations.len())?;
        }
        write!(f, ")")
    }
}

/// One key's ECF state.
#[derive(Debug, Default)]
pub(crate) struct EcfKey {
    /// Reference currently holding the lock, if any.
    holder: Option<u64>,
    /// Digest of the authoritative ("true") value once one is known.
    /// `Some(None)` = the key is known absent; `None` = not yet pinned.
    true_value: Option<Option<u64>>,
    /// Issue order of the pinned put, when the pin came from an ack.
    /// Pipelined acks can arrive out of issue order; the store's
    /// last-write-wins value is the latest-*stamped* (= latest-issued)
    /// write, so a late ack of an earlier put must not steal the pin.
    true_order: Option<u64>,
    /// Digests that may legitimately be observed instead of
    /// `true_value`: writes in flight when their writer lost the lock,
    /// plus dominated acks (see module docs).
    acceptable: BTreeSet<u64>,
    /// Un-acknowledged puts per reference, as `(issue order, digest)` in
    /// issue order.
    in_flight: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Next issue-order number for this key.
    next_order: u64,
    /// References that have been forcibly released; their late grants and
    /// reads are void/stale rather than violations (see module docs).
    deposed: BTreeSet<u64>,
}

impl EcfKey {
    /// Whether nobody holds the lock and no put is in flight.
    pub(crate) fn idle(&self) -> bool {
        self.holder.is_none() && self.in_flight.values().all(Vec::is_empty)
    }

    /// Applies `e`, an event on `key`, accumulating into `report`. Events
    /// that carry no ECF meaning are ignored.
    pub(crate) fn apply(&mut self, report: &mut EcfReport, key: &str, e: &Event) {
        match &e.kind {
            EventKind::LockGrant { lock_ref, .. } => {
                // A grant announced after the reference's forced release is
                // the zombie-grant race: void, not a reinstatement.
                if self.deposed.contains(lock_ref) {
                    report.zombie_grants += 1;
                    return;
                }
                report.grants += 1;
                // Re-granting the reference that already holds the lock is
                // a duplicate winning poll, not an overlap.
                if let Some(holder) = self.holder {
                    if holder != *lock_ref {
                        report.violations.push(format!(
                            "exclusivity: grant of {lock_ref} on {key:?} at seq {} \
                             while {holder} still holds the lock",
                            e.seq
                        ));
                    }
                }
                self.holder = Some(*lock_ref);
            }
            EventKind::LockRelease { lock_ref, .. }
            | EventKind::LockForcedRelease { lock_ref, .. } => {
                if matches!(e.kind, EventKind::LockForcedRelease { .. }) {
                    report.forced_releases += 1;
                    self.deposed.insert(*lock_ref);
                }
                if self.holder == Some(*lock_ref) {
                    self.holder = None;
                }
                // Whatever this reference still had in flight may have
                // landed (and may be pinned by the next grant's
                // resynchronization): keep those digests acceptable.
                if let Some(pending) = self.in_flight.remove(lock_ref) {
                    self.acceptable.extend(pending.into_iter().map(|(_, d)| d));
                }
            }
            EventKind::CritPutStart {
                lock_ref, digest, ..
            } => {
                let order = self.next_order;
                self.next_order += 1;
                self.in_flight
                    .entry(*lock_ref)
                    .or_default()
                    .push((order, *digest));
            }
            EventKind::CritPutAck {
                lock_ref, digest, ..
            } => {
                // Match the ack to its start; an ack without a recorded
                // start (degenerate traces) counts as the newest issue.
                let fl = self.in_flight.entry(*lock_ref).or_default();
                let order = match fl.iter().position(|&(_, d)| d == *digest) {
                    Some(i) => fl.remove(i).0,
                    None => {
                        self.next_order += 1;
                        self.next_order - 1
                    }
                };
                if self.holder == Some(*lock_ref) {
                    report.put_acks += 1;
                    // Acknowledged by the current holder: the new true
                    // value — unless a *later-issued* (higher-stamped) put
                    // already acked, in which case this late ack is
                    // dominated under last-write-wins and changes nothing.
                    if self.true_order.is_none_or(|pinned| order >= pinned) {
                        self.true_value = Some(Some(*digest));
                        self.true_order = Some(order);
                        self.acceptable.clear();
                    }
                } else {
                    // Ack from a preempted holder: dominated, not the
                    // true value — but a grant-time resynchronization may
                    // still pin it, so it stays acceptable.
                    report.stale_put_acks += 1;
                    self.acceptable.insert(*digest);
                }
            }
            EventKind::CritGet {
                lock_ref, digest, ..
            } => {
                if self.holder != Some(*lock_ref) {
                    // A deposed reference's read that completed after its
                    // forced release: transiently allowed, value unchecked.
                    if self.deposed.contains(lock_ref) {
                        report.stale_reads += 1;
                    } else {
                        report.violations.push(format!(
                            "exclusivity: critical read on {key:?} at seq {} by {lock_ref}, \
                             which does not hold the lock (holder: {:?})",
                            e.seq, self.holder
                        ));
                    }
                    return;
                }
                report.reads_checked += 1;
                let observed = *digest;
                let acceptable = match self.true_value {
                    None => true, // nothing pinned yet: first observation
                    Some(t) => {
                        observed == t || observed.is_some_and(|d| self.acceptable.contains(&d))
                    }
                };
                if acceptable {
                    // The holder's read fixes the true value (Latest-State:
                    // what it saw is what subsequent holders must build on).
                    self.true_value = Some(observed);
                    self.true_order = None;
                    self.acceptable.clear();
                } else {
                    report.violations.push(format!(
                        "latest-state: critical read on {key:?} at seq {} returned \
                         {observed:016x?}, expected {:016x?} (or one of {} pending)",
                        e.seq,
                        self.true_value.unwrap(),
                        self.acceptable.len()
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Replays `events` (in slice order, which must be seq order) and checks
/// the ECF properties: the ECF core of [`crate::online::check_online`].
pub fn check(events: &[Event]) -> EcfReport {
    crate::online::check_online(events).ecf
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

    fn put_ack(seq: u64, r: u64, d: u64) -> Event {
        ev(
            seq,
            EventKind::CritPutAck {
                key: "k".into(),
                lock_ref: r,
                digest: d,
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

    #[test]
    fn clean_handoff_passes() {
        let trace = [
            grant(0, 1),
            get(1, 1, None),
            put_ack(2, 1, 0xa),
            release(3, 1),
            grant(4, 2),
            get(5, 2, Some(0xa)),
            put_ack(6, 2, 0xb),
            get(7, 2, Some(0xb)),
            release(8, 2),
        ];
        let r = check(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.grants, 2);
        assert_eq!(r.reads_checked, 3);
    }

    #[test]
    fn overlapping_grants_are_flagged() {
        let trace = [grant(0, 1), grant(1, 2)];
        let r = check(&trace);
        assert!(!r.ok());
        assert!(r.violations[0].contains("exclusivity"));
    }

    #[test]
    fn regrant_of_the_same_reference_is_benign() {
        // Duplicate winning poll: acquireLock returned Acquired twice for
        // the same reference before the holder proceeded.
        let trace = [grant(0, 1), grant(1, 1), release(2, 1)];
        let r = check(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.grants, 2);
    }

    #[test]
    fn stale_read_of_old_value_is_flagged() {
        let trace = [
            grant(0, 1),
            get(1, 1, None),
            put_ack(2, 1, 0xa),
            release(3, 1),
            grant(4, 2),
            get(5, 2, None), // lost the acknowledged write
        ];
        let r = check(&trace);
        assert!(!r.ok());
        assert!(r.violations[0].contains("latest-state"));
    }

    #[test]
    fn mid_put_preemption_accepts_either_value() {
        let put_start = ev(
            2,
            EventKind::CritPutStart {
                key: "k".into(),
                lock_ref: 1,
                digest: 0xb,
            },
        );
        let forced = ev(
            3,
            EventKind::LockForcedRelease {
                key: "k".into(),
                lock_ref: 1,
            },
        );
        // The dying holder's put may or may not have landed: both the old
        // acknowledged value and the in-flight one are acceptable.
        for observed in [Some(0xa), Some(0xb)] {
            let trace = [
                grant(0, 1),
                put_ack(1, 1, 0xa),
                put_start.clone(),
                forced.clone(),
                grant(4, 2),
                get(5, 2, observed),
            ];
            let r = check(&trace);
            assert!(r.ok(), "observed {observed:?}: {:?}", r.violations);
            assert_eq!(r.forced_releases, 1);
        }
        // ... but a third value nobody wrote is a violation.
        let trace = [
            grant(0, 1),
            put_ack(1, 1, 0xa),
            put_start,
            forced,
            grant(4, 2),
            get(5, 2, Some(0xc)),
        ];
        assert!(!check(&trace).ok());
    }

    #[test]
    fn read_collapses_the_acceptable_set() {
        let trace = [
            grant(0, 1),
            put_ack(1, 1, 0xa),
            ev(
                2,
                EventKind::CritPutStart {
                    key: "k".into(),
                    lock_ref: 1,
                    digest: 0xb,
                },
            ),
            ev(
                3,
                EventKind::LockForcedRelease {
                    key: "k".into(),
                    lock_ref: 1,
                },
            ),
            grant(4, 2),
            get(5, 2, Some(0xa)), // holder observed the old value: pinned
            get(6, 2, Some(0xb)), // ...so the in-flight one is now wrong
        ];
        let r = check(&trace);
        assert!(!r.ok());
    }

    #[test]
    fn non_holder_read_is_flagged() {
        let trace = [grant(0, 1), get(1, 2, None)];
        let r = check(&trace);
        assert!(!r.ok());
        assert!(r.violations[0].contains("does not hold"));
    }

    #[test]
    fn stale_ack_is_counted_not_flagged() {
        let trace = [
            grant(0, 1),
            ev(
                1,
                EventKind::LockForcedRelease {
                    key: "k".into(),
                    lock_ref: 1,
                },
            ),
            put_ack(2, 1, 0xd), // preempted holder's write still acked
            grant(3, 2),
            get(4, 2, Some(0xd)), // resynchronization pinned it: fine
        ];
        let r = check(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.stale_put_acks, 1);
    }

    #[test]
    fn seq_regression_is_flagged() {
        let trace = [grant(5, 1), release(3, 1)];
        assert!(!check(&trace).ok());
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

    #[test]
    fn zombie_grant_after_forced_release_is_void() {
        // Reference 1's acquire round was in flight when the watchdog
        // preempted it; its grant lands after the forcedRelease. It must
        // not reinstate holdership — the successor's grant is legitimate.
        let trace = [
            grant(0, 1),
            forced(1, 1),
            grant(2, 1), // zombie
            grant(3, 2),
            release(4, 2),
        ];
        let r = check(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.zombie_grants, 1);
        assert_eq!(r.grants, 2, "zombie grants are not counted as grants");
        let json = r.to_json();
        assert!(json.contains("\"zombieGrants\":1"), "{json}");
    }

    #[test]
    fn zombie_grant_does_not_excuse_a_genuine_overlap() {
        // Reference 3 was never force-released: granting it over a live
        // holder stays a violation even amid zombie traffic.
        let trace = [grant(0, 1), forced(1, 1), grant(2, 2), grant(3, 3)];
        let r = check(&trace);
        assert!(!r.ok());
        assert!(r.violations[0].contains("grant of 3"));
    }

    #[test]
    fn deposed_reference_read_is_counted_not_flagged() {
        // The guard passed before the preemption; the quorum read
        // completed after it. Transiently allowed, value unchecked.
        let trace = [
            grant(0, 1),
            put_ack(1, 1, 0xa),
            forced(2, 1),
            get(3, 1, Some(0xa)),
            grant(4, 2),
            get(5, 2, Some(0xa)),
        ];
        let r = check(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.stale_reads, 1);
        assert_eq!(r.reads_checked, 1, "only the holder's read is checked");
        assert!(r.to_json().contains("\"staleReads\":1"));
    }

    #[test]
    fn cleanly_released_reference_read_is_still_flagged() {
        // A clean releaser knows it released: reading afterwards is a
        // client bug, not a failure-detection race.
        let trace = [grant(0, 1), release(1, 1), get(2, 1, None)];
        let r = check(&trace);
        assert!(!r.ok());
        assert!(r.violations[0].contains("does not hold"));
    }

    fn put_start(seq: u64, r: u64, d: u64) -> Event {
        ev(
            seq,
            EventKind::CritPutStart {
                key: "k".into(),
                lock_ref: r,
                digest: d,
            },
        )
    }

    #[test]
    fn out_of_order_acks_pin_the_latest_issued_write() {
        // Pipelined holder: two puts in flight, acks arrive inverted.
        // Last-write-wins is decided by issue (stamp) order, so the true
        // value is 0xb even though 0xa acked last.
        let trace = [
            grant(0, 1),
            put_start(1, 1, 0xa),
            put_start(2, 1, 0xb),
            put_ack(3, 1, 0xb),
            put_ack(4, 1, 0xa), // late ack of the earlier put: dominated
            get(5, 1, Some(0xb)),
            release(6, 1),
            grant(7, 2),
            get(8, 2, Some(0xb)),
        ];
        let r = check(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.put_acks, 2);

        // Reading the dominated value instead is a violation.
        let bad = [
            grant(0, 1),
            put_start(1, 1, 0xa),
            put_start(2, 1, 0xb),
            put_ack(3, 1, 0xb),
            put_ack(4, 1, 0xa),
            get(5, 1, Some(0xa)),
        ];
        assert!(!check(&bad).ok());
    }

    #[test]
    fn pipelined_crash_leaves_every_in_flight_write_acceptable() {
        // A pipelined holder dies with several writes in flight; the next
        // holder may observe any of them (or the last acknowledged value).
        let forced = ev(
            5,
            EventKind::LockForcedRelease {
                key: "k".into(),
                lock_ref: 1,
            },
        );
        for observed in [Some(0xa), Some(0xb), Some(0xc)] {
            let trace = [
                grant(0, 1),
                put_ack(1, 1, 0xa),
                put_start(2, 1, 0xb),
                put_start(3, 1, 0xc),
                forced.clone(),
                grant(6, 2),
                get(7, 2, observed),
            ];
            let r = check(&trace);
            assert!(r.ok(), "observed {observed:?}: {:?}", r.violations);
        }
    }
}
