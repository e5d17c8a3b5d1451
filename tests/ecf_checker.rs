//! End-to-end acceptance of the checker: genuine chaos runs — lockholder
//! crash mid-`criticalPut`, watchdog preemption, site partitions, the
//! lease lifecycle — produce traces both layers (ECF and the lock-queue
//! refinement) accept, while deliberate corruptions of the same traces
//! are flagged by the layer that owns them. `tests/differential.rs`
//! checks that the verdict does not depend on how the checker is fed.

use music_repro::telemetry::{
    check, check_online, digest, Event, EventKind, OnlineChecker, OnlineConfig, Recorder,
};
use music_repro::trace::run_chaos;
use music_simnet::prelude::*;

fn chaos_events(seed: u64) -> Vec<Event> {
    run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing()).events
}

#[test]
fn chaos_trace_satisfies_ecf() {
    let run = run_chaos(LatencyProfile::one_us(), 7, Recorder::tracing());
    let report = &run.report;
    assert!(
        report.ok(),
        "chaos run violated the checker: {}",
        report.to_json()
    );
    // The interesting machinery actually engaged.
    assert!(report.ecf.grants >= 4, "expected >= 4 grants");
    assert!(report.ecf.forced_releases >= 1, "watchdog never preempted");
    assert!(report.ecf.reads_checked >= 2, "no critical reads checked");
    assert!(report.queue_checked > 0, "queue layer idle");
}

/// The kind of the last holder read in `events`.
fn last_read(events: &mut [Event]) -> &mut EventKind {
    &mut events
        .iter_mut()
        .rfind(|e| matches!(e.kind, EventKind::CritGet { .. }))
        .expect("trace has a criticalGet")
        .kind
}

#[test]
fn corrupted_read_digest_is_flagged() {
    let mut events = chaos_events(7);
    // The last holder read: by then a put has been acknowledged, so the
    // true value is pinned and the read cannot be any acceptable write.
    // (The very first read of a key is a free first observation.)
    if let EventKind::CritGet { digest, .. } = last_read(&mut events) {
        *digest = Some(digest.map_or(1, |d| d ^ 0xDEAD_BEEF));
    }
    let report = check(&events);
    assert!(!report.ok(), "corrupted read digest went unnoticed");
    assert!(
        report.violations.iter().any(|v| v.contains("latest-state")),
        "expected a latest-state violation, got {:?}",
        report.violations
    );
}

#[test]
fn overlapping_grant_is_flagged() {
    let mut events = chaos_events(7);
    // Inject a grant of a *different* reference right after an existing
    // grant, while that holder is still in its critical section.
    let i = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::LockGrant { .. }))
        .expect("trace has a lockGrant");
    let mut forged = events[i].clone();
    if let EventKind::LockGrant { lock_ref, .. } = &mut forged.kind {
        *lock_ref ^= 0xBAD;
    }
    forged.seq += 1;
    events.insert(i + 1, forged);
    let report = check(&events);
    assert!(!report.ok(), "overlapping grant went unnoticed");
    assert!(
        report.violations.iter().any(|v| v.contains("exclusivity")),
        "expected an exclusivity violation, got {:?}",
        report.violations
    );
}

/// `base` with `tail` appended after its last event.
fn with_tail(base: &[Event], tail: &[EventKind]) -> Vec<Event> {
    let last = base.last().expect("non-empty trace");
    let mut m = base.to_vec();
    for (i, kind) in (1..).zip(tail) {
        m.push(Event {
            seq: last.seq + i,
            at_us: last.at_us + i,
            trace: 0,
            node: 0,
            kind: kind.clone(),
        });
    }
    m
}

#[test]
fn queue_refinement_catches_what_ecf_passes() {
    // Lockstore anomalies appended to a real chaos trace. ECF passes each
    // one — every grant lands on an idle lock, or the zombie rule excuses
    // it — and only the queue refinement flags it.
    let base = chaos_events(7);
    let enqueue = |key: &str, r| EventKind::LockEnqueue {
        key: key.into(),
        lock_ref: r,
    };
    let grant = |key: &str, r| EventKind::LockGrant {
        key: key.into(),
        lock_ref: r,
    };
    let release = |key: &str, r| EventKind::LockRelease {
        key: key.into(),
        lock_ref: r,
    };
    let (key, r) = base
        .iter()
        .rev()
        .find_map(|e| match &e.kind {
            EventKind::LockRelease { key, lock_ref } => Some((key.clone(), *lock_ref)),
            _ => None,
        })
        .expect("trace has a clean release");
    let collected = [
        enqueue("b", 1),
        grant("b", 1),
        EventKind::LockForcedRelease {
            key: "b".into(),
            lock_ref: 1,
        },
        grant("b", 1),
    ];
    let out_of_order = [
        enqueue("c", 1),
        enqueue("c", 2),
        enqueue("c", 3),
        grant("c", 1),
        release("c", 1),
        grant("c", 3),
        release("c", 3),
        grant("c", 2),
        release("c", 2),
    ];
    let mutants: [(&str, &[EventKind]); 3] = [
        ("grant of cleanly released reference", &[grant(&key, r)]),
        ("re-grant of collected reference", &collected),
        ("out-of-order grant", &out_of_order),
    ];
    for (expected, tail) in mutants {
        let report = check_online(&with_tail(&base, tail));
        assert!(report.ecf.ok(), "{expected}: {:?}", report.ecf.violations);
        assert!(
            report.queue_violations.iter().any(|v| v.contains(expected)),
            "{expected}: not flagged: {:?}",
            report.queue_violations
        );
    }
}

#[test]
fn memory_stays_bounded_over_100k_distinct_keys() {
    // 120k distinct keys stream through a windowed checker, each running
    // one enqueue/grant/put/get/release section, with releases lagging by
    // 64 keys: a sliding window of open sections. State must track the
    // live set, not the key or event count.
    const KEYS: u64 = 120_000;
    const OVERLAP: u64 = 64;
    let mut c = OnlineChecker::new(OnlineConfig::windowed(10_000));
    let mut seq = 0u64;
    let mut push = |c: &mut OnlineChecker, kind: EventKind| {
        // The virtual clock advances with the stream.
        c.push(&Event {
            seq,
            at_us: seq,
            trace: 0,
            node: 0,
            kind,
        });
        seq += 1;
    };
    let release = |k: u64| EventKind::LockRelease {
        key: format!("bound-{k}"),
        lock_ref: 1,
    };
    let mut peak_live = 0;
    for k in 0..KEYS {
        let key = format!("bound-{k}");
        let d = digest(key.as_bytes());
        push(
            &mut c,
            EventKind::LockEnqueue {
                key: key.clone(),
                lock_ref: 1,
            },
        );
        push(
            &mut c,
            EventKind::LockGrant {
                key: key.clone(),
                lock_ref: 1,
            },
        );
        push(
            &mut c,
            EventKind::CritPutAck {
                key: key.clone(),
                lock_ref: 1,
                digest: d,
            },
        );
        push(
            &mut c,
            EventKind::CritGet {
                key,
                lock_ref: 1,
                digest: Some(d),
            },
        );
        if k >= OVERLAP {
            push(&mut c, release(k - OVERLAP));
        }
        peak_live = peak_live.max(c.live_keys());
    }
    for k in KEYS - OVERLAP..KEYS {
        push(&mut c, release(k));
    }
    let r = c.report();
    assert!(r.ok(), "{:?} {:?}", r.ecf.violations, r.queue_violations);
    assert_eq!(r.events_seen, KEYS * 5);
    assert!(r.keys_retired > KEYS / 2, "window never retired state");
    // Live state is O(open sections + retirement window): the sweep
    // cadence (1 024 events) times the section width bounds how much
    // quiescent state can linger between sweeps.
    assert!(
        peak_live < 8_192,
        "peak live {peak_live} for {KEYS} keys — state is not O(live keys)"
    );
    assert!(c.live_keys() < 8_192);
}
