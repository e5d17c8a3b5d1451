//! Differential lane: the checker's verdict must not depend on how it is
//! fed — live, attached to the recorder while a run executes, or replaying
//! the stored log afterwards; unbounded, or through a retirement window
//! that outlasts every key's idle gap; every key, or a sample of keys
//! whose verdict is that of the sampled keys' sub-log.

use std::collections::{BTreeMap, BTreeSet};

use music::nemesis::{run_nemesis, NemesisOptions, RunMode};
use music_repro::telemetry::{
    check, check_online, digest, EcfReport, Event, EventKind, OnlineChecker, OnlineConfig,
    OnlineReport, Recorder,
};
use music_repro::trace::run_chaos;
use music_simnet::prelude::*;

/// The chaos seeds of `tests/seed_matrix.rs`.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 7, 11, 42, 1729];

fn chaos_events(seed: u64) -> Vec<Event> {
    run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing()).events
}

fn replay(cfg: OnlineConfig, events: &[Event]) -> OnlineReport {
    let mut c = OnlineChecker::new(cfg);
    for e in events {
        c.push(e);
    }
    c.report()
}

/// The key an event is about, for every kind the checker keys on.
fn key_of(e: &Event) -> Option<&str> {
    match &e.kind {
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

/// The longest virtual time between two consecutive events on one key.
fn longest_idle_gap(events: &[Event]) -> u64 {
    let mut last_at: BTreeMap<&str, u64> = BTreeMap::new();
    let mut longest = 0;
    for e in events {
        if let Some(prev) = key_of(e).and_then(|k| last_at.insert(k, e.at_us)) {
            longest = longest.max(e.at_us.saturating_sub(prev));
        }
    }
    longest
}

/// What a restricted check must reproduce of a verdict.
fn verdict(r: &OnlineReport) -> (&EcfReport, u64, &[String]) {
    (&r.ecf, r.queue_checked, &r.queue_violations)
}

#[test]
fn chaos_seed_matrix_verdicts_agree() {
    // The full chaos scenario — clean sections, mid-put crash, watchdog
    // preemption, partition failover, pipelined batches, the lease
    // lifecycle — checked while it runs equals a replay of its log.
    for seed in SEEDS {
        let run = run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing());
        assert!(run.report.ok(), "seed {seed}: {}", run.report.to_json());
        assert!(
            run.report.queue_checked > 0,
            "seed {seed}: queue layer idle"
        );
        assert_eq!(
            check_online(&run.events),
            run.report,
            "seed {seed}: replay != live"
        );
    }
}

#[test]
fn nemesis_schedule_verdicts_agree() {
    // Randomized nemesis fault schedules across the three write modes, the
    // (seed, salt, mode) corpus `seed_matrix` requires to be clean: the
    // verdict computed during each schedule equals a replay of its log.
    for seed in SEEDS {
        for salt in [0u64, 1] {
            let nemesis_seed = seed.wrapping_mul(2).wrapping_add(salt);
            let mode = RunMode::ALL[(nemesis_seed % 3) as usize];
            let run = run_nemesis(
                LatencyProfile::one_us(),
                nemesis_seed,
                NemesisOptions::new(mode),
                Recorder::tracing(),
            );
            assert!(
                run.report.queue_checked > 0,
                "nemesis seed {nemesis_seed}: queue layer idle"
            );
            assert_eq!(
                check_online(&run.events),
                run.report,
                "nemesis seed {nemesis_seed} mode {}: replay != live",
                mode.name()
            );
        }
    }
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
fn every_offline_mutant_is_caught_online_with_the_identical_verdict() {
    // Five corruptions of a real trace, each naming the violation kind a
    // replay of the whole log must raise. A streaming checker that retires
    // quiescent keys, with a window longer than any key's idle gap in the
    // mutant, must reach the identical verdict: retirement loses nothing.
    let base = chaos_events(7);
    let mutant = |mutate: &dyn Fn(&mut Vec<Event>)| {
        let mut m = base.clone();
        mutate(&mut m);
        m
    };
    let mutants = [
        (
            // The last holder read: by then a put has been acknowledged,
            // so the true value is pinned (a key's first read is free).
            "corrupted read digest",
            mutant(&|m| {
                if let EventKind::CritGet { digest, .. } = last_read(m) {
                    *digest = Some(digest.map_or(1, |d| d ^ 0xDEAD_BEEF));
                }
            }),
            "latest-state: critical read on",
        ),
        (
            "forged overlapping grant",
            mutant(&|m| {
                let i = m
                    .iter()
                    .position(|e| matches!(e.kind, EventKind::LockGrant { .. }))
                    .expect("trace has a lockGrant");
                let mut forged = m[i].clone();
                if let EventKind::LockGrant { lock_ref, .. } = &mut forged.kind {
                    *lock_ref ^= 0xBAD;
                }
                forged.seq += 1;
                m.insert(i + 1, forged);
            }),
            "exclusivity: grant of",
        ),
        (
            "read by a non-holder",
            mutant(&|m| {
                if let EventKind::CritGet { lock_ref, .. } = last_read(m) {
                    *lock_ref ^= 0xF00D;
                }
            }),
            "exclusivity: critical read on",
        ),
        (
            // A clean release whose key another reference is granted
            // later: without it the successor's grant overlaps.
            "deleted release",
            mutant(&|m| {
                let i = m
                    .iter()
                    .position(|e| {
                        let EventKind::LockRelease { key, lock_ref } = &e.kind else {
                            return false;
                        };
                        m.iter().any(|g| {
                            g.seq > e.seq
                                && matches!(&g.kind, EventKind::LockGrant { key: k, lock_ref: r }
                                            if k == key && r != lock_ref)
                        })
                    })
                    .expect("trace has a release followed by a re-grant of its key");
                m.remove(i);
            }),
            "exclusivity: grant of",
        ),
        (
            "broken seq order",
            mutant(&|m| {
                let (s0, s1) = (m[10].seq, m[11].seq);
                m[10].seq = s1;
                m[11].seq = s0;
            }),
            "seq order broken",
        ),
    ];
    for (what, events, expected) in &mutants {
        let offline = check_online(events);
        assert!(
            offline
                .ecf
                .violations
                .iter()
                .any(|v| v.starts_with(expected)),
            "{what}: expected {expected:?}, got {:?}",
            offline.ecf.violations
        );
        let online = replay(OnlineConfig::windowed(longest_idle_gap(events) + 1), events);
        assert!(
            online.keys_retired > 0,
            "{what}: the window never retired a key"
        );
        assert_eq!(verdict(&online), verdict(&offline), "{what}");
    }
}

#[test]
fn sampling_and_windowing_keep_their_promises_on_a_real_trace() {
    let events = chaos_events(7);
    let last_read = events
        .iter()
        .rposition(|e| matches!(e.kind, EventKind::CritGet { .. }))
        .expect("trace has a criticalGet");
    let lock_keys: BTreeSet<&str> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockGrant { .. }))
        .filter_map(key_of)
        .collect();
    for n in [2u64, 3] {
        let cfg = OnlineConfig::unbounded().with_sampling(n);
        let sampled = |e: &Event| key_of(e).is_none_or(|k| digest(k.as_bytes()).is_multiple_of(n));
        // Whole-key sampling is sound: the verdict is an unbounded check
        // of the sub-log of the sampled keys.
        let sub: Vec<Event> = events.iter().filter(|e| sampled(e)).cloned().collect();
        assert_eq!(
            verdict(&replay(cfg, &events)),
            verdict(&check_online(&sub)),
            "sampling {n}"
        );
        // A corrupted read — the last read, moved to another lock key and
        // a reference that does not hold it — is flagged exactly when its
        // key is sampled.
        let mut flagged = [0u32; 2]; // [skipped, sampled]
        for &k in &lock_keys {
            let mut m = events.clone();
            if let EventKind::CritGet { key, lock_ref, .. } = &mut m[last_read].kind {
                *key = k.to_string();
                *lock_ref ^= 0xF00D;
            }
            assert!(!check(&m).ok(), "unbounded check missed a read on {k}");
            let on_sampled_key = sampled(&m[last_read]);
            assert_eq!(
                replay(cfg, &m).ecf.ok(),
                !on_sampled_key,
                "sampling {n}: corrupted read on {k}"
            );
            flagged[usize::from(on_sampled_key)] += 1;
        }
        assert!(
            flagged.iter().all(|&f| f > 0),
            "sampling {n}: corrupted reads [skipped, sampled] = {flagged:?}"
        );
    }
    // A window longer than any key's idle gap never retires state a later
    // event on that key still needs: the verdict is the unbounded one.
    let windowed = replay(
        OnlineConfig::windowed(longest_idle_gap(&events) + 1),
        &events,
    );
    assert!(windowed.keys_retired > 0, "the window never retired a key");
    assert_eq!(verdict(&windowed), verdict(&check_online(&events)));
}
