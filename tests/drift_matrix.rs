//! The drift test matrix: drift-safe leases under hostile time.
//!
//! Two lanes of evidence:
//!
//! * **Sweep** — seeded nemesis schedules with every MUSIC replica on a
//!   skewed clock, over drift magnitudes `{0, ε/2, ε}` × run modes
//!   `{sync, pipelined, leased}`. Every cell must end ECF-clean with a
//!   clean lock-queue refinement: per-node |skew| ≤ ε is exactly what the
//!   ε claim/break guards tolerate.
//! * **Unsafe region** — beyond ε the guards provably cannot protect the
//!   lease fast path. The scripted demonstration
//!   ([`run_drift_unsafe_demo`]) pins the race deterministically: a
//!   holder slow by ≫ 2ε resurrects a revoked lease off a stale local
//!   view, the queue refinement flags it, and the whole failure replays
//!   byte-identically.

use music::nemesis::{run_drift_unsafe_demo, run_nemesis, NemesisOptions, RunMode};
use music_repro::telemetry::{to_json_lines, Recorder};
use music_simnet::prelude::*;

/// The ε the sweep configures, and the skew points measured against it.
const EPSILON: SimDuration = SimDuration::from_micros(2_000);

fn drift_run(mode: RunMode, seed: u64, max_skew: SimDuration) -> music::nemesis::NemesisRun {
    let opts = NemesisOptions::new(mode).with_drift(max_skew, EPSILON);
    run_nemesis(LatencyProfile::one_us(), seed, opts, Recorder::tracing())
}

#[test]
fn drift_matrix_within_epsilon_is_clean() {
    let skews = [
        ("0", SimDuration::ZERO),
        ("eps/2", SimDuration::from_micros(EPSILON.as_micros() / 2)),
        ("eps", EPSILON),
    ];
    for (mode_i, mode) in RunMode::ALL.into_iter().enumerate() {
        for (skew_i, (label, skew)) in skews.iter().enumerate() {
            let seed = 31 + (mode_i * skews.len() + skew_i) as u64;
            let run = drift_run(mode, seed, *skew);
            assert!(
                run.report.ok(),
                "mode {} skew {label}: {}",
                mode.name(),
                run.report.to_json()
            );
            assert!(
                run.sections_ok >= 1,
                "mode {} skew {label}: no section completed",
                mode.name()
            );
        }
    }
}

#[test]
fn drifted_runs_replay_byte_identically() {
    let a = drift_run(RunMode::Leased, 57, EPSILON);
    let b = drift_run(RunMode::Leased, 57, EPSILON);
    assert_eq!(
        to_json_lines(&a.events),
        to_json_lines(&b.events),
        "drifted leased run must replay byte-identically"
    );
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.final_time_us, b.final_time_us);
}

#[test]
fn drift_lane_is_recorded_in_schedule_and_events() {
    let run = drift_run(RunMode::Leased, 57, EPSILON);
    assert!(
        run.schedule
            .first()
            .is_some_and(|l| l.contains("clockDrift")),
        "drift lane must lead the schedule: {:?}",
        run.schedule
    );
    let injects = run
        .events
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                music_repro::telemetry::EventKind::FaultInject { fault, .. }
                    if *fault == "clockDrift"
            )
        })
        .count();
    assert_eq!(injects, 3, "one standing clockDrift inject per replica");
}

// --- the unsafe region (>ε), scripted and asserted -----------------------

/// The demo's ε: generous so the revocation's quorum latency (a WAN RTT
/// or two on the 1Us profile) fits comfortably inside the scripted race
/// margins.
const DEMO_EPSILON: SimDuration = SimDuration::from_millis(200);

#[test]
fn beyond_epsilon_resurrects_a_collected_lease() {
    // A holder slow by 4ε — far beyond the 2ε pairwise envelope the
    // guards tolerate — claims the revoked lease off its stale view.
    let demo = run_drift_unsafe_demo(
        SimDuration::from_millis(800),
        DEMO_EPSILON,
        Recorder::tracing(),
    );
    assert_eq!(demo.revocations, 1, "the watchdog must revoke the lease");
    assert_eq!(
        demo.claim_outcomes,
        vec!["acquired", "acquired"],
        "the slow holder must re-claim the collected lease"
    );
    // End-to-end ECF excuses the resurrection (zombie grants are void and
    // the data plane stays v2s-dominated) ...
    assert!(
        demo.report.ecf.ok(),
        "ECF is expected to excuse the zombie: {:?}",
        demo.report.ecf.violations
    );
    assert!(
        demo.report.ecf.zombie_grants >= 1,
        "the claim is a zombie grant"
    );
    // ... but the lock-queue refinement sees the collected reference act
    // as a holder again: the documented unsafe-region violation.
    let queue = &demo.report.queue_violations;
    assert!(
        !queue.is_empty(),
        "queue refinement must flag the resurrection"
    );
    assert!(
        queue
            .iter()
            .any(|v| v.contains("re-grant of collected reference")),
        "expected a resurrection violation, got: {queue:?}"
    );
}

#[test]
fn unsafe_region_reproduces_byte_deterministically() {
    let a = run_drift_unsafe_demo(
        SimDuration::from_millis(800),
        DEMO_EPSILON,
        Recorder::tracing(),
    );
    let b = run_drift_unsafe_demo(
        SimDuration::from_millis(800),
        DEMO_EPSILON,
        Recorder::tracing(),
    );
    assert!(!a.report.queue_violations.is_empty());
    assert_eq!(
        to_json_lines(&a.events),
        to_json_lines(&b.events),
        "the violation must reproduce byte-identically"
    );
    assert_eq!(a.final_time_us, b.final_time_us);
}

#[test]
fn inside_the_margin_the_guard_rejects_with_telemetry() {
    // Slow by 2ε: when the holder polls, its clock still reads the lease
    // as live (now < until) but within ε of expiry — the claim guard
    // turns it away and says why.
    let demo = run_drift_unsafe_demo(
        SimDuration::from_millis(400),
        DEMO_EPSILON,
        Recorder::tracing(),
    );
    assert_eq!(demo.revocations, 1);
    assert!(
        demo.claim_outcomes.iter().all(|o| *o == "noLongerHolder"),
        "the guard must reject the claim: {:?}",
        demo.claim_outcomes
    );
    assert!(
        demo.claim_drift_rejects >= 1,
        "rejections inside the margin must emit leaseDriftReject"
    );
    assert!(demo.report.ok(), "guarded run must stay clean");
}

#[test]
fn at_epsilon_the_same_schedule_is_safe() {
    // Slow by exactly ε: the claim lands past expiry even on the
    // holder's clock — a plain expired-lease rejection, no drift margin
    // involved, everything clean.
    let demo = run_drift_unsafe_demo(DEMO_EPSILON, DEMO_EPSILON, Recorder::tracing());
    assert_eq!(demo.revocations, 1);
    assert!(
        demo.claim_outcomes.iter().all(|o| *o == "noLongerHolder"),
        "the guard must reject the claim: {:?}",
        demo.claim_outcomes
    );
    assert_eq!(demo.claim_drift_rejects, 0);
    assert!(demo.report.ok(), "ε-bounded run must stay clean");
}
