//! Zero-perturbation and reproducibility guarantees of the telemetry
//! layer: recording is pure bookkeeping, so a run's virtual-time schedule
//! must be identical whether the recorder is off, counting, or tracing —
//! and two traced runs of the same seed must serialize byte-for-byte
//! identically.

use music_repro::telemetry::{to_json_lines, OnlineConfig, Recorder};
use music_repro::trace::run_chaos;
use music_simnet::prelude::*;

#[test]
fn tracing_does_not_perturb_the_schedule() {
    let seed = 42;
    let off = run_chaos(LatencyProfile::one_us(), seed, Recorder::off());
    let counting = run_chaos(LatencyProfile::one_us(), seed, Recorder::metrics_only());
    let tracing = run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing());
    // The mode `music-load` runs: every event built and checked, none kept.
    let online = run_chaos(
        LatencyProfile::one_us(),
        seed,
        Recorder::online(OnlineConfig::unbounded()),
    );

    assert_eq!(off.final_time_us, tracing.final_time_us);
    assert_eq!(off.final_time_us, counting.final_time_us);
    assert_eq!(off.outcomes, tracing.outcomes);
    assert_eq!(off.outcomes, counting.outcomes);

    // The cheaper modes really are cheaper: no events off/counting, no
    // counters when off.
    assert!(off.events.is_empty());
    assert!(off.metrics.is_empty());
    assert!(counting.events.is_empty());
    assert!(!counting.metrics.is_empty());
    assert!(!tracing.events.is_empty());
    // Tracing and counting agree on every counter.
    assert_eq!(counting.metrics.to_json(), tracing.metrics.to_json());

    // Checking online moves nothing either, stores no event, counts what
    // tracing counts and reaches the tracing run's verdict.
    assert_eq!(off.final_time_us, online.final_time_us);
    assert_eq!(off.outcomes, online.outcomes);
    assert!(online.events.is_empty());
    assert_eq!(online.metrics.to_json(), tracing.metrics.to_json());
    assert!(online.report.ok(), "{}", online.report);
    assert_eq!(online.report, tracing.report);
}

#[test]
fn same_seed_serializes_byte_identically() {
    let a = run_chaos(LatencyProfile::one_us(), 7, Recorder::tracing());
    let b = run_chaos(LatencyProfile::one_us(), 7, Recorder::tracing());
    assert_eq!(to_json_lines(&a.events), to_json_lines(&b.events));
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn different_seeds_diverge() {
    let a = run_chaos(LatencyProfile::one_us(), 7, Recorder::tracing());
    let b = run_chaos(LatencyProfile::one_us(), 8, Recorder::tracing());
    // Loss/jitter draws differ, so the schedules (and hence the traces)
    // must differ somewhere.
    assert_ne!(to_json_lines(&a.events), to_json_lines(&b.events));
}
