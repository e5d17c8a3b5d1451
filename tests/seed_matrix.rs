//! Seed-matrix chaos sweep: the full chaos scenario — crashes, partitions,
//! watchdog preemptions, lease grants, a lease break, and a lease
//! revocation — must come out ECF-clean under *every* randomized schedule,
//! not just the default seed. Each seed draws different loss, jitter, and
//! back-off schedules, so this sweeps genuinely distinct interleavings.
//!
//! `MUSIC_SEEDS="3,17"` (comma-separated) overrides the built-in matrix;
//! the CI seed-matrix job uses it to shard seeds across runners.

use music::nemesis::{run_nemesis, NemesisOptions, RunMode};
use music_repro::telemetry::{to_json_lines, Recorder};
use music_repro::trace::run_chaos;
use music_simnet::prelude::*;

fn seeds() -> Vec<u64> {
    match std::env::var("MUSIC_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("MUSIC_SEEDS must be integers"))
            .collect(),
        // Default matrix: 8 seeds, chosen to include the ones other tests
        // and the CLI default use (1, 7, 42) plus arbitrary fresh draws.
        Err(_) => vec![1, 2, 3, 5, 7, 11, 42, 1729],
    }
}

#[test]
fn every_seed_is_ecf_clean() {
    for seed in seeds() {
        let run = run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing());
        assert!(
            run.report.ok(),
            "seed {seed} violated ECF: {}",
            run.report.to_json()
        );
        // The interesting machinery must actually have fired under every
        // schedule — a trivially-empty run would vacuously pass.
        assert!(
            run.report.ecf.grants >= 10,
            "seed {seed}: too few lock grants"
        );
        assert!(
            run.metrics.total("lease_grants") >= 1,
            "seed {seed}: lease fast path never granted"
        );
        assert!(
            run.metrics.total("lease_breaks") >= 1,
            "seed {seed}: competing enqueue never broke a lease"
        );
        assert!(
            run.metrics.total("watchdog_lease_revocations") >= 1,
            "seed {seed}: watchdog never revoked the abandoned lease"
        );
        assert!(
            run.metrics.total("watchdog_preemptions") >= 2,
            "seed {seed}: watchdog never preempted a dead holder"
        );
        // Core protocol counters must be live under every schedule: a
        // zeroed counter here means the scenario silently stopped
        // exercising that path (the profiler's BENCH artifacts build on
        // these same totals).
        for counter in ["lock_grants", "quorum_writes", "quorum_reads", "cs_flushes"] {
            assert!(
                run.metrics.total(counter) > 0,
                "seed {seed}: counter {counter} never fired"
            );
        }
        // And the span layer must have both produced and closed a tree.
        assert!(
            run.span_report.ok(),
            "seed {seed}: malformed span tree: {}",
            run.span_report.to_json()
        );
        assert!(run.spans.len() >= 20, "seed {seed}: too few spans");
    }
}

#[test]
fn every_seed_survives_nemesis_schedules() {
    // Beyond the fixed chaos scenario: two *randomized* nemesis fault
    // schedules per seed (distinct write modes), each of which must come
    // out ECF-clean with a clean lock-queue refinement. Sharded by the
    // same MUSIC_SEEDS variable as above.
    for seed in seeds() {
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
                run.report.ok(),
                "seed {seed} (nemesis seed {nemesis_seed}, mode {}) violated ECF: {}",
                mode.name(),
                run.report.to_json()
            );
            assert!(
                run.sections_ok >= 1,
                "seed {seed}: nemesis workload made no progress"
            );
        }
    }
}

#[test]
fn each_seed_replays_byte_identically() {
    // Re-running any seed must reproduce the identical trace — the
    // determinism claim the whole matrix rests on. One seed suffices
    // here; telemetry_determinism.rs covers the recorder modes.
    let seed = *seeds().last().expect("at least one seed");
    let a = run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing());
    let b = run_chaos(LatencyProfile::one_us(), seed, Recorder::tracing());
    assert_eq!(to_json_lines(&a.events), to_json_lines(&b.events));
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
}
