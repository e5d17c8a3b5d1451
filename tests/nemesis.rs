//! Nemesis fault-schedule engine integration: randomized timelines of
//! crashes, rolling restarts, site and asymmetric link partitions, loss
//! bursts, and gray failures run against randomized multi-client
//! critical-section workloads. Every schedule must come out ECF-clean
//! (under the deposed-reference semantics: zombie grants and stale reads
//! are *counted*, genuine overlaps are violations) and must replay
//! byte-identically — the property the whole diagnosis workflow rests on.
//!
//! `MUSIC_NEMESIS_SEEDS="4,5,6"` shards the seed set across CI runners.

use music::nemesis::{run_nemesis, NemesisOptions, RunMode};
use music_repro::telemetry::{to_json_lines, EventKind, Recorder};
use music_simnet::prelude::*;

fn seeds() -> Vec<u64> {
    match std::env::var("MUSIC_NEMESIS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("MUSIC_NEMESIS_SEEDS must be integers")
            })
            .collect(),
        Err(_) => vec![1, 2, 3, 4, 5, 6],
    }
}

/// Every (profile × seed) pair is ECF-clean, in the write mode the seed
/// selects — so the default seed set covers all three modes on all three
/// Table II topologies.
#[test]
fn every_schedule_is_ecf_clean_on_every_profile() {
    for profile in LatencyProfile::table_ii() {
        for seed in seeds() {
            let mode = RunMode::ALL[(seed % 3) as usize];
            let run = run_nemesis(
                profile.clone(),
                seed,
                NemesisOptions::new(mode),
                Recorder::tracing(),
            );
            assert!(
                run.report.ok(),
                "profile {} seed {seed} mode {} violated the checker: {}",
                profile.name(),
                mode.name(),
                run.report.to_json()
            );
            // The schedule must actually have done something: faults were
            // injected, sections ran, and the checker saw real traffic.
            assert!(
                !run.schedule.is_empty(),
                "profile {} seed {seed}: empty fault schedule",
                profile.name()
            );
            assert!(
                run.sections_ok >= 1,
                "profile {} seed {seed}: no section ever completed",
                profile.name()
            );
            assert!(
                run.report.ecf.grants >= 1,
                "profile {} seed {seed}: no grants checked",
                profile.name()
            );
            let injects = run
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::FaultInject { .. }))
                .count();
            let heals = run
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::FaultHeal { .. }))
                .count();
            assert!(
                injects >= run.schedule.len(),
                "profile {} seed {seed}: {injects} faultInject events for {} scheduled faults",
                profile.name(),
                run.schedule.len()
            );
            assert!(
                heals >= 1,
                "profile {} seed {seed}: no fault ever healed",
                profile.name()
            );
        }
    }
}

/// Re-running a schedule reproduces the identical event log and metrics,
/// in every write mode — byte-for-byte.
#[test]
fn every_mode_replays_byte_identically() {
    for mode in RunMode::ALL {
        let a = run_nemesis(
            LatencyProfile::one_us(),
            7,
            NemesisOptions::new(mode),
            Recorder::tracing(),
        );
        let b = run_nemesis(
            LatencyProfile::one_us(),
            7,
            NemesisOptions::new(mode),
            Recorder::tracing(),
        );
        assert_eq!(
            to_json_lines(&a.events),
            to_json_lines(&b.events),
            "mode {}: event log diverged on replay",
            mode.name()
        );
        assert_eq!(
            a.metrics.to_json(),
            b.metrics.to_json(),
            "mode {}: metrics diverged on replay",
            mode.name()
        );
        assert_eq!(a.final_time_us, b.final_time_us);
    }
}

/// The flash-crowd lane: every client's middle sections converge on one
/// hot key while the contention-adaptive controller runs, composed with
/// the usual crash/partition lanes and the clock-drift lane. Each
/// schedule must stay ECF-clean with a clean queue-refinement layer, and
/// the run must replay byte-identically.
#[test]
fn flash_crowd_lane_is_ecf_clean_online_and_offline() {
    let mut switches = 0u64;
    for seed in seeds() {
        let mode = RunMode::ALL[(seed % 3) as usize];
        let mut opts = NemesisOptions::new(mode).with_flash_crowd().with_drift(
            SimDuration::from_micros(2_000),
            SimDuration::from_micros(2_000),
        );
        opts.sections_per_client = 8;
        let run = run_nemesis(
            LatencyProfile::one_us(),
            seed,
            opts.clone(),
            Recorder::tracing(),
        );
        assert!(
            run.report.ok(),
            "flash-crowd seed {seed} mode {} violated the checker: {}",
            mode.name(),
            run.report.to_json()
        );
        assert!(
            run.sections_ok >= 1,
            "flash-crowd seed {seed}: no section ever completed"
        );
        // The lane is standing: the schedule advertises it.
        assert!(
            run.schedule.iter().any(|l| l.contains("flashCrowd")),
            "flash-crowd lane missing from the schedule: {:?}",
            run.schedule
        );
        switches += run.metrics.total("strategy_switches");
        // Byte-identical replay, controller state and all.
        let again = run_nemesis(LatencyProfile::one_us(), seed, opts, Recorder::tracing());
        assert_eq!(
            to_json_lines(&run.events),
            to_json_lines(&again.events),
            "flash-crowd seed {seed}: event log diverged on replay"
        );
        assert_eq!(run.metrics.to_json(), again.metrics.to_json());
    }
    // Across the sweep the controller must actually have adapted — the
    // crowd drives grant waits over the hot threshold somewhere.
    assert!(
        switches >= 1,
        "no schedule ever drove the controller into Hot mode"
    );
}

/// The deposed-reference accounting surfaces in the report: across a
/// modest sweep, at least one schedule exercises a forced release, and
/// excusable zombie grants / stale reads are counted — never flagged.
#[test]
fn forced_releases_and_deposed_accounting_are_exercised() {
    let mut forced = 0u64;
    let mut excused = 0u64;
    for seed in 1..=12u64 {
        let mode = RunMode::ALL[(seed % 3) as usize];
        let run = run_nemesis(
            LatencyProfile::one_us(),
            seed,
            NemesisOptions::new(mode),
            Recorder::tracing(),
        );
        assert!(run.report.ok(), "seed {seed}: {}", run.report.to_json());
        let ecf = &run.report.ecf;
        forced += ecf.forced_releases;
        excused += ecf.zombie_grants + ecf.stale_reads + ecf.stale_put_acks;
    }
    assert!(forced >= 1, "no schedule ever forced a release");
    assert!(
        excused >= 1,
        "no schedule exercised the deposed-reference (§IV-B false-detection) races"
    );
}
