//! Replay determinism of the span profiler and the BENCH gate: the same
//! seed must reproduce the identical span tree, Chrome-trace export, and
//! `BENCH_*.json` bytes, and the default workload must reproduce the
//! committed `BENCH_baseline.json` byte for byte.

use music::RunMode;
use music_bench::profile::{bench_json, run_mode_profile, ProfileOptions};
use music_repro::telemetry::span::{spans_to_json_lines, to_chrome_trace, SpanPhase};

#[test]
fn bench_json_replays_byte_identically() {
    let opts = ProfileOptions::quick(7);
    let run = |opts: &ProfileOptions| {
        let modes: Vec<_> = RunMode::ALL
            .iter()
            .map(|&k| run_mode_profile(k, opts))
            .collect();
        bench_json("test", opts, &modes)
    };
    let a = run(&opts);
    let b = run(&opts);
    assert_eq!(a, b, "same seed must emit byte-identical BENCH artifacts");
}

/// What `music-sim profile --seed 7 --mode all` writes must be the committed
/// baseline, byte for byte: every figure is virtual time, so any difference
/// is a schedule change, and that change commits the regenerated file.
#[test]
fn bench_baseline_matches_a_fresh_run_byte_for_byte() {
    let committed = include_str!("../BENCH_baseline.json");
    let opts = ProfileOptions::default();
    let modes: Vec<_> = RunMode::ALL
        .iter()
        .map(|&k| run_mode_profile(k, &opts))
        .collect();
    let fresh = bench_json("baseline", &opts, &modes);
    if fresh == committed {
        return;
    }
    let (old, new): (Vec<_>, Vec<_>) = (committed.lines().collect(), fresh.lines().collect());
    let mut report = String::new();
    for i in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(i), new.get(i));
        if o != n {
            report += &format!(
                "line {}:\n  committed: {}\n  fresh:     {}\n",
                i + 1,
                o.unwrap_or(&"<none>"),
                n.unwrap_or(&"<none>")
            );
        }
    }
    panic!(
        "BENCH_baseline.json differs from a fresh profile run:\n{report}\
         if the schedule moved on purpose, regenerate and commit it:\n  \
         cargo run --release --bin music-sim -- profile --seed 7 --mode all"
    );
}

#[test]
fn span_tree_and_chrome_trace_replay_byte_identically() {
    let opts = ProfileOptions::quick(11);
    let a = run_mode_profile(RunMode::Sync, &opts);
    let b = run_mode_profile(RunMode::Sync, &opts);
    assert_eq!(
        spans_to_json_lines(&a.spans),
        spans_to_json_lines(&b.spans),
        "span tree must replay byte-identically"
    );
    assert_eq!(
        to_chrome_trace(&a.spans),
        to_chrome_trace(&b.spans),
        "Chrome-trace export must replay byte-identically"
    );
    assert!(a.span_report.ok(), "{}", a.span_report.to_json());
    assert!(!a.spans.is_empty());

    // Nesting is structural, not incidental: sections are roots, the lock
    // phases nest under the acquire span, and the headship confirm (opened
    // at the replica layer) rides the client's head-wait span.
    let phase_of = |id: u64| a.spans[id as usize - 1].phase;
    for s in &a.spans {
        match s.phase {
            SpanPhase::Section => assert_eq!(s.parent, 0, "cs spans are roots"),
            SpanPhase::LockAcquire => assert_eq!(phase_of(s.parent), SpanPhase::Section),
            SpanPhase::Enqueue | SpanPhase::HeadWait => {
                assert_eq!(phase_of(s.parent), SpanPhase::LockAcquire)
            }
            SpanPhase::HeadConfirm => assert_eq!(phase_of(s.parent), SpanPhase::HeadWait),
            SpanPhase::DataPut | SpanPhase::DataGet | SpanPhase::Release => {
                assert_eq!(phase_of(s.parent), SpanPhase::Section)
            }
            _ => {}
        }
    }
    let has = |p: SpanPhase| a.spans.iter().any(|s| s.phase == p);
    assert!(has(SpanPhase::Enqueue) && has(SpanPhase::HeadConfirm) && has(SpanPhase::Release));
}

#[test]
fn mode_specific_phases_appear() {
    let opts = ProfileOptions::quick(5);
    let piped = run_mode_profile(RunMode::Pipelined, &opts);
    assert!(piped.span_report.ok(), "{}", piped.span_report.to_json());
    assert!(piped.spans.iter().any(|s| s.phase == SpanPhase::Flush));
    let leased = run_mode_profile(RunMode::Leased, &opts);
    assert!(leased.span_report.ok(), "{}", leased.span_report.to_json());
    assert!(leased
        .spans
        .iter()
        .any(|s| s.phase == SpanPhase::LeaseReenter));
    assert!(leased
        .spans
        .iter()
        .any(|s| s.phase == SpanPhase::LeaseHandoff));
}

#[test]
fn profile_counts_are_consistent() {
    let opts = ProfileOptions::quick(7);
    let m = run_mode_profile(RunMode::Sync, &opts);
    let expected = (3 * opts.clients_per_site * opts.sections_per_client) as u64;
    assert_eq!(m.sections, expected, "every section must complete");
    let counter = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap()
    };
    assert_eq!(counter("lock_grants"), expected);
    assert_eq!(counter("sections_entered"), expected);
    assert!(counter("quorum_writes") > 0);
    assert!(m.protocol_ops > 0);
    assert!(m.executor.events() > 0);
    assert!(m.virtual_us > 0);
    let cs = m.phases.iter().find(|(n, _)| *n == "cs").unwrap().1;
    assert_eq!(cs.count, expected);
    let entered: u64 = m.sites.iter().map(|s| s.entered).sum();
    assert_eq!(
        entered, expected,
        "per-site fairness rows cover every entry"
    );
}
