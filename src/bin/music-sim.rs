//! `music-sim` — command-line driver for the MUSIC reproduction.
//!
//! ```text
//! music-sim demo                  # a narrated critical section on 1Us
//! music-sim latency [profile]     # Fig. 5(b)-style operation breakdown
//! music-sim throughput [profile]  # quick Fig. 4(a)-style comparison
//! music-sim trace [p] [--seed N]  # seeded chaos run as a JSON-lines trace
//!                [--spans] [--node N] [--site S] [--trace-id T]
//! music-sim profile [--seed N] [--mode sync|pipelined|leased|all]
//!                [--name NAME] [--out FILE]
//!                                 # span-profiling workloads -> BENCH_<name>.json
//! music-sim nemesis [p|all] [--seed N] [--schedules K] [--mode M]
//!                [--drift-us E] [--flash-crowd]
//!                                 # randomized fault schedules + checker verdicts
//! music-sim verify                # bounded model check of the ECF invariants
//! music-sim profiles              # print the Table II latency profiles
//! ```
//!
//! Everything runs in simulated (virtual) time and is deterministic. An
//! unknown command, flag or profile name prints the usage to stderr and
//! exits 2; a bare `music-sim` or `music-sim help` prints it and exits 0.

use bytes::Bytes;
use music::{MusicSystemBuilder, OpKind};
use music_bench::music_runners::{
    cassa_ev_throughput, music_cs_latency, music_write_throughput, ThroughputRun,
};
use music_bench::setup::Mode;
use music_simnet::prelude::*;

const USAGE: &str = "\
music-sim — MUSIC (ICDCS 2020) reproduction driver

usage: music-sim <command> [profile] [--seed N]
  demo        narrated critical section
  latency     per-operation latency breakdown (Fig. 5(b))
  throughput  quick CassaEV / MUSIC / MSCP comparison (Fig. 4(a))
  trace       seeded chaos run -> JSON-lines event trace + ECF verdict
              [--spans] (Chrome-trace span export)
              [--node N] [--site S] [--trace-id T] (output filters)
  profile     seeded span-profiling workloads -> BENCH_<name>.json
              [--seed N] [--mode sync|pipelined|leased|all] [--name NAME]
              [--out FILE]
  nemesis     randomized fault schedules -> per-schedule checker verdicts
              (ECF + lock-queue refinement)
              [profile|all] [--seed N] [--schedules K]
              [--mode sync|pipelined|leased] [--no-replay]
              [--drift-us E] (replica clocks skewed within ±E µs, ε = E)
              [--flash-crowd] (hot-key crowd + adaptive controller)
  verify      bounded model check of the ECF invariants (§V)
  profiles    print the Table II latency profiles
  help        print this text

profiles: 1l | 1Us (default) | 1UsEu
";

/// Prints `msg` and the usage to stderr and exits 2: the answer to an
/// unknown command, flag or profile, or to a flag without a valid operand.
fn usage_error(msg: &str) -> ! {
    eprintln!("music-sim: {msg}\n");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn profile_by_name(name: Option<&str>) -> LatencyProfile {
    match name.unwrap_or("1Us") {
        "1l" => LatencyProfile::one_l(),
        "1Us" => LatencyProfile::one_us(),
        "1UsEu" => LatencyProfile::one_us_eu(),
        other => usage_error(&format!("unknown profile `{other}`")),
    }
}

fn cmd_profiles() {
    println!("Table II latency profiles (RTT in ms):");
    for p in LatencyProfile::table_ii() {
        print!("  {:<6}", p.name());
        for a in 0..p.site_count() {
            for b in (a + 1)..p.site_count() {
                print!(
                    " {}-{}: {:>7.2}",
                    p.site_name(a),
                    p.site_name(b),
                    p.rtt(a, b).as_millis_f64()
                );
            }
        }
        println!();
    }
}

fn cmd_demo(profile: LatencyProfile) {
    println!(
        "== MUSIC critical section on the {} profile ==",
        profile.name()
    );
    let system = MusicSystemBuilder::new()
        .profile(profile)
        .seed(1)
        .telemetry(music_repro::telemetry::Recorder::metrics_only())
        .build();
    let sim = system.sim().clone();
    let client = system.client_at_site(0);
    let stats = system.stats().clone();
    sim.block_on(async move {
        let cs = client.enter("demo-key").await.expect("enter");
        println!("  entered critical section with {}", cs.lock_ref());
        let before = cs.get().await.expect("get");
        println!("  criticalGet  -> {before:?} (guaranteed latest)");
        cs.put(Bytes::from_static(b"hello-from-the-cli"))
            .await
            .expect("put");
        println!("  criticalPut  -> acknowledged at a quorum");
        let after = cs.get().await.expect("get");
        println!(
            "  criticalGet  -> {:?}",
            after.map(|v| String::from_utf8_lossy(&v).into_owned())
        );
        cs.release().await.expect("release");
        println!("  released");
    });
    println!("\nper-operation mean latency:");
    for kind in OpKind::ALL {
        let h = stats.histogram(kind);
        if !h.is_empty() {
            println!("  {kind:<20} {:>9.2} ms", h.mean().as_millis_f64());
        }
    }
    println!("\nprotocol counters:");
    music_bench::report::print_metrics(&system.recorder().metrics());
    println!("(virtual time elapsed: {})", system.sim().now());
}

fn cmd_latency(profile: LatencyProfile) {
    println!(
        "== operation latency breakdown on {} (5 critical sections) ==",
        profile.name()
    );
    let music = music_cs_latency(profile.clone(), Mode::Music, 1, 10, 5, 2);
    let mscp = music_cs_latency(profile, Mode::Mscp, 1, 10, 5, 2);
    let rows = [
        ("createLockRef", music.ops.histogram(OpKind::CreateLockRef)),
        ("acquireLock peek", music.ops.histogram(OpKind::AcquirePeek)),
        (
            "acquireLock grant",
            music.ops.histogram(OpKind::AcquireGrant),
        ),
        (
            "criticalPut (MUSIC)",
            music.ops.histogram(OpKind::CriticalPut),
        ),
        ("criticalPut (MSCP)", mscp.ops.histogram(OpKind::MscpPut)),
        ("releaseLock", music.ops.histogram(OpKind::ReleaseLock)),
    ];
    for (name, h) in rows {
        if !h.is_empty() {
            println!("  {name:<22} {:>9.2} ms", h.mean().as_millis_f64());
        }
    }
    println!(
        "  whole critical section: MUSIC {:.1} ms, MSCP {:.1} ms",
        music.section.mean().as_millis_f64(),
        mscp.section.mean().as_millis_f64()
    );
}

fn cmd_throughput(profile: LatencyProfile) {
    println!(
        "== quick write-throughput comparison on {} (reduced load) ==",
        profile.name()
    );
    let warmup = SimDuration::from_millis(500);
    let window = SimDuration::from_secs(2);
    let ev = cassa_ev_throughput(profile.clone(), 12, 10, warmup, window, 3);
    let mut run = ThroughputRun::new(profile.clone(), Mode::Music);
    run.threads = 48;
    run.warmup = warmup;
    run.window = window;
    let music = music_write_throughput(&run);
    run.mode = Mode::Mscp;
    let mscp = music_write_throughput(&run);
    println!("  CassaEV (eventual writes): {ev:>8.0} op/s");
    println!("  MUSIC   (critical section): {music:>7.0} op/s");
    println!("  MSCP    (LWT critical put): {mscp:>7.0} op/s");
    println!("  (full sweeps: cargo bench -p music-bench)");
}

/// `music-sim trace [profile] [--seed N] [--spans] [--node N] [--site S]
/// [--trace-id T]`: runs the seeded chaos scenario with full tracing.
///
/// Default output is JSON lines — one per event (after any `--node` /
/// `--site` / `--trace-id` filter), then a `metrics` line, then the
/// checker's verdict (computed during the run) as an `ecfOnline` line
/// and its ECF core as the final `ecf` line. With `--spans` it instead
/// prints the (filtered) span tree in the Chrome trace event format
/// (load in `chrome://tracing` or Perfetto), with the reports on stderr.
/// The checker always sees the *full* log; filters only trim what is
/// printed. Output is byte-identical across runs with the same seed and
/// profile. Exits 1 on an ECF or queue-refinement violation.
#[allow(clippy::fn_params_excessive_bools)]
fn cmd_trace(
    profile: LatencyProfile,
    seed: u64,
    spans: bool,
    node: Option<u32>,
    site: Option<u32>,
    trace_id: Option<u64>,
) {
    use music_repro::telemetry::span::to_chrome_trace;
    use music_repro::telemetry::{to_json_lines, Recorder};
    use music_repro::trace::{filter_events, filter_spans};
    let run = music_repro::trace::run_chaos(profile, seed, Recorder::tracing());
    let report = &run.report;
    if spans {
        print!(
            "{}",
            to_chrome_trace(&filter_spans(&run.spans, node, site, trace_id))
        );
        eprintln!("{}", run.span_report.to_json());
        eprintln!("{}", report.to_json());
        eprintln!("{}", report.ecf.to_json());
        if !report.ok() || !run.span_report.ok() {
            std::process::exit(1);
        }
        return;
    }
    print!(
        "{}",
        to_json_lines(&filter_events(
            &run.events,
            &run.node_sites,
            node,
            site,
            trace_id
        ))
    );
    println!("{}", run.metrics.to_json());
    println!("{}", report.to_json());
    println!("{}", report.ecf.to_json());
    if !report.ok() {
        std::process::exit(1);
    }
}

/// `music-sim profile [--seed N] [--mode sync|pipelined|leased|all]
/// [--name NAME] [--out FILE]`: runs the canonical seeded span-profiling
/// workload and writes the `BENCH_<name>.json` artifact.
///
/// Every figure in the artifact is virtual-time-derived, so replays of
/// the same seed are byte-identical — the file is a committable baseline,
/// and `tests/profile_bench.rs` requires `--seed 7 --mode all` to
/// reproduce `BENCH_baseline.json` byte for byte.
fn cmd_profile(seed: u64, mode: Option<&str>, name: &str, out_path: Option<&str>) {
    use music_bench::profile::{bench_json, run_mode_profile, ModeKey, ProfileOptions};
    let keys: Vec<ModeKey> = match mode {
        None | Some("all") => ModeKey::ALL.to_vec(),
        Some(m) => vec![ModeKey::parse(m)
            .unwrap_or_else(|| usage_error("--mode needs sync|pipelined|leased|all"))],
    };
    let opts = ProfileOptions {
        seed,
        ..ProfileOptions::default()
    };
    let wall = std::time::Instant::now();
    let mut modes = Vec::new();
    for key in keys {
        let m = run_mode_profile(key, &opts);
        println!(
            "{:<9} {} sections in {:.1} virtual s — {} protocol ops, {} sim events",
            m.key.name(),
            m.sections,
            m.virtual_us as f64 / 1e6,
            m.protocol_ops,
            m.executor.events(),
        );
        for (phase, st) in &m.phases {
            println!(
                "  {phase:<16} n={:<4} p50={:>9}µs p95={:>9}µs p99={:>9}µs p99.9={:>9}µs",
                st.count, st.p50_us, st.p95_us, st.p99_us, st.p999_us
            );
        }
        for s in &m.sites {
            println!(
                "  site {} grant-wait: entered={:<3} p50={:>9}µs p99.9={:>9}µs",
                s.site, s.entered, s.wait.p50_us, s.wait.p999_us
            );
        }
        if !m.span_report.ok() {
            eprintln!("span check FAILED: {}", m.span_report.to_json());
            std::process::exit(1);
        }
        if !m.report.ok() {
            eprintln!("checker FAILED: {}", m.report.to_json());
            std::process::exit(1);
        }
        modes.push(m);
    }
    let json = bench_json(name, &opts, &modes);
    let total_events: u64 = modes.iter().map(|m| m.executor.events()).sum();
    eprintln!(
        "(wall clock: {:.2}s, ~{:.0} sim events/s)",
        wall.elapsed().as_secs_f64(),
        total_events as f64 / wall.elapsed().as_secs_f64().max(1e-9)
    );
    let out_file = out_path
        .map(String::from)
        .unwrap_or_else(|| format!("BENCH_{name}.json"));
    std::fs::write(&out_file, &json).expect("write BENCH artifact");
    println!("wrote {out_file}");
}

/// The optional nemesis lanes, bundled so `cmd_nemesis` keeps a flat
/// signature as lanes accrete.
struct NemesisLanes {
    replay: bool,
    drift_us: u64,
    flash_crowd: bool,
}

/// `music-sim nemesis [profile|all] [--seed N] [--schedules K] [--mode M]
/// [--no-replay] [--drift-us E] [--flash-crowd]`: runs `K` seeded nemesis
/// fault schedules per profile (seeds `N..N+K`), each against a
/// randomized multi-client workload, and prints one JSON verdict line per
/// schedule: the checker's ECF counters and its queue-refinement layer,
/// both computed during the run. Unless `--mode` pins one, the write mode
/// cycles sync → pipelined → leased by seed. Every schedule is re-run and
/// its event log and metrics must replay byte-identically (`--no-replay`
/// skips that). `--drift-us E` composes the clock-drift lane with every
/// schedule: each replica's clock drifts within ±E µs and the ε lease
/// guards are configured with ε = E µs — the drift-safe envelope, which
/// must stay clean.
/// `--flash-crowd` composes the flash-crowd lane: every client's middle
/// sections converge on one hot key while the contention-adaptive
/// controller (spin-then-queue, enqueue combining, lease auto-tuning,
/// anti-starvation) is enabled.
/// Exits 1 if any schedule violates ECF or the queue refinement, or fails
/// to replay.
fn cmd_nemesis(
    profiles: Vec<LatencyProfile>,
    seed0: u64,
    schedules: u64,
    mode: Option<music::nemesis::RunMode>,
    lanes: NemesisLanes,
) {
    use music::nemesis::{run_nemesis, NemesisOptions, RunMode};
    let NemesisLanes {
        replay,
        drift_us,
        flash_crowd,
    } = lanes;
    use music_repro::telemetry::{to_json_lines, Recorder};
    let options = |m| {
        let mut opts = NemesisOptions::new(m);
        if flash_crowd {
            // A crowd needs enough sections per client for distinct
            // warmup / crowd / drain phases.
            opts.sections_per_client = 8;
            opts = opts.with_flash_crowd();
        }
        if drift_us > 0 {
            opts.with_drift(
                SimDuration::from_micros(drift_us),
                SimDuration::from_micros(drift_us),
            )
        } else {
            opts
        }
    };
    let mut failures = 0u64;
    for profile in &profiles {
        for i in 0..schedules {
            let seed = seed0 + i;
            let m = mode.unwrap_or(RunMode::ALL[(seed % 3) as usize]);
            let run = run_nemesis(profile.clone(), seed, options(m), Recorder::tracing());
            let replay_identical = if replay {
                let again = run_nemesis(profile.clone(), seed, options(m), Recorder::tracing());
                to_json_lines(&run.events) == to_json_lines(&again.events)
                    && run.metrics.to_json() == again.metrics.to_json()
            } else {
                true
            };
            let rep = &run.report;
            let ok = rep.ok() && replay_identical;
            println!(
                "{{\"kind\":\"nemesis\",\"profile\":\"{}\",\"seed\":{seed},\
                 \"driftUs\":{drift_us},\"flashCrowd\":{flash_crowd},\
                 \"mode\":\"{}\",\"ok\":{ok},\"faults\":{},\"sectionsOk\":{},\
                 \"sectionsAbandoned\":{},\"grants\":{},\"zombieGrants\":{},\
                 \"staleReads\":{},\"stalePutAcks\":{},\"forcedReleases\":{},\
                 \"replayIdentical\":{replay_identical},\"queueChecked\":{},\
                 \"queueViolations\":{},\"finalTimeUs\":{}}}",
                profile.name(),
                m.name(),
                run.schedule.len(),
                run.sections_ok,
                run.sections_abandoned,
                rep.ecf.grants,
                rep.ecf.zombie_grants,
                rep.ecf.stale_reads,
                rep.ecf.stale_put_acks,
                rep.ecf.forced_releases,
                rep.queue_checked,
                rep.queue_violations.len(),
                run.final_time_us,
            );
            if !ok {
                failures += 1;
                eprintln!(
                    "nemesis FAILED: profile={} seed={seed} mode={}",
                    profile.name(),
                    m.name()
                );
                eprintln!("  schedule:");
                for line in &run.schedule {
                    eprintln!("    {line}");
                }
                for line in &run.outcomes {
                    eprintln!("  {line}");
                }
                if !replay_identical {
                    eprintln!("  replay diverged (event log or metrics not byte-identical)");
                }
                eprintln!("  {}", rep.to_json());
            }
        }
    }
    if failures > 0 {
        eprintln!("nemesis: {failures} schedule(s) failed");
        std::process::exit(1);
    }
}

fn cmd_verify() {
    use music_repro::modelcheck::{CheckOutcome, Checker, MusicModel, Scope};
    println!("== bounded model check of the ECF invariants (§V) ==");
    let scopes = [
        ("sync puts", MusicModel::default()),
        (
            "pipelined puts (window 2)",
            MusicModel::new(Scope {
                max_puts: 2,
                pipeline_window: 2,
                ..Scope::default()
            }),
        ),
        (
            "leased re-entry (2 leases)",
            MusicModel::new(Scope {
                lease: true,
                max_leases: 2,
                ..Scope::default()
            }),
        ),
        (
            "drift-guarded leases (ε claim/break)",
            MusicModel::new(Scope {
                lease: true,
                max_leases: 2,
                drift: true,
                ..Scope::default()
            }),
        ),
        (
            "contention-adaptive (combining + window tuner)",
            MusicModel::new(Scope {
                lease: true,
                max_leases: 2,
                combine: true,
                adaptive_window: true,
                ..Scope::default()
            }),
        ),
    ];
    for (name, model) in scopes {
        let out = Checker::default().run(&model);
        match out {
            CheckOutcome::Ok {
                states,
                depth,
                truncated,
            } => {
                println!(
                    "  {name}: OK, {states} states explored (depth {depth}, truncated: {truncated})"
                );
            }
            CheckOutcome::Violation { message, trace, .. } => {
                println!("  {name}: VIOLATION: {message}");
                for step in trace {
                    println!("    {step}");
                }
                std::process::exit(1);
            }
        }
    }
    println!("  invariants: critical-section, synchFlag, latest-state, queue sanity, lease-floor");
}

/// The next argument parsed as `flag`'s operand; a usage error if there
/// is none or it does not parse.
fn operand<T: std::str::FromStr>(rest: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    rest.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a valid operand")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cmd = args.get(1).map(String::as_str).unwrap_or("help");
    // Flags may appear anywhere after the command; the one free operand
    // is the latency profile, for the commands that run on one.
    let mut seed = 1u64;
    let mut schedules = 8u64;
    let mut mode_raw: Option<String> = None;
    let mut replay = true;
    let mut spans = false;
    let mut node: Option<u32> = None;
    let mut site: Option<u32> = None;
    let mut trace_id: Option<u64> = None;
    let mut name = String::from("baseline");
    let mut out_path: Option<String> = None;
    let mut drift_us = 0u64;
    let mut flash_crowd = false;
    let mut free: Vec<&str> = Vec::new();
    let mut rest = args[2.min(args.len())..].iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--seed" => seed = operand(&mut rest, a),
            "--schedules" => schedules = operand(&mut rest, a),
            "--mode" => mode_raw = Some(operand(&mut rest, a)),
            "--no-replay" => replay = false,
            "--spans" => spans = true,
            "--node" => node = Some(operand(&mut rest, a)),
            "--site" => site = Some(operand(&mut rest, a)),
            "--trace-id" => trace_id = Some(operand(&mut rest, a)),
            "--name" => name = operand(&mut rest, a),
            "--out" => out_path = Some(operand(&mut rest, a)),
            // µs: replica clocks skew within ±E and ε = E.
            "--drift-us" => drift_us = operand(&mut rest, a),
            "--flash-crowd" => flash_crowd = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            other => free.push(other),
        }
    }
    let takes_profile = matches!(cmd, "demo" | "latency" | "throughput" | "trace" | "nemesis");
    match free.as_slice() {
        [] => {}
        [_] if takes_profile => {}
        [first, ..] => usage_error(&format!("unexpected operand `{first}`")),
    }
    let profile_arg = free.first().copied();
    let profile = || profile_by_name(profile_arg);
    match cmd {
        "demo" => cmd_demo(profile()),
        "latency" => cmd_latency(profile()),
        "throughput" => cmd_throughput(profile()),
        "trace" => cmd_trace(profile(), seed, spans, node, site, trace_id),
        "profile" => cmd_profile(seed, mode_raw.as_deref(), &name, out_path.as_deref()),
        "nemesis" => {
            let profiles = if profile_arg == Some("all") {
                LatencyProfile::table_ii()
            } else {
                vec![profile()]
            };
            let mode = mode_raw.as_deref().map(|m| {
                music::nemesis::RunMode::parse(m)
                    .unwrap_or_else(|| usage_error("--mode needs sync|pipelined|leased"))
            });
            cmd_nemesis(
                profiles,
                seed,
                schedules,
                mode,
                NemesisLanes {
                    replay,
                    drift_us,
                    flash_crowd,
                },
            );
        }
        "verify" => cmd_verify(),
        "profiles" => cmd_profiles(),
        "help" => print!("{USAGE}"),
        other => usage_error(&format!("unknown command `{other}`")),
    }
}
