//! `music-sim` — command-line driver for the MUSIC reproduction.
//!
//! `music-sim help` lists the commands: the Fig. 4/5(b) runners, the
//! seeded chaos trace, the span profiler, the nemesis lanes and the §V
//! model check. Each command's usage line in [`COMMANDS`] declares the
//! operand and flags it reads; the usage text is those lines.
//!
//! Everything runs in simulated (virtual) time and is deterministic. An
//! unknown command, a flag the command does not read, a bad operand or an
//! unknown profile name prints the usage to stderr and exits 2; a bare
//! `music-sim` or `music-sim help` prints it and exits 0.

use bytes::Bytes;
use music::cli::Args;
use music::{MusicSystemBuilder, OpKind, RunMode};
use music_bench::music_runners::{
    cassa_ev_throughput, music_cs_latency, music_write_throughput, ThroughputRun,
};
use music_bench::setup::Mode;
use music_simnet::prelude::*;

/// A command: its usage line, which declares the one free operand and the
/// flags it reads ([`music::cli`]), its help text and its body.
type Command = (&'static str, &'static str, fn(&Args));

const COMMANDS: [Command; 9] = [
    ("demo [profile]", "narrated critical section", cmd_demo),
    (
        "latency [profile]",
        "per-operation latency breakdown (Fig. 5(b))",
        cmd_latency,
    ),
    (
        "throughput [profile]",
        "quick CassaEV / MUSIC / MSCP comparison (Fig. 4(a))",
        cmd_throughput,
    ),
    (
        "trace [profile] [--seed N] [--spans] [--node N] [--site S] [--trace-id T]",
        "seeded chaos run -> JSON-lines event trace + ECF verdict; --spans:\n\
         Chrome-trace span export; --node/--site/--trace-id filter the output",
        cmd_trace,
    ),
    (
        "profile [--seed N] [--mode sync|pipelined|leased|all] [--name NAME] [--out FILE]",
        "seeded span-profiling workloads -> BENCH_<name>.json",
        cmd_profile,
    ),
    (
        "nemesis [profile|all] [--seed N] [--schedules K] [--mode sync|pipelined|leased]\n\
         [--no-replay] [--drift-us E] [--flash-crowd]",
        "randomized fault schedules -> per-schedule checker verdicts (ECF +\n\
         lock-queue refinement); --drift-us: replica clocks skewed within ±E µs,\n\
         ε = E; --flash-crowd: hot-key crowd + adaptive controller",
        cmd_nemesis,
    ),
    (
        "verify",
        "bounded model check of the ECF invariants (§V)",
        cmd_verify,
    ),
    (
        "profiles",
        "print the Table II latency profiles",
        cmd_profiles,
    ),
    ("help", "print this text", |_| print!("{}", usage_text())),
];

/// The usage text: every [`COMMANDS`] row.
fn usage_text() -> String {
    let mut text = String::from(
        "music-sim — MUSIC (ICDCS 2020) reproduction driver\n\n\
         usage: music-sim <command> [operand] [flags]\n\
         each command takes only the operand and flags listed with it:\n",
    );
    for (usage, about, _) in COMMANDS {
        let usage = usage.replace('\n', "\n          ");
        text += &format!("  {usage}\n      {}\n", about.replace('\n', "\n      "));
    }
    text + "\nprofiles: 1l | 1Us (default) | 1UsEu\n"
}

/// Prints `msg` and the usage to stderr and exits 2: the answer to a
/// command line `music-sim` cannot read.
fn usage_error(msg: &str) -> ! {
    eprintln!("music-sim: {msg}\n");
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// Flag `name`'s operand, parsed; a usage error if it does not parse.
fn flag<T: std::str::FromStr>(a: &Args, name: &str) -> Option<T> {
    a.get(name).unwrap_or_else(|e| usage_error(&e))
}

/// The latency profile named by the free operand (default `1Us`).
fn profile_operand(a: &Args) -> LatencyProfile {
    match a.operands().first().map_or("1Us", String::as_str) {
        "1l" => LatencyProfile::one_l(),
        "1Us" => LatencyProfile::one_us(),
        "1UsEu" => LatencyProfile::one_us_eu(),
        other => usage_error(&format!("unknown profile `{other}`")),
    }
}

fn cmd_profiles(_: &Args) {
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

fn cmd_demo(a: &Args) {
    let profile = profile_operand(a);
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

fn cmd_latency(a: &Args) {
    let profile = profile_operand(a);
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

fn cmd_throughput(a: &Args) {
    let profile = profile_operand(a);
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

/// `music-sim trace`: runs the seeded chaos scenario with full tracing.
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
fn cmd_trace(a: &Args) {
    use music_repro::telemetry::span::to_chrome_trace;
    use music_repro::telemetry::{to_json_lines, Recorder};
    use music_repro::trace::{filter_events, filter_spans};
    let seed = flag(a, "--seed").unwrap_or(1);
    let (node, site, trace_id) = (flag(a, "--node"), flag(a, "--site"), flag(a, "--trace-id"));
    let run = music_repro::trace::run_chaos(profile_operand(a), seed, Recorder::tracing());
    let report = &run.report;
    if a.switch("--spans") {
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

/// `music-sim profile`: runs the canonical seeded span-profiling workload
/// (`--mode all` or no `--mode`: every mode) and writes the
/// `BENCH_<name>.json` artifact (`--name`, default `baseline`; `--out`
/// overrides the path).
///
/// Every figure in the artifact is virtual-time-derived, so replays of
/// the same seed are byte-identical — the file is a committable baseline,
/// and `tests/profile_bench.rs` requires `--seed 7 --mode all` to
/// reproduce `BENCH_baseline.json` byte for byte.
fn cmd_profile(a: &Args) {
    use music_bench::profile::{bench_json, run_mode_profile, ProfileOptions};
    let modes: Vec<RunMode> = match a.value("--mode") {
        None | Some("all") => RunMode::ALL.to_vec(),
        Some(_) => flag(a, "--mode").into_iter().collect(),
    };
    let seed = flag(a, "--seed").unwrap_or(1);
    let name = a.value("--name").unwrap_or("baseline");
    let opts = ProfileOptions {
        seed,
        ..ProfileOptions::default()
    };
    let wall = std::time::Instant::now();
    let mut runs = Vec::new();
    for mode in modes {
        let m = run_mode_profile(mode, &opts);
        println!(
            "{:<9} {} sections in {:.1} virtual s — {} protocol ops, {} sim events",
            m.mode.name(),
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
        runs.push(m);
    }
    let json = bench_json(name, &opts, &runs);
    let total_events: u64 = runs.iter().map(|m| m.executor.events()).sum();
    eprintln!(
        "(wall clock: {:.2}s, ~{:.0} sim events/s)",
        wall.elapsed().as_secs_f64(),
        total_events as f64 / wall.elapsed().as_secs_f64().max(1e-9)
    );
    let out_file = a
        .value("--out")
        .map_or_else(|| format!("BENCH_{name}.json"), String::from);
    std::fs::write(&out_file, &json).expect("write BENCH artifact");
    println!("wrote {out_file}");
}

/// `music-sim nemesis`: runs `K` (`--schedules`, default 8) seeded
/// nemesis fault schedules per profile (seeds `N..N+K`), each against a
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
fn cmd_nemesis(a: &Args) {
    use music::nemesis::{run_nemesis, NemesisOptions};
    use music_repro::telemetry::{to_json_lines, Recorder};
    let profiles = if a.operands().first().is_some_and(|p| p == "all") {
        LatencyProfile::table_ii()
    } else {
        vec![profile_operand(a)]
    };
    let seed0: u64 = flag(a, "--seed").unwrap_or(1);
    let schedules: u64 = flag(a, "--schedules").unwrap_or(8);
    let mode: Option<RunMode> = flag(a, "--mode");
    let replay = !a.switch("--no-replay");
    let drift_us: u64 = flag(a, "--drift-us").unwrap_or(0);
    let flash_crowd = a.switch("--flash-crowd");
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

fn cmd_verify(_: &Args) {
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

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| String::from("help"));
    let command = COMMANDS
        .iter()
        .find(|c| c.0.split(' ').next() == Some(name.as_str()));
    let Some(&(usage, _, run)) = command else {
        usage_error(&format!("unknown command `{name}`"))
    };
    match Args::parse(args, usage, usize::from(usage.contains("[profile"))) {
        Ok(a) => run(&a),
        Err(e) => usage_error(&format!("{name}: {e}")),
    }
}
