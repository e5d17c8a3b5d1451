//! The simulator workloads: the paper's three-site `1Us` WAN, one store
//! node and one MUSIC replica per site, RF 3, virtual time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use music::{MusicConfig, MusicSystem, MusicSystemBuilder, RepairDaemon, Watchdog};
use music_simnet::executor::{ExecutorProfile, Sim};
use music_simnet::net::NetConfig;
use music_simnet::time::SimDuration;
use music_simnet::topology::LatencyProfile;
use music_telemetry::span::durations_by_phase;
use music_telemetry::{MetricsSnapshot, OnlineConfig, Recorder};

use crate::drive::{closed_loop, open_loop, spawn_setup, verify, Load, Stop, Tally};
use crate::ledger::{fill_pass, protocol_metrics, span_metrics, write_trace};
use crate::report::{run_shape, Length, Pass};
use crate::trace::{self, ClientTrace, Clock, SpanLog};
use crate::util::{pctl, ratio, ProcSample};

/// The open-loop schedule and fault plan of `sim_fault`.
#[derive(Copy, Clone, Debug)]
pub struct OpenLoop {
    /// Each client has a section due this often (virtual time).
    pub period: SimDuration,
    /// One store node (site = episode mod 3) crashes this often…
    pub crash_every: SimDuration,
    /// …and is restarted after this long.
    pub crash_for: SimDuration,
    /// The failure detector's staleness timeout — the benchmark's only
    /// override of `MusicConfig::default()`.
    pub failure_timeout: SimDuration,
}

/// One simulator workload. Client counts and the open-loop rate are part
/// of the definition.
#[derive(Copy, Clone, Debug)]
pub struct SimSpec {
    pub name: &'static str,
    /// The clients are spread round-robin over the three sites.
    pub load: Load,
    /// Measured sections per second of `--seconds`: a fixed count, so a
    /// seed replays exactly. Sized so this box simulates them in about
    /// that many seconds.
    pub sections_per_second: f64,
    pub open_loop: Option<OpenLoop>,
}

/// The simulator's network cost model: 20 µs fixed service per message and
/// 1 GB/s per node, no loss — `music_bench::bench_net_config`'s values,
/// pinned here so the benchmark does not move when a figure's calibration
/// does — plus 2 % seeded propagation jitter. Without jitter every section
/// is the same handful of fixed RTTs and the median latency reads the same
/// to the microsecond whatever the seed; with it the seed is an input.
const NET: NetConfig = NetConfig {
    service_fixed: SimDuration::from_micros(20),
    bandwidth_bytes_per_sec: 1_000_000_000,
    loss: 0.0,
    jitter_frac: 0.02,
};

const SITES: usize = 3;

fn build(spec: &SimSpec, seed: u64, recorder: Recorder) -> MusicSystem {
    let mut cfg = MusicConfig::default();
    if let Some(open) = &spec.open_loop {
        cfg.failure_timeout = open.failure_timeout;
    }
    MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(NET)
        .music_config(cfg)
        .store_nodes_per_site(1)
        .replicas_per_site(1)
        .replication_factor(3)
        .seed(seed)
        .telemetry(recorder)
        .build()
}

/// Counters the simulator keeps whether or not telemetry is on, sampled
/// at both ends of the measured phase.
struct SimCounters {
    profile: ExecutorProfile,
    msgs: u64,
    bytes: u64,
    metrics: MetricsSnapshot,
}

impl SimCounters {
    fn take(sys: &MusicSystem) -> SimCounters {
        let (msgs, bytes, _dropped) = sys.net().stats();
        SimCounters {
            profile: sys.sim().profile(),
            msgs,
            bytes,
            metrics: sys.recorder().metrics(),
        }
    }
}

fn join_all(sim: &Sim, handles: Vec<music_simnet::executor::JoinHandle<()>>) {
    let done = sim.spawn(async move {
        for h in handles {
            h.await;
        }
    });
    sim.run_until_complete(done);
}

/// One set-up and — when `sections > 0` — one measured pass. A traced
/// pass records everything the program can tell about itself; under
/// faults it also runs the streaming ECF checker, which must stay clean.
fn one_pass(
    spec: &SimSpec,
    seed: u64,
    sections: u64,
    warmup: u64,
    traced: bool,
    trace_file: Option<&std::path::Path>,
) -> Pass {
    let recorder = if traced {
        let r = Recorder::tracing();
        if spec.open_loop.is_some() {
            r.attach_online(OnlineConfig::unbounded());
        }
        r
    } else {
        Recorder::off()
    };
    one_pass_with(spec, seed, sections, warmup, recorder, traced, trace_file)
}

/// [`one_pass`] with the program's recorder chosen by the caller (the
/// `--layers` telemetry-cost loop runs untraced passes with one attached).
pub fn one_pass_with(
    spec: &SimSpec,
    seed: u64,
    sections: u64,
    warmup: u64,
    recorder: Recorder,
    traced: bool,
    trace_file: Option<&std::path::Path>,
) -> Pass {
    let t_setup = Instant::now();
    let sys = build(spec, seed, recorder);
    let sim = sys.sim().clone();
    let clock = Clock::Virtual(sim.clone());
    let log = SpanLog::new(clock.clone());
    let next_cs = Rc::new(Cell::new(0));
    let clients = spec.load.clients;
    let workers = spec.load.workers(seed, |c| {
        let trace = traced.then(|| ClientTrace::new(Rc::clone(&log), Rc::clone(&next_cs)));
        (sys.client_at_site(c % SITES), trace)
    });

    // The production machinery is part of every deployment, as in the
    // repo's nemesis runs. A contended `createLockRef` that nacks may still
    // have enqueued an orphan reference, and only `forcedRelease` collects
    // it: one watchdog per site, each watching every key. A store node that
    // was down serves stale local peeks until repaired: one anti-entropy
    // sweeper.
    let dogs: Vec<Watchdog> = (0..SITES)
        .map(|s| {
            let dog = Watchdog::new(sys.replica(s).clone(), SimDuration::from_millis(500));
            for key in workers.iter().flat_map(|w| w.keys.iter()) {
                dog.watch(key);
            }
            dog.spawn();
            dog
        })
        .collect();
    let fixer = RepairDaemon::new(sys.replica(1).clone(), SimDuration::from_secs(3));
    fixer.spawn();
    let stop_daemons = || {
        for dog in &dogs {
            dog.stop();
        }
        fixer.stop();
    };

    let setup = Rc::new(RefCell::new(Tally::default()));
    join_all(&sim, spawn_setup(&sim, &workers, &clock, warmup, &setup));
    let mut pass = Pass {
        setups_s: vec![t_setup.elapsed().as_secs_f64()],
        problems: setup.borrow().setup_problems(),
        ..Pass::default()
    };
    if sections == 0 {
        stop_daemons();
        return pass;
    }

    // Measured phase.
    log.clear();
    next_cs.set(0);
    sys.stats().reset();
    let measured_from_us = sim.true_now().as_micros();
    let start = SimCounters::take(&sys);
    let tally = Rc::new(RefCell::new(Tally::default()));
    let faults_on = Rc::new(Cell::new(true));
    let before = ProcSample::take();
    let handles = match spec.open_loop {
        None => {
            let quota = Stop::quota(sections);
            workers
                .iter()
                .map(|w| {
                    sim.spawn(closed_loop(
                        Rc::clone(w),
                        clock.clone(),
                        quota.clone(),
                        Rc::clone(&tally),
                    ))
                })
                .collect()
        }
        Some(open) => {
            spawn_faults(&sys, open, Rc::clone(&faults_on));
            let t0 = sim.now();
            workers
                .iter()
                .map(|w| {
                    // Generators are phase-shifted evenly across one period.
                    let phase = open.period.as_micros() * w.id as u64 / clients as u64;
                    sim.spawn(open_loop(
                        Rc::clone(w),
                        sim.clone(),
                        clock.clone(),
                        t0 + SimDuration::from_micros(phase),
                        open.period,
                        sections.div_ceil(clients as u64),
                        Rc::clone(&tally),
                    ))
                })
                .collect()
        }
    };
    join_all(&sim, handles);
    let after = ProcSample::take();
    let end = SimCounters::take(&sys);
    let spans = log.snapshot();

    // Heal, then check every counter under its lock.
    faults_on.set(false);
    for &node in sys.store_nodes() {
        sys.net().set_node_up(node, true);
    }
    let problems = sim.block_on(verify(sys.client_at_site(0), workers.clone()));
    stop_daemons();
    let mut tally = Rc::try_unwrap(tally)
        .ok()
        .expect("load tasks finished")
        .into_inner();
    tally.problems.extend(problems);
    let mut late = std::mem::take(&mut tally.late_ns);
    late.sort_unstable();
    let cs = tally.latencies_ns.len() as f64;
    fill_pass(&mut pass, tally, clients, &before, &after);
    if !traced {
        return pass;
    }

    span_metrics(&mut pass, &spans, cs);
    protocol_metrics(&mut pass, sys.stats(), &start.metrics, &end.metrics, cs);
    pass.set("music.late_p95_us", pctl(&late, 0.95) / 1e3);
    pass.set(
        "transport.msgs_per_cs",
        ratio((end.msgs - start.msgs) as f64, cs),
    );
    pass.set(
        "transport.bytes_per_cs",
        ratio((end.bytes - start.bytes) as f64, cs),
    );
    let (p0, p1) = (start.profile, end.profile);
    let timers_set = (p1.timers_set - p0.timers_set) as f64;
    pass.set(
        "simnet.polls_per_cs",
        ratio((p1.task_polls - p0.task_polls) as f64, cs),
    );
    pass.set("simnet.timers_set_per_cs", ratio(timers_set, cs));
    pass.set(
        "simnet.timers_cancelled_share",
        ratio(
            (p1.timers_cancelled - p0.timers_cancelled) as f64,
            timers_set,
        ),
    );
    pass.set(
        "simnet.events_per_wall_s",
        ratio(
            (p1.events() - p0.events()) as f64,
            (after.wall - before.wall).as_secs_f64(),
        ),
    );

    // The program's own phase spans, measured phase only.
    let program_spans: Vec<_> = sys
        .recorder()
        .spans()
        .into_iter()
        .filter(|s| s.start_us >= measured_from_us)
        .collect();
    let mut by_phase = durations_by_phase(&program_spans);
    let mut phase_p50 = |name: &str| {
        by_phase.get_mut(name).map_or(0.0, |v| {
            v.sort_unstable();
            pctl(v, 0.50)
        })
    };
    pass.set("music.phase.lock_enqueue_p50_us", phase_p50("lock.enqueue"));
    pass.set(
        "music.phase.lock_headwait_p50_us",
        phase_p50("lock.headWait"),
    );
    pass.set("music.phase.lock_release_p50_us", phase_p50("lock.release"));
    pass.set("music.phase.data_put_p50_us", phase_p50("data.put"));

    if let Some(report) = sys.recorder().online_report() {
        if !report.ok() {
            pass.problems.push(format!("online checker: {report}"));
        }
    }
    // About eight program spans per section: the same share of the run as
    // the harness spans the file keeps.
    let lines: Vec<String> = program_spans
        .iter()
        .take(trace::TRACE_FILE_SECTIONS as usize * 8)
        .map(|s| {
            let mut line = String::new();
            s.write_json(&mut line);
            line
        })
        .collect();
    write_trace(&mut pass, trace_file, spec.name, &clock, &spans, &lines);
    pass
}

/// The fault plan: every `crash_every`, the store node of site
/// `episode mod 3` goes down for `crash_for` and comes back.
fn spawn_faults(sys: &MusicSystem, open: OpenLoop, on: Rc<Cell<bool>>) {
    let (sim, net, nodes) = (
        sys.sim().clone(),
        sys.net().clone(),
        sys.store_nodes().to_vec(),
    );
    let quiet = SimDuration::from_micros(open.crash_every.as_micros() - open.crash_for.as_micros());
    sys.sim().spawn(async move {
        for episode in 0.. {
            sim.sleep(quiet).await;
            if !on.get() {
                break;
            }
            let node = nodes[episode % nodes.len()];
            net.set_node_up(node, false);
            sim.sleep(open.crash_for).await;
            net.set_node_up(node, true);
        }
    });
}

/// How many measured and warm-up sections `seconds` buys.
pub fn counts(spec: &SimSpec, seconds: f64) -> (u64, u64) {
    let sections = (spec.sections_per_second * seconds).round().max(1.0) as u64;
    // 5 % of the measured count, at least 400 for a full-size run.
    let floor = (400.0 * (seconds / 10.0).min(1.0)).ceil() as u64;
    (sections, (sections / 20).max(floor))
}

/// The whole run of a simulator workload (see [`run_shape`]).
pub fn run(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    trace_file: Option<&std::path::Path>,
) -> Pass {
    let (sections, warmup) = counts(spec, seconds);
    run_shape(setups, traced, |length, traced| {
        let sections = match length {
            Length::SetupOnly => 0,
            Length::Full => sections,
            Length::Half => (sections / 2).max(1),
        };
        one_pass(spec, seed, sections, warmup, traced, trace_file)
    })
}
