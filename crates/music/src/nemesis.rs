//! The nemesis: a deterministic, seeded fault-schedule engine.
//!
//! A *nemesis run* composes a randomized timeline of faults — crashes and
//! restarts (including rolling restarts), whole-site partitions,
//! *asymmetric* per-direction link cuts, loss bursts, and **gray
//! failures** (per-node service-time multipliers: the node answers, just
//! slowly) — and drives it against a randomized multi-client
//! critical-section workload while the failure detector (watchdog) and
//! anti-entropy (repair daemon) run as they would in production. Every
//! fault heals before the horizon, so each run must end with the system
//! converged and the recorded trace ECF-clean.
//!
//! Two timeline *lanes* compose faults:
//!
//! * the **node lane** — crash/restart, partitions, asymmetric cuts —
//!   runs its faults sequentially, keeping at most one node down or one
//!   site cut at a time (so a store quorum always exists and ECF-level
//!   liveness is merely *delayed*, never lost);
//! * the **degradation lane** — loss bursts and gray failures — overlaps
//!   the node lane freely, so a crash can land *while* the network drops
//!   a tenth of its packets and a surviving store node runs 8× slow.
//!
//! Everything — schedule, workload, jitter — is a pure function of the
//! `(profile, seed, mode)` triple: running the same triple twice yields
//! byte-identical event logs and metrics, which is what the replay
//! checks in `tests/` assert.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use music_simnet::combinators::timeout;
use music_simnet::executor::Sim;
use music_simnet::net::{NetConfig, Network, NodeId};
use music_simnet::time::{SimDuration, SimTime};
use music_simnet::topology::{LatencyProfile, SiteId};
use music_telemetry::{
    Event, EventKind, MetricsSnapshot, OnlineConfig, OnlineReport, Recorder, Scope,
};
use music_workload::FlashCrowd;

use crate::config::{MusicConfig, WriteMode};
use crate::error::AcquireOutcome;
use crate::repair::RepairDaemon;
use crate::replica::MusicReplica;
use crate::system::{ClockDrift, MusicSystem, MusicSystemBuilder};
use crate::watchdog::Watchdog;

/// Which client-visible protocol variant a run exercises: a nemesis run,
/// or a `music_bench::profile` series.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RunMode {
    /// Every `criticalPut` awaits its quorum ack (the paper's mode).
    Sync,
    /// Puts are pipelined with a bounded in-flight window.
    Pipelined,
    /// Clean releases retain a lease; re-entries take the fast path.
    Leased,
}

impl RunMode {
    /// All modes, in the order the CLI cycles through them.
    pub const ALL: [RunMode; 3] = [RunMode::Sync, RunMode::Pipelined, RunMode::Leased];

    /// Stable lowercase name for telemetry, CLI output and the
    /// `BENCH_*.json` mode keys.
    pub fn name(self) -> &'static str {
        match self {
            RunMode::Sync => "sync",
            RunMode::Pipelined => "pipelined",
            RunMode::Leased => "leased",
        }
    }
}

/// Parses a CLI mode name (`sync`, `pipelined` or `leased`).
impl std::str::FromStr for RunMode {
    type Err = ();

    fn from_str(s: &str) -> Result<RunMode, ()> {
        RunMode::ALL.into_iter().find(|m| m.name() == s).ok_or(())
    }
}

/// The clock-drift lane: a standing, whole-run fault giving every MUSIC
/// replica a seeded skewed clock (|skew| ≤ `max_skew` for the run), while
/// the protocol's drift-safe lease guards assume an uncertainty bound of
/// `epsilon` ([`MusicConfig::clock_epsilon`]).
///
/// With `max_skew <= epsilon` every schedule must stay ECF-clean with a
/// clean queue refinement; `max_skew > epsilon` is the documented unsafe
/// region (see [`run_drift_unsafe_demo`]).
#[derive(Copy, Clone, Debug)]
pub struct DriftLane {
    /// Per-replica skew budget over the run.
    pub max_skew: SimDuration,
    /// The ε the lease guards are configured with.
    pub epsilon: SimDuration,
}

/// Tunables of one nemesis run. The defaults are what the CLI and CI use.
#[derive(Clone, Debug)]
pub struct NemesisOptions {
    /// Write-path variant under test.
    pub mode: RunMode,
    /// Concurrent workload clients (each homed at a seeded random site).
    pub clients: usize,
    /// Critical sections each client attempts.
    pub sections_per_client: usize,
    /// Distinct keys the workload contends over.
    pub keys: usize,
    /// Faults drawn for the node lane.
    pub node_faults: usize,
    /// Faults drawn for the degradation lane.
    pub degradation_faults: usize,
    /// Clock-drift lane (`None` keeps every node on true virtual time).
    pub drift: Option<DriftLane>,
    /// Flash-crowd lane: the middle half of every client's sections
    /// converges on one hot key (a [`music_workload::FlashCrowd`]
    /// schedule), and the clients run with the contention-adaptive
    /// controller enabled — so strategy switches, enqueue combining, and
    /// lease-retention suspension are all exercised *while* the other
    /// lanes crash nodes, cut sites, and drift clocks.
    pub flash_crowd: bool,
}

impl NemesisOptions {
    /// Default options for `mode`.
    pub fn new(mode: RunMode) -> Self {
        NemesisOptions {
            mode,
            clients: 3,
            sections_per_client: 4,
            keys: 2,
            node_faults: 4,
            degradation_faults: 2,
            drift: None,
            flash_crowd: false,
        }
    }

    /// These options with the clock-drift lane enabled.
    #[must_use]
    pub fn with_drift(mut self, max_skew: SimDuration, epsilon: SimDuration) -> Self {
        self.drift = Some(DriftLane { max_skew, epsilon });
        self
    }

    /// These options with the flash-crowd lane enabled (hot-key workload
    /// plus the contention-adaptive controller).
    #[must_use]
    pub fn with_flash_crowd(mut self) -> Self {
        self.flash_crowd = true;
        self
    }
}

/// One planned fault: what to inject, when, and for how long.
#[derive(Clone, Debug)]
enum Fault {
    /// A node goes down, then restarts.
    Crash { node: NodeId },
    /// Every store node restarts in turn, one at a time.
    RollingRestart,
    /// A whole site is isolated, then healed.
    PartitionSite { site: u32 },
    /// One *direction* of a site pair is cut (messages from `from` to
    /// `to` vanish; the reverse direction still delivers).
    AsymLink { from: u32, to: u32 },
    /// The network-wide iid loss rate spikes.
    LossBurst { loss: f64 },
    /// A node keeps answering, `mult`× slower (gray failure).
    GrayNode { node: NodeId, mult: f64 },
}

#[derive(Clone, Debug)]
struct PlannedFault {
    start: SimTime,
    duration: SimDuration,
    fault: Fault,
}

impl PlannedFault {
    fn describe(&self) -> String {
        let (kind, target, param) = self.telemetry_triple();
        format!(
            "{}us +{}us {} {} param={}",
            self.start.as_micros(),
            self.duration.as_micros(),
            kind,
            target,
            param
        )
    }

    /// `(fault, target, param)` as recorded in `FaultInject` events.
    fn telemetry_triple(&self) -> (&'static str, String, u64) {
        match &self.fault {
            Fault::Crash { node } => ("crash", format!("n{}", node.0), 0),
            Fault::RollingRestart => ("rollingRestart", "stores".to_string(), 0),
            Fault::PartitionSite { site } => ("partitionSite", format!("site{site}"), 0),
            Fault::AsymLink { from, to } => ("asymLink", format!("site{from}->site{to}"), 0),
            Fault::LossBurst { loss } => {
                ("lossBurst", "net".to_string(), (loss * 1_000_000.0) as u64)
            }
            Fault::GrayNode { node, mult } => {
                ("grayNode", format!("n{}", node.0), (mult * 1_000.0) as u64)
            }
        }
    }
}

/// Everything one nemesis run produces.
#[derive(Debug)]
pub struct NemesisRun {
    /// Human-readable fault schedule, in injection order.
    pub schedule: Vec<String>,
    /// Per-client workload outcome lines, in client order.
    pub outcomes: Vec<String>,
    /// Critical sections that completed cleanly (entered and released).
    pub sections_ok: u64,
    /// Critical sections abandoned to the failure detector.
    pub sections_abandoned: u64,
    /// Final virtual time, in microseconds.
    pub final_time_us: u64,
    /// The recorded event log (empty unless the recorder was tracing).
    pub events: Vec<Event>,
    /// Counter/histogram snapshot (empty if the recorder was off).
    pub metrics: MetricsSnapshot,
    /// The verdict — ECF plus the lock-queue refinement — computed by the
    /// checker *during* the run (empty unless the recorder was tracing).
    pub report: OnlineReport,
}

/// Draws the node-lane schedule: sequential, gap-separated faults so at
/// most one node is down (or one site cut) at any instant.
fn plan_node_lane(
    rng: &mut SmallRng,
    sys: &MusicSystem,
    sites: usize,
    count: usize,
) -> Vec<PlannedFault> {
    let mut at = SimTime::from_micros(rng.gen_range(200_000..800_000));
    let mut plan = Vec::with_capacity(count);
    for _ in 0..count {
        let duration = SimDuration::from_micros(rng.gen_range(1_500_000..4_000_000));
        let fault = match rng.gen_range(0..6u32) {
            0 => Fault::Crash {
                node: sys.store_nodes()[rng.gen_range(0..sys.store_nodes().len())],
            },
            1 => Fault::Crash {
                node: sys.replicas()[rng.gen_range(0..sys.replicas().len())].node(),
            },
            2 => Fault::RollingRestart,
            3 => Fault::PartitionSite {
                site: rng.gen_range(0..sites as u32),
            },
            _ => {
                let from = rng.gen_range(0..sites as u32);
                let mut to = rng.gen_range(0..sites as u32);
                if to == from {
                    to = (to + 1) % sites as u32;
                }
                Fault::AsymLink { from, to }
            }
        };
        plan.push(PlannedFault {
            start: at,
            duration,
            fault,
        });
        // Heal-to-next-fault gap: long enough for retries and the
        // watchdog to drain the previous fault's fallout.
        at = at + duration + SimDuration::from_micros(rng.gen_range(800_000..2_000_000));
    }
    plan
}

/// Draws the degradation lane: loss bursts and gray nodes, free to
/// overlap the node lane.
fn plan_degradation_lane(rng: &mut SmallRng, sys: &MusicSystem, count: usize) -> Vec<PlannedFault> {
    let mut at = SimTime::from_micros(rng.gen_range(400_000..1_200_000));
    let mut plan = Vec::with_capacity(count);
    for _ in 0..count {
        let duration = SimDuration::from_micros(rng.gen_range(2_000_000..5_000_000));
        let fault = if rng.gen_bool(0.5) {
            Fault::LossBurst {
                loss: rng.gen_range(0.02..0.10),
            }
        } else {
            let all: Vec<NodeId> = sys
                .store_nodes()
                .iter()
                .copied()
                .chain(sys.replicas().iter().map(|r| r.node()))
                .collect();
            Fault::GrayNode {
                node: all[rng.gen_range(0..all.len())],
                mult: rng.gen_range(3.0..10.0),
            }
        };
        plan.push(PlannedFault {
            start: at,
            duration,
            fault,
        });
        at = at + duration + SimDuration::from_micros(rng.gen_range(500_000..1_500_000));
    }
    plan
}

fn record_fault(net: &Network, fault: &'static str, target: String, param: u64, heal: bool) {
    let rec = net.recorder();
    rec.count(
        Scope::Global,
        if heal {
            "nemesis_heals"
        } else {
            "nemesis_faults"
        },
        1,
    );
    let kind = || {
        if heal {
            EventKind::FaultHeal { fault, target }
        } else {
            EventKind::FaultInject {
                fault,
                target,
                param,
            }
        }
    };
    rec.record(net.sim().now().as_micros(), 0, u32::MAX, kind);
}

/// Applies `pf` (inject at `pf.start`, heal `pf.duration` later).
async fn apply_fault(sim: &Sim, net: &Network, sys: &MusicSystem, pf: &PlannedFault) {
    sim.sleep_until(pf.start).await;
    let (kind, target, param) = pf.telemetry_triple();
    match &pf.fault {
        Fault::Crash { node } => {
            record_fault(net, kind, target.clone(), param, false);
            net.set_node_up(*node, false);
            sim.sleep(pf.duration).await;
            net.set_node_up(*node, true);
        }
        Fault::RollingRestart => {
            record_fault(net, kind, target.clone(), param, false);
            let nodes = sys.store_nodes().to_vec();
            let step = SimDuration::from_micros(
                (pf.duration.as_micros() / (2 * nodes.len() as u64)).max(1),
            );
            for node in nodes {
                net.set_node_up(node, false);
                sim.sleep(step).await;
                net.set_node_up(node, true);
                sim.sleep(step).await;
            }
        }
        Fault::PartitionSite { site } => {
            record_fault(net, kind, target.clone(), param, false);
            net.partition_site(SiteId(*site), true);
            sim.sleep(pf.duration).await;
            net.partition_site(SiteId(*site), false);
        }
        Fault::AsymLink { from, to } => {
            record_fault(net, kind, target.clone(), param, false);
            net.partition_direction(SiteId(*from), SiteId(*to), false);
            sim.sleep(pf.duration).await;
            net.partition_direction(SiteId(*from), SiteId(*to), true);
        }
        Fault::LossBurst { loss } => {
            record_fault(net, kind, target.clone(), param, false);
            let before = net.loss();
            net.set_loss(*loss);
            sim.sleep(pf.duration).await;
            net.set_loss(before);
        }
        Fault::GrayNode { node, mult } => {
            record_fault(net, kind, target.clone(), param, false);
            net.set_service_multiplier(*node, *mult);
            sim.sleep(pf.duration).await;
            net.set_service_multiplier(*node, 1.0);
        }
    }
    record_fault(net, kind, target, param, true);
}

/// One workload client: a loop of bounded critical sections over a small
/// contended keyspace. Every failure path is tolerated — an error
/// abandons the section to the watchdog and moves on — because under the
/// nemesis *liveness* is the operating system's job; the run's verdict
/// is the checker's.
async fn run_client(
    sys: MusicSystem,
    client_id: usize,
    mode: RunMode,
    sections: usize,
    keys: usize,
    seed: u64,
    flash_crowd: bool,
) -> (u64, u64, String) {
    let sim = sys.sim().clone();
    let mut rng = SmallRng::seed_from_u64(seed ^ (client_id as u64).wrapping_mul(0x9E37));
    let site = rng.gen_range(0..sys.replicas().len());
    let mut client = sys.client_at_site(site);
    match mode {
        RunMode::Sync => {}
        RunMode::Pipelined => {
            client = client.with_write_mode(WriteMode::Pipelined { window: 4 });
        }
        RunMode::Leased => {
            client = client.with_lease_window(SimDuration::from_secs(2));
        }
    }
    // Flash-crowd lane: the middle half of each client's sections lands
    // on the hot key k0 (every client's crowd window coincides, measured
    // in section counts), the rest stay background-uniform.
    let mut crowd = flash_crowd.then(|| {
        FlashCrowd::new(
            keys as u64,
            sections as u64 / 4,
            sections as u64 / 2,
            seed ^ (client_id as u64).wrapping_mul(0xF1A5),
        )
    });
    let mut ok = 0u64;
    let mut abandoned = 0u64;
    for section in 0..sections {
        let key = match crowd.as_mut() {
            Some(fc) => format!("k{}", fc.next_key()),
            None => format!("k{}", rng.gen_range(0..keys)),
        };
        // Stagger entries so clients contend but not in lockstep.
        sim.sleep(SimDuration::from_micros(rng.gen_range(50_000..600_000)))
            .await;
        // Entry is bounded: a section the nemesis makes unenterable for
        // 30 virtual seconds is abandoned, like a timing-out app would.
        let entered = timeout(&sim, SimDuration::from_secs(30), client.enter(&key)).await;
        let cs = match entered {
            Ok(Ok(cs)) => cs,
            Ok(Err(_)) | Err(_) => {
                abandoned += 1;
                continue;
            }
        };
        let mut failed = false;
        let puts = rng.gen_range(1..4u32);
        for p in 0..puts {
            let value = Bytes::from(format!("c{client_id}-s{section}-p{p}").into_bytes());
            let res = timeout(&sim, SimDuration::from_secs(30), cs.put(value)).await;
            if !matches!(res, Ok(Ok(()))) {
                failed = true;
                break;
            }
        }
        if !failed && rng.gen_bool(0.5) {
            let res = timeout(&sim, SimDuration::from_secs(30), cs.get()).await;
            failed = !matches!(res, Ok(Ok(_)));
        }
        if failed {
            // Abandon: drop the guard; the watchdog preempts and the
            // next holder resynchronizes (§IV-B).
            drop(cs);
            abandoned += 1;
            continue;
        }
        match timeout(&sim, SimDuration::from_secs(30), cs.release()).await {
            Ok(Ok(())) => ok += 1,
            Ok(Err(_)) | Err(_) => abandoned += 1,
        }
    }
    let line = format!("client {client_id} @site{site}: {ok} ok, {abandoned} abandoned");
    (ok, abandoned, line)
}

/// Runs one seeded nemesis schedule against one workload and returns the
/// recorded telemetry plus the checker's verdict.
///
/// Deterministic: the same `(profile, seed, options.mode)` triple always
/// produces the identical schedule, workload, event log, and metrics.
pub fn run_nemesis(
    profile: LatencyProfile,
    seed: u64,
    options: NemesisOptions,
    recorder: Recorder,
) -> NemesisRun {
    // Check the run as it executes: attach the streaming checker unless
    // the caller already configured one.
    if recorder.is_tracing() && recorder.online_report().is_none() {
        recorder.attach_online(OnlineConfig::unbounded());
    }
    let net_cfg = NetConfig {
        loss: 0.005,
        jitter_frac: 0.05,
        ..NetConfig::default()
    };
    let music_cfg = MusicConfig {
        // Tight enough that abandoned sections clear within a run.
        failure_timeout: SimDuration::from_secs(4),
        breaker_cooldown: SimDuration::from_millis(500),
        clock_epsilon: options.drift.map_or(SimDuration::ZERO, |d| d.epsilon),
        adaptive: options.flash_crowd,
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(profile.clone())
        .net_config(net_cfg)
        .music_config(music_cfg)
        .seed(seed)
        .telemetry(recorder.clone())
        .clock_drift(options.drift.map(|d| ClockDrift::bounded(d.max_skew)))
        .build();
    let sim = sys.sim().clone();
    let sites = profile.site_count();

    // The drift lane is a standing fault: every replica's clock is skewed
    // for the whole run, recorded up front (one inject per drifted node,
    // never healed — skew does not go away).
    if let Some(d) = options.drift {
        for r in sys.replicas() {
            record_fault(
                sys.net(),
                "clockDrift",
                format!("n{}", r.node().0),
                d.max_skew.as_micros(),
                false,
            );
        }
    }

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x004E_454D_4553_4953); // "NEMESIS"
    let node_lane = plan_node_lane(&mut rng, &sys, sites, options.node_faults);
    let degradation_lane = plan_degradation_lane(&mut rng, &sys, options.degradation_faults);
    let mut schedule: Vec<String> = node_lane
        .iter()
        .chain(degradation_lane.iter())
        .map(PlannedFault::describe)
        .collect();
    if let Some(d) = options.drift {
        schedule.insert(
            0,
            format!(
                "0us standing clockDrift all-replicas max_skew={}us epsilon={}us",
                d.max_skew.as_micros(),
                d.epsilon.as_micros()
            ),
        );
    }
    if options.flash_crowd {
        schedule.insert(
            0,
            format!(
                "0us standing flashCrowd all-clients hot-key=k0 \
                 crowd-sections={}..{} adaptive-controller=on",
                options.sections_per_client / 4,
                options.sections_per_client / 4 + options.sections_per_client / 2
            ),
        );
    }

    let sys2 = sys.clone();
    let (sections_ok, sections_abandoned, outcomes) = sim.block_on(async move {
        let sim = sys2.sim().clone();
        let net = sys2.net().clone();

        // Production machinery: one watchdog per site replica watching
        // every workload key, plus a periodic anti-entropy sweeper.
        let dog = Watchdog::new(sys2.replica(0).clone(), SimDuration::from_millis(500));
        for k in 0..options.keys {
            dog.watch(&format!("k{k}"));
        }
        dog.spawn();
        let fixer = RepairDaemon::new(sys2.replica(1).clone(), SimDuration::from_secs(3));
        fixer.spawn();

        // The nemesis lanes.
        let sys_a = sys2.clone();
        let net_a = net.clone();
        let sim_a = sim.clone();
        let lane_a = sim.spawn(async move {
            for pf in &node_lane {
                apply_fault(&sim_a, &net_a, &sys_a, pf).await;
            }
        });
        let sys_b = sys2.clone();
        let net_b = net.clone();
        let sim_b = sim.clone();
        let lane_b = sim.spawn(async move {
            for pf in &degradation_lane {
                apply_fault(&sim_b, &net_b, &sys_b, pf).await;
            }
        });

        // The workload.
        let mut handles = Vec::new();
        for c in 0..options.clients {
            handles.push(sim.spawn(run_client(
                sys2.clone(),
                c,
                options.mode,
                options.sections_per_client,
                options.keys,
                seed,
                options.flash_crowd,
            )));
        }
        let mut ok = 0u64;
        let mut abandoned = 0u64;
        let mut outcomes = Vec::new();
        for h in handles {
            let (o, a, line) = h.await;
            ok += o;
            abandoned += a;
            outcomes.push(line);
        }
        lane_a.await;
        lane_b.await;
        // Let the watchdog clear any section abandoned at the very end,
        // then one final sweep so the run ends converged.
        sim.sleep(SimDuration::from_secs(8)).await;
        fixer.stop();
        fixer.sweep_once().await;
        dog.stop();
        (ok, abandoned, outcomes)
    });

    let final_time_us = sys.sim().now().as_micros();
    let events = recorder.events();
    let metrics = recorder.metrics();
    let report = recorder.online_report().unwrap_or_default();
    NemesisRun {
        schedule,
        outcomes,
        sections_ok,
        sections_abandoned,
        final_time_us,
        events,
        metrics,
        report,
    }
}

/// Everything the scripted beyond-ε demonstration produces (see
/// [`run_drift_unsafe_demo`]).
#[derive(Debug)]
pub struct DriftDemo {
    /// Lease revocations the (true-clock) watchdog issued: 1 in every
    /// region — the revocation itself is always legitimate.
    pub revocations: u64,
    /// Outcome names of the holder's two claim attempts, in order.
    pub claim_outcomes: Vec<&'static str>,
    /// `leaseDriftReject{guard:"claim"}` events recorded: the ε guard
    /// turning away a claim that fell inside the uncertainty margin.
    pub claim_drift_rejects: u64,
    /// The recorded event log (empty unless the recorder was tracing).
    pub events: Vec<Event>,
    /// Counter snapshot.
    pub metrics: MetricsSnapshot,
    /// The verdict. Its ECF core is clean in *every* region: end-to-end
    /// ECF excuses the resurrection as a zombie grant (`v2s` domination
    /// keeps the data plane safe), which is exactly why the queue layer
    /// exists — in the unsafe region it records a `re-grant of collected
    /// reference` violation.
    pub report: OnlineReport,
    /// Final virtual time, in microseconds.
    pub final_time_us: u64,
}

/// The documented unsafe region, demonstrated deterministically.
///
/// Script: a holder whose clock runs `holder_slow_by` behind true time
/// mints a 1 s lease on its own (slow) clock; the revocation's propagation
/// toward the holder's site is frozen (an asymmetric cut standing in for
/// the WAN commit-propagation window); past `until + ε` a true-clock
/// watchdog at another site legitimately revokes the unclaimed lease; the
/// holder then re-claims twice off its stale local view.
///
/// * `holder_slow_by` well beyond `2ε` (plus the revocation's quorum
///   latency): the ε claim guard passes, the collected reference is
///   resurrected, and the second claim's grant announcement is flagged by
///   the lock-queue refinement (`re-grant of collected reference`).
/// * `holder_slow_by` within the ε envelope: the guard rejects the claim
///   — inside the margin with a `leaseDriftReject` event, beyond it as a
///   plain expiry — and every verdict stays clean.
///
/// Deterministic: identical arguments replay byte-identical event logs.
pub fn run_drift_unsafe_demo(
    holder_slow_by: SimDuration,
    epsilon: SimDuration,
    recorder: Recorder,
) -> DriftDemo {
    if recorder.is_tracing() && recorder.online_report().is_none() {
        recorder.attach_online(OnlineConfig::unbounded());
    }
    let music_cfg = MusicConfig {
        failure_timeout: SimDuration::from_secs(4),
        clock_epsilon: epsilon,
        ..MusicConfig::default()
    };
    let sys = MusicSystemBuilder::new()
        .profile(LatencyProfile::one_us())
        .net_config(NetConfig {
            loss: 0.0,
            jitter_frac: 0.0,
            ..NetConfig::default()
        })
        .music_config(music_cfg)
        .seed(7)
        .telemetry(recorder.clone())
        .build();
    let sim = sys.sim().clone();
    // The holder's replica, re-created over a clock running
    // `holder_slow_by` behind true virtual time (a pure offset: the worst
    // case for the claim guard, and the easiest to reason about).
    let base = sys.replica(0).clone();
    let slow_rt = sim.with_drift(music_simnet::clock::DriftSpec {
        offset_us: -(holder_slow_by.as_micros() as i64),
        ..music_simnet::clock::DriftSpec::NONE
    });
    let slow = MusicReplica::with_runtime(
        base.node(),
        slow_rt,
        base.site(),
        sys.recorder(),
        sys.locks().clone(),
        sys.data().clone(),
        base.config().clone(),
        sys.stats().clone(),
    );
    let sys2 = sys.clone();
    let (revocations, claim_outcomes) = sim.block_on(async move {
        let net = sys2.net().clone();
        let sim = sys2.sim().clone();
        let key = "drift-demo";
        // One clean leased section through the slow replica: the clean
        // release mints the successor lease on the holder's slow clock,
        // so `until` lands `holder_slow_by` early in true time.
        let r1 = slow.create_lock_ref(key).await.expect("enqueue");
        loop {
            match slow.acquire_lock(key, r1).await.expect("acquire") {
                AcquireOutcome::Acquired => break,
                _ => sim.sleep(SimDuration::from_millis(5)).await,
            }
        }
        slow.critical_put(key, r1, Bytes::from_static(b"v1"))
            .await
            .expect("put");
        let grant = slow
            .release_lock_leased(key, r1, SimDuration::from_secs(1))
            .await
            .expect("release")
            .expect("lease retained");
        // Freeze the revocation's propagation toward the holder's site:
        // messages from site 1 (the watchdog's) to site 0 vanish, so the
        // holder's local lock-store view keeps the lease at head — the
        // WAN commit-propagation window, stretched wide enough to script
        // against.
        net.partition_direction(SiteId(1), SiteId(0), false);
        // Past `until + ε`, a true-clock watchdog at site 1 legitimately
        // revokes the unclaimed lease.
        sim.sleep_until(grant.until + epsilon + SimDuration::from_millis(5))
            .await;
        let dog = Watchdog::new(sys2.replica(1).clone(), SimDuration::from_millis(100));
        dog.watch(key);
        dog.scan_once().await;
        // The slow holder re-claims off its stale local view, twice (the
        // claim is idempotent for a live lease, so a duplicate winning
        // poll is ordinarily benign — on a collected reference it is the
        // resurrection's detectable footprint).
        let mut claims = Vec::new();
        for _ in 0..2 {
            let outcome = slow.lease_reenter(key, grant.lock_ref).await;
            claims.push(match outcome {
                Ok(AcquireOutcome::Acquired) => "acquired",
                Ok(AcquireOutcome::NotYet) => "notYet",
                Ok(AcquireOutcome::NoLongerHolder) => "noLongerHolder",
                Err(_) => "error",
            });
            sim.sleep(SimDuration::from_millis(1)).await;
        }
        // Heal and let the stores converge before the verdict.
        net.partition_direction(SiteId(1), SiteId(0), true);
        sim.sleep(SimDuration::from_secs(1)).await;
        (dog.lease_revocations(), claims)
    });
    let final_time_us = sys.sim().now().as_micros();
    let events = recorder.events();
    let claim_drift_rejects = events
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                EventKind::LeaseDriftReject { guard, .. } if *guard == "claim"
            )
        })
        .count() as u64;
    let metrics = recorder.metrics();
    let report = recorder.online_report().unwrap_or_default();
    DriftDemo {
        revocations,
        claim_outcomes,
        claim_drift_rejects,
        events,
        metrics,
        report,
        final_time_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic() {
        let sys = MusicSystemBuilder::new().build();
        let sites = 3;
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let pa: Vec<String> = plan_node_lane(&mut a, &sys, sites, 5)
            .iter()
            .map(PlannedFault::describe)
            .collect();
        let pb: Vec<String> = plan_node_lane(&mut b, &sys, sites, 5)
            .iter()
            .map(PlannedFault::describe)
            .collect();
        assert_eq!(pa, pb);
        let mut c = SmallRng::seed_from_u64(10);
        let pc: Vec<String> = plan_node_lane(&mut c, &sys, sites, 5)
            .iter()
            .map(PlannedFault::describe)
            .collect();
        assert_ne!(pa, pc, "different seeds draw different schedules");
    }

    #[test]
    fn node_lane_faults_never_overlap() {
        let sys = MusicSystemBuilder::new().build();
        let mut rng = SmallRng::seed_from_u64(1234);
        let plan = plan_node_lane(&mut rng, &sys, 3, 8);
        for w in plan.windows(2) {
            assert!(
                w[0].start + w[0].duration < w[1].start,
                "node-lane faults must be gap-separated: {:?}",
                w
            );
        }
    }

    #[test]
    fn run_modes_parse_and_name_round_trip() {
        for m in RunMode::ALL {
            assert_eq!(m.name().parse(), Ok(m));
        }
        assert_eq!("bogus".parse::<RunMode>(), Err(()));
    }
}
