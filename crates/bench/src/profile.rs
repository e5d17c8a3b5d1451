//! Seeded span-profiling workloads and the canonical `BENCH_*.json`
//! trajectory.
//!
//! `run_mode_profile` drives a fixed multi-site critical-section workload
//! through the client API with a *tracing* recorder installed, so every
//! section produces a full span tree (see `music_telemetry::span`). The
//! per-phase latency decomposition, the simulator's executor profile, the
//! protocol counters, and the per-site grant-wait fairness histograms are
//! then folded into one deterministic JSON artifact by [`bench_json`].
//!
//! Everything in the artifact is derived from **virtual time**, so two
//! replays of the same seed emit byte-identical files — which is what
//! makes the artifact a committable baseline. The gate is byte equality:
//! `tests/profile_bench.rs` renders the default workload over
//! [`ModeKey::ALL`] and requires it to equal `BENCH_baseline.json`, so a
//! change that moves the schedule regenerates the file
//! (`music-sim profile --seed 7 --mode all`) and its diff is the change's
//! cost, per mode.

use std::fmt::Write as _;

use bytes::Bytes;

use music::{MusicSystemBuilder, OpKind};
use music_simnet::executor::ExecutorProfile;
use music_simnet::time::SimDuration;
use music_simnet::topology::LatencyProfile;
use music_telemetry::span::{check, durations_by_phase};
use music_telemetry::{OnlineConfig, OnlineReport, Recorder, Scope, Span, SpanReport};
use music_workload::sweep::payload;

use crate::setup::{bench_music_config, bench_net_config, Mode};

/// Which write-mode series a profile run exercises.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ModeKey {
    /// Synchronous quorum criticalPuts (`Mode::Music`).
    Sync,
    /// Pipelined criticalPuts, window 8 (`Mode::MusicPipelined`).
    Pipelined,
    /// Lease-cached re-entry, 60 s window (`Mode::MusicLeased`).
    Leased,
}

impl ModeKey {
    /// All three series, canonical order.
    pub const ALL: [ModeKey; 3] = [ModeKey::Sync, ModeKey::Pipelined, ModeKey::Leased];

    /// The stable key this series uses in `BENCH_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            ModeKey::Sync => "sync",
            ModeKey::Pipelined => "pipelined",
            ModeKey::Leased => "leased",
        }
    }

    /// Parses a `--mode` operand (`all` is handled by the caller).
    pub fn parse(s: &str) -> Option<ModeKey> {
        match s {
            "sync" => Some(ModeKey::Sync),
            "pipelined" => Some(ModeKey::Pipelined),
            "leased" => Some(ModeKey::Leased),
            _ => None,
        }
    }

    /// The benchmark [`Mode`] this series runs under.
    pub fn mode(self) -> Mode {
        match self {
            ModeKey::Sync => Mode::Music,
            ModeKey::Pipelined => Mode::MusicPipelined(8),
            ModeKey::Leased => Mode::MusicLeased(60_000_000),
        }
    }
}

/// Workload parameters of one profile run. The defaults are the canonical
/// `BENCH_baseline.json` workload; tests shrink them.
#[derive(Clone, Debug)]
pub struct ProfileOptions {
    /// Determinism seed.
    pub seed: u64,
    /// Client tasks per site (the first client of each site contends on
    /// one shared hot key; the rest work private keys).
    pub clients_per_site: usize,
    /// Critical sections per client.
    pub sections_per_client: usize,
    /// criticalPuts per section (one criticalGet rides along).
    pub puts_per_section: usize,
    /// Value payload bytes.
    pub value_size: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            seed: 7,
            clients_per_site: 2,
            sections_per_client: 3,
            puts_per_section: 4,
            value_size: 16,
        }
    }
}

impl ProfileOptions {
    /// A reduced workload for fast tests (1 client/site, 2 sections).
    pub fn quick(seed: u64) -> Self {
        ProfileOptions {
            seed,
            clients_per_site: 1,
            sections_per_client: 2,
            puts_per_section: 2,
            ..ProfileOptions::default()
        }
    }
}

/// Order statistics of one phase's closed-span durations (virtual µs).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Closed spans observed.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile — the starvation tail far sites show first.
    pub p999_us: u64,
    /// Largest sample.
    pub max_us: u64,
}

impl PhaseStats {
    /// Nearest-rank order statistics over `samples`.
    pub fn from_samples(mut samples: Vec<u64>) -> PhaseStats {
        samples.sort_unstable();
        let pctl = |q: f64| -> u64 {
            if samples.is_empty() {
                return 0;
            }
            let rank = ((samples.len() as f64) * q).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        PhaseStats {
            count: samples.len() as u64,
            p50_us: pctl(0.50),
            p95_us: pctl(0.95),
            p99_us: pctl(0.99),
            p999_us: pctl(0.999),
            max_us: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Per-site lock-grant fairness: how long this site's clients waited from
/// section entry to grant.
#[derive(Clone, Debug)]
pub struct SiteGrantStats {
    /// Site index.
    pub site: u32,
    /// Sections this site's clients entered.
    pub entered: u64,
    /// Grant-wait distribution (virtual µs).
    pub wait: PhaseStats,
}

/// Everything one mode's profile run produced.
#[derive(Clone, Debug)]
pub struct ModeProfile {
    /// Which series.
    pub key: ModeKey,
    /// Final virtual time (µs) — the denominator of every rate.
    pub virtual_us: u64,
    /// Critical sections completed.
    pub sections: u64,
    /// Protocol operations completed (every [`OpKind`] except the
    /// whole-section aggregate).
    pub protocol_ops: u64,
    /// Simulator executor hot-path profile.
    pub executor: ExecutorProfile,
    /// Selected protocol counter totals, in fixed order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-phase latency decomposition, taxonomy order.
    pub phases: Vec<(&'static str, PhaseStats)>,
    /// Per-site grant-wait fairness rows.
    pub sites: Vec<SiteGrantStats>,
    /// Span well-formedness verdict.
    pub span_report: SpanReport,
    /// The raw span log (for Chrome-trace export and tests).
    pub spans: Vec<Span>,
    /// The checker's verdict (ECF plus the lock-queue refinement),
    /// computed while the workload ran.
    pub report: OnlineReport,
}

/// Counter totals every BENCH artifact carries, in emission order.
const BENCH_COUNTERS: [&str; 10] = [
    "lock_grants",
    "lease_grants",
    "lease_breaks",
    "sections_entered",
    "quorum_writes",
    "quorum_reads",
    "lwt_retries",
    "pipelined_puts",
    "cs_flushes",
    "msgs_delivered",
];

/// Runs the canonical profile workload for one mode and collects its
/// span, counter, and executor telemetry.
///
/// The workload is closed-form: `3 * clients_per_site` clients (the 1Us
/// profile has three sites), the first client of every site contending on
/// one shared `hot` key — that cross-site queue is what exposes per-site
/// grant-latency fairness — and the rest working private keys. Every
/// section does `puts_per_section` criticalPuts and one criticalGet.
pub fn run_mode_profile(key: ModeKey, opts: &ProfileOptions) -> ModeProfile {
    let profile = LatencyProfile::one_us();
    let sites = profile.site_count();
    let recorder = Recorder::tracing();
    recorder.attach_online(OnlineConfig::unbounded());
    let sys = MusicSystemBuilder::new()
        .profile(profile)
        .net_config(bench_net_config())
        .music_config(bench_music_config(key.mode()))
        .store_nodes_per_site(1)
        .replicas_per_site(1)
        .replication_factor(3)
        .seed(opts.seed)
        .telemetry(recorder)
        .build();
    let sim = sys.sim().clone();
    let value = Bytes::from(payload(opts.value_size));

    let mut handles = Vec::new();
    for t in 0..sites * opts.clients_per_site {
        let site = t % sites;
        let key_name = if t < sites {
            "hot".to_string()
        } else {
            format!("key-{t}")
        };
        let client = sys.client_at_site(site);
        let sim2 = sim.clone();
        let value = value.clone();
        let sections = opts.sections_per_client;
        let puts = opts.puts_per_section;
        let leased = key == ModeKey::Leased;
        let stagger = SimDuration::from_micros((t as u64 * 7919) % 50_000);
        handles.push(sim.spawn(async move {
            sim2.sleep(stagger).await;
            for _ in 0..sections {
                let cs = loop {
                    match client.enter(&key_name).await {
                        Ok(cs) => break cs,
                        // Contended enqueue LWTs can nack transiently.
                        Err(_) => sim2.sleep(SimDuration::from_millis(5)).await,
                    }
                };
                for _ in 0..puts {
                    let mut acked = false;
                    for _ in 0..20 {
                        if cs.put(value.clone()).await.is_ok() {
                            acked = true;
                            break;
                        }
                        sim2.sleep(SimDuration::from_millis(1)).await;
                    }
                    assert!(acked, "profile put kept failing on a loss-free net");
                }
                let mut read = false;
                for _ in 0..20 {
                    if cs.get().await.is_ok() {
                        read = true;
                        break;
                    }
                    sim2.sleep(SimDuration::from_millis(1)).await;
                }
                assert!(read, "profile get kept failing on a loss-free net");
                cs.release().await.expect("loss-free release");
            }
            if leased {
                // Surrender the standing lease so the hot-key queue drains.
                let _ = client.relinquish(&key_name).await;
            }
        }));
    }
    let done = sim.spawn(async move {
        for h in handles {
            h.await;
        }
    });
    sim.run_until_complete(done);

    let snapshot = sys.recorder().metrics();
    let spans = sys.recorder().spans();
    let span_report = check(&spans);
    let report = sys
        .recorder()
        .online_report()
        .expect("streaming checker attached above");
    let phases = durations_by_phase(&spans)
        .into_iter()
        .map(|(name, samples)| (name, PhaseStats::from_samples(samples)))
        .collect();
    let site_rows = (0..sites as u32)
        .map(|s| SiteGrantStats {
            site: s,
            entered: snapshot.get(Scope::Site(s), "sections_entered"),
            wait: PhaseStats::from_samples(
                snapshot
                    .histogram(Scope::Site(s), "grant_wait_us")
                    .map(|h| h.samples.clone())
                    .unwrap_or_default(),
            ),
        })
        .collect();
    let stats = sys.stats();
    let protocol_ops = OpKind::ALL
        .iter()
        .filter(|k| **k != OpKind::CriticalSection)
        .map(|&k| stats.count(k) as u64)
        .sum();
    ModeProfile {
        key,
        virtual_us: sim.now().as_micros(),
        sections: stats.count(OpKind::CriticalSection) as u64,
        protocol_ops,
        executor: sim.profile(),
        counters: BENCH_COUNTERS
            .iter()
            .map(|&name| (name, snapshot.total(name)))
            .collect(),
        phases,
        sites: site_rows,
        span_report,
        spans,
        report,
    }
}

/// Per-virtual-second rate, rendered with fixed precision so the JSON is
/// byte-stable for fixed inputs.
fn rate(count: u64, virtual_us: u64) -> String {
    if virtual_us == 0 {
        return "0.000".into();
    }
    format!("{:.3}", count as f64 * 1_000_000.0 / virtual_us as f64)
}

/// Renders the canonical BENCH artifact for a set of mode runs.
///
/// Every figure is virtual-time-derived, so the output is byte-identical
/// across replays of the same seed — the property the committed baseline
/// relies on.
pub fn bench_json(name: &str, opts: &ProfileOptions, modes: &[ModeProfile]) -> String {
    let profile = LatencyProfile::one_us();
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"profile\": \"{}\",", profile.name());
    out.push_str("  \"rtt_us\": {");
    let mut first = true;
    for a in 0..profile.site_count() {
        for b in (a + 1)..profile.site_count() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}-{}\": {}",
                profile.site_name(a),
                profile.site_name(b),
                profile.rtt(a, b).as_micros()
            );
        }
    }
    out.push_str("},\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"clients_per_site\": {}, \"sections_per_client\": {}, \
         \"puts_per_section\": {}, \"value_bytes\": {}}},",
        opts.clients_per_site, opts.sections_per_client, opts.puts_per_section, opts.value_size
    );
    out.push_str("  \"modes\": {\n");
    for (i, m) in modes.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", m.key.name());
        let _ = writeln!(out, "      \"virtual_us\": {},", m.virtual_us);
        let _ = writeln!(out, "      \"sections\": {},", m.sections);
        let _ = writeln!(
            out,
            "      \"sections_per_vsec\": {},",
            rate(m.sections, m.virtual_us)
        );
        let _ = writeln!(out, "      \"protocol_ops\": {},", m.protocol_ops);
        let _ = writeln!(
            out,
            "      \"protocol_ops_per_vsec\": {},",
            rate(m.protocol_ops, m.virtual_us)
        );
        let _ = writeln!(out, "      \"sim_events\": {},", m.executor.events());
        let _ = writeln!(
            out,
            "      \"sim_events_per_vsec\": {},",
            rate(m.executor.events(), m.virtual_us)
        );
        let e = &m.executor;
        let _ = writeln!(
            out,
            "      \"executor\": {{\"tasks_spawned\": {}, \"task_polls\": {}, \
             \"timers_set\": {}, \"timers_fired\": {}, \"timers_cancelled\": {}, \
             \"max_ready_queue\": {}, \"max_timer_heap\": {}}},",
            e.tasks_spawned,
            e.task_polls,
            e.timers_set,
            e.timers_fired,
            e.timers_cancelled,
            e.max_ready_queue,
            e.max_timer_heap
        );
        out.push_str("      \"counters\": {");
        for (j, (cname, v)) in m.counters.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{cname}\": {v}");
        }
        out.push_str("},\n");
        out.push_str("      \"phases\": {\n");
        for (j, (pname, st)) in m.phases.iter().enumerate() {
            let _ = write!(
                out,
                "        \"{pname}\": {{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \
                 \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}}",
                st.count, st.p50_us, st.p95_us, st.p99_us, st.p999_us, st.max_us
            );
            out.push_str(if j + 1 < m.phases.len() { ",\n" } else { "\n" });
        }
        out.push_str("      },\n");
        out.push_str("      \"site_grant_wait\": {\n");
        for (j, s) in m.sites.iter().enumerate() {
            let _ = write!(
                out,
                "        \"{}\": {{\"entered\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"p999_us\": {}, \"max_us\": {}}}",
                s.site, s.entered, s.wait.p50_us, s.wait.p99_us, s.wait.p999_us, s.wait.max_us
            );
            out.push_str(if j + 1 < m.sites.len() { ",\n" } else { "\n" });
        }
        out.push_str("      },\n");
        let _ = writeln!(
            out,
            "      \"spans\": {{\"total\": {}, \"unclosed\": {}, \"ok\": {}}},",
            m.span_report.spans,
            m.span_report.unclosed,
            m.span_report.ok()
        );
        let _ = writeln!(
            out,
            "      \"online\": {{\"ok\": {}, \"queue_checked\": {}, \"queue_violations\": {}}}",
            m.report.ok(),
            m.report.queue_checked,
            m.report.queue_violations.len()
        );
        out.push_str(if i + 1 < modes.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_stats_use_nearest_rank() {
        let st = PhaseStats::from_samples(vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(st.count, 10);
        assert_eq!(st.p50_us, 50);
        assert_eq!(st.p95_us, 100);
        assert_eq!(st.max_us, 100);
        assert_eq!(PhaseStats::from_samples(vec![]).count, 0);
    }
}
