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
//! makes the artifact a committable baseline. [`compare_benches`] is the
//! CI regression gate over two such files: it flattens every numeric leaf
//! and fails on relative deviation beyond a tolerance.

use std::collections::BTreeMap;
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
    /// Mutant knob: extra per-message service latency, µs. Zero for real
    /// runs; the CI gate's deliberately-slowed run sets this and must be
    /// caught by [`compare_benches`].
    pub handicap_us: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            seed: 7,
            clients_per_site: 2,
            sections_per_client: 3,
            puts_per_section: 4,
            value_size: 16,
            handicap_us: 0,
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
    let mut net = bench_net_config();
    net.service_fixed += SimDuration::from_micros(opts.handicap_us);
    let recorder = Recorder::tracing();
    recorder.attach_online(OnlineConfig::unbounded());
    let sys = MusicSystemBuilder::new()
        .profile(profile)
        .net_config(net)
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
            .map(|&name| (name, total_by_name(&snapshot, name)))
            .collect(),
        phases,
        sites: site_rows,
        span_report,
        spans,
        report,
    }
}

/// `MetricsSnapshot::total` takes a `&'static str`; this walks rows by
/// value instead so the counter list above can stay one table.
fn total_by_name(snapshot: &music_telemetry::MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.value)
        .sum()
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
/// and [`compare_benches`] rely on.
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

// ---------------------------------------------------------------------------
// The regression gate: flatten → compare.

/// Flattens every numeric leaf of a JSON document into `path → value`
/// (object keys joined with `.`, array elements indexed). A minimal
/// hand-rolled parser — the repo deliberately carries no JSON dependency.
pub fn flatten_numbers(src: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    p.skip_ws();
    p.value("", &mut out)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => s.push(c as char),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            // \uXXXX — keep the raw escape; paths never
                            // need the decoded code point to stay unique.
                            s.push_str("\\u");
                            for _ in 0..4 {
                                self.pos += 1;
                                if let Some(h) = self.peek() {
                                    s.push(h as char);
                                }
                            }
                        }
                        other => return Err(format!("bad escape {other:?} at {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn value(&mut self, path: &str, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let sub = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    self.value(&sub, out)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad object at {}: {other:?}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                loop {
                    self.value(&format!("{path}[{i}]"), out)?;
                    i += 1;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad array at {}: {other:?}", self.pos)),
                    }
                }
            }
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                let v: f64 = text
                    .parse()
                    .map_err(|e| format!("bad number {text:?}: {e}"))?;
                out.insert(path.to_string(), v);
                Ok(())
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// The CI regression gate: compares two BENCH artifacts and returns one
/// violation line per numeric leaf that is missing from `fresh` or
/// deviates from `baseline` by more than `tolerance` (a fraction:
/// `0.10` = ±10 % relative). Improvements fail too — they mean the
/// committed baseline is stale and should be regenerated.
pub fn compare_benches(baseline: &str, fresh: &str, tolerance: f64) -> Result<Vec<String>, String> {
    let base = flatten_numbers(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = flatten_numbers(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut violations = Vec::new();
    for (key, b) in &base {
        match new.get(key) {
            None => violations.push(format!("{key}: missing from fresh run (baseline {b})")),
            Some(f) => {
                let scale = b.abs().max(f.abs());
                if (b - f).abs() > tolerance * scale {
                    violations.push(format!(
                        "{key}: baseline {b} vs fresh {f} (> {:.1}% deviation)",
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    Ok(violations)
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

    #[test]
    fn flatten_walks_nested_objects_and_arrays() {
        let flat = flatten_numbers(
            "{\"a\": 1, \"b\": {\"c\": 2.5, \"d\": [3, {\"e\": -4}]}, \
             \"s\": \"text\", \"t\": true, \"n\": null}",
        )
        .unwrap();
        assert_eq!(flat["a"], 1.0);
        assert_eq!(flat["b.c"], 2.5);
        assert_eq!(flat["b.d[0]"], 3.0);
        assert_eq!(flat["b.d[1].e"], -4.0);
        assert_eq!(flat.len(), 4, "strings/bools/nulls are not leaves");
        assert!(flatten_numbers("{\"a\": }").is_err());
    }

    #[test]
    fn gate_accepts_within_tolerance_and_rejects_beyond() {
        let base = "{\"x\": 100, \"y\": 50}";
        assert!(compare_benches(base, "{\"x\": 105, \"y\": 50}", 0.10)
            .unwrap()
            .is_empty());
        let v = compare_benches(base, "{\"x\": 120, \"y\": 50}", 0.10).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("x:"));
        // A key vanishing from the fresh run is always a violation.
        let v = compare_benches(base, "{\"x\": 100}", 0.10).unwrap();
        assert!(v[0].contains("missing"));
        // Extra keys in the fresh run are fine (additive evolution).
        assert!(
            compare_benches(base, "{\"x\": 100, \"y\": 50, \"z\": 1}", 0.10)
                .unwrap()
                .is_empty()
        );
    }
}
