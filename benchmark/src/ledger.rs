//! From what a pass recorded to the metrics it reports: the figures both
//! kinds of workload derive the same way.

use std::collections::HashMap;

use music::{OpKind, OpStats};
use music_telemetry::MetricsSnapshot;

use crate::drive::Tally;
use crate::report::Pass;
use crate::trace::{self, Clock};
use crate::util::{self, pctl, ratio, ProcSample};

/// Copies a tally and the process samples around it into the pass.
pub fn fill_pass(
    pass: &mut Pass,
    tally: Tally,
    clients: usize,
    before: &ProcSample,
    after: &ProcSample,
) {
    pass.span_ns = tally.span_ns();
    let stall = tally.stall_max_ns();
    let fair_share_min = tally.fair_share_min(clients);
    pass.attempted = tally.attempted;
    pass.failed = tally.failed;
    pass.cpu_us = after.cpu_us() - before.cpu_us();
    let cs = tally.latencies_ns.len() as f64;
    let mut sorted = tally.latencies_ns.clone();
    sorted.sort_unstable();
    pass.set("music.cs_p99_us", pctl(&sorted, 0.99) / 1e3);
    pass.set("music.cs_failed", tally.attempts_failed as f64);
    pass.set("music.stall_max_us", stall as f64 / 1e3);
    pass.set("music.fair_share_min", fair_share_min);
    pass.set("proc.peak_rss_mib", util::peak_rss_mib());
    pass.set(
        "proc.threads_peak",
        before.threads.max(after.threads) as f64,
    );
    pass.set(
        "proc.ctx_switches_per_cs",
        ratio(
            after.ctx_switches.saturating_sub(before.ctx_switches) as f64,
            cs,
        ),
    );
    pass.set(
        "proc.sys_share",
        ratio(
            (after.sys_us - before.sys_us) as f64,
            (after.cpu_us() - before.cpu_us()) as f64,
        ),
    );
    if tally.failed > 0 {
        pass.problems.push(format!(
            "{} of {} sections failed: {:?}",
            tally.failed, tally.attempted, tally.errors_seen
        ));
    }
    pass.problems.extend(tally.problems);
    pass.latencies_ns = tally.latencies_ns;
}

/// Per-op latencies, transport figures and self time from the span log.
pub fn span_metrics(pass: &mut Pass, spans: &[trace::Span], cs: f64) {
    let durations = |name: &str| -> Vec<u64> {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(trace::Span::duration_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let enter = durations(trace::ENTER);
    pass.set("music.enter_p50_us", pctl(&enter, 0.50) / 1e3);
    pass.set("music.enter_p95_us", pctl(&enter, 0.95) / 1e3);
    pass.set("music.get_p50_us", pctl(&durations(trace::GET), 0.50) / 1e3);
    pass.set("music.put_p50_us", pctl(&durations(trace::PUT), 0.50) / 1e3);
    pass.set(
        "music.release_p50_us",
        pctl(&durations(trace::RELEASE), 0.50) / 1e3,
    );

    let requests: Vec<&trace::Span> = spans.iter().filter(|s| s.name == trace::REQUEST).collect();
    if requests.is_empty() {
        return;
    }
    let mut rtts: Vec<u64> = requests
        .iter()
        .filter(|s| !s.abandoned && s.end_ns > 0)
        .map(|s| s.duration_ns())
        .collect();
    rtts.sort_unstable();
    let replies = rtts.len() as f64;
    let abandoned = requests.iter().filter(|s| s.abandoned).count() as f64;
    pass.set("transport.rtt_p50_us", pctl(&rtts, 0.50) / 1e3);
    pass.set("transport.rtt_p95_us", pctl(&rtts, 0.95) / 1e3);
    pass.set(
        "transport.msgs_per_cs",
        ratio(requests.len() as f64 + replies, cs),
    );
    pass.set(
        "transport.bytes_per_cs",
        ratio(requests.iter().map(|s| f64::from(s.bytes)).sum(), cs),
    );
    pass.set("transport.timeouts_per_cs", ratio(abandoned, cs));

    // Self time of an op = its duration − the union of its request
    // children, each clipped to the op.
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for r in &requests {
        let end = if r.end_ns > 0 { r.end_ns } else { u64::MAX };
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, end));
    }
    let mut self_ns = 0u64;
    for op in spans
        .iter()
        .filter(|s| s.name.starts_with("music.") && s.end_ns > 0)
    {
        let covered = children
            .get_mut(&op.id)
            .map_or(0, |kids| trace::covered_ns(op.start_ns, op.end_ns, kids));
        self_ns += op.duration_ns() - covered;
    }
    pass.set("music.self_us_per_cs", ratio(self_ns as f64 / 1e3, cs));
}

/// What the protocol layers counted over the measured phase: `OpStats`
/// latencies (reset at its start) and the recorder's counters at both ends.
pub fn protocol_metrics(
    pass: &mut Pass,
    stats: &OpStats,
    start: &MetricsSnapshot,
    end: &MetricsSnapshot,
    cs: f64,
) {
    let op_p50 = |kind| {
        stats
            .histogram(kind)
            .try_percentile(0.5)
            .map_or(0.0, |d| d.as_micros() as f64)
    };
    pass.set("music.create_ref_p50_us", op_p50(OpKind::CreateLockRef));
    pass.set("music.acquire_grant_p50_us", op_p50(OpKind::AcquireGrant));
    pass.set(
        "music.peeks_per_cs",
        ratio(stats.count(OpKind::AcquirePeek) as f64, cs),
    );
    let per_cs = |name: &'static str| ratio((end.total(name) - start.total(name)) as f64, cs);
    pass.set("lockstore.grants_per_cs", per_cs("lock_grants"));
    pass.set("quorumstore.lwt_retries_per_cs", per_cs("lwt_retries"));
    pass.set("quorumstore.quorum_writes_per_cs", per_cs("quorum_writes"));
    pass.set("quorumstore.quorum_reads_per_cs", per_cs("quorum_reads"));
    // Retries a section absorbed: the client's own fail-overs plus the
    // attempts the load generator had to repeat.
    let repeated = ratio(pass.value("music.cs_failed"), cs);
    pass.set(
        "music.retries_per_cs",
        per_cs("client_failovers") + repeated,
    );
}

/// Writes the trace file; failing to is a problem of the run.
pub fn write_trace(
    pass: &mut Pass,
    path: Option<&std::path::Path>,
    workload: &str,
    clock: &Clock,
    spans: &[trace::Span],
    program_spans: &[String],
) {
    let Some(path) = path else { return };
    let json = trace::to_json(workload, clock, spans, program_spans);
    if let Err(e) = std::fs::write(path, json) {
        pass.problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
}
