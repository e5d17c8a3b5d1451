//! Metric names, the result of one measured pass, and the two output forms:
//! a table for people and the one-line JSON object the driver reads.

use std::fmt::Write as _;

use crate::util::{median, pctl, ratio};

/// The end-to-end metrics, in output order. `BENCHMARK.json` carries the
/// same names with their bounds.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cs_p50_us", "us"),
    ("cs_p95_us", "us"),
    ("cs_per_s", "1/s"),
    ("cpu_us_per_cs", "us"),
    ("setup_s", "s"),
];

/// The per-layer metrics, in output order. Every traced run prints all of
/// them; one that does not apply to the workload (a `simnet.*` count on a
/// socket run, a `node.*` time on the simulator) reads `0`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("music.enter_p50_us", "us"),
    ("music.enter_p95_us", "us"),
    ("music.get_p50_us", "us"),
    ("music.put_p50_us", "us"),
    ("music.release_p50_us", "us"),
    ("music.cs_p99_us", "us"),
    ("music.create_ref_p50_us", "us"),
    ("music.acquire_grant_p50_us", "us"),
    ("music.peeks_per_cs", "count"),
    ("music.self_us_per_cs", "us"),
    ("music.retries_per_cs", "count"),
    ("music.cs_failed", "count"),
    ("music.stall_max_us", "us"),
    ("music.fair_share_min", "share"),
    ("music.late_p95_us", "us"),
    ("music.phase.lock_enqueue_p50_us", "us"),
    ("music.phase.lock_headwait_p50_us", "us"),
    ("music.phase.lock_release_p50_us", "us"),
    ("music.phase.data_put_p50_us", "us"),
    ("lockstore.grants_per_cs", "count"),
    ("quorumstore.lwt_retries_per_cs", "count"),
    ("quorumstore.quorum_writes_per_cs", "count"),
    ("quorumstore.quorum_reads_per_cs", "count"),
    ("transport.msgs_per_cs", "count"),
    ("transport.bytes_per_cs", "count"),
    ("transport.rtt_p50_us", "us"),
    ("transport.rtt_p95_us", "us"),
    ("transport.timeouts_per_cs", "count"),
    ("node.serve_data_p50_ns", "ns"),
    ("node.serve_lock_p50_ns", "ns"),
    ("node.serve_us_per_cs", "us"),
    ("node.frames_per_cs", "count"),
    ("simnet.polls_per_cs", "count"),
    ("simnet.timers_set_per_cs", "count"),
    ("simnet.timers_cancelled_share", "share"),
    ("simnet.events_per_wall_s", "1/s"),
    ("proc.peak_rss_mib", "MiB"),
    ("proc.threads_peak", "count"),
    ("proc.ctx_switches_per_cs", "count"),
    ("proc.sys_share", "share"),
    // The traced pass's CPU per section over the untraced reference
    // pass's, minus one.
    ("trace.overhead_share", "share"),
];

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each completed section in the workload's clock, ns.
    pub latencies_ns: Vec<u64>,
    /// Logical sections started in the measured phase.
    pub attempted: u64,
    /// Logical sections that never completed.
    pub failed: u64,
    /// First measured start to last completion, workload's clock, ns.
    pub span_ns: u64,
    /// Process CPU (user + system, all threads) over the measured phase.
    pub cpu_us: u64,
    /// Wall time of each set-up repetition, seconds.
    pub setups_s: Vec<f64>,
    /// Everything that makes the run's output wrong (empty = correct).
    pub problems: Vec<String>,
    /// Per-layer values of a traced pass, by name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn cpu_us_per_cs(&self) -> f64 {
        ratio(self.cpu_us as f64, self.completed() as f64)
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        vec![
            ("cs_p50_us", pctl(&sorted, 0.50) / 1_000.0),
            ("cs_p95_us", pctl(&sorted, 0.95) / 1_000.0),
            (
                "cs_per_s",
                ratio(self.completed() as f64, self.span_ns as f64 / 1e9),
            ),
            ("cpu_us_per_cs", self.cpu_us_per_cs()),
            ("setup_s", median(self.setups_s.clone())),
        ]
    }

    /// Folds in the untraced reference pass a traced run made first: its
    /// problems, and the tracing overhead measured against it.
    pub fn compare_to_reference(&mut self, reference: Pass) {
        let overhead = ratio(self.cpu_us_per_cs(), reference.cpu_us_per_cs()) - 1.0;
        self.problems.extend(reference.problems);
        self.set("trace.overhead_share", overhead);
    }

    /// Every per-layer metric in the canonical order; one the pass did not
    /// set (it does not apply to the workload) reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|(n, _)| (*n, self.value(n))).collect()
    }

    /// The last value set for a per-layer metric (0 when never set).
    pub fn value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.push((name, value));
    }
}

/// How much of a run's nominal length one pass measures.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Length {
    /// Set-up only, torn down at once (feeds `setup_s`).
    SetupOnly,
    Full,
    /// Each of the two passes of a traced run.
    Half,
}

/// The shape of every run: `setups - 1` set-ups that are torn down at
/// once, then the measured pass (`setup_s` is the median over all of
/// them). A traced run is self-contained: an untraced reference pass of
/// half length, then the traced pass of half length, and
/// `trace.overhead_share` compares the two.
pub fn run_shape(setups: usize, traced: bool, pass: impl Fn(Length, bool) -> Pass) -> Pass {
    let mut setups_s = Vec::new();
    for _ in 1..setups {
        setups_s.extend(pass(Length::SetupOnly, false).setups_s);
    }
    let mut measured = if traced {
        let reference = pass(Length::Half, false);
        let mut traced = pass(Length::Half, true);
        traced.compare_to_reference(reference);
        traced
    } else {
        pass(Length::Full, false)
    };
    measured.setups_s.extend(setups_s);
    measured
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The table for people: one `workload metric value unit` row per metric.
pub fn print_table(workload: &str, metrics: &[(&'static str, f64)]) {
    for (name, value) in metrics {
        println!("{workload:<18} {name:<36} {value:>16.4} {}", unit_of(name));
    }
}

/// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(pass: &Pass, metrics: &[(&'static str, f64)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        pass.problems.is_empty(),
        pass.attempted.max(1),
        pass.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}
