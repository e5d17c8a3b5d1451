//! The six workloads. Names, client counts, key layouts, value sizes and
//! the open-loop rate are the benchmark's definition: changing any of them
//! starts a new baseline.

use music_simnet::time::SimDuration;

use crate::drive::Load;
use crate::report::Pass;
use crate::section::Shape;
use crate::sim::{self, OpenLoop, SimSpec};
use crate::tcp::TcpSpec;

pub enum Workload {
    Tcp(TcpSpec),
    Sim(SimSpec),
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Tcp(s) => s.name,
            Workload::Sim(s) => s.name,
        }
    }
}

/// Socket workloads have no failure detector behind them, so the deadline
/// is only there to end a run that would otherwise hang. It has to outlast
/// the longest measured phase: on `tcp_hot` one client's `enter` can lose
/// the LWT ballot race for as long as the other keeps re-entering.
const TCP_DEADLINE: SimDuration = SimDuration::from_secs(90);
/// Five failure-detector timeouts (30 s by default): far beyond any wait
/// a healthy queue imposes.
const SIM_DEADLINE: SimDuration = SimDuration::from_secs(150);

const fn small(op_deadline: SimDuration) -> Shape {
    Shape {
        puts: 1,
        value_len: 64,
        op_deadline,
    }
}

pub fn all() -> Vec<Workload> {
    vec![
        // No lock waiting: time is LWT rounds over small frames.
        Workload::Tcp(TcpSpec {
            name: "tcp_disjoint",
            load: Load {
                clients: 2,
                keys_per_client: 64,
                shape: small(TCP_DEADLINE),
            },
            warmup_sections: 400,
        }),
        // Same cluster, large data-store writes instead of small LWTs.
        Workload::Tcp(TcpSpec {
            name: "tcp_bulk",
            load: Load {
                clients: 2,
                keys_per_client: 64,
                shape: Shape {
                    puts: 16,
                    value_len: 4096,
                    op_deadline: TCP_DEADLINE,
                },
            },
            warmup_sections: 150,
        }),
        // Both clients on one key: acquire polling and release→grant handoff.
        Workload::Tcp(TcpSpec {
            name: "tcp_hot",
            load: Load {
                clients: 2,
                keys_per_client: 0,
                shape: small(TCP_DEADLINE),
            },
            warmup_sections: 100,
        }),
        // Protocol round-trips × WAN RTT and nothing else.
        Workload::Sim(SimSpec {
            name: "sim_wan_disjoint",
            load: Load {
                clients: 12,
                keys_per_client: 16,
                shape: small(SIM_DEADLINE),
            },
            sections_per_second: 1_200.0,
            open_loop: None,
        }),
        // Cross-site handoff chain on one key; the executor's timer stress.
        Workload::Sim(SimSpec {
            name: "sim_wan_hot",
            load: Load {
                clients: 6,
                keys_per_client: 0,
                shape: small(SIM_DEADLINE),
            },
            sections_per_second: 240.0,
            open_loop: None,
        }),
        // Open loop under a rolling store-node crash: ECF under failures.
        Workload::Sim(SimSpec {
            name: "sim_fault",
            // Five of this workload's 2 s failure-detector timeouts.
            load: Load {
                clients: 6,
                keys_per_client: 16,
                shape: small(SimDuration::from_secs(10)),
            },
            sections_per_second: 240.0,
            open_loop: Some(OpenLoop {
                period: SimDuration::from_secs(1),
                crash_every: SimDuration::from_secs(60),
                crash_for: SimDuration::from_secs(10),
                failure_timeout: SimDuration::from_secs(2),
            }),
        }),
    ]
}

/// The metrics that must repeat exactly when a simulator workload is run
/// twice with one seed: everything measured in virtual time or counted.
const DETERMINISTIC: [&str; 10] = [
    "cs_p50_us",
    "cs_p95_us",
    "cs_per_s",
    "music.enter_p50_us",
    "music.cs_p99_us",
    "transport.msgs_per_cs",
    "transport.bytes_per_cs",
    "simnet.polls_per_cs",
    "simnet.timers_set_per_cs",
    "simnet.timers_cancelled_share",
];

fn fingerprint(pass: &Pass) -> Vec<(&'static str, f64)> {
    pass.end_to_end()
        .into_iter()
        .chain(pass.layers.iter().copied())
        .filter(|(n, _)| DETERMINISTIC.contains(n))
        .collect()
}

/// Runs every simulator workload twice, traced, at a twentieth of full
/// size, and checks that the two runs agree to the last digit.
pub fn selftest(seed: u64) -> bool {
    let mut ok = true;
    for w in all() {
        let Workload::Sim(spec) = w else { continue };
        let run = || sim::run(&spec, seed, 0.5, true, 1, None);
        let (a, b) = (run(), run());
        let (fa, fb) = (fingerprint(&a), fingerprint(&b));
        let same = fa == fb && a.latencies_ns == b.latencies_ns;
        let clean = a.problems.is_empty() && b.problems.is_empty();
        println!(
            "selftest {:<18} {} ({} sections, {} metrics compared)",
            spec.name,
            if same && clean { "ok" } else { "FAILED" },
            a.completed(),
            fa.len()
        );
        if !same {
            for ((n, x), (_, y)) in fa.iter().zip(&fb).filter(|(x, y)| x != y) {
                println!("  {n}: {x} vs {y}");
            }
        }
        for p in a.problems.iter().chain(&b.problems).take(5) {
            println!("  problem: {p}");
        }
        ok &= same && clean;
    }
    ok
}
