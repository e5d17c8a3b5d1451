//! `music-benchmark`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! music-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! music-benchmark --list | --layers | --selftest
//! ```

mod drive;
mod layers;
mod ledger;
mod report;
mod section;
mod sim;
mod tcp;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{print_table, result_line, Pass};
use workloads::Workload;

const USAGE: &str = "usage: music-benchmark --workload W [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--out DIR]\n       music-benchmark --list | --layers | --selftest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    List,
    Layers,
    Selftest,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--list" => args.mode = Mode::List,
            "--layers" => args.mode = Mode::Layers,
            "--selftest" => args.mode = Mode::Selftest,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Set-ups per run (`setup_s` is their median): a socket set-up costs
/// about a second, a simulator one a fraction of that.
const TCP_SETUPS: usize = 3;
const SIM_SETUPS: usize = 5;

fn run_workload(w: &Workload, args: &Args) -> Pass {
    // `--quick` shrinks every count and the measured time twentyfold.
    let seconds = if args.quick {
        args.seconds / 20.0
    } else {
        args.seconds
    };
    let trace_file = args.trace.then(|| {
        let _ = std::fs::create_dir_all(&args.out);
        args.out.join(format!("trace-{}.json", w.name()))
    });
    let mut pass = match w {
        Workload::Tcp(spec) => tcp::run(
            spec,
            args.seed,
            seconds,
            args.trace,
            TCP_SETUPS,
            trace_file.as_deref(),
        ),
        Workload::Sim(spec) => sim::run(
            spec,
            args.seed,
            seconds,
            args.trace,
            SIM_SETUPS,
            trace_file.as_deref(),
        ),
    };
    if pass.latencies_ns.is_empty() {
        pass.problems.push("no section completed".into());
    }
    pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("music-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::List => {
            for w in workloads::all() {
                println!("{}", w.name());
            }
            return ExitCode::SUCCESS;
        }
        Mode::Layers => {
            layers::run(args.quick);
            return ExitCode::SUCCESS;
        }
        Mode::Selftest => {
            return if workloads::selftest(args.seed) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Mode::Run => {}
    }
    let Some(name) = &args.workload else {
        eprintln!("music-benchmark: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(w) = workloads::all().into_iter().find(|w| w.name() == name) else {
        eprintln!("music-benchmark: no workload `{name}` (try --list)");
        return ExitCode::from(2);
    };

    // A run that hangs (the socket cluster has no failure detector to
    // unblock one) ends here with an error instead of at the driver's limit.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(170));
        eprintln!("music-benchmark: no result after 170 s, giving up");
        std::process::exit(1);
    });
    let pass = run_workload(&w, &args);
    let metrics = if args.trace {
        pass.per_layer()
    } else {
        pass.end_to_end()
    };
    println!(
        "# {name} seed={} seconds={} trace={} sections: {} attempted, {} completed, {} failed",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pass.attempted,
        pass.completed(),
        pass.failed
    );
    if args.trace {
        // For reading the table: the traced pass's own section median next
        // to the sum of its op medians (they should agree within ~10 %).
        let own = pass.end_to_end()[0].1;
        let ops: f64 = ["enter", "get", "put", "release"]
            .iter()
            .map(|op| pass.value(&format!("music.{op}_p50_us")))
            .sum();
        println!("# traced pass: cs_p50_us {own:.1}, sum of music.* op medians {ops:.1}");
    }
    print_table(name, &metrics);
    for p in pass.problems.iter().take(10) {
        println!("# PROBLEM: {p}");
    }
    println!("{}", result_line(&pass, &metrics));
    ExitCode::SUCCESS
}
