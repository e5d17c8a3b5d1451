//! `music-sim`'s command line refuses what it does not know: an unknown
//! command, a flag the command does not read, or an unknown profile name
//! prints the usage to stderr and exits 2, so a stale command line fails
//! instead of running something else.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn music_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_music-sim"))
        .args(args)
        .output()
        .expect("run music-sim")
}

#[test]
fn unknown_flags_commands_and_profiles_exit_2_with_the_usage() {
    for args in [
        &["profile", "--compare", "x"][..],
        &["frobnicate"],
        &["latency", "2Us"],
        &["verify", "extra"],
        &["trace", "--seed", "seven"],
        // A flag or value only another command reads is refused like an
        // unknown one.
        &["verify", "--seed", "3"],
        &["profile", "--spans"],
        &["trace", "--schedules", "5"],
        &["nemesis", "--mode", "all"],
    ] {
        let out = music_sim(args);
        assert_eq!(out.status.code(), Some(2), "music-sim {args:?}");
        assert!(
            out.stdout.is_empty(),
            "music-sim {args:?} printed to stdout"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: music-sim"),
            "music-sim {args:?}: {err}"
        );
    }
}

#[test]
fn known_commands_and_help_exit_0() {
    for args in [&["profiles"][..], &[], &["help"]] {
        let out = music_sim(args);
        assert_eq!(out.status.code(), Some(0), "music-sim {args:?}");
        assert!(!out.stdout.is_empty(), "music-sim {args:?} printed nothing");
    }
}

/// Whether `music-sim args` gets past its command line: it exits 0, or it
/// is still running after two seconds (a refused line exits 2 at once;
/// `verify` and `throughput` take tens of seconds in a debug build).
fn accepted(args: &[&str]) -> bool {
    let mut child = Command::new(env!("CARGO_BIN_EXE_music-sim"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn music-sim");
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("wait on music-sim") {
            return status.success();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill music-sim");
    child.wait().expect("reap music-sim");
    true
}

#[test]
fn every_command_accepts_all_of_its_own_flags() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/BENCH_cli.json");
    for args in [
        &["demo", "1l"][..],
        &["latency", "1l"],
        &["throughput", "1l"],
        &[
            "trace", "1l", "--seed", "1", "--spans", "--node", "1", "--site", "0",
        ],
        &["trace", "1l", "--trace-id", "1"],
        &[
            "profile", "--seed", "1", "--mode", "sync", "--name", "cli", "--out", out,
        ],
        &[
            "nemesis",
            "1l",
            "--seed",
            "1",
            "--schedules",
            "1",
            "--mode",
            "sync",
            "--no-replay",
        ],
        &[
            "nemesis",
            "1l",
            "--schedules",
            "1",
            "--drift-us",
            "100",
            "--flash-crowd",
        ],
        &["verify"],
        &["profiles"],
        &["help"],
    ] {
        assert!(accepted(args), "music-sim {args:?} was refused");
    }
    std::fs::remove_file(out).expect("profile wrote its --out file");
}
