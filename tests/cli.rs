//! `music-sim`'s command line refuses what it does not know: an unknown
//! command, flag or profile name prints the usage to stderr and exits 2,
//! so a stale command line fails instead of running something else.

use std::process::{Command, Output};

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
