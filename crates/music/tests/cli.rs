//! `music-node` and `music-load` refuse a flag they do not read — the
//! other binary's flags and the retired `--config` included — by name,
//! with the usage on stderr and exit status 2.

use std::process::Command;

#[test]
fn a_flag_the_binary_does_not_read_exits_2_naming_it() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_music-node"), &["--sections", "5"][..]),
        (env!("CARGO_BIN_EXE_music-node"), &["--config", "node.toml"]),
        (env!("CARGO_BIN_EXE_music-load"), &["--id", "1"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("run binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{}`", args[0])) && err.contains("usage: music-"),
            "{bin} {args:?}: {err}"
        );
    }
}
