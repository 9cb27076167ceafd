//! `repro` rejects a bad command line before any simulation runs.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn unknown_name_or_missing_value_exits_2_with_usage() {
    for args in [
        &["fig03", "bogus"][..],
        &["--quick", "--jobs"],
        &["fig07", "--csv", "x.csv"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro"), "{err}");
        for e in bench::EXPERIMENTS {
            assert!(err.contains(e.name), "usage lists {}: {err}", e.name);
        }
    }
}
