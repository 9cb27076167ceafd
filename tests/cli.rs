//! Smoke tests for the `srb` command-line tool.

use std::process::Command;

fn srb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srb"))
}

#[test]
fn size_subcommand_prints_models() {
    let out = srb()
        .args(["size", "--rate-gbps", "10", "--rtt-ms", "250", "--flows", "50000"])
        .output()
        .expect("run srb");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rule of thumb"));
    assert!(text.contains("2.50 Gbit"));
    assert!(text.contains("BDP/sqrt(n)"));
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = srb().arg("bogus").output().expect("run srb");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"));
}

#[test]
fn malformed_value_exits_2_with_usage() {
    let out = srb().args(["size", "--flows", "1O0"]).output().expect("run srb");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no model printed for a rejected value");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--flows expects a number, got \"1O0\""), "{err}");
    assert!(err.contains("usage"));
}

#[test]
fn trailing_flag_without_value_exits_2_with_usage() {
    let out = srb().args(["longflow", "--buffer"]).output().expect("run srb");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--buffer expects a value"), "{err}");
    assert!(err.contains("usage"));
}

#[test]
fn defaults_are_applied_when_flags_missing() {
    let out = srb().arg("size").output().expect("run srb");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("50000 long-lived flows"));
}
