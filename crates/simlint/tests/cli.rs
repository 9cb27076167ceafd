//! The `simlint` binary itself: it is the `scripts/check.sh` / CI gate, so
//! its exit codes and its independence from the working directory are
//! tested on the real executable, not on the library.

use std::path::Path;
use std::process::{Command, Output};

fn simlint(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("simlint binary runs")
}

#[test]
fn clean_tree_exits_zero_from_any_working_directory() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for cwd in [repo.clone(), repo.join("crates/netsim")] {
        let out = simlint(&cwd, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "from {}: {stdout}", cwd.display());
        assert!(
            stdout.contains("13 rules") && stdout.contains("14 waiver(s)"),
            "from {}: {stdout}",
            cwd.display()
        );
    }
}

#[test]
fn any_argument_is_rejected_with_exit_two() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for args in [&["--ratchet", "x"][..], &["--format", "json"]] {
        let out = simlint(&repo, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not scan");
    }
}
